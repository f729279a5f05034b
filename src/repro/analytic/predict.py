"""O(1)-per-configuration run prediction: ``predict_run``.

Where ``engine.run(...)`` walks a discrete-event (or fastpath) simulation
of the pipeline, ``predict_run(...)`` reads the engine's own timing model
and skips the simulation.  The CPU baselines' roofline legs and
gpu_single's serial chain are closed forms already, so the prediction is
their ``sim_time``.  The pipelined engines hand over the chunk schedule
their ``run`` simulates, and the predictor closes its bounded-ring
recurrence with the max-plus bound family of
:mod:`repro.analytic.algebra`.  No simulator events fire; cost is a
handful of float ops regardless of chunk count.

Scope: the five paper engines (``cpu_serial``, ``cpu_mt``, ``gpu_single``,
``gpu_double``, ``bigkernel`` incl. ablation feature sets) plus the
multi-GPU scale-out engine (``bigkernel_multigpu``: per-shard pipeline
bounds, a root-complex serialization bound for shared links, and the
closed-form merge cost shared with the engine).  The UVM family is
deliberately out of scope — demand paging's LRU page-table state has no
per-chunk closed form (see ``docs/performance.md``).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.apps.base import AppData, Application
from repro.engines.base import Engine, EngineConfig
from repro.engines.bigkernel import BigKernelEngine
from repro.engines.cpu_mt import CpuMtEngine
from repro.engines.cpu_serial import CpuSerialEngine
from repro.engines.gpu_double import GpuDoubleBufferEngine
from repro.engines.gpu_single import GpuSingleBufferEngine
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError
from repro.runtime.fastpath import FLAG_BYTES, TemplatedChunks
from repro.runtime.pipeline import ChunkWork, PipelineConfig

from repro.analytic.algebra import STAGE_NAMES, STAGES6, pipeline_bounds

#: engines predict_run can price in closed form
PREDICTABLE_ENGINES = (
    "cpu_serial",
    "cpu_mt",
    "gpu_single",
    "gpu_double",
    "bigkernel",
    "bigkernel_multigpu",
)

_ENGINE_CLASSES = {
    "cpu_serial": CpuSerialEngine,
    "cpu_mt": CpuMtEngine,
    "gpu_single": GpuSingleBufferEngine,
    "gpu_double": GpuDoubleBufferEngine,
    "bigkernel": BigKernelEngine,
    "bigkernel_multigpu": MultiGpuBigKernelEngine,
}

#: instance names encode the fabric ("bigkernel_multigpu4_shared", ...)
_MULTIGPU_NAME = re.compile(r"^bigkernel_multigpu(\d*)(_shared)?(_numablind)?$")


def _multigpu_from_name(name: str) -> Optional[MultiGpuBigKernelEngine]:
    m = _MULTIGPU_NAME.match(name)
    if m is None:
        return None
    return MultiGpuBigKernelEngine(
        n_gpus=int(m.group(1)) if m.group(1) else 2,
        shared_link=bool(m.group(2)),
        numa_aware=not m.group(3),
    )


@dataclass
class PredictedRun:
    """Closed-form prediction of one engine run."""

    engine: str
    app: str
    #: predicted total simulated time (same unit as ``RunResult.sim_time``)
    sim_time: float
    #: per-stage busy time (trace stage names; CPU baselines use roofline legs)
    stage_occupancy: Dict[str, float]
    #: stage with the largest busy time
    bottleneck: str
    #: fraction of the smaller of (PCIe busy, compute busy) hidden under
    #: the other — 0 for fully serialized schemes, →1 for perfect pipelining
    overlap_fraction: float
    #: the bound family (named lower bounds; the max is ``sim_time``)
    bounds: Dict[str, float] = field(default_factory=dict, repr=False)
    #: name of the binding (maximal) bound
    binding_bound: str = ""
    n_chunks: int = 0


def resolve_engine(engine: Union[str, Engine]) -> Engine:
    """Return an engine instance predict_run knows how to price."""
    if isinstance(engine, Engine):
        if isinstance(engine, MultiGpuBigKernelEngine):
            return engine
        cls = _ENGINE_CLASSES.get(engine.name)
        if cls is None or not isinstance(engine, cls):
            raise ReproError(
                f"no closed-form model for engine {engine.name!r}; "
                f"predictable: {', '.join(PREDICTABLE_ENGINES)}"
            )
        return engine
    eng = _multigpu_from_name(engine)
    if eng is not None:
        return eng
    cls = _ENGINE_CLASSES.get(engine)
    if cls is None:
        raise ReproError(
            f"no closed-form model for engine {engine!r}; "
            f"predictable: {', '.join(PREDICTABLE_ENGINES)}"
        )
    return cls()


def chunk_durations(k: ChunkWork, pcie, sync: float) -> Dict[str, float]:
    """Per-stage durations of one chunk kind, as the DES would price them."""
    d_addr = (
        pcie.transfer_time(k.addr_bytes_d2h, pinned=True) if k.addr_bytes_d2h > 0 else 0.0
    )
    return dict(
        A=k.t_addr_gen + d_addr,
        S=k.t_assembly,
        X=pcie.transfer_time(k.xfer_bytes, pinned=True, segments=k.xfer_segments)
        + pcie.transfer_time(FLAG_BYTES, pinned=True),
        C=k.t_compute + sync,
        WB=(
            pcie.transfer_time(k.write_bytes, pinned=True, segments=k.xfer_segments)
            if k.write_bytes > 0
            else 0.0
        ),
        SC=k.t_scatter,
        d_addr=d_addr,
    )


def predict_templated(hw, chunks: TemplatedChunks, pipe_cfg: PipelineConfig):
    """Closed-form total of a template(+tail) pipeline run.

    Returns ``(total, bounds, occupancy)`` with plain-float values.
    """
    pcie = hw.pcie
    t = chunk_durations(chunks.template, pcie, pipe_cfg.sync_overhead)
    u = (
        chunk_durations(chunks.tail, pcie, pipe_cfg.sync_overhead)
        if chunks.tail is not None
        else t
    )
    n_tail = chunks.passes if chunks.tail is not None else 0
    total, bounds, occ = pipeline_bounds(
        t,
        u,
        n=len(chunks),
        n_tail=n_tail,
        depth=pipe_cfg.ring_depth,
        per_pass=chunks.per_pass,
        passes=chunks.passes,
        cpu_workers=pipe_cfg.cpu_workers,
    )
    bounds = {name: float(v) for name, v in bounds.items()}
    occupancy = {STAGE_NAMES[s]: float(occ[s]) for s in STAGES6}
    return float(total), bounds, occupancy


def _finish_pipelined(name, app_name, total, bounds, occupancy, n_chunks):
    comm = occupancy["data_transfer"] + occupancy["write_transfer"]
    comp = occupancy["compute"]
    floor = min(comm, comp)
    overlap = 0.0
    if floor > 0.0:
        overlap = min(1.0, max(0.0, (comm + comp - total) / floor))
    real_bounds = {k: v for k, v in bounds.items() if v != float("-inf")}
    binding = max(real_bounds, key=real_bounds.get)
    bottleneck = max(occupancy, key=occupancy.get)
    return PredictedRun(
        engine=name,
        app=app_name,
        sim_time=total,
        stage_occupancy=occupancy,
        bottleneck=bottleneck,
        overlap_fraction=overlap,
        bounds=real_bounds,
        binding_bound=binding,
        n_chunks=n_chunks,
    )


def _link_legs(chunks: TemplatedChunks, pcie, sync: float):
    """One shard's total busy time on each PCIe direction.

    Returns ``(h2d, d2h)``: the data+flag H2D traffic and the address-ship
    plus write-back D2H traffic, summed over template and tail chunks —
    exactly the residency a shard imposes on a shared root-complex port.
    """
    t = chunk_durations(chunks.template, pcie, sync)
    u = chunk_durations(chunks.tail, pcie, sync) if chunks.tail is not None else t
    n_tail = chunks.passes if chunks.tail is not None else 0
    n_main = len(chunks) - n_tail
    h2d = n_main * t["X"] + n_tail * u["X"]
    d2h = n_main * (t["d_addr"] + t["WB"]) + n_tail * (u["d_addr"] + u["WB"])
    return h2d, d2h


def _scaled_shared_total(hw, chunks: TemplatedChunks, pipe_cfg: PipelineConfig, k: int):
    """One shard's closed form under round-robin service on a shared port.

    K symmetric shards start together, so their H2D requests interleave
    in near-lockstep on the root-complex FIFO: a shard's data transfer is
    served once every K slots, i.e. with effective duration ``K * X``.
    Closing the ring recurrence with that service time captures both the
    latency throttling of compute-bound shards (the ring stalls waiting
    for slow transfers) and — via the X-occupancy bound — the port's
    total H2D residency.
    """
    pcie = hw.pcie
    t = chunk_durations(chunks.template, pcie, pipe_cfg.sync_overhead)
    t["X"] *= k
    if chunks.tail is not None:
        u = chunk_durations(chunks.tail, pcie, pipe_cfg.sync_overhead)
        u["X"] *= k
        n_tail = chunks.passes
    else:
        u = t
        n_tail = 0
    total, _bounds, _occ = pipeline_bounds(
        t,
        u,
        n=len(chunks),
        n_tail=n_tail,
        depth=pipe_cfg.ring_depth,
        per_pass=chunks.per_pass,
        passes=chunks.passes,
        cpu_workers=pipe_cfg.cpu_workers,
    )
    return float(total)


def _predict_multigpu(
    app: Application,
    data: AppData,
    config: EngineConfig,
    eng: MultiGpuBigKernelEngine,
) -> PredictedRun:
    """Price a sharded run: per-shard pipeline bounds + fabric bounds.

    Dedicated links: shards share nothing in the DES, so the slowest
    shard's closed form *is* the pipeline total (exact, as for single-GPU
    bigkernel). A shared root-complex port adds two contention estimates:
    each shard's ring closed with K-scaled transfer service
    (:func:`_scaled_shared_total`) and a D2H-channel residency bound
    (address ships + write-backs of *all* shards serialize on the one
    D2H port). The kernel-launch overhead and the closed-form merge cost
    (identical to the engine's ``_merge_time``) are added on top.
    """
    hw = config.hardware
    plans, _ = eng._shard_plan(app, data, config)
    per_shard = []
    for g, _su, sched in plans:
        total_g, bounds_g, occ_g = predict_templated(hw, sched.chunks, sched.pipe_cfg)
        per_shard.append((g, total_g, bounds_g, occ_g, sched))

    slowest = max(per_shard, key=lambda p: p[1])
    total = slowest[1]
    bounds = {f"shard{slowest[0]}:{k}": v for k, v in slowest[2].items()}
    occupancy: Dict[str, float] = {}
    for _g, _t, _b, occ_g, _s in per_shard:
        for k, v in occ_g.items():
            occupancy[k] = occupancy.get(k, 0.0) + v

    n_shards = len(per_shard)
    if eng.shared_link and n_shards > 1:
        pcie = hw.pcie
        shared_h2d = max(
            _scaled_shared_total(hw, sched.chunks, sched.pipe_cfg, n_shards)
            for _g, _t, _b, _o, sched in per_shard
        )
        bounds["shared_port_h2d"] = shared_h2d
        total = max(total, shared_h2d)
        d2h_sum = sum(
            _link_legs(sched.chunks, pcie, sched.pipe_cfg.sync_overhead)[1]
            for _g, _t, _b, _o, sched in per_shard
        )
        if d2h_sum > 0.0:
            # fill: the first address ship waits for chunk 0's addr-gen
            sched0 = per_shard[0][4]
            t0 = chunk_durations(
                sched0.chunks.template, pcie, sched0.pipe_cfg.sync_overhead
            )
            shared_d2h = (t0["A"] - t0["d_addr"]) + d2h_sum
            bounds["shared_port_d2h"] = shared_d2h
            total = max(total, shared_d2h)

    total += hw.gpu.kernel_launch_overhead
    total += eng._merge_time(app, data, hw, n_shards)
    n_chunks = sum(len(sched.chunks) for _g, _t, _b, _o, sched in per_shard)
    return _finish_pipelined(eng.name, app.name, total, bounds, occupancy, n_chunks)


def predict_run(
    app: Application,
    data: AppData,
    config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> PredictedRun:
    """Predict ``engine.run(app, data, config).sim_time`` without running it."""
    config = config if config is not None else EngineConfig()
    eng = resolve_engine(engine)
    hw = config.hardware

    if isinstance(eng, (CpuSerialEngine, CpuMtEngine)):
        compute_t, mem_t = eng._legs(app, data, config)
        occupancy = {"cpu_compute": compute_t, "cpu_memory": mem_t}
        binding = max(occupancy, key=occupancy.get)
        return PredictedRun(
            engine=eng.name,
            app=app.name,
            sim_time=max(compute_t, mem_t),
            stage_occupancy=occupancy,
            bottleneck=binding,
            overlap_fraction=0.0,
            bounds=dict(occupancy),
            binding_bound=binding,
            n_chunks=1,
        )

    if isinstance(eng, GpuSingleBufferEngine):
        m = eng._closed_form(app, data, config)
        total = m.comm_time + m.comp_time
        occupancy = {"data_transfer": m.comm_time, "compute": m.comp_time}
        return PredictedRun(
            engine=eng.name,
            app=app.name,
            sim_time=total,
            stage_occupancy=occupancy,
            bottleneck=max(occupancy, key=occupancy.get),
            overlap_fraction=0.0,
            bounds={"serial_chain": total},
            binding_bound="serial_chain",
            n_chunks=m.n_chunks,
        )

    if isinstance(eng, GpuDoubleBufferEngine):
        chunks, _ = eng._schedule(app, data, config)
        total, bounds, occupancy = predict_templated(hw, chunks, eng.pipe_cfg)
        return _finish_pipelined(
            eng.name, app.name, total, bounds, occupancy, len(chunks)
        )

    if isinstance(eng, MultiGpuBigKernelEngine):
        return _predict_multigpu(app, data, config, eng)

    # bigkernel (any feature set): one kernel launch over the whole run
    sched = eng._schedule(app, data, config)
    total, bounds, occupancy = predict_templated(hw, sched.chunks, sched.pipe_cfg)
    total += hw.gpu.kernel_launch_overhead
    return _finish_pipelined(
        eng.name, app.name, total, bounds, occupancy, len(sched.chunks)
    )


#: accounting of :func:`predicted_sim_time` memoization — the online
#: pricing loop of the serving layer asks per enqueued job, so hits should
#: dominate on any repeat-heavy trace
PREDICT_RUN_STATS = {"requests": 0, "hits": 0, "misses": 0}

_PREDICT_CACHE: "OrderedDict[tuple, float]" = OrderedDict()
_PREDICT_CACHE_MAX = 512


def predicted_sim_time(
    app: Application,
    data: AppData,
    config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> float:
    """:func:`predict_run`'s ``sim_time``, memoized per compatibility key.

    The key is the content identity of the run — dataset content key,
    engine spec (name + variant), frozen config — exactly what the serving
    layer's batcher calls a compatibility class plus the per-job geometry.
    Raises :class:`ReproError` for engines with no closed-form model (the
    UVM family), same as :func:`predict_run`.
    """
    from repro.apps.base import dataset_key
    from repro.bench.jobs import engine_to_spec

    config = config if config is not None else EngineConfig()
    eng = resolve_engine(engine)
    PREDICT_RUN_STATS["requests"] += 1
    spec = engine_to_spec(eng)
    key = None
    if spec is not None:
        key = (app.name, dataset_key(data), spec, config)
        cached = _PREDICT_CACHE.get(key)
        if cached is not None:
            PREDICT_RUN_STATS["hits"] += 1
            _PREDICT_CACHE.move_to_end(key)
            return cached
    PREDICT_RUN_STATS["misses"] += 1
    sim_time = predict_run(app, data, config, eng).sim_time
    if key is not None:
        _PREDICT_CACHE[key] = sim_time
        while len(_PREDICT_CACHE) > _PREDICT_CACHE_MAX:
            _PREDICT_CACHE.popitem(last=False)
    return sim_time
