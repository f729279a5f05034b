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

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Optional, Union

from repro.apps.base import AppData, Application
from repro.engines import ENGINES, engine_by_name
from repro.engines.base import Engine, EngineConfig
from repro.engines.cpu_mt import CpuMtEngine
from repro.engines.cpu_serial import CpuSerialEngine
from repro.engines.gpu_double import GpuDoubleBufferEngine
from repro.engines.gpu_single import GpuSingleBufferEngine
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError
from repro.hw.elementwise import maximum, where
from repro.memo import Memo
from repro.runtime.fastpath import FLAG_BYTES
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
    """Return an engine instance predict_run knows how to price: a name
    resolves through :func:`repro.engines.engine_by_name`, and the
    engine's registry name must be one of :data:`PREDICTABLE_ENGINES`,
    with the engine an instance of the class registered under it."""
    label = engine if isinstance(engine, str) else engine.name
    try:
        eng = engine_by_name(engine) if isinstance(engine, str) else engine
    except ReproError:
        eng = None
    name = eng.identity.name if eng is not None else None
    if name not in PREDICTABLE_ENGINES or not isinstance(eng, ENGINES[name]):
        raise ReproError(
            f"no closed-form model for engine {label!r}; "
            f"predictable: {', '.join(PREDICTABLE_ENGINES)}"
        )
    return eng


def chunk_durations(k: ChunkWork, pcie, sync, h2d_slots=1) -> Dict[str, float]:
    """Per-stage durations of one chunk kind, as the DES would price them.

    ``k``'s costs may be per-point arrays (a sweep grid), and then so are
    the durations. ``h2d_slots`` stretches the data transfer for shards
    served round-robin on one shared root-complex port.
    """
    xfer = pcie.pinned_transfer_time
    d_addr = where(k.addr_bytes_d2h > 0, xfer(k.addr_bytes_d2h), 0.0)
    return dict(
        A=k.t_addr_gen + d_addr,
        S=k.t_assembly,
        X=h2d_slots * (xfer(k.xfer_bytes, k.xfer_segments) + xfer(FLAG_BYTES)),
        C=k.t_compute + sync,
        WB=where(k.write_bytes > 0, xfer(k.write_bytes, k.xfer_segments), 0.0),
        SC=k.t_scatter,
        d_addr=d_addr,
    )


def predict_templated(hw, chunks, pipe_cfg: PipelineConfig, h2d_slots=1):
    """Closed form of a template(+tail) pipeline run.

    ``chunks`` is a :class:`~repro.runtime.fastpath.TemplatedChunks`, or
    a sweep grid's :class:`~repro.analytic.grid.GridChunks` whose costs,
    counts and ``pipe_cfg.ring_depth`` are per-point arrays. Returns
    :func:`~repro.analytic.algebra.pipeline_bounds`'s ``(total, bounds,
    occupancy)``: NumPy scalars for one run, arrays for a grid.
    """
    pcie, sync, k = hw.pcie, pipe_cfg.sync_overhead, h2d_slots
    t = chunk_durations(chunks.template, pcie, sync, k)
    u = t if chunks.tail is None else chunk_durations(chunks.tail, pcie, sync, k)
    per_pass = chunks.n_full + chunks.has_tail
    return pipeline_bounds(
        t,
        u,
        n=chunks.passes * per_pass,
        n_tail=chunks.passes * chunks.has_tail,
        depth=pipe_cfg.ring_depth,
        per_pass=per_pass,
        passes=chunks.passes,
        cpu_workers=pipe_cfg.cpu_workers,
    )


def _finish_pipelined(name, app_name, total, bounds, occ, n_chunks):
    total = float(total)
    occupancy = {STAGE_NAMES[s]: float(occ[s]) for s in STAGES6}
    comm = occupancy["data_transfer"] + occupancy["write_transfer"]
    comp = occupancy["compute"]
    floor = min(comm, comp)
    overlap = 0.0
    if floor > 0.0:
        overlap = min(1.0, max(0.0, (comm + comp - total) / floor))
    real_bounds = {k: float(v) for k, v in bounds.items() if v != float("-inf")}
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


def _d2h_busy(pcie, chunks, sync):
    """One shard's total busy time on the D2H direction: the address
    ships plus write-backs of its template and tail chunks, exactly the
    residency it imposes on a shared root-complex port."""
    t = chunk_durations(chunks.template, pcie, sync)
    u = t if chunks.tail is None else chunk_durations(chunks.tail, pcie, sync)
    n_main = chunks.passes * chunks.n_full
    n_tail = chunks.passes * chunks.has_tail
    return n_main * (t["d_addr"] + t["WB"]) + n_tail * (u["d_addr"] + u["WB"])


def sharded_total(hw, shards, shared_link: bool):
    """Closed-form pipeline total of shards that run side by side.

    ``shards`` lists each shard's ``(chunks, pipe_cfg)``, numbers for one
    run or per-point arrays for a sweep grid. Dedicated links: shards
    share nothing in the DES, so the slowest shard's closed form *is* the
    total (exact, as for single-GPU bigkernel). A shared root-complex
    port adds two contention estimates. K symmetric shards start
    together, so their H2D requests interleave in near-lockstep on the
    port's FIFO: each shard's ring is closed again with its data transfer
    served once every K slots. And the address ships and write-backs of
    *all* shards serialize on the one D2H channel.

    Returns ``(total, per_shard, port_bounds)``: the total before the
    kernel launch and the merge, each shard's :func:`predict_templated`
    result, and the two port bounds (``-inf`` where inapplicable).
    """
    per_shard = [predict_templated(hw, chunks, cfg) for chunks, cfg in shards]
    total = reduce(maximum, [p[0] for p in per_shard])
    port = {}
    k = len(shards)
    if shared_link and k > 1:
        port["shared_port_h2d"] = reduce(
            maximum,
            [predict_templated(hw, c, cfg, h2d_slots=k)[0] for c, cfg in shards],
        )
        d2h = 0.0  # added left to right, as on every Python version
        for chunks, cfg in shards:
            d2h = d2h + _d2h_busy(hw.pcie, chunks, cfg.sync_overhead)
        # fill: the first address ship waits for chunk 0's addr-gen
        chunks0, cfg0 = shards[0]
        t0 = chunk_durations(chunks0.template, hw.pcie, cfg0.sync_overhead)
        port["shared_port_d2h"] = where(
            d2h > 0.0, (t0["A"] - t0["d_addr"]) + d2h, float("-inf")
        )
        total = maximum(total, port["shared_port_h2d"])
        total = maximum(total, port["shared_port_d2h"])
    return total, per_shard, port


def _predict_multigpu(
    app: Application,
    data: AppData,
    config: EngineConfig,
    eng: MultiGpuBigKernelEngine,
) -> PredictedRun:
    """Price a sharded run: :func:`sharded_total`, plus the kernel-launch
    overhead and the closed-form merge cost (identical to the engine's
    ``_merge_time``)."""
    hw = config.hardware
    plans, _ = eng._shard_plan(app, data, config)
    total, per_shard, port = sharded_total(
        hw, [(sched.chunks, sched.pipe_cfg) for _g, _su, sched in plans],
        eng.shared_link,
    )
    slowest = max(range(len(plans)), key=lambda i: per_shard[i][0])
    bounds = {
        f"shard{plans[slowest][0]}:{k}": v for k, v in per_shard[slowest][1].items()
    }
    bounds.update(port)
    occupancy = {s: 0.0 for s in STAGES6}
    for _total, _bounds, occ in per_shard:
        for s in STAGES6:
            occupancy[s] = occupancy[s] + occ[s]
    total = total + hw.gpu.kernel_launch_overhead
    total = total + eng._merge_time(app, data, hw, len(plans))
    n_chunks = sum(len(sched.chunks) for _g, _su, sched in plans)
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
        chunks = eng._schedule(app, data, config).chunks
        total, bounds, occ = predict_templated(hw, chunks, eng.pipe_cfg)
        return _finish_pipelined(eng.name, app.name, total, bounds, occ, len(chunks))

    if isinstance(eng, MultiGpuBigKernelEngine):
        return _predict_multigpu(app, data, config, eng)

    # bigkernel (any feature set): one kernel launch over the whole run
    sched = eng._schedule(app, data, config)
    total, bounds, occ = predict_templated(hw, sched.chunks, sched.pipe_cfg)
    total = total + hw.gpu.kernel_launch_overhead
    return _finish_pipelined(
        eng.name, app.name, total, bounds, occ, len(sched.chunks)
    )


#: :func:`predicted_sim_time` per compatibility key
_PREDICT_CACHE = Memo("analytic.predict", 512)


def predicted_sim_time(
    app: Application,
    data: AppData,
    config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> float:
    """:func:`predict_run`'s ``sim_time``, memoized per compatibility key.

    The key is the content identity of the run — dataset content key,
    engine spec (registry name + constructor keywords), frozen config.
    The serving layer does not call it: the server prices a job by a
    timing-only run on the engine that will serve it, which also plans
    what dispatch reuses.
    Raises :class:`ReproError` for engines with no closed-form model (the
    UVM family), same as :func:`predict_run`.
    """
    from repro.apps.base import dataset_key
    from repro.bench.jobs import engine_to_spec

    config = config if config is not None else EngineConfig()
    eng = resolve_engine(engine)
    spec = engine_to_spec(eng)
    if spec is None:
        return predict_run(app, data, config, eng).sim_time
    key = (app.name, dataset_key(data), spec, config)
    sim_time = _PREDICT_CACHE.get(key)
    if sim_time is None:
        sim_time = predict_run(app, data, config, eng).sim_time
        _PREDICT_CACHE.put(key, sim_time)
    return sim_time
