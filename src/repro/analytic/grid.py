"""Vectorized whole-grid prediction: ``predict_grid``.

``predict_run`` prices one configuration; ``predict_grid`` prices a whole
sweep grid (chunk bytes × blocks × threads × ring depth) as NumPy array
ops — every per-point quantity the engines derive in Python (units per
chunk, tail geometry, active blocks, CPU workers, bandwidth-scaled stage
times, the full max-plus bound family) becomes one elementwise expression
over the flattened grid.  A million configurations price in a few
seconds; there is no per-point Python loop anywhere.

Two approximations relative to the exact scalar path:

- the pattern-recognition fraction is sampled once at the base config's
  geometry and treated as geometry-independent (the recognizer's verdict
  is a property of the app's address stream, not of chunk boundaries);
- the buffer allocator is not exercised per point (clean-run geometry is
  assumed to fit pinned/device memory, as it does for all shipped grids).

``tests/test_analytic.py::TestPredictGrid::test_grid_matches_scalar_pointwise``
holds every point of a grid that moves the sampling geometry to
``predict_run`` at 1e-12 relative, for every registered app and every
predictable engine.

Grid point enumeration matches ``bench.sweep``: keys iterate in sorted
order with ``itertools.product`` semantics (last key fastest), and the
ranking tie-break is the sweep's ``best`` rule — ``(sim_time,
chunk_bytes, num_blocks, grid order)`` — so analytic ranking and DES
sweeping agree on plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application
from repro.engines.base import Engine, EngineConfig
from repro.engines.bigkernel import BigKernelEngine
from repro.engines.gpu_common import chunk_plan, kernel_chunk_cost
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import HardwareError, ReproError
from repro.hw.topology import merge_cost, shard_mem_bandwidth, shard_workers, state_nbytes
from repro.runtime.fastpath import FLAG_BYTES
from repro.runtime.pattern import ADDRESS_BYTES

from repro.analytic.algebra import pipeline_bounds
from repro.analytic.predict import predict_run, resolve_engine

#: config fields predict_grid can sweep
GRID_FIELDS = ("chunk_bytes", "compute_threads", "num_blocks", "ring_depth")


@dataclass
class GridPrediction:
    """Predicted sim_time over every point of a sweep grid."""

    engine: str
    app: str
    #: swept config fields, in sorted (enumeration) order
    keys: Tuple[str, ...]
    #: per-point values of each swept field (flat, grid enumeration order)
    values: Dict[str, np.ndarray]
    #: per-point predicted total time
    sim_time: np.ndarray
    base_config: EngineConfig
    meta: Dict[str, object] = field(default_factory=dict)
    _order: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_points(self) -> int:
        return int(self.sim_time.size)

    def ranking(self) -> np.ndarray:
        """Point indices best-first under the sweep tie-break rule."""
        if self._order is None:
            zeros = np.zeros(self.sim_time.size, dtype=np.int64)
            cb = self.values.get("chunk_bytes", zeros)
            nb = self.values.get("num_blocks", zeros)
            # np.lexsort: last key is primary; stability preserves grid order
            self._order = np.lexsort((nb, cb, self.sim_time))
        return self._order

    def argbest(self) -> int:
        return int(self.ranking()[0])

    def params_at(self, index: int) -> Dict[str, int]:
        return {k: int(self.values[k][index]) for k in self.keys}

    def config_at(self, index: int) -> EngineConfig:
        return self.base_config.with_(**self.params_at(index))

    def best_params(self) -> Dict[str, int]:
        return self.params_at(self.argbest())

    def best_time(self) -> float:
        return float(self.sim_time[self.argbest()])

    def top(self, k: int, expand_ties: bool = True) -> List[int]:
        """Best ``k`` point indices; with ``expand_ties`` every point whose
        prediction exactly equals the k-th best is included too (analytic
        plateaus are bitwise-identical, so ties are meaningful)."""
        order = self.ranking()
        k = max(1, min(k, order.size))
        chosen = list(order[:k])
        if expand_ties and k < order.size:
            kth = self.sim_time[order[k - 1]]
            extra = order[k:]
            chosen.extend(extra[self.sim_time[extra] == kth])
        return [int(i) for i in chosen]


def _product_arrays(
    grid: Dict[str, Sequence[int]]
) -> Tuple[Tuple[str, ...], Dict[str, np.ndarray]]:
    """Flatten a grid to per-point value arrays in sweep enumeration order."""
    keys = tuple(sorted(grid))
    axes = [np.asarray(list(grid[k]), dtype=np.int64) for k in keys]
    if any(ax.size == 0 for ax in axes):
        raise ReproError("grid values must be non-empty lists")
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    return keys, {k: m.ravel() for k, m in zip(keys, mesh)}


def _xfer(pcie, nbytes, segments=1):
    """Vectorized PcieSpec.transfer_time (pinned)."""
    bw = pcie.raw_bandwidth * pcie.pinned_efficiency
    return pcie.latency * segments + np.where(nbytes > 0, nbytes, 0) / bw


def _assembly_hit_rate(profile: AccessProfile, cpu, threads, locality_opt: bool):
    """Vectorized runtime.assembly.estimate_assembly_hit_rate."""
    if profile.reads_per_record <= 0:
        return 1.0
    record_bytes = int(max(profile.record_bytes, 1))
    misses = min(
        float(profile.reads_per_record), max(record_bytes / cpu.cache_line, 0.0)
    )
    seq_hit = max(0.0, 1.0 - misses / profile.reads_per_record)
    if locality_opt:
        return seq_hit
    stream_set = threads * (cpu.cache_line * 2)
    return np.where(
        stream_set <= cpu.cache_bytes,
        0.85 * seq_hit,
        np.minimum(1.0, cpu.cache_bytes / stream_set),
    )


def _bandwidth_scale(gpu, threads):
    saturating = gpu.num_sms * (gpu.max_threads_per_sm // 4)
    return np.minimum(1.0, threads / saturating)


def _gpu_compute(gpu, profile: AccessProfile, u_units, eff, scale):
    """Vectorized GpuDevice.stage_time of a ``kernel_chunk_cost`` chunk
    (no fixed overhead); ``eff`` is the cost's coalescing efficiency."""
    n_ops = u_units * profile.gpu_ops_per_record * profile.gpu_divergence
    gbytes = u_units * (
        profile.read_bytes_per_record
        + profile.write_bytes_per_record
        + profile.resident_bytes_per_record
    )
    return n_ops / gpu.peak_ops + (gbytes / eff) / (
        gpu.effective_mem_bandwidth * scale
    )


def _active_blocks(gpu, num_blocks, compute_threads):
    """Vectorized scheduler.plan_blocks occupancy (no shared memory)."""
    req_threads = 2 * compute_threads
    if np.any(req_threads > gpu.max_threads_per_block):
        bad = int(compute_threads[req_threads > gpu.max_threads_per_block][0])
        raise HardwareError(
            f"block thread count {2 * bad} outside (0, {gpu.max_threads_per_block}]"
        )
    by_threads = gpu.max_threads_per_sm // req_threads
    by_regs = gpu.registers_per_sm // (32 * req_threads)
    per_sm = np.minimum(by_threads, by_regs)
    hw_max = np.maximum(0, per_sm) * gpu.num_sms
    if np.any(hw_max == 0):
        raise HardwareError(
            f"a block exceeds per-SM resources of {gpu.name} at some grid points"
        )
    return np.minimum(num_blocks, hw_max)


def _tail_geometry(units: int, upc):
    """(template_units, effective_n_full, tail_units, has_tail) per point."""
    n_full, rem = np.divmod(np.int64(units), upc)
    has_tail = (rem > 0) & (n_full > 0)
    tpl_units = np.where(n_full == 0, rem, upc)
    eff_n_full = np.where(n_full == 0, 1, n_full)
    tail_units = np.where(has_tail, rem, tpl_units)
    return tpl_units, eff_n_full, tail_units, has_tail


def _pipeline_total(passes, t, u, eff_n_full, has_tail, depth, cpu_workers):
    per_pass = eff_n_full + has_tail
    n = passes * per_pass
    n_tail = passes * np.where(has_tail, 1, 0)
    total, _, _ = pipeline_bounds(
        t,
        u,
        n=n,
        n_tail=n_tail,
        depth=depth,
        per_pass=per_pass,
        passes=passes,
        cpu_workers=cpu_workers,
    )
    return total


def predict_grid(
    app: Application,
    data: AppData,
    grid: Dict[str, Sequence[int]],
    base_config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> GridPrediction:
    """Predict sim_time for every configuration in ``grid`` at once."""
    base = base_config if base_config is not None else EngineConfig()
    eng = resolve_engine(engine)
    unknown = set(grid) - set(GRID_FIELDS)
    if unknown:
        raise ReproError(
            f"predict_grid cannot sweep {sorted(unknown)}; "
            f"supported fields: {', '.join(GRID_FIELDS)}"
        )
    # EngineConfig's own validation, once per distinct value
    for key, vals in grid.items():
        for v in set(vals):
            base.with_(**{key: int(v)})
    keys, values = _product_arrays(grid)
    shape = values[keys[0]].shape if keys else (1,)

    def axis(name, default):
        return values.get(name, np.full(shape, default, dtype=np.int64))

    cb = axis("chunk_bytes", base.chunk_bytes)
    nb = axis("num_blocks", base.num_blocks)
    ct = axis("compute_threads", base.compute_threads)
    rd = axis("ring_depth", base.ring_depth)
    hw = base.hardware
    gpu, cpu, pcie = hw.gpu, hw.cpu, hw.pcie
    profile = app.access_profile(data)
    units = app.n_units(data)
    meta: Dict[str, object] = {}

    if eng.name in ("cpu_serial", "cpu_mt"):
        scalar = predict_run(app, data, base, engine=eng).sim_time
        sim = np.full(shape, scalar)
        meta["config_insensitive"] = True
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    threads = nb * ct

    if eng.name == "gpu_single":
        upc = np.maximum(
            1, (cb / max(profile.record_bytes, 1e-12)).astype(np.int64)
        )
        tpl_u, eff_n_full, tail_u, has_tail = _tail_geometry(units, upc)
        eff = kernel_chunk_cost(profile, 1.0, coalesced=False).efficiency
        scale = _bandwidth_scale(gpu, threads)

        def serial_chunk(u_units):
            raw = u_units * profile.record_bytes
            comm = raw / (cpu.per_thread_bandwidth * 2.0 / 3.0) + _xfer(pcie, raw)
            comp = (
                _gpu_compute(gpu, profile, u_units, eff, scale)
                + gpu.kernel_launch_overhead
            )
            wb = u_units * profile.write_bytes_per_record
            comm = comm + np.where(
                wb > 0, _xfer(pcie, wb) + wb / (cpu.per_thread_bandwidth * 2.0 / 3.0), 0.0
            )
            return comm + comp

        per_pass = eff_n_full * serial_chunk(tpl_u.astype(np.float64)) + np.where(
            has_tail, serial_chunk(tail_u.astype(np.float64)), 0.0
        )
        sim = profile.passes * per_pass
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    # -- pipelined engines: build template/tail stage tables vectorized -----
    if eng.name == "gpu_double":
        upc = np.maximum(
            1, (cb / max(profile.record_bytes, 1e-12)).astype(np.int64)
        )
        tpl_u, eff_n_full, tail_u, has_tail = _tail_geometry(units, upc)
        scale = _bandwidth_scale(gpu, threads)
        eff = kernel_chunk_cost(profile, 1.0, coalesced=False).efficiency

        def kind(u_units):
            u_units = u_units.astype(np.float64)
            raw = u_units * profile.record_bytes
            t_comp = (
                _gpu_compute(gpu, profile, u_units, eff, scale)
                + gpu.kernel_launch_overhead
            )
            wb_f = u_units * profile.write_bytes_per_record
            wb = np.floor(wb_f)
            zero = np.zeros_like(raw)
            return dict(
                A=zero,
                S=raw / (cpu.per_thread_bandwidth * 2.0 / 3.0),
                X=_xfer(pcie, np.floor(raw)) + pcie.transfer_time(FLAG_BYTES),
                C=t_comp,
                WB=np.where(wb > 0, _xfer(pcie, wb), 0.0),
                SC=np.where(
                    wb_f > 0, wb_f / (cpu.per_thread_bandwidth * 2.0 / 3.0), 0.0
                ),
                d_addr=zero,
            )

        t = kind(tpl_u)
        u = kind(tail_u)
        sim = _pipeline_total(
            profile.passes, t, u, eff_n_full, has_tail, depth=np.int64(2),
            cpu_workers=1,
        )
        meta["note"] = "ring_depth fixed at 2 by the engine"
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    # bigkernel / bigkernel_multigpu
    assert isinstance(eng, BigKernelEngine)

    if isinstance(eng, MultiGpuBigKernelEngine):
        fabric = eng.fabric
        per_shard = -(-units // fabric.n_gpus)  # ceil, as the engine shards
        shard_units = []
        remaining = units
        for g in range(fabric.n_gpus):
            su = min(per_shard, remaining)
            if su <= 0:
                break
            remaining -= su
            shard_units.append((g, su))
        n_shards = len(shard_units)
        wk = shard_workers(cpu, fabric)
        shared = eng.shared_link and n_shards > 1
        x_scale = n_shards if shared else 1
        sim = None
        d2h_total = None
        d2h_fill0 = None
        bmeta: Dict[str, object] = {}
        for g, su in shard_units:
            bw = shard_mem_bandwidth(cpu, g, fabric)
            s, d2h_occ, d2h_fill, bmeta = _bigkernel_grid_total(
                app,
                data,
                base,
                eng.features,
                su,
                cb,
                nb,
                ct,
                rd,
                workers_fixed=wk,
                mem_bandwidth=bw,
                x_scale=x_scale,
            )
            sim = s if sim is None else np.maximum(sim, s)
            d2h_total = d2h_occ if d2h_total is None else d2h_total + d2h_occ
            if d2h_fill0 is None:
                d2h_fill0 = d2h_fill
        if shared:
            # D2H port residency: all shards' address ships + write-backs
            # serialize on the one root-complex D2H channel
            sim = np.maximum(
                sim, np.where(d2h_total > 0, d2h_fill0 + d2h_total, 0.0)
            )
        merge = merge_cost(
            hw,
            fabric if n_shards == fabric.n_gpus else replace(fabric, n_gpus=n_shards),
            state_nbytes(app.make_state(data)),
            app.n_passes,
        )
        sim = sim + gpu.kernel_launch_overhead + merge
        meta.update(bmeta)
        meta.update(
            n_gpus=n_shards,
            shared_link=eng.shared_link,
            numa_aware=eng.numa_aware,
            workers_per_gpu=wk,
            merge_time=merge,
        )
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    sim, _d2h_occ, _d2h_fill, bmeta = _bigkernel_grid_total(
        app, data, base, eng.features, units, cb, nb, ct, rd
    )
    sim = sim + gpu.kernel_launch_overhead
    meta.update(bmeta)
    return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)


def _bigkernel_grid_total(
    app: Application,
    data: AppData,
    base: EngineConfig,
    features,
    units: int,
    cb,
    nb,
    ct,
    rd,
    workers_fixed: Optional[int] = None,
    mem_bandwidth: Optional[float] = None,
    x_scale: int = 1,
):
    """Vectorized bigkernel pipeline total for one schedule over a grid.

    The plain engine derives its CPU-worker pool from occupancy
    (``min(active_blocks, cpu.threads)``); the multi-GPU engine prices a
    *shard* through the same model by fixing ``workers_fixed`` (its
    per-shard worker budget), derating ``mem_bandwidth`` (the NUMA-node
    share feeding the assembly floor) and scaling H2D transfer service by
    ``x_scale`` (round-robin slots on a shared root-complex port).

    Returns ``(sim, d2h_occupancy, d2h_fill, meta)`` — the last three feed
    the shared-port D2H residency bound (kernel-launch overhead is *not*
    included in ``sim``).
    """
    hw = base.hardware
    gpu, cpu, pcie = hw.gpu, hw.cpu, hw.pcie
    profile = app.access_profile(data)
    threads = nb * ct
    mem_bw = cpu.mem_bandwidth if mem_bandwidth is None else mem_bandwidth
    engine = BigKernelEngine(features)
    reduce_volume = features.reduce_volume and engine._sliceable(app, profile)
    ppu = profile.read_bytes_per_record if reduce_volume else profile.record_bytes
    # one pattern sample, at the base geometry, stands for every point
    fraction = 0.0
    if base.pattern_recognition and profile.pattern_friendly is not None:
        base_upc, _ = chunk_plan(units, base.chunk_bytes, ppu)
        fraction = engine._sample_pattern_fraction(app, data, base, base_upc)
    pattern_on = bool(base.pattern_recognition and fraction >= 0.5)
    upc = np.maximum(1, (cb / max(ppu, 1e-12)).astype(np.int64))
    tpl_u, eff_n_full, tail_u, has_tail = _tail_geometry(units, upc)
    active = _active_blocks(gpu, nb, ct)
    workers = (
        np.minimum(active, cpu.threads)
        if workers_fixed is None
        else np.int64(workers_fixed)
    )
    worker_eff = workers * cpu.mt_efficiency
    # flag_wait_overhead(2) + 2 * global_latency, as the engine prices sync
    sync = gpu.global_latency * 2 + 2 * gpu.global_latency
    scale = _bandwidth_scale(gpu, threads)
    coalesced = bool(features.coalesce and reduce_volume)
    eff = kernel_chunk_cost(profile, 1.0, coalesced=coalesced).efficiency
    hit = _assembly_hit_rate(profile, cpu, threads, locality_opt=pattern_on)
    staging_bw = cpu.per_thread_bandwidth * 2.0 / 3.0
    miss_bw = cpu.cache_line / cpu.miss_latency

    def kind(u_units):
        u_units = u_units.astype(np.float64)
        raw = u_units * profile.record_bytes
        emitted = u_units * profile.emitted_addresses_per_record
        read_bytes = u_units * profile.read_bytes_per_record
        payload = u_units * ppu
        t_ag = (
            u_units * (2.0 + 3.0 * profile.emitted_addresses_per_record)
            / gpu.peak_ops
        )
        if reduce_volume and not pattern_on:
            addr_d2h = np.floor(emitted * ADDRESS_BYTES)
        else:
            addr_d2h = np.zeros_like(raw)
        if not reduce_volume:
            t_asm = raw / staging_bw / worker_eff
            t_asm = np.maximum(t_asm, 2.0 * raw / mem_bw)
        else:
            accesses = (
                read_bytes / profile.gather_run_bytes if pattern_on else emitted
            )
            data_bytes = emitted * (read_bytes / np.maximum(emitted, 1e-9))
            read_t = (data_bytes * hit) / cpu.per_thread_bandwidth + (
                data_bytes * (1.0 - hit)
            ) / miss_bw
            write_t = data_bytes / cpu.per_thread_bandwidth
            addr_t = (
                0.0 if pattern_on else emitted * 8 / cpu.per_thread_bandwidth
            )
            loop_t = accesses * 6.0 / cpu.peak_ops_per_thread
            t_asm = (read_t + write_t + addr_t + loop_t) / worker_eff
            t_asm = np.maximum(t_asm, 2.0 * read_bytes / mem_bw)
        t_comp = _gpu_compute(gpu, profile, u_units, eff, scale)
        wb_f = u_units * profile.write_bytes_per_record
        wb = np.floor(wb_f)
        if profile.write_bytes_per_record > 0:
            w_elem = profile.write_bytes_per_record / max(
                profile.writes_per_record, 1e-9
            )
            sc_bytes = (u_units * profile.writes_per_record) * w_elem
            t_sc = (
                sc_bytes / cpu.per_thread_bandwidth
                + (sc_bytes * 0.9) / cpu.per_thread_bandwidth
                + (sc_bytes * 0.1) / miss_bw
            ) / worker_eff
        else:
            t_sc = np.zeros_like(raw)
        t_x = _xfer(pcie, np.floor(payload), segments=workers) + pcie.transfer_time(
            FLAG_BYTES
        )
        if x_scale != 1:
            t_x = x_scale * t_x
        return dict(
            A=t_ag + np.where(addr_d2h > 0, _xfer(pcie, addr_d2h), 0.0),
            S=t_asm,
            X=t_x,
            C=t_comp + sync,
            WB=np.where(wb > 0, _xfer(pcie, wb, segments=workers), 0.0),
            SC=t_sc,
            d_addr=np.where(addr_d2h > 0, _xfer(pcie, addr_d2h), 0.0),
        )

    t = kind(tpl_u)
    u = kind(tail_u)
    cpu_workers = 2 if workers_fixed is None else workers_fixed
    sim = _pipeline_total(
        profile.passes, t, u, eff_n_full, has_tail, depth=rd,
        cpu_workers=cpu_workers,
    )
    d2h_occ = profile.passes * (
        eff_n_full * (t["d_addr"] + t["WB"])
        + np.where(has_tail, u["d_addr"] + u["WB"], 0.0)
    )
    d2h_fill = t["A"] - t["d_addr"]
    bmeta = dict(
        pattern_on=pattern_on,
        pattern_fraction=fraction,
        reduce_volume=reduce_volume,
        features=features.label,
    )
    return sim, d2h_occ, d2h_fill, bmeta


def suggest_grid(
    n_points: int, base_chunk: int = 64 * 1024, chunk_step: int = 16 * 1024
) -> Dict[str, List[int]]:
    """A deterministic ≥``n_points`` sweep grid over sane geometry ranges."""
    if n_points < 1:
        raise ReproError("n_points must be positive")
    num_blocks = [1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    ring_depth = [2, 3, 4, 5, 6, 7, 8, 9]
    compute_threads = [32 * i for i in range(1, 17)]
    per_chunk = len(num_blocks) * len(ring_depth) * len(compute_threads)
    n_chunks = max(1, -(-n_points // per_chunk))
    chunk_bytes = [base_chunk + i * chunk_step for i in range(n_chunks)]
    return {
        "chunk_bytes": chunk_bytes,
        "compute_threads": compute_threads,
        "num_blocks": num_blocks,
        "ring_depth": ring_depth,
    }
