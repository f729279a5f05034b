"""The BigKernel execution scheme — the paper's contribution.

Drives the full mechanism: compiler slice (with the fall-back-to-all-data
path for unsliceable kernels), online pattern recognition sampled from the
app's *actual* per-thread address streams, per-block buffer allocation
under real pinned/GPU memory accounting, and the 4/6-stage pipeline on the
simulated timeline.

Feature flags reproduce the Section VI-B ablation:

* ``BigKernelFeatures.overlap_only()`` — pipelined execution only: all data
  transferred in its original layout.
* ``BigKernelFeatures.with_reduction()`` — + transfer only the bytes the
  computation needs (original relative layout, so no coalescing gain).
* ``BigKernelFeatures.full()`` — + assembly re-layout for coalesced GPU
  accesses (the complete system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from repro.apps.base import AppData, Application, data_fingerprint
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult, Timeline
from repro.engines.gpu_common import (
    addr_gen_chunk_cost,
    chunk_plan,
    kernel_chunk_cost,
    original_access_pattern,
)
from repro.errors import PinnedMemoryExceeded, SlicingError
from repro.faults.inject import FaultInjector
from repro.faults.policies import degrade_buffer_plan
from repro.hw.cpu import CpuDevice
from repro.hw.elementwise import maximum, trunc
from repro.hw.gpu import GpuDevice
from repro.hw.gpu_memory import GpuMemoryAllocator
from repro.hw.pinned import PinnedAllocator
from repro.kernelc.slicing import make_addrgen_kernel
from repro.memo import Memo
from repro.runtime.assembly import estimate_assembly_hit_rate
from repro.runtime.buffers import BlockBuffers, BufferConfig
from repro.runtime.fastpath import TemplatedChunks
from repro.runtime.pattern import (
    ADDRESS_BYTES,
    OnlineAddressTracker,
    PatternRecognizer,
    PATTERN_DESCRIPTOR_BYTES,
)
from repro.runtime.pipeline import (
    STAGE_ADDR_GEN,
    STAGE_ASSEMBLY,
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    STAGE_WRITEBACK_SCATTER,
    STAGE_WRITEBACK_XFER,
    ChunkWork,
    PipelineConfig,
    run_pipeline,
)
from repro.runtime.scheduler import ThreadLayout, plan_blocks

#: per-thread temp buffer for online pattern detection (addresses); the
#: paper keeps this in shared memory when it fits, GPU memory otherwise
PATTERN_TEMP_BUFFER = 128
#: longest per-thread stride cycle the recognizer searches for
PATTERN_MAX_PERIOD = 64
#: threads sampled per run for honest pattern detection
PATTERN_SAMPLE_THREADS = 4
#: addresses fed per sampled thread
PATTERN_SAMPLE_ADDRS = 2048
#: addresses a sampled thread's stretch must reach when the data allows:
#: two full cycles of the longest period, plus the base
PATTERN_EVIDENCE = 2 * PATTERN_MAX_PERIOD + 2


def _evidence_offsets(
    app: Application, data: AppData, lo: int, hi: int, step: int, n_units: int
) -> np.ndarray:
    """Read offsets of a sampled thread's stretch ``[lo, hi_k)``.

    ``hi_k = min(hi + k * step, n_units)``, at the first ``k`` whose
    stretch holds ``PATTERN_EVIDENCE`` offsets or reaches ``n_units``: a
    cycle needs two full periods of evidence, so a short per-chunk span
    samples a longer stretch of the thread's stream. The offsets of a
    range are those of its first part followed by the rest's
    (:meth:`~repro.apps.base.Application.chunk_read_offsets`), so their
    count never falls as ``k`` grows. The search guesses ``k`` from the
    first stretch's offsets per unit and confirms it with one call at
    ``k`` and one at ``k - 1``; a wrong guess doubles, then bisects.
    """
    offsets = app.chunk_read_offsets(data, lo, hi)
    if offsets.size >= PATTERN_EVIDENCE or hi >= n_units:
        return offsets
    last = -(-(n_units - hi) // step)  # the first k with hi_k = n_units

    def stretch(k: int) -> Optional[np.ndarray]:
        """The offsets at ``k`` if ``k`` stops the search, else None."""
        offs = app.chunk_read_offsets(data, lo, min(hi + k * step, n_units))
        return offs if offs.size >= PATTERN_EVIDENCE or k >= last else None

    # guess k from the first stretch's offsets per unit
    k = 1
    if offsets.size:
        units = -(-PATTERN_EVIDENCE * (hi - lo) // offsets.size)
        k = min(max(-(-(units - (hi - lo)) // step), 1), last)
    short = 0  # a k known to fall short
    found = stretch(k)
    while found is None:  # the guess fell short: double it
        short, k = k, min(2 * k, last)
        found = stretch(k)
    # the first k that stops lies in (short, k]: try k - 1 (where a right
    # guess ends), then bisect
    probe = k - 1
    while k - short > 1:
        offs = stretch(probe)
        if offs is None:
            short = probe
        else:
            k, found = probe, offs
        probe = (short + k) // 2
    return found


@dataclass(frozen=True)
class BigKernelFeatures:
    """Ablation switches (Fig. 5's three variants)."""

    reduce_volume: bool = True
    coalesce: bool = True

    @staticmethod
    def overlap_only() -> "BigKernelFeatures":
        return BigKernelFeatures(reduce_volume=False, coalesce=False)

    @staticmethod
    def with_reduction() -> "BigKernelFeatures":
        return BigKernelFeatures(reduce_volume=True, coalesce=False)

    @staticmethod
    def full() -> "BigKernelFeatures":
        return BigKernelFeatures(reduce_volume=True, coalesce=True)

    @property
    def label(self) -> str:
        if not self.reduce_volume and not self.coalesce:
            return "overlap-only"
        if self.reduce_volume and not self.coalesce:
            return "volume-reduction"
        if self.reduce_volume and self.coalesce:
            return "full"
        return "coalesce-only"


@dataclass
class BigKernelSchedule:
    """Resolved plan of one BigKernel run (before simulation).

    ``chunks`` is a :class:`~repro.runtime.fastpath.TemplatedChunks`: all
    full-size chunks of a run share one cost vector, so the plan stores
    the template (plus the ragged tail) instead of ``passes x n`` copies.
    It behaves as a sequence wherever a chunk list is expected.
    """

    chunks: "TemplatedChunks"
    pipe_cfg: PipelineConfig
    upc: int
    pattern_fraction: float
    pattern_on: bool
    sliceable: bool
    reduce_volume: bool
    active_blocks: int
    workers: int
    #: what the degradation policies gave up under an injected fault
    #: (``ring_shrunk_to``, ``blocks_shrunk_to``); empty on clean runs
    degradations: dict = dataclass_field(default_factory=dict)
    #: the fault-free run, once simulated (see :meth:`Engine._timed`)
    timeline: Optional[Timeline] = None


class BigKernelEngine(Engine):
    """4/6-stage pipelined execution with prefetching (the paper's scheme)."""

    name = "bigkernel"
    display_name = "GPU BigKernel"

    #: compiler-slice outcomes keyed by (app class, app name) — the slice
    #: depends only on the app's kernel IR, never on data or config
    #: (class-level: shared by every engine instance, including the Fig. 5
    #: ablation variants)
    _slice_cache = Memo("bigkernel.slice", 64)
    #: pattern-sampling results keyed by (dataset fingerprint, total
    #: threads, units in the first chunk) — everything the sampler reads
    _pattern_cache = Memo("bigkernel.pattern", 256)
    #: buffer plans keyed by the config fields the planner reads
    _buffer_cache = Memo("bigkernel.buffers", 64)

    def __init__(self, features: BigKernelFeatures = BigKernelFeatures.full()):
        self.features = features
        # full schedules keyed per instance (features are instance state)
        self._schedule_cache = Memo("bigkernel.schedule", 128)

    def _params(self) -> dict:
        return {"features": self.features}

    # ----------------------------------------------------------- helpers
    def _sliceable(self, app: Application, profile) -> bool:
        """Try the real compiler slice; fall back to the profile's claim.

        The verdict is cached per app class and name and read before the
        kernel is built. Only an app with a kernel enters the cache, so an
        app whose ``kernel()`` is None still gets the profile's claim.
        """
        key = (type(app), app.name)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        kernel = app.kernel()
        if kernel is None:
            return profile.sliceable
        try:
            make_addrgen_kernel(kernel)
            cached = True
        except SlicingError:
            cached = False
        self._slice_cache.put(key, cached)
        return cached

    def _sample_pattern_fraction(
        self,
        app: Application,
        data: AppData,
        config: EngineConfig,
        units_per_chunk: int,
    ) -> float:
        """Feed real per-thread address streams to the online tracker.

        Thread *t* of the first chunk owns a contiguous unit subrange
        (the ``myParticleStartIndex`` convention); its address stream is the
        app's read offsets over that subrange. Results are memoized on
        everything the sampler reads — the dataset instance, the thread
        count and the first chunk's size — so sweeps re-sample only when
        that chunk actually changes, and every chunk size that covers the
        whole dataset shares one sample.
        """
        threads = config.total_compute_threads
        n_units = app.n_units(data)
        first_chunk_units = min(units_per_chunk, n_units)
        cache_key = (data_fingerprint(data), threads, first_chunk_units)
        fraction = self._pattern_cache.get(cache_key)
        if fraction is not None:
            return fraction
        per_thread = max(1, first_chunk_units // threads)
        # per-period evidence (two full cycles) is enforced inside
        # recognize(); the floor only guards against trivial samples
        recognizer = PatternRecognizer(max_period=PATTERN_MAX_PERIOD, min_samples=8)
        hits = 0
        sampled = 0
        for t in range(min(PATTERN_SAMPLE_THREADS, threads)):
            lo = t * per_thread
            hi = min(lo + per_thread, first_chunk_units)
            if hi <= lo:
                break
            offsets = _evidence_offsets(app, data, lo, hi, per_thread + 1, n_units)
            if offsets.size == 0:
                continue
            tracker = OnlineAddressTracker(
                recognizer, temp_buffer=PATTERN_TEMP_BUFFER
            )
            tracker.feed_many(offsets[:PATTERN_SAMPLE_ADDRS])
            tracker.finish()
            hits += int(tracker.has_pattern)
            sampled += 1
        fraction = hits / sampled if sampled else 0.0
        self._pattern_cache.put(cache_key, fraction)
        return fraction

    def _allocate_buffers(
        self, config: EngineConfig, writes: bool, pinned_shards: int = 1
    ) -> tuple[int, BufferConfig, dict]:
        """Plan active blocks and allocate their buffer sets for real.

        The plan depends only on hardware, buffer geometry and any pinned
        fault plan, so it is memoized on exactly those fields; a cache hit
        skips re-running the pinned/GPU allocator exercise.

        Under injected pinned-memory pressure (``faults.pinned.deny``) the
        degradation policy shrinks the ring toward depth 2 and then the
        active-block count until the set fits; the returned dict records
        what was given up. ``pinned_shards`` plans sharing one host pool
        (the shards of a multi-GPU run) each get an equal share of the
        denied budget. When nothing fits,
        :class:`~repro.errors.PinnedMemoryExceeded` propagates and
        :meth:`run` falls back to plain double-buffering."""
        cache_key = (
            config.hardware,
            config.chunk_bytes,
            config.num_blocks,
            config.compute_threads,
            config.ring_depth,
            writes,
            config.faults,
            pinned_shards,
        )
        cached = self._buffer_cache.get(cache_key)
        if cached is not None:
            return cached
        gpu_dev = GpuDevice(config.hardware.gpu)
        layout = ThreadLayout(compute_threads=config.compute_threads)
        per_block = max(4096, config.chunk_bytes // config.num_blocks)
        buf_cfg = BufferConfig(
            data_buf_bytes=per_block,
            addr_buf_entries=max(64, per_block // 4),
            instances=config.ring_depth,
            write_buf_bytes=per_block // 4 if writes else 0,
        )
        plan = plan_blocks(gpu_dev, layout, buf_cfg, config.num_blocks)
        active_blocks = plan.active_blocks
        pinned_limit = config.hardware.cpu.dram_bytes // 2
        deny = (
            config.faults.pinned_deny_after() if config.faults is not None else None
        )
        degradations: dict = {}
        if deny is not None:
            deny //= pinned_shards
            buf_cfg, active_blocks, degradations = degrade_buffer_plan(
                buf_cfg, active_blocks, min(pinned_limit, deny)
            )
        pinned = PinnedAllocator(pinned_limit, deny_after_bytes=deny)
        gpu_mem = GpuMemoryAllocator(config.hardware.gpu.global_mem_bytes)
        blocks = [BlockBuffers(b, buf_cfg) for b in range(active_blocks)]
        for bb in blocks:
            bb.allocate(pinned, gpu_mem)
        for bb in blocks:
            bb.release(pinned, gpu_mem)
        self._buffer_cache.put(cache_key, (active_blocks, buf_cfg, degradations))
        return active_blocks, buf_cfg, degradations

    # ----------------------------------------------------------- schedule
    def _schedule(
        self,
        app: Application,
        data: AppData,
        config: EngineConfig,
        units: Optional[int] = None,
        workers_override: Optional[int] = None,
        pinned_shards: int = 1,
    ) -> "BigKernelSchedule":
        """Build the chunk schedule and pipeline config for ``units`` units
        (defaults to the whole dataset). Exposed so layered engines (e.g.
        the multi-GPU extension) can plan per-shard schedules with their
        own CPU-worker budgets and their share of the pinned host pool
        (``pinned_shards``, see :meth:`_allocate_buffers`).

        Schedules are memoized per engine instance, keyed by the app
        instance (its configuration, e.g. K-means' ``n_clusters``, shapes
        the access profile), the dataset fingerprint and every config field
        the plan reads (``fastpath``/``functional`` deliberately excluded —
        they do not change the plan), so repeated runs — the
        fastpath-vs-DES oracle, cached sweeps, the run matrix — plan once.
        """
        cache_key = (
            app,
            data_fingerprint(data),
            units,
            workers_override,
            config.hardware,
            config.chunk_bytes,
            config.num_blocks,
            config.compute_threads,
            config.ring_depth,
            config.pattern_recognition,
            config.faults,
            pinned_shards,
        )
        sched = self._schedule_cache.get(cache_key)
        if sched is not None:
            return sched
        hw = config.hardware
        profile = app.access_profile(data)
        totals = self.totals(app, data, profile)

        sliceable = self._sliceable(app, profile)
        reduce_volume = self.features.reduce_volume and sliceable
        units = totals["units"] if units is None else units
        payload_per_unit = self._payload(profile, reduce_volume)
        upc, _ = chunk_plan(units, config.chunk_bytes, payload_per_unit)

        # Pattern recognition on real address streams (Table II's switch).
        pattern_fraction = 0.0
        if config.pattern_recognition and profile.pattern_friendly is not None:
            pattern_fraction = self._sample_pattern_fraction(app, data, config, upc)
        pattern_on = config.pattern_recognition and pattern_fraction >= 0.5

        active_blocks, buf_cfg, degradations = self._allocate_buffers(
            config, app.writes_mapped, pinned_shards
        )
        workers = (
            workers_override
            if workers_override is not None
            else min(active_blocks, hw.cpu.threads)
        )
        threads = config.total_compute_threads
        chunks = TemplatedChunks.split(
            units,
            upc,
            lambda u: self.chunk_costs(
                hw, profile, u, threads, workers, reduce_volume, pattern_on
            ),
            profile.passes,
        )
        # the ring may have been shrunk by the degradation policy; clean
        # runs keep buf_cfg.instances == config.ring_depth
        pipe_cfg = self.pipe_config(hw, buf_cfg.instances)
        sched = BigKernelSchedule(
            chunks=chunks,
            pipe_cfg=pipe_cfg,
            upc=upc,
            pattern_fraction=pattern_fraction,
            pattern_on=pattern_on,
            sliceable=sliceable,
            reduce_volume=reduce_volume,
            active_blocks=active_blocks,
            workers=workers,
            degradations=degradations,
        )
        self._schedule_cache.put(cache_key, sched)
        return sched

    @staticmethod
    def _payload(profile, reduce_volume: bool) -> float:
        """Bytes per unit the prefetch buffer carries."""
        if reduce_volume:
            return profile.read_bytes_per_record
        return profile.record_bytes

    @staticmethod
    def pipe_config(hw, ring_depth) -> PipelineConfig:
        """The pipeline a BigKernel schedule runs on (``ring_depth`` may be
        an array of per-point depths)."""
        return PipelineConfig(
            ring_depth=ring_depth,
            cpu_workers=2,  # aggregate stage times are pre-divided by workers
            sync_overhead=(
                GpuDevice(hw.gpu).flag_wait_overhead(2) + 2 * hw.gpu.global_latency
            ),
        )

    def chunk_costs(
        self, hw, profile, u, threads, workers, reduce_volume: bool, pattern_on: bool
    ) -> ChunkWork:
        """Stage costs of one chunk covering ``u`` units.

        ``threads`` GPU compute threads run the kernel and ``workers`` CPU
        threads assemble. ``u``, ``threads`` and ``workers`` may be
        per-point arrays, and then so are the costs
        (``repro.analytic.predict_grid`` prices a sweep grid this way).
        """
        gpu = GpuDevice(hw.gpu)
        cpu = CpuDevice(hw.cpu)
        raw = u * profile.record_bytes
        emitted = u * profile.emitted_addresses_per_record
        read_bytes = u * profile.read_bytes_per_record
        payload = u * self._payload(profile, reduce_volume)
        worker_eff = workers * hw.cpu.mt_efficiency

        # Stage 1: address generation (+ address shipping when no
        # pattern compresses the stream).
        t_ag = gpu.stage_time(addr_gen_chunk_cost(profile, u), threads)
        if not reduce_volume or pattern_on:
            # A verified pattern (or the degenerate whole-range
            # slice) sends one tiny descriptor per thread for the
            # entire run — amortized to nothing per chunk.
            addr_d2h = 0
        else:
            addr_d2h = trunc(emitted * ADDRESS_BYTES)

        # Stage 2: data assembly.
        if not reduce_volume:
            # No gathering: plain staging copy, parallel across the
            # per-block CPU threads.
            t_asm = cpu.staging_copy_time(raw) / worker_eff
            t_asm = maximum(t_asm, 2.0 * raw / hw.cpu.mem_bandwidth)
        else:
            hit = estimate_assembly_hit_rate(
                elem_bytes=profile.elem_bytes,
                record_bytes=int(max(profile.record_bytes, 1)),
                threads=threads,
                cpu=hw.cpu,
                locality_opt=pattern_on,
                reads_per_record=profile.reads_per_record,
            )
            # A recognized pattern exposes contiguous runs the
            # gather loop copies whole; without one, every emitted
            # address is a separate address-driven copy.
            if pattern_on:
                accesses = read_bytes / profile.gather_run_bytes
            else:
                accesses = emitted
            per_thread_t = cpu.assembly_time(
                n_elements=emitted,
                elem_bytes=read_bytes / maximum(emitted, 1e-9),
                hit_rate=hit,
                address_driven=not pattern_on,
                n_accesses=accesses,
            )
            t_asm = per_thread_t / worker_eff
            t_asm = maximum(t_asm, 2.0 * read_bytes / hw.cpu.mem_bandwidth)

        # Stage 4: computation on the (re)laid-out buffer.
        coalesced = self.features.coalesce and reduce_volume
        cost = kernel_chunk_cost(profile, u, coalesced=coalesced)
        t_comp = gpu.stage_time(cost, threads)

        # Stages 5-6: mapped writes.
        wb = u * profile.write_bytes_per_record
        t_scatter = 0.0
        if profile.write_bytes_per_record > 0:
            w_elem = profile.write_bytes_per_record / max(
                profile.writes_per_record, 1e-9
            )
            t_scatter = cpu.scatter_time(
                u * profile.writes_per_record, w_elem, hit_rate=0.9
            ) / worker_eff

        return ChunkWork(
            index=0,
            t_addr_gen=t_ag,
            addr_bytes_d2h=addr_d2h,
            t_assembly=t_asm,
            xfer_bytes=trunc(payload),
            t_compute=t_comp,
            write_bytes=trunc(wb),
            t_scatter=t_scatter,
            # each block's buffer set is its own DMA; assembly
            # threads issue one consolidated copy per worker
            xfer_segments=workers,
        )

    # --------------------------------------------------------------- run
    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        try:
            sched = self._schedule(app, data, config)
        except PinnedMemoryExceeded as exc:
            return self._pinned_fallback(app, data, config, exc)
        timeline = self._timed(sched, config, lambda: self._simulate(sched, config))
        output = None
        if config.functional:
            output = self._functional_output(app, data, sched.upc)
        return timeline.result(self.name, app.name, output)

    def _pinned_fallback(
        self,
        app: Application,
        data: AppData,
        config: EngineConfig,
        exc: PinnedMemoryExceeded,
    ) -> RunResult:
        """The last degradation rung: even the minimum plan (two-deep
        ring, one block) does not fit under the injected pinned pressure,
        so the run falls back to plain double-buffering, which needs no
        pinned prefetch/address buffers (the paper's fall-back-to-all-data
        spirit, applied to memory pressure). Without an active fault plan
        the error is a real configuration error, and it is raised."""
        if config.faults is None or not config.faults.active():
            raise exc
        from repro.engines.gpu_double import GpuDoubleBufferEngine

        fallback = GpuDoubleBufferEngine().run(app, data, config)
        fallback.metrics.notes["degraded_from"] = self.name
        fallback.metrics.notes["degraded_reason"] = f"pinned-memory-pressure: {exc}"
        return fallback

    def _simulate(self, sched: BigKernelSchedule, config: EngineConfig) -> Timeline:
        """One simulation of ``sched``: the closed form when the run
        qualifies, the DES otherwise."""
        hw = config.hardware
        injector = None
        if config.faults is not None and config.faults.active():
            injector = FaultInjector(config.faults)
        result = run_pipeline(
            hw, sched.chunks, sched.pipe_cfg, fastpath=config.fastpath, faults=injector
        )
        comm = (
            result.stage_totals.get(STAGE_TRANSFER, 0.0)
            + result.stage_totals.get(STAGE_WRITEBACK_XFER, 0.0)
        )
        metrics = RunMetrics(
            n_chunks=len(sched.chunks),
            bytes_h2d=result.bytes_h2d,
            bytes_d2h=result.bytes_d2h,
            comp_time=result.stage_totals.get(STAGE_COMPUTE, 0.0),
            comm_time=comm,
            stage_totals=result.stage_totals,
            pattern_fraction=sched.pattern_fraction,
            kernel_launches=1,
            notes={
                "features": self.features.label,
                "sliceable": sched.sliceable,
                "reduce_volume": sched.reduce_volume,
                "pattern_on": sched.pattern_on,
                "active_blocks": sched.active_blocks,
                "units_per_chunk": sched.upc,
                "workers": sched.workers,
            },
        )
        if sched.degradations:
            metrics.notes["degradations"] = dict(sched.degradations)
        if injector is not None:
            metrics.notes["fault_stats"] = injector.stats()
        # BigKernel launches ONE kernel for the whole computation.
        return Timeline(
            result.total_time + hw.gpu.kernel_launch_overhead,
            metrics,
            None if result.trace is None else tuple(result.trace),
        )
