"""The BigKernel 4-stage pipeline (6 with mapped writes) as simulated
processes.

Stage processes are connected by bounded stores whose capacity equals the
buffer-ring depth, so backpressure (a stage cannot run ahead of the
consumer of its buffer instances) emerges from the queueing rather than
being hard-coded; the paper implements the same constraint by barriering
address generation of iteration *n* against computation of iteration
*n - 3*.

Resource mapping:

* GPU — capacity-2 resource: one slot for the address-generation warps,
  one for the computation warps (they are different warps of the same
  resident blocks and genuinely overlap).
* CPU — capacity = number of host worker threads dedicated to assembly.
* PCIe — the full-duplex :class:`~repro.hw.pcie.PcieLink`: prefetch-buffer
  DMAs go host-to-device; address traffic and write buffers go
  device-to-host. Each h2d data DMA is chased by a flag write, preserving
  the paper's in-order completion-signalling trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.errors import RuntimeConfigError
from repro.faults.inject import FaultInjector, as_injector
from repro.hw.elementwise import every
from repro.hw.pcie import D2H, H2D, DmaEngine, PcieLink
from repro.hw.spec import HardwareSpec
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.stores import Store
from repro.sim.sync import Flag, Semaphore
from repro.sim.trace import TraceRecorder

STAGE_ADDR_GEN = "addr_gen"
STAGE_ASSEMBLY = "data_assembly"
STAGE_TRANSFER = "data_transfer"
STAGE_COMPUTE = "compute"
STAGE_WRITEBACK_XFER = "write_transfer"
STAGE_WRITEBACK_SCATTER = "write_scatter"

#: the four forward stages, in order (used by figure harnesses)
FORWARD_STAGES = (STAGE_ADDR_GEN, STAGE_ASSEMBLY, STAGE_TRANSFER, STAGE_COMPUTE)


@dataclass(frozen=True)
class ChunkWork:
    """Pre-computed stage costs for one pipeline chunk.

    The engine derives these from counted work (records, bytes, addresses)
    via the hardware cost models; the pipeline is only responsible for the
    *scheduling* — what overlaps with what. When ``repro.analytic`` prices
    a sweep grid, the fields are per-point arrays of the same costs.
    """

    index: int
    #: GPU time of the address-generation stage
    t_addr_gen: float
    #: device-to-host address traffic (0 when a pattern was recognized)
    addr_bytes_d2h: int
    #: CPU time of the data-assembly stage
    t_assembly: float
    #: prefetch-buffer payload transferred host-to-device
    xfer_bytes: int
    #: GPU time of the computation stage
    t_compute: float
    #: device-to-host write-buffer payload (mapped writes)
    write_bytes: int = 0
    #: CPU time of the write-scatter stage
    t_scatter: float = 0.0
    #: physical DMAs per logical transfer (one per thread-block buffer set)
    xfer_segments: int = 1

    def __post_init__(self):
        for name in ("t_addr_gen", "t_assembly", "t_compute", "t_scatter"):
            if not every(getattr(self, name) >= 0):
                raise RuntimeConfigError(f"{name} must be non-negative")
        ok = (self.addr_bytes_d2h >= 0) & (self.xfer_bytes >= 0)
        if not every(ok & (self.write_bytes >= 0)):
            raise RuntimeConfigError("byte counts must be non-negative")


@dataclass(frozen=True)
class PipelineConfig:
    """Scheduling knobs of one pipeline run (``ring_depth`` is a per-point
    array when ``repro.analytic`` prices a sweep grid)."""

    #: buffer instances per set — bounds how far stages may run ahead
    ring_depth: int = 2
    #: host threads servicing assembly/scatter (one per block in the paper;
    #: bounded by hardware threads)
    cpu_workers: int = 1
    #: fixed per-chunk synchronization cost added GPU-side (flag polling +
    #: two bar.red barriers)
    sync_overhead: float = 0.0

    def __post_init__(self):
        if not every(self.ring_depth >= 2):
            raise RuntimeConfigError("ring_depth must be >= 2 (paper Section III)")
        if self.cpu_workers < 1:
            raise RuntimeConfigError("cpu_workers must be >= 1")
        if self.sync_overhead < 0:
            raise RuntimeConfigError("sync_overhead must be non-negative")


@dataclass
class PipelineResult:
    """Timeline outcome of one pipeline run.

    ``trace`` is None when the run went through the analytic fast path
    (:mod:`repro.runtime.fastpath`) — the totals are still exact, but no
    per-interval timeline was recorded.
    """

    total_time: float
    n_chunks: int
    trace: Optional[TraceRecorder]
    #: wall-clock-style sum of each stage's busy intervals
    stage_totals: dict = field(default_factory=dict)
    bytes_h2d: int = 0
    bytes_d2h: int = 0

    def stage_fraction(self, stage: str) -> float:
        """Stage total relative to the longest stage (Fig. 6's y-axis)."""
        longest = max(self.stage_totals.values()) if self.stage_totals else 0.0
        if longest <= 0:
            return 0.0
        return self.stage_totals.get(stage, 0.0) / longest


def _spawn_block_processes(
    env: Environment,
    link: PcieLink,
    dma: DmaEngine,
    gpu: Resource,
    cpu: Resource,
    chunks: list[ChunkWork],
    config: PipelineConfig,
    trace: TraceRecorder,
    block: Optional[int] = None,
    faults: Optional[FaultInjector] = None,
) -> None:
    """Wire up one pipeline's stage processes over shared resources.

    ``block`` tags trace records for per-block runs; the aggregate mode
    passes None. ``faults`` is the active fault injector, if any — the
    assembly stage consults it for injected stalls (DMA-level faults are
    handled inside the link itself).
    """
    depth = config.ring_depth
    tag = "" if block is None else f"[{block}]"
    meta = {} if block is None else {"block": block}
    addr_store = Store(env, capacity=depth, name=f"addr_ready{tag}")
    asm_store = Store(env, capacity=depth, name=f"prefetch_ready{tag}")
    comp_store = Store(env, capacity=depth, name=f"data_ready{tag}")
    wb_store = Store(env, capacity=depth, name=f"write_ready{tag}")
    scatter_store = Store(env, capacity=depth, name=f"scatter_ready{tag}")
    # Address buffers of iteration n are reusable once computation of
    # iteration n - depth has consumed its data buffer.
    ring = Semaphore(env, value=depth, name=f"buffer_ring{tag}")

    has_writes = any(c.write_bytes > 0 for c in chunks)

    def addr_gen_proc() -> Generator:
        for chunk in chunks:
            yield ring.acquire()
            with gpu.request() as grant:
                yield grant
                start = env.now
                yield env.timeout(chunk.t_addr_gen)
                trace.record(
                    "gpu", STAGE_ADDR_GEN, start, env.now, chunk=chunk.index, **meta
                )
            if chunk.addr_bytes_d2h > 0:
                # ship the address buffer (or nothing, if a pattern compressed
                # it away — descriptor cost is folded into t_addr_gen)
                done = dma.copy_async(
                    chunk.addr_bytes_d2h,
                    D2H,
                    label=STAGE_ADDR_GEN,
                    chunk=chunk.index,
                    **meta,
                )
                yield done
            yield addr_store.put(chunk)

    def assembly_proc() -> Generator:
        for _ in chunks:
            chunk = yield addr_store.get()
            with cpu.request() as grant:
                yield grant
                start = env.now
                yield env.timeout(chunk.t_assembly)
                stall = (
                    faults.assembly_stall(chunk.index) if faults is not None else 0.0
                )
                if stall > 0:
                    # a stalled worker keeps its CPU slot, so the stall
                    # lengthens the recorded assembly interval
                    faults.note_stall(stall)
                    yield env.timeout(stall)
                    trace.record(
                        "cpu",
                        STAGE_ASSEMBLY,
                        start,
                        env.now,
                        chunk=chunk.index,
                        stall=stall,
                        **meta,
                    )
                else:
                    trace.record(
                        "cpu", STAGE_ASSEMBLY, start, env.now, chunk=chunk.index, **meta
                    )
            yield asm_store.put(chunk)

    def transfer_proc() -> Generator:
        # one ready flag, re-armed per chunk: the previous chunk's flag DMA
        # has landed before the next chunk's copy is issued
        flag = Flag(env, name=f"data_ready{tag}")
        for _ in chunks:
            chunk = yield asm_store.get()
            flag.clear()
            dma.copy_with_flag(
                chunk.xfer_bytes,
                flag,
                H2D,
                label=STAGE_TRANSFER,
                segments=chunk.xfer_segments,
                chunk=chunk.index,
                **meta,
            )
            yield flag.wait()
            yield comp_store.put(chunk)

    def compute_proc() -> Generator:
        for _ in chunks:
            chunk = yield comp_store.get()
            with gpu.request() as grant:
                yield grant
                start = env.now
                yield env.timeout(chunk.t_compute + config.sync_overhead)
                trace.record(
                    "gpu", STAGE_COMPUTE, start, env.now, chunk=chunk.index, **meta
                )
            ring.release()
            if has_writes:
                yield wb_store.put(chunk)

    def writeback_xfer_proc() -> Generator:
        for _ in chunks:
            chunk = yield wb_store.get()
            if chunk.write_bytes > 0:
                done = dma.copy_async(
                    chunk.write_bytes,
                    D2H,
                    label=STAGE_WRITEBACK_XFER,
                    segments=chunk.xfer_segments,
                    chunk=chunk.index,
                    **meta,
                )
                yield done
            yield scatter_store.put(chunk)

    def scatter_proc() -> Generator:
        for _ in chunks:
            chunk = yield scatter_store.get()
            if chunk.t_scatter > 0:
                with cpu.request() as grant:
                    yield grant
                    start = env.now
                    yield env.timeout(chunk.t_scatter)
                    trace.record(
                        "cpu",
                        STAGE_WRITEBACK_SCATTER,
                        start,
                        env.now,
                        chunk=chunk.index,
                        **meta,
                    )

    env.process(addr_gen_proc())
    env.process(assembly_proc())
    env.process(transfer_proc())
    env.process(compute_proc())
    if has_writes:
        env.process(writeback_xfer_proc())
        env.process(scatter_proc())


def _stage_totals(trace: TraceRecorder) -> dict:
    """Each stage label's summed durations in ``trace``; flag DMAs are not
    stages."""
    return {
        label: total
        for label, total in trace.label_totals().items()
        if not label.endswith("-flag")
    }


def _collect_result(env, link, trace, n_chunks) -> PipelineResult:
    return PipelineResult(
        total_time=env.now,
        n_chunks=n_chunks,
        trace=trace,
        stage_totals=_stage_totals(trace),
        bytes_h2d=link.bytes_moved[H2D],
        bytes_d2h=link.bytes_moved[D2H],
    )


def _memoized_fastpath(hardware, chunks, config) -> PipelineResult:
    """Replay the closed form from the schedule's memo when possible.

    Keyed on everything the recurrence reads beyond the template itself
    (both frozen dataclasses). Hits return a fresh :class:`PipelineResult`
    shell around the memoized numbers so a caller mutating
    ``stage_totals`` cannot poison later runs.
    """
    from repro.runtime.fastpath import FASTPATH_MEMO_STATS, run_fastpath

    key = (hardware, config)
    hit = chunks.fastpath_memo.get(key)
    if hit is None:
        hit = run_fastpath(hardware, chunks, config)
        chunks.fastpath_memo[key] = hit
        FASTPATH_MEMO_STATS["computed"] += 1
    else:
        FASTPATH_MEMO_STATS["reused"] += 1
    return PipelineResult(
        total_time=hit.total_time,
        n_chunks=hit.n_chunks,
        trace=None,
        stage_totals=dict(hit.stage_totals),
        bytes_h2d=hit.bytes_h2d,
        bytes_d2h=hit.bytes_d2h,
    )


def run_pipeline(
    hardware: HardwareSpec,
    chunks: list[ChunkWork],
    config: PipelineConfig = PipelineConfig(),
    trace: Optional[TraceRecorder] = None,
    verify: bool = False,
    fastpath: Optional[bool] = None,
    faults=None,
) -> PipelineResult:
    """Simulate the full pipeline over ``chunks``; returns the timeline.

    ``chunks`` is the global chunk sequence (the engine aggregates
    homogeneous thread blocks into these); stage durations already account
    for intra-stage parallelism. What this function adds is the *overlap
    structure* and the shared-resource contention.

    With ``verify=True`` the resulting timeline is run through the trace
    invariant checkers (:mod:`repro.verify.invariants`) and a
    :class:`~repro.errors.VerificationError` is raised on any violation.

    ``fastpath`` selects the analytic steady-state engine
    (:mod:`repro.runtime.fastpath`): ``None`` (default) engages it only for
    :class:`~repro.runtime.fastpath.TemplatedChunks` schedules, ``True``
    also tries plain lists, ``False`` forces the DES. The fast path is used
    only when no trace is requested, ``verify`` is off, and
    :func:`~repro.runtime.fastpath.fastpath_supported` confirms the run is
    in its exact-coverage envelope; otherwise the DES runs as before.

    ``faults`` accepts a :class:`~repro.faults.plan.FaultPlan` or a
    :class:`~repro.faults.inject.FaultInjector`; an *active* plan always
    forces the DES (injected faults make the timeline heterogeneous in
    ways the closed form does not cover).
    """
    if not len(chunks):
        raise RuntimeConfigError("pipeline needs at least one chunk")
    from repro.runtime.fastpath import (
        TemplatedChunks,
        fastpath_supported,
        run_fastpath,
    )

    injector = as_injector(faults)
    want_fast = (
        fastpath if fastpath is not None else isinstance(chunks, TemplatedChunks)
    )
    if want_fast and trace is None and not verify:
        ok, _reason = fastpath_supported(chunks, faults=injector)
        if ok:
            if isinstance(chunks, TemplatedChunks):
                return _memoized_fastpath(hardware, chunks, config)
            return run_fastpath(hardware, chunks, config)
    if isinstance(chunks, TemplatedChunks):
        chunks = chunks.materialize()
    env = Environment()
    trace = trace if trace is not None else TraceRecorder()
    link = PcieLink(env, hardware.pcie, trace=trace, faults=injector)
    dma = DmaEngine(link)
    gpu = Resource(env, capacity=2, name="gpu")
    cpu = Resource(env, capacity=config.cpu_workers, name="cpu")
    _spawn_block_processes(
        env, link, dma, gpu, cpu, chunks, config, trace, faults=injector
    )
    env.run()
    result = _collect_result(env, link, trace, len(chunks))
    if verify:
        from repro.verify.invariants import verify_pipeline_trace

        verify_pipeline_trace(
            trace,
            gpu_capacity=2,
            cpu_workers=config.cpu_workers,
            ring_depth=config.ring_depth,
            chunks=chunks,
            bytes_h2d=result.bytes_h2d,
            bytes_d2h=result.bytes_d2h,
        ).raise_if_failed()
    return result


def run_pipeline_per_block(
    hardware: HardwareSpec,
    block_chunks: list[list[ChunkWork]],
    config: PipelineConfig = PipelineConfig(),
    cpu_threads: int = 8,
    trace: Optional[TraceRecorder] = None,
    verify: bool = False,
    faults=None,
) -> PipelineResult:
    """High-fidelity mode: one full pipeline per thread block.

    Where :func:`run_pipeline` takes pre-aggregated stage durations (CPU
    work already divided by the worker count, DMA latency folded into
    ``xfer_segments``), this mode gives each block its own stage processes
    and lets the contention *emerge*: all blocks' assembly threads compete
    for ``cpu_threads`` hardware threads, every block's buffer DMAs queue
    individually on the shared FIFO link, and each block's addr-gen/compute
    warps occupy their own GPU slots. Per-block chunk durations must be
    per-block work (undivided).

    The aggregate mode remains the default (it simulates in O(chunks)
    events rather than O(blocks x chunks)); this mode exists to validate
    it — see ``benchmarks/test_ablation_fidelity.py``.
    """
    if not block_chunks or not any(block_chunks):
        raise RuntimeConfigError("per-block pipeline needs at least one chunk")
    injector = as_injector(faults)
    env = Environment()
    trace = trace if trace is not None else TraceRecorder()
    link = PcieLink(env, hardware.pcie, trace=trace, faults=injector)
    dma = DmaEngine(link)
    # each block's addr-gen and compute halves occupy their own warp slots
    gpu = Resource(env, capacity=2 * len(block_chunks), name="gpu")
    cpu = Resource(env, capacity=cpu_threads, name="cpu")
    for b, chunks in enumerate(block_chunks):
        if chunks:
            _spawn_block_processes(
                env, link, dma, gpu, cpu, chunks, config, trace, block=b,
                faults=injector,
            )
    env.run()
    result = _collect_result(
        env, link, trace, sum(len(c) for c in block_chunks)
    )
    if verify:
        from repro.verify.invariants import verify_pipeline_trace

        verify_pipeline_trace(
            trace,
            gpu_capacity=2 * len(block_chunks),
            cpu_workers=cpu_threads,
            ring_depth=config.ring_depth,
            bytes_h2d=result.bytes_h2d,
            bytes_d2h=result.bytes_d2h,
        ).raise_if_failed()
    return result
