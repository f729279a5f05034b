"""The BigKernel 4-stage pipeline (6 with mapped writes) on the DES.

Each stage is a chain of steps (:class:`_Stage`). Stages are
connected by bounded stores whose capacity equals the buffer-ring depth,
so backpressure (a stage cannot run ahead of the consumer of its buffer
instances) emerges from the queueing rather than being hard-coded; the
paper implements the same constraint by barriering address generation of
iteration *n* against computation of iteration *n - 3*.

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
from typing import Optional

from repro.errors import RuntimeConfigError
from repro.faults.inject import FaultInjector, as_injector
from repro.hw.elementwise import every
from repro.hw.pcie import D2H, H2D, DmaEngine, PcieLink
from repro.hw.spec import HardwareSpec
from repro.sim.core import PENDING, Environment, Event
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


class _Stage(Event):
    """One pipeline stage over its chunks: a chain of steps, and its own
    completion event.

    Each wait pushes the stage's next step (:mod:`repro.sim.core`): the
    same heap entry, at the same moment and with the same priority, as a
    generator process running the same loop: the URGENT entry that starts
    it, each wait's grant (a store hand-off, a ring slot, its resource, a
    flag), each delay, and the NORMAL entry of its completion once the
    loop ends. The stage holds its resource as itself. Where the loop went
    on without waiting, a step calls the next one directly. A DMA stays an
    event, and a stage that ships one waits on it; a failed DMA is
    defused and fails the stage, so ``env.run()`` raises its error when
    the stage's completion entry pops, as it did for a process.

    A stage that takes its chunks from ``src`` starts every iteration
    at :meth:`_next` and resumes at :meth:`_got` with the chunk; the
    address-generation stage walks the chunk list instead. ``res`` is
    the GPU or CPU resource a stage holds while it works (None for the
    DMA stages).
    """

    __slots__ = ("trace", "meta", "src", "out", "res", "_left", "_chunk", "_start")

    def __init__(self, env, chunks, trace, meta, src, out, res):
        # Event.__init__, flattened
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.trace = trace
        self.meta = meta
        self.src = src
        self.out = out
        self.res = res
        self._left = len(chunks)
        env.start(self._next)

    def _next(self, _value) -> None:
        if self._left:
            self._left -= 1
            self.src._do_get(self._got)
        else:
            self.succeed()

    def _got(self, chunk) -> None:
        """The chunk is in: ask for the stage's resource."""
        self._chunk = chunk
        self.res._do_request(self._granted)

    def _forward(self, event) -> None:
        """After the chunk's DMA: pass the chunk on, or fail with it."""
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.out._do_put(self._next, self._chunk)


class _AddrGen(_Stage):
    """Address generation: a ring slot, the GPU, then the address buffer
    shipped device-to-host when a pattern did not compress it away."""

    __slots__ = ("_chunks", "ring", "dma")

    def __init__(self, env, chunks, trace, meta, out, gpu, ring, dma):
        super().__init__(env, chunks, trace, meta, None, out, gpu)
        self._chunks = iter(chunks)
        self.ring = ring
        self.dma = dma

    def _next(self, _value) -> None:
        chunk = next(self._chunks, None)
        if chunk is None:
            self.succeed()
            return
        self._chunk = chunk
        self.ring._do_acquire(self._acquired)

    def _acquired(self, _value) -> None:
        self.res._do_request(self._granted)

    def _granted(self, _value) -> None:
        self._start = self.env._now
        self.env.call_later(self._chunk.t_addr_gen, self._generated)

    def _generated(self, _value) -> None:
        chunk = self._chunk
        self.trace.record(
            "gpu", STAGE_ADDR_GEN, self._start, self.env._now,
            chunk=chunk.index, **self.meta,
        )
        self.res._do_release(self)
        if chunk.addr_bytes_d2h > 0:
            # ship the address buffer (or nothing, if a pattern compressed
            # it away — descriptor cost is folded into t_addr_gen)
            self.dma.copy_async(
                chunk.addr_bytes_d2h, D2H, label=STAGE_ADDR_GEN,
                chunk=chunk.index, **self.meta,
            ).callbacks.append(self._forward)
        else:
            self.out._do_put(self._next, chunk)


class _Assembly(_Stage):
    """Data assembly on a CPU worker, lengthened by an injected stall."""

    __slots__ = ("faults", "_stall")

    def __init__(self, env, chunks, trace, meta, src, out, cpu, faults):
        super().__init__(env, chunks, trace, meta, src, out, cpu)
        self.faults = faults

    def _granted(self, _value) -> None:
        self._start = self.env._now
        self.env.call_later(self._chunk.t_assembly, self._assembled)

    def _assembled(self, _value) -> None:
        faults = self.faults
        stall = (
            faults.assembly_stall(self._chunk.index) if faults is not None else 0.0
        )
        if stall > 0:
            # a stalled worker keeps its CPU slot, so the stall lengthens
            # the recorded assembly interval
            faults.note_stall(stall)
            self._stall = stall
            self.env.call_later(stall, self._stalled)
            return
        self.trace.record(
            "cpu", STAGE_ASSEMBLY, self._start, self.env._now,
            chunk=self._chunk.index, **self.meta,
        )
        self._hand_on()

    def _stalled(self, _value) -> None:
        self.trace.record(
            "cpu", STAGE_ASSEMBLY, self._start, self.env._now,
            chunk=self._chunk.index, stall=self._stall, **self.meta,
        )
        self._hand_on()

    def _hand_on(self) -> None:
        self.res._do_release(self)
        self.out._do_put(self._next, self._chunk)


class _DataTransfer(_Stage):
    """The prefetch buffer host-to-device, chased by its flag write."""

    __slots__ = ("dma", "flag")

    def __init__(self, env, chunks, trace, meta, src, out, dma, flag):
        super().__init__(env, chunks, trace, meta, src, out, None)
        self.dma = dma
        #: one ready flag, re-armed per chunk: the previous chunk's flag
        #: DMA has landed before the next chunk's copy is issued
        self.flag = flag

    def _got(self, chunk) -> None:
        self._chunk = chunk
        self.dma.copy_with_flag(
            chunk.xfer_bytes, self.flag, H2D, label=STAGE_TRANSFER,
            segments=chunk.xfer_segments, chunk=chunk.index, **self.meta,
        )
        self.flag._do_wait(self._landed)

    def _landed(self, _value) -> None:
        # re-arm the flag now, not at the next chunk: a set flag holds its
        # flag DMA's request, which holds the flag, and the last chunk's
        # would be left as a reference cycle
        self.flag.clear()
        self.out._do_put(self._next, self._chunk)


class _Compute(_Stage):
    """Computation on the GPU; it frees a ring slot, and hands the chunk
    to write-back when the run has mapped writes (``out`` is None
    otherwise)."""

    __slots__ = ("ring", "sync_overhead")

    def __init__(self, env, chunks, trace, meta, src, out, gpu, ring, sync_overhead):
        super().__init__(env, chunks, trace, meta, src, out, gpu)
        self.ring = ring
        self.sync_overhead = sync_overhead

    def _granted(self, _value) -> None:
        self._start = self.env._now
        self.env.call_later(
            self._chunk.t_compute + self.sync_overhead, self._computed
        )

    def _computed(self, _value) -> None:
        chunk = self._chunk
        self.trace.record(
            "gpu", STAGE_COMPUTE, self._start, self.env._now,
            chunk=chunk.index, **self.meta,
        )
        self.res._do_release(self)
        self.ring.release()
        if self.out is not None:
            self.out._do_put(self._next, chunk)
        else:
            self._next(None)


class _WriteTransfer(_Stage):
    """The write buffer device-to-host (mapped writes)."""

    __slots__ = ("dma",)

    def __init__(self, env, chunks, trace, meta, src, out, dma):
        super().__init__(env, chunks, trace, meta, src, out, None)
        self.dma = dma

    def _got(self, chunk) -> None:
        self._chunk = chunk
        if chunk.write_bytes > 0:
            self.dma.copy_async(
                chunk.write_bytes, D2H, label=STAGE_WRITEBACK_XFER,
                segments=chunk.xfer_segments, chunk=chunk.index, **self.meta,
            ).callbacks.append(self._forward)
        else:
            self.out._do_put(self._next, chunk)


class _Scatter(_Stage):
    """The write buffer scattered on a CPU worker (mapped writes)."""

    __slots__ = ()

    def __init__(self, env, chunks, trace, meta, src, cpu):
        super().__init__(env, chunks, trace, meta, src, None, cpu)

    def _got(self, chunk) -> None:
        if chunk.t_scatter > 0:
            super()._got(chunk)
        else:
            self._next(None)

    def _granted(self, _value) -> None:
        self._start = self.env._now
        self.env.call_later(self._chunk.t_scatter, self._scattered)

    def _scattered(self, _value) -> None:
        self.trace.record(
            "cpu", STAGE_WRITEBACK_SCATTER, self._start, self.env._now,
            chunk=self._chunk.index, **self.meta,
        )
        self.res._do_release(self)
        self._next(None)


def _spawn_block_stages(
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
    """Wire up one pipeline's stages over shared resources.

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
    # Address buffers of iteration n are reusable once computation of
    # iteration n - depth has consumed its data buffer.
    ring = Semaphore(env, value=depth, name=f"buffer_ring{tag}")
    has_writes = any(c.write_bytes > 0 for c in chunks)

    _AddrGen(env, chunks, trace, meta, addr_store, gpu, ring, dma)
    _Assembly(env, chunks, trace, meta, addr_store, asm_store, cpu, faults)
    _DataTransfer(
        env, chunks, trace, meta, asm_store, comp_store, dma,
        Flag(env, name=f"data_ready{tag}"),
    )
    wb_store = (
        Store(env, capacity=depth, name=f"write_ready{tag}") if has_writes else None
    )
    _Compute(
        env, chunks, trace, meta, comp_store, wb_store, gpu, ring,
        config.sync_overhead,
    )
    if has_writes:
        scatter_store = Store(env, capacity=depth, name=f"scatter_ready{tag}")
        _WriteTransfer(env, chunks, trace, meta, wb_store, scatter_store, dma)
        _Scatter(env, chunks, trace, meta, scatter_store, cpu)


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
            return run_fastpath(hardware, chunks, config)
    if isinstance(chunks, TemplatedChunks):
        chunks = chunks.materialize()
    env = Environment()
    trace = trace if trace is not None else TraceRecorder()
    link = PcieLink(env, hardware.pcie, trace=trace, faults=injector)
    dma = DmaEngine(link)
    # one addr-gen and one compute stage at once (different warps of the
    # same resident blocks); their sharing of the memory system is
    # already in the stage costs
    gpu = Resource(env, capacity=2, name="gpu")
    cpu = Resource(env, capacity=config.cpu_workers, name="cpu")
    _spawn_block_stages(
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
    ``xfer_segments``), this mode gives each block its own stages
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
            _spawn_block_stages(
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
