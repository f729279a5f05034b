"""Analytic steady-state fast path for the 4-stage pipeline.

:func:`~repro.runtime.pipeline.run_pipeline` simulates every chunk through
the generator-based discrete-event core, even when the caller only wants
the aggregate :class:`~repro.runtime.pipeline.PipelineResult` totals. For
the dominant case — a run whose chunks are one repeated template (plus a
ragged tail), no mapped writes, no tracing, no verification — the DES is
pure overhead: its timeline is fully determined by a per-chunk recurrence
of ``max``/``+`` over a ``ring_depth`` window, which this module evaluates
directly in O(chunks) arithmetic with no events, generators or heap.

Why the recurrence is *exact* (not an approximation) in the covered case:

* The GPU resource has capacity 2 and exactly two aggregate-mode users
  (the addr-gen process and the compute process), so it never queues.
* The CPU resource is used only by the assembly process (the scatter
  process exists only for mapped writes), so it never queues either.
* The host-to-device DMA channel only ever holds one data+flag pair at a
  time because the transfer process waits for the completion flag before
  issuing the next pair; the device-to-host channel only ever holds one
  address DMA because the addr-gen process awaits each inline. Neither
  FIFO ever has cross-chunk queueing.

What remains is the bounded-ring backpressure (the semaphore and the
capacity-``ring_depth`` stores), which is exactly a per-resource ``max``
against the stage event of chunk ``i - ring_depth``. Every addition the
recurrence performs has the same operands, in the same association order,
as the corresponding DES timeout — the fast path is bit-identical-in-time
to the DES, and the ``fastpath-vs-des`` differential oracle
(:func:`repro.verify.differential.run_fastpath_differential`) holds it to
that claim on every run of ``python -m repro verify --fastpath``.

A ring deeper than the chunk list needs no special case: neither the ring
nor any store ever binds, so no chunk looks back and the recurrence is
plain ``+``/``max`` down the stages.

The fast path declines (and :func:`~repro.runtime.pipeline.run_pipeline`
falls back to the DES) whenever any of its assumptions could be violated:
heterogeneous chunks, mapped writes, an externally supplied trace or a
``verify=`` run. :func:`fastpath_supported` reports the decision and the
reason, and ``tests/test_fastpath.py`` pins the whole fallback matrix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import RuntimeConfigError
from repro.hw.elementwise import where
from repro.hw.spec import HardwareSpec
from repro.runtime.pipeline import (
    STAGE_ADDR_GEN,
    STAGE_ASSEMBLY,
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    ChunkWork,
    PipelineConfig,
    PipelineResult,
)

_new = object.__new__
_set = object.__setattr__

#: bytes of the trailing completion-flag DMA (DmaEngine.copy_with_flag)
FLAG_BYTES = 4

#: process-wide accounting of the per-template result memo (see
#: ``TemplatedChunks.fastpath_memo``): ``computed`` counts closed-form
#: evaluations, ``reused`` counts runs answered from a prior evaluation of
#: the same schedule under the same hardware/pipeline config
FASTPATH_MEMO_STATS = {"computed": 0, "reused": 0}


def _with_index(kind: ChunkWork, index: int) -> ChunkWork:
    """A copy of the validated template or tail ``kind`` at ``index``:
    ``replace(kind, index=index)`` without re-running ``__post_init__``
    once per chunk. Fields are set one by one, as the frozen dataclass's
    ``__init__`` sets them, so the copy keeps its compact layout."""
    chunk = _new(ChunkWork)
    for name, value in vars(kind).items():
        _set(chunk, name, value)
    _set(chunk, "index", index)
    return chunk


def split_units(units, units_per_chunk):
    """One pass of ``units`` cut into ``units_per_chunk``-unit chunks.

    Returns ``(template_units, n_template, tail_units, has_tail)``: the
    full chunks share one template, and a remainder becomes a ragged tail.
    A pass that fills no chunk is a single short template. Where there is
    no tail, ``tail_units`` repeats ``template_units``. ``units_per_chunk``
    may be an array of per-point chunk sizes.
    """
    n_full, rem = divmod(units, units_per_chunk)
    short = n_full == 0
    template_units = where(short, rem, units_per_chunk)
    has_tail = (rem > 0) & (n_full > 0)
    return (
        template_units,
        where(short, 1, n_full),
        where(has_tail, rem, template_units),
        has_tail,
    )


class TemplatedChunks(Sequence):
    """Lazy chunk sequence: one template repeated, plus a ragged tail.

    Engines produce this instead of materializing ``passes × n`` identical
    :class:`ChunkWork` objects. Per pass the sequence is ``n_full`` copies
    of ``template`` followed by ``tail`` (when the unit count does not
    divide evenly); global chunk indices run ``0 .. len-1`` across passes.

    The object is the fast path's opt-in signal: ``run_pipeline`` routes a
    ``TemplatedChunks`` schedule to the analytic engine automatically (all
    eligibility gates still apply). Materialization — for the DES fallback
    or for callers that index chunks — is cached.
    """

    def __init__(
        self,
        template: ChunkWork,
        n_full: int,
        tail: Optional[ChunkWork] = None,
        passes: int = 1,
    ):
        if n_full < 0:
            raise RuntimeConfigError("n_full must be non-negative")
        if passes < 1:
            raise RuntimeConfigError("passes must be >= 1")
        if n_full == 0 and tail is None:
            raise RuntimeConfigError("template schedule needs at least one chunk")
        self.template = replace(template, index=0)
        self.tail = replace(tail, index=0) if tail is not None else None
        self.n_full = n_full
        self.passes = passes
        self._materialized: Optional[list[ChunkWork]] = None
        #: closed-form results keyed on ``(hardware, pipeline config)``.
        #: Engines memoize whole schedules, so one TemplatedChunks instance
        #: is replayed across repeated runs (sweep plateaus, the serve hot
        #: loop); caching the recurrence's outcome here makes the repeat
        #: O(1) instead of O(chunks). Safe because the fast path is only
        #: entered fault-free/trace-free, where the result is a pure
        #: function of (template, hardware, config).
        self.fastpath_memo: dict = {}

    @classmethod
    def split(
        cls,
        units: int,
        units_per_chunk: int,
        costs: Callable[[int], ChunkWork],
        passes: int = 1,
    ) -> "TemplatedChunks":
        """``units`` cut by :func:`split_units`, each chunk kind priced by
        ``costs(u)``."""
        if units < 1:
            raise RuntimeConfigError("template schedule needs at least one chunk")
        template_units, n_template, tail_units, has_tail = split_units(
            units, units_per_chunk
        )
        template = costs(template_units)
        tail = costs(tail_units) if has_tail else None
        return cls(template, n_template, tail, passes)

    @property
    def has_tail(self) -> bool:
        return self.tail is not None

    @property
    def per_pass(self) -> int:
        return self.n_full + (1 if self.tail is not None else 0)

    def __len__(self) -> int:
        return self.passes * self.per_pass

    def kind_at(self, i: int) -> ChunkWork:
        """The (index-0) template or tail this position follows."""
        if self.tail is not None and i % self.per_pass == self.per_pass - 1:
            return self.tail
        return self.template

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return _with_index(self.kind_at(i), i)

    def __iter__(self) -> Iterator[ChunkWork]:
        return iter(self.materialize())

    def materialize(self) -> list[ChunkWork]:
        """The equivalent eager chunk list (cached)."""
        if self._materialized is None:
            self._materialized = [
                _with_index(self.kind_at(i), i) for i in range(len(self))
            ]
        return self._materialized

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemplatedChunks(n_full={self.n_full}, tail="
            f"{'yes' if self.tail else 'no'}, passes={self.passes})"
        )


def template_of(
    chunks: Sequence[ChunkWork],
) -> Optional[tuple[ChunkWork, int, Optional[ChunkWork], int]]:
    """``(template, n_full_per_pass, tail, passes)`` of a chunk sequence.

    A :class:`TemplatedChunks` yields its own structure; a plain list is
    recognized when every chunk equals the first (ignoring ``index``)
    except possibly the last (the ragged tail). Anything else —
    heterogeneous schedules — returns None, routing the run to the DES.
    """
    if isinstance(chunks, TemplatedChunks):
        return chunks.template, chunks.n_full, chunks.tail, chunks.passes
    lst = list(chunks)
    if not lst:
        return None
    base = replace(lst[0], index=0)
    for c in lst[1:-1]:
        if replace(c, index=0) != base:
            return None
    if len(lst) == 1:
        return base, 1, None, 1
    last = replace(lst[-1], index=0)
    if last == base:
        return base, len(lst), None, 1
    return base, len(lst) - 1, last, 1


def fastpath_supported(
    chunks: Sequence[ChunkWork], faults=None
) -> tuple[bool, str]:
    """Can the analytic engine reproduce the DES exactly for this run?

    Every pipeline config is covered, so only the schedule and the faults
    decide.

    Returns ``(supported, reason)``; the reason names the first failed
    gate (``"ok"`` when supported). Gates, in order:

    * ``empty`` — no chunks at all;
    * ``active-fault-plan`` — a fault plan is injecting something:
      degraded bandwidth, retried DMAs and stalls make the timeline
      heterogeneous in ways the closed form does not model, so the DES is
      authoritative under injection;
    * ``heterogeneous-chunks`` — the schedule is not template(+tail);
    * ``mapped-writes`` — any chunk carries write-back work (stages 5–6
      add CPU and d2h contention the closed form does not cover).
    """
    n = len(chunks)
    if n == 0:
        return False, "empty"
    if faults is not None:
        from repro.faults.inject import as_injector

        injector = as_injector(faults)
        if injector is not None and injector.active:
            return False, "active-fault-plan"
    tpl = template_of(chunks)
    if tpl is None:
        return False, "heterogeneous-chunks"
    template, _, tail, _ = tpl
    kinds = (template,) if tail is None else (template, tail)
    if any(k.write_bytes > 0 or k.t_scatter > 0 for k in kinds):
        return False, "mapped-writes"
    return True, "ok"


def run_fastpath(
    hardware: HardwareSpec,
    chunks: Sequence[ChunkWork],
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Evaluate the pipeline timeline analytically (no DES).

    Callers should gate on :func:`fastpath_supported`;
    :func:`~repro.runtime.pipeline.run_pipeline` does so automatically.
    Returns a :class:`PipelineResult` whose ``total_time``,
    ``stage_totals`` and byte counters are bit-identical to the DES's;
    ``trace`` is None (tracing is precisely the work being skipped).
    """
    ok, reason = fastpath_supported(chunks)
    if not ok:
        raise RuntimeConfigError(f"fast path does not cover this run: {reason}")
    template, n_full, tail, passes = template_of(chunks)
    n = len(chunks)
    depth = config.ring_depth
    pcie = hardware.pcie
    per_pass = n_full + (1 if tail is not None else 0)

    # Per-kind durations, computed once: index 0 = template, 1 = tail.
    kinds = [template] if tail is None else [template, tail]
    t_ag = [k.t_addr_gen for k in kinds]
    addr_bytes = [k.addr_bytes_d2h for k in kinds]
    d_addr = [
        pcie.transfer_time(k.addr_bytes_d2h, pinned=True) if k.addr_bytes_d2h > 0
        else 0.0
        for k in kinds
    ]
    t_asm = [k.t_assembly for k in kinds]
    xfer_bytes = [k.xfer_bytes for k in kinds]
    t_data = [
        pcie.transfer_time(k.xfer_bytes, pinned=True, segments=k.xfer_segments)
        for k in kinds
    ]
    t_flag = pcie.transfer_time(FLAG_BYTES, pinned=True)
    # the DES computes the compute timeout as one pre-added operand
    t_comp = [k.t_compute + config.sync_overhead for k in kinds]

    # Per-chunk stage events the window lookback needs (chunk i consults
    # chunk i - depth). Scalars carry the previous chunk's value.
    asm_get = [0.0] * n
    xfer_get = [0.0] * n
    comp_get = [0.0] * n
    comp_end = [0.0] * n
    ag_done = asm_done = xfer_done = comp_prev = 0.0

    addr_total = asm_total = xfer_total = comp_total = 0.0
    h2d = d2h = 0

    has_tail = tail is not None
    for i in range(n):
        k = 1 if has_tail and i % per_pass == per_pass - 1 else 0

        # -- stage 1: address generation (+ inline address DMA) ----------
        ring_ready = comp_end[i - depth] if i >= depth else 0.0
        ag_start = ag_done if ag_done >= ring_ready else ring_ready
        ag_end = ag_start + t_ag[k]
        addr_total += ag_end - ag_start
        if addr_bytes[k] > 0:
            dma_end = ag_end + d_addr[k]
            addr_total += dma_end - ag_end
            d2h += addr_bytes[k]
        else:
            dma_end = ag_end
        slot = asm_get[i - depth] if i >= depth else 0.0
        ag_done = dma_end if dma_end >= slot else slot

        # -- stage 2: data assembly --------------------------------------
        g = asm_done if asm_done >= ag_done else ag_done
        asm_get[i] = g
        asm_end = g + t_asm[k]
        asm_total += asm_end - g
        slot = xfer_get[i - depth] if i >= depth else 0.0
        asm_done = asm_end if asm_end >= slot else slot

        # -- stage 3: prefetch transfer + completion flag ----------------
        g = xfer_done if xfer_done >= asm_done else asm_done
        xfer_get[i] = g
        data_end = g + t_data[k]
        xfer_total += data_end - g
        flag_end = data_end + t_flag
        h2d += xfer_bytes[k] + FLAG_BYTES
        slot = comp_get[i - depth] if i >= depth else 0.0
        xfer_done = flag_end if flag_end >= slot else slot

        # -- stage 4: computation (+ ring release) -----------------------
        g = comp_prev if comp_prev >= xfer_done else xfer_done
        comp_get[i] = g
        ce = g + t_comp[k]
        comp_total += ce - g
        comp_end[i] = ce
        comp_prev = ce

    return PipelineResult(
        total_time=comp_prev,
        n_chunks=n,
        trace=None,
        stage_totals={
            STAGE_ADDR_GEN: addr_total,
            STAGE_ASSEMBLY: asm_total,
            STAGE_TRANSFER: xfer_total,
            STAGE_COMPUTE: comp_total,
        },
        bytes_h2d=h2d,
        bytes_d2h=d2h,
    )
