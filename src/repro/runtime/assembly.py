"""The CPU-side data-assembly stage (pipeline stage 2).

Gathers the bytes named by the address stream into the pinned prefetch
buffer, laid out in GPU access order so that, once transferred, consecutive
threads' simultaneous reads land in adjacent slots (coalesced).

The locality optimization (Section IV-B): when a pattern describes each GPU
thread's accesses, read the *source* per-thread-contiguously (one thread's
whole range at a time, which is nearly sequential in host memory) while
still *storing* in GPU access order. Reads dominate assembly cost, so
reordering only them captures most of the cache benefit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import RuntimeConfigError
from repro.hw.cache import CacheSim, analytic_hit_rate
from repro.hw.elementwise import where
from repro.hw.spec import CpuSpec
from repro.kernelc.codegen import AddressRecord


def gather_values(byte_view: np.ndarray, addresses: Sequence[AddressRecord]) -> list:
    """Typed gather for interpreter-scale runs (one value per address)."""
    out = []
    for rec in addresses:
        raw = byte_view[rec.offset : rec.offset + rec.nbytes]
        if raw.size != rec.nbytes:
            raise RuntimeConfigError(
                f"address [{rec.offset}, {rec.offset + rec.nbytes}) outside "
                f"the {byte_view.size}-byte mapped array"
            )
        out.append(raw.view(rec.dtype)[0])
    return out


def _gather_bytes_reference(
    byte_view: np.ndarray, offsets: np.ndarray, elem_bytes: int
) -> np.ndarray:
    """Reference implementation of :func:`gather_bytes` (full index-matrix
    build). Kept as the equivalence oracle for the column-fill version —
    see ``tests/test_runtime_assembly.py``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return np.empty(0, dtype=np.uint8)
    if offsets.min() < 0 or offsets.max() + elem_bytes > byte_view.size:
        raise RuntimeConfigError("gather offsets outside the mapped array")
    # index matrix: offsets[:, None] + arange(elem_bytes)
    idx = offsets[:, None] + np.arange(elem_bytes, dtype=np.int64)[None, :]
    return byte_view[idx.reshape(-1)]


def gather_bytes(
    byte_view: np.ndarray, offsets: np.ndarray, elem_bytes: int
) -> np.ndarray:
    """Vectorized gather of fixed-size elements into a contiguous buffer.

    Returns ``len(offsets) * elem_bytes`` bytes in the order given — i.e.
    GPU access order when ``offsets`` is the (interleaved) access stream.

    Fills the output a byte-column at a time (``elem_bytes`` fancy gathers
    of ``len(offsets)`` indices each), so peak index scratch is one int64
    per offset instead of the ``len(offsets) x elem_bytes`` int64 matrix
    the reference builds — 8 x ``elem_bytes`` bytes of traffic per gathered
    byte, gone.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return np.empty(0, dtype=np.uint8)
    if offsets.min() < 0 or offsets.max() + elem_bytes > byte_view.size:
        raise RuntimeConfigError("gather offsets outside the mapped array")
    if elem_bytes == 1:
        return byte_view[offsets]
    out = np.empty((offsets.size, elem_bytes), dtype=np.uint8)
    for j in range(elem_bytes):
        out[:, j] = byte_view[offsets + j]
    return out.reshape(-1)


def _interleave_layout_loop(
    per_thread_offsets: Sequence[np.ndarray],
) -> np.ndarray:
    """Reference implementation of :func:`interleave_layout` (pure Python
    step loop). Kept as the equivalence oracle for the vectorized version —
    see ``tests/test_fastpath.py``."""
    streams = [np.asarray(s, dtype=np.int64) for s in per_thread_offsets]
    if not streams:
        return np.empty(0, dtype=np.int64)
    maxlen = max(s.size for s in streams)
    out: list[int] = []
    for step in range(maxlen):
        for s in streams:
            if step < s.size:
                out.append(int(s[step]))
    return np.asarray(out, dtype=np.int64)


def interleave_layout(
    per_thread_offsets: Sequence[np.ndarray],
) -> np.ndarray:
    """GPU access order over per-thread address streams.

    At each time step every computation thread pops its next element, so
    the prefetch buffer stores step 0 of all threads, then step 1, etc.
    Threads with exhausted streams simply drop out (ragged tails allowed).

    Vectorized: element ``(step, thread)`` sorts by ``step`` first, then
    thread index — one stable argsort over the concatenated streams
    replaces the per-step Python loop.
    """
    streams = [np.asarray(s, dtype=np.int64) for s in per_thread_offsets]
    if not streams:
        return np.empty(0, dtype=np.int64)
    lens = np.array([s.size for s in streams], dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    if lens.min() == lens.max():
        # equal-length fast case: transpose does the interleave directly
        return np.stack(streams, axis=0).T.reshape(-1)
    values = np.concatenate(streams)
    # per-element step index: position within its own stream
    starts = np.cumsum(lens) - lens
    steps = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
    # sort by step, ties broken by thread order = concatenation order
    # (kind='stable' keeps the tie-break exact)
    order = np.argsort(steps, kind="stable")
    return values[order]


def assembly_read_order(
    per_thread_offsets: Sequence[np.ndarray], locality_opt: bool
) -> np.ndarray:
    """The order in which the CPU *reads* source data during assembly.

    With the optimization: whole threads at a time (near-sequential reads);
    without: GPU access order (interleaved across threads, poor locality
    when per-thread data is contiguous).
    """
    if locality_opt:
        streams = [np.asarray(s, dtype=np.int64) for s in per_thread_offsets]
        if not streams:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(streams)
    return interleave_layout(per_thread_offsets)


def measure_assembly_hit_rate(
    read_order: np.ndarray,
    elem_bytes: int,
    cpu: CpuSpec,
    sample: int = 4096,
) -> float:
    """Exact (sampled) hit rate of the assembly read stream via CacheSim."""
    order = np.asarray(read_order, dtype=np.int64)
    if order.size == 0:
        return 1.0
    if order.size > sample:
        order = order[:sample]
    ways = 8
    line = cpu.cache_line
    capacity = cpu.cache_bytes // (line * ways) * (line * ways)
    sim = CacheSim(capacity=capacity, line=line, ways=ways)
    return sim.run_trace(order, elem_bytes=elem_bytes)


def estimate_assembly_hit_rate(
    elem_bytes: int,
    record_bytes: int,
    threads: int,
    cpu: CpuSpec,
    locality_opt: bool,
    reads_per_record: float = 1.0,
) -> float:
    """Analytic hit rate used by the engine-scale cost model.

    With the locality optimization the read stream walks each thread's slab
    record by record: the lines a record spans are fetched once and all
    ``reads_per_record`` accesses share them, so the miss count per record
    is ``record_bytes / cache_line`` (at most one per access). Without it,
    consecutive reads jump between threads' slabs (~``chunk/threads``
    apart): each read opens its own line unless the whole chunk fits in
    cache. ``threads`` may be an array of per-point thread counts.
    """
    if reads_per_record <= 0:
        return 1.0
    misses_per_record = min(
        float(reads_per_record), max(record_bytes / cpu.cache_line, 0.0)
    )
    seq_hit = max(0.0, 1.0 - misses_per_record / reads_per_record)
    if locality_opt:
        return seq_hit
    # GPU-access order interleaves the threads' streams round robin. Each
    # stream is itself sequential, so the live working set is one cache
    # line per stream: when that fits the cache the reads still mostly
    # hit, just with degraded hardware prefetching; past it, the streams
    # evict each other.
    stream_set = threads * cpu.cache_line * 2
    return where(
        stream_set <= cpu.cache_bytes,
        0.85 * seq_hit,
        analytic_hit_rate(
            elem_bytes,
            cpu.cache_line,
            sequential=False,
            working_set=stream_set,
            cache_bytes=cpu.cache_bytes,
        ),
    )
