"""CPU cache model used by the data-assembly cost estimator.

Two layers:

* :class:`CacheSim` — an exact set-associative LRU simulator driven by
  concrete address traces. Used by tests and by the locality-ablation bench
  to *measure* the hit-rate difference between GPU-access-order gathering
  and the paper's per-thread-contiguous read order (Section IV-B).
* :func:`analytic_hit_rate` — the closed-form estimate the engine-level cost
  models use for large runs, validated against the simulator on sampled
  traces.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import HardwareError
from repro.hw.elementwise import every, minimum


class CacheSim:
    """Set-associative LRU cache over byte addresses."""

    def __init__(self, capacity: int, line: int = 64, ways: int = 8):
        if capacity <= 0 or line <= 0 or ways <= 0:
            raise HardwareError("cache capacity, line and ways must be positive")
        if capacity % (line * ways):
            raise HardwareError(
                f"capacity {capacity} not divisible by line*ways={line * ways}"
            )
        self.capacity = capacity
        self.line = line
        self.ways = ways
        self.num_sets = capacity // (line * ways)
        # each set: OrderedDict tag -> None, LRU at front
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch one byte address; returns True on hit."""
        line_no = int(addr) // self.line
        idx = line_no % self.num_sets
        tag = line_no // self.num_sets
        s = self._sets[idx]
        if tag in s:
            s.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[tag] = None
        return False

    def access_range(self, addr: int, nbytes: int) -> tuple[int, int]:
        """Touch every line in ``[addr, addr+nbytes)``; returns (hits, misses)."""
        if nbytes <= 0:
            return (0, 0)
        h0, m0 = self.hits, self.misses
        first = int(addr) // self.line
        last = (int(addr) + nbytes - 1) // self.line
        for line_no in range(first, last + 1):
            self.access(line_no * self.line)
        return (self.hits - h0, self.misses - m0)

    def run_trace(self, addresses: np.ndarray, elem_bytes: int = 1) -> float:
        """Feed a whole trace; returns the hit rate."""
        for a in np.asarray(addresses, dtype=np.int64).tolist():
            self.access_range(a, elem_bytes)
        return self.hit_rate

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


def analytic_hit_rate(
    elem_bytes: int,
    cache_line: int,
    sequential: bool,
    working_set: int | None = None,
    cache_bytes: int | None = None,
) -> float:
    """Closed-form hit-rate estimate for the assembly read stream.

    *Sequential* gathers (per-thread-contiguous order, or pattern-driven
    unit-stride reads) hit whenever the element shares a line with its
    predecessor: ``1 - elem/line`` (clamped at 0). *Random* gathers over a
    ``working_set`` larger than the cache miss almost always; the residual
    hit chance is the capacity ratio. ``working_set`` may be an array.
    """
    if elem_bytes <= 0 or cache_line <= 0:
        raise HardwareError("elem_bytes and cache_line must be positive")
    if sequential:
        return max(0.0, 1.0 - elem_bytes / cache_line)
    if working_set is None or cache_bytes is None:
        return 0.0
    if not every(working_set > 0):
        raise HardwareError("working_set must be positive")
    return minimum(1.0, cache_bytes / working_set)
