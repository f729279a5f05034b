"""First-fit allocator for simulated GPU global memory.

Engines call this for every ``cudaMalloc``-equivalent so that buffer sizing
bugs (e.g. a chunk size that cannot fit alongside resident structures) are
caught the same way they would be on real hardware: with an out-of-memory
error, not silent success.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError, GpuOutOfMemory


@dataclass(frozen=True)
class Allocation:
    """A granted region of simulated device memory."""

    offset: int
    nbytes: int
    label: str


class GpuMemoryAllocator:
    """First-fit free-list allocator over ``capacity`` bytes."""

    def __init__(self, capacity: int, alignment: int = 256):
        if capacity <= 0:
            raise AllocationError(f"capacity must be positive, got {capacity}")
        if alignment <= 0 or (alignment & (alignment - 1)):
            raise AllocationError(f"alignment must be a power of two, got {alignment}")
        self.capacity = int(capacity)
        self.alignment = alignment
        # Sorted list of (offset, nbytes) free holes.
        self._free: list[tuple[int, int]] = [(0, self.capacity)]
        self._live: dict[int, Allocation] = {}
        #: bytes of the live allocations, kept as a running total (a sum
        #: over every live allocation on each ``alloc`` is quadratic)
        self._used = 0
        self.peak_usage = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def available(self) -> int:
        return self.capacity - self.used

    @property
    def allocations(self) -> list[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.offset)

    def _round(self, nbytes: int) -> int:
        a = self.alignment
        return (int(nbytes) + a - 1) // a * a

    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Reserve ``nbytes`` (rounded to alignment); first fit."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        need = self._round(nbytes)
        for i, (off, size) in enumerate(self._free):
            if size >= need:
                alloc = Allocation(off, need, label)
                if size == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, size - need)
                self._live[off] = alloc
                self._used += need
                self.peak_usage = max(self.peak_usage, self._used)
                return alloc
        raise GpuOutOfMemory(
            f"cannot allocate {need} bytes ({label!r}): "
            f"{self.available} free of {self.capacity}, fragmented into "
            f"{len(self._free)} holes"
        )

    def free(self, alloc: Allocation) -> None:
        """Return a region, coalescing adjacent holes."""
        if alloc.offset not in self._live:
            raise AllocationError(f"double free or unknown allocation at {alloc.offset}")
        self._used -= self._live.pop(alloc.offset).nbytes
        self._free.append((alloc.offset, alloc.nbytes))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((off, size))
        self._free = merged

    def reset(self) -> None:
        """Free everything (device reset)."""
        self._live.clear()
        self._used = 0
        self._free = [(0, self.capacity)]
