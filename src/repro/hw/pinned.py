"""Pinned (page-locked) host memory accounting.

The DMA engine can only reach pinned pages (Section II), so every address,
prefetch and write buffer CPU-side must be pinned. The paper notes this
steals physical memory from other processes; we enforce a limit so
configurations that would not fit the testbed's 16 GB fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import AllocationError, PinnedMemoryExceeded


@dataclass(frozen=True)
class PinnedBuffer:
    """A granted pinned region."""

    handle: int
    nbytes: int
    label: str


class PinnedAllocator:
    """Tracks pinned host allocations against a hard limit."""

    def __init__(self, limit_bytes: int, deny_after_bytes: Optional[int] = None):
        if limit_bytes <= 0:
            raise AllocationError(f"pinned limit must be positive, got {limit_bytes}")
        self.limit = int(limit_bytes)
        #: fault-injection hook (``repro.faults``): allocations are denied
        #: once usage would cross this threshold, modelling the OS
        #: reclaiming page-lock budget from the process
        self.deny_after_bytes = (
            int(deny_after_bytes) if deny_after_bytes is not None else None
        )
        self._next = 1
        self._live: dict[int, PinnedBuffer] = {}
        #: bytes of the live buffers, kept as a running total: planning
        #: allocates per block and ring slot, so a sum over every live
        #: buffer on each ``alloc`` would make it quadratic
        self._used = 0
        self.peak_usage = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def available(self) -> int:
        return self.limit - self.used

    def alloc(self, nbytes: int, label: str = "") -> PinnedBuffer:
        """Pin ``nbytes``; raises :class:`PinnedMemoryExceeded` past the limit."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        if self.used + nbytes > self.limit:
            raise PinnedMemoryExceeded(
                f"pinning {nbytes} bytes ({label!r}) would exceed the "
                f"{self.limit}-byte limit ({self.available} available)"
            )
        if (
            self.deny_after_bytes is not None
            and self.used + nbytes > self.deny_after_bytes
        ):
            raise PinnedMemoryExceeded(
                f"pinning {nbytes} bytes ({label!r}) denied: injected fault "
                f"caps pinned usage at {self.deny_after_bytes} bytes "
                f"({self.used} already pinned)"
            )
        buf = PinnedBuffer(self._next, int(nbytes), label)
        self._next += 1
        self._live[buf.handle] = buf
        self._used += buf.nbytes
        self.peak_usage = max(self.peak_usage, self._used)
        return buf

    def free(self, buf: PinnedBuffer) -> None:
        if buf.handle not in self._live:
            raise AllocationError(f"double free or unknown pinned buffer {buf.handle}")
        self._used -= self._live.pop(buf.handle).nbytes
