"""Per-thread-block buffer sets, sized and allocated.

BigKernel needs, per thread block: a pinned CPU-side address buffer, a
pinned CPU-side prefetch buffer, a GPU-side data buffer — and, for kernels
that write mapped data, a GPU-side write buffer plus a pinned CPU-side
write-landing buffer. *Multiple instances* of each exist so stages can
overlap (Section III: "At minimum, two of each are required"); the ring
discipline prevents stage *n* from reusing an instance before its consumer
three stages downstream is done, which the paper implements by barriering
each chunk iteration against iteration ``n - 3``.

This module owns the memory side of that ring: how many bytes each
instance takes and their allocation against the pinned and GPU
allocators. The ring's timing, a stage waiting for a free instance, is
enforced on the simulated timeline by the pipeline's buffer-ring
semaphore and bounded stores (:mod:`repro.runtime.pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import RuntimeConfigError
from repro.hw.gpu_memory import GpuMemoryAllocator
from repro.hw.pinned import PinnedAllocator


@dataclass(frozen=True)
class BufferConfig:
    """Sizing for one thread block's buffer set."""

    #: payload capacity of one data-buffer instance (bytes)
    data_buf_bytes: int
    #: capacity of one address-buffer instance (addresses)
    addr_buf_entries: int
    #: ring depth (instances of each buffer)
    instances: int = 2
    #: bytes per address entry
    address_bytes: int = 8
    #: write buffers only exist when the kernel writes mapped data
    write_buf_bytes: int = 0

    def __post_init__(self):
        if self.data_buf_bytes <= 0:
            raise RuntimeConfigError("data_buf_bytes must be positive")
        if self.addr_buf_entries <= 0:
            raise RuntimeConfigError("addr_buf_entries must be positive")
        if self.instances < 2:
            raise RuntimeConfigError(
                "at least two instances of each buffer are required for "
                "producer/consumer overlap (paper Section III)"
            )

    @property
    def addr_buf_bytes(self) -> int:
        return self.addr_buf_entries * self.address_bytes

    def with_instances(self, instances: int) -> "BufferConfig":
        """Same sizing at a different ring depth (degradation policies
        shrink toward the paper's minimum of two)."""
        return replace(self, instances=instances)

    def pinned_bytes_per_block(self) -> int:
        """CPU-side pinned footprint of one block's buffer set."""
        per_instance = self.addr_buf_bytes + self.data_buf_bytes + self.write_buf_bytes
        return per_instance * self.instances

    def gpu_bytes_per_block(self) -> int:
        """GPU-side footprint of one block's buffer set."""
        per_instance = self.data_buf_bytes + self.write_buf_bytes
        return per_instance * self.instances


@dataclass
class BlockBuffers:
    """All buffers of one thread block, allocated against real accounting.

    Allocation goes through the pinned and GPU allocators so that
    configurations exceeding the testbed's memory fail the way they would
    on hardware, and so the active-block policy (Section IV-D) has real
    numbers to work with.
    """

    block_id: int
    config: BufferConfig

    def __post_init__(self):
        self._pinned_handles: list = []
        self._gpu_handles: list = []

    def allocate(self, pinned: PinnedAllocator, gpu: GpuMemoryAllocator) -> None:
        """Reserve the pinned and GPU memory this block's set needs."""
        c = self.config
        for i in range(c.instances):
            self._pinned_handles.append(
                pinned.alloc(c.addr_buf_bytes, f"addrBuf[{self.block_id}][{i}]")
            )
            self._pinned_handles.append(
                pinned.alloc(c.data_buf_bytes, f"prefetchBuf[{self.block_id}][{i}]")
            )
            self._gpu_handles.append(
                gpu.alloc(c.data_buf_bytes, f"dataBuf[{self.block_id}][{i}]")
            )
            if c.write_buf_bytes:
                self._pinned_handles.append(
                    pinned.alloc(c.write_buf_bytes, f"writeLanding[{self.block_id}][{i}]")
                )
                self._gpu_handles.append(
                    gpu.alloc(c.write_buf_bytes, f"writeBuf[{self.block_id}][{i}]")
                )

    def release(self, pinned: PinnedAllocator, gpu: GpuMemoryAllocator) -> None:
        """Return everything (used when inactive blocks recycle buffers)."""
        for h in self._pinned_handles:
            pinned.free(h)
        for h in self._gpu_handles:
            gpu.free(h)
        self._pinned_handles.clear()
        self._gpu_handles.clear()
