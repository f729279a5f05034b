"""Tests for streaming arrays, buffer sets, and the scheduler."""

import numpy as np
import pytest

from repro.errors import RuntimeConfigError
from repro.hw import GTX680, GpuDevice
from repro.hw.gpu_memory import GpuMemoryAllocator
from repro.hw.pinned import PinnedAllocator
from repro.kernelc.ir import RecordSchema
from repro.runtime.buffers import BlockBuffers, BufferConfig
from repro.runtime.scheduler import ThreadLayout, plan_blocks
from repro.runtime.streaming import StreamingArray, StreamingRegistry
from repro.units import GiB, KiB, MiB

PARTICLE = RecordSchema.packed(
    [("x", "f8"), ("y", "f8"), ("z", "f8"), ("cid", "i4")], record_size=48
)


class TestStreaming:
    def test_malloc_map_roundtrip(self):
        reg = StreamingRegistry()
        reg.streaming_malloc("particles", 48 * 100)
        host = np.zeros(100, dtype=PARTICLE.numpy_dtype())
        arr = reg.streaming_map("particles", host, PARTICLE, writable=True)
        assert reg.get("particles") is arr
        assert arr.nbytes == 4800
        assert arr.n_records == 100

    def test_map_without_malloc_rejected(self):
        reg = StreamingRegistry()
        host = np.zeros(10, dtype=PARTICLE.numpy_dtype())
        with pytest.raises(RuntimeConfigError):
            reg.streaming_map("ghost", host, PARTICLE)

    def test_map_larger_than_declared_rejected(self):
        reg = StreamingRegistry()
        reg.streaming_malloc("p", 48)
        host = np.zeros(10, dtype=PARTICLE.numpy_dtype())
        with pytest.raises(RuntimeConfigError):
            reg.streaming_map("p", host, PARTICLE)

    def test_double_malloc_rejected(self):
        reg = StreamingRegistry()
        reg.streaming_malloc("p", 48)
        with pytest.raises(RuntimeConfigError):
            reg.streaming_malloc("p", 96)

    def test_dtype_schema_mismatch_rejected(self):
        with pytest.raises(RuntimeConfigError):
            StreamingArray("p", PARTICLE, np.zeros(4, dtype=np.float64))

    def test_byte_view_is_flat(self):
        host = np.zeros(10, dtype=PARTICLE.numpy_dtype())
        arr = StreamingArray("p", PARTICLE, host)
        assert arr.byte_view().shape == (480,)


class TestBufferConfig:
    def test_pinned_footprint(self):
        c = BufferConfig(data_buf_bytes=1 * MiB, addr_buf_entries=1024, instances=2)
        assert c.pinned_bytes_per_block() == 2 * (1 * MiB + 8 * 1024)

    def test_gpu_footprint_includes_write_buffers(self):
        c = BufferConfig(
            data_buf_bytes=1 * MiB,
            addr_buf_entries=64,
            instances=2,
            write_buf_bytes=256 * KiB,
        )
        assert c.gpu_bytes_per_block() == 2 * (1 * MiB + 256 * KiB)

    def test_single_instance_rejected(self):
        with pytest.raises(RuntimeConfigError):
            BufferConfig(data_buf_bytes=1, addr_buf_entries=1, instances=1)

    def test_with_instances_rescales_ring_depth(self):
        """Every instance is a full buffer set: footprints scale with the
        ring depth, which never drops below the paper's two."""
        c = BufferConfig(
            data_buf_bytes=1 * MiB,
            addr_buf_entries=64,
            instances=2,
            write_buf_bytes=256 * KiB,
        )
        deep = c.with_instances(4)
        assert (deep.data_buf_bytes, deep.write_buf_bytes) == (1 * MiB, 256 * KiB)
        assert deep.pinned_bytes_per_block() == 2 * c.pinned_bytes_per_block()
        assert deep.gpu_bytes_per_block() == 2 * c.gpu_bytes_per_block()
        with pytest.raises(RuntimeConfigError):
            c.with_instances(1)


class TestBlockBuffers:
    def test_allocation_accounting(self):
        pinned = PinnedAllocator(1 * GiB)
        gpu = GpuMemoryAllocator(2 * GiB)
        cfg = BufferConfig(data_buf_bytes=4 * MiB, addr_buf_entries=4096, instances=2)
        bb = BlockBuffers(0, cfg)
        bb.allocate(pinned, gpu)
        assert pinned.used == cfg.pinned_bytes_per_block()
        assert gpu.used == cfg.gpu_bytes_per_block()
        bb.release(pinned, gpu)
        assert pinned.used == 0
        assert gpu.used == 0

    def test_write_buffers_only_when_writing(self):
        """Each instance adds a pinned write-landing buffer and a GPU write
        buffer only when ``write_buf_bytes`` is set."""
        handles = {}
        for write_bytes in (0, 1024):
            cfg = BufferConfig(
                data_buf_bytes=1 * MiB,
                addr_buf_entries=64,
                instances=2,
                write_buf_bytes=write_bytes,
            )
            pinned, gpu = PinnedAllocator(1 * GiB), GpuMemoryAllocator(1 * GiB)
            bb = BlockBuffers(0, cfg)
            bb.allocate(pinned, gpu)
            handles[write_bytes] = (len(bb._pinned_handles), len(bb._gpu_handles))
            assert pinned.used == cfg.pinned_bytes_per_block()
            assert gpu.used == cfg.gpu_bytes_per_block()
        # addr + prefetch pinned and one data buffer per instance, then one
        # more of each side per instance
        assert handles == {0: (4, 2), 1024: (6, 4)}


class TestThreadLayout:
    def test_doubles_threads(self):
        lay = ThreadLayout(compute_threads=256)
        assert lay.total_threads == 512
        assert lay.addrgen_threads == 256

    def test_warp_homogeneous_roles(self):
        lay = ThreadLayout(compute_threads=128)
        roles = [lay.role_of_warp(w) for w in range(lay.warps)]
        assert roles == ["addrgen"] * 4 + ["compute"] * 4
        assert lay.is_divergence_free()

    def test_non_warp_multiple_rejected(self):
        with pytest.raises(RuntimeConfigError):
            ThreadLayout(compute_threads=100)

    def test_warp_index_bounds(self):
        lay = ThreadLayout(compute_threads=32)
        with pytest.raises(RuntimeConfigError):
            lay.role_of_warp(99)


class TestPlanBlocks:
    def test_respects_requested_blocks(self):
        gpu = GpuDevice(GTX680)
        plan = plan_blocks(
            gpu,
            ThreadLayout(compute_threads=128),
            BufferConfig(data_buf_bytes=1 * MiB, addr_buf_entries=256, instances=2),
            num_set_blocks=4,
        )
        assert plan.active_blocks == 4
        assert plan.total_gpu_threads == 4 * 256

    def test_hardware_bounds_active_blocks(self):
        gpu = GpuDevice(GTX680)
        plan = plan_blocks(
            gpu,
            ThreadLayout(compute_threads=512),  # 1024 threads/block
            BufferConfig(data_buf_bytes=1 * MiB, addr_buf_entries=256, instances=2),
            num_set_blocks=1000,
        )
        # 2048 threads per SM / 1024 per block = 2 blocks per SM * 8 SMs
        assert plan.active_blocks == 16

    def test_zero_requested_rejected(self):
        gpu = GpuDevice(GTX680)
        with pytest.raises(RuntimeConfigError):
            plan_blocks(
                gpu,
                ThreadLayout(compute_threads=32),
                BufferConfig(data_buf_bytes=1, addr_buf_entries=1, instances=2),
                num_set_blocks=0,
            )
