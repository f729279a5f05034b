"""Consolidated coverage for smaller surfaces: metrics, buffer
misuse, GPU device edges, engine result helpers."""

import numpy as np
import pytest

from repro.engines.base import RunMetrics, RunResult
from repro.errors import AllocationError, HardwareError, RuntimeConfigError
from repro.hw import GTX680, GpuDevice, KernelCost
from repro.hw.gpu import BlockResources
from repro.hw.gpu_memory import GpuMemoryAllocator
from repro.hw.pinned import PinnedAllocator
from repro.runtime.buffers import BlockBuffers, BufferConfig
from repro.units import GiB, MiB


class TestRunMetricsAndResult:
    def test_comp_comm_ratio(self):
        m = RunMetrics(comp_time=3.0, comm_time=1.0)
        assert m.comp_comm_ratio == pytest.approx(0.75)

    def test_comp_comm_ratio_zero_total(self):
        assert RunMetrics().comp_comm_ratio == 0.0

    def test_speedup_over(self):
        a = RunResult("a", "app", None, 2.0, RunMetrics())
        b = RunResult("b", "app", None, 1.0, RunMetrics())
        assert b.speedup_over(a) == pytest.approx(2.0)

    def test_zero_time_speedup_rejected(self):
        z = RunResult("z", "app", None, 0.0, RunMetrics())
        other = RunResult("o", "app", None, 1.0, RunMetrics())
        with pytest.raises(RuntimeConfigError):
            z.speedup_over(other)


class TestBufferMisuse:
    def test_release_without_allocate_is_noop(self):
        cfg = BufferConfig(data_buf_bytes=1 * MiB, addr_buf_entries=64, instances=2)
        bb = BlockBuffers(0, cfg)
        bb.release(PinnedAllocator(1 * GiB), GpuMemoryAllocator(1 * GiB))  # empty

    def test_double_release_detected(self):
        cfg = BufferConfig(data_buf_bytes=1 * MiB, addr_buf_entries=64, instances=2)
        pinned, gpu = PinnedAllocator(1 * GiB), GpuMemoryAllocator(1 * GiB)
        bb = BlockBuffers(0, cfg)
        bb.allocate(pinned, gpu)
        bb.release(pinned, gpu)
        bb2 = BlockBuffers(1, cfg)
        bb2.allocate(pinned, gpu)
        handles = list(bb2._pinned_handles)
        bb2.release(pinned, gpu)
        with pytest.raises(AllocationError):
            pinned.free(handles[0])

    def test_too_many_blocks_exhaust_gpu_memory(self):
        from repro.errors import GpuOutOfMemory

        cfg = BufferConfig(
            data_buf_bytes=300 * MiB, addr_buf_entries=64, instances=2
        )
        pinned, gpu = PinnedAllocator(64 * GiB), GpuMemoryAllocator(1 * GiB)
        b0 = BlockBuffers(0, cfg)
        b0.allocate(pinned, gpu)
        with pytest.raises(GpuOutOfMemory):
            BlockBuffers(1, cfg).allocate(pinned, gpu)


class TestGpuDeviceEdges:
    def setup_method(self):
        self.gpu = GpuDevice(GTX680)

    def test_bandwidth_scale_rejects_nonpositive(self):
        with pytest.raises(HardwareError):
            self.gpu.bandwidth_scale(0)

    def test_negative_launch_count_rejected(self):
        with pytest.raises(HardwareError):
            self.gpu.launch_overhead(-1)

    def test_flag_wait_cost_linear(self):
        assert self.gpu.flag_wait_overhead(4) == pytest.approx(
            4 * GTX680.global_latency
        )

    def test_additive_roofline(self):
        """compute + memory, not max(): both components appear."""
        cost = KernelCost(n_ops=1.5e9, global_bytes=144 * MiB, efficiency=1.0)
        t = self.gpu.stage_time(cost)
        comp = 1.5e9 / GTX680.peak_ops
        mem = 144 * MiB / GTX680.effective_mem_bandwidth
        assert t == pytest.approx(comp + mem)

    def test_block_resources_zero_regs(self):
        req = BlockResources(threads=128, registers_per_thread=0)
        assert self.gpu.max_active_blocks(req) > 0

    def test_compute_resource_capacity_two(self):
        """The pipeline's GPU holds one address-generation and one
        computation stage at once, and never a third."""
        from repro.hw.spec import DEFAULT_HARDWARE
        from repro.runtime.pipeline import ChunkWork, run_pipeline
        from repro.verify.invariants import check_track_capacity

        chunks = [
            ChunkWork(
                index=i,
                t_addr_gen=1e-3,
                addr_bytes_d2h=0,
                t_assembly=1e-4,
                xfer_bytes=64 * 1024,
                t_compute=1e-3,
            )
            for i in range(6)
        ]
        trace = run_pipeline(DEFAULT_HARDWARE, chunks, fastpath=False).trace
        assert check_track_capacity(trace, "gpu", 2) == []
        assert check_track_capacity(trace, "gpu", 1)  # the two stages overlap
