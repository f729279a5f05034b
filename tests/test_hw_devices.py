"""Tests for the GPU/CPU device cost models and the hardware presets."""

import numpy as np
import pytest

from repro.errors import HardwareError
from repro.hw import (
    DEFAULT_HARDWARE,
    GTX680,
    PCIE_GEN3_X16,
    XEON_E5,
    CpuDevice,
    GpuDevice,
    KernelCost,
)
from repro.hw.gpu import BlockResources
from repro.units import GB, MiB


class TestSpecs:
    def test_gtx680_core_count(self):
        assert GTX680.total_cores == 1536  # paper Section V

    def test_gpu_memory_is_2gb(self):
        assert GTX680.global_mem_bytes == 2 * 1024**3

    def test_pcie_pinned_faster_than_pageable(self):
        assert PCIE_GEN3_X16.pinned_bandwidth > PCIE_GEN3_X16.pageable_bandwidth

    def test_pcie_transfer_time_monotone(self):
        t1 = PCIE_GEN3_X16.transfer_time(1 * MiB)
        t2 = PCIE_GEN3_X16.transfer_time(2 * MiB)
        assert t2 > t1 > 0

    def test_pcie_latency_floor(self):
        assert PCIE_GEN3_X16.transfer_time(0) == PCIE_GEN3_X16.latency

    def test_pinned_transfer_twin_matches_transfer_time(self):
        """The number-or-array twin the predictor prices with equals the
        simulator's scalar transfer time at every byte count and segment
        count, bit for bit."""
        pcie = PCIE_GEN3_X16
        nbytes = np.array([0, 4, 4096, 1 * MiB, 12_345_678])
        segments = np.arange(1, 17)
        grid = pcie.pinned_transfer_time(nbytes[:, None], segments[None, :])
        for i, n in enumerate(nbytes.tolist()):
            for j, seg in enumerate(segments.tolist()):
                scalar = pcie.pinned_transfer_time(n, seg)
                assert type(scalar) is float
                assert scalar == pcie.transfer_time(n, pinned=True, segments=seg)
                assert grid[i, j] == scalar
        with pytest.raises(ValueError):
            pcie.pinned_transfer_time(nbytes, segments=np.array([1, 0, 1, 1, 1]))

    def test_gpu_memory_bandwidth_exceeds_pcie(self):
        # the imbalance that motivates the whole paper
        assert GTX680.effective_mem_bandwidth > 5 * PCIE_GEN3_X16.pinned_bandwidth

    def test_scaled_override(self):
        hw = DEFAULT_HARDWARE.scaled(mem_bandwidth=100 * GB)
        assert hw.gpu.mem_bandwidth == 100 * GB
        assert hw.cpu is DEFAULT_HARDWARE.cpu


class TestGpuDevice:
    def setup_method(self):
        self.gpu = GpuDevice(GTX680)

    def test_memory_bound_stage(self):
        # tiny arithmetic, lots of bytes -> time == traffic / bw
        cost = KernelCost(n_ops=1.0, global_bytes=144 * MiB, efficiency=1.0)
        t = self.gpu.stage_time(cost)
        assert t == pytest.approx(144 * MiB / GTX680.effective_mem_bandwidth)

    def test_compute_bound_stage(self):
        cost = KernelCost(n_ops=1e12, global_bytes=1.0)
        t = self.gpu.stage_time(cost)
        assert t == pytest.approx(1e12 / GTX680.peak_ops)

    def test_poor_coalescing_slows_stage(self):
        good = KernelCost(n_ops=0, global_bytes=64 * MiB, efficiency=1.0)
        bad = KernelCost(n_ops=0, global_bytes=64 * MiB, efficiency=0.25)
        assert self.gpu.stage_time(bad) == pytest.approx(4 * self.gpu.stage_time(good))

    def test_efficiency_out_of_range_rejected(self):
        with pytest.raises(HardwareError):
            KernelCost(n_ops=0, global_bytes=0, efficiency=1.5)
        with pytest.raises(HardwareError):
            KernelCost(n_ops=0, global_bytes=0, efficiency=0.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(HardwareError):
            KernelCost(n_ops=-1, global_bytes=0)

    def test_bandwidth_scale_saturates(self):
        assert self.gpu.bandwidth_scale(10**6) == 1.0
        assert self.gpu.bandwidth_scale(100) < 0.1

    def test_active_blocks_respects_set_count(self):
        req = BlockResources(threads=256, shared_mem_bytes=0)
        assert self.gpu.active_blocks(req, num_set_blocks=4) == 4

    def test_active_blocks_respects_hardware(self):
        req = BlockResources(threads=1024, shared_mem_bytes=48 * 1024)
        # one block per SM by shared memory
        assert self.gpu.active_blocks(req, num_set_blocks=1000) == GTX680.num_sms

    def test_active_blocks_register_bound(self):
        req = BlockResources(threads=1024, registers_per_thread=64)
        # 64 regs * 1024 threads = 65536 = all registers -> 1 per SM
        assert self.gpu.max_active_blocks(req) == GTX680.num_sms

    def test_block_too_large_rejected(self):
        with pytest.raises(HardwareError):
            self.gpu.max_active_blocks(BlockResources(threads=2048))

    def test_array_inputs_match_scalars(self):
        threads = np.array([32, 512, 4096, 10**6])
        cost = KernelCost(n_ops=2e6, global_bytes=64 * MiB, efficiency=0.5)
        grid = self.gpu.stage_time(cost, threads)
        for i, t in enumerate(threads.tolist()):
            scalar = self.gpu.stage_time(cost, t)
            assert type(scalar) is float and grid[i] == scalar
        req = BlockResources(threads=np.array([64, 512, 1024]))
        assert self.gpu.active_blocks(req, np.array([4, 100, 100])).tolist() == [
            4,
            32,
            GTX680.num_sms * 2,
        ]

    def test_one_bad_array_element_rejected(self):
        with pytest.raises(HardwareError):
            KernelCost(n_ops=np.array([1.0, -1.0]), global_bytes=0)
        with pytest.raises(HardwareError):
            KernelCost(n_ops=0, global_bytes=0, efficiency=np.array([0.5, 1.5]))
        with pytest.raises(HardwareError):
            self.gpu.bandwidth_scale(np.array([256, 0]))
        with pytest.raises(HardwareError):
            self.gpu.max_active_blocks(BlockResources(threads=np.array([256, 2048])))

    def test_launch_overhead_scales(self):
        assert self.gpu.launch_overhead(10) == pytest.approx(
            10 * GTX680.kernel_launch_overhead
        )


class TestCpuDevice:
    def setup_method(self):
        self.cpu = CpuDevice(XEON_E5)

    def test_serial_memory_bound(self):
        t = self.cpu.serial_compute_time(n_ops=1, bytes_streamed=1 * GB)
        assert t == pytest.approx(1 * GB / XEON_E5.per_thread_bandwidth)

    def test_mt_speedup_bounded_by_cores(self):
        ser = self.cpu.serial_compute_time(1e11, 1)
        mt = self.cpu.mt_compute_time(1e11, 1)
        assert 2.0 < ser / mt <= XEON_E5.cores

    def test_mt_memory_bound_by_socket_bw(self):
        mt = self.cpu.mt_compute_time(1, 52 * GB, threads=8)
        assert mt >= 1.0  # socket bandwidth is 52 GB/s

    def test_assembly_sequential_faster_than_random(self):
        seq = self.cpu.assembly_time(1_000_000, 8, hit_rate=0.9, address_driven=False)
        rnd = self.cpu.assembly_time(1_000_000, 8, hit_rate=0.0, address_driven=False)
        assert rnd > 2 * seq

    def test_assembly_address_overhead(self):
        # isolate the address-buffer term with no per-access loop cost
        no_addr = self.cpu.assembly_time(
            10**6, 1, 0.9, address_driven=False, n_accesses=0
        )
        addr = self.cpu.assembly_time(
            10**6, 1, 0.9, address_driven=True, n_accesses=0
        )
        # 8B of address per 1B of data: addresses dominate (paper Section IV-A)
        assert addr > 2 * no_addr

    def test_assembly_per_access_loop_cost(self):
        bulk = self.cpu.assembly_time(10**6, 1, 0.9, False, n_accesses=1000)
        loop = self.cpu.assembly_time(10**6, 1, 0.9, False, n_accesses=10**6)
        assert loop > bulk

    def test_bad_hit_rate_rejected(self):
        with pytest.raises(HardwareError):
            self.cpu.assembly_time(1, 1, 1.5, False)
        with pytest.raises(HardwareError):
            self.cpu.scatter_time(1, 1, 2.0)
        with pytest.raises(HardwareError):
            self.cpu.assembly_time(1, 1, np.array([0.5, -0.1]), False)

    def test_random_read_bandwidth(self):
        assert self.cpu.random_read_bandwidth() == pytest.approx(8e8)

    def _read_time(self, hit_rate, n=10**6):
        """Assembly's read term: the total less the buffer write."""
        total = self.cpu.assembly_time(n, 1, hit_rate, False, n_accesses=0)
        return total - n / XEON_E5.per_thread_bandwidth

    def test_read_blend_endpoints(self):
        n = 10**6
        assert self._read_time(1.0) == pytest.approx(n / XEON_E5.per_thread_bandwidth)
        assert self._read_time(0.0) == pytest.approx(
            n / self.cpu.random_read_bandwidth()
        )

    def test_read_blend_is_harmonic(self):
        n = 10**6
        per_byte = 0.5 / XEON_E5.per_thread_bandwidth + 0.5 / (
            self.cpu.random_read_bandwidth()
        )
        assert self._read_time(0.5) == pytest.approx(n * per_byte)

    def test_scatter_time_positive(self):
        assert self.cpu.scatter_time(1000, 4, 0.5) > 0

    def test_staging_copy_two_thirds_bandwidth(self):
        t = self.cpu.staging_copy_time(1 * GB)
        assert t == pytest.approx(1.5 * GB / XEON_E5.per_thread_bandwidth)
