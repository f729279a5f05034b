"""Tests for the CPU cache simulator, analytic hit-rate model and DRAM
read-bandwidth inputs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HardwareError
from repro.hw import XEON_E5, CpuDevice
from repro.hw.cache import CacheSim, analytic_hit_rate


class TestCacheSim:
    def test_sequential_bytes_mostly_hit(self):
        c = CacheSim(capacity=64 * 1024, line=64, ways=8)
        rate = c.run_trace(np.arange(0, 32768, 8), elem_bytes=8)
        assert rate == pytest.approx(1 - 8 / 64, abs=0.01)

    def test_repeated_access_hits(self):
        c = CacheSim(capacity=64 * 1024)
        c.access(0)
        assert c.access(0)
        assert c.access(32)  # same 64B line

    def test_random_over_large_working_set_misses(self):
        c = CacheSim(capacity=16 * 1024, line=64, ways=8)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 28, size=4000) * 64
        rate = c.run_trace(addrs, elem_bytes=8)
        assert rate < 0.05

    def test_lru_eviction(self):
        # direct-capacity stress: working set exactly 2x cache, cyclic
        c = CacheSim(capacity=4096, line=64, ways=8)
        addrs = np.tile(np.arange(0, 8192, 64), 4)
        rate = c.run_trace(addrs, elem_bytes=1)
        assert rate < 0.05  # cyclic over 2x capacity defeats LRU

    def test_working_set_fits(self):
        c = CacheSim(capacity=8192, line=64, ways=8)
        addrs = np.tile(np.arange(0, 4096, 64), 4)
        c.run_trace(addrs, elem_bytes=1)
        # after the cold pass, everything hits: 3/4 of accesses hit at least
        assert c.hit_rate >= 0.74

    def test_access_range_spans_lines(self):
        c = CacheSim(capacity=8192, line=64, ways=8)
        hits, misses = c.access_range(0, 256)
        assert misses == 4 and hits == 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(HardwareError):
            CacheSim(capacity=1000, line=64, ways=8)  # not divisible

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, seed):
        c = CacheSim(capacity=4096, line=64, ways=4)
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 16, size=200)
        for a in addrs:
            c.access(int(a))
        assert c.hits + c.misses == 200


class TestAnalyticHitRate:
    def test_sequential_formula(self):
        assert analytic_hit_rate(8, 64, sequential=True) == pytest.approx(1 - 8 / 64)

    def test_sequential_large_elements_floor_zero(self):
        assert analytic_hit_rate(128, 64, sequential=True) == 0.0

    def test_random_capacity_ratio(self):
        assert analytic_hit_rate(
            8, 64, sequential=False, working_set=100, cache_bytes=50
        ) == pytest.approx(0.5)

    def test_random_without_working_set_is_zero(self):
        assert analytic_hit_rate(8, 64, sequential=False) == 0.0

    def test_matches_simulator_for_sequential(self):
        c = CacheSim(capacity=64 * 1024, line=64, ways=8)
        sim_rate = c.run_trace(np.arange(0, 32768, 16), elem_bytes=16)
        ana = analytic_hit_rate(16, 64, sequential=True)
        assert sim_rate == pytest.approx(ana, abs=0.02)


class TestDramHelpers:
    """The DRAM read-bandwidth formulas live on ``CpuDevice``."""

    def test_invalid_inputs(self):
        with pytest.raises(HardwareError):
            CpuDevice(XEON_E5).assembly_time(1, 1, 2.0, False)
        with pytest.raises(HardwareError):
            CpuDevice(replace(XEON_E5, cache_line=0)).random_read_bandwidth()
        with pytest.raises(HardwareError):
            CpuDevice(replace(XEON_E5, miss_latency=0.0)).random_read_bandwidth()
