"""Tests for the unified-memory baseline extension."""

import pytest

from repro.apps import ALL_APPS, get_app
from repro.engines import (
    BigKernelEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuSingleBufferEngine,
    GpuUvmEngine,
    UvmSpec,
)
from repro.errors import RuntimeConfigError
from repro.units import KiB, MiB

CFG = EngineConfig(chunk_bytes=1 * MiB)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for cls in ALL_APPS:
        app = cls()
        data = app.generate(n_bytes=4 * MiB, seed=4)
        out[app.name] = (
            app,
            {
                e.name: e.run(app, data, CFG)
                for e in (
                    GpuSingleBufferEngine(),
                    GpuDoubleBufferEngine(),
                    GpuUvmEngine(),
                    BigKernelEngine(),
                )
            },
        )
    return out


APPS = [cls.name for cls in ALL_APPS]


@pytest.mark.parametrize("name", APPS)
class TestUvmShape:
    def test_output_matches(self, name, runs):
        app, r = runs[name]
        assert app.outputs_equal(r["gpu_single"].output, r["gpu_uvm"].output)

    def test_beats_single_buffering(self, name, runs):
        """Programmability for free *and* faster than naive chunking."""
        _, r = runs[name]
        assert r["gpu_uvm"].sim_time < r["gpu_single"].sim_time

    def test_loses_to_bigkernel(self, name, runs):
        """The streaming case is where explicit prefetch pipelining still
        wins over fault-driven migration."""
        _, r = runs[name]
        assert r["gpu_uvm"].sim_time > r["bigkernel"].sim_time

    def test_single_launch_like_bigkernel(self, name, runs):
        _, r = runs[name]
        assert r["gpu_uvm"].metrics.kernel_launches == 1


class TestUvmModel:
    def test_no_volume_reduction_at_page_granularity(self, runs):
        """Sparse readers still migrate everything (whole pages)."""
        _, r = runs["netflix"]
        assert (
            r["gpu_uvm"].metrics.bytes_h2d
            >= 0.99 * r["gpu_single"].metrics.bytes_h2d
        )
        assert r["bigkernel"].metrics.bytes_h2d < 0.5 * r["gpu_uvm"].metrics.bytes_h2d

    def test_two_pass_app_migrates_twice(self, runs):
        app, r = runs["mastercard"]
        data_bytes = app.generate(n_bytes=4 * MiB, seed=4).total_mapped_bytes
        assert r["gpu_uvm"].metrics.bytes_h2d == pytest.approx(
            2 * data_bytes, rel=0.01
        )

    def test_writer_app_migrates_dirty_pages_back(self, runs):
        _, r = runs["kmeans"]
        assert r["gpu_uvm"].metrics.bytes_d2h > 0

    def test_smaller_pages_mean_more_faults(self):
        app = get_app("netflix")
        data = app.generate(n_bytes=2 * MiB, seed=1)
        small = GpuUvmEngine(UvmSpec(page_bytes=4 * KiB)).run(app, data, CFG)
        large = GpuUvmEngine(UvmSpec(page_bytes=2 * MiB)).run(app, data, CFG)
        assert small.metrics.notes["pages"] > large.metrics.notes["pages"]
        assert small.sim_time > large.sim_time

    def test_better_prefetcher_helps(self):
        app = get_app("dna")
        data = app.generate(n_bytes=2 * MiB, seed=1)
        weak = GpuUvmEngine(UvmSpec(prefetch_hit=0.2)).run(app, data, CFG)
        strong = GpuUvmEngine(UvmSpec(prefetch_hit=0.95)).run(app, data, CFG)
        assert strong.sim_time < weak.sim_time

    def test_spec_validation(self):
        with pytest.raises(RuntimeConfigError):
            UvmSpec(page_bytes=1024)
        with pytest.raises(RuntimeConfigError):
            UvmSpec(prefetch_hit=1.5)
        with pytest.raises(RuntimeConfigError):
            UvmSpec(overlap=-0.1)
