"""Tests for units/formatting helpers, error hierarchy, gpu_common, and
chrome-trace export."""

import json

import pytest

from repro import errors
from repro.apps import get_app
from repro.engines.gpu_common import (
    SLAB_STRIDE,
    addr_gen_chunk_cost,
    chunk_plan,
    kernel_chunk_cost,
    original_access_pattern,
)
from repro.sim.trace import TraceRecorder
from repro.units import (
    GB,
    GiB,
    KiB,
    MiB,
    fmt_bandwidth,
    fmt_bytes,
    fmt_speedup,
    fmt_time,
)


class TestUnits:
    def test_binary_sizes(self):
        assert KiB == 1024 and MiB == 1024**2 and GiB == 1024**3

    @pytest.mark.parametrize(
        "n,expected",
        [
            (512, "512 B"),
            (1536, "1.50 KiB"),
            (3 * MiB, "3.00 MiB"),
            (2 * GiB, "2.00 GiB"),
        ],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected

    @pytest.mark.parametrize(
        "t,expected",
        [
            (2.5, "2.500 s"),
            (0.0031, "3.100 ms"),
            (4.2e-6, "4.200 us"),
            (7e-9, "7.0 ns"),
        ],
    )
    def test_fmt_time(self, t, expected):
        assert fmt_time(t) == expected

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(15.75 * GB) == "15.75 GB/s"

    def test_fmt_speedup(self):
        assert fmt_speedup(2.6) == "2.60x"


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj not in (errors.ReproError,):
                    assert issubclass(obj, errors.ReproError), name

    def test_slicing_is_compiler_error(self):
        assert issubclass(errors.SlicingError, errors.CompilerError)


class TestGpuCommon:
    def test_chunk_plan_rounding(self):
        upc, n = chunk_plan(total_units=100, chunk_bytes=1024, bytes_per_unit=48)
        assert upc == 21
        assert n == 5  # ceil(100/21)

    def test_chunk_plan_tiny_units(self):
        upc, n = chunk_plan(10, 1024, 0.5)
        assert upc == 2048 and n == 1

    def test_byte_walk_apps_get_slab_stride(self):
        app = get_app("wordcount")
        data = app.generate(200_000, seed=0)
        p = original_access_pattern(app.access_profile(data))
        assert p.record_bytes == SLAB_STRIDE

    def test_fixed_record_apps_get_record_stride(self):
        app = get_app("kmeans")
        data = app.generate(200_000, seed=0)
        p = original_access_pattern(app.access_profile(data))
        assert p.record_bytes == 48

    def test_kernel_cost_scales_with_divergence(self):
        app = get_app("wordcount")
        data = app.generate(200_000, seed=0)
        profile = app.access_profile(data)
        c = kernel_chunk_cost(profile, 1000, coalesced=True)
        assert c.n_ops == pytest.approx(
            1000 * profile.gpu_ops_per_record * profile.gpu_divergence
        )

    def test_coalesced_cost_has_higher_efficiency(self):
        app = get_app("kmeans")
        data = app.generate(200_000, seed=0)
        profile = app.access_profile(data)
        orig = kernel_chunk_cost(profile, 1000, coalesced=False)
        coal = kernel_chunk_cost(profile, 1000, coalesced=True)
        assert coal.efficiency > orig.efficiency

    def test_addr_gen_cost_uses_emitted_addresses(self):
        app = get_app("netflix")
        data = app.generate(200_000, seed=0)
        profile = app.access_profile(data)
        c = addr_gen_chunk_cost(profile, 1000)
        assert c.n_ops == pytest.approx(1000 * (2.0 + 3.0 * 1.0))
        assert c.global_bytes == 0.0


class TestChromeTrace:
    def test_events_structure(self):
        tr = TraceRecorder()
        tr.record("gpu", "compute", 0.0, 1e-3, chunk=0)
        tr.record("pcie-h2d", "data_transfer", 0.5e-3, 2e-3, nbytes=100)
        events = tr.to_chrome_trace()
        meta = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 2 and len(xs) == 2
        comp = next(e for e in xs if e["name"] == "compute")
        assert comp["ts"] == pytest.approx(0.0)
        assert comp["dur"] == pytest.approx(1000.0)  # microseconds
        assert comp["args"]["chunk"] == 0

    def test_dump_round_trip(self, tmp_path):
        tr = TraceRecorder()
        tr.record("gpu", "x", 0.0, 1.0)
        path = tmp_path / "t.json"
        tr.dump_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == 2

    def test_tracks_share_tid(self):
        tr = TraceRecorder()
        tr.record("gpu", "a", 0, 1)
        tr.record("gpu", "b", 1, 2)
        tr.record("cpu", "c", 0, 1)
        xs = [e for e in tr.to_chrome_trace() if e["ph"] == "X"]
        tids = {e["name"]: e["tid"] for e in xs}
        assert tids["a"] == tids["b"] != tids["c"]
