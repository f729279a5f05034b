"""Integration tests across engines: output equality, performance ordering,
feature ablation monotonicity, metrics consistency."""

import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

from repro.apps import ALL_APPS, get_app
from repro.engines import (
    BigKernelEngine,
    BigKernelFeatures,
    CpuMtEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuSingleBufferEngine,
)
from repro.errors import RuntimeConfigError
from repro.hw.spec import DEFAULT_HARDWARE
from repro.memo import MEMO_STATS, Memo
from repro.units import KiB, MiB

DATA_BYTES = 4_000_000
CFG = EngineConfig(chunk_bytes=512 * 1024)


@pytest.fixture(scope="module")
def runs():
    """All engines over all apps once, shared by this module."""
    engines = [
        CpuSerialEngine(),
        CpuMtEngine(),
        GpuSingleBufferEngine(),
        GpuDoubleBufferEngine(),
        BigKernelEngine(),
    ]
    out = {}
    for cls in ALL_APPS:
        app = cls()
        data = app.generate(n_bytes=DATA_BYTES, seed=31)
        out[app.name] = (app, {e.name: e.run(app, data, CFG) for e in engines})
    return out


APPS = [cls.name for cls in ALL_APPS]


@pytest.mark.parametrize("name", APPS)
class TestOutputsAgree:
    def test_all_engines_same_output(self, name, runs):
        app, results = runs[name]
        ref = results["cpu_serial"]
        for engine, res in results.items():
            assert app.outputs_equal(ref.output, res.output), engine


@pytest.mark.parametrize("name", APPS)
class TestPerformanceOrdering:
    def test_mt_beats_serial(self, name, runs):
        _, r = runs[name]
        assert r["cpu_mt"].sim_time < r["cpu_serial"].sim_time

    def test_double_beats_single(self, name, runs):
        """Overlap never loses to serialization (same work)."""
        _, r = runs[name]
        assert r["gpu_double"].sim_time < r["gpu_single"].sim_time * 1.001

    def test_bigkernel_beats_double(self, name, runs):
        """The paper's headline: BigKernel outperforms double-buffering
        across all applications."""
        _, r = runs[name]
        assert r["bigkernel"].sim_time < r["gpu_double"].sim_time

    def test_bigkernel_beats_mt_cpu(self, name, runs):
        _, r = runs[name]
        assert r["bigkernel"].sim_time < r["cpu_mt"].sim_time


@pytest.mark.parametrize("name", APPS)
class TestMetrics:
    def test_single_buffer_launches_once_per_chunk(self, name, runs):
        _, r = runs[name]
        m = r["gpu_single"].metrics
        assert m.bytes_h2d > 0
        assert m.kernel_launches == m.n_chunks

    def test_bigkernel_single_launch(self, name, runs):
        _, r = runs[name]
        assert r["bigkernel"].metrics.kernel_launches == 1

    def test_bigkernel_stage_totals_present(self, name, runs):
        _, r = runs[name]
        st = r["bigkernel"].metrics.stage_totals
        assert "compute" in st and "data_transfer" in st
        assert all(v >= 0 for v in st.values())

    def test_comp_comm_ratio_in_range(self, name, runs):
        _, r = runs[name]
        assert 0.0 <= r["gpu_single"].metrics.comp_comm_ratio <= 1.0


class TestVolumeReduction:
    def test_kmeans_bigkernel_transfers_less(self, runs):
        """Only the read bytes (50%) cross the link with BigKernel."""
        _, r = runs["kmeans"]
        assert r["bigkernel"].metrics.bytes_h2d < 0.7 * r["gpu_single"].metrics.bytes_h2d

    def test_indexed_mastercard_transfers_less(self, runs):
        _, r = runs["mastercard_indexed"]
        assert (
            r["bigkernel"].metrics.bytes_h2d
            < 0.4 * r["gpu_single"].metrics.bytes_h2d
        )

    def test_wordcount_cannot_reduce(self, runs):
        """100%-read apps move everything either way (paper Section VI-B)."""
        _, r = runs["wordcount"]
        assert (
            r["bigkernel"].metrics.bytes_h2d
            > 0.95 * r["gpu_single"].metrics.bytes_h2d
        )


class TestPatternDetection:
    def test_strided_apps_find_patterns(self, runs):
        for name in ("kmeans", "wordcount", "netflix", "dna", "mastercard"):
            _, r = runs[name]
            assert r["bigkernel"].metrics.pattern_fraction >= 0.5, name

    def test_indexed_mastercard_has_no_pattern(self, runs):
        """Table II's NA row: index-driven addresses are irregular."""
        _, r = runs["mastercard_indexed"]
        assert r["bigkernel"].metrics.pattern_fraction < 0.5

    def test_disabling_recognition_never_helps(self, runs):
        app = get_app("wordcount")
        data = app.generate(n_bytes=DATA_BYTES, seed=31)
        on = BigKernelEngine().run(app, data, CFG)
        off = BigKernelEngine().run(
            app, data, CFG.with_(pattern_recognition=False)
        )
        assert off.sim_time >= on.sim_time


class TestFeatureAblation:
    @pytest.mark.parametrize("name", ["kmeans", "netflix", "dna"])
    def test_cumulative_features_monotone(self, name, runs):
        """overlap-only >= +reduction >= full time (Fig. 5's cumulative bars)."""
        app = get_app(name)
        data = app.generate(n_bytes=DATA_BYTES, seed=31)
        t_overlap = (
            BigKernelEngine(BigKernelFeatures.overlap_only())
            .run(app, data, CFG)
            .sim_time
        )
        t_reduce = (
            BigKernelEngine(BigKernelFeatures.with_reduction())
            .run(app, data, CFG)
            .sim_time
        )
        t_full = BigKernelEngine(BigKernelFeatures.full()).run(app, data, CFG).sim_time
        assert t_reduce <= t_overlap * 1.001
        assert t_full <= t_reduce * 1.001

    def test_overlap_only_close_to_double_buffering(self, runs):
        """Variant 1 is pipelined full-data transfer — same volume class as
        double-buffering (the paper's Komoda et al. observation)."""
        app = get_app("kmeans")
        data = app.generate(n_bytes=DATA_BYTES, seed=31)
        t_overlap = (
            BigKernelEngine(BigKernelFeatures.overlap_only())
            .run(app, data, CFG)
            .sim_time
        )
        t_double = GpuDoubleBufferEngine().run(app, data, CFG).sim_time
        assert t_overlap < t_double * 2.0
        assert t_overlap > t_double * 0.3

    def test_feature_labels(self):
        assert BigKernelFeatures.overlap_only().label == "overlap-only"
        assert BigKernelFeatures.with_reduction().label == "volume-reduction"
        assert BigKernelFeatures.full().label == "full"


class TestEngineConfig:
    def test_bad_chunk_bytes(self):
        with pytest.raises(RuntimeConfigError):
            EngineConfig(chunk_bytes=10)

    def test_bad_threads(self):
        with pytest.raises(RuntimeConfigError):
            EngineConfig(compute_threads=100)

    def test_bad_ring_depth(self):
        with pytest.raises(RuntimeConfigError):
            EngineConfig(ring_depth=1)

    def test_with_override(self):
        base = EngineConfig(num_blocks=8)
        hash(base)  # the base keeps its hash on the instance
        cfg = base.with_(num_blocks=4, ring_depth=2)
        assert cfg.num_blocks == 4
        assert cfg == replace(base, num_blocks=4, ring_depth=2)
        assert hash(cfg) == hash(EngineConfig(num_blocks=4, ring_depth=2))
        with pytest.raises(RuntimeConfigError):
            base.with_(ring_depth=1)
        for unknown in ({"nope": 1}, {"_hash": 0}):
            with pytest.raises(TypeError):
                base.with_(**unknown)

    def test_speedup_helper(self, runs):
        _, r = runs["kmeans"]
        s = r["bigkernel"].speedup_over(r["cpu_serial"])
        assert s > 1.0


#: looks a pickled (config, hardware) pair up in dicts built in this
#: process, whose string-hash seed the test sets
_LOOKUP = """
import pickle, sys
from repro.engines import EngineConfig
from repro.hw.spec import DEFAULT_HARDWARE
config, hardware = pickle.loads(sys.stdin.buffer.read())
configs = {EngineConfig(num_blocks=8): "config"}
machines = {DEFAULT_HARDWARE: "hardware"}
print(configs.get(config), machines.get(hardware), hash("gpu_uvm"))
"""


class TestHashOnce:
    """``EngineConfig`` and ``HardwareSpec`` keep their hash on the
    instance, and never hand it to another process."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EngineConfig(num_blocks=8, ring_depth=4),
            lambda: DEFAULT_HARDWARE.scaled(num_sms=16),
        ],
        ids=["config", "hardware"],
    )
    def test_equal_specs_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a)
        assert hash(replace(a)) == hash(a)
        assert {a: 1}[b] == 1

    def test_pickle_bytes_ignore_the_kept_hash(self):
        hashed, fresh = EngineConfig(num_blocks=8), EngineConfig(num_blocks=8)
        hash(hashed)
        hash(hashed.hardware)
        assert pickle.dumps(hashed) == pickle.dumps(fresh)
        assert pickle.dumps(DEFAULT_HARDWARE) == pickle.dumps(
            replace(DEFAULT_HARDWARE)
        )
        assert repr(hashed) == repr(fresh)

    def test_unpickled_spec_hashes_with_its_process_seed(self):
        config = EngineConfig(num_blocks=8)
        hardware = replace(DEFAULT_HARDWARE)
        hash(config)
        hash(hardware)
        seed = "54321" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        out = subprocess.run(
            [sys.executable, "-c", _LOOKUP],
            input=pickle.dumps((config, hardware)),
            env=env,
            capture_output=True,
            check=True,
        ).stdout.decode().split()
        assert out[:2] == ["config", "hardware"]
        # the child really hashed strings with another seed
        assert int(out[2]) != hash("gpu_uvm")


class TestBigKernelInternals:
    def test_fallback_notes_for_unsliceable_profile(self):
        """An app whose kernel cannot be sliced transfers everything."""
        app = get_app("wordcount")
        data = app.generate(n_bytes=500_000, seed=1)
        res = BigKernelEngine().run(app, data, CFG)
        assert res.metrics.notes["sliceable"] is True  # WC is sliceable

    def test_active_blocks_recorded(self, runs):
        _, r = runs["kmeans"]
        assert r["bigkernel"].metrics.notes["active_blocks"] >= 1

    def test_writeback_stages_only_for_kmeans(self, runs):
        _, r = runs["kmeans"]
        assert "write_transfer" in r["bigkernel"].metrics.stage_totals
        _, r2 = runs["netflix"]
        assert "write_transfer" not in r2["bigkernel"].metrics.stage_totals

    def test_pattern_sample_keyed_on_the_first_chunk(self, monkeypatch):
        """Chunk sizes that each cover the whole dataset sample it once,
        for the result a fresh sample gives."""
        monkeypatch.setattr(
            BigKernelEngine, "_pattern_cache", Memo("bigkernel.pattern", 256)
        )
        app = get_app("kmeans")
        data = app.generate(n_bytes=256 * KiB, seed=3)
        reads = []
        plain = app.chunk_read_offsets

        def counting(d, lo, hi):
            reads.append((lo, hi))
            return plain(d, lo, hi)

        monkeypatch.setattr(app, "chunk_read_offsets", counting)
        engine = BigKernelEngine()
        before = dict(MEMO_STATS["bigkernel.pattern"])
        a = engine.run(app, data, EngineConfig(chunk_bytes=1 * MiB))
        sampled = len(reads)
        b = engine.run(app, data, EngineConfig(chunk_bytes=2 * MiB))
        assert sampled > 0 and len(reads) == sampled
        counts = MEMO_STATS["bigkernel.pattern"]
        assert counts["misses"] == before["misses"] + 1
        assert counts["hits"] == before["hits"] + 1
        assert a.metrics.notes["units_per_chunk"] >= app.n_units(data)
        assert b.metrics.notes["units_per_chunk"] >= app.n_units(data)

        monkeypatch.setattr(
            BigKernelEngine, "_pattern_cache", Memo("bigkernel.pattern", 256)
        )
        fresh = engine._sample_pattern_fraction(
            app, data, EngineConfig(), b.metrics.notes["units_per_chunk"]
        )
        assert a.metrics.pattern_fraction == b.metrics.pattern_fraction == fresh
        assert len(reads) == 2 * sampled
