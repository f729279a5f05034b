"""Edge cases and global invariants: tiny datasets, single chunks,
simulator determinism, minimal configurations."""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.bench import BenchSettings, run_matrix
from repro.engines import (
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuSingleBufferEngine,
)
from repro.errors import ApplicationError
from repro.units import MiB

TINY_CFG = EngineConfig(chunk_bytes=64 * 1024)


@pytest.mark.parametrize("name", [cls.name for cls in ALL_APPS])
class TestTinyDatasets:
    def test_minimal_dataset_runs_everywhere(self, name):
        """A dataset of a few records still flows through every scheme."""
        app = get_app(name)
        data = app.generate(n_bytes=4096, seed=1)
        engines = [
            CpuSerialEngine(),
            GpuSingleBufferEngine(),
            GpuDoubleBufferEngine(),
            BigKernelEngine(),
        ]
        results = [e.run(app, data, TINY_CFG) for e in engines]
        for r in results[1:]:
            assert app.outputs_equal(results[0].output, r.output), r.engine
        assert all(r.sim_time > 0 for r in results)

    def test_negative_size_rejected(self, name):
        with pytest.raises(ApplicationError, match="must be >= 0"):
            get_app(name).generate(n_bytes=-2 * MiB, seed=1)

    def test_single_chunk_dataset(self, name):
        """Dataset smaller than one chunk: exactly one pipeline chunk per
        pass."""
        app = get_app(name)
        data = app.generate(n_bytes=8192, seed=2)
        res = BigKernelEngine().run(app, data, EngineConfig(chunk_bytes=1 * MiB))
        assert res.metrics.n_chunks == app.n_passes


class TestDeterminism:
    def test_same_seed_same_everything(self):
        """The whole matrix is bit-deterministic: same seeds -> identical
        simulated times and byte counts."""
        settings = BenchSettings(
            data_bytes=1 * MiB, seed=3, config=EngineConfig(chunk_bytes=256 * 1024)
        )
        apps = [get_app("kmeans"), get_app("wordcount")]
        m1 = run_matrix(settings, apps=apps)
        m2 = run_matrix(settings, apps=[get_app("kmeans"), get_app("wordcount")])
        for key, r1 in m1.results.items():
            r2 = m2.results[key]
            assert r1.sim_time == r2.sim_time, key
            assert r1.metrics.bytes_h2d == r2.metrics.bytes_h2d, key
            assert r1.metrics.n_chunks == r2.metrics.n_chunks, key

    def test_bigkernel_trace_deterministic(self):
        app = get_app("netflix")
        data = app.generate(n_bytes=1 * MiB, seed=5)
        # force the DES: the analytic fast path intentionally records
        # no trace (repro.runtime.fastpath)
        cfg = EngineConfig(chunk_bytes=256 * 1024, fastpath=False)
        t1 = BigKernelEngine().run(app, data, cfg).trace
        t2 = BigKernelEngine().run(app, data, cfg).trace
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            assert (a.track, a.label, a.start, a.end) == (
                b.track,
                b.label,
                b.start,
                b.end,
            )


class TestScaleLinearity:
    def test_sim_time_roughly_linear_in_data(self):
        """Doubling the data roughly doubles every scheme's simulated time
        (the justification for scaling the paper's GB-scale datasets down)."""
        app = get_app("kmeans")
        cfg = EngineConfig(chunk_bytes=256 * 1024)
        small = app.generate(n_bytes=2 * MiB, seed=1)
        large = app.generate(n_bytes=4 * MiB, seed=1)
        for engine in (CpuSerialEngine(), GpuSingleBufferEngine(), BigKernelEngine()):
            t_small = engine.run(app, small, cfg).sim_time
            t_large = engine.run(app, large, cfg).sim_time
            assert t_large / t_small == pytest.approx(2.0, rel=0.25), engine.name

    def test_speedups_stable_across_scale(self):
        """The headline ratio barely moves with dataset size — the property
        that makes the 200x-scaled reproduction meaningful."""
        app = get_app("netflix")
        cfg = EngineConfig(chunk_bytes=256 * 1024)
        ratios = []
        for mib in (2, 8):
            data = app.generate(n_bytes=mib * MiB, seed=1)
            bk = BigKernelEngine().run(app, data, cfg).sim_time
            db = GpuDoubleBufferEngine().run(app, data, cfg).sim_time
            ratios.append(db / bk)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.25)


class TestConfigBoundaries:
    def test_one_block_config(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=512 * 1024, seed=0)
        cfg = EngineConfig(chunk_bytes=64 * 1024, num_blocks=1, compute_threads=32)
        res = BigKernelEngine().run(app, data, cfg)
        assert res.metrics.notes["active_blocks"] == 1

    def test_huge_block_request_clamped(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=512 * 1024, seed=0)
        cfg = EngineConfig(chunk_bytes=64 * 1024, num_blocks=4096)
        res = BigKernelEngine().run(app, data, cfg)
        # 512 threads/block, 2048/SM, 8 SMs -> 32 active
        assert res.metrics.notes["active_blocks"] == 32
