"""Backend equivalence and persistent-cache tests.

The contract under test: a sweep or chaos run produces *identical* results
— point order, tie-broken winner, report fingerprint — whether it ran
serial, on a thread pool, or across a process pool; and the on-disk cache
tier lets a fresh process replay a sweep with zero engine runs.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps import get_app
from repro.apps.base import AppData, data_fingerprint, dataset_key
from repro.bench.jobs import (
    JobSpec,
    dataset_spec,
    engine_from_spec,
    engine_to_spec,
    run_jobspec,
)
from repro.bench.sweep import RunCache, sweep
from repro.engines import (
    BigKernelEngine,
    BigKernelFeatures,
    CpuMtEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
)
from repro.errors import ReproError
from repro.faults.chaos import default_fault_grid, run_chaos
from repro.units import MiB

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestDatasetKey:
    def test_stable_across_regeneration(self):
        app = get_app("kmeans")
        a = app.generate(n_bytes=1 * MiB, seed=5)
        b = app.generate(n_bytes=1 * MiB, seed=5)
        assert dataset_key(a) == dataset_key(b)
        # the identity fingerprint must still tell the instances apart
        assert data_fingerprint(a) != data_fingerprint(b)

    def test_differs_by_seed_and_size(self):
        app = get_app("kmeans")
        base = dataset_key(app.generate(n_bytes=1 * MiB, seed=5))
        assert base != dataset_key(app.generate(n_bytes=1 * MiB, seed=6))
        assert base != dataset_key(app.generate(n_bytes=2 * MiB, seed=5))

    def test_recipe_key_for_registry_apps(self):
        data = get_app("wordcount").generate(n_bytes=1 * MiB, seed=3)
        kind, app_name, seed, n_bytes, version = dataset_key(data)
        assert kind == "datagen"
        assert app_name == "wordcount"
        assert seed == 3 and n_bytes == 1 * MiB

    def test_configured_app_datasets_are_keyed_by_bytes(self):
        # a recipe names only the app: KMeansApp(4)'s and KMeansApp(256)'s
        # datasets at one seed and size differ, so neither may carry one
        from repro.analytic.predict import predict_run, predicted_sim_time
        from repro.apps import KMeansApp
        from repro.bench.sweep import content_run_key

        few, many = KMeansApp(n_clusters=4), KMeansApp(n_clusters=256)
        d_few = few.generate(n_bytes=256 * 1024, seed=5)
        d_many = many.generate(n_bytes=256 * 1024, seed=5)
        assert dataset_spec(few, d_few) is None
        assert dataset_key(d_few)[0] == "sha256"
        assert dataset_key(d_few) != dataset_key(d_many)
        engine, cfg = BigKernelEngine(), EngineConfig(chunk_bytes=64 * 1024)
        assert content_run_key(engine, few, d_few, cfg) != content_run_key(
            engine, many, d_many, cfg
        )
        predicted_sim_time(few, d_few, cfg)
        assert (
            predicted_sim_time(many, d_many, cfg)
            == predict_run(many, d_many, cfg).sim_time
        )
        # the default configuration is what get_app rebuilds: it keeps
        # its recipe
        default = KMeansApp().generate(n_bytes=256 * 1024, seed=5)
        assert dataset_key(default)[0] == "datagen"

    def test_content_hash_fallback_for_handmade_data(self):
        def handmade():
            return AppData(
                app="handmade",
                mapped={"x": np.arange(64, dtype=np.uint8)},
                schemas={},
                params={"k": 2},
            )

        a, b = handmade(), handmade()
        assert dataset_key(a) == dataset_key(b)
        assert dataset_key(a)[0] == "sha256"
        c = handmade()
        c.mapped["x"][0] += 1
        assert dataset_key(c) != dataset_key(a)


class TestJobSpecs:
    def test_engine_spec_roundtrip_variants(self):
        for features in (
            BigKernelFeatures.full(),
            BigKernelFeatures.overlap_only(),
            BigKernelFeatures.with_reduction(),
            BigKernelFeatures(reduce_volume=False, coalesce=True),
        ):
            engine = BigKernelEngine(features=features)
            spec = engine_to_spec(engine)
            rebuilt = engine_from_spec(spec)
            assert rebuilt.cache_key == engine.cache_key

    def test_stock_engine_roundtrip(self):
        spec = engine_to_spec(CpuMtEngine())
        assert engine_from_spec(spec).name == "cpu_mt"

    def test_custom_engine_not_speccable(self):
        class Weird(BigKernelEngine):
            name = "weird"

        assert engine_to_spec(Weird()) is None

    def test_run_jobspec_matches_direct_run(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=1 * MiB, seed=9)
        engine = BigKernelEngine()
        cfg = EngineConfig(chunk_bytes=512 * 1024)
        spec = JobSpec(dataset_spec(app, data), engine_to_spec(engine), cfg)
        assert run_jobspec(spec).sim_time == engine.run(app, data, cfg).sim_time

    def test_dataset_spec_requires_recipe(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=1 * MiB, seed=9)
        data.meta.pop("datagen")
        assert dataset_spec(app, data) is None

    def test_multigpu_engine_spec_roundtrips_full_config(self):
        """Every fabric knob that changes the timeline must survive the
        worker round-trip — a stale variant here would silently reprice
        cells under the process backend."""
        from repro.engines.multigpu import MultiGpuBigKernelEngine

        for n, features, shared, numa in (
            (2, BigKernelFeatures.full(), False, True),
            (4, BigKernelFeatures.overlap_only(), True, True),
            (8, BigKernelFeatures.with_reduction(), True, False),
            (3, BigKernelFeatures.full(), False, False),
        ):
            engine = MultiGpuBigKernelEngine(
                n_gpus=n,
                features=features,
                shared_link=shared,
                numa_aware=numa,
            )
            rebuilt = engine_from_spec(engine_to_spec(engine))
            assert type(rebuilt) is MultiGpuBigKernelEngine
            assert rebuilt.n_gpus == n
            assert rebuilt.features == features
            assert rebuilt.shared_link == shared
            assert rebuilt.numa_aware == numa
            assert rebuilt.name == engine.name
            assert rebuilt.cache_key == engine.cache_key

    def test_multigpu_malformed_variant_rejected(self):
        from repro.bench.jobs import EngineSpec
        from repro.engines.multigpu import MultiGpuBigKernelEngine

        with pytest.raises(ReproError):
            engine_from_spec(
                EngineSpec(name=MultiGpuBigKernelEngine.name, variant="full")
            )

    def test_run_jobspec_matches_direct_multigpu_run(self):
        """A multi-GPU cell replayed by a pool worker is bit-identical —
        sim_time, byte counters, and merged output — to the direct run."""
        from repro.engines.multigpu import MultiGpuBigKernelEngine

        app = get_app("wordcount")
        data = app.generate(n_bytes=1 * MiB, seed=9)
        engine = MultiGpuBigKernelEngine(3, shared_link=True, numa_aware=False)
        cfg = EngineConfig(chunk_bytes=256 * 1024)
        spec = JobSpec(dataset_spec(app, data), engine_to_spec(engine), cfg)
        replayed = run_jobspec(spec)
        direct = engine.run(app, data, cfg)
        assert replayed.sim_time == direct.sim_time
        assert replayed.metrics.bytes_h2d == direct.metrics.bytes_h2d
        assert replayed.metrics.bytes_d2h == direct.metrics.bytes_d2h
        assert app.outputs_equal(direct.output, replayed.output)


class TestSweepBackendEquivalence:
    GRID = {"chunk_bytes": [512 * 1024, 1 * MiB], "num_blocks": [8, 16]}

    @pytest.fixture(scope="class")
    def workload(self):
        app = get_app("kmeans")
        return app, app.generate(n_bytes=2 * MiB, seed=3)

    def _run(self, workload, **kwargs):
        app, data = workload
        res = sweep(
            BigKernelEngine(), app, data, EngineConfig(), self.GRID, **kwargs
        )
        return [(p.params, p.sim_time) for p in res.points], res.best.params

    def test_backends_agree(self, workload):
        serial = self._run(workload)
        thread = self._run(workload, jobs=2, backend="thread")
        proc = self._run(workload, jobs=2, backend="process")
        auto = self._run(workload, jobs=2, backend="auto")
        assert serial == thread == proc == auto

    def test_tie_break_plateau_is_backend_invariant(self):
        """Two chunk sizes that both mean 'one chunk' tie on sim_time; every
        backend must break the tie the same way (smallest chunk_bytes)."""
        app = get_app("wordcount")
        data = app.generate(n_bytes=1 * MiB, seed=3)
        grid = {"chunk_bytes": [2 * MiB, 4 * MiB]}
        results = [
            sweep(GpuDoubleBufferEngine(), app, data, EngineConfig(), grid,
                  **kw)
            for kw in ({}, {"jobs": 2, "backend": "thread"},
                       {"jobs": 2, "backend": "process"})
        ]
        times = {p.sim_time for p in results[0].points}
        assert len(times) == 1  # genuinely a plateau
        for res in results:
            assert res.best.params == {"chunk_bytes": 2 * MiB}
            assert [p.sim_time for p in res.points] == [
                p.sim_time for p in results[0].points
            ]

    def test_process_backend_rejects_unspeccable(self, workload):
        app, data = workload

        class Custom(BigKernelEngine):
            name = "custom"

        with pytest.raises(ReproError):
            sweep(Custom(), app, data, EngineConfig(), self.GRID,
                  jobs=2, backend="process")

    def test_unknown_backend_rejected(self, workload):
        app, data = workload
        with pytest.raises(ReproError):
            sweep(BigKernelEngine(), app, data, EngineConfig(), self.GRID,
                  backend="distributed")


class TestChaosBackendEquivalence:
    def test_fingerprint_is_backend_invariant(self):
        kwargs = dict(quick=True, plans=default_fault_grid(7)[:2])
        serial = run_chaos(**kwargs)
        thread = run_chaos(jobs=2, backend="thread", **kwargs)
        proc = run_chaos(jobs=2, backend="process", **kwargs)
        assert serial.fingerprint() == thread.fingerprint()
        assert serial.fingerprint() == proc.fingerprint()
        order = [(c.app, c.engine, c.plan) for c in serial.cells]
        assert order == [(c.app, c.engine, c.plan) for c in proc.cells]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            run_chaos(quick=True, backend="bogus")


_SWEEP_SCRIPT = """\
import json, sys
from repro.apps import get_app
from repro.bench.sweep import RUN_CACHE, sweep
from repro.engines import BigKernelEngine, EngineConfig

if sys.argv[1] == "replay":
    def poisoned(self, app, data, config):
        raise SystemExit("engine ran despite a warm disk cache")
    BigKernelEngine.run = poisoned

app = get_app("kmeans")
data = app.generate(n_bytes=1 << 20, seed=11)
res = sweep(
    BigKernelEngine(), app, data, EngineConfig(),
    {"chunk_bytes": [256 * 1024, 512 * 1024], "num_blocks": [8, 16]},
    cache=True,
)
print(json.dumps({
    "times": [p.sim_time for p in res.points],
    "best": sorted(res.best.params.items()),
    "disk_hits": RUN_CACHE.disk_hits,
}))
"""


class TestDiskCacheAcrossProcesses:
    def test_fresh_process_replays_with_zero_engine_runs(self, tmp_path):
        """Process 1 populates the disk tier; process 2 (fresh memory tier,
        regenerated dataset, engine poisoned to die on use) must resolve
        every point from disk and reproduce the winner exactly."""
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env.pop("REPRO_NO_DISK_CACHE", None)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")

        def run(mode):
            proc = subprocess.run(
                [sys.executable, "-c", _SWEEP_SCRIPT, mode],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        first = run("populate")
        assert first["disk_hits"] == 0
        second = run("replay")
        assert second["disk_hits"] == 4
        assert second["times"] == first["times"]
        assert second["best"] == first["best"]

    def test_memory_tier_promotion(self, tmp_path, monkeypatch):
        """A disk hit lands in the memory LRU: the second lookup under the
        same identity key never touches the disk again."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        from repro.bench.sweep import DiskCache

        cache = RunCache(disk=DiskCache())
        app = get_app("kmeans")
        data = app.generate(n_bytes=1 * MiB, seed=2)
        engine = BigKernelEngine()
        cfg = EngineConfig(chunk_bytes=512 * 1024)
        key = RunCache.key(engine, app, data, cfg)
        from repro.bench.sweep import content_run_key

        disk_key = content_run_key(engine, app, data, cfg)
        result = engine.run(app, data, cfg)
        cache.put(key, result, disk_key)

        fresh = RunCache(disk=cache.disk)
        assert fresh.get(key, disk_key) is not None
        assert fresh.disk_hits == 1
        disk_reads = cache.disk.hits
        assert fresh.get(key, disk_key) is not None
        assert cache.disk.hits == disk_reads  # served from memory


class TestAutoBackendHeuristic:
    """backend="auto" must not pick processes where they cannot win:
    1-2 core boxes and tiny grids (BENCH_pipeline.json once recorded the
    process backend at 0.35x on a 1-core runner)."""

    def _sweep_resolve(self, monkeypatch, cores, **kwargs):
        from repro.bench.sweep import _resolve_backend

        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        app = get_app("kmeans")
        data = app.generate(n_bytes=1 * MiB, seed=3)
        defaults = dict(
            backend="auto",
            engine=BigKernelEngine(),
            app=app,
            data=data,
            config=EngineConfig(fastpath=False),  # DES-bound
            jobs=4,
            n_points=8,
        )
        defaults.update(kwargs)
        return _resolve_backend(**defaults)

    def test_sweep_auto_prefers_process_when_parallel_pays(self, monkeypatch):
        assert self._sweep_resolve(monkeypatch, cores=8) == "process"

    @pytest.mark.parametrize("cores", [1, 2])
    def test_sweep_auto_prefers_thread_on_small_boxes(self, monkeypatch, cores):
        assert self._sweep_resolve(monkeypatch, cores=cores) == "thread"

    def test_sweep_auto_prefers_thread_on_tiny_grids(self, monkeypatch):
        assert self._sweep_resolve(monkeypatch, cores=8, n_points=2) == "thread"

    def test_sweep_explicit_process_honored_on_small_boxes(self, monkeypatch):
        assert (
            self._sweep_resolve(monkeypatch, cores=1, backend="process")
            == "process"
        )

    def _chaos_resolve(self, monkeypatch, cores, backend="auto", n_apps=2):
        from repro.faults.chaos import _resolve_backend

        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        apps = [get_app("kmeans"), get_app("wordcount")][:n_apps]
        engines = [BigKernelEngine(), GpuDoubleBufferEngine()]
        return _resolve_backend(backend, jobs=4, apps=apps, engines=engines)

    def test_chaos_auto_prefers_process_when_parallel_pays(self, monkeypatch):
        assert self._chaos_resolve(monkeypatch, cores=8) == "process"

    @pytest.mark.parametrize("cores", [1, 2])
    def test_chaos_auto_prefers_thread_on_small_boxes(self, monkeypatch, cores):
        assert self._chaos_resolve(monkeypatch, cores=cores) == "thread"

    def test_chaos_auto_prefers_thread_on_tiny_grids(self, monkeypatch):
        assert self._chaos_resolve(monkeypatch, cores=8, n_apps=1) == "thread"

    def test_chaos_explicit_process_honored_on_small_boxes(self, monkeypatch):
        assert (
            self._chaos_resolve(monkeypatch, cores=2, backend="process")
            == "process"
        )
