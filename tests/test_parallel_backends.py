"""Runner equivalence and persistent-cache tests.

The contract under test: a sweep, a chaos run or a ``repro bench`` ladder
produces *identical* results — point order, tie-broken winner, report
fingerprint, figure entry — whether it ran serially, on a thread pool or
across a process pool, each pool reached through the runner's one rule
(:func:`repro.bench.jobs.resolve_backend`); and the on-disk cache tier
lets a fresh process replay a sweep with zero engine runs.
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps import KMeansApp, WordCountApp, get_app
from repro.apps.base import AppData, data_fingerprint, dataset_key
from repro.bench.jobs import (
    EngineSpec,
    JobSpec,
    dataset_spec,
    engine_from_spec,
    engine_to_spec,
    resolve_backend,
    run_jobspec,
)
from repro.bench.multigpu import run_multigpu_scaling
from repro.bench.sweep import RunCache, sweep
from repro.bench.uvm import run_uvm_comparison
from repro.engines import (
    ENGINES,
    UVM_ENGINES,
    BigKernelEngine,
    BigKernelFeatures,
    CpuMtEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuUvmEngine,
    MultiGpuBigKernelEngine,
    UvmSpec,
)
from repro.errors import ReproError
from repro.faults.chaos import default_fault_grid, run_chaos
from repro.units import KiB, MiB

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class UnregisteredBigKernel(BigKernelEngine):
    """BigKernel under a name the registry does not map: no spec."""

    name = "unregistered"


@pytest.fixture
def host(monkeypatch):
    """``host(cores)`` makes the rule see ``cores`` cores and returns the
    list of pools ``run_ordered`` then builds (``"process"`` or
    ``"thread"``), each still a real pool."""
    import concurrent.futures

    built = []

    def recording(kind, cls):
        def build(*args, **kwargs):
            built.append(kind)
            return cls(*args, **kwargs)

        return build

    for kind in ("process", "thread"):
        name = f"{kind.capitalize()}PoolExecutor"
        cls = getattr(concurrent.futures, name)
        monkeypatch.setattr(concurrent.futures, name, recording(kind, cls))

    def with_cores(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        return built

    return with_cores


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


FEATURE_SETS = (
    BigKernelFeatures.full(),
    BigKernelFeatures.overlap_only(),
    BigKernelFeatures.with_reduction(),
    BigKernelFeatures(reduce_volume=False, coalesce=True),
)

#: every registered class with its default keywords, the four BigKernel
#: feature sets, four multi-GPU fabrics and a custom paging model per UVM
#: class
REGISTRY_ENGINES = (
    [pytest.param(cls(), id=name) for name, cls in ENGINES.items()]
    + [
        pytest.param(BigKernelEngine(features=f), id=f"bigkernel-{f.label}")
        for f in FEATURE_SETS
    ]
    + [
        pytest.param(
            MultiGpuBigKernelEngine(n, f, shared, numa),
            id=f"multigpu{n}-{f.label}-shared{shared}-numa{numa}",
        )
        for n, f, shared, numa in (
            (2, FEATURE_SETS[0], False, True),
            (4, FEATURE_SETS[1], True, True),
            (8, FEATURE_SETS[2], True, False),
            (3, FEATURE_SETS[0], False, False),
        )
    ]
    + [
        pytest.param(cls(UvmSpec(page_bytes=16 * KiB)), id=f"{cls.name}-page16k")
        for cls in UVM_ENGINES
    ]
)


class TestEngineRegistry:
    """An engine's spec is its registry name plus every constructor
    keyword, so rebuilding it from the spec gives the same engine."""

    @pytest.fixture(scope="class")
    def workload(self):
        app = get_app("wordcount")
        return app, app.generate(n_bytes=256 * KiB, seed=9)

    @pytest.mark.parametrize("engine", REGISTRY_ENGINES)
    def test_spec_roundtrip(self, engine, workload):
        spec = engine_to_spec(engine)
        assert spec == engine.identity
        shipped = pickle.loads(pickle.dumps(spec))
        rebuilt = engine_from_spec(shipped)
        assert type(rebuilt) is type(engine)
        assert rebuilt.identity == spec
        assert rebuilt.name == engine.name
        app, data = workload
        cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
        assert (
            rebuilt.run(app, data, cfg).sim_time
            == engine.run(app, data, cfg).sim_time
        )

    def test_unknown_name_or_keyword_rejected(self):
        with pytest.raises(ReproError):
            engine_from_spec(EngineSpec("no_such_engine"))
        with pytest.raises(ReproError):
            engine_from_spec(EngineSpec("bigkernel", (("variant", "full"),)))

    @pytest.mark.parametrize("cls", ENGINES.values(), ids=ENGINES.keys())
    def test_unregistered_subclass_has_no_spec(self, cls):
        subclass = type(f"Custom{cls.__name__}", (cls,), {})
        assert engine_to_spec(subclass()) is None

    def test_custom_uvm_spec_ships_to_process_workers(self, host):
        app = get_app("wordcount")
        data = app.generate(n_bytes=512 * KiB, seed=3)
        engine = GpuUvmEngine(UvmSpec(page_bytes=16 * KiB))
        grid = {"num_blocks": [8, 16, 32, 64]}
        config = EngineConfig(fastpath=False)  # DES-bound points

        def points(**kwargs):
            res = sweep(engine, app, data, config, grid, **kwargs)
            return [(p.params, p.sim_time) for p in res.points]

        serial = points()
        built = host(8)
        assert points(jobs=2) == serial
        assert built == ["process"]


#: four points, two of each chunk size and launch width
GRID_4 = {"chunk_bytes": [512 * 1024, 1 * MiB], "num_blocks": [8, 16]}
#: two points, too few for a process pool
GRID_2 = {"chunk_bytes": [512 * 1024, 1 * MiB], "num_blocks": [8]}


class TestSweepPools:
    """A sweep's points and winner are the serial sweep's on whichever
    pool the rule picks, and ``jobs=1`` builds no pool at all."""

    @pytest.fixture(scope="class")
    def datasets(self):
        return {
            name: get_app(name).generate(n_bytes=2 * MiB, seed=3)
            for name in ("kmeans", "wordcount")
        }

    # K-means writes mapped buffers, so its points are DES-bound; Word
    # Count's default points take the closed-form fast path
    @pytest.mark.parametrize("app_name, engine_cls, cores, grid, pool", [
        pytest.param("kmeans", BigKernelEngine, 8, GRID_4, "process",
                     id="des-bound-4-points-8-cores"),
        pytest.param("kmeans", BigKernelEngine, 2, GRID_4, "thread",
                     id="2-cores"),
        pytest.param("kmeans", BigKernelEngine, 8, GRID_2, "thread",
                     id="2-points"),
        pytest.param("wordcount", BigKernelEngine, 8, GRID_4, "thread",
                     id="fast-path"),
        pytest.param("kmeans", UnregisteredBigKernel, 8, GRID_4, "thread",
                     id="no-spec"),
    ])
    def test_pool_matches_serial(
        self, datasets, host, app_name, engine_cls, cores, grid, pool
    ):
        app, data = get_app(app_name), datasets[app_name]
        built = host(cores)

        def run(jobs):
            res = sweep(engine_cls(), app, data, EngineConfig(), grid,
                        jobs=jobs)
            return [(p.params, p.sim_time) for p in res.points], res.best

        serial = run(1)
        assert built == []
        assert run(2) == serial
        assert built == [pool]

    @pytest.mark.parametrize("cores, pool", [(8, "process"), (2, "thread")])
    def test_tie_break_plateau_on_either_pool(self, host, cores, pool):
        """Chunk sizes that all mean 'one chunk' tie on sim_time; every
        pool must break the tie the same way (smallest chunk_bytes)."""
        app = get_app("wordcount")
        data = app.generate(n_bytes=1 * MiB, seed=3)
        grid = {"chunk_bytes": [2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB]}
        config = EngineConfig(fastpath=False)  # DES-bound points
        serial = sweep(GpuDoubleBufferEngine(), app, data, config, grid)
        assert len({p.sim_time for p in serial.points}) == 1  # a plateau
        built = host(cores)
        res = sweep(GpuDoubleBufferEngine(), app, data, config, grid, jobs=2)
        assert built == [pool]
        assert res.best.params == {"chunk_bytes": 2 * MiB}
        assert [p.sim_time for p in res.points] == [
            p.sim_time for p in serial.points
        ]


class TestChaosPools:
    PLANS = default_fault_grid(7)[:2]

    # chaos blocks are (app, engine) pairs, and faulted runs are DES-bound
    @pytest.mark.parametrize("n_apps, cores, pool", [
        pytest.param(2, 8, "process", id="4-blocks-8-cores"),
        pytest.param(2, 2, "thread", id="2-cores"),
        pytest.param(1, 8, "thread", id="2-blocks"),
    ])
    def test_fingerprint_matches_serial(self, host, n_apps, cores, pool):
        kwargs = dict(
            quick=True,
            plans=self.PLANS,
            apps=[WordCountApp(), KMeansApp()][:n_apps],
            engines=[GpuDoubleBufferEngine(), BigKernelEngine()],
        )
        serial = run_chaos(**kwargs)
        built = host(cores)
        parallel = run_chaos(jobs=2, **kwargs)
        assert built == [pool]
        assert parallel.fingerprint() == serial.fingerprint()
        order = [(c.app, c.engine, c.plan) for c in serial.cells]
        assert order == [(c.app, c.engine, c.plan) for c in parallel.cells]


#: a few-second subset of both ``repro bench`` ladders: 8 and 4 cells
LADDERS = {
    "uvm": lambda **kw: run_uvm_comparison(
        data_bytes=256 * KiB, apps=("kmeans", "wordcount"), **kw
    ),
    "multigpu": lambda **kw: run_multigpu_scaling(
        data_bytes=256 * KiB, apps=("kmeans", "wordcount"),
        gpu_counts=(1, 2), **kw
    ),
}


class TestBenchPools:
    # both ladders count their cells as DES-bound
    @pytest.mark.parametrize("cores, pool", [(8, "process"), (2, "thread")])
    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    def test_pool_matches_serial(self, host, ladder, cores, pool):
        run = LADDERS[ladder]
        serial = run()
        built = host(cores)
        parallel = run(jobs=2)
        assert built == [pool]
        assert parallel.figure_entry() == serial.figure_entry()
        assert list(parallel.results) == list(serial.results)
        for cell, res in serial.results.items():
            assert parallel.results[cell].sim_time == res.sim_time


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


class TestRule:
    """A process pool only when every condition holds; failing any one
    keeps threads (a process pool once measured 0.35x on a 1-core
    runner)."""

    @pytest.mark.parametrize("cores, n_runs, speccable, des_bound, pool", [
        pytest.param(3, 4, True, True, "process", id="all-hold"),
        pytest.param(2, 4, True, True, "thread", id="2-cores"),
        pytest.param(3, 3, True, True, "thread", id="3-runs"),
        pytest.param(3, 4, False, True, "thread", id="no-spec"),
        pytest.param(3, 4, True, False, "thread", id="not-des-bound"),
    ])
    def test_rule(
        self, monkeypatch, cores, n_runs, speccable, des_bound, pool
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert resolve_backend(n_runs, speccable, des_bound) == pool
