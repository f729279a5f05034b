"""One replay rule for every simulating engine (``Engine._timed``).

BigKernel (full and overlap-only), double buffering and the three
unified-memory engines memoize a plan per run shape, and the plan keeps
the timeline of its first fault-free run with the fast path allowed,
whichever simulator made it: the closed form, the DES fallback (K-means's
mapped writes) or the paging DES. A repeat replays that timeline:

* the first run and the replay each equal a forced-DES run on a fresh
  engine, over a newly generated dataset, in every field;
* a replay simulates nothing (no ``run_pipeline`` call, no
  ``_UvmSimulation.execute``);
* ``fastpath=False`` and any fault plan simulate on every call and store
  nothing;
* editing a result leaves the next replay unchanged, and the intervals
  every replay shares refuse edits.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.engines.bigkernel
import repro.engines.gpu_double
from repro.apps import get_app
from repro.engines import (
    BigKernelEngine,
    BigKernelFeatures,
    EngineConfig,
    GpuDoubleBufferEngine,
    GpuUvmEngine,
    UvmLearnedEngine,
    UvmReadaheadEngine,
)
from repro.engines.uvm import _UvmSimulation
from repro.faults.plan import FaultPlan
from repro.hw.spec import DEFAULT_HARDWARE
from repro.memo import Memo
from repro.serve import bit_equal
from repro.units import KiB, MiB
from tests.test_engines_uvm import PAPER_SIX, _fingerprint

CONFIG = EngineConfig(chunk_bytes=256 * KiB)
DATA_BYTES = 1 * MiB
SEED = 7

#: engine label -> a factory of fresh engines
ENGINES = {
    "bigkernel": BigKernelEngine,
    "bigkernel_overlap": lambda: BigKernelEngine(BigKernelFeatures.overlap_only()),
    "gpu_double": GpuDoubleBufferEngine,
    "gpu_uvm": GpuUvmEngine,
    "uvm_readahead": UvmReadaheadEngine,
    "uvm_learned": UvmLearnedEngine,
}
UVM_NAMES = ("gpu_uvm", "uvm_readahead", "uvm_learned")
REPLAY_CONFIGS = {
    "default": EngineConfig(),
    "chunk": EngineConfig(chunk_bytes=256 * KiB),
    "blocks": EngineConfig(num_blocks=8),
}
FAULT_PLANS = {"empty": FaultPlan(), "degrade": FaultPlan().pcie.degrade(4.0)}

each_engine = pytest.mark.parametrize("engine_name", sorted(ENGINES))


@pytest.fixture(scope="module")
def dataset():
    """``dataset(app_name, n_bytes)``: one generated (app, data) pair per
    argument pair, shared by this module's tests."""
    made = {}

    def get(app_name, n_bytes=DATA_BYTES):
        if (app_name, n_bytes) not in made:
            app = get_app(app_name)
            made[app_name, n_bytes] = (app, app.generate(n_bytes=n_bytes, seed=SEED))
        return made[app_name, n_bytes]

    return get


@pytest.fixture
def simulations(monkeypatch):
    """The number of simulations made so far: ``run_pipeline`` calls from
    BigKernel and double buffering (closed form or DES) and
    ``_UvmSimulation.execute`` calls."""
    count = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (repro.engines.bigkernel, repro.engines.gpu_double):
        monkeypatch.setattr(module, "run_pipeline", counting(module.run_pipeline))
    monkeypatch.setattr(
        _UvmSimulation, "execute", counting(_UvmSimulation.execute)
    )
    return lambda: count[0]


def _des_oracle(engine_name, app_name, config, n_bytes=DATA_BYTES):
    """A forced DES run on a fresh engine over a newly generated dataset."""
    app = get_app(app_name)
    data = app.generate(n_bytes=n_bytes, seed=SEED)
    return ENGINES[engine_name]().run(app, data, config.with_(fastpath=False))


def _took_des(engine_name, app_name):
    """Whether the first fault-free run took a DES: the unified-memory
    engines page on the DES, and K-means's mapped writes send BigKernel
    and double buffering to it. The closed form records no trace."""
    return engine_name in UVM_NAMES or app_name == "kmeans"


def _assert_same_run(res, ref, took_des):
    """``res`` equals the forced-DES run ``ref`` in every field, and has
    the trace exactly when its timeline came from a DES (``took_des``)."""
    assert res.sim_time == ref.sim_time
    a, b = res.metrics, ref.metrics
    assert a.n_chunks == b.n_chunks
    assert (a.bytes_h2d, a.bytes_d2h) == (b.bytes_h2d, b.bytes_d2h)
    assert (a.comp_time, a.comm_time) == (b.comp_time, b.comm_time)
    assert a.stage_totals == b.stage_totals
    assert a.pattern_fraction == b.pattern_fraction
    assert a.kernel_launches == b.kernel_launches
    assert a.notes == b.notes
    assert (res.trace is not None) == took_des
    if took_des:
        assert _fingerprint(res.trace) == _fingerprint(ref.trace)
    assert bit_equal(res.output, ref.output)


def _hammer(engine, runs, expected, view, iterations=1000):
    """Four threads share ``engine``, as a ``sweep`` on threads does,
    each cycling from its own offset through ``runs`` (``(app, data,
    config)`` triples, more keys than the shrunk memos hold) at a 1 us
    switch interval. No lookup may fail, and ``view`` of every run must
    equal its entry in ``expected``."""

    def cycle(shift):
        return [
            view(engine.run(*runs[(shift + i) % len(runs)]))
            == expected[(shift + i) % len(runs)]
            for i in range(iterations)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(cycle, k) for k in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(all(r) for r in results)


class TestReplay:
    @pytest.mark.parametrize("config_name", sorted(REPLAY_CONFIGS))
    @pytest.mark.parametrize("n_bytes", [256 * KiB, 1 * MiB], ids=["256k", "1m"])
    @pytest.mark.parametrize("app_name", PAPER_SIX)
    @each_engine
    def test_first_run_and_replay_equal_a_des_run(
        self, engine_name, app_name, n_bytes, config_name, dataset, simulations
    ):
        app, data = dataset(app_name, n_bytes)
        config = REPLAY_CONFIGS[config_name]
        engine = ENGINES[engine_name]()
        first = engine.run(app, data, config)
        replay = engine.run(app, data, config)
        assert simulations() == 1
        # a first run that took a DES keeps its trace, and so does its replay
        took_des = _took_des(engine_name, app_name)
        ref = _des_oracle(engine_name, app_name, config, n_bytes)
        _assert_same_run(first, ref, took_des)
        _assert_same_run(replay, ref, took_des)

    @pytest.mark.parametrize("app_name", ["wordcount", "kmeans"])
    @each_engine
    def test_replay_simulates_nothing(
        self, engine_name, app_name, dataset, simulations
    ):
        app, data = dataset(app_name)
        engine = ENGINES[engine_name]()
        engine.run(app, data, CONFIG)
        assert simulations() == 1
        for _ in range(3):
            engine.run(app, data, CONFIG)
        assert simulations() == 1

    @each_engine
    def test_forced_des_simulates_every_call(
        self, engine_name, dataset, simulations
    ):
        app, data = dataset("kmeans")
        engine = ENGINES[engine_name]()
        engine.run(app, data, CONFIG)  # memoizes the timeline
        des = CONFIG.with_(fastpath=False)
        for n in range(1, 4):
            res = engine.run(app, data, des)
            assert simulations() == 1 + n
            assert res.trace is not None

    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    @each_engine
    def test_fault_plan_simulates_every_call_and_stores_nothing(
        self, engine_name, plan, dataset, simulations
    ):
        app, data = dataset("wordcount")
        engine = ENGINES[engine_name]()
        faulty = CONFIG.with_(faults=FAULT_PLANS[plan])
        # the pipelined engines inject, and report, only an active plan
        reports = plan == "degrade" or engine_name in UVM_NAMES
        for n in range(1, 3):
            res = engine.run(app, data, faulty)
            assert simulations() == n
            assert ("fault_stats" in res.metrics.notes) == reports
        clean = engine.run(app, data, CONFIG)
        assert simulations() == 3
        assert "fault_stats" not in clean.metrics.notes
        engine.run(app, data, CONFIG)
        assert simulations() == 3
        _assert_same_run(
            clean,
            _des_oracle(engine_name, "wordcount", CONFIG),
            _took_des(engine_name, "wordcount"),
        )

    @pytest.mark.parametrize("app_name", ["mastercard", "kmeans"])
    @each_engine
    def test_editing_a_result_cannot_change_a_later_replay(
        self, engine_name, app_name, dataset, simulations
    ):
        app, data = dataset(app_name)
        engine = ENGINES[engine_name]()
        took_des = _took_des(engine_name, app_name)
        for res in (engine.run(app, data, CONFIG), engine.run(app, data, CONFIG)):
            notes = res.metrics.notes
            for key, value in list(notes.items()):
                if isinstance(value, dict):
                    value["bogus"] = -1
                    value.clear()
                notes[key] = -1
            notes["extra"] = True
            res.metrics.stage_totals["poison"] = 1.0
            res.metrics.stage_totals.clear()
            if took_des:
                res.trace.record("gpu", "bogus", 0.0, 1.0)
                # the intervals are shared: frozen, with read-only meta
                shared = res.trace.intervals[0]
                with pytest.raises(TypeError):
                    shared.meta["poison"] = 1
                with pytest.raises(TypeError):
                    shared.meta.clear()
                with pytest.raises(AttributeError):
                    shared.end = -1.0
            res.metrics.bytes_h2d = -1
        replay = engine.run(app, data, CONFIG)
        assert simulations() == 1
        _assert_same_run(
            replay, _des_oracle(engine_name, app_name, CONFIG), took_des
        )

    @each_engine
    def test_another_dataset_instance_simulates(self, engine_name, simulations):
        app = get_app("wordcount")
        engine = ENGINES[engine_name]()
        engine.run(app, app.generate(n_bytes=DATA_BYTES, seed=SEED), CONFIG)
        again = app.generate(n_bytes=DATA_BYTES, seed=SEED)
        engine.run(app, again, CONFIG)
        assert simulations() == 2

    @pytest.mark.parametrize("app_name", ["wordcount", "kmeans"])
    def test_double_buffering_ring_depths_share_one_timeline(
        self, app_name, dataset, simulations
    ):
        """Double buffering fixes its ring at two, so its plan key leaves
        ``ring_depth`` out and every depth replays one exact timeline."""
        app, data = dataset(app_name)
        engine = GpuDoubleBufferEngine()
        engine.run(app, data, CONFIG)
        others = [CONFIG.with_(ring_depth=depth) for depth in (2, 5, 9)]
        results = [engine.run(app, data, other) for other in others]
        assert simulations() == 1
        for res, other in zip(results, others):
            _assert_same_run(
                res,
                _des_oracle("gpu_double", app_name, other),
                _took_des("gpu_double", app_name),
            )

    @pytest.mark.parametrize(
        "change",
        [
            {"chunk_bytes": 512 * KiB},
            {"ring_depth": 5},
            {"pattern_recognition": False},
            {"functional": False},
            # the same thread total from another block shape
            {"num_blocks": 8, "compute_threads": 512},
        ],
        ids=["chunk", "ring", "pattern", "functional", "same-threads"],
    )
    def test_fields_a_uvm_timeline_does_not_read_replay(
        self, change, dataset, simulations
    ):
        app, data = dataset("kmeans")
        engine = UvmReadaheadEngine()
        engine.run(app, data, CONFIG)
        other = CONFIG.with_(**change)
        res = engine.run(app, data, other)
        assert simulations() == 1
        _assert_same_run(res, _des_oracle("uvm_readahead", "kmeans", other), True)

    @pytest.mark.parametrize(
        "change",
        [
            {"num_blocks": 8},
            {"hardware": DEFAULT_HARDWARE.scaled(num_sms=16)},
        ],
        ids=["threads", "hardware"],
    )
    def test_fields_a_uvm_timeline_reads_simulate(
        self, change, dataset, simulations
    ):
        app, data = dataset("kmeans")
        engine = GpuUvmEngine()
        engine.run(app, data, CONFIG)
        other = CONFIG.with_(**change)
        res = engine.run(app, data, other)
        assert simulations() == 2
        _assert_same_run(res, _des_oracle("gpu_uvm", "kmeans", other), True)

    def test_uvm_plan_memo_is_bounded_and_lru(self, dataset, simulations):
        app, data = dataset("dna", 256 * KiB)
        engine = GpuUvmEngine()
        bound = engine._plan_cache.maxsize
        # one key per thread total: 32 threads per block, 1..bound+1 blocks
        configs = [
            EngineConfig(num_blocks=b, compute_threads=32, functional=False)
            for b in range(1, bound + 2)
        ]
        for cfg in configs:
            engine.run(app, data, cfg)
        assert len(engine._plan_cache) == bound
        assert simulations() == bound + 1
        engine.run(app, data, configs[1])  # a hit moves its key to the end
        assert simulations() == bound + 1
        engine.run(app, data, configs[0])  # evicted first: simulates again
        assert simulations() == bound + 2
        assert len(engine._plan_cache) == bound
        engine.run(app, data, configs[1])  # survived the second eviction
        assert simulations() == bound + 2
        engine.run(app, data, configs[2])  # the least recent went instead
        assert simulations() == bound + 3

    def test_threads_sharing_a_uvm_engine_past_the_bound(self, dataset, monkeypatch):
        """Threads that share one engine past its plan memo's bound: the
        memo stays bounded, and every run equals a forced DES run."""
        app, data = dataset("dna", 256 * KiB)
        engine = UvmReadaheadEngine()
        monkeypatch.setattr(engine._plan_cache, "maxsize", 2)
        configs = [
            EngineConfig(num_blocks=b, compute_threads=32, functional=False)
            for b in (1, 2, 3)
        ]
        expected = [
            _des_oracle("uvm_readahead", "dna", c, 256 * KiB).sim_time
            for c in configs
        ]
        runs = [(app, data, c) for c in configs]
        _hammer(engine, runs, expected, lambda res: res.sim_time)
        assert len(engine._plan_cache) <= 2

    @pytest.mark.parametrize("app_name", ["dna", "kmeans"])
    def test_threads_sharing_a_bigkernel_engine_past_the_bounds(
        self, app_name, dataset, monkeypatch
    ):
        """The same for a BigKernel engine with all four of its memos
        shrunk to 2. The schedule and buffer plans see three keys and the
        pattern sample two: a pattern miss costs several schedule misses,
        and cheap misses keep evictions frequent. DNA stays on the closed
        form; K-means takes the DES, so threads that miss one plan together
        race on its timeline slot. Every run equals a fresh engine's run on
        a newly generated dataset."""
        engine = BigKernelEngine()
        monkeypatch.setattr(engine._schedule_cache, "maxsize", 2)
        # the class-level memos are shared: fresh ones of bound 2
        for attr in ("_slice_cache", "_pattern_cache", "_buffer_cache"):
            name = getattr(BigKernelEngine, attr).name
            monkeypatch.setattr(BigKernelEngine, attr, Memo(name, 2))
        memos = (
            engine._schedule_cache,
            BigKernelEngine._slice_cache,
            BigKernelEngine._pattern_cache,
            BigKernelEngine._buffer_cache,
        )
        app, data = dataset(app_name, 256 * KiB)
        fresh = app.generate(n_bytes=256 * KiB, seed=SEED)
        configs = [
            EngineConfig(
                num_blocks=b, chunk_bytes=c, compute_threads=32, functional=False
            )
            for b, c in ((1, 1 * MiB), (1, 2 * MiB), (2, 4 * MiB))
        ]

        def view(res):
            return res.sim_time, res.metrics.notes, res.trace is None

        expected = [view(BigKernelEngine().run(app, fresh, c)) for c in configs]
        assert all(trace_free == (app_name == "dna") for *_, trace_free in expected)
        runs = [(app, data, c) for c in configs]
        _hammer(engine, runs, expected, view, iterations=400)
        assert all(len(memo) <= 2 for memo in memos)
