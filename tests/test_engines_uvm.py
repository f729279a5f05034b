"""Property battery for the unified-memory engine family.

Four families of properties, each a simulated-time fact that must hold on
any machine:

* **Determinism** — the same seed produces a byte-identical timeline
  (interval-level fingerprint), for every prefetcher.
* **Conservation** — the page-table ledger balances: every byte moved
  host-to-device is accounted as migrated, every migrated byte is either
  still resident or was evicted, and every device-to-host byte is a
  claimed dirty write-back.
* **Monotonicity** — more device memory never causes more page faults
  (pure demand LRU is a stack algorithm), and the readahead prefetcher
  never slows a sequential app down.
* **Differential** — every UVM variant produces output bit-identical to
  the serial oracle on all six paper apps, and its timeline passes the
  full invariant suite.
* **Replay** — a run that replays its plan's memoized timeline equals a
  forced DES run in every field, and only such a run skips the DES.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps import get_app
from repro.engines import (
    UVM_ENGINES,
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuUvmEngine,
    UvmLearnedEngine,
    UvmReadaheadEngine,
)
from repro.engines.uvm import UvmSpec, _UvmSimulation
from repro.faults.plan import FaultPlan
from repro.hw.spec import DEFAULT_HARDWARE
from repro.memo import Memo
from repro.serve import bit_equal
from repro.units import KiB, MiB
from repro.verify.invariants import verify_run

PAPER_SIX = ("kmeans", "wordcount", "netflix", "opinion", "dna", "mastercard")
CONFIG = EngineConfig(chunk_bytes=256 * KiB)
DATA_BYTES = 1 * MiB
SEED = 7


def _fingerprint(trace):
    """Order-sensitive digest of a full timeline, meta included."""
    return tuple(
        (
            iv.track,
            iv.label,
            iv.start,
            iv.end,
            tuple(sorted((k, str(v)) for k, v in iv.meta.items())),
        )
        for iv in trace.intervals
    )


def _run(engine, app_name, n_bytes=DATA_BYTES, seed=SEED, config=CONFIG):
    app = get_app(app_name)
    data = app.generate(n_bytes=n_bytes, seed=seed)
    return app, data, engine.run(app, data, config)


class TestDeterminism:
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.prefetch
    )
    def test_same_seed_same_timeline(self, engine_cls):
        a = _run(engine_cls(), "wordcount")[2]
        b = _run(engine_cls(), "wordcount")[2]
        assert a.sim_time == b.sim_time
        assert _fingerprint(a.trace) == _fingerprint(b.trace)
        assert a.metrics.notes["paging"] == b.metrics.notes["paging"]

    def test_different_data_different_timeline(self):
        a = _run(GpuUvmEngine(), "wordcount", seed=1)[2]
        b = _run(GpuUvmEngine(), "wordcount", seed=2)[2]
        # variable-length records: a different seed changes record sizes,
        # hence page population and fault timing
        assert _fingerprint(a.trace) != _fingerprint(b.trace)


class TestConservation:
    @pytest.mark.parametrize("app_name", PAPER_SIX)
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.name
    )
    def test_page_byte_ledger(self, app_name, engine_cls):
        res = _run(engine_cls(), app_name)[2]
        paging = res.metrics.notes["paging"]
        assert res.metrics.bytes_h2d == paging["migrated_bytes"]
        assert (
            paging["migrated_bytes"]
            == paging["evicted_bytes"] + paging["resident_bytes"]
        )
        assert res.metrics.bytes_d2h == paging["writeback_bytes"]
        assert (
            paging["migrated_pages"]
            == paging["demand_pages"] + paging["prefetched_pages"]
        )

    def test_eviction_under_pressure(self):
        # a device memory far smaller than the dataset forces eviction
        spec = UvmSpec(
            page_bytes=16 * KiB, device_mem_bytes=128 * KiB, batch_pages=4
        )
        res = _run(GpuUvmEngine(spec=spec), "wordcount")[2]
        paging = res.metrics.notes["paging"]
        assert paging["evicted_pages"] > 0
        assert paging["resident_bytes"] <= 128 * KiB
        assert res.metrics.bytes_h2d == paging["migrated_bytes"]


class TestMonotonicity:
    def test_more_memory_never_more_faults(self):
        """Pure demand paging with LRU is a stack algorithm: growing the
        device memory can only remove faults, never add them. Needs page
        *reuse* for capacity to matter, so this uses the two-pass
        mastercard app — the second pass refaults whatever was evicted."""
        spec_base = dict(page_bytes=16 * KiB, prefetch_hit=0.0, batch_pages=4)
        faults = []
        for mem in (128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB):
            spec = UvmSpec(device_mem_bytes=mem, **spec_base)
            res = _run(GpuUvmEngine(spec=spec), "mastercard")[2]
            faults.append(res.metrics.notes["paging"]["demand_pages"])
        assert faults == sorted(faults, reverse=True)
        assert faults[0] > faults[-1]  # the pressure range actually bites

    @pytest.mark.parametrize("app_name", PAPER_SIX)
    def test_readahead_never_slower(self, app_name):
        plain = _run(GpuUvmEngine(), app_name)[2]
        ra = _run(UvmReadaheadEngine(), app_name)[2]
        assert ra.sim_time <= plain.sim_time
        assert ra.metrics.notes["faults"] <= plain.metrics.notes["faults"]

    @pytest.mark.parametrize("app_name", PAPER_SIX)
    def test_learned_never_slower(self, app_name):
        plain = _run(GpuUvmEngine(), app_name)[2]
        le = _run(UvmLearnedEngine(), app_name)[2]
        assert le.sim_time <= plain.sim_time


class TestDifferential:
    @pytest.mark.parametrize("app_name", PAPER_SIX)
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.name
    )
    def test_output_matches_oracle_and_invariants_hold(
        self, app_name, engine_cls
    ):
        app, data, res = _run(engine_cls(), app_name)
        ref = CpuSerialEngine().run(app, data, CONFIG)
        assert app.outputs_equal(ref.output, res.output)
        report = verify_run(res, CONFIG)
        assert report.ok, report.summary()


# --------------------------------------------------------------- replay
REPLAY_CONFIGS = {
    "default": EngineConfig(),
    "chunk": EngineConfig(chunk_bytes=256 * KiB),
    "blocks": EngineConfig(num_blocks=8),
}


@pytest.fixture(scope="module")
def dataset():
    """``dataset(app_name, n_bytes)``: one generated (app, data) pair per
    argument pair, shared by this module's replay tests."""
    made = {}

    def get(app_name, n_bytes=DATA_BYTES):
        if (app_name, n_bytes) not in made:
            app = get_app(app_name)
            made[app_name, n_bytes] = (app, app.generate(n_bytes=n_bytes, seed=SEED))
        return made[app_name, n_bytes]

    return get


@pytest.fixture
def simulations(monkeypatch):
    """The number of DES runs ``_UvmSimulation.execute`` made so far."""
    count = [0]
    plain = _UvmSimulation.execute

    def counting(sim):
        count[0] += 1
        return plain(sim)

    monkeypatch.setattr(_UvmSimulation, "execute", counting)
    return lambda: count[0]


def _des_oracle(engine_cls, app_name, config, n_bytes=DATA_BYTES):
    """A forced DES run on a fresh engine over a newly generated dataset."""
    app = get_app(app_name)
    data = app.generate(n_bytes=n_bytes, seed=SEED)
    return engine_cls().run(app, data, config.with_(fastpath=False))


def _hammer(engine, runs, expected, view, iterations=1000):
    """Four threads share ``engine``, as ``sweep``'s thread backend does,
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


def _assert_same_run(res, ref):
    assert res.sim_time == ref.sim_time
    a, b = res.metrics, ref.metrics
    assert a.n_chunks == b.n_chunks
    assert (a.bytes_h2d, a.bytes_d2h) == (b.bytes_h2d, b.bytes_d2h)
    assert (a.comp_time, a.comm_time) == (b.comp_time, b.comm_time)
    assert a.kernel_launches == b.kernel_launches
    assert a.notes == b.notes
    assert _fingerprint(res.trace) == _fingerprint(ref.trace)
    assert bit_equal(res.output, ref.output)


class TestReplay:
    @pytest.mark.parametrize("config_name", sorted(REPLAY_CONFIGS))
    @pytest.mark.parametrize("n_bytes", [256 * KiB, 1 * MiB], ids=["256k", "1m"])
    @pytest.mark.parametrize("app_name", PAPER_SIX)
    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.name
    )
    def test_first_run_and_replay_equal_a_des_run(
        self, engine_cls, app_name, n_bytes, config_name, dataset, simulations
    ):
        app, data = dataset(app_name, n_bytes)
        config = REPLAY_CONFIGS[config_name]
        engine = engine_cls()
        first = engine.run(app, data, config)
        replay = engine.run(app, data, config)
        assert simulations() == 1
        ref = _des_oracle(engine_cls, app_name, config, n_bytes)
        _assert_same_run(first, ref)
        _assert_same_run(replay, ref)

    def test_replay_simulates_nothing(self, dataset, simulations):
        app, data = dataset("wordcount")
        engine = GpuUvmEngine()
        engine.run(app, data, CONFIG)
        assert simulations() == 1
        for _ in range(3):
            engine.run(app, data, CONFIG)
        assert simulations() == 1

    def test_forced_des_simulates_every_call(self, dataset, simulations):
        app, data = dataset("wordcount")
        engine = GpuUvmEngine()
        engine.run(app, data, CONFIG)  # memoizes the timeline
        des = CONFIG.with_(fastpath=False)
        for n in range(1, 4):
            engine.run(app, data, des)
            assert simulations() == 1 + n

    @pytest.mark.parametrize(
        "plan",
        [FaultPlan(), FaultPlan().pcie.degrade(4.0)],
        ids=["empty", "degrade"],
    )
    def test_fault_plan_simulates_every_call_and_stores_nothing(
        self, plan, dataset, simulations
    ):
        app, data = dataset("wordcount")
        engine = GpuUvmEngine()
        faulty = CONFIG.with_(faults=plan)
        for n in range(1, 3):
            res = engine.run(app, data, faulty)
            assert simulations() == n
            assert "fault_stats" in res.metrics.notes
        clean = engine.run(app, data, CONFIG)
        assert simulations() == 3
        assert "fault_stats" not in clean.metrics.notes
        _assert_same_run(clean, _des_oracle(GpuUvmEngine, "wordcount", CONFIG))

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
    def test_fields_the_timeline_does_not_read_replay(
        self, change, dataset, simulations
    ):
        app, data = dataset("kmeans")
        engine = UvmReadaheadEngine()
        engine.run(app, data, CONFIG)
        other = CONFIG.with_(**change)
        res = engine.run(app, data, other)
        assert simulations() == 1
        _assert_same_run(res, _des_oracle(UvmReadaheadEngine, "kmeans", other))

    @pytest.mark.parametrize(
        "change",
        [
            {"num_blocks": 8},
            {"hardware": DEFAULT_HARDWARE.scaled(num_sms=16)},
        ],
        ids=["threads", "hardware"],
    )
    def test_fields_the_timeline_reads_simulate(self, change, dataset, simulations):
        app, data = dataset("kmeans")
        engine = GpuUvmEngine()
        engine.run(app, data, CONFIG)
        other = CONFIG.with_(**change)
        res = engine.run(app, data, other)
        assert simulations() == 2
        _assert_same_run(res, _des_oracle(GpuUvmEngine, "kmeans", other))

    def test_another_dataset_instance_simulates(self, simulations):
        app = get_app("wordcount")
        engine = GpuUvmEngine()
        engine.run(app, app.generate(n_bytes=DATA_BYTES, seed=SEED), CONFIG)
        again = app.generate(n_bytes=DATA_BYTES, seed=SEED)
        engine.run(app, again, CONFIG)
        assert simulations() == 2

    @pytest.mark.parametrize(
        "engine_cls", UVM_ENGINES, ids=lambda c: c.name
    )
    def test_editing_a_result_cannot_change_a_later_replay(
        self, engine_cls, dataset, simulations
    ):
        app, data = dataset("mastercard")
        engine = engine_cls()
        for res in (engine.run(app, data, CONFIG), engine.run(app, data, CONFIG)):
            res.metrics.notes["faults"] = -1
            res.metrics.notes["extra"] = True
            res.metrics.notes["paging"]["migrated_bytes"] = -1
            res.metrics.notes["paging"].clear()
            res.trace.record("gpu", "bogus", 0.0, 1.0)
            res.metrics.bytes_h2d = -1
        replay = engine.run(app, data, CONFIG)
        assert simulations() == 1
        _assert_same_run(replay, _des_oracle(engine_cls, "mastercard", CONFIG))

    def test_memo_is_bounded_and_lru(self, dataset, simulations):
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

    def test_threads_sharing_an_engine_past_the_bound(self, dataset, monkeypatch):
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
            _des_oracle(UvmReadaheadEngine, "dna", c, 256 * KiB).sim_time
            for c in configs
        ]
        runs = [(app, data, c) for c in configs]
        _hammer(engine, runs, expected, lambda res: res.sim_time)
        assert len(engine._plan_cache) <= 2

    def test_threads_sharing_a_bigkernel_engine_past_the_bounds(
        self, dataset, monkeypatch
    ):
        """The same for a BigKernel engine with all four of its memos
        shrunk to 2, on a dataset that is not K-means, so every run stays
        on the fast path. The schedule and buffer plans see three keys and
        the pattern sample two: a pattern miss costs several schedule
        misses, and cheap misses keep evictions frequent. Every run equals
        a fresh engine's run on a newly generated dataset."""
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
        app, data = dataset("dna", 256 * KiB)
        fresh = app.generate(n_bytes=256 * KiB, seed=SEED)
        configs = [
            EngineConfig(
                num_blocks=b, chunk_bytes=c, compute_threads=32, functional=False
            )
            for b, c in ((1, 1 * MiB), (1, 2 * MiB), (2, 4 * MiB))
        ]

        def view(res):
            return res.sim_time, res.metrics.notes

        expected = [view(BigKernelEngine().run(app, fresh, c)) for c in configs]
        runs = [(app, data, c) for c in configs]
        _hammer(engine, runs, expected, view, iterations=400)
        assert all(len(memo) <= 2 for memo in memos)
