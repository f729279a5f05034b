"""Serving layer: trace generation, batching, cache short-circuit, chaos
serve mode, the amortization counters, and the CLI."""

import dataclasses
import hashlib
import json

import pytest

from repro.apps.base import dataset_key, get_app
from repro.bench.jobs import DatasetSpec, JobSpec
from repro.bench.sweep import DiskCache, RunCache, content_run_key, run_digest
from repro.cli import main
from repro.engines import BigKernelEngine, EngineConfig
from repro.errors import ApplicationError, ReproError, SloViolationError
from repro.memo import MEMO_STATS
from repro.serve.scheduler import matches_oracle
from repro.serve import (
    STATUSES,
    QueuedRequest,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    Server,
    TenantSpec,
    TraceSpec,
    batch_key,
    coalesce,
    generate_trace,
    judge,
    oneshot_oracle,
    scale_trace,
    serve_trace,
)
from repro.units import KiB

SMALL = TraceSpec(
    seed=11, duration=1.0, rate=25.0, data_bytes=256 * KiB, repeat_p=0.5
)


def _dataset_spec(app="wordcount", seed=0, n_bytes=256 * KiB):
    from repro.apps.datagen import DATAGEN_VERSION

    return DatasetSpec(app=app, seed=seed, n_bytes=n_bytes, version=DATAGEN_VERSION)


def _request(req_id, job, tenant="t", arrival=0.0):
    return ServeRequest(req_id=req_id, tenant=tenant, arrival=arrival, job=job)


def _job(dataset=None, chunk_kib=256, engine="bigkernel", **cfg):
    from repro.serve.workload import engine_spec_by_name

    return JobSpec(
        dataset=dataset or _dataset_spec(),
        engine=engine_spec_by_name(engine),
        config=EngineConfig(chunk_bytes=chunk_kib * 1024, **cfg),
    )


# ----------------------------------------------------------------- workload
def test_trace_is_deterministic_and_weighted():
    a = generate_trace(SMALL)
    b = generate_trace(SMALL)
    assert [r.job for r in a] == [r.job for r in b]
    assert [r.arrival for r in a] == [r.arrival for r in b]
    assert [r.tenant for r in a] == [r.tenant for r in b]
    assert len(a) > 10
    # arrivals are strictly ordered and inside the window
    assert all(0 < r.arrival <= SMALL.duration for r in a)
    # repeats exist (they are what the cache feeds on)
    jobs = [r.job for r in a]
    assert len(set(jobs)) < len(jobs)


def test_scale_trace_rescales_arrivals_only():
    trace = generate_trace(SMALL)
    fast = scale_trace(trace, 0.25)
    assert [r.job for r in fast] == [r.job for r in trace]
    assert fast[3].arrival == trace[3].arrival * 0.25
    with pytest.raises(ReproError):
        scale_trace(trace, 0.0)


def test_trace_spec_validation():
    with pytest.raises(ReproError):
        TraceSpec(duration=0.0)
    with pytest.raises(ReproError):
        TraceSpec(repeat_p=1.0)
    with pytest.raises(ReproError):
        TenantSpec("x", weight=0.0)
    with pytest.raises(ReproError):
        generate_trace(TraceSpec(apps=("no-such-app",)))


# ------------------------------------------------------------------ batcher
def test_coalesce_groups_by_compatibility():
    j1, j2 = _job(chunk_kib=256), _job(chunk_kib=512)
    j_other_app = _job(dataset=_dataset_spec(app="dna"))
    window = [_request(0, j1), _request(1, j_other_app), _request(2, j2),
              _request(3, dataclasses.replace(j1))]
    batches = coalesce([QueuedRequest(r) for r in window])
    # same engine+hardware: wordcount jobs batch together, dna separately
    assert len(batches) == 2
    assert batch_key(j1) == batch_key(j2)
    assert batch_key(j1) != batch_key(j_other_app)
    wc = batches[0]
    assert [r.req_id for r in wc.requests] == [0, 2, 3]
    # j1 twice (an equal copy is an exact dup), j2 once; leaders first
    assert [[r.req_id for r in group] for group in wc.groups] == [[0, 3], [2]]
    assert [[r.req_id for r in group] for group in batches[1].groups] == [[1]]


# ---------------------------------------------------------------- scheduler
def test_duplicate_requests_coalesce_onto_one_engine_run():
    job = _job()
    with Server(ServeConfig(cache=False, max_batch=4)) as server:
        for i in range(3):
            assert server.submit(_request(i, job)) is None
        responses = server.drain()
    statuses = [r.status for r in sorted(responses, key=lambda r: r.req_id)]
    assert statuses == ["served", "coalesced", "coalesced"]
    assert server.metrics.engine_runs == 1
    # followers share the leader's result object — zero recompute
    assert responses[1].result is responses[0].result
    assert responses[2].result is responses[0].result


def test_exact_repeat_is_cached_with_zero_engine_runs():
    job = _job()
    with Server(ServeConfig(max_batch=4), cache=RunCache(disk=None)) as server:
        assert server.submit(_request(0, job)) is None
        first = server.drain()
        runs_after_first = server.metrics.engine_runs
        assert server.submit(_request(1, job)) is None
        second = server.drain()
    assert first[0].status == "served"
    assert second[0].status == "cached"
    assert server.metrics.engine_runs == runs_after_first  # zero new runs
    assert second[0].result is first[0].result


def test_admission_control_rejects_when_full():
    job = _job()
    with Server(ServeConfig(max_queue=2, cache=False)) as server:
        assert server.submit(_request(0, job)) is None
        assert server.submit(_request(1, job)) is None
        rejection = server.submit(_request(2, job), now=5.0)
    assert rejection is not None
    assert rejection.status == "rejected"
    assert rejection.completion == 5.0
    assert server.metrics.rejected == 1
    assert server.pending() == 2


def test_failed_job_is_typed_and_isolated():
    bad = JobSpec(
        dataset=DatasetSpec(app="wordcount", seed=0, n_bytes=256 * KiB,
                            version=-1),  # version mismatch -> ReproError
        engine=_job().engine,
        config=EngineConfig(),
    )
    good = _job()
    with Server(ServeConfig(cache=False)) as server:
        server.submit(_request(0, bad))
        server.submit(_request(1, good))
        responses = sorted(server.drain(), key=lambda r: r.req_id)
    assert responses[0].status == "failed"
    assert isinstance(responses[0].exception, ReproError)
    assert responses[1].status == "served"  # the batch survived


def test_tiny_wordcount_dataset_fails_alone():
    # no word fits in 8 bytes of seed-0 text: the request fails typed and
    # its batch-mate is still served
    tiny = _job(dataset=_dataset_spec(seed=0, n_bytes=8))
    with Server(ServeConfig(cache=False)) as server:
        server.submit(_request(0, tiny))
        server.submit(_request(1, _job()))
        responses = sorted(server.drain(), key=lambda r: r.req_id)
    assert responses[0].status == "failed"
    assert isinstance(responses[0].exception, ApplicationError)
    assert responses[1].status == "served"


# ------------------------------------------------------ recipe-keyed cache
@pytest.fixture
def generate_calls(monkeypatch):
    """Every ``generate`` call of every registry app, as (app, seed)."""
    from repro.apps.base import APP_REGISTRY

    calls = []
    for cls in APP_REGISTRY.values():
        def counted(self, n_bytes=None, seed=0, _orig=cls.generate):
            calls.append((self.name, seed))
            return _orig(self, n_bytes=n_bytes, seed=seed)

        monkeypatch.setattr(cls, "generate", counted)
    return calls


def _queued(server, req_id):
    """The queued record of an admitted, not yet dispatched request."""
    (queued,) = [
        q for t in server._tenants.values() for q in t.queue if q.req_id == req_id
    ]
    return queued


def _serve_one(server, req_id, job, now=0.0):
    assert server.submit(_request(req_id, job), now=now) is None
    (resp,) = server.drain(now=now)
    return resp


def test_cached_result_survives_dataset_eviction(generate_calls):
    job_a = _job(dataset=_dataset_spec(seed=1))
    job_b = _job(dataset=_dataset_spec(seed=2))
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as server:
        first = _serve_one(server, 0, job_a)
        _serve_one(server, 1, job_b)  # evicts A's dataset
        runs = server.metrics.engine_runs
        again = _serve_one(server, 2, job_a)
    assert first.status == "served"
    assert again.status == "cached"
    assert again.result is first.result
    assert server.metrics.engine_runs == runs
    assert generate_calls == [("wordcount", 1), ("wordcount", 2)]


def test_slo_admission_of_a_cached_job_prices_zero_and_loads_nothing(
    generate_calls,
):
    tenants = (TenantSpec("t", 1.0, slo_ms=1e6),)
    job_a = _job(dataset=_dataset_spec(seed=1))
    job_b = _job(dataset=_dataset_spec(seed=2))
    config = ServeConfig(dataset_pool=1, scheduling="edf")
    with Server(config, tenants=tenants, cache=RunCache(disk=None)) as server:
        _serve_one(server, 0, job_a)
        _serve_one(server, 1, job_b)  # evicts A's dataset
        del generate_calls[:]
        assert server.submit(_request(2, job_a)) is None
        assert _queued(server, 2).price == 0.0
        assert generate_calls == []
        (resp,) = server.drain()
    assert resp.status == "cached"
    assert generate_calls == []


@pytest.mark.parametrize("planted", [False, True])
def test_stale_datagen_version_fails_typed_before_any_probe(tmp_path, planted):
    stale = _job(dataset=DatasetSpec(
        app="wordcount", seed=0, n_bytes=256 * KiB, version=-1
    ))
    cache = RunCache(disk=DiskCache(root=tmp_path))
    if planted:
        # a result written under the stale recipe's own key must not leak
        poison = oneshot_oracle(_job())
        key = RunCache.recipe_key(BigKernelEngine(), stale)
        cache.disk.put(run_digest(key), poison)
        assert cache.disk.get(run_digest(key)) is not None
    with Server(ServeConfig(), cache=cache) as server:
        resp = _serve_one(server, 0, stale)
    assert resp.status == "failed"
    assert isinstance(resp.exception, ReproError)
    assert "datagen version" in resp.error
    assert resp.result is None


def test_disk_tier_replays_in_a_fresh_server(tmp_path, generate_calls):
    jobs = [
        _job(dataset=_dataset_spec(app=app, seed=seed), chunk_kib=chunk)
        for app in ("wordcount", "kmeans")
        for seed in (1, 2)
        for chunk in (128, 256)
    ]
    with Server(ServeConfig(), cache=RunCache(disk=DiskCache(root=tmp_path))) as first:
        for i, job in enumerate(jobs):
            assert first.submit(_request(i, job)) is None
        first.drain()
    assert first.metrics.engine_runs == len(jobs)
    del generate_calls[:]
    with Server(ServeConfig(), cache=RunCache(disk=DiskCache(root=tmp_path))) as second:
        for i, job in enumerate(jobs):
            assert second.submit(_request(i, job)) is None
        responses = sorted(second.drain(), key=lambda r: r.req_id)
    assert second.metrics.engine_runs == 0
    assert second.cache.disk_hits == len(jobs)
    assert generate_calls == []
    for job, resp in zip(jobs, responses):
        assert resp.status == "cached"
        oracle = oneshot_oracle(job)
        assert resp.result.sim_time == oracle.sim_time
        assert get_app(job.dataset.app).outputs_equal(
            resp.result.output, oracle.output
        )


def test_a_uvm_price_is_its_timing_only_run_times_the_cell_ratio():
    from repro.serve.pricing import JobPricer

    job = _job(engine="gpu_uvm")
    with Server(ServeConfig(), cache=RunCache(disk=None)) as server:
        runs = []

        def sim_time(priced):
            runs.append(priced)
            return server._sim_time(priced)

        pricer = JobPricer()
        assert pricer.price(job, sim_time) is None
        app, data = server._dataset(job.dataset)
        timing_only = server._engine(job.engine).run(
            app, data, job.config.with_(functional=False)
        )
        assert timing_only.output is None
        sim = timing_only.sim_time
        pricer.observe_batch([job], 0.5, 1, [sim])
        assert pricer.price(job, sim_time) == sim * (0.5 / sim)
    assert runs == [job]
    assert sim == oneshot_oracle(job).sim_time


# ------------------------------------------------------------ dataset store
STORE_APPS = (
    "wordcount", "dna", "kmeans", "netflix", "opinion", "mastercard"
)


def test_only_a_recipe_dataset_drops_and_it_reads_back_its_bytes():
    import numpy as np

    from repro.apps import KMeansApp
    from repro.apps.base import data_fingerprint

    with pytest.raises(ApplicationError, match="recipe"):
        KMeansApp(4).generate(n_bytes=64 * KiB, seed=1).drop(None)
    app = get_app("mastercard")
    data = app.generate(n_bytes=64 * KiB, seed=1)
    fresh = app.generate(n_bytes=64 * KiB, seed=1)
    n_records, fingerprint = data.n_records, data_fingerprint(data)
    calls = []

    def regenerate():
        calls.append(1)
        return app.generate(n_bytes=64 * KiB, seed=1)

    data.drop(regenerate)
    assert not data.holds_arrays and data.n_records == n_records
    assert data_fingerprint(data) == fingerprint and calls == []
    assert np.array_equal(data.mapped["transactions"], fresh.mapped["transactions"])
    assert data.holds_arrays and calls == [1]
    data.resident
    assert calls == [1]
    # the token keys BigKernel's memos: the restored bytes are the same
    assert data_fingerprint(data) == fingerprint
    assert data_fingerprint(fresh) != fingerprint


def _pooled(server, job):
    """The server's (app, data) for a job's recipe, without a lookup."""
    return server._datasets[job.dataset]


def test_drop_and_restore_are_invisible_on_a_one_slot_pool():
    # consecutive jobs never share an app, so a one-slot pool evicts every
    # recipe between two of its runs; the timing-only first round leaves
    # no pass memoized, so each recipe's first functional run restores it
    jobs = [
        _job(dataset=_dataset_spec(app=app, seed=5), chunk_kib=chunk,
             engine=engine, functional=functional)
        for functional, chunk in ((False, 64), (True, 64), (True, 128))
        for engine in ("bigkernel", "gpu_uvm")
        for app in STORE_APPS
    ]
    config = ServeConfig(dataset_pool=1)
    with Server(config, cache=RunCache(disk=None)) as server:
        responses = [_serve_one(server, i, job) for i, job in enumerate(jobs)]
    m = server.metrics
    assert m.datasets_generated == len(STORE_APPS)
    assert m.datasets_restored == len(STORE_APPS)
    for job, resp in zip(jobs, responses):
        assert resp.status == "served"
        assert judge(job, resp, oneshot_oracle) is None


def _evicted(server, job, other):
    """Serve ``job``, then ``other`` so that ``job``'s dataset is stored."""
    _serve_one(server, 0, job)
    _serve_one(server, 1, other)
    assert job.dataset in server._store


def test_pricing_a_stored_recipe_generates_nothing(generate_calls):
    tenants = (TenantSpec("t", 1.0, slo_ms=1e6),)
    job_a = _job(dataset=_dataset_spec(seed=1))
    config = ServeConfig(dataset_pool=1, scheduling="edf")
    with Server(config, tenants=tenants, cache=RunCache(disk=None)) as server:
        _evicted(server, job_a, _job(dataset=_dataset_spec(seed=2)))
        del generate_calls[:]
        priced = dataclasses.replace(job_a, config=job_a.config.with_(ring_depth=4))
        assert server.submit(_request(2, priced)) is None
        assert _queued(server, 2).price is not None
        assert generate_calls == []
        assert not _pooled(server, job_a)[1].holds_arrays


def test_a_memoized_run_generates_nothing_and_stays_dropped(generate_calls):
    job_a = _job(dataset=_dataset_spec(seed=1))
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as server:
        _evicted(server, job_a, _job(dataset=_dataset_spec(seed=2)))
        del generate_calls[:]
        same_pass = dataclasses.replace(
            job_a, config=job_a.config.with_(ring_depth=4)
        )
        other_chunks = _job(dataset=job_a.dataset, chunk_kib=64)
        responses = [_serve_one(server, 2, same_pass),
                     _serve_one(server, 3, other_chunks)]
        assert generate_calls == []
        assert not _pooled(server, job_a)[1].holds_arrays
    assert server.metrics.datasets_restored == 0
    for job, resp in zip((same_pass, other_chunks), responses):
        assert resp.status == "served"
        assert matches_oracle(job, resp.result, oneshot_oracle(job))


def test_a_run_needing_a_new_pass_generates_once(generate_calls):
    # a timing-only run memoizes no pass, so the first functional run after
    # the eviction reads the dropped arrays
    job_a = _job(dataset=_dataset_spec(seed=1), functional=False)
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as server:
        _evicted(server, job_a, _job(dataset=_dataset_spec(seed=2)))
        del generate_calls[:]
        new_pass = _job(dataset=job_a.dataset, chunk_kib=64)
        resp = _serve_one(server, 2, new_pass)
        assert generate_calls == [("wordcount", 1)]
        assert _pooled(server, job_a)[1].holds_arrays
    assert server.metrics.datasets_restored == 1
    assert matches_oracle(new_pass, resp.result, oneshot_oracle(new_pass))


def test_a_batch_with_more_recipes_than_pool_slots_restores_in_it(
    generate_calls,
):
    # one batch runs a timing-only A, B, then A three more times on a
    # one-slot pool, cache off: B's run evicts A into the store, so a later
    # timing-only A job reads nothing, the first functional one restores A
    # for its pass, and one at another chunking finds that pass memoized
    job_a = _job(dataset=_dataset_spec(seed=1), functional=False)
    job_b = _job(dataset=_dataset_spec(seed=2))
    timing_only = _job(dataset=job_a.dataset, ring_depth=4, functional=False)
    new_pass = _job(dataset=job_a.dataset)
    memoized = _job(dataset=job_a.dataset, chunk_kib=64)
    jobs = (job_a, job_b, timing_only, new_pass, memoized)
    with Server(ServeConfig(dataset_pool=1, cache=False)) as server:
        for i, job in enumerate(jobs):
            assert server.submit(_request(i, job)) is None
        responses = server.drain()
    assert server.metrics.batches == 1
    assert server.metrics.engine_runs == len(jobs)
    assert generate_calls == [("wordcount", 1), ("wordcount", 2), ("wordcount", 1)]
    assert server.metrics.datasets_generated == 2
    assert server.metrics.datasets_restored == 1
    for resp in responses:
        job = jobs[resp.req_id]
        assert matches_oracle(job, resp.result, oneshot_oracle(job))


def test_store_stays_under_its_bound_and_forgets_whole_entries_lru(
    monkeypatch, generate_calls
):
    from repro.serve import scheduler

    jobs = [_job(dataset=_dataset_spec(seed=seed)) for seed in (1, 2, 3, 4)]
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as probe:
        _evicted(probe, jobs[0], jobs[1])
        entry_bytes = probe._store[jobs[0].dataset][2]
    # room for two stored wordcount datasets of this size, not three
    monkeypatch.setattr(scheduler, "STORE_BYTES", int(2.5 * entry_bytes))
    del generate_calls[:]
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as server:
        for i, job in enumerate(jobs):
            _serve_one(server, i, job)
            held = sum(entry[2] for entry in server._store.values())
            assert server.metrics.store_bytes == held <= scheduler.STORE_BYTES
            assert all(not data.holds_arrays for _, data, _ in server._store.values())
        # seeds 2 and 3 are stored; seed 1, the least recent, was forgotten
        assert list(server._store) == [jobs[1].dataset, jobs[2].dataset]
        assert server.metrics.store_evictions == 1
        del generate_calls[:]
        forgotten = _job(dataset=jobs[0].dataset, ring_depth=4)
        resp = _serve_one(server, len(jobs), forgotten)
        assert generate_calls == [("wordcount", 1)]
    assert server.metrics.datasets_generated == len(jobs) + 1
    assert matches_oracle(forgotten, resp.result, oneshot_oracle(forgotten))


def test_kmeans_after_a_restore_holds_its_generated_bytes(
    monkeypatch, generate_calls
):
    # K-means writes cid in place, but a restore regenerates the recipe's
    # bytes with cid as generated, and no pass runs over them again: the
    # memo answers every later run
    import numpy as np

    from repro.apps import KMeansApp

    finalized = []
    real_finalize = KMeansApp.finalize

    def counted(self, data, state):
        finalized.append(data)
        return real_finalize(self, data, state)

    monkeypatch.setattr(KMeansApp, "finalize", counted)
    job = _job(dataset=_dataset_spec(app="kmeans", seed=1), chunk_kib=128)
    app = get_app("kmeans")
    fresh = app.generate(n_bytes=job.dataset.n_bytes, seed=job.dataset.seed)
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as server:
        _evicted(server, job, _job(dataset=_dataset_spec(seed=2)))
        del generate_calls[:], finalized[:]
        other_chunks = _job(dataset=job.dataset, chunk_kib=64)
        first = _serve_one(server, 2, other_chunks)
        data = _pooled(server, job)[1]
        assert not data.holds_arrays
        # reading a dropped array restores it, byte for byte as generated
        assert np.array_equal(data.mapped["particles"], fresh.mapped["particles"])
        assert generate_calls == [("kmeans", 1)]
        memoized = dataclasses.replace(job, config=job.config.with_(ring_depth=4))
        second = _serve_one(server, 3, memoized)
        assert finalized == [] and generate_calls == [("kmeans", 1)]
    assert server.metrics.datasets_restored == 1
    assert matches_oracle(other_chunks, first.result, oneshot_oracle(other_chunks))
    assert matches_oracle(memoized, second.result, oneshot_oracle(memoized))


def test_calibration_leaves_dataset_generation_out(monkeypatch):
    from repro.apps.base import APP_REGISTRY

    clock = [0.0]
    gen_step, run_step = 1.0, 0.25
    for cls in APP_REGISTRY.values():
        def slow_generate(self, n_bytes=None, seed=0, _orig=cls.generate):
            clock[0] += gen_step
            return _orig(self, n_bytes=n_bytes, seed=seed)

        monkeypatch.setattr(cls, "generate", slow_generate)
    real_run = BigKernelEngine.run

    def slow_run(self, app, data, config=None):
        clock[0] += run_step
        return real_run(self, app, data, config)

    monkeypatch.setattr(BigKernelEngine, "run", slow_run)
    # a timing-only first run memoizes no pass, so the functional run after
    # the eviction restores the recipe
    job_a = _job(dataset=_dataset_spec(seed=1), functional=False)
    with Server(ServeConfig(dataset_pool=1), cache=RunCache(disk=None)) as server:
        server.timer = lambda: clock[0]
        handed = []
        real_observe = server.pricer.observe_batch

        def observe(jobs, elapsed, n_runs, loader):
            handed.append(elapsed)
            return real_observe(jobs, elapsed, n_runs, loader)

        monkeypatch.setattr(server.pricer, "observe_batch", observe)
        _evicted(server, job_a, _job(dataset=_dataset_spec(seed=2)))
        _serve_one(server, 2, _job(dataset=job_a.dataset, chunk_kib=64))
    assert server.metrics.datasets_generated == 2
    assert server.metrics.datasets_restored == 1
    assert handed == [run_step] * 3


def test_served_results_bit_equal_one_shot(tmp_path):
    trace = generate_trace(SMALL)
    with Server(ServeConfig(max_queue=len(trace) + 1),
                cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, trace)
    jobs = {r.req_id: r.job for r in trace}
    oracles = {}
    for resp in outcome.responses:
        assert resp.status in ("served", "coalesced", "cached")
        job = jobs[resp.req_id]
        key = (job.dataset, job.engine, job.config)
        if key not in oracles:
            oracles[key] = oneshot_oracle(job)
        oracle = oracles[key]
        assert resp.result.sim_time == oracle.sim_time
        app = get_app(job.dataset.app)
        assert app.outputs_equal(resp.result.output, oracle.output)
    assert outcome.metrics.cached > 0
    assert outcome.metrics.engine_runs < len(trace)


def test_verify_is_exact_where_outputs_equal_is_tolerant():
    # Netflix's outputs_equal allows atol 1e-9; --verify promises
    # bit-equality, so a cached result 1e-12 off must count as a failure
    job = _job(dataset=_dataset_spec(app="netflix", seed=3), chunk_kib=64)
    good = oneshot_oracle(job)
    bad = dataclasses.replace(good, output=good.output + 1e-12)
    assert get_app("netflix").outputs_equal(bad.output, good.output)
    cache = RunCache(disk=None)
    cache.put(RunCache.recipe_key(BigKernelEngine(), job), bad)
    with Server(ServeConfig(), cache=cache) as server:
        server.submit(_request(0, job))
        (resp,) = server.drain()
    assert resp.status == "cached"
    assert judge(job, resp, oneshot_oracle) == (
        "output diverges from its one-shot oracle"
    )


# ------------------------------------------------------------------ judge
_TYPED = SloViolationError("deadline unreachable")

#: (status, result, error, exception, verdict): ``result`` is the oracle's
#: result as served, "slower" (sim_time doubled) or "off" (output + 1)
JUDGE_TABLE = [
    ("served", "oracle", None, None, None),
    ("coalesced", "oracle", None, None, None),
    ("cached", "oracle", None, None, None),
    ("served", "slower", None, None, "sim_time"),
    ("coalesced", "off", None, None, "output diverges from its one-shot oracle"),
    ("cached", "off", None, None, "output diverges from its one-shot oracle"),
    ("rejected", None, "queue full", None, None),
    ("rejected", None, str(_TYPED), _TYPED, None),
    ("rejected", None, "deadline unreachable", None,
     "rejected response lacks a typed SloViolationError"),
    ("shed", None, str(_TYPED), _TYPED, None),
    ("shed", None, "deadline passed", None,
     "shed response lacks a typed SloViolationError"),
    ("failed", None, "ReproError: boom", ReproError("boom"), "ReproError: boom"),
    ("failed", None, None, None, "request failed"),
]


def test_judge_table_covers_every_status():
    assert {row[0] for row in JUDGE_TABLE} == set(STATUSES)


@pytest.fixture(scope="module")
def judged_job():
    job = _job()
    return job, oneshot_oracle(job)


@pytest.mark.parametrize("status,result,error,exception,verdict", JUDGE_TABLE)
def test_judge(judged_job, status, result, error, exception, verdict):
    job, good = judged_job
    served = {
        None: None,
        "oracle": good,
        "slower": dataclasses.replace(good, sim_time=2 * good.sim_time),
        "off": dataclasses.replace(good, output=good.output + 1),
    }[result]
    resp = ServeResponse(req_id=0, tenant="t", status=status, arrival=0.0,
                         error=error, result=served, exception=exception)
    asked = []

    def oracle(j):
        asked.append(j)
        return good

    got = judge(job, resp, oracle)
    if verdict == "sim_time":
        assert got.startswith("sim_time ")
    else:
        assert got == verdict
    # the oracle runs only for a response that carries a result
    assert asked == ([job] if served is not None else [])


@pytest.fixture
def each_server_fails_its_first_run(monkeypatch):
    """Every server's first unique-job run comes back as a typed failure."""
    real = Server._run_unique

    def run_unique(self, engine, jobs):
        outcomes = real(self, engine, jobs)
        if jobs and not getattr(self, "_failed_one", False):
            self._failed_one = True
            outcomes[0] = ReproError("injected failure")
        return outcomes

    monkeypatch.setattr(Server, "_run_unique", run_unique)


def test_both_serve_benchmarks_count_a_failed_request(
    each_server_fails_its_first_run,
):
    from repro.bench.serve import run_serve_benchmark, run_serve_slo_benchmark

    spec = TraceSpec(seed=23, duration=0.5, rate=20.0, data_bytes=128 * KiB,
                     n_dataset_seeds=2, chunk_kib_choices=(64, 128),
                     repeat_p=0.5)
    throughput = run_serve_benchmark(spec)
    assert throughput.verify_failures >= 3  # one per load level
    slo = run_serve_slo_benchmark(spec)
    assert slo.verify_failures >= 2  # one per policy


# ------------------------------------------------- amortization accounting
@pytest.fixture
def sha256_digests(monkeypatch):
    """The number of SHA-256 digests started since the fixture was set up."""
    digests = []
    plain = hashlib.sha256

    def counting(*args, **kwargs):
        digests.append(None)
        return plain(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return lambda: len(digests)


def test_dataset_hash_amortized_one_digest_per_handbuilt_dataset(sha256_digests):
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=5)
    # strip the recipe stamp: force the hand-built SHA-256 fallback
    del data.meta["datagen"]
    data.meta.pop("_dataset_key", None)
    before = sha256_digests()
    keys = [dataset_key(data) for _ in range(10)]
    assert len(set(keys)) == 1 and keys[0][0] == "sha256"
    # ten probes, ONE digest: the hash is paid once per distinct dataset
    assert sha256_digests() == before + 1


def test_dataset_hash_recipe_datasets_never_digest(sha256_digests):
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=6)
    before = sha256_digests()
    for _ in range(5):
        key = dataset_key(data)
    assert key[0] == "datagen"
    assert sha256_digests() == before


def test_content_run_key_equals_server_recipe_digest():
    # the disk tier depends on it: a sweep-written entry and a server
    # lookup of the same recipe address one file
    engine = BigKernelEngine()
    job = _job(dataset=_dataset_spec(seed=7), chunk_kib=64)
    app = get_app("wordcount")
    data = app.generate(n_bytes=job.dataset.n_bytes, seed=job.dataset.seed)
    assert dataset_key(data) == job.dataset.key
    digest = content_run_key(engine, app, data, job.config)
    assert digest == run_digest(RunCache.recipe_key(engine, job))
    other = _job(dataset=_dataset_spec(seed=8), chunk_kib=64)
    assert digest != run_digest(RunCache.recipe_key(engine, other))


def test_identical_pipeline_run_replays_its_timeline(monkeypatch):
    import repro.engines.bigkernel as bigkernel

    app = get_app("wordcount")
    data = app.generate(n_bytes=512 * KiB, seed=8)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
    first = engine.run(app, data, cfg)
    simulated = []
    plain = bigkernel.run_pipeline

    def counting(*args, **kwargs):
        simulated.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(bigkernel, "run_pipeline", counting)
    misses = MEMO_STATS["bigkernel.schedule"]["misses"]
    again = engine.run(app, data, cfg)
    assert again.sim_time == first.sim_time
    assert again.metrics.stage_totals == first.metrics.stage_totals
    assert MEMO_STATS["bigkernel.schedule"]["misses"] == misses
    assert simulated == []
    # a replay hands out fresh containers: mutating one run's totals must
    # not leak into the next
    again.metrics.stage_totals["poison"] = 1.0
    third = engine.run(app, data, cfg)
    assert "poison" not in third.metrics.stage_totals


def test_bigkernel_schedule_memo_counters():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=9)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
    engine.run(app, data, cfg)
    before = dict(MEMO_STATS["bigkernel.schedule"])
    engine.run(app, data, cfg)
    engine.run(app, data, cfg)
    after = MEMO_STATS["bigkernel.schedule"]
    assert after["misses"] == before["misses"]
    assert after["hits"] >= before["hits"] + 2


# ------------------------------------------------------------- chaos serve
def test_chaos_serve_fingerprint_matches_direct():
    from repro.apps import WordCountApp
    from repro.faults import run_chaos

    kwargs = dict(
        quick=True,
        seed=7,
        data_bytes=512 * KiB,
        apps=[WordCountApp()],
        engines=[BigKernelEngine()],
    )
    direct = run_chaos(**kwargs)
    served = run_chaos(serve=True, **kwargs)
    assert direct.fingerprint() == served.fingerprint()
    assert direct.ok and served.ok


# ---------------------------------------------------------------- verify
def test_serve_differential_pillar():
    from repro.verify import run_serve_differential

    report = run_serve_differential(
        data_bytes=256 * KiB, seed=5, duration=1.0, rate=20.0
    )
    assert report.ok, report.summary()
    assert report.counts["cached"] > 0
    assert report.counts["engine runs"] < len(report.cells)
    assert "serve vs one-shot" in report.summary()


# -------------------------------------------------------------------- CLI
def test_cli_serve_smoke(tmp_path, capsys):
    out = tmp_path / "responses.json"
    rc = main([
        "serve", "--duration", "1", "--rate", "20", "--data-mib", "1",
        "--seed", "3", "--verify", "--expect-cache-hits",
        "--trace", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "cached=" in printed
    log = json.loads(out.read_text())
    assert log and all(r["status"] != "failed" for r in log)


def _verified_cli(tmp_path, *extra) -> tuple:
    """``repro serve --verify`` on a small cache-hitting trace: (exit code,
    the ``--trace`` log)."""
    out = tmp_path / "responses.json"
    rc = main([
        "serve", "--duration", "1", "--rate", "20", "--data-mib", "1",
        "--seed", "3", "--verify", "--trace", str(out), *extra,
    ])
    return rc, json.loads(out.read_text())


def test_cli_verify_runs_no_oracle_inside_dispatch(tmp_path, monkeypatch):
    import repro.serve
    import repro.serve.scheduler as scheduler

    depth, inside, outside = [0], [], []
    real_dispatch, real_oracle = Server.dispatch_round, scheduler.oneshot_oracle

    def dispatch_round(self, *args, **kwargs):
        depth[0] += 1
        try:
            return real_dispatch(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def oracle(job):
        (inside if depth[0] else outside).append(job)
        return real_oracle(job)

    monkeypatch.setattr(Server, "dispatch_round", dispatch_round)
    for module in (scheduler, repro.serve):
        monkeypatch.setattr(module, "oneshot_oracle", oracle)
    rc, _ = _verified_cli(tmp_path)
    assert rc == 0
    assert outside and not inside


def test_cli_verify_marks_a_poisoned_cache_entry(tmp_path, monkeypatch, capsys):
    real_get = RunCache.get

    def poisoned(self, key, disk_key=None):
        hit = real_get(self, key, disk_key)
        return hit and dataclasses.replace(hit, sim_time=2 * hit.sim_time)

    monkeypatch.setattr(RunCache, "get", poisoned)
    rc, log = _verified_cli(tmp_path, "--expect-cache-hits")
    assert rc == 1
    cached = [r for r in log if r["status"] == "cached"]
    assert cached and all(r["error"].startswith("sim_time ") for r in cached)
    assert all(r["error"] is None for r in log if r["status"] == "served")
    assert "failed verification" in capsys.readouterr().err


def test_cli_verify_fails_on_a_failed_request(
    tmp_path, each_server_fails_its_first_run
):
    rc, log = _verified_cli(tmp_path)
    assert rc == 1
    errors = {r["error"] for r in log if r["status"] == "failed"}
    assert errors == {"ReproError: injected failure"}


def test_cli_serve_bad_tenants():
    assert main(["serve", "--tenants", "alpha=zero"]) == 2


def test_cli_chaos_serve_quick(capsys):
    rc = main(["chaos", "--serve", "--quick"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
