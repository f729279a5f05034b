"""Serving layer: trace generation, batching, cache short-circuit, chaos
serve mode, the amortization counters, and the CLI."""

import dataclasses
import json

import pytest

from repro.apps.base import DATASET_HASH_STATS, dataset_key, get_app
from repro.bench.jobs import DatasetSpec, JobSpec
from repro.bench.sweep import DiskCache, RunCache, content_run_key, run_digest
from repro.cli import main
from repro.engines import BigKernelEngine, EngineConfig
from repro.errors import ApplicationError, ReproError
from repro.runtime.fastpath import FASTPATH_MEMO_STATS
from repro.serve import (
    ServeConfig,
    ServeRequest,
    Server,
    TenantSpec,
    TraceSpec,
    batch_key,
    coalesce,
    generate_trace,
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


def _job(dataset=None, chunk_kib=256, **cfg):
    from repro.serve.workload import engine_spec_by_name

    return JobSpec(
        dataset=dataset or _dataset_spec(),
        engine=engine_spec_by_name("bigkernel"),
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
              _request(3, j1)]
    batches = coalesce(window)
    # same engine+hardware: wordcount jobs batch together, dna separately
    assert len(batches) == 2
    assert batch_key(j1) == batch_key(j2)
    assert batch_key(j1) != batch_key(j_other_app)
    wc = batches[0]
    assert [r.req_id for r in wc.requests] == [0, 2, 3]
    groups = wc.unique_jobs()
    # j1 twice (exact dup), j2 once
    assert [len(reqs) for reqs in groups.values()] == [2, 1]


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
        assert server._meta[2][1] == 0.0
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


def test_pricer_loads_no_dataset_for_an_unmodeled_engine():
    from repro.serve.pricing import JobPricer
    from repro.serve.workload import engine_spec_by_name

    job = JobSpec(
        dataset=_dataset_spec(),
        engine=engine_spec_by_name("gpu_uvm"),
        config=EngineConfig(chunk_bytes=256 * KiB),
    )

    def loader(spec):
        raise AssertionError(f"loaded {spec} for an engine with no model")

    pricer = JobPricer()
    assert pricer.price(job, loader) is None
    pricer.observe_batch([job], 0.5, 1, loader)
    assert pricer.price(job, loader) == 0.5


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
    with Server(ServeConfig(verify=True), cache=cache) as server:
        server.submit(_request(0, job))
        (resp,) = server.drain()
    assert resp.status == "cached"
    assert server.metrics.verify_failures == 1
    assert resp.error == "served result diverges from its one-shot oracle"


# ------------------------------------------------- amortization accounting
def test_dataset_hash_amortized_one_digest_per_handbuilt_dataset():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=5)
    # strip the recipe stamp: force the hand-built SHA-256 fallback
    del data.meta["datagen"]
    data.meta.pop("_dataset_key", None)
    before = dict(DATASET_HASH_STATS)
    keys = [dataset_key(data) for _ in range(10)]
    assert len(set(keys)) == 1 and keys[0][0] == "sha256"
    assert DATASET_HASH_STATS["requests"] == before["requests"] + 10
    # ten probes, ONE digest: the hash is paid once per distinct dataset
    assert DATASET_HASH_STATS["sha256_digests"] == before["sha256_digests"] + 1


def test_dataset_hash_recipe_datasets_never_digest():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=6)
    before = DATASET_HASH_STATS["sha256_digests"]
    for _ in range(5):
        key = dataset_key(data)
    assert key[0] == "datagen"
    assert DATASET_HASH_STATS["sha256_digests"] == before


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


def test_fastpath_memo_reused_across_identical_pipeline_runs():
    app = get_app("wordcount")
    data = app.generate(n_bytes=512 * KiB, seed=8)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
    first = engine.run(app, data, cfg)
    before = dict(FASTPATH_MEMO_STATS)
    again = engine.run(app, data, cfg)
    assert again.sim_time == first.sim_time
    assert again.metrics.stage_totals == first.metrics.stage_totals
    assert FASTPATH_MEMO_STATS["reused"] == before["reused"] + 1
    assert FASTPATH_MEMO_STATS["computed"] == before["computed"]
    # the memo hands out fresh result shells: mutating one run's totals
    # must not leak into the next
    again.metrics.stage_totals["poison"] = 1.0
    third = engine.run(app, data, cfg)
    assert "poison" not in third.metrics.stage_totals


def test_bigkernel_schedule_memo_counters():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=9)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
    engine.run(app, data, cfg)
    misses = engine.schedule_misses
    engine.run(app, data, cfg)
    engine.run(app, data, cfg)
    assert engine.schedule_misses == misses
    assert engine.schedule_hits >= 2


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


def test_cli_serve_bad_tenants():
    assert main(["serve", "--tenants", "alpha=zero"]) == 2


def test_cli_chaos_serve_quick(capsys):
    rc = main(["chaos", "--serve", "--quick"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
