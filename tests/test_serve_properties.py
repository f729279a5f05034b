"""Seeded property tests for the serving layer: overload never corrupts
accounting, WDRR converges to the weights, served answers stay bit-equal."""

import functools

import pytest

from repro.apps.datagen import DATAGEN_VERSION
from repro.bench.jobs import DatasetSpec, JobSpec
from repro.bench.sweep import RunCache
from repro.engines import EngineConfig
from repro.serve import (
    ServeConfig,
    ServeRequest,
    Server,
    TenantSpec,
    TraceSpec,
    bit_equal,
    generate_trace,
    judge,
    oneshot_oracle,
    scale_trace,
    serve_trace,
)
from repro.units import KiB


def _tiny_job(seed=0):
    from repro.serve.workload import engine_spec_by_name

    return JobSpec(
        dataset=DatasetSpec(
            app="wordcount", seed=seed, n_bytes=256 * KiB, version=DATAGEN_VERSION
        ),
        engine=engine_spec_by_name("bigkernel"),
        config=EngineConfig(chunk_bytes=128 * KiB),
    )


# ------------------------------------------------------------- accounting
@pytest.mark.parametrize("seed", [1, 13])
def test_overload_never_corrupts_accounting(seed):
    spec = TraceSpec(
        seed=seed, duration=1.0, rate=30.0, data_bytes=256 * KiB, repeat_p=0.4
    )
    trace = generate_trace(spec)
    # all arrivals effectively at t=0 into a tiny queue: heavy overload
    slammed = scale_trace(trace, 1e-9)
    with Server(
        ServeConfig(max_queue=5, max_batch=4), cache=RunCache(disk=None)
    ) as server:
        outcome = serve_trace(server, slammed)
    m = outcome.metrics

    # every request reached exactly one terminal state
    assert len(outcome.responses) == len(trace)
    assert m.submitted == len(trace)
    assert m.submitted == m.admitted + m.rejected
    assert m.admitted == m.completed + m.failed
    assert m.failed == 0
    assert m.rejected > 0  # the tiny queue must actually shed load
    assert server.pending() == 0
    statuses = {r.status for r in outcome.responses}
    assert statuses <= {"served", "coalesced", "cached", "rejected"}
    # per-tenant buckets reconcile with the global counters
    assert sum(b["submitted"] for b in m.per_tenant.values()) == m.submitted
    assert sum(b["rejected"] for b in m.per_tenant.values()) == m.rejected
    assert sum(b["completed"] for b in m.per_tenant.values()) == m.completed

    # rejections did not poison the server: it still serves new work
    late = ServeRequest(
        req_id=10_000, tenant="alpha", arrival=0.0, job=_tiny_job()
    )
    assert server.submit(late) is None
    resps = server.drain()
    assert [r.status for r in resps if r.req_id == 10_000][0] in (
        "served",
        "cached",
    )


# --------------------------------------------------------------- fairness
def test_wdrr_shares_follow_weights_under_backlog():
    tenants = (
        TenantSpec("small", 1.0),
        TenantSpec("mid", 2.0),
        TenantSpec("big", 4.0),
    )
    per_tenant = 70
    server = Server(
        ServeConfig(max_queue=3 * per_tenant, max_batch=7, cache=False),
        tenants=tenants,
    )
    job = _tiny_job()
    rid = 0
    for tenant in tenants:
        for _ in range(per_tenant):
            assert server.submit(
                ServeRequest(req_id=rid, tenant=tenant.name, arrival=0.0, job=job)
            ) is None
            rid += 1

    # pull scheduling windows while every tenant stays backlogged — the
    # only regime where the weighted shares are defined
    counts = {t.name: 0 for t in tenants}
    drawn = 0
    while all(len(q) > server.config.max_batch for q in server._queues.values()):
        window = server._select_window()
        assert len(window) == server.config.max_batch
        for req in window:
            counts[req.tenant] += 1
            drawn += 1

    assert drawn >= 70  # enough windows for the shares to converge
    total_weight = sum(t.weight for t in tenants)
    for tenant in tenants:
        share = counts[tenant.name] / drawn
        want = tenant.weight / total_weight
        assert abs(share - want) < 0.1, (tenant.name, share, want)
    # no starvation: the lightest tenant still got real service
    assert counts["small"] > 0


# ------------------------------------------------------------- bit-equal
@pytest.mark.parametrize("seed", [3, 19])
def test_served_outputs_bit_equal_oneshot_oracle(seed):
    spec = TraceSpec(
        seed=seed,
        duration=0.8,
        rate=25.0,
        data_bytes=256 * KiB,
        chunk_kib_choices=(128, 256),
        repeat_p=0.5,
    )
    trace = generate_trace(spec)
    with Server(
        ServeConfig(max_queue=len(trace) + 1, max_batch=6),
        cache=RunCache(disk=None),
    ) as server:
        outcome = serve_trace(server, trace)

    jobs = {r.req_id: r.job for r in trace}
    oracles = {}
    for resp in outcome.responses:
        assert resp.status in ("served", "coalesced", "cached"), resp
        job = jobs[resp.req_id]
        key = (job.dataset, job.engine, job.config)
        if key not in oracles:
            oracles[key] = oneshot_oracle(job)
        oracle = oracles[key]
        # rtol 0: the amortization stack must change nothing observable
        assert resp.result.sim_time == oracle.sim_time
        assert bit_equal(resp.result.output, oracle.output)
    # the trace was serving-shaped: amortization actually kicked in
    assert outcome.metrics.engine_runs < outcome.metrics.completed


# ------------------------------------------------------- recipe-keyed cache
@pytest.mark.parametrize("seed", [4, 17, 29])
def test_repeats_past_a_one_slot_dataset_pool_stay_bit_equal(seed):
    # every repeat outlives its dataset's eviction, so the recipe-keyed
    # cache answers it; each response is then judged against a fresh
    # one-shot oracle
    spec = TraceSpec(
        seed=seed,
        duration=0.8,
        rate=25.0,
        data_bytes=128 * KiB,
        n_dataset_seeds=3,
        chunk_kib_choices=(64, 128),
        repeat_p=0.8,
    )
    trace = generate_trace(spec)
    config = ServeConfig(max_queue=len(trace) + 1, max_batch=4, dataset_pool=1)
    with Server(config, cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, trace)
    m = outcome.metrics
    assert m.completed == len(trace)
    jobs = {req.req_id: req.job for req in trace}
    oracle = functools.cache(oneshot_oracle)
    assert [judge(jobs[r.req_id], r, oracle) for r in outcome.responses] == [
        None
    ] * len(trace)
    assert m.cached > 0
