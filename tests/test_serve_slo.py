"""SLO serving properties: EDF ordering, provably-safe shedding, typed
predictive admission, adaptive windows, and deterministic replays.

Everything timing-dependent runs on a *deterministic* fake timer — the
server calibrates its pricer and stamps its virtual clock from the same
injectable timer, so two replays of one trace make byte-identical
scheduling, shedding and admission decisions.
"""

import math

import pytest

from repro.apps.datagen import DATAGEN_VERSION
from repro.bench.jobs import DatasetSpec, JobSpec, run_jobspec
from repro.bench.sweep import RunCache
from repro.engines import EngineConfig
from repro.errors import ReproError, SloViolationError
from repro.serve import (
    JobPricer,
    ServeConfig,
    ServeRequest,
    Server,
    TenantSpec,
    TraceSpec,
    bit_equal,
    generate_trace,
    scale_trace,
    serve_trace,
    with_slo,
)
from repro.serve.workload import engine_spec_by_name
from repro.units import KiB


class FakeTimer:
    """Deterministic clock: every call advances by a fixed step."""

    def __init__(self, step=0.001):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def _job(seed=0, chunk=128 * KiB, engine="bigkernel", n_bytes=256 * KiB):
    return JobSpec(
        dataset=DatasetSpec(
            app="wordcount", seed=seed, n_bytes=n_bytes, version=DATAGEN_VERSION
        ),
        engine=engine_spec_by_name(engine),
        config=EngineConfig(chunk_bytes=chunk),
    )


# ---------------------------------------------------------------- workload
def test_tenant_slo_validation():
    with pytest.raises(ReproError):
        TenantSpec("a", 1.0, slo_ms=0.0)
    with pytest.raises(ReproError):
        TenantSpec("a", 1.0, slo_ms=-5.0)
    assert TenantSpec("a", 1.0).slo_seconds == math.inf
    assert TenantSpec("a", 1.0, slo_ms=250.0).slo_seconds == 0.25


def test_with_slo_sets_every_tenant():
    tenants = (TenantSpec("a", 1.0), TenantSpec("b", 2.0, slo_ms=10.0))
    slod = with_slo(tenants, 500.0)
    assert [t.slo_ms for t in slod] == [500.0, 500.0]
    assert [t.weight for t in slod] == [1.0, 2.0]
    cleared = with_slo(slod, None)
    assert all(t.slo_ms is None for t in cleared)


# -------------------------------------------------------------- scheduling
def test_edf_fairness_with_loose_equal_deadlines():
    """When deadlines never bind (equal and far away), the EDF tiebreak
    must reproduce WDRR's weighted shares — the PR9 fairness bound."""
    tenants = (
        TenantSpec("small", 1.0, slo_ms=1e9),
        TenantSpec("mid", 2.0, slo_ms=1e9),
        TenantSpec("big", 4.0, slo_ms=1e9),
    )
    per_tenant = 70
    server = Server(
        ServeConfig(max_queue=3 * per_tenant, max_batch=7, cache=False),
        tenants=tenants,
    )
    job = _job()
    rid = 0
    for tenant in tenants:
        for _ in range(per_tenant):
            assert server.submit(
                ServeRequest(req_id=rid, tenant=tenant.name, arrival=0.0, job=job)
            ) is None
            rid += 1

    counts = {t.name: 0 for t in tenants}
    drawn = 0
    while all(len(q) > server.config.max_batch for q in server._queues.values()):
        window = server._select_window(now=0.0)
        assert len(window) == server.config.max_batch
        for req in window:
            counts[req.tenant] += 1
            drawn += 1

    assert drawn >= 70
    total_weight = sum(t.weight for t in tenants)
    for tenant in tenants:
        share = counts[tenant.name] / drawn
        want = tenant.weight / total_weight
        assert abs(share - want) < 0.1, (tenant.name, share, want)
    assert counts["small"] > 0


def test_edf_serves_earliest_deadline_first():
    tenants = (
        TenantSpec("loose", 1.0, slo_ms=10_000.0),
        TenantSpec("tight", 1.0, slo_ms=100.0),
        TenantSpec("none", 1.0),
    )
    server = Server(ServeConfig(max_batch=3, cache=False), tenants=tenants)
    job = _job()
    for rid, name in enumerate(["loose", "none", "tight"]):
        assert server.submit(
            ServeRequest(req_id=rid, tenant=name, arrival=0.0, job=job)
        ) is None
    window = server._select_window(now=0.0)
    # tight deadline first, then loose, then the best-effort request
    assert [r.tenant for r in window] == ["tight", "loose", "none"]


def test_edf_mode_without_slos_is_classic_wdrr():
    """scheduling='edf' with no deadlines anywhere must take the WDRR
    path byte-for-byte: same selection as an explicit WDRR pull."""
    tenants = (TenantSpec("a", 1.0), TenantSpec("b", 3.0))
    picks = []
    for _ in range(2):
        server = Server(
            ServeConfig(max_queue=64, max_batch=5, cache=False), tenants=tenants
        )
        job = _job()
        rid = 0
        for name in ("a", "b"):
            for _ in range(10):
                server.submit(
                    ServeRequest(req_id=rid, tenant=name, arrival=0.0, job=job)
                )
                rid += 1
        order = []
        while server.pending():
            order.extend(r.req_id for r in server._select_window(now=0.0))
        picks.append(order)
    assert picks[0] == picks[1]


# ---------------------------------------------------------------- shedding
def test_shed_only_when_provably_doomed():
    """Every shed response was picked after its deadline had passed —
    dispatch > deadline — so it could not possibly have met its SLO.
    Requests whose deadline had not passed at pick time are never shed."""
    spec = TraceSpec(
        seed=5,
        duration=1.5,
        rate=40.0,
        data_bytes=256 * KiB,
        repeat_p=0.2,
        n_dataset_seeds=3,
    )
    trace = scale_trace(generate_trace(spec), 1e-3)
    tenants = with_slo(spec.tenants, 40.0)
    with Server(
        ServeConfig(max_queue=64, max_batch=4),
        tenants=tenants,
        cache=RunCache(disk=None),
    ) as server:
        outcome = serve_trace(server, trace, timer=FakeTimer(step=0.004))
    shed = [r for r in outcome.responses if r.status == "shed"]
    assert shed, "overload with a 40ms SLO must shed something"
    for resp in shed:
        assert resp.dispatch > resp.deadline, (
            f"req {resp.req_id} shed at {resp.dispatch} before its "
            f"deadline {resp.deadline}"
        )
        assert isinstance(resp.exception, SloViolationError)
        assert resp.error
    # nothing that completed within its deadline was ever shed: every
    # completed-and-met response is disjoint from the shed set by id
    met = [
        r
        for r in outcome.responses
        if r.status in ("served", "coalesced", "cached")
        and r.completion <= r.deadline
    ]
    assert {r.req_id for r in met}.isdisjoint({r.req_id for r in shed})


def test_fifo_baseline_never_sheds_but_accounts_slo():
    spec = TraceSpec(seed=5, duration=1.0, rate=40.0, data_bytes=256 * KiB)
    trace = scale_trace(generate_trace(spec), 1e-3)
    with Server(
        ServeConfig(max_queue=64, max_batch=4, scheduling="fifo"),
        tenants=with_slo(spec.tenants, 40.0),
        cache=RunCache(disk=None),
    ) as server:
        outcome = serve_trace(server, trace, timer=FakeTimer(step=0.004))
    m = outcome.metrics
    assert m.shed == 0
    assert m.rejected_predicted == 0
    assert m.slo_total == m.submitted
    assert m.slo_met + m.slo_missed == m.completed
    assert m.slo_missed > 0  # deadline-blind under overload pays in misses


def test_accounting_identities_hold_with_sheds():
    spec = TraceSpec(
        seed=11, duration=1.5, rate=40.0, data_bytes=256 * KiB, repeat_p=0.3
    )
    trace = scale_trace(generate_trace(spec), 1e-3)
    with Server(
        ServeConfig(max_queue=24, max_batch=4, adaptive_batch=True),
        tenants=with_slo(spec.tenants, 50.0),
        cache=RunCache(disk=None),
    ) as server:
        outcome = serve_trace(server, trace, timer=FakeTimer(step=0.003))
    m = outcome.metrics
    assert len(outcome.responses) == len(trace)
    assert m.submitted == m.admitted + m.rejected
    assert m.admitted == m.completed + m.failed + m.shed
    assert m.failed == 0
    assert m.slo_total == m.submitted
    assert m.slo_met + m.slo_missed == m.completed
    assert server.pending() == 0
    assert not server._meta  # no leaked per-request bookkeeping
    # per-tenant buckets reconcile, including the new shed/met/missed keys
    assert sum(b["shed"] for b in m.per_tenant.values()) == m.shed
    assert sum(b["slo_met"] for b in m.per_tenant.values()) == m.slo_met
    assert sum(b["slo_missed"] for b in m.per_tenant.values()) == m.slo_missed
    att = m.slo_attainment()
    assert att is not None and 0.0 <= att <= 1.0


# ----------------------------------------------------- predictive admission
def test_predictive_rejection_is_typed_and_counted():
    tenants = (TenantSpec("t", 1.0, slo_ms=1.0),)  # 1ms: hopeless
    config = ServeConfig(max_queue=64, max_batch=4, cache=False)
    pricer = JobPricer()
    server = Server(config, tenants=tenants, pricer=pricer)
    # warm the pricer with one observed batch: 0.1s for one run of this cell
    job = _job()
    pricer.observe_batch([job], elapsed=0.1, n_runs=1, dataset_loader=server._dataset)
    assert pricer.price(job, server._dataset) is not None

    # first request fits nothing: its own 0.1s price blows the 1ms deadline
    resp = server.submit(
        ServeRequest(req_id=0, tenant="t", arrival=0.0, job=job), now=0.0
    )
    assert resp is not None
    assert resp.status == "rejected"
    assert isinstance(resp.exception, SloViolationError)
    assert "predicted completion" in (resp.error or "")
    assert math.isfinite(resp.deadline)
    assert server.metrics.rejected_predicted == 1
    assert server.metrics.rejected == 1
    assert server.metrics.slo_total == 1


def test_unpriced_jobs_are_never_predictively_rejected():
    """A cold pricer must veto predictive admission — rejections need
    evidence, and an unpriced backlog is not evidence."""
    tenants = (TenantSpec("t", 1.0, slo_ms=1.0),)
    server = Server(
        ServeConfig(max_queue=8, max_batch=4, cache=False), tenants=tenants
    )
    assert server.submit(
        ServeRequest(req_id=0, tenant="t", arrival=0.0, job=_job()), now=0.0
    ) is None
    assert server.metrics.rejected_predicted == 0


def test_cache_hits_are_priced_free():
    """A job the run cache would short-circuit must never be rejected on
    its model price, however tight the deadline."""
    tenants = (TenantSpec("t", 1.0, slo_ms=1.0),)
    pricer = JobPricer()
    server = Server(
        ServeConfig(max_queue=8, max_batch=4), tenants=tenants,
        cache=RunCache(disk=None), pricer=pricer,
    )
    job = _job()
    # serve it once so the cache holds the result
    assert server.submit(
        ServeRequest(req_id=0, tenant="t", arrival=0.0, job=job), now=0.0
    ) is None
    server.finish(server.dispatch_round(now=0.0), 0.0)
    # price the cell expensively: without the cache probe this would reject
    pricer.observe_batch([job], elapsed=5.0, n_runs=1, dataset_loader=server._dataset)
    resp = server.submit(
        ServeRequest(req_id=1, tenant="t", arrival=0.0, job=job), now=0.0
    )
    assert resp is None  # admitted: the probe priced it at zero
    done = server.drain(now=0.0)
    assert [r.status for r in done] == ["cached"]


# -------------------------------------------------------- adaptive batching
def test_adaptive_window_tracks_deadline_slack():
    tenants = (TenantSpec("t", 1.0, slo_ms=1000.0),)
    config = ServeConfig(
        max_queue=64, max_batch=8, min_batch=2, adaptive_batch=True, cache=False
    )
    server = Server(config, tenants=tenants)
    # uncalibrated pricer: adaptive batching stays at the fixed window
    assert server._window_limit(0.0) == 8
    server.pricer.run_wall = 0.05
    server._unique_frac = 1.0
    # no queued deadlines: still the fixed window
    assert server._window_limit(0.0) == 8
    server.submit(
        ServeRequest(req_id=0, tenant="t", arrival=0.0, job=_job()), now=0.0
    )
    # deadline 1.0s, per-run 0.05s: slack fits 8+ runs -> full window
    assert server._window_limit(0.0) == 8
    # ~0.21s of slack left -> 4 runs fit
    assert server._window_limit(0.79) == 4
    # almost no slack -> clamp to min_batch
    assert server._window_limit(0.999) == 2
    # past the deadline -> smallest (urgent) window
    assert server._window_limit(2.0) == 2
    # heavy expected coalescing stretches the window: at 50% unique,
    # the same slack fits 8 dispatches again
    server._unique_frac = 0.5
    assert server._window_limit(0.79) == 8


# ---------------------------------------------- determinism across backends
@pytest.mark.parametrize("engines", [("bigkernel",), ("bigkernel", "gpu_uvm")])
def test_slo_trace_bit_equal_across_backends(engines):
    """With SLOs engaged and a deterministic timer, thread and process
    backends must make identical decisions and identical results."""
    spec = TraceSpec(
        seed=17,
        duration=1.0,
        rate=25.0,
        data_bytes=256 * KiB,
        repeat_p=0.0,
        n_dataset_seeds=2,
        engines=engines,
        chunk_kib_choices=(128,),
    )
    trace = scale_trace(generate_trace(spec), 1e-3)
    tenants = with_slo(spec.tenants, 200.0)
    outcomes = {}
    for backend in ("thread", "process"):
        config = ServeConfig(
            max_queue=len(trace) + 1,
            max_batch=4,
            backend=backend,
            jobs=2,
            adaptive_batch=True,
        )
        with Server(
            config, tenants=tenants, cache=RunCache(disk=None)
        ) as server:
            outcomes[backend] = serve_trace(
                server, trace, timer=FakeTimer(step=0.002)
            )
    thread, proc = outcomes["thread"], outcomes["process"]
    assert [(r.req_id, r.status) for r in thread.responses] == [
        (r.req_id, r.status) for r in proc.responses
    ]
    assert thread.makespan == proc.makespan
    for t_resp, p_resp in zip(thread.responses, proc.responses):
        assert t_resp.deadline == p_resp.deadline
        if t_resp.result is not None:
            assert t_resp.result.sim_time == p_resp.result.sim_time
            assert bit_equal(t_resp.result.output, p_resp.result.output)


# ------------------------------------------------------- gpu_uvm round-trip
def test_gpu_uvm_jobspec_roundtrip_matches_direct_run():
    """The serve path's picklable JobSpec for gpu_uvm (what the process
    backend ships to workers) reproduces a direct engine run bit-exactly."""
    from repro.apps.base import get_app
    from repro.bench.jobs import engine_from_spec

    job = _job(engine="gpu_uvm")
    spec_result = run_jobspec(job)
    app = get_app(job.dataset.app)
    data = app.generate(n_bytes=job.dataset.n_bytes, seed=job.dataset.seed)
    direct = engine_from_spec(job.engine).run(app, data, job.config)
    assert spec_result.sim_time == direct.sim_time
    assert bit_equal(spec_result.output, direct.output)


def test_gpu_uvm_served_and_priced_by_observation():
    """UVM jobs (unpredictable by the analytic model) still get priced —
    purely from the observed per-run EWMA — and still serve correctly."""
    spec = TraceSpec(
        seed=3,
        duration=0.8,
        rate=20.0,
        data_bytes=256 * KiB,
        engines=("gpu_uvm",),
        chunk_kib_choices=(128,),
    )
    trace = generate_trace(spec)
    tenants = with_slo(spec.tenants, 10_000.0)
    pricer = JobPricer()
    with Server(
        ServeConfig(max_queue=len(trace) + 1, max_batch=4, verify=True),
        tenants=tenants,
        cache=RunCache(disk=None),
        pricer=pricer,
    ) as server:
        outcome = serve_trace(server, trace)
    m = outcome.metrics
    assert m.completed == len(trace)
    assert m.verify_failures == 0
    assert m.failed == 0
    # the analytic model refused every UVM job, yet observation priced them
    job = trace[0].job
    assert pricer._sim[(job.dataset, job.engine, job.config)] is None
    assert pricer.price(job, server._dataset) is not None
    assert pricer.stats["samples"] > 0


# ----------------------------------------------------------- memoized model
def test_predicted_sim_time_memoizes():
    from repro.analytic import PREDICT_RUN_STATS, predicted_sim_time
    from repro.apps.base import get_app

    app = get_app("wordcount")
    data = app.generate(n_bytes=128 * KiB, seed=0)
    config = EngineConfig(chunk_bytes=64 * KiB)
    before = dict(PREDICT_RUN_STATS)
    first = predicted_sim_time(app, data, config, "bigkernel")
    second = predicted_sim_time(app, data, config, "bigkernel")
    assert first == second
    assert PREDICT_RUN_STATS["requests"] == before["requests"] + 2
    assert PREDICT_RUN_STATS["hits"] >= before["hits"] + 1
