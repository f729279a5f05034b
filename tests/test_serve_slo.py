"""SLO serving properties: EDF ordering, provably-safe shedding, typed
predictive admission, adaptive windows, and deterministic replays.

Everything timing-dependent runs on a *deterministic* step timer — the
server calibrates its pricer and stamps its virtual clock from the same
injectable timer, so two replays of one trace make byte-identical
scheduling, shedding and admission decisions.
"""

import functools
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
    StepTimer,
    TenantSpec,
    TraceSpec,
    bit_equal,
    generate_trace,
    judge,
    oneshot_oracle,
    scale_trace,
    serve_trace,
    with_slo,
)
from repro.serve.workload import engine_spec_by_name
from repro.units import KiB


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
    while all(len(t.queue) > server.config.max_batch for t in server._tenants.values()):
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


def test_edf_mode_without_slos_picks_deterministically():
    """scheduling='edf' with no deadlines anywhere: two servers fed the
    same backlog pick the same order."""
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


#: the windows the scheduler picked, as req_ids, on the backlog
#: :func:`_backlogged_windows` builds, recorded before the WDRR, EDF and
#: FIFO loops became one keyed loop: under "edf" only while a deadline is
#: queued, the regime both loops shared
BACKLOGGED_WINDOWS = {
    "fifo": [
        [0, 10, 37, 20, 47],
        [57, 3, 30, 40, 13],
        [23, 50, 6, 33, 60],
        [16, 43, 53, 26, 36],
        [63, 9, 19, 46],
    ],
    "edf": [
        [0, 57, 37, 3, 47],
        [13, 40, 6, 50, 16],
        [60, 26, 53, 19, 63],
        [9, 10, 20, 30, 23],
    ],
}


def _backlogged_windows(scheduling):
    """Windows of 5 pulled from three backlogged tenants: eight bursts
    1/64 s apart, one request per tenant each, submitted in a rotating
    tenant order under scrambled req_ids. ``a`` (weight 1, 31.25 ms SLO)
    and ``b`` (weight 2, 62.5 ms) tie on deadline exactly two bursts
    apart, so the deficit breaks the ties; ``c`` (weight 4) is
    best-effort. Under "edf", windows are pulled while a deadline is
    queued."""
    tenants = (
        TenantSpec("a", 1.0, slo_ms=31.25),
        TenantSpec("b", 2.0, slo_ms=62.5),
        TenantSpec("c", 4.0),
    )
    server = Server(
        ServeConfig(max_queue=64, max_batch=5, cache=False, scheduling=scheduling),
        tenants=tenants,
    )
    job = _job()
    for i in range(24):
        burst, k = divmod(i, 3)
        req = ServeRequest(
            req_id=(37 * i) % 64,
            tenant=tenants[(burst + k) % 3].name,
            arrival=burst / 64,
            job=job,
        )
        assert server.submit(req, now=req.arrival) is None
    windows = []
    while server.pending():
        if scheduling == "edf" and not any(
            math.isfinite(r.deadline)
            for t in server._tenants.values()
            for r in t.queue
        ):
            break
        windows.append([r.req_id for r in server._select_window(now=0.0)])
    return windows


@pytest.mark.parametrize("scheduling", ["fifo", "edf"])
def test_backlogged_windows_match_recorded_picks(scheduling):
    """FIFO windows, and EDF windows while a deadline is queued, are the
    ones recorded from the separate FIFO and EDF loops."""
    assert _backlogged_windows(scheduling) == BACKLOGGED_WINDOWS[scheduling]


def test_banked_deficit_is_capped_and_idle_tenants_bank_nothing():
    """Tenants passed over for an earlier deadline bank credit by weight
    up to ``4 * max(1, weight)`` and no further; an idle tenant's bank
    empties."""
    tenants = (
        TenantSpec("a", 1.0, slo_ms=1e6),
        TenantSpec("b", 0.5),
        TenantSpec("c", 2.0),
    )
    server = Server(
        ServeConfig(max_queue=64, max_batch=8, cache=False), tenants=tenants
    )
    job = _job()
    for rid, name in enumerate(["a"] * 40 + ["b", "b", "c", "c"]):
        assert server.submit(
            ServeRequest(req_id=rid, tenant=name, arrival=0.0, job=job)
        ) is None
    for _ in range(4):
        # 32 picks, every one a deadline: b and c bank 1/7 and 4/7 a pick
        assert {r.tenant for r in server._select_window(now=0.0)} == {"a"}
    tenant = server._tenants
    assert (tenant["b"].deficit, tenant["c"].deficit) == (4.0, 8.0)
    while server.pending():
        server._select_window(now=0.0)
    assert server._select_window(now=0.0) == []
    assert {t.deficit for t in tenant.values()} == {0.0}


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
        outcome = serve_trace(server, trace, timer=StepTimer(step=0.004))
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
        outcome = serve_trace(server, trace, timer=StepTimer(step=0.004))
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
        outcome = serve_trace(server, trace, timer=StepTimer(step=0.003))
    m = outcome.metrics
    assert len(outcome.responses) == len(trace)
    assert m.submitted == m.admitted + m.rejected
    assert m.admitted == m.completed + m.failed + m.shed
    assert m.failed == 0
    assert m.slo_total == m.submitted
    assert m.slo_met + m.slo_missed == m.completed
    assert server.pending() == 0
    # no leaked per-request bookkeeping: no record queued, no deadline counted
    assert not any(t.queue for t in server._tenants.values())
    assert server._deadlines == 0
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
    sims = [server._sim_time(job)]
    pricer.observe_batch([job], elapsed=0.1, n_runs=1, sims=sims)
    assert pricer.price(job, server._sim_time) is not None

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
    sims = [server._sim_time(job)]
    pricer.observe_batch([job], elapsed=5.0, n_runs=1, sims=sims)
    resp = server.submit(
        ServeRequest(req_id=1, tenant="t", arrival=0.0, job=job), now=0.0
    )
    assert resp is None  # admitted: the probe priced it at zero
    done = server.drain(now=0.0)
    assert [r.status for r in done] == ["cached"]


# -------------------------------------------------------- adaptive batching
def test_adaptive_window_tracks_deadline_slack():
    tenants = (TenantSpec("t", 1.0, slo_ms=1000.0),)
    config = ServeConfig(max_queue=64, max_batch=8, adaptive_batch=True, cache=False)
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
    # almost no slack -> clamp to a one-request window
    assert server._window_limit(0.999) == 1
    # past the deadline -> smallest (urgent) window
    assert server._window_limit(2.0) == 1
    # heavy expected coalescing stretches the window: at 50% unique,
    # the same slack fits 8 dispatches again
    server._unique_frac = 0.5
    assert server._window_limit(0.79) == 8


def _wrong(trace: list, outcome) -> list:
    """The verdicts of :func:`repro.serve.judge` on a replay's wrong
    responses, each against a fresh one-shot oracle."""
    jobs = {req.req_id: req.job for req in trace}
    oracle = functools.cache(oneshot_oracle)
    verdicts = (judge(jobs[r.req_id], r, oracle) for r in outcome.responses)
    return [v for v in verdicts if v is not None]


# ------------------------------------------------------- gpu_uvm round-trip
def test_gpu_uvm_jobspec_roundtrip_matches_direct_run():
    """A picklable gpu_uvm JobSpec run by :func:`run_jobspec` (what
    ``run_ordered``'s process pool runs in its workers) reproduces a
    direct engine run bit-exactly."""
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
    """UVM jobs are priced like every other engine's, by their own
    timing-only run calibrated by observed wall, and serve correctly."""
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
        ServeConfig(max_queue=len(trace) + 1, max_batch=4),
        tenants=tenants,
        cache=RunCache(disk=None),
        pricer=pricer,
    ) as server:
        outcome = serve_trace(server, trace)
    m = outcome.metrics
    assert m.completed == len(trace)
    assert _wrong(trace, outcome) == []
    assert m.failed == 0
    # the price's memoized sim_time is the dispatched run's
    job = trace[0].job
    sim = pricer._sim.get((job.dataset, job.engine, job.config))
    assert isinstance(sim, float)
    served = {r.req_id: r for r in outcome.responses}[trace[0].req_id]
    assert sim == served.result.sim_time
    assert pricer.price(job, server._sim_time) is not None
    assert pricer.run_wall is not None


def test_server_memos_hold_their_bounds_past_many_recipes():
    """An SLO trace over more distinct jobs and engine specs than the
    pricer and engine memos hold: each memo ends at its bound, and every
    response is still bit-equal to its one-shot oracle."""
    from repro.memo import MEMO_STATS

    spec = TraceSpec(
        seed=5,
        duration=1.0,
        rate=40.0,
        data_bytes=128 * KiB,
        n_dataset_seeds=3,
        engines=("bigkernel", "gpu_double", "gpu_uvm"),
        chunk_kib_choices=(32, 64),
        repeat_p=0.3,
    )
    trace = generate_trace(spec)
    distinct = {(r.job.dataset, r.job.engine, r.job.config) for r in trace}
    assert len(distinct) > 4 and len({r.job.engine for r in trace}) == 3
    tenants = with_slo(spec.tenants, 10_000.0)
    with Server(
        ServeConfig(max_queue=len(trace) + 1, max_batch=4),
        tenants=tenants,
        cache=RunCache(disk=None),
    ) as server:
        memos = (server.pricer._sim, server._engines)
        before = [MEMO_STATS[memo.name]["evictions"] for memo in memos]
        for memo, bound in zip(memos, (4, 2)):
            memo.maxsize = bound
        outcome = serve_trace(server, trace)
    m = outcome.metrics
    assert m.completed == len(trace) and m.failed == 0
    assert _wrong(trace, outcome) == []
    for memo, evictions in zip(memos, before):
        assert len(memo) == memo.maxsize
        assert MEMO_STATS[memo.name]["evictions"] > evictions


def test_pricer_calibrates_each_engine_spec_apart():
    """The batcher runs each engine spec as its own batch, so each spec is
    its own pricing cell: an observed overlap-only BigKernel batch does not
    price a full-feature BigKernel job with its ratio."""
    from repro.bench.jobs import engine_to_spec
    from repro.engines import BigKernelEngine, BigKernelFeatures

    full = _job()
    overlap = JobSpec(
        full.dataset,
        engine_to_spec(BigKernelEngine(BigKernelFeatures.overlap_only())),
        full.config,
    )
    pricer = JobPricer()
    with Server(ServeConfig(cache=False)) as server:
        pricer.observe_batch([overlap], 0.01, 1, [server._sim_time(overlap)])
        assert pricer.price(overlap, server._sim_time) is not None
        assert pricer.price(full, server._sim_time) is None


def _priced_jobs() -> list:
    """Every registered engine, overlap-only BigKernel and a two-GPU
    BigKernel, each on Word Count and K-means; then a BigKernel job with a
    PCIe-degrade fault plan and a UVM job with the fast path off."""
    from repro.bench.jobs import engine_to_spec
    from repro.engines import ENGINES, BigKernelEngine, BigKernelFeatures
    from repro.faults import FaultPlan

    engines = {name: engine_spec_by_name(name) for name in ENGINES}
    engines["bigkernel_overlap_only"] = engine_to_spec(
        BigKernelEngine(BigKernelFeatures.overlap_only())
    )
    engines["bigkernel_multigpu2"] = engine_spec_by_name("bigkernel_multigpu2")
    config = EngineConfig(chunk_bytes=32 * KiB)
    datasets = {
        app: DatasetSpec(app=app, seed=3, n_bytes=128 * KiB, version=DATAGEN_VERSION)
        for app in ("wordcount", "kmeans")
    }
    jobs = [
        pytest.param(JobSpec(dataset, engine, config), id=f"{name}-{app}")
        for name, engine in engines.items()
        for app, dataset in datasets.items()
    ]
    degrade = config.with_(faults=FaultPlan().pcie.degrade(4.0))
    jobs.append(pytest.param(
        JobSpec(datasets["wordcount"], engines["bigkernel"], degrade),
        id="bigkernel-wordcount-pcie_degrade",
    ))
    jobs.append(pytest.param(
        JobSpec(datasets["wordcount"], engines["gpu_uvm"], config.with_(fastpath=False)),
        id="gpu_uvm-wordcount-no_fastpath",
    ))
    return jobs


@pytest.mark.parametrize("job", _priced_jobs())
def test_a_price_equals_the_run_it_prices(job):
    """The sim_time a job is priced from is the one its dispatched run
    returns, and the one-shot oracle's."""
    from repro.serve import oneshot_oracle
    from repro.serve.scheduler import matches_oracle

    tenants = (TenantSpec("t", 1.0, slo_ms=1e9),)
    with Server(ServeConfig(cache=False), tenants=tenants) as server:
        assert server.submit(
            ServeRequest(req_id=0, tenant="t", arrival=0.0, job=job), now=0.0
        ) is None
        (resp,) = server.drain()
    priced = server.pricer._sim.get((job.dataset, job.engine, job.config))
    oracle = oneshot_oracle(job)
    assert resp.status == "served"
    assert priced == resp.result.sim_time == oracle.sim_time
    assert matches_oracle(job, resp.result, oracle)


@pytest.fixture
def simulations(monkeypatch):
    """Every simulation made so far, by kind: ``"pipeline"`` for a
    BigKernel ``run_pipeline`` call (closed form or DES), ``"uvm"`` for a
    paging DES and ``"des"`` for any DES run (``Environment.run``)."""
    import repro.engines.bigkernel as bigkernel
    from repro.engines.uvm import _UvmSimulation
    from repro.sim.core import Environment

    made = []

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            made.append(kind)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        bigkernel, "run_pipeline", counting("pipeline", bigkernel.run_pipeline)
    )
    monkeypatch.setattr(
        _UvmSimulation, "execute", counting("uvm", _UvmSimulation.execute)
    )
    monkeypatch.setattr(Environment, "run", counting("des", Environment.run))
    return made


def test_dispatch_after_pricing_plans_nothing(simulations):
    """Pricing plans and memoizes on the engine dispatch uses: while priced
    fault-free jobs dispatch, no BigKernel schedule or UVM plan is computed
    again, and nothing simulates, K-means's DES-bound BigKernel runs
    included. Each dispatched run replays the priced timeline, trace and
    all, and equals its one-shot oracle."""
    from repro.memo import MEMO_STATS
    from repro.serve import oneshot_oracle
    from repro.serve.scheduler import matches_oracle

    jobs = [
        JobSpec(
            DatasetSpec(app=app, seed=4, n_bytes=256 * KiB, version=DATAGEN_VERSION),
            engine_spec_by_name(engine),
            EngineConfig(chunk_bytes=chunk * KiB),
        )
        for app in ("wordcount", "kmeans")
        for engine in ("bigkernel", "gpu_uvm")
        for chunk in (64, 128)
    ]
    tenants = (TenantSpec("t", 1.0, slo_ms=1e9),)
    memos = ("bigkernel.schedule", "uvm.plan")
    with Server(ServeConfig(max_queue=len(jobs), cache=False), tenants=tenants) as server:
        for req_id, job in enumerate(jobs):
            assert server.submit(
                ServeRequest(req_id=req_id, tenant="t", arrival=0.0, job=job), now=0.0
            ) is None
        # at pricing: one pipeline run per BigKernel job, one paging DES
        # per UVM dataset
        assert simulations.count("pipeline") == 4
        assert simulations.count("uvm") == 2
        misses = {name: MEMO_STATS[name]["misses"] for name in memos}
        del simulations[:]
        responses = server.drain()
    assert [r.status for r in responses] == ["served"] * len(jobs)
    assert {name: MEMO_STATS[name]["misses"] for name in memos} == misses
    assert simulations == []
    for r in responses:
        job = jobs[r.req_id]
        # a timeline from a DES (paging, or K-means's mapped writes) has a
        # trace; the closed form records none
        took_des = job.engine.name == "gpu_uvm" or job.dataset.app == "kmeans"
        assert (r.result.trace is not None) == took_des
        assert matches_oracle(job, r.result, oneshot_oracle(job))


# ----------------------------------------------------------- memoized model
def test_predicted_sim_time_memoizes():
    from repro.analytic import predicted_sim_time
    from repro.apps.base import get_app
    from repro.memo import MEMO_STATS

    app = get_app("wordcount")
    data = app.generate(n_bytes=128 * KiB, seed=0)
    config = EngineConfig(chunk_bytes=64 * KiB)
    before = dict(MEMO_STATS["analytic.predict"])
    first = predicted_sim_time(app, data, config, "bigkernel")
    second = predicted_sim_time(app, data, config, "bigkernel")
    after = MEMO_STATS["analytic.predict"]
    assert first == second
    assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 2
    assert after["hits"] >= before["hits"] + 1
