"""Multi-tenant serving core: admission, cost-aware scheduling, batching.

The :class:`Server` owns per-tenant bounded queues. :meth:`Server.submit`
is admission control: when the total backlog reaches ``max_queue`` the
request is rejected immediately (a terminal :class:`ServeResponse`), so
overload degrades by shedding load instead of growing latency without
bound.  Tenants may carry a latency SLO
(:attr:`~repro.serve.workload.TenantSpec.slo_ms`); every request of an
SLO'd tenant gets the deadline ``arrival + slo`` on the serving clock,
and the scheduler becomes *cost-aware* end to end:

- **Online pricing** — every enqueued job is priced in wall seconds by
  the :class:`~repro.serve.pricing.JobPricer`: the ``sim_time`` of one
  timing-only run of the job on the pooled engine and dataset dispatch
  will use, scaled by an EWMA wall/sim ratio the server learns from the
  simulated times of every timed batch (per (app, engine) cell — one
  batch is exactly one cell).  The pricing run plans and memoizes what
  dispatch then reuses, and every engine is priced the same way.
- **Predictive admission** — a request whose deadline is provably
  unreachable at enqueue (``now`` + priced earlier-deadline backlog +
  its own price exceeds the deadline) is rejected immediately with a
  typed :class:`~repro.errors.SloViolationError` instead of wasting
  queue space and an engine run.  Unpriced backlogs never reject.
- **EDF dispatch** — when any queued request has a finite deadline, the
  window is picked earliest-deadline-first with the WDRR deficit as the
  tiebreak, so equal deadlines still resolve toward the weights.  With
  no deadlines in the queues the window selection *is* the classic
  weighted deficit round-robin, unchanged.
- **Shedding** — a queued request whose deadline has already passed at
  dispatch-pick time is provably doomed (its completion would be ``>=
  now > deadline``), so it is dropped as a typed ``"shed"`` terminal
  without burning an engine run.  Only already-doomed requests shed.
- **Adaptive batching** — with ``adaptive_batch`` the dispatch window
  shrinks so one round's predicted service (per-run wall EWMA x the
  recent unique fraction) fits the tightest deadline slack in queue,
  and grows back to ``max_batch`` when slack is plentiful.

Each batch (same engine spec, app, hardware) runs as one pipeline
pass: exact repeats are short-circuited through the two-tier
:class:`~repro.bench.sweep.RunCache` with *zero* engine runs, duplicate
jobs inside the window collapse onto a single leader run (followers are
``coalesced``), and each surviving unique job is one
:meth:`~repro.engines.base.Engine.run` on a *shared* dataset instance —
which is what keeps the functional-pass memo, BigKernel's schedule
memoization, the fastpath template memo and the per-dataset hashes warm
across jobs.

The server's cache identity is the job's *recipe*
(:meth:`~repro.bench.sweep.RunCache.recipe_key`: dataset recipe, engine,
frozen config), never a dataset instance.  Every cache probe — admission
and dispatch, memory and disk tier — is answered without a dataset in
hand, and a cached result outlives its dataset's eviction from the pool.

The pool bounds how many datasets hold their arrays.  The dataset it
evicts drops only its arrays and moves into the server's store, bounded by
:data:`STORE_BYTES`, with what was derived from them: the functional-pass
memo, the separator index, the fingerprint that keys BigKernel's memos,
the generator's tables.  A stored dataset stands in for a full one:
pricing it reads no bytes, and neither does a run whose pass is memoized,
whatever its chunking.  A dataset is generated the first time its recipe
is priced or run in this process, and regenerated only when a run needs a
pass its memo lacks (the recipe's first functional run after timing-only
ones), which reads the arrays it dropped.

:func:`serve_trace` replays an open-loop trace against a server on a
virtual clock: the clock jumps to the next arrival when idle and advances
by the *measured wall time* of each dispatch round, so latencies mix
queueing delay and real service cost in one consistent unit.  The clock
is not charged for :meth:`Server.submit`, which prices and admits.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.apps.base import get_app
from repro.bench.jobs import DatasetSpec, EngineSpec, JobSpec, engine_from_spec
from repro.bench.sweep import RunCache, run_digest
from repro.engines.base import Engine, RunResult
from repro.errors import ReproError, SloViolationError
from repro.memo import Memo
from repro.serve.batcher import Batch, batch_key, coalesce, unique_key
from repro.serve.metrics import ServeMetrics
from repro.serve.pricing import JobPricer
from repro.serve.workload import DEFAULT_TENANTS, ServeRequest, TenantSpec
from repro.units import MiB

#: bound on the bytes held by the datasets in a server's store: those the
#: pool evicted, which dropped their arrays and kept their functional
#: outputs, separator indexes and generator tables. The benchmark's
#: ``serve_slo_edf`` trace ends with 40 stored datasets holding 12.5 MiB
#: (7.1 MiB of functional outputs, 4.0 of separator indexes, 1.4 of
#: generator tables) and ``serve_repeat_spill`` with 16 holding 8.7 MiB.
STORE_BYTES = 64 * MiB


def _array_bytes(value) -> int:
    """Bytes of the arrays in ``value`` and the dicts, lists and tuples
    nested in it, each array counted once."""
    sizes: dict = {}
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            sizes[id(item)] = item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return sum(sizes.values())


@dataclass(frozen=True)
class ServeConfig:
    """Server policy knobs."""

    #: total backlog across tenants before admission control rejects
    max_queue: int = 64
    #: dispatch window size (upper bound on one round's batch)
    max_batch: int = 8
    #: run-result caching in a memory-tier :class:`RunCache`, unless the
    #: server is handed a cache (one with a disk tier, say)
    cache: bool = True
    #: datasets kept with their arrays (LRU) for cross-request reuse; an
    #: evicted one drops its arrays and keeps what was derived from them in
    #: the server's store (:data:`STORE_BYTES`)
    dataset_pool: int = 8
    #: "edf" = deadline-aware scheduling (identical to WDRR while no
    #: queued request carries a finite deadline); "fifo" = deadline-blind
    #: global arrival order, the fixed baseline the benchmark beats
    scheduling: str = "edf"
    #: size dispatch windows from priced deadline slack instead of always
    #: coalescing up to max_batch
    adaptive_batch: bool = False

    def __post_init__(self):
        if self.max_queue < 1 or self.max_batch < 1:
            raise ReproError("max_queue and max_batch must be >= 1")
        if self.dataset_pool < 1:
            raise ReproError("dataset_pool must be >= 1")
        if self.scheduling not in ("edf", "fifo"):
            raise ReproError("scheduling must be 'edf' or 'fifo'")


#: terminal states a request can reach
STATUSES = ("served", "coalesced", "cached", "rejected", "failed", "shed")


@dataclass
class ServeResponse:
    """Terminal outcome of one request."""

    req_id: int
    tenant: str
    #: one of :data:`STATUSES`
    status: str
    arrival: float
    dispatch: float = math.nan
    completion: float = math.nan
    batch_id: int = -1
    #: serving-clock deadline (``arrival + slo``; ``inf`` = best-effort)
    deadline: float = math.inf
    error: Optional[str] = None
    result: Optional[RunResult] = field(default=None, repr=False)
    #: the typed failure, kept for judges (chaos serve mode re-grades it)
    exception: Optional[Exception] = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


def oneshot_oracle(job: JobSpec) -> RunResult:
    """Fresh one-shot run of a job — new app, newly generated dataset, new
    engine, no caches. The ground truth a served response must bit-match."""
    job.dataset.check_version("oracle")
    app = get_app(job.dataset.app)
    data = app.generate(n_bytes=job.dataset.n_bytes, seed=job.dataset.seed)
    return engine_from_spec(job.engine).run(app, data, job.config)


def bit_equal(a, b) -> bool:
    """Exact structural equality (rtol 0): the serving layer's contract is
    that batching and caching are *invisible*, so no tolerance applies."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and bool(np.array_equal(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(bit_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


def matches_oracle(job: JobSpec, result: RunResult, oracle: RunResult) -> bool:
    """Does a served result equal its one-shot oracle: ``sim_time``
    exactly, and the output :func:`bit_equal` when the job computed one?"""
    return result.sim_time == oracle.sim_time and (
        not job.config.functional or bit_equal(result.output, oracle.output)
    )


def judge(
    job: JobSpec,
    response: ServeResponse,
    oracle: Callable[[JobSpec], RunResult],
) -> Optional[str]:
    """What is wrong with ``response``, the served outcome of ``job``, or
    ``None`` when nothing is. The one rule every replay is judged by:

    - a ``failed`` response is wrong;
    - a ``shed`` response, or a rejection other than ``"queue full"``,
      must carry a typed :class:`~repro.errors.SloViolationError`;
    - a queue-full rejection is not wrong;
    - a completed response must :func:`matches_oracle` ``oracle(job)``,
      the job's one-shot oracle, which only a completed response asks for.
    """
    status = response.status
    if status == "failed":
        return response.error or "request failed"
    if status == "shed" or (status == "rejected" and response.error != "queue full"):
        if isinstance(response.exception, SloViolationError):
            return None
        return f"{status} response lacks a typed SloViolationError"
    if status == "rejected":
        return None
    got, want = response.result, oracle(job)
    if matches_oracle(job, got, want):
        return None
    if got.sim_time != want.sim_time:
        return f"sim_time {got.sim_time!r} != one-shot oracle's {want.sim_time!r}"
    return "output diverges from its one-shot oracle"


class Server:
    """Admission queue + deadline/WDRR scheduler + batched dispatcher."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        tenants: tuple = DEFAULT_TENANTS,
        cache: Optional[RunCache] = None,
        pricer: Optional[JobPricer] = None,
    ):
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        #: clock used to time dispatch rounds for pricer calibration;
        #: :func:`serve_trace` installs its own timer so virtual-clock
        #: replays calibrate (and schedule) deterministically when given
        #: a deterministic timer
        self.timer = time.perf_counter
        #: online wall-cost estimator; pass a warmed one to carry
        #: calibration across server lifetimes
        self.pricer = pricer if pricer is not None else JobPricer()
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._weights: dict = {}
        self._deficit: dict = {}
        self._slo: dict = {}
        for tenant in tenants:
            self.register_tenant(tenant)
        if cache is not None:
            self.cache: Optional[RunCache] = cache
        else:
            self.cache = RunCache() if self.config.cache else None
        #: recipe -> (app, data): the LRU dataset pool, the only datasets
        #: that may hold arrays
        self._datasets: "OrderedDict[DatasetSpec, tuple]" = OrderedDict()
        #: recipe -> (app, data, held bytes): the store, LRU under
        #: STORE_BYTES, of datasets the pool evicted with their arrays
        #: dropped
        self._store: "OrderedDict[DatasetSpec, tuple]" = OrderedDict()
        #: seconds on ``timer`` spent generating datasets
        self._generation_s = 0.0
        self._engines = Memo("serve.engines", 64)
        #: req_id -> (deadline, admission price or None) for queued requests
        self._meta: dict = {}
        #: EWMA of unique-jobs / window-size per round (adaptive batching
        #: discounts the window by how much coalescing is expected)
        self._unique_frac = 1.0
        self._batch_seq = 0

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._datasets.clear()
        self._store.clear()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------- admission
    def register_tenant(self, tenant: TenantSpec) -> None:
        if tenant.name not in self._queues:
            self._queues[tenant.name] = deque()
            self._deficit[tenant.name] = 0.0
        self._weights[tenant.name] = tenant.weight
        self._slo[tenant.name] = tenant.slo_seconds

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _deadline_of(self, req: ServeRequest) -> float:
        return self._meta.get(req.req_id, (math.inf, None))[0]

    def _cache_would_hit(self, job: JobSpec) -> bool:
        """Silent probe: would this job short-circuit through the cache?

        Keyed on the job's recipe, so the probe loads no dataset."""
        if self.cache is None or not job.dataset.current:
            return False
        engine = self._engine(job.engine)
        return self.cache.contains(RunCache.recipe_key(engine, job))

    def _admission_price(self, req: ServeRequest) -> Optional[float]:
        """Predicted wall cost of one enqueued request, cache-aware.

        A job the run cache would short-circuit costs (practically)
        nothing, whatever the model says — without the probe, repeat-heavy
        traces would predictively reject work the server serves for free.
        """
        if self._cache_would_hit(req.job):
            return 0.0
        return self.pricer.price(req.job, self._sim_time)

    def _sim_time(self, job: JobSpec) -> float:
        """``sim_time`` of a timing-only run of ``job`` on the engine and
        pooled dataset dispatch uses, which is the one dispatch returns:
        the plan the run makes and the timeline it keeps are memoized on
        those instances for dispatch to reuse."""
        app, data = self._dataset(job.dataset)
        config = job.config.with_(functional=False)
        return self._engine(job.engine).run(app, data, config).sim_time

    def _predicted_violation(
        self, req: ServeRequest, deadline: float, price: Optional[float], now: float
    ) -> Optional[str]:
        """Evidence string when the deadline is provably unreachable.

        Conservative: requires the request's own price *and* the price of
        every queued request with an earlier-or-equal deadline (the work
        EDF will serve first).  Any unpriced job in that set vetoes the
        rejection — admission only sheds on evidence, never on a guess.
        """
        if price is None:
            return None
        backlog = 0.0
        for queue in self._queues.values():
            for queued in queue:
                q_deadline, q_price = self._meta.get(
                    queued.req_id, (math.inf, None)
                )
                if q_deadline > deadline:
                    continue
                if q_price is None:
                    return None
                backlog += q_price
        eta = now + backlog + price
        if eta <= deadline:
            return None
        return (
            f"predicted completion {eta:.4f}s > deadline {deadline:.4f}s "
            f"(priced backlog {backlog:.4f}s + service {price:.4f}s "
            f"at t={now:.4f}s)"
        )

    def submit(self, req: ServeRequest, now: float = 0.0) -> Optional[ServeResponse]:
        """Admit a request, or reject it when the backlog is full or its
        deadline is already priced as unreachable.

        Returns the terminal rejection response, or ``None`` on admission
        (the response then comes out of a later :meth:`dispatch_round`).
        """
        if req.tenant not in self._queues:
            self.register_tenant(TenantSpec(req.tenant, 1.0))
        deadline = req.arrival + self._slo.get(req.tenant, math.inf)
        self.metrics.submitted += 1
        bucket = self.metrics.tenant(req.tenant)
        bucket["submitted"] += 1
        if math.isfinite(deadline):
            self.metrics.slo_total += 1
        if self.pending() >= self.config.max_queue:
            self.metrics.rejected += 1
            bucket["rejected"] += 1
            return ServeResponse(
                req_id=req.req_id,
                tenant=req.tenant,
                status="rejected",
                arrival=req.arrival,
                dispatch=now,
                completion=now,
                deadline=deadline,
                error="queue full",
            )
        price: Optional[float] = None
        if self.config.scheduling == "edf" and math.isfinite(deadline):
            price = self._admission_price(req)
            evidence = self._predicted_violation(req, deadline, price, now)
            if evidence is not None:
                self.metrics.rejected += 1
                self.metrics.rejected_predicted += 1
                bucket["rejected"] += 1
                exc = SloViolationError(evidence)
                return ServeResponse(
                    req_id=req.req_id,
                    tenant=req.tenant,
                    status="rejected",
                    arrival=req.arrival,
                    dispatch=now,
                    completion=now,
                    deadline=deadline,
                    error=str(exc),
                    exception=exc,
                )
        self.metrics.admitted += 1
        self._queues[req.tenant].append(req)
        self._meta[req.req_id] = (deadline, price)
        return None

    # --------------------------------------------------------- scheduling
    def _window_limit(self, now: float) -> int:
        """Dispatch window size for this round.

        Fixed at ``max_batch`` unless ``adaptive_batch`` is on and the
        pricer has calibrated: then the window is the largest one whose
        predicted service time (per-run wall x expected unique fraction)
        still fits the tightest deadline slack in the queues — large
        batches amortize while slack is plentiful, small urgent rounds
        ship when a deadline is close.
        """
        cfg = self.config
        if not cfg.adaptive_batch:
            return cfg.max_batch
        per_run = self.pricer.run_wall
        if per_run is None or per_run <= 0.0:
            return cfg.max_batch
        slack = math.inf
        for queue in self._queues.values():
            for queued in queue:
                deadline = self._deadline_of(queued)
                if math.isfinite(deadline):
                    slack = min(slack, deadline - now)
        if not math.isfinite(slack):
            return cfg.max_batch
        if slack <= 0.0:
            return 1
        limit = int(slack / (per_run * max(self._unique_frac, 0.05)))
        return max(1, min(cfg.max_batch, limit))

    def _select_wdrr(self, limit: int) -> list:
        """One classic WDRR dispatch window (up to ``limit`` requests)."""
        window: list = []
        while len(window) < limit:
            if not any(self._queues.values()):
                break
            for name, queue in self._queues.items():
                if not queue:
                    # an idle tenant banks no credit (standard DRR reset)
                    self._deficit[name] = 0.0
                    continue
                self._deficit[name] += self._weights[name]
                while (
                    queue
                    and self._deficit[name] >= 1.0
                    and len(window) < limit
                ):
                    window.append(queue.popleft())
                    self._deficit[name] -= 1.0
                if len(window) >= limit:
                    break
        return window

    def _select_fifo(self, limit: int) -> list:
        """Deadline-blind global arrival order (the baseline policy)."""
        window: list = []
        while len(window) < limit:
            best: Optional[str] = None
            for name, queue in self._queues.items():
                if not queue:
                    continue
                if best is None or (
                    (queue[0].arrival, queue[0].req_id)
                    < (
                        self._queues[best][0].arrival,
                        self._queues[best][0].req_id,
                    )
                ):
                    best = name
            if best is None:
                break
            window.append(self._queues[best].popleft())
        return window

    def _select_edf(self, limit: int) -> list:
        """EDF with WDRR-deficit tiebreak.

        Every pick takes the queue head with the earliest deadline; ties
        resolve to the tenant with the larger banked deficit (then
        registration order), and each pick charges the chosen tenant one
        unit while crediting the other backlogged tenants in proportion
        to their weights — so sustained equal-deadline contention
        converges to the same weighted shares WDRR would give.
        """
        window: list = []
        while len(window) < limit:
            best: Optional[str] = None
            best_key: Optional[tuple] = None
            for idx, (name, queue) in enumerate(self._queues.items()):
                if not queue:
                    self._deficit[name] = 0.0
                    continue
                key = (self._deadline_of(queue[0]), -self._deficit[name], idx)
                if best_key is None or key < best_key:
                    best_key, best = key, name
            if best is None:
                break
            window.append(self._queues[best].popleft())
            self._deficit[best] -= 1.0
            backlogged = [name for name, q in self._queues.items() if q]
            total = sum(self._weights[name] for name in backlogged)
            for name in backlogged:
                cap = 4.0 * max(1.0, self._weights[name])
                self._deficit[name] = min(
                    cap, self._deficit[name] + self._weights[name] / total
                )
        return window

    def _shed_doomed(self, now: float) -> list:
        """Remove every queued request whose deadline has already passed.

        Such a request is *provably* doomed: its completion would be
        ``>= now > deadline``, so dropping it can never cost a request
        that would have met its deadline.  Deadline-blind (fifo) servers
        never shed — that is the baseline's burden.
        """
        if self.config.scheduling != "edf":
            return []
        shed: list = []
        for queue in self._queues.values():
            if not queue:
                continue
            keep = [r for r in queue if not now > self._deadline_of(r)]
            if len(keep) != len(queue):
                shed.extend(r for r in queue if now > self._deadline_of(r))
                queue.clear()
                queue.extend(keep)
        return shed

    def _select_window(self, now: float = 0.0) -> list:
        """Pick one dispatch window (up to the adaptive window limit)."""
        limit = self._window_limit(now)
        if self.config.scheduling == "fifo":
            return self._select_fifo(limit)
        if any(
            math.isfinite(self._deadline_of(r))
            for q in self._queues.values()
            for r in q
        ):
            return self._select_edf(limit)
        return self._select_wdrr(limit)

    def dispatch_round(self, now: float = 0.0) -> list:
        """Select one window, execute it as batches, return its responses.

        Responses carry ``dispatch`` stamps but no ``completion`` — the
        caller knows when the round finished (wall-measured or virtual)
        and must pass the responses through :meth:`finish`.  Shed
        requests come back as typed terminals in the same list.
        """
        shed = self._shed_doomed(now)
        window = self._select_window(now)
        out: list = []
        for req in shed:
            resp = self._terminal(req, "shed", -1, now)
            exc = SloViolationError(
                f"deadline {resp.deadline:.4f}s had already passed at "
                f"dispatch time {now:.4f}s"
            )
            resp.error = str(exc)
            resp.exception = exc
            self.metrics.shed += 1
            out.append(resp)
        if window:
            responses: dict = {}
            for batch in coalesce(window):
                responses.update(self._execute_batch(batch, now))
            unique = len({(batch_key(r.job), unique_key(r.job)) for r in window})
            self._unique_frac = 0.7 * self._unique_frac + 0.3 * (
                unique / len(window)
            )
            out.extend(responses[req.req_id] for req in window)
        for req in window + shed:
            self._meta.pop(req.req_id, None)
        return out

    def finish(self, responses: list, completion: float) -> None:
        """Stamp completion times and fold the round into the metrics."""
        for resp in responses:
            resp.completion = completion
            self.metrics.observe_completion(
                resp.tenant,
                resp.completion - resp.arrival,
                resp.status,
                deadline=resp.deadline,
                completion=resp.completion,
            )

    def drain(self, now: float = 0.0) -> list:
        """Dispatch until the backlog is empty (no clock; completion=now)."""
        out: list = []
        while self.pending():
            round_resps = self.dispatch_round(now=now)
            self.finish(round_resps, now)
            out.extend(round_resps)
        return out

    # ---------------------------------------------------------- execution
    def _dataset(self, spec: DatasetSpec) -> tuple:
        """(app, data) for a recipe, via the server's LRU dataset pool and
        the store behind it.

        The pool feeds engine runs and the pricer, never cache lookups:
        those key on the recipe. A recipe the server does not hold is
        generated. A stored one comes back as the same object, arrays
        dropped, without generating; only a run that reads its arrays (a
        pass the functional memo has not seen) regenerates them. Sharing
        one ``AppData`` across the runs and prices of a recipe is what
        lets the engine-side memos (functional pass, schedule, fastpath
        template, dataset hash) hit: they key on the instance and its
        ``meta``.
        """
        entry = self._datasets.get(spec)
        if entry is not None:
            self._datasets.move_to_end(spec)
            return entry
        stored = self._store.pop(spec, None)
        if stored is not None:
            self.metrics.store_bytes -= stored[2]
            entry = stored[:2]
        else:
            spec.check_version("server")
            app = get_app(spec.app)
            entry = (app, self._generate(app, spec))
            self.metrics.datasets_generated += 1
        self._datasets[spec] = entry
        while len(self._datasets) > self.config.dataset_pool:
            self._keep(*self._datasets.popitem(last=False))
        return entry

    def _generate(self, app, spec: DatasetSpec):
        """The recipe's dataset, its generation timed on ``timer`` so that
        a timed batch leaves it out of its calibration sample."""
        start = self.timer()
        try:
            return app.generate(n_bytes=spec.n_bytes, seed=spec.seed)
        finally:
            self._generation_s += max(self.timer() - start, 0.0)

    def _keep(self, spec: DatasetSpec, entry: tuple) -> None:
        """Move a dataset the pool evicted into the store, arrays dropped.
        Past STORE_BYTES the store forgets whole entries, least recently
        used first."""
        app, data = entry

        def restore():
            self.metrics.datasets_restored += 1
            return self._generate(app, spec)

        data.drop(restore)
        held = _array_bytes(data.meta)
        self._store[spec] = (app, data, held)
        self.metrics.store_bytes += held
        while self.metrics.store_bytes > STORE_BYTES:
            self.metrics.store_bytes -= self._store.popitem(last=False)[1][2]
            self.metrics.store_evictions += 1

    def _engine(self, spec: EngineSpec) -> Engine:
        engine = self._engines.get(spec)
        if engine is None:
            engine = engine_from_spec(spec)
            self._engines.put(spec, engine)
        return engine

    def _terminal(
        self, req: ServeRequest, status: str, batch_id: int, now: float
    ) -> ServeResponse:
        return ServeResponse(
            req_id=req.req_id,
            tenant=req.tenant,
            status=status,
            arrival=req.arrival,
            dispatch=now,
            batch_id=batch_id,
            deadline=self._deadline_of(req),
        )

    def _execute_batch(self, batch: Batch, now: float) -> dict:
        """Run one compatibility batch; returns req_id -> response."""
        batch_id = self._batch_seq
        self._batch_seq += 1
        self.metrics.batches += 1
        self.metrics.largest_batch = max(
            self.metrics.largest_batch, len(batch.requests)
        )
        engine = self._engine(batch.engine_spec)
        responses: dict = {}

        # cache probe per unique job, keyed on its recipe: exact repeats
        # never reach the engine and need no dataset
        misses: list = []
        for reqs in batch.unique_jobs().values():
            job = reqs[0].job
            try:
                # before any probe: a stale recipe is never answered from
                # a disk entry written under its key
                job.dataset.check_version("server")
            except ReproError as exc:
                for req in reqs:
                    responses[req.req_id] = self._fail(req, batch_id, now, exc)
                continue
            key = disk_key = None
            hit = None
            if self.cache is not None:
                key = RunCache.recipe_key(engine, job)
                if self.cache.disk is not None and self.cache.disk.enabled:
                    disk_key = run_digest(key)
                hit = self.cache.get(key, disk_key)
            if hit is not None:
                for req in reqs:
                    resp = self._terminal(req, "cached", batch_id, now)
                    resp.result = hit
                    self.metrics.cached += 1
                    responses[req.req_id] = resp
            else:
                misses.append((reqs, key, disk_key))

        # timed engine-run section: one batch is one (app, engine) cell, so
        # its wall time, less the dataset generation inside it, is one clean
        # calibration sample for the pricer
        jobs = [reqs[0].job for reqs, *_ in misses]
        generation_s = self._generation_s
        start = self.timer()
        outcomes = self._run_unique(engine, jobs)
        generation_s = self._generation_s - generation_s
        elapsed = max(self.timer() - start - generation_s, 0.0)
        sims = [o.sim_time for o in outcomes if not isinstance(o, Exception)]
        if misses:
            self.pricer.observe_batch(jobs, elapsed, len(sims), sims)
        for (reqs, key, disk_key), outcome in zip(misses, outcomes):
            if isinstance(outcome, Exception):
                for req in reqs:
                    responses[req.req_id] = self._fail(req, batch_id, now, outcome)
                continue
            self.metrics.engine_runs += 1
            if self.cache is not None:
                self.cache.put(key, outcome, disk_key)
            for pos, req in enumerate(reqs):
                status = "served" if pos == 0 else "coalesced"
                resp = self._terminal(req, status, batch_id, now)
                resp.result = outcome
                if status == "served":
                    self.metrics.served += 1
                else:
                    self.metrics.coalesced += 1
                responses[req.req_id] = resp
        return responses

    def _fail(
        self, req: ServeRequest, batch_id: int, now: float, exc: Exception
    ) -> ServeResponse:
        resp = self._terminal(req, "failed", batch_id, now)
        resp.error = f"{type(exc).__name__}: {exc}"
        resp.exception = exc
        self.metrics.failed += 1
        return resp

    def _run_unique(self, engine: Engine, jobs: list) -> list:
        """Run unique jobs, each on its recipe's pooled dataset; one
        outcome (result or exception) each."""
        outcomes: list = []
        for job in jobs:
            try:
                app, data = self._dataset(job.dataset)
                outcomes.append(engine.run(app, data, job.config))
            except ReproError as exc:
                outcomes.append(exc)
        return outcomes


@dataclass
class ServeOutcome:
    """Result of replaying one trace against one server."""

    responses: list
    metrics: ServeMetrics
    #: virtual seconds from trace start to the last completion
    makespan: float
    #: summed measured wall time of all dispatch rounds
    wall_seconds: float

    @property
    def jobs_per_sec(self) -> float:
        """Sustained completion throughput over the virtual makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.metrics.completed / self.makespan

    def summary(self) -> str:
        lines = [
            f"makespan={self.makespan:.3f}s wall={self.wall_seconds:.3f}s "
            f"throughput={self.jobs_per_sec:.2f} jobs/s",
            self.metrics.summary(),
        ]
        return "\n".join(lines)


class StepTimer:
    """Deterministic clock for :func:`serve_trace`: every call advances
    by a fixed ``step`` of seconds, so a replay's timings, and every
    decision made from them, repeat exactly."""

    def __init__(self, step: float = 0.001):
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def serve_trace(
    server: Server, requests: list, timer=time.perf_counter
) -> ServeOutcome:
    """Replay an open-loop trace on a virtual clock.

    The clock jumps forward to the next arrival whenever the server goes
    idle, and advances by the *measured* wall duration of every dispatch
    round. All arrivals at or before the current clock are admitted before
    each round, so overload (arrivals outpacing service) fills the queue
    and exercises admission control exactly as a live server would.  The
    server calibrates its pricer with the same ``timer``, so a replay
    with a deterministic timer (:class:`StepTimer`) makes every
    scheduling, shedding and admission decision reproducible.

    ``submit`` is not charged to the clock: the pricing runs it makes (a
    job's first timing-only run, and any dataset generation it needs)
    and admission cost the replay nothing, so reported latencies leave
    them out.
    """
    server.timer = timer
    arrivals = sorted(requests, key=lambda r: (r.arrival, r.req_id))
    out: list = []
    clock = 0.0
    wall = 0.0
    i = 0
    n = len(arrivals)
    while i < n or server.pending():
        if not server.pending() and i < n:
            clock = max(clock, arrivals[i].arrival)
        while i < n and arrivals[i].arrival <= clock:
            rejection = server.submit(arrivals[i], now=clock)
            if rejection is not None:
                out.append(rejection)
            i += 1
        if not server.pending():
            continue
        start = timer()
        round_resps = server.dispatch_round(now=clock)
        elapsed = max(timer() - start, 0.0)
        wall += elapsed
        clock += elapsed
        server.finish(round_resps, clock)
        out.extend(round_resps)
    out.sort(key=lambda r: r.req_id)
    return ServeOutcome(
        responses=out, metrics=server.metrics, makespan=clock, wall_seconds=wall
    )
