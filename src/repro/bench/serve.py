"""Serving-throughput benchmark: batched multi-tenant server vs naive loop.

The baseline is the cost model of running the CLI once per request: every
job re-imports nothing but *regenerates its dataset, rebuilds its engine,
and replans its schedule from scratch* — exactly what ``repro run`` pays.
The server amortizes all three (dataset pool, engine pool, schedule /
fastpath / hash memos) and short-circuits exact repeats through the run
cache, so on a repeat-heavy trace it should clear several times the naive
throughput.

Three load levels exercise the full policy surface on the *same* job mix:

- ``saturation`` — every request arrives at t≈0 with an unbounded queue;
  makespan is pure service time, so completed/makespan measures the
  server's *capacity*. This is the number the ≥3x speedup claim is made
  against.
- ``moderate`` — open-loop arrivals at 2x the measured naive service
  rate: sustained load a naive loop could not hold, served with low
  queueing delay.
- ``overload`` — arrivals at 20x the naive rate into a small queue:
  admission control must shed load (rejections > 0) while everything
  admitted still completes.

Timing and verification are strictly separated: the servers only serve,
then every response is judged by :func:`repro.serve.judge` against a
fresh one-shot oracle recorded during the naive pass.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.sweep import RunCache
from repro.errors import ReproError
from repro.serve.pricing import JobPricer
from repro.serve.scheduler import (
    ServeConfig,
    Server,
    judge,
    oneshot_oracle,
    serve_trace,
)
from repro.serve.workload import TraceSpec, generate_trace, scale_trace, with_slo
from repro.units import KiB

#: default job mix: ~60 requests, repeat-heavy, two apps x two chunk sizes
DEFAULT_TRACE = TraceSpec(
    seed=23,
    duration=3.0,
    rate=20.0,
    data_bytes=512 * KiB,
    n_dataset_seeds=2,
    chunk_kib_choices=(256, 512),
    repeat_p=0.55,
)


@dataclass
class LoadLevel:
    """One measured operating point of the server."""

    label: str
    #: offered arrival rate (requests/second; inf for saturation)
    offered_rate: float
    jobs_per_sec: float
    p50: float
    p99: float
    rejected: int
    cached: int
    coalesced: int
    served: int
    engine_runs: int
    makespan: float


def _verify(trace: list, replays: tuple, oracles: dict) -> tuple:
    """``(judged, wrong)``: every response of every replay of ``trace``,
    judged against the one-shot oracles ``oracles`` (keyed by job)."""
    jobs = {req.req_id: req.job for req in trace}
    verdicts = [
        judge(jobs[resp.req_id], resp, oracles.__getitem__)
        for responses in replays
        for resp in responses
    ]
    return len(verdicts), sum(v is not None for v in verdicts)


@dataclass
class ServeBenchResult:
    n_requests: int
    naive_seconds: float
    naive_jobs_per_sec: float
    levels: list = field(default_factory=list)
    #: responses judged, and those judged wrong (:func:`repro.serve.judge`)
    verified: int = 0
    verify_failures: int = 0

    @property
    def capacity_speedup(self) -> float:
        """Saturation-level server throughput over the naive loop's."""
        for level in self.levels:
            if level.label == "saturation":
                return level.jobs_per_sec / self.naive_jobs_per_sec
        raise ReproError("benchmark did not run a saturation level")

    def figure_entry(self) -> dict:
        entry = {
            "name": "serve_throughput",
            "n_requests": self.n_requests,
            "naive_jobs_per_sec": round(self.naive_jobs_per_sec, 2),
            "speedup_vs_naive": round(self.capacity_speedup, 2),
            "verified": self.verified,
            "verify_failures": self.verify_failures,
        }
        for level in self.levels:
            entry[level.label] = {
                "offered_rate": (
                    None
                    if not np.isfinite(level.offered_rate)
                    else round(level.offered_rate, 2)
                ),
                "jobs_per_sec": round(level.jobs_per_sec, 2),
                "p50_s": round(level.p50, 5),
                "p99_s": round(level.p99, 5),
                "rejected": level.rejected,
                "cached": level.cached,
                "coalesced": level.coalesced,
                "engine_runs": level.engine_runs,
            }
        return entry

    def summary(self) -> str:
        lines = [
            f"naive loop: {self.n_requests} jobs in {self.naive_seconds:.2f}s "
            f"= {self.naive_jobs_per_sec:.2f} jobs/s",
            f"capacity speedup: {self.capacity_speedup:.2f}x",
        ]
        for level in self.levels:
            lines.append(
                f"  {level.label}: {level.jobs_per_sec:.2f} jobs/s "
                f"p50={level.p50:.4f}s p99={level.p99:.4f}s "
                f"rejected={level.rejected} cached={level.cached} "
                f"engine_runs={level.engine_runs}"
            )
        lines.append(
            f"verified {self.verified} responses, "
            f"{self.verify_failures} failures"
        )
        return "\n".join(lines)


def _serve_level(
    label: str,
    requests: list,
    offered_rate: float,
    config: ServeConfig,
    timer,
) -> tuple:
    """Run one load level on a fresh server; returns (level, responses)."""
    # memory-only cache: the benchmark must not depend on (or pollute)
    # whatever .repro-cache directory the host happens to have
    with Server(config, cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, requests, timer=timer)
    m = outcome.metrics
    level = LoadLevel(
        label=label,
        offered_rate=offered_rate,
        jobs_per_sec=outcome.jobs_per_sec,
        p50=m.p50,
        p99=m.p99,
        rejected=m.rejected,
        cached=m.cached,
        coalesced=m.coalesced,
        served=m.served,
        engine_runs=m.engine_runs,
        makespan=outcome.makespan,
    )
    return level, outcome.responses


def run_serve_benchmark(
    spec: TraceSpec = DEFAULT_TRACE,
    max_batch: int = 8,
    overload_queue: int = 16,
    timer=time.perf_counter,
) -> ServeBenchResult:
    """Measure naive vs batched serving on one trace; verify bit-equality."""
    trace = generate_trace(spec)
    if not trace:
        raise ReproError("trace spec produced no requests")

    # --- naive baseline: fresh app + dataset + engine per request, no
    # caches — and record each unique job's first result as the oracle
    oracles: dict = {}
    start = timer()
    for req in trace:
        oracles.setdefault(req.job, oneshot_oracle(req.job))
    naive_seconds = max(timer() - start, 1e-9)
    naive_rate = len(trace) / naive_seconds

    result = ServeBenchResult(
        n_requests=len(trace),
        naive_seconds=naive_seconds,
        naive_jobs_per_sec=naive_rate,
    )

    # --- saturation: everything arrives at once, queue unbounded ---
    burst = scale_trace(trace, 1e-9)
    level, responses = _serve_level(
        "saturation",
        burst,
        float("inf"),
        ServeConfig(max_queue=len(trace) + 1, max_batch=max_batch),
        timer,
    )
    result.levels.append(level)
    replays = [responses]

    # --- moderate: open loop at 2x the naive service rate ---
    moderate = scale_trace(trace, spec.rate / (2.0 * naive_rate))
    level, responses = _serve_level(
        "moderate",
        moderate,
        2.0 * naive_rate,
        ServeConfig(max_queue=64, max_batch=max_batch),
        timer,
    )
    result.levels.append(level)
    replays.append(responses)

    # --- overload: 20x the naive rate into a small queue ---
    overload = scale_trace(trace, spec.rate / (20.0 * naive_rate))
    level, responses = _serve_level(
        "overload",
        overload,
        20.0 * naive_rate,
        ServeConfig(max_queue=overload_queue, max_batch=max_batch),
        timer,
    )
    result.levels.append(level)
    replays.append(responses)

    result.verified, result.verify_failures = _verify(trace, replays, oracles)
    return result


#: default job mix for the SLO benchmark: more unique work (lower repeat
#: probability, more dataset seeds) than the throughput trace, so queueing
#: delay — not the cache — dominates under overload
DEFAULT_SLO_TRACE = TraceSpec(
    seed=29,
    duration=3.0,
    rate=60.0,
    data_bytes=256 * KiB,
    n_dataset_seeds=3,
    chunk_kib_choices=(256, 512),
    repeat_p=0.3,
)


@dataclass
class SloPolicyResult:
    """One scheduling policy's outcome on the overloaded SLO'd trace."""

    label: str
    p99: float
    p50: float
    attainment: float
    slo_met: int
    slo_total: int
    completed: int
    shed: int
    rejected: int
    rejected_predicted: int
    engine_runs: int
    makespan: float

    def as_dict(self) -> dict:
        return {
            "p99_s": round(self.p99, 5),
            "p50_s": round(self.p50, 5),
            "attainment": round(self.attainment, 4),
            "slo_met": self.slo_met,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "rejected_predicted": self.rejected_predicted,
            "engine_runs": self.engine_runs,
        }


@dataclass
class ServeSloResult:
    """FIFO/fixed-window baseline vs EDF + admission + adaptive batching."""

    n_requests: int
    slo_ms: float
    overload: float
    capacity_jobs_per_sec: float
    fifo: SloPolicyResult
    edf: SloPolicyResult
    #: responses judged, and those judged wrong (:func:`repro.serve.judge`)
    verified: int = 0
    verify_failures: int = 0

    @property
    def p99_improvement(self) -> float:
        """FIFO's completed-p99 over EDF's (higher = EDF wins)."""
        if self.edf.p99 <= 0:
            return float("inf")
        return self.fifo.p99 / self.edf.p99

    def figure_entry(self) -> dict:
        return {
            "name": "serve_slo",
            "n_requests": self.n_requests,
            "slo_ms": round(self.slo_ms, 2),
            "overload_x": round(self.overload, 1),
            "capacity_jobs_per_sec": round(self.capacity_jobs_per_sec, 2),
            "p99_improvement": round(self.p99_improvement, 2),
            "fifo": self.fifo.as_dict(),
            "edf": self.edf.as_dict(),
            "verified": self.verified,
            "verify_failures": self.verify_failures,
        }

    def summary(self) -> str:
        return "\n".join(
            [
                f"{self.n_requests} requests at {self.overload:.0f}x capacity "
                f"({self.capacity_jobs_per_sec:.1f} jobs/s), "
                f"slo={self.slo_ms:.0f}ms",
                f"  fifo: p99={self.fifo.p99:.4f}s attainment="
                f"{100 * self.fifo.attainment:.1f}% shed={self.fifo.shed} "
                f"rejected={self.fifo.rejected}",
                f"  edf:  p99={self.edf.p99:.4f}s attainment="
                f"{100 * self.edf.attainment:.1f}% shed={self.edf.shed} "
                f"rejected={self.edf.rejected} "
                f"(predicted={self.edf.rejected_predicted})",
                f"  p99 improvement: {self.p99_improvement:.2f}x; verified "
                f"{self.verified} responses, {self.verify_failures} failures",
            ]
        )


def _slo_policy(
    label: str,
    requests: list,
    tenants: tuple,
    config: ServeConfig,
    pricer: JobPricer,
    timer,
) -> tuple:
    with Server(
        config, tenants=tenants, cache=RunCache(disk=None), pricer=pricer
    ) as server:
        outcome = serve_trace(server, requests, timer=timer)
    m = outcome.metrics
    attainment = m.slo_attainment()
    policy = SloPolicyResult(
        label=label,
        p99=m.p99,
        p50=m.p50,
        attainment=0.0 if attainment is None else attainment,
        slo_met=m.slo_met,
        slo_total=m.slo_total,
        completed=m.completed,
        shed=m.shed,
        rejected=m.rejected,
        rejected_predicted=m.rejected_predicted,
        engine_runs=m.engine_runs,
        makespan=outcome.makespan,
    )
    return policy, outcome.responses, m


def run_serve_slo_benchmark(
    spec: TraceSpec = DEFAULT_SLO_TRACE,
    overload: float = 20.0,
    slo_service_mult: float = 25.0,
    max_batch: int = 8,
    max_queue: int = 128,
    timer=time.perf_counter,
) -> ServeSloResult:
    """Deadline-blind FIFO vs price-guided EDF under deep overload.

    Phase 1 saturates a FIFO server on the un-deadlined trace to measure
    the machine's serving *capacity* and to warm one pricer (the
    wall/sim calibration transfers to both contestants as equal prior
    knowledge).  The SLO is then set relative to the measured mean
    service time — ``slo_service_mult`` mean-services — so the benchmark
    poses the same *relative* deadline pressure on any machine, and the
    trace is re-timed to ``overload`` times capacity.

    Phase 2 replays that overloaded trace twice with every tenant
    carrying the SLO: once on the baseline (``scheduling="fifo"``, fixed
    window, deadline-blind) and once on the full cost-aware stack
    (``scheduling="edf"`` + predictive admission + adaptive batching).
    Every response from both sides is judged by :func:`repro.serve.judge`:
    a completed one against a fresh one-shot oracle, and a shed or
    predictively rejected one must carry a typed
    :class:`~repro.errors.SloViolationError`.
    """
    trace = generate_trace(spec)
    if not trace:
        raise ReproError("trace spec produced no requests")

    oracles: dict = {}
    for req in trace:
        if req.job not in oracles:
            oracles[req.job] = oneshot_oracle(req.job)

    # --- phase 1: measure capacity and warm the pricer (no deadlines) ---
    pricer = JobPricer()
    burst = scale_trace(trace, 1e-9)
    with Server(
        ServeConfig(
            max_queue=len(trace) + 1, max_batch=max_batch, scheduling="fifo"
        ),
        tenants=spec.tenants,
        cache=RunCache(disk=None),
        pricer=pricer,
    ) as server:
        calibration = serve_trace(server, burst, timer=timer)
    capacity = calibration.jobs_per_sec
    if capacity <= 0 or calibration.metrics.completed == 0:
        raise ReproError("calibration run completed no requests")
    mean_service = calibration.makespan / calibration.metrics.completed
    slo_s = slo_service_mult * mean_service
    slo_ms = 1000.0 * slo_s

    # --- phase 2: the same work at `overload`x capacity, every tenant
    # carrying the measured-relative SLO ---
    slo_tenants = with_slo(spec.tenants, slo_ms)
    overloaded = scale_trace(trace, spec.rate / (overload * capacity))

    fifo_policy, fifo_responses, _ = _slo_policy(
        "fifo",
        overloaded,
        slo_tenants,
        ServeConfig(
            max_queue=max_queue, max_batch=max_batch, scheduling="fifo"
        ),
        copy.deepcopy(pricer),
        timer,
    )
    edf_policy, edf_responses, _ = _slo_policy(
        "edf",
        overloaded,
        slo_tenants,
        ServeConfig(
            max_queue=max_queue,
            max_batch=max_batch,
            scheduling="edf",
            adaptive_batch=True,
        ),
        copy.deepcopy(pricer),
        timer,
    )

    result = ServeSloResult(
        n_requests=len(trace),
        slo_ms=slo_ms,
        overload=overload,
        capacity_jobs_per_sec=capacity,
        fifo=fifo_policy,
        edf=edf_policy,
    )
    result.verified, result.verify_failures = _verify(
        trace, (fifo_responses, edf_responses), oracles
    )
    return result
