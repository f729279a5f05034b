"""The benchmark's workloads: inputs, set-up, timed run and correctness gate.

Three serving workloads replay a seeded open-loop Poisson trace against a
:class:`~repro.serve.scheduler.Server` through :func:`replay`, the
benchmark's own open-loop replay; ``sweep_des`` runs the DES parameter sweep the way
``repro sweep`` / autotune does.  Each workload's offered load is fixed by
its definition and ``seconds`` alone, never by how fast the code under test
runs, so two commits always receive the same work.  Every timed call is
timed with a :class:`~hostspeed.ReferenceClock`, in reference seconds.

The run seed draws which tenant sends each request, or the order of a
sweep's grid points, while each workload's own seed fixes *what* is asked
and when: the jobs and arrival times of a trace and the datasets of the
sweep.  Every seed therefore offers the same work at the same times, and
the spread between seeds measures the system, not a different job mix or
a different burst of arrivals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.base import get_app
from repro.apps.datagen import DATAGEN_VERSION
from repro.bench.jobs import DatasetSpec, JobSpec, engine_from_spec
from repro.bench.sweep import sweep
from repro.engines.base import EngineConfig
from repro.errors import SloViolationError
from repro.serve import (
    DEFAULT_TENANTS,
    ServeConfig,
    ServeRequest,
    Server,
    TraceSpec,
    engine_spec_by_name,
    generate_trace,
    oneshot_oracle,
    with_slo,
)
from repro.units import KiB, MiB

#: ``--seconds`` at which each workload offers the load its definition
#: states; other values scale the load in proportion
REFERENCE_SECONDS = 20.0
APPS = ("wordcount", "dna", "kmeans", "netflix", "opinion", "mastercard")
SERVE_ENGINES = ("bigkernel", "gpu_uvm")
SERVE_CHUNK_KIB = (256, 512)
#: datasets of the warm-up jobs use this seed, which no workload draws
WARMUP_DATASET_SEED = 1000
WARMUP_BYTES = 64 * KiB
COMPLETED = ("served", "coalesced", "cached")


@dataclass(frozen=True)
class ServeWorkload:
    """An open-loop trace at a fixed absolute rate against one server policy."""

    name: str
    seed: int
    #: offered arrivals per second on the serving clock
    rate: float
    #: serving-clock seconds of trace at ``--seconds`` REFERENCE_SECONDS
    duration: float
    #: mapped bytes per dataset
    data_bytes: int
    n_dataset_seeds: int
    repeat_p: float
    #: latency limit a completed request must meet to count as good
    limit_ms: float
    config: ServeConfig
    #: per-tenant SLO stamped on every request (None = best effort)
    slo_ms: Optional[float] = None

    def trace_spec(self, seed: int, seconds: float) -> TraceSpec:
        return TraceSpec(
            seed=seed,
            duration=self.duration * seconds / REFERENCE_SECONDS,
            rate=self.rate,
            tenants=self.tenants,
            apps=APPS,
            engines=SERVE_ENGINES,
            data_bytes=self.data_bytes,
            n_dataset_seeds=self.n_dataset_seeds,
            chunk_kib_choices=SERVE_CHUNK_KIB,
            repeat_p=self.repeat_p,
        )

    @property
    def tenants(self) -> tuple:
        return with_slo(DEFAULT_TENANTS, self.slo_ms)


@dataclass(frozen=True)
class SweepWorkload:
    """The DES parameter sweep over every app x engine, one single-point
    ``sweep`` call per grid point."""

    name: str
    seed: int
    engines: tuple
    chunk_bytes: tuple
    num_blocks: tuple
    ring_depth: tuple
    #: latency limit of one grid point
    limit_ms: float
    #: dataset size per app at ``--seconds`` REFERENCE_SECONDS
    n_bytes: int

    def data_bytes(self, seconds: float) -> int:
        return max(int(self.n_bytes * seconds / REFERENCE_SECONDS), 64 * KiB)

    @property
    def base(self) -> EngineConfig:
        return EngineConfig(functional=False, fastpath=False)


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            name="serve_nocache",
            seed=11,
            rate=2.0,
            duration=750.0,
            data_bytes=1 * MiB,
            n_dataset_seeds=1,
            repeat_p=0.0,
            limit_ms=250.0,
            config=ServeConfig(cache=False),
        ),
        ServeWorkload(
            name="serve_repeat_spill",
            seed=12,
            rate=2.0,
            duration=1000.0,
            data_bytes=1 * MiB,
            n_dataset_seeds=4,
            repeat_p=0.9,
            limit_ms=250.0,
            config=ServeConfig(cache=True),
        ),
        ServeWorkload(
            name="serve_slo_edf",
            seed=13,
            rate=12.0,
            duration=100.0,
            data_bytes=512 * KiB,
            n_dataset_seeds=8,
            repeat_p=0.3,
            limit_ms=250.0,
            slo_ms=250.0,
            config=ServeConfig(scheduling="edf", adaptive_batch=True, max_queue=128),
        ),
        SweepWorkload(
            name="sweep_des",
            seed=14,
            engines=("bigkernel", "gpu_double", "gpu_uvm"),
            chunk_bytes=(32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB),
            num_blocks=(8, 16),
            ring_depth=(2, 3, 4),
            limit_ms=1000.0,
            n_bytes=16 * MiB,
        ),
    )
}


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ set-up
def setup(workload, seconds: float) -> dict:
    """Warm-up plus whatever the workload prepares before its timed run.

    The warm-up runs one small job per (app, engine) on a throwaway
    server (or engine), on a dataset seed no workload draws, so imports
    and lazily built tables are paid here and not by the first requests.
    """
    if isinstance(workload, SweepWorkload):
        for name in workload.engines:
            engine = engine_from_spec(engine_spec_by_name(name))
            for app_name in APPS:
                app = get_app(app_name)
                data = app.generate(n_bytes=WARMUP_BYTES, seed=WARMUP_DATASET_SEED)
                engine.run(app, data, workload.base.with_(chunk_bytes=32 * KiB))
        n_bytes = workload.data_bytes(seconds)
        datasets = {}
        for app_name in APPS:
            app = get_app(app_name)
            datasets[app_name] = (app, app.generate(n_bytes=n_bytes, seed=workload.seed))
        return {"datasets": datasets, "n_bytes": n_bytes}
    with Server(workload.config) as server:
        jobs = [(name, app_name) for name in SERVE_ENGINES for app_name in APPS]
        for k, (name, app_name) in enumerate(jobs):
            job = JobSpec(
                dataset=DatasetSpec(
                    app_name, WARMUP_DATASET_SEED, WARMUP_BYTES, DATAGEN_VERSION
                ),
                engine=engine_spec_by_name(name),
                config=EngineConfig(chunk_bytes=SERVE_CHUNK_KIB[0] * KiB),
            )
            server.submit(ServeRequest(-1 - k, DEFAULT_TENANTS[0].name, 0.0, job))
        server.drain()
    return {}


def inputs(workload, seed: int, seconds: float) -> list:
    """What ``seed`` draws: the order of the sweep's grid points, or the
    requests of a trace.

    A trace takes its arrival times and jobs from the workload's own trace
    and its tenants, in order, from the ``seed`` trace -- a longer trace of
    one seed extends a shorter one, so the tenant sequence is one stream.
    """
    if isinstance(workload, SweepWorkload):
        points = sweep_points(workload)
        return [points[int(i)] for i in np.random.default_rng(seed).permutation(len(points))]
    requests = generate_trace(workload.trace_spec(workload.seed, seconds))
    scale = 2.0
    senders = generate_trace(workload.trace_spec(seed, scale * seconds))
    while len(senders) < len(requests):
        scale *= 2
        senders = generate_trace(workload.trace_spec(seed, scale * seconds))
    return [dataclasses.replace(r, tenant=s.tenant) for r, s in zip(requests, senders)]


# ---------------------------------------------------------------- serving
@dataclass
class Replay:
    responses: list
    #: serving clock at the last completion
    makespan: float
    #: summed measured time of every server call
    busy_s: float
    #: serving clock at submit minus due arrival, per request
    admit_lags: list
    #: non-shed responses per dispatch round that dispatched any
    windows: list


def replay(server: Server, requests: list, timer, tracer=None) -> Replay:
    """Open-loop replay on a virtual clock.

    Requests arrive at their trace times whatever the server does.  The
    clock jumps to the next arrival when the server is idle and advances
    by the measured time of every server call -- admission, dispatch and
    completion bookkeeping alike -- so time the server spends pricing a
    request delays everything queued behind it, as it would live.  Calls
    are timed with ``timer``, a :class:`~hostspeed.ReferenceClock` that
    also times the server's own pricer calibration, so prices and the
    clock they are compared with agree.
    """
    server.timer = timer
    out: list = []
    lags: list = []
    windows: list = []
    # the one completed response per distinct job that keeps its result
    # for the correctness gate; the client drops every other result, as a
    # live client would, so the run's memory is the server's
    kept: set = set()
    clock = busy = 0.0
    i, n = 0, len(requests)
    rounds = 0
    while i < n or server.pending():
        timer.tick()
        if not server.pending():
            clock = max(clock, requests[i].arrival)
        while i < n and requests[i].arrival <= clock:
            req = requests[i]
            i += 1
            lags.append(clock - req.arrival)
            if tracer is not None:
                tracer.tag = ("req", req.req_id)
            start = timer()
            rejection = server.submit(req, now=clock)
            elapsed = timer() - start
            clock += elapsed
            busy += elapsed
            if rejection is not None:
                out.append(rejection)
        if not server.pending():
            continue
        if tracer is not None:
            tracer.tag = ("round", rounds)
        rounds += 1
        start = timer()
        responses = server.dispatch_round(now=clock)
        elapsed = timer() - start
        clock += elapsed
        busy += elapsed
        start = timer()
        server.finish(responses, clock)
        elapsed = timer() - start
        clock += elapsed
        busy += elapsed
        dispatched = sum(1 for r in responses if r.status != "shed")
        if dispatched:
            windows.append(dispatched)
        for resp in responses:
            job = requests[resp.req_id].job
            if resp.status in COMPLETED and job not in kept:
                kept.add(job)
            else:
                resp.result = None
        out.extend(responses)
    if tracer is not None:
        tracer.tag = None
    out.sort(key=lambda r: r.req_id)
    return Replay(out, clock, busy, lags, windows)


def serve_metrics(workload: ServeWorkload, run: Replay, sent: int) -> dict:
    """End-to-end metrics of one replay, from the responses alone."""
    limit = workload.limit_ms / 1e3
    done = [r for r in run.responses if r.status in COMPLETED]
    lats = np.array([r.completion - r.arrival for r in done])
    met = int(np.count_nonzero(lats <= limit))
    refused = sum(1 for r in run.responses if r.status in ("rejected", "shed"))
    return {
        "throughput_jps": len(done) / run.busy_s,
        "latency_p50_ms": float(np.percentile(lats, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(lats, 99)) * 1e3,
        "goodput_rps": met / run.makespan,
        "limit_met_frac": met / sent,
        "refused_frac": refused / sent,
        "latency_samples": len(done),
    }


def serve_observations(run: Replay) -> dict:
    """Per-request observations the per-layer report needs."""
    return {
        "queue_waits": [r.dispatch - r.arrival for r in run.responses
                        if r.status != "rejected"],
        "admit_lags": run.admit_lags,
        "batch_size_mean": float(np.mean(run.windows)) if run.windows else 0.0,
        "coalesced": sum(1 for r in run.responses if r.status == "coalesced"),
    }


def check_serve(requests: list, run: Replay) -> tuple:
    """Correctness gate, run after the timed region: ``(checks, failures)``.

    One completed response per distinct job is bit-compared against a
    fresh one-shot oracle (exact ``sim_time``, ``outputs_equal``); every
    shed or predictively rejected response must carry a typed
    :class:`SloViolationError`; a failed request is a failure; and every
    request must have exactly one response.
    """
    checks = 1
    failures = int(sorted(r.req_id for r in run.responses) != [r.req_id for r in requests])
    for resp in run.responses:
        req = requests[resp.req_id]
        if resp.status == "failed":
            checks += 1
            failures += 1
        elif resp.status == "shed" or (
            resp.status == "rejected" and resp.error != "queue full"
        ):
            checks += 1
            failures += not isinstance(resp.exception, SloViolationError)
        elif resp.result is not None:
            oracle = oneshot_oracle(req.job)
            app = get_app(req.job.dataset.app)
            checks += 1
            failures += not (
                resp.result.sim_time == oracle.sim_time
                and app.outputs_equal(resp.result.output, oracle.output)
            )
    return checks, failures


def evaluate_serve(workload: ServeWorkload, requests: list, run: Replay) -> dict:
    metrics = serve_metrics(workload, run, len(requests))
    checks, failures = check_serve(requests, run)
    return {
        "metrics": {**metrics, "failed_frac": failures / len(requests)},
        "attempted": len(requests),
        "failed": failures,
        "checks": checks,
        "busy_s": run.busy_s,
        "observations": serve_observations(run),
    }


# ------------------------------------------------------------------ sweep
def sweep_points(workload: SweepWorkload) -> list:
    """Every grid point ``(app, engine, chunk_bytes, num_blocks,
    ring_depth)``, in grid order."""
    return [
        (app, engine, chunk, blocks, depth)
        for app in APPS
        for engine in workload.engines
        for chunk in workload.chunk_bytes
        for blocks in workload.num_blocks
        for depth in workload.ring_depth
    ]


def sim_digest(workload: SweepWorkload, sim_times: dict) -> str:
    """SHA-256 over every grid point and its simulated time, in grid order
    (independent of the order the points ran in)."""
    digest = hashlib.sha256()
    for point in sweep_points(workload):
        digest.update(repr((point, sim_times[point])).encode())
    return digest.hexdigest()


def check_sweep(workload: SweepWorkload, prepared: dict, seed: int,
                sim_times: dict) -> tuple:
    """One seeded point per app, on an engine the seed rotates, bit-compared
    against a one-shot oracle (fresh dataset, fresh engine):
    ``(checks, failures)``."""
    rng = np.random.default_rng(seed)
    checks = failures = 0
    for a, app in enumerate(APPS):
        engine = workload.engines[(a + seed) % len(workload.engines)]
        candidates = [p for p in sweep_points(workload) if p[:2] == (app, engine)]
        point = candidates[int(rng.integers(len(candidates)))]
        _, _, chunk, blocks, depth = point
        job = JobSpec(
            dataset=DatasetSpec(app, workload.seed, prepared["n_bytes"], DATAGEN_VERSION),
            engine=engine_spec_by_name(engine),
            config=workload.base.with_(chunk_bytes=chunk, num_blocks=blocks, ring_depth=depth),
        )
        checks += 1
        failures += oneshot_oracle(job).sim_time != sim_times[point]
    return checks, failures


@dataclass
class SweepRun:
    #: simulated time of every grid point
    sim_times: dict
    #: measured time of each point, in the order they ran
    latencies: list

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_sweep(workload: SweepWorkload, prepared: dict, order: list, timer,
              tracer=None) -> SweepRun:
    """Evaluate the grid points in ``order``, each a single-point ``sweep``
    call -- one of the workload's requests, and its one job.  Points of
    one (app, engine) share an engine instance, as one grid sweep would.
    Each point is timed with ``timer``, a :class:`~hostspeed.ReferenceClock`."""
    engines: dict = {}
    sim_times: dict = {}
    lats: list = []
    for point in order:
        app_name, engine_name, chunk, blocks, depth = point
        app, data = prepared["datasets"][app_name]
        key = (app_name, engine_name)
        if key not in engines:
            engines[key] = engine_from_spec(engine_spec_by_name(engine_name))
        grid = {"chunk_bytes": [chunk], "num_blocks": [blocks], "ring_depth": [depth]}
        if tracer is not None:
            tracer.tag = ("point",) + point
        timer.tick()
        start = timer()
        result = sweep(engines[key], app, data, workload.base, grid, jobs=1, cache=False)
        lats.append(timer() - start)
        sim_times[point] = result.points[0].sim_time
    if tracer is not None:
        tracer.tag = None
    return SweepRun(sim_times, lats)


def evaluate_sweep(workload: SweepWorkload, prepared: dict, seed: int,
                   run: SweepRun) -> dict:
    lats, wall = run.latencies, run.busy_s
    n_points = len(run.sim_times)
    met = sum(1 for lat in lats if lat * 1e3 <= workload.limit_ms)
    checks, failures = check_sweep(workload, prepared, seed, run.sim_times)
    return {
        "metrics": {
            "throughput_jps": n_points / wall,
            "latency_p50_ms": float(np.percentile(lats, 50)) * 1e3,
            "latency_p99_ms": float(np.percentile(lats, 99)) * 1e3,
            "goodput_rps": met / wall,
            "limit_met_frac": met / len(lats),
            "refused_frac": 0.0,
            "latency_samples": len(lats),
            "failed_frac": failures / n_points,
            "sweep_points_per_s": n_points / wall,
        },
        "attempted": n_points,
        "failed": failures,
        "checks": checks,
        "busy_s": wall,
        "sim_digest": sim_digest(workload, run.sim_times),
        "observations": None,
    }


# ------------------------------------------------------------------ entry
def execute(workload, prepared: dict, requests: list, timer, tracer=None):
    """The timed region: replay the trace or run the sweep, timed with
    ``timer`` (a :class:`~hostspeed.ReferenceClock`)."""
    if isinstance(workload, SweepWorkload):
        return run_sweep(workload, prepared, requests, timer, tracer=tracer)
    with Server(workload.config, tenants=workload.tenants) as server:
        return replay(server, requests, timer, tracer=tracer)


def evaluate(workload, prepared: dict, requests: list, seed: int, run) -> dict:
    """Metrics and the correctness gate of one executed run."""
    if isinstance(workload, SweepWorkload):
        return evaluate_sweep(workload, prepared, seed, run)
    return evaluate_serve(workload, requests, run)
