"""Perf smoke: serving throughput vs the naive one-job-at-a-time loop,
and the per-request budget of a warm server.

Runs ``repro.bench.serve.run_serve_benchmark`` — a ~60-request
repeat-heavy multi-tenant trace served at three load levels — and records
the measurements as the ``serve_throughput`` entry in
``BENCH_pipeline.json``. ``test_serve_request_budget`` records the
``serve_request_budget`` entry: what one warm cache-off request costs in
each server call, next to its engine run alone.

Unlike the other perf-smoke thresholds, the speedup here IS a hard
assert: both sides of the ratio are wall-clock on the same box in the
same process, so machine noise largely divides out, and the mechanism
behind the gap (cache short-circuit + batching + template reuse) is
deterministic. The expected ratio is ~10x or more; the assert keeps a
wide margin at 3x. Bit-equality of every served response against its
one-shot oracle and rejection behavior under overload are exact
properties and assert at full strength.
"""

import statistics
import time

from bench_file import record
from repro.apps.base import get_app
from repro.bench.jobs import engine_from_spec
from repro.bench.serve import run_serve_benchmark
from repro.serve import ServeConfig, Server, TraceSpec, generate_trace
from repro.units import KiB

HARD_SPEEDUP = 3.0

#: the budget's trace: every request a distinct job of the six paper apps
#: on BigKernel and unified memory at two chunk sizes (24 jobs, one
#: dataset each), so a warm replay runs every job's memoized plan
BUDGET_TRACE = TraceSpec(
    seed=11,
    duration=150.0,
    rate=2.0,
    apps=("wordcount", "dna", "kmeans", "netflix", "opinion", "mastercard"),
    engines=("bigkernel", "gpu_uvm"),
    data_bytes=256 * KiB,
    n_dataset_seeds=1,
    chunk_kib_choices=(64, 128),
    repeat_p=0.0,
)
#: timed replays of the trace, after one that warms the server
BUDGET_PASSES = 3


def test_serve_throughput():
    result = run_serve_benchmark()
    record(result.figure_entry())

    # repro.serve.judge finds no response wrong: every completed one
    # bit-equals its fresh one-shot oracle, and no request failed
    assert result.verified > 0
    assert result.verify_failures == 0

    levels = {level.label: level for level in result.levels}
    assert set(levels) == {"saturation", "moderate", "overload"}

    # batched + cached serving clears >= 3x the naive loop's throughput
    assert result.capacity_speedup >= HARD_SPEEDUP, (
        f"serve capacity only {result.capacity_speedup:.2f}x the naive loop"
    )

    # the cache short-circuit and the coalescer both did real work
    saturation = levels["saturation"]
    assert saturation.cached > 0
    assert saturation.engine_runs < result.n_requests

    # latency percentiles were measured at every level
    for level in result.levels:
        assert level.p50 <= level.p99

    # overload sheds load instead of queueing without bound, and what it
    # admits it completes
    overload = levels["overload"]
    assert overload.rejected > 0
    assert overload.cached + overload.coalesced + overload.served > 0


def test_serve_slo():
    """Price-guided EDF vs deadline-blind FIFO under 20x overload.

    Both sides see identical arrivals, identical SLOs and an identically
    pre-calibrated pricer; the only difference is the scheduling policy.
    The p99 ratio is a hard assert: both numbers are wall-clock on the
    same box in the same process, and the mechanism (EDF serves the
    still-meetable work first, admission and shedding keep doomed work
    out of the queue, adaptive windows ship urgent rounds early) is
    deterministic given the trace.
    """
    from repro.bench.serve import run_serve_slo_benchmark

    result = run_serve_slo_benchmark()
    record(result.figure_entry())

    # repro.serve.judge finds no response of either policy wrong: every
    # completed one bit-equals its oracle, no request failed, and every
    # shed / predictively rejected one carries the typed error
    assert result.verified > 0
    assert result.verify_failures == 0

    # the cost-aware stack actually engaged: it dropped provably doomed
    # work instead of serving everything late
    assert result.edf.shed + result.edf.rejected > 0

    # >= 2x better p99 over completed responses under 20x overload
    assert result.p99_improvement >= 2.0, (
        f"EDF p99 only {result.p99_improvement:.2f}x better than FIFO"
    )

    # strictly higher SLO attainment than the deadline-blind baseline
    assert result.edf.attainment > result.fifo.attainment, (
        f"EDF attainment {result.edf.attainment:.3f} not above FIFO "
        f"{result.fifo.attainment:.3f}"
    )

    # same denominator on both sides: every request carried a deadline
    assert result.edf.slo_total == result.fifo.slo_total == result.n_requests


def _median_us(samples: list) -> float:
    return round(statistics.median(samples) * 1e6, 2)


def test_serve_request_budget():
    """Record, never assert: the median microseconds one warm cache-off
    request spends in ``submit``, ``dispatch_round`` and ``finish``, and
    its engine run alone on an engine and dataset of its own, warmed the
    same way. Each request arrives at an idle server, so its latency is
    ``submit`` plus ``dispatch_round``. A shared host's timings are
    noise-prone, so nothing here is a gate."""
    requests = generate_trace(BUDGET_TRACE)
    calls: dict = {"submit": [], "dispatch_round": [], "finish": [], "latency": []}
    clock = time.perf_counter
    with Server(ServeConfig(cache=False)) as server:
        for timed in [False] + [True] * BUDGET_PASSES:
            for req in requests:
                start = clock()
                assert server.submit(req, now=req.arrival) is None
                admitted = clock()
                responses = server.dispatch_round(now=req.arrival)
                dispatched = clock()
                server.finish(responses, req.arrival)
                finished = clock()
                assert [r.status for r in responses] == ["served"]
                if timed:
                    calls["submit"].append(admitted - start)
                    calls["dispatch_round"].append(dispatched - admitted)
                    calls["finish"].append(finished - dispatched)
                    calls["latency"].append(dispatched - start)

    runs: dict = {}
    engine_run = []
    for timed in [False] + [True] * BUDGET_PASSES:
        for req in requests:
            job = req.job
            if job not in runs:
                app = get_app(job.dataset.app)
                data = app.generate(n_bytes=job.dataset.n_bytes, seed=job.dataset.seed)
                runs[job] = (engine_from_spec(job.engine), app, data)
            engine, app, data = runs[job]
            start = clock()
            engine.run(app, data, job.config)
            if timed:
                engine_run.append(clock() - start)

    entry = {
        "name": "serve_request_budget",
        "requests": len(requests),
        "distinct_jobs": len(runs),
        "timed_passes": BUDGET_PASSES,
        "data_bytes": BUDGET_TRACE.data_bytes,
        **{f"{name}_us": _median_us(samples) for name, samples in calls.items()},
        "engine_run_us": _median_us(engine_run),
    }
    entry["server_overhead_us"] = round(entry["latency_us"] - entry["engine_run_us"], 2)
    record(entry)
