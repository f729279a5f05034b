"""Perf smoke: serving throughput vs the naive one-job-at-a-time loop.

Runs ``repro.bench.serve.run_serve_benchmark`` — a ~60-request
repeat-heavy multi-tenant trace served at three load levels — and records
the measurements as the ``serve_throughput`` entry in
``BENCH_pipeline.json``.

Unlike the other perf-smoke thresholds, the speedup here IS a hard
assert: both sides of the ratio are wall-clock on the same box in the
same process, so machine noise largely divides out, and the mechanism
behind the gap (cache short-circuit + batching + template reuse) is
deterministic. The expected ratio is ~10x or more; the assert keeps a
wide margin at 3x. Bit-equality of every served response against its
one-shot oracle and rejection behavior under overload are exact
properties and assert at full strength.
"""

from bench_file import record
from repro.bench.serve import run_serve_benchmark

HARD_SPEEDUP = 3.0


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
