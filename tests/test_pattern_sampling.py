"""BigKernel's pattern sampling against the code it replaced.

``BigKernelEngine._sample_pattern_fraction`` feeds four sampled threads'
read offsets to the online tracker. The recognizer finds the smallest
stride period in one prefix-function pass, collection copies addresses
into the temp buffer in bulk, and a thread's stretch is fetched with
about three ``chunk_read_offsets`` calls. The per-period recognizer, the
growth loop that fetched the stretch once per step, and a tracker fed one
address at a time stay here as the oracles the new code must equal.

The growth search leans on one contract of ``chunk_read_offsets``: the
offsets of ``[lo, hi)`` are those of ``[lo, m)`` followed by those of
``[m, hi)``. It is checked here for every registered app, a kernel-derived
app and the MapReduce click job.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import APP_REGISTRY, get_app
from repro.apps.base import AppData
from repro.engines import BigKernelEngine, EngineConfig
from repro.engines.bigkernel import (
    PATTERN_MAX_PERIOD,
    PATTERN_SAMPLE_ADDRS,
    PATTERN_SAMPLE_THREADS,
    PATTERN_TEMP_BUFFER,
)
from repro.engines.gpu_common import chunk_plan
from repro.kernelc import RecordSchema
from repro.memo import Memo
from repro.runtime.pattern import (
    OnlineAddressTracker,
    PatternRecognizer,
    StridePattern,
)
from repro.units import KiB, MiB

#: offsets a sampled stretch must reach when the data allows
EVIDENCE = 2 * PATTERN_MAX_PERIOD + 2


# --------------------------------------------------------------- oracles
class LoopRecognizer(PatternRecognizer):
    """The per-period recognizer: try each period in turn until one fits."""

    def recognize(self, addresses):
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.size < self.min_samples:
            return None
        diffs = np.diff(addrs)
        for period in range(1, self.max_period + 1):
            if diffs.size < 2 * period:
                break
            if np.array_equal(diffs[period:], diffs[:-period]):
                cycle = diffs[:period]
                return StridePattern(int(addrs[0]), tuple(int(s) for s in cycle))
        return None


def growth_offsets(app, data, lo, hi, step, n_units):
    """The stretch as the growth loop fetched it: one call per step."""
    offsets = app.chunk_read_offsets(data, lo, hi)
    while offsets.size < EVIDENCE and hi < n_units:
        hi = min(hi + step, n_units)
        offsets = app.chunk_read_offsets(data, lo, hi)
    return offsets


def oracle_fraction(app, data, threads, units_per_chunk):
    """The sampler as it was: the growth loop, the per-period recognizer
    and a tracker fed one address at a time."""
    n_units = app.n_units(data)
    first_chunk_units = min(units_per_chunk, n_units)
    per_thread = max(1, first_chunk_units // threads)
    recognizer = LoopRecognizer(max_period=PATTERN_MAX_PERIOD, min_samples=8)
    hits = sampled = 0
    for t in range(min(PATTERN_SAMPLE_THREADS, threads)):
        lo = t * per_thread
        hi = min(lo + per_thread, first_chunk_units)
        if hi <= lo:
            break
        offsets = growth_offsets(app, data, lo, hi, per_thread + 1, n_units)
        if offsets.size == 0:
            continue
        tracker = OnlineAddressTracker(recognizer, temp_buffer=PATTERN_TEMP_BUFFER)
        for address in offsets[:PATTERN_SAMPLE_ADDRS].tolist():
            tracker.feed(address)
        tracker.finish()
        hits += int(tracker.has_pattern)
        sampled += 1
    return hits / sampled if sampled else 0.0


def sample_fraction(app, data, config, units_per_chunk):
    """The engine's sample (a memo hit when this dataset, thread total
    and first chunk were sampled before)."""
    return BigKernelEngine()._sample_pattern_fraction(
        app, data, config, units_per_chunk
    )


@pytest.fixture
def fresh_pattern_memo(monkeypatch):
    """An empty sample memo, so no other test's samples are read or
    evicted."""
    monkeypatch.setattr(
        BigKernelEngine, "_pattern_cache", Memo("bigkernel.pattern", 256)
    )


# ----------------------------------------------------------- recognizer
def _stream(base, cycle, n, break_at, jump):
    """``n`` addresses of ``cycle`` from ``base``; from ``break_at`` on
    every address is moved by ``jump``."""
    steps = np.resize(np.asarray(cycle, dtype=np.int64), max(n - 1, 0))
    addrs = base + np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
    addrs[break_at:] += jump
    return addrs


#: cycles of the shapes the apps emit: DNA's 46 (45 steps of 1, then the
#: record gap), Opinion's 20 word ids, K-means' (8, 8, 32)
APP_CYCLES = [(1,) * 45 + (19,), (4,) * 19 + (36,), (8, 8, 32), (1,)]


class TestRecognizerOracle:
    @given(
        max_period=st.integers(1, 64),
        min_samples=st.integers(4, 16),
        cycle=st.one_of(
            st.sampled_from(APP_CYCLES),
            st.lists(st.integers(-3, 3), min_size=1, max_size=64).map(tuple),
        ),
        base=st.integers(0, 10**9),
        n=st.integers(0, 260),
        break_at=st.integers(0, 260),
        jump=st.sampled_from([0, 1, -1, 17, 4096]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_one_pass_equals_per_period_loop(
        self, max_period, min_samples, cycle, base, n, break_at, jump
    ):
        addrs = _stream(base, cycle, n, break_at, jump)
        want = LoopRecognizer(max_period, min_samples).recognize(addrs)
        got = PatternRecognizer(max_period, min_samples).recognize(addrs)
        assert got == want

    @pytest.mark.parametrize("cycle", APP_CYCLES, ids=len)
    def test_app_cycles_at_the_sampler_shape(self, cycle):
        """The sampler's shape (128 addresses, periods up to 64), clean
        and broken at every position."""
        for break_at in range(0, 129, 7):
            addrs = _stream(4096, cycle, 128, break_at, 3)
            want = LoopRecognizer(PATTERN_MAX_PERIOD, 8).recognize(addrs)
            got = PatternRecognizer(PATTERN_MAX_PERIOD, 8).recognize(addrs)
            assert got == want

    def test_smallest_period_is_the_first_that_fits(self):
        from repro.runtime.pattern import smallest_period

        rng = np.random.default_rng(11)
        for _ in range(2000):
            seq = rng.integers(0, 3, int(rng.integers(1, 40))).tolist()
            brute = next(
                p for p in range(1, len(seq) + 1) if seq[p:] == seq[: len(seq) - p]
            )
            assert smallest_period(seq) == brute
        assert smallest_period([]) == 1


# ------------------------------------------------------ a test-only app
class UnevenStreams:
    """A test-only app: unit ``u`` reads ``counts[u]`` offsets (zero
    allowed), 4 bytes apart and right after the previous unit's, except
    that the ``i``-th unit in ``breaks`` starts ``1000 + 4 * i`` bytes
    further on (unequal jumps, so breaks never repeat as a cycle)."""

    name = "uneven"

    def __init__(self, counts, breaks=()):
        self.counts = np.asarray(counts, dtype=np.int64)
        gaps = np.zeros(self.counts.size, dtype=np.int64)
        gaps[list(breaks)] = 1000 + 4 * np.arange(len(breaks))
        ends = np.cumsum(self.counts)
        self.starts = 4 * (ends - self.counts) + np.cumsum(gaps)

    def generate(self):
        schema = RecordSchema.packed([("v", "i4")])
        units = np.zeros(self.counts.size, dtype=schema.numpy_dtype())
        return AppData(
            app=self.name, mapped={"units": units}, schemas={"units": schema},
            primary="units",
        )

    def n_units(self, data):
        return int(self.counts.size)

    def chunk_read_offsets(self, data, lo, hi):
        counts = self.counts[lo:hi]
        first = np.repeat(self.starts[lo:hi], counts)
        within = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return first + 4 * within


# -------------------------------------------------------- offsets contract
def _contract_app(name):
    """A registered app, a kernel-derived app, the click job or the
    test-only app, with a small dataset."""
    if name == "kernel_app":
        from repro.runtime import KernelApplication
        from tests.test_runtime_launcher import kmeans_setup

        src, data, reg, fns = kmeans_setup(n=300)
        app = KernelApplication(
            src.kernel(),
            reg,
            resident={"clusters": data.resident["clusters"]},
            params=dict(data.params),
            device_fns=fns,
        )
        return app, app.data
    if name == "uneven":
        counts = np.random.default_rng(2).integers(0, 6, 300)
        counts[-1] = 3
        app = UnevenStreams(counts, breaks=(17, 40))
        return app, app.generate()
    if name == "clickstream":
        from repro.ext.mapreduce import make_clickstream_job

        app = make_clickstream_job()
    else:
        app = get_app(name)
    return app, app.generate(n_bytes=64 * KiB, seed=1)


@pytest.mark.parametrize(
    "name", sorted(APP_REGISTRY) + ["kernel_app", "clickstream", "uneven"]
)
def test_read_offsets_concatenate_over_a_cut(name):
    """``chunk_read_offsets(lo, hi)`` is ``(lo, m)``'s offsets followed by
    ``(m, hi)``'s, for random cuts, empty ranges and the last unit."""
    app, data = _contract_app(name)
    n = app.n_units(data)
    rng = np.random.default_rng(5)
    whole = app.chunk_read_offsets(data, 0, n)
    for _ in range(25):
        lo, m, hi = np.sort(rng.integers(0, n + 1, 3)).tolist()
        joined = np.concatenate(
            [app.chunk_read_offsets(data, lo, m), app.chunk_read_offsets(data, m, hi)]
        )
        np.testing.assert_array_equal(joined, app.chunk_read_offsets(data, lo, hi))
    for at in (0, n // 2, n):
        assert app.chunk_read_offsets(data, at, at).size == 0
    head = app.chunk_read_offsets(data, 0, n - 1)
    last = app.chunk_read_offsets(data, n - 1, n)
    assert last.size > 0
    np.testing.assert_array_equal(np.concatenate([head, last]), whole)


# ------------------------------------------------------- sampled fraction
SIZES_KIB = (1, 7, 64, 512, 1024, 4096)
SEEDS = (0, 3)
BLOCKS = (1, 8, 16)
THREADS = (32, 256)
CHUNKS = (1 * KiB, 32 * KiB, 256 * KiB, 8 * MiB)


@pytest.mark.parametrize("name", sorted(APP_REGISTRY))
def test_sample_fraction_equals_oracle(name, fresh_pattern_memo):
    """Every (size, seed, blocks, threads, chunk) point of one app. Points
    with the same thread total and first chunk read the same stretches,
    so each such sample is compared once."""
    app = get_app(name)
    engine = BigKernelEngine()
    points = 0
    for kib in SIZES_KIB:
        for seed in SEEDS:
            data = app.generate(n_bytes=kib * KiB, seed=seed)
            n_units = app.n_units(data)
            profile = app.access_profile(data)
            payload = engine._payload(profile, engine._sliceable(app, profile))
            seen = set()
            for blocks in BLOCKS:
                for threads in THREADS:
                    for chunk in CHUNKS:
                        points += 1
                        config = EngineConfig(
                            chunk_bytes=chunk,
                            num_blocks=blocks,
                            compute_threads=threads,
                        )
                        upc, _ = chunk_plan(n_units, chunk, payload)
                        key = (config.total_compute_threads, min(upc, n_units))
                        if key in seen:
                            continue
                        seen.add(key)
                        want = oracle_fraction(app, data, *key)
                        got = sample_fraction(app, data, config, upc)
                        assert got == want, (kib, seed, blocks, threads, chunk)
    assert points == len(SIZES_KIB) * len(SEEDS) * len(BLOCKS) * len(THREADS) * len(
        CHUNKS
    )


@pytest.mark.parametrize("name", sorted(APP_REGISTRY))
def test_stock_apps_fetch_a_stretch_in_three_calls(name, monkeypatch):
    """Every stock app reads a fixed number of offsets per unit, so the
    guess holds: at most three ``chunk_read_offsets`` calls per sampled
    thread that owns a unit or a few, where the growth loop made one per
    step."""
    from repro.engines.bigkernel import _evidence_offsets

    app = get_app(name)
    data = app.generate(n_bytes=1 * MiB, seed=0)
    n = app.n_units(data)
    plain = app.chunk_read_offsets
    for per_thread in (1, 2, 5):
        for t in range(PATTERN_SAMPLE_THREADS):
            lo, hi = t * per_thread, (t + 1) * per_thread
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    app,
                    "chunk_read_offsets",
                    lambda d, a, b: calls.append(b) or plain(d, a, b),
                )
                got = _evidence_offsets(app, data, lo, hi, per_thread + 1, n)
            want = growth_offsets(app, data, lo, hi, per_thread + 1, n)
            np.testing.assert_array_equal(got, want)
            assert len(calls) <= 3


# ------------------------------------------------------- uneven streams
def _uneven_counts(rng, n):
    """Offsets per unit: steady, uneven, zero runs, or zero then dense."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return np.full(n, int(rng.integers(1, 9)))
    if kind == 1:
        return rng.integers(0, 9, n)
    if kind == 2:
        counts = rng.integers(0, 4, n)
        counts[rng.random(n) < 0.6] = 0
        return counts
    counts = np.zeros(n, dtype=np.int64)
    counts[int(rng.integers(0, n)) :] = int(rng.integers(1, 40))
    return counts


def test_evidence_search_equals_growth_loop():
    """The guessed, doubled and bisected stretch is the growth loop's, and
    every path of the search runs: a right guess (at most three calls), a
    guess too short (doubling) and one too long (bisection)."""
    from repro.engines.bigkernel import _evidence_offsets

    rng = np.random.default_rng(9)
    paths = set()
    for _ in range(400):
        n = int(rng.integers(1, 400))
        app = UnevenStreams(_uneven_counts(rng, n))
        data = app.generate()
        lo = int(rng.integers(0, n))
        hi = min(lo + int(rng.integers(1, 12)), n)
        step = int(rng.integers(1, 14))
        calls = []
        plain = app.chunk_read_offsets
        app.chunk_read_offsets = lambda d, a, b: calls.append(b) or plain(d, a, b)
        got = _evidence_offsets(app, data, lo, hi, step, n)
        app.chunk_read_offsets = plain
        np.testing.assert_array_equal(got, growth_offsets(app, data, lo, hi, step, n))
        if len(calls) <= 3:
            paths.add("guess")
        elif calls[1] < calls[-1]:
            paths.add("double")
        else:
            paths.add("bisect")
        if np.all(app.counts == app.counts[0]) and app.counts[0] > 0:
            assert len(calls) <= 3
    assert paths == {"guess", "double", "bisect"}


@pytest.mark.parametrize(
    "broken,fraction", [((), 1.0), ((0,), 0.75), ((0, 1), 0.5), ((0, 1, 2), 0.25),
                        ((0, 1, 2, 3), 0.0)],
)
def test_breaks_set_the_sampled_fraction(broken, fraction, fresh_pattern_memo):
    """A break a few units into sampled thread ``t``'s own range is seen
    by that thread alone (thread ``t + 1`` starts after it)."""
    per_thread = 12
    counts = np.full(400, 3)
    app = UnevenStreams(counts, breaks=[per_thread * t + 5 for t in broken])
    data = app.generate()
    config = EngineConfig(num_blocks=1, compute_threads=32)
    upc = per_thread * 32
    assert oracle_fraction(app, data, 32, upc) == fraction
    assert sample_fraction(app, data, config, upc) == fraction


def test_uneven_sample_fraction_equals_oracle(fresh_pattern_memo):
    """Uneven, zero and broken streams at random shapes."""
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(1, 1500))
        breaks = rng.integers(0, n, int(rng.integers(0, 4)))
        app = UnevenStreams(_uneven_counts(rng, n), breaks=breaks)
        data = app.generate()
        config = EngineConfig(
            num_blocks=int(rng.integers(1, 3)), compute_threads=32
        )
        upc = int(rng.integers(1, 2 * n + 1))
        want = oracle_fraction(app, data, config.total_compute_threads, upc)
        assert sample_fraction(app, data, config, upc) == want
        seen.add(want)
    assert {0.0, 1.0} <= seen
