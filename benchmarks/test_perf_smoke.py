"""Perf smoke: wall-clock of the analytic fast path vs the DES.

Times (``time.perf_counter``) a ~500-chunk BigKernel run, a 16-point
autotune sweep, the raw DES event throughput and the DES cost per
pipeline chunk (these two in reference seconds, by the end-to-end
benchmark's host-speed probe), a DES-bound sweep on four workers against
one, every app's dataset generation (wall and memory peak), a first vs
a replayed run on three engines, a first functional run vs a memoized
pass at another chunking, a served job dispatched after pricing vs
unpriced, a memo hit and one BigKernel pattern sample per app, and
records the measurements to ``BENCH_pipeline.json`` at the repo root.

Every threshold is *warn-only*: wall-clock on shared CI boxes is
too noisy for a hard assert, but the recorded JSON makes regressions
visible across commits. Expected on any machine: the analytic pipeline
beats the DES by well over 5x at 500 chunks (it is O(n) arithmetic vs
an event queue), and the cached sweep beats the cold serial sweep by the
cache hit rate. The DES checks compare reference-clocked rates with
floors in reference units, so they hold on a loaded host as on an idle
one. The parallel-over-serial expectation additionally needs real
cores: on 1-2 cores the runner keeps DES-bound points on threads, which
the GIL serializes, so that check downgrades to recording only.
"""

import os
import time
import tracemalloc
import warnings

import numpy as np

from bench_file import record
from e2e.hostspeed import ReferenceClock
from repro.apps import APP_REGISTRY, get_app
from repro.bench.sweep import RUN_CACHE, sweep
from repro.engines import BigKernelEngine, EngineConfig
from repro.units import MiB

WARN_SPEEDUP = 5.0

#: the Process ping's floor, in reference events per second (wall seconds
#: scaled by the ``e2e.hostspeed`` probe): it runs at about 0.9-1.1M on a
#: shared 2-vCPU host
DES_WARN_REF_EVENTS_PER_SEC = 0.75e6
PROCESS_WARN_SPEEDUP = 2.0
#: DES heap events per pipeline chunk once resource releases and flagged
#: DMA completions stay off the heap (27 and 39 while they took a trip)
DES_EVENTS_PER_CHUNK = {"wordcount": 20, "kmeans": 30}
#: reference microseconds of DES wall per pipeline chunk, past which the
#: pipeline model has slowed: a Word Count chunk takes about 26 and a
#: K-means chunk about 42 on a shared 2-vCPU host, 20-30% either way
#: under a busy neighbour (37 and 56 while every wait built an event)
DES_WARN_REF_US_PER_CHUNK = {"wordcount": 34.0, "kmeans": 54.0}
#: Word Count's 512 KiB ``generate`` takes ~7 ms on one core of a 2-vCPU
#: host; the per-word vocabulary loop and bytes join it replaced took ~60 ms
DATAGEN_WARN_MS = 20.0
#: every generator works in bounded blocks, so its tracemalloc peak stays
#: within 1.5x the bytes its dataset holds (K-means, 1.50x, is the highest;
#: whole-array gathers took DNA and Word Count past 4x)
DATAGEN_WARN_PEAK = 1.6
#: a ``Memo.get`` hit costs 4-5x a bare ``OrderedDict`` hit on a shared
#: 2-vCPU host (0.7-0.9 us, about a third of it the lock); past this ratio
#: the hit path has grown
MEMO_HIT_WARN_RATIO = 6.0
#: a 512 KiB timing-only job dispatched after pricing runs 5-8x faster than
#: unpriced (BigKernel and ``gpu_uvm``) on a shared 2-vCPU host, because
#: pricing planned it; below this ratio dispatch plans again
PRICING_REUSE_WARN_SPEEDUP = 3.0
#: one pattern sample at 512 KiB (256 KiB chunks) takes 0.15-0.3 ms per app
#: on a shared 2-vCPU host; the per-period recognizer, one-address
#: collection and the one-call-per-step growth loop took 0.5-1.8 ms
PATTERN_SAMPLE_WARN_MS = 0.6

SWEEP_GRID = {
    "chunk_bytes": [256 * 1024, 512 * 1024, 1 * MiB, 2 * MiB],
    "num_blocks": [8, 16, 32, 64],
}


def _warn_if_slow(name: str, speedup: float) -> None:
    if speedup < WARN_SPEEDUP:
        warnings.warn(
            f"{name}: speedup {speedup:.1f}x below the {WARN_SPEEDUP:.0f}x "
            f"expectation (warn-only; see BENCH_pipeline.json)",
            stacklevel=2,
        )


def test_fastpath_500_chunk_run():
    app = get_app("wordcount")
    # 32 MiB of records at 64 KiB chunk payloads ~= 500 pipeline chunks
    data = app.generate(n_bytes=32 * MiB, seed=7)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * 1024, functional=False)
    engine._schedule(app, data, cfg)  # build once so neither timing pays it

    t0 = time.perf_counter()
    slow = engine.run(app, data, cfg.with_(fastpath=False))
    t_des = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = engine.run(app, data, cfg)
    t_fast = time.perf_counter() - t0

    assert fast.sim_time == slow.sim_time  # exactness is non-negotiable
    assert fast.metrics.n_chunks >= 500
    speedup = t_des / t_fast if t_fast > 0 else float("inf")
    record(
        {
            "name": "bigkernel_500_chunk_run",
            "n_chunks": fast.metrics.n_chunks,
            "des_seconds": t_des,
            "fastpath_seconds": t_fast,
            "speedup": speedup,
            "sim_time": fast.sim_time,
        }
    )
    _warn_if_slow("bigkernel_500_chunk_run", speedup)


def test_sweep_16_points_cached_parallel():
    app = get_app("wordcount")
    data = app.generate(n_bytes=8 * MiB, seed=7)
    engine = BigKernelEngine()
    base = EngineConfig(chunk_bytes=512 * 1024, functional=False)
    RUN_CACHE.clear()

    t0 = time.perf_counter()
    cold = sweep(engine, app, data, base, SWEEP_GRID, jobs=1, cache=False)
    t_serial = time.perf_counter() - t0

    # warm the cache, then measure the repeat sweep (the figure-harness
    # pattern: every artifact re-tunes the same engine/app pairs)
    sweep(engine, app, data, base, SWEEP_GRID, jobs=4, cache=True)
    t0 = time.perf_counter()
    warm = sweep(engine, app, data, base, SWEEP_GRID, jobs=4, cache=True)
    t_cached = time.perf_counter() - t0

    assert len(cold.points) == 16 and len(warm.points) == 16
    assert warm.best.params == cold.best.params
    speedup = t_serial / t_cached if t_cached > 0 else float("inf")
    record(
        {
            "name": "sweep_16_point_cached",
            "points": len(warm.points),
            "serial_cold_seconds": t_serial,
            "parallel_cached_seconds": t_cached,
            "speedup": speedup,
            "cache_hits": RUN_CACHE.hits,
        }
    )
    _warn_if_slow("sweep_16_point_cached", speedup)
    RUN_CACHE.clear()


def test_des_event_throughput():
    """Raw event rate of the DES core (the ping microbenchmark).

    100 processes x 2000 timeout steps = 200200 events of pure dispatch:
    no pipeline model, so this isolates what the ``sim.core`` hot loop
    costs a generator process (``__slots__``, the inlined run loop, the
    flattened Timeout, the cached resume callback). Best-of-3, each run
    timed with a :class:`~e2e.hostspeed.ReferenceClock`, so the rate is
    in reference events per second and does not move with the host's
    load.

    Events per second is a per-event rate, so it can fall while the wall
    per pipeline run falls: a run that keeps its cheapest zero-delay
    events off the heap leaves fewer, costlier ones behind.
    ``des_pipeline`` records the wall per run beside the events per chunk.
    """
    from repro.sim.core import Environment

    n_procs, n_steps = 100, 2000

    def ticker(env):
        for _ in range(n_steps):
            yield env.timeout(1)

    clock = ReferenceClock()
    best_rate = 0.0
    events = 0
    for _ in range(3):
        env = Environment()
        for _ in range(n_procs):
            env.process(ticker(env))
        clock.tick()
        t0 = clock()
        env.run()
        elapsed = clock() - t0
        events = env._eid
        best_rate = max(best_rate, events / elapsed)

    record(
        {
            "name": "des_event_throughput",
            "events": events,
            "ref_events_per_sec": best_rate,
            "host_factor": clock.factor,
        }
    )
    if best_rate < DES_WARN_REF_EVENTS_PER_SEC:
        warnings.warn(
            f"des_event_throughput: {best_rate / 1e6:.2f}M reference events/s "
            f"is below the {DES_WARN_REF_EVENTS_PER_SEC / 1e6:.2f}M expectation "
            f"(warn-only)",
            stacklevel=2,
        )


def test_des_pipeline(monkeypatch):
    """DES cost per pipeline chunk: heap events and best-of-5 wall per run.

    BigKernel and double buffering on Word Count (16 MiB in 32 KiB
    chunks, no writes) and on K-means (same size, with writes), forced
    onto the DES. Events are counted from ``env._eid``, which every heap
    push increments, the way the end-to-end benchmark's ``sim.events``
    counts them. Each run is timed with a
    :class:`~e2e.hostspeed.ReferenceClock`, so walls are in reference
    milliseconds. Unlike ``des_event_throughput`` this measures the
    pipeline model itself: how many events a chunk costs, and what a
    chunk costs in all.
    """
    from repro.engines import GpuDoubleBufferEngine
    from repro.sim.core import Environment

    pushes = []
    plain_run = Environment.run

    def counting_run(env, *args, **kwargs):
        try:
            return plain_run(env, *args, **kwargs)
        finally:
            pushes.append(env._eid - len(env._queue))

    monkeypatch.setattr(Environment, "run", counting_run)
    cfg = EngineConfig(chunk_bytes=32 * 1024, fastpath=False, functional=False)
    clock = ReferenceClock()
    runs = {}
    for app_name in ("wordcount", "kmeans"):
        app = get_app(app_name)
        data = app.generate(n_bytes=16 * MiB, seed=7)
        for engine in (BigKernelEngine(), GpuDoubleBufferEngine()):
            engine.run(app, data, cfg)  # build the schedule once
            best = float("inf")
            for _ in range(5):
                pushes.clear()
                clock.tick()
                t0 = clock()
                res = engine.run(app, data, cfg)
                best = min(best, clock() - t0)
            (events,) = pushes
            n_chunks = res.metrics.n_chunks
            per_chunk = events / n_chunks
            us_per_chunk = best / n_chunks * 1e6
            name = f"{engine.name}-{app_name}"
            runs[name] = {
                "n_chunks": n_chunks,
                "events": events,
                "events_per_chunk": per_chunk,
                "ref_wall_ms": best * 1e3,
                "ref_us_per_chunk": us_per_chunk,
            }
            if round(per_chunk) > DES_EVENTS_PER_CHUNK[app_name]:
                warnings.warn(
                    f"des_pipeline: {name} puts {per_chunk:.1f} events per "
                    f"chunk on the heap, above "
                    f"{DES_EVENTS_PER_CHUNK[app_name]} (warn-only)",
                    stacklevel=2,
                )
            if us_per_chunk > DES_WARN_REF_US_PER_CHUNK[app_name]:
                warnings.warn(
                    f"des_pipeline: {name} costs {us_per_chunk:.1f} reference "
                    f"us per chunk, above "
                    f"{DES_WARN_REF_US_PER_CHUNK[app_name]:.0f} (warn-only)",
                    stacklevel=2,
                )
    record(
        {
            "name": "des_pipeline",
            "n_bytes": 16 * MiB,
            "runs": runs,
            "host_factor": clock.factor,
        }
    )


def _held_bytes(data) -> int:
    """Bytes of every array a dataset holds, each base buffer once."""
    buffers = {}
    for group in (data.mapped, data.resident, data.meta):
        for value in group.values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                buffers[id(value)] = value.nbytes
    return sum(buffers.values())


def test_datagen_throughput():
    """Best-of-5 ``generate`` wall per app at 512 KiB, and best-of-3 at
    16 MiB (the ``sweep_des`` dataset size) with the tracemalloc peak over
    the bytes the dataset holds.

    The server regenerates a dataset from its recipe whenever a run or a
    first price misses its dataset pool, so ``generate`` is on the serving
    hot path; ``repro run``, ``sweep`` and ``sweep_des``'s set-up generate
    16 MiB datasets.
    """

    def best_ms(name: str, n_bytes: int, repeats: int) -> float:
        app = get_app(name)
        best = float("inf")
        for seed in range(repeats):
            t0 = time.perf_counter()
            app.generate(n_bytes=n_bytes, seed=seed)
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    def peak_over_held(name: str, n_bytes: int) -> float:
        tracemalloc.start()
        try:
            data = get_app(name).generate(n_bytes=n_bytes, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / _held_bytes(data)

    apps = sorted(APP_REGISTRY)
    generate_ms = {name: best_ms(name, 512 * 1024, 5) for name in apps}
    generate_16mib_ms = {name: best_ms(name, 16 * MiB, 3) for name in apps}
    peak_16mib = {name: peak_over_held(name, 16 * MiB) for name in apps}
    record(
        {
            "name": "datagen_throughput",
            "n_bytes": 512 * 1024,
            "generate_ms": generate_ms,
            "generate_16mib_ms": generate_16mib_ms,
            "peak_over_held_16mib": peak_16mib,
            "warn_ms": DATAGEN_WARN_MS,
            "warn_peak_over_held": DATAGEN_WARN_PEAK,
        }
    )
    if generate_ms["wordcount"] > DATAGEN_WARN_MS:
        warnings.warn(
            f"datagen_throughput: wordcount generate took "
            f"{generate_ms['wordcount']:.1f} ms at 512 KiB, above the "
            f"{DATAGEN_WARN_MS:.0f} ms expectation (warn-only)",
            stacklevel=2,
        )
    for name, ratio in peak_16mib.items():
        if ratio > DATAGEN_WARN_PEAK:
            warnings.warn(
                f"datagen_throughput: {name} generate peaked at {ratio:.2f}x "
                f"the bytes it holds at 16 MiB, above the "
                f"{DATAGEN_WARN_PEAK}x expectation (warn-only)",
                stacklevel=2,
            )


def test_des_bound_sweep_parallel_vs_serial():
    """Four workers against one on a purely DES-bound grid.

    Every point runs the pure-Python simulator (``fastpath=False``), so
    on a host with more than 2 cores the runner's rule sends the points to
    a process pool, whose workers run truly concurrently and should win by
    ~min(jobs, cores) once points dwarf the fork + regeneration overhead.
    On 1-2 cores the rule keeps threads, which the GIL serializes, so the
    ratio reads about 1x there; the expectation is skipped below 4 cores
    (recorded either way). The entry records the rule's verdict next to
    the timings it is supposed to predict.
    """
    from repro.bench.jobs import dataset_spec, engine_to_spec, resolve_backend
    from repro.bench.sweep import _des_bound

    app = get_app("kmeans")
    data = app.generate(n_bytes=32 * MiB, seed=7)
    base = EngineConfig(fastpath=False, functional=False)
    grid = {"chunk_bytes": [8 * 1024, 16 * 1024], "num_blocks": [8, 16, 32, 64]}

    # a fresh engine per sweep: neither run starts with the other's memos
    t0 = time.perf_counter()
    serial = sweep(BigKernelEngine(), app, data, base, grid, jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = sweep(BigKernelEngine(), app, data, base, grid, jobs=4)
    t_parallel = time.perf_counter() - t0

    # equivalence is a hard assert even though the timing is not
    assert [(p.params, p.sim_time) for p in serial.points] == [
        (p.params, p.sim_time) for p in parallel.points
    ]
    cores = os.cpu_count() or 1
    pool = resolve_backend(
        len(parallel.points),
        speccable=dataset_spec(app, data) is not None
        and engine_to_spec(BigKernelEngine()) is not None,
        des_bound=_des_bound(app, base),
    )
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    record(
        {
            "name": "des_bound_sweep_parallel_vs_serial",
            "points": len(parallel.points),
            "jobs": 4,
            "cpu_count": cores,
            "pool": pool,
            "serial_seconds": t_serial,
            "parallel_seconds": t_parallel,
            "parallel_speedup": speedup,
        }
    )
    if cores >= 4 and speedup < PROCESS_WARN_SPEEDUP:
        warnings.warn(
            f"des_bound_sweep_parallel_vs_serial: {pool} pool only "
            f"{speedup:.2f}x over the serial sweep on {cores} cores, below "
            f"the {PROCESS_WARN_SPEEDUP:.0f}x expectation (warn-only)",
            stacklevel=2,
        )


def test_uvm_comparison():
    """BigKernel vs the unified-memory engine family on the paper's six
    apps: the competitor comparison (``repro bench``).

    Unlike the wall-clock checks above, the *orderings* here are hard
    asserts — they are simulated-time facts, deterministic on any box:
    both prefetched UVM variants beat plain demand paging on every app,
    and BigKernel beats the best UVM variant on most apps (prefetching
    narrows the gap but cannot buy the pipeline's pinned bandwidth or
    transfer-volume reduction).
    """
    from repro.bench.uvm import run_uvm_comparison

    t0 = time.perf_counter()
    comp = run_uvm_comparison()
    elapsed = time.perf_counter() - t0

    for app in comp.apps:
        plain = comp.sim_time(app, "gpu_uvm")
        assert comp.sim_time(app, "uvm_readahead") < plain, app
        assert comp.sim_time(app, "uvm_learned") < plain, app
    wins = sum(
        1
        for app in comp.apps
        if comp.sim_time(app, "bigkernel")
        < comp.sim_time(app, comp.best_uvm(app))
    )
    assert wins >= 4, f"bigkernel only beats the best UVM variant on {wins}/6"

    entry = comp.figure_entry()
    entry["bigkernel_wins"] = wins
    entry["wall_seconds"] = elapsed
    record(entry)


def test_replay(monkeypatch):
    """A fault-free run simulates once per plan; a repeat replays.

    Best-of-3 wall of a first and a repeated run of three timing-only
    jobs, each pair on a fresh engine: a 1 MiB ``gpu_uvm`` Word Count (the
    paging DES), an 8 MiB ``gpu_double`` Word Count at 64 KiB chunks (the
    closed form) and a 1 MiB BigKernel K-means at 64 KiB chunks (the DES
    fallback for mapped writes), with the simulations each run made
    (``run_pipeline`` and ``_UvmSimulation.execute`` calls): 1, then 0.
    The counts and the repeats' exactness are hard asserts; the wall
    ratios are warn-only.
    """
    import repro.engines.bigkernel as bigkernel
    import repro.engines.gpu_double as gpu_double
    from repro.engines import GpuDoubleBufferEngine, GpuUvmEngine
    from repro.engines.uvm import _UvmSimulation

    simulations = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            simulations[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (bigkernel, gpu_double):
        monkeypatch.setattr(module, "run_pipeline", counting(module.run_pipeline))
    monkeypatch.setattr(_UvmSimulation, "execute", counting(_UvmSimulation.execute))
    jobs = {
        "gpu_uvm-wordcount": (GpuUvmEngine, "wordcount", 1 * MiB, None),
        "gpu_double-wordcount": (GpuDoubleBufferEngine, "wordcount", 8 * MiB, 64),
        "bigkernel-kmeans": (BigKernelEngine, "kmeans", 1 * MiB, 64),
    }
    entries = {}
    for label, (engine_cls, app_name, n_bytes, chunk_kib) in jobs.items():
        app = get_app(app_name)
        data = app.generate(n_bytes=n_bytes, seed=7)
        cfg = EngineConfig(functional=False)
        if chunk_kib is not None:
            cfg = cfg.with_(chunk_bytes=chunk_kib * 1024)
        best = {"first": float("inf"), "repeat": float("inf")}
        for _ in range(3):
            engine = engine_cls()
            results, counts = {}, {}
            for run in ("first", "repeat"):
                before = simulations[0]
                t0 = time.perf_counter()
                results[run] = engine.run(app, data, cfg)
                best[run] = min(best[run], time.perf_counter() - t0)
                counts[run] = simulations[0] - before
            assert counts == {"first": 1, "repeat": 0}, label
            first, repeat = results["first"], results["repeat"]
            assert repeat.sim_time == first.sim_time, label
            assert repeat.metrics == first.metrics, label
        entries[label] = {
            "n_bytes": n_bytes,
            "n_chunks": first.metrics.n_chunks,
            "first_ms": best["first"] * 1e3,
            "repeat_ms": best["repeat"] * 1e3,
            "first_simulations": counts["first"],
            "repeat_simulations": counts["repeat"],
            "traced": first.trace is not None,
            "speedup": (
                best["first"] / best["repeat"] if best["repeat"] > 0 else float("inf")
            ),
            "sim_time": first.sim_time,
        }
    record({"name": "replay", "runs": entries})
    for label, entry in entries.items():
        _warn_if_slow(f"replay {label}", entry["speedup"])


def test_functional_memo(monkeypatch):
    """One functional pass per dataset, whatever the chunking.

    Best-of-3 wall of a first functional BigKernel run of a 1 MiB Word
    Count and of a run at another chunk size on the same dataset, each
    pair on a fresh dataset and engine, with the passes (``finalize``
    calls) and ``chunk_bounds`` calls each made: 1 and 1, then 0 and 0.
    The counts and the outputs' equality are hard asserts; the wall ratio
    is warn-only.
    """
    from repro.serve import bit_equal

    app = get_app("wordcount")
    counts = {"passes": 0, "chunk_bounds": 0}
    cls = type(app)
    plain_finalize, plain_bounds = cls.finalize, cls.chunk_bounds

    def counting_finalize(self, data, state):
        counts["passes"] += 1
        return plain_finalize(self, data, state)

    def counting_bounds(self, data, chunk_units):
        counts["chunk_bounds"] += 1
        return plain_bounds(self, data, chunk_units)

    monkeypatch.setattr(cls, "finalize", counting_finalize)
    monkeypatch.setattr(cls, "chunk_bounds", counting_bounds)
    configs = {
        "first": EngineConfig(chunk_bytes=256 * 1024),
        "memo_hit": EngineConfig(chunk_bytes=64 * 1024),
    }
    best = {run: float("inf") for run in configs}
    made = {}
    for _ in range(3):
        data = app.generate(n_bytes=1 * MiB, seed=7)
        engine = BigKernelEngine()
        outputs = {}
        for run, cfg in configs.items():
            before = dict(counts)
            t0 = time.perf_counter()
            outputs[run] = engine.run(app, data, cfg).output
            best[run] = min(best[run], time.perf_counter() - t0)
            made[run] = {k: counts[k] - before[k] for k in counts}
        assert bit_equal(outputs["memo_hit"], outputs["first"])
    assert made == {
        "first": {"passes": 1, "chunk_bounds": 1},
        "memo_hit": {"passes": 0, "chunk_bounds": 0},
    }
    hit = best["memo_hit"]
    speedup = best["first"] / hit if hit > 0 else float("inf")
    record(
        {
            "name": "functional_memo",
            "n_bytes": 1 * MiB,
            "first_ms": best["first"] * 1e3,
            "memo_hit_ms": best["memo_hit"] * 1e3,
            "first_passes": made["first"]["passes"],
            "first_chunk_bounds": made["first"]["chunk_bounds"],
            "memo_hit_passes": made["memo_hit"]["passes"],
            "memo_hit_chunk_bounds": made["memo_hit"]["chunk_bounds"],
            "speedup": speedup,
        }
    )
    _warn_if_slow("functional_memo", speedup)


def test_pricing_reuse(monkeypatch):
    """Dispatch reuses what pricing planned.

    Best-of-3 wall of pricing (``submit`` on an SLO tenant) and then
    dispatching (``drain``) one timing-only 512 KiB Word Count job on
    BigKernel and one on ``gpu_uvm``, against dispatching the same job
    unpriced (a tenant with no SLO), each on a fresh server whose dataset
    is already pooled. With the BigKernel schedules planned and the UVM
    simulations run at dispatch: 1 unpriced, 0 after pricing. The counts
    and the sim_times' equality are hard asserts; the walls are
    warn-only.
    """
    from repro.apps.datagen import DATAGEN_VERSION
    from repro.bench.jobs import DatasetSpec, JobSpec
    from repro.engines.uvm import _UvmSimulation
    from repro.memo import MEMO_STATS
    from repro.serve import ServeConfig, ServeRequest, Server, TenantSpec
    from repro.serve.workload import engine_spec_by_name

    simulations = [0]
    plain_execute = _UvmSimulation.execute

    def counting_execute(sim):
        simulations[0] += 1
        return plain_execute(sim)

    monkeypatch.setattr(_UvmSimulation, "execute", counting_execute)

    def planned() -> int:
        return MEMO_STATS["bigkernel.schedule"]["misses"] + simulations[0]

    dataset = DatasetSpec(
        app="wordcount", seed=7, n_bytes=512 * 1024, version=DATAGEN_VERSION
    )
    cfg = EngineConfig(chunk_bytes=128 * 1024, functional=False)
    entries = {}
    for engine in ("bigkernel", "gpu_uvm"):
        job = JobSpec(dataset, engine_spec_by_name(engine), cfg)
        best = {"price": float("inf"), "dispatch": float("inf"),
                "unpriced_dispatch": float("inf")}
        counts, sims = {}, set()
        for _ in range(3):
            for slo_ms in (1e9, None):
                tenants = (TenantSpec("t", 1.0, slo_ms=slo_ms),)
                with Server(ServeConfig(cache=False), tenants=tenants) as server:
                    server._dataset(dataset)
                    req = ServeRequest(req_id=0, tenant="t", arrival=0.0, job=job)
                    t0 = time.perf_counter()
                    assert server.submit(req) is None
                    t1 = time.perf_counter()
                    before = planned()
                    (resp,) = server.drain()
                    t2 = time.perf_counter()
                    run = "dispatch" if slo_ms else "unpriced_dispatch"
                    counts[run] = planned() - before
                    assert counts[run] == (0 if slo_ms else 1)
                    best[run] = min(best[run], t2 - t1)
                    if slo_ms:
                        best["price"] = min(best["price"], t1 - t0)
                    sims.add(resp.result.sim_time)
        assert len(sims) == 1
        entries[engine] = {
            "price_ms": best["price"] * 1e3,
            "dispatch_ms": best["dispatch"] * 1e3,
            "unpriced_dispatch_ms": best["unpriced_dispatch"] * 1e3,
            "dispatch_plans": counts["dispatch"],
            "unpriced_dispatch_plans": counts["unpriced_dispatch"],
            "speedup": best["unpriced_dispatch"] / best["dispatch"],
            "sim_time": sims.pop(),
        }
    record({"name": "pricing_reuse", "n_bytes": 512 * 1024, "runs": entries})
    for engine, entry in entries.items():
        if entry["speedup"] < PRICING_REUSE_WARN_SPEEDUP:
            warnings.warn(
                f"pricing_reuse: {engine} dispatch after pricing is only "
                f"{entry['speedup']:.1f}x faster than unpriced, below the "
                f"{PRICING_REUSE_WARN_SPEEDUP:.0f}x expectation (warn-only; "
                f"see BENCH_pipeline.json)",
                stacklevel=2,
            )


def test_multigpu_scaling():
    """1→8 GPU scaling sweep per app: the sharded scale-out engine
    (``repro bench --gpus``).

    Every cell runs through the true DES with each shard's trace audited
    by the pipeline invariant battery, every K-GPU merged output is
    cross-checked bit-equal against the single-GPU run (the harness hard
    asserts both), and the closed-form shard model prices every cell.
    The scaling-shape facts are simulated-time facts, deterministic on
    any box, so they are hard asserts too: compute-bound apps gain from
    a second GPU, a shared root complex never beats dedicated links, and
    the analytic predictions stay within the published tolerance.
    """
    from repro.bench.multigpu import run_multigpu_scaling
    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.verify.differential import ANALYTIC_TOL

    t0 = time.perf_counter()
    scaling = run_multigpu_scaling(
        gpu_counts=(1, 2, 4, 8), verify_shards=True
    )
    elapsed = time.perf_counter() - t0

    compute_bound = ("kmeans", "wordcount", "opinion", "mastercard")
    for app in compute_bound:
        assert scaling.speedup(app, "bigkernel_multigpu2") > 1.0, app
    worst = 0.0
    for app in scaling.apps:
        for engine in scaling.engines:
            worst = max(worst, scaling.prediction_rel_err(app, engine))
    assert worst <= ANALYTIC_TOL, (
        f"analytic shard model off by {worst:.2e} somewhere in the sweep"
    )
    # a shared root complex never beats dedicated links (spot-check at 2)
    app0 = scaling.apps[0]
    app_obj = get_app(app0)
    data = app_obj.generate(n_bytes=scaling.data_bytes, seed=scaling.seed)
    cfg = EngineConfig(
        chunk_bytes=max(256 * 1024, scaling.data_bytes // 4)
    )
    shared = MultiGpuBigKernelEngine(2, shared_link=True).run(
        app_obj, data, cfg
    )
    assert shared.sim_time >= (
        scaling.sim_time(app0, "bigkernel_multigpu2") * (1 - 1e-12)
    )

    entry = scaling.figure_entry()
    entry["wall_seconds"] = elapsed
    entry["worst_prediction_rel_err"] = worst
    record(entry)


def test_kernel_exec_throughput():
    """Compiled NumPy backend vs the tree-walking interpreter on the dna
    kernel: same outputs and counters, >= 10x elements/sec expected."""
    import numpy as np

    from repro.kernelc.codegen import KernelInterpreter
    from repro.kernelc.compile import (
        compile_kernel,
        resident_kinds_of,
        vector_fn_names,
    )

    app = get_app("dna")
    data = app.generate(n_bytes=512 * 1024, seed=7)
    n = app.n_units(data)
    kernel = app.kernel()

    ctx_i = app.make_ir_context(data)
    t0 = time.perf_counter()
    interp = KernelInterpreter(kernel, ctx_i)
    interp.run_thread(0, 0, n)
    t_interp = time.perf_counter() - t0

    ctx_c = app.make_ir_context(data)
    compiled = compile_kernel(
        kernel,
        vector_fns=vector_fn_names(ctx_c.device_fns),
        resident_kinds=resident_kinds_of(ctx_c.resident),
    )
    t0 = time.perf_counter()
    run = compiled.run_range(ctx_c, 0, n)
    t_compiled = time.perf_counter() - t0

    # exactness is non-negotiable; only the wall-clock is warn-only
    assert np.array_equal(
        ctx_i.resident["table"], ctx_c.resident["table"]
    )
    assert run.stats.n_ops == interp.stats.n_ops
    assert run.stats.mapped_read_bytes == interp.stats.mapped_read_bytes

    speedup = t_interp / t_compiled if t_compiled > 0 else float("inf")
    record(
        {
            "name": "kernel_exec_throughput",
            "app": "dna",
            "n_records": n,
            "interp_elements_per_sec": n / t_interp,
            "compiled_elements_per_sec": n / t_compiled,
            "speedup": speedup,
            "interp_seconds": t_interp,
            "compiled_seconds": t_compiled,
        }
    )
    if speedup < 10.0:
        warnings.warn(
            f"kernel_exec_throughput: compiled backend {speedup:.1f}x below "
            f"the 10x expectation (warn-only; see BENCH_pipeline.json)",
            stacklevel=2,
        )


def test_analytic_sweep():
    """Million-point analytic sweep plus a DES spot-check of its optimum.

    The closed-form predictor prices a generated grid of >= 1,000,000
    configurations (chunk bytes x blocks x threads x ring depth) as pure
    NumPy array ops, for BigKernel and for the gpu_double and gpu_single
    baselines; each engine's wall-clock is recorded. Then a single DES
    run at BigKernel's analytic argbest must land within the
    ``verify --analytic`` tolerance (the predictor is machine-exact on
    clean geometries, so this is a hard assert). Finally the hybrid
    sweep mode — rank analytically, DES-verify only the frontier — must
    return the same winner as the pure-DES 16-point sweep.
    """
    from repro.analytic import predict_grid, suggest_grid
    from repro.verify.differential import ANALYTIC_TOL

    app = get_app("wordcount")
    data = app.generate(n_bytes=4 * MiB, seed=7)
    engine = BigKernelEngine()
    base = EngineConfig(functional=False)

    grid = suggest_grid(1_000_000)
    engine_walls = {}
    for name in ("gpu_double", "gpu_single"):
        t0 = time.perf_counter()
        predict_grid(app, data, grid, base, engine=name)
        engine_walls[name] = time.perf_counter() - t0
    t0 = time.perf_counter()
    gp = predict_grid(app, data, grid, base, engine=engine)
    elapsed = time.perf_counter() - t0
    engine_walls["bigkernel"] = elapsed
    assert gp.n_points >= 1_000_000

    best_idx = gp.argbest()
    predicted = float(gp.sim_time[best_idx])
    des = engine.run(app, data, gp.config_at(best_idx)).sim_time
    rel_err = abs(predicted - des) / des
    assert rel_err <= ANALYTIC_TOL, (
        f"DES at the analytic argbest: {des} vs predicted {predicted} "
        f"(rel err {rel_err:.2e})"
    )

    hybrid = sweep(
        engine, app, data, base, SWEEP_GRID, mode="hybrid", top_k=4
    )
    pure = sweep(engine, app, data, base, SWEEP_GRID)
    assert hybrid.best.params == pure.best.params
    assert hybrid.best.sim_time == pure.best.sim_time
    assert len(hybrid.points) <= len(pure.points)

    record(
        {
            "name": "analytic_sweep",
            "app": "wordcount",
            "points": gp.n_points,
            "wall_seconds": elapsed,
            "points_per_sec": gp.n_points / elapsed,
            "wall_seconds_by_engine": engine_walls,
            "best_params": gp.best_params(),
            "predicted_best": predicted,
            "des_at_best": des,
            "rel_err": rel_err,
            "hybrid_points_evaluated": len(hybrid.points),
            "hybrid_matches_des_best": hybrid.best.params == pure.best.params,
        }
    )
    for name, wall in engine_walls.items():
        if wall > 60.0:
            warnings.warn(
                f"analytic_sweep: {gp.n_points:,} {name} points took "
                f"{wall:.1f}s (warn-only; see BENCH_pipeline.json)",
                stacklevel=2,
            )


def test_memo_hit():
    """ns per ``Memo.get`` hit against a bare ``OrderedDict`` lookup and
    against the lock alone (best of 5), and the memo lookups per request
    of a short cache-off serve trace. The ratio is warn-only."""
    import threading
    from collections import OrderedDict

    from repro.memo import MEMO_STATS, Memo
    from repro.serve import ServeConfig, Server, TraceSpec, generate_trace, serve_trace
    from repro.units import KiB

    n = 200_000
    key = ("wordcount", 7, 1 << 20, EngineConfig())
    memo = Memo("perf.memo_hit", 4)
    memo.put(key, 1.0)
    bare = OrderedDict([(key, 1.0)])
    lock = threading.Lock()

    def memo_hit():
        get = memo.get
        for _ in range(n):
            get(key)

    def bare_hit():
        get, touch = bare.get, bare.move_to_end
        for _ in range(n):
            get(key)
            touch(key)

    def lock_only():
        for _ in range(n):
            with lock:
                pass

    def best_ns(loop):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
        return best / n * 1e9

    memo_ns, bare_ns, lock_ns = best_ns(memo_hit), best_ns(bare_hit), best_ns(lock_only)

    trace = generate_trace(TraceSpec(seed=3, duration=1.0, rate=40.0, data_bytes=256 * KiB))
    before = {name: sum(c.values()) - c["evictions"] for name, c in MEMO_STATS.items()}
    with Server(ServeConfig(cache=False)) as server:
        outcome = serve_trace(server, trace)
    assert outcome.metrics.completed == len(trace)
    lookups = {
        name: sum(c.values()) - c["evictions"] - before.get(name, 0)
        for name, c in MEMO_STATS.items()
    }
    lookups = {name: count for name, count in lookups.items() if count}
    ratio = memo_ns / bare_ns
    record(
        {
            "name": "memo_hit",
            "memo_hit_ns": memo_ns,
            "ordered_dict_hit_ns": bare_ns,
            "lock_ns": lock_ns,
            "ratio": ratio,
            "warn_ratio": MEMO_HIT_WARN_RATIO,
            "serve_requests": len(trace),
            "memo_lookups_per_request": sum(lookups.values()) / len(trace),
            "memo_lookups": lookups,
        }
    )
    if ratio > MEMO_HIT_WARN_RATIO:
        warnings.warn(
            f"memo_hit: a Memo.get hit costs {ratio:.1f}x a bare OrderedDict "
            f"lookup, above the {MEMO_HIT_WARN_RATIO:.0f}x expectation "
            f"(warn-only; see BENCH_pipeline.json)",
            stacklevel=2,
        )


def test_pattern_sample(monkeypatch):
    """Best-of-20 wall of one BigKernel pattern sample
    (``_sample_pattern_fraction``: four sampled threads' address streams
    through the online tracker) per app, at the ``serve_slo_edf`` shapes
    (512 KiB datasets at 256 and 512 KiB chunks) and at 16 MiB with 32 KiB
    chunks, where every fixed-record app's thread owns a unit or two and
    the sampler fetches a longer stretch (best of 5). Every fraction must
    equal the oracle's (the per-period recognizer, the growth loop and a
    tracker fed one address at a time, ``tests/test_pattern_sampling.py``);
    the walls are warn-only.
    """
    from repro.memo import Memo
    from tests.test_pattern_sampling import oracle_fraction

    shapes = {
        "512kib_256kib": (512 * 1024, 256 * 1024, 20),
        "512kib_512kib": (512 * 1024, 512 * 1024, 20),
        "16mib_32kib": (16 * MiB, 32 * 1024, 5),
    }
    sample_ms: dict = {}
    fractions: dict = {}
    for shape, (n_bytes, chunk, repeats) in shapes.items():
        sample_ms[shape], fractions[shape] = {}, {}
        for name in sorted(APP_REGISTRY):
            app = get_app(name)
            data = app.generate(n_bytes=n_bytes, seed=0)
            engine = BigKernelEngine()
            config = EngineConfig(chunk_bytes=chunk)
            upc = engine._schedule(app, data, config).upc
            best = float("inf")
            for _ in range(repeats):
                monkeypatch.setattr(
                    BigKernelEngine, "_pattern_cache", Memo("bigkernel.pattern", 256)
                )
                t0 = time.perf_counter()
                fraction = engine._sample_pattern_fraction(app, data, config, upc)
                best = min(best, time.perf_counter() - t0)
            want = oracle_fraction(app, data, config.total_compute_threads, upc)
            assert fraction == want, (shape, name)
            sample_ms[shape][name] = best * 1e3
            fractions[shape][name] = fraction
    paper_six = ("dna", "kmeans", "mastercard", "netflix", "opinion", "wordcount")
    median_ms = float(np.median([sample_ms["512kib_256kib"][a] for a in paper_six]))
    record(
        {
            "name": "pattern_sample",
            "sample_ms": sample_ms,
            "fractions": fractions,
            "median_ms_512kib_256kib": median_ms,
            "warn_ms": PATTERN_SAMPLE_WARN_MS,
        }
    )
    if median_ms > PATTERN_SAMPLE_WARN_MS:
        warnings.warn(
            f"pattern_sample: one sample took {median_ms:.2f} ms (median of "
            f"the six paper apps at 512 KiB), above the "
            f"{PATTERN_SAMPLE_WARN_MS} ms expectation (warn-only; see "
            f"BENCH_pipeline.json)",
            stacklevel=2,
        )
