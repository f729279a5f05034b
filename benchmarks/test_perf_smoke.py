"""Perf smoke: wall-clock of the analytic fast path vs the DES.

Times (``time.perf_counter``) a ~500-chunk BigKernel run, a 16-point
autotune sweep, the raw DES event throughput, the DES cost per pipeline
chunk, a DES-bound thread-vs-process sweep and every app's dataset
generation, and records the measurements to ``BENCH_pipeline.json`` at
the repo root.

Every threshold is *warn-only*: wall-clock on shared CI boxes is
too noisy for a hard assert, but the recorded JSON makes regressions
visible across commits. Expected on any machine: the analytic pipeline
beats the DES by well over 5x at 500 chunks (it is O(n) arithmetic vs
an event queue), the cached sweep beats the cold serial sweep by the
cache hit rate, and the DES core clears 1.5x the pre-optimization event
rate. The process-vs-thread expectation additionally needs real cores:
on a single-CPU box a process pool cannot beat the GIL, so that check
downgrades to recording only.
"""

import json
import os
import time
import warnings
from pathlib import Path

from repro.apps import APP_REGISTRY, get_app
from repro.bench.sweep import RUN_CACHE, sweep
from repro.engines import BigKernelEngine, EngineConfig
from repro.units import MiB

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
WARN_SPEEDUP = 5.0

#: DES event throughput of the pre-optimization core (measured on the
#: reference box: plain-method dispatch, no __slots__, un-inlined loop)
DES_BASELINE_EVENTS_PER_SEC = 0.647e6
DES_WARN_SPEEDUP = 1.5
PROCESS_WARN_SPEEDUP = 2.0
#: DES heap events per pipeline chunk once resource releases and flagged
#: DMA completions stay off the heap (27 and 39 while they took a trip)
DES_EVENTS_PER_CHUNK = {"wordcount": 20, "kmeans": 30}
#: Word Count's 512 KiB ``generate`` takes ~7 ms on one core of a 2-vCPU
#: host; the per-word vocabulary loop and bytes join it replaced took ~60 ms
DATAGEN_WARN_MS = 20.0

SWEEP_GRID = {
    "chunk_bytes": [256 * 1024, 512 * 1024, 1 * MiB, 2 * MiB],
    "num_blocks": [8, 16, 32, 64],
}


def _record(entry: dict) -> None:
    entries = []
    if BENCH_FILE.exists():
        entries = json.loads(BENCH_FILE.read_text())
    entries = [e for e in entries if e["name"] != entry["name"]]
    entries.append(entry)
    BENCH_FILE.write_text(json.dumps(entries, indent=2) + "\n")


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
    _record(
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
    _record(
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
    no pipeline model, so this isolates exactly what the ``sim.core``
    hot-loop optimizations (``__slots__``, inlined run loop, flattened
    Timeout, cached resume callback) bought. Best-of-3 to shave scheduler
    noise.

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

    best_rate = 0.0
    events = 0
    for _ in range(3):
        env = Environment()
        for _ in range(n_procs):
            env.process(ticker(env))
        t0 = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - t0
        events = env._eid
        best_rate = max(best_rate, events / elapsed)

    speedup = best_rate / DES_BASELINE_EVENTS_PER_SEC
    _record(
        {
            "name": "des_event_throughput",
            "events": events,
            "events_per_sec": best_rate,
            "baseline_events_per_sec": DES_BASELINE_EVENTS_PER_SEC,
            "speedup_vs_baseline": speedup,
        }
    )
    if speedup < DES_WARN_SPEEDUP:
        warnings.warn(
            f"des_event_throughput: {best_rate / 1e6:.2f}M events/s is "
            f"{speedup:.2f}x the pre-optimization baseline, below the "
            f"{DES_WARN_SPEEDUP:.1f}x expectation (warn-only)",
            stacklevel=2,
        )


def test_des_pipeline(monkeypatch):
    """DES cost per pipeline chunk: heap events and best-of-3 wall per run.

    BigKernel and double buffering on Word Count (16 MiB in 32 KiB
    chunks, no writes) and on K-means (same size, with writes), forced
    onto the DES. Events are counted from ``env._eid``, which every heap
    push increments, the way the end-to-end benchmark's ``sim.events``
    counts them. Unlike ``des_event_throughput`` this measures the
    pipeline model itself: how many events a chunk costs, not how fast
    each one dispatches.
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
    runs = {}
    for app_name in ("wordcount", "kmeans"):
        app = get_app(app_name)
        data = app.generate(n_bytes=16 * MiB, seed=7)
        for engine in (BigKernelEngine(), GpuDoubleBufferEngine()):
            engine.run(app, data, cfg)  # build the schedule once
            best = float("inf")
            for _ in range(3):
                pushes.clear()
                t0 = time.perf_counter()
                res = engine.run(app, data, cfg)
                best = min(best, time.perf_counter() - t0)
            (events,) = pushes
            per_chunk = events / res.metrics.n_chunks
            runs[f"{engine.name}-{app_name}"] = {
                "n_chunks": res.metrics.n_chunks,
                "events": events,
                "events_per_chunk": per_chunk,
                "wall_ms": best * 1e3,
            }
            if round(per_chunk) > DES_EVENTS_PER_CHUNK[app_name]:
                warnings.warn(
                    f"des_pipeline: {engine.name} on {app_name} puts "
                    f"{per_chunk:.1f} events per chunk on the heap, above "
                    f"{DES_EVENTS_PER_CHUNK[app_name]} (warn-only)",
                    stacklevel=2,
                )
    _record({"name": "des_pipeline", "n_bytes": 16 * MiB, "runs": runs})


def test_datagen_throughput():
    """Best-of-5 ``generate`` wall per app at 512 KiB, and Word Count at
    16 MiB (the ``sweep_des`` dataset size).

    The server regenerates a dataset from its recipe whenever a run or a
    first price misses its dataset pool, so ``generate`` is on the serving
    hot path.
    """

    def best_ms(name: str, n_bytes: int, repeats: int) -> float:
        app = get_app(name)
        best = float("inf")
        for seed in range(repeats):
            t0 = time.perf_counter()
            app.generate(n_bytes=n_bytes, seed=seed)
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    generate_ms = {name: best_ms(name, 512 * 1024, 5) for name in sorted(APP_REGISTRY)}
    wordcount_16mib_ms = best_ms("wordcount", 16 * MiB, 2)
    _record(
        {
            "name": "datagen_throughput",
            "n_bytes": 512 * 1024,
            "generate_ms": generate_ms,
            "wordcount_16mib_ms": wordcount_16mib_ms,
            "warn_ms": DATAGEN_WARN_MS,
        }
    )
    if generate_ms["wordcount"] > DATAGEN_WARN_MS:
        warnings.warn(
            f"datagen_throughput: wordcount generate took "
            f"{generate_ms['wordcount']:.1f} ms at 512 KiB, above the "
            f"{DATAGEN_WARN_MS:.0f} ms expectation (warn-only)",
            stacklevel=2,
        )


def test_des_bound_sweep_process_vs_thread():
    """Thread vs process backend on a purely DES-bound grid.

    Every point runs the pure-Python simulator (``fastpath=False``), so
    the GIL serializes the thread backend while process workers run truly
    concurrently — the process pool should win by ~min(jobs, cores) once
    points dwarf the fork + regeneration overhead. On a single-CPU box
    there is no concurrency to buy and the fork tax makes processes
    *slower*; the expectation is skipped there (recorded either way).
    """
    from repro.bench.jobs import dataset_spec, engine_to_spec, resolve_backend
    from repro.bench.sweep import _des_bound

    app = get_app("kmeans")
    data = app.generate(n_bytes=32 * MiB, seed=7)
    engine = BigKernelEngine()
    base = EngineConfig(fastpath=False, functional=False)
    grid = {"chunk_bytes": [8 * 1024, 16 * 1024], "num_blocks": [8, 16, 32, 64]}
    n_points = 8

    t0 = time.perf_counter()
    threaded = sweep(engine, app, data, base, grid, jobs=4, backend="thread")
    t_thread = time.perf_counter() - t0

    t0 = time.perf_counter()
    proc = sweep(engine, app, data, base, grid, jobs=4, backend="process")
    t_proc = time.perf_counter() - t0

    # equivalence is a hard assert even though the timing is not
    assert [(p.params, p.sim_time) for p in threaded.points] == [
        (p.params, p.sim_time) for p in proc.points
    ]
    cores = os.cpu_count() or 1
    # what backend="auto" would have chosen for this grid on this box —
    # the dispatch heuristic's verdict belongs next to the timings it is
    # supposed to predict (a 1-core runner records "thread" here, which
    # explains a process_speedup < 1 without flagging a regression)
    auto_backend = resolve_backend(
        "auto",
        jobs=4,
        n_items=n_points,
        speccable=dataset_spec(app, data) is not None
        and engine_to_spec(engine) is not None,
        des_bound=_des_bound(app, base),
    )
    speedup = t_thread / t_proc if t_proc > 0 else float("inf")
    _record(
        {
            "name": "des_bound_sweep_process_vs_thread",
            "points": len(proc.points),
            "jobs": 4,
            "cpu_count": cores,
            "auto_backend": auto_backend,
            "thread_seconds": t_thread,
            "process_seconds": t_proc,
            "process_speedup": speedup,
            # consumers must gate any speedup expectation on this flag: a
            # process pool cannot beat the GIL without a second core, so
            # on a 1-core runner the ratio is pure fork overhead noise
            "process_timing_meaningful": cores >= 2,
        }
    )
    if cores < 2:
        # a process pool cannot beat the GIL without a second core: the
        # timing expectation is meaningless there, so don't even warn
        return
    if cores >= 4 and speedup < PROCESS_WARN_SPEEDUP:
        warnings.warn(
            f"des_bound_sweep_process_vs_thread: process backend only "
            f"{speedup:.2f}x over threads on {cores} cores, below the "
            f"{PROCESS_WARN_SPEEDUP:.0f}x expectation (warn-only)",
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
    _record(entry)


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
        gpu_counts=(1, 2, 4, 8), verify_shards=True, predict=True
    )
    elapsed = time.perf_counter() - t0

    compute_bound = ("kmeans", "wordcount", "opinion", "mastercard")
    for app in compute_bound:
        assert scaling.speedup(app, 2) > 1.0, app
    worst = 0.0
    for app in scaling.apps:
        for n in scaling.gpu_counts:
            worst = max(worst, scaling.prediction_rel_err(app, n))
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
    assert shared.sim_time >= scaling.sim_time(app0, 2) * (1 - 1e-12)

    entry = scaling.figure_entry()
    entry["wall_seconds"] = elapsed
    entry["worst_prediction_rel_err"] = worst
    _record(entry)


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
    _record(
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

    _record(
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
