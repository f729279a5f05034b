"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's surfaces:

* ``apps`` — list the benchmark applications and their Table I profile;
* ``run`` — one app on one (or all) execution scheme(s);
* ``fig4a`` / ``fig4b`` / ``fig5`` / ``fig6`` / ``table1`` / ``table2`` —
  regenerate one paper artifact;
* ``hw`` — print the simulated testbed;
* ``trace`` — run BigKernel on an app and dump a Chrome-trace timeline;
* ``verify`` — invariant + differential + fuzz verification sweep
  (see ``docs/verification.md``); ``--fastpath`` adds the analytic-vs-DES
  differential; exits nonzero on any violation;
* ``chaos`` — fault-injection sweep: the app x engine matrix under a
  seeded fault grid, with differential + invariant verification per cell
  (see ``docs/faults.md``); ``--jobs``/``--backend`` parallelize the
  blocks without changing the fingerprint; exits nonzero on any failing
  cell;
* ``bench`` — competitor comparison: BigKernel vs the unified-memory
  engine family (plain / readahead / learned prefetch) on the paper's six
  apps (see ``docs/engines.md``);
* ``sweep`` — autotune one engine/app pair over the default grid, with
  ``--jobs``/``--backend`` for parallel evaluation and a persistent run
  cache (see ``docs/performance.md``);
* ``serve`` — multi-tenant serving: replay a seeded open-loop request
  trace through the admission queue + WDRR scheduler + batched
  dispatcher, with cache short-circuit and cross-job template reuse
  (see ``docs/serving.md``); ``--verify`` oracle-checks every response;
  exits nonzero on verification failure.
"""

from __future__ import annotations

import argparse
import sys

from repro.units import MiB, fmt_bandwidth, fmt_bytes, fmt_time


def _settings(args):
    from repro.bench import BenchSettings
    from repro.engines import EngineConfig

    return BenchSettings(
        data_bytes=args.data_mib * MiB,
        seed=args.seed,
        config=EngineConfig(chunk_bytes=args.chunk_kib * 1024),
    )


def _data_mib(text: str) -> int:
    """argparse type of every ``--data-mib``: a whole number of MiB, >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a whole number of MiB >= 0, got {text!r}"
        )
    return int(text)


def _add_common(p):
    p.add_argument("--data-mib", type=_data_mib, default=16, help="dataset size (MiB)")
    p.add_argument("--chunk-kib", type=int, default=2048, help="chunk payload (KiB)")
    p.add_argument("--seed", type=int, default=7, help="data generator seed")


def cmd_apps(args) -> int:
    from repro.apps import ALL_APPS
    from repro.bench.report import render_table

    rows = []
    for cls in ALL_APPS:
        app = cls()
        data = app.generate(n_bytes=2 * MiB, seed=0)
        p = app.access_profile(data)
        rows.append(
            [
                app.name,
                app.display_name,
                fmt_bytes(app.paper_data_bytes) + " (paper)",
                f"{p.read_fraction * 100:.0f}%",
                f"{p.write_fraction * 100:.0f}%",
                "var" if p.variable_length else "fixed",
                p.passes,
            ]
        )
    print(render_table(
        ["name", "application", "paper size", "read", "modified", "records", "passes"],
        rows,
    ))
    return 0


def cmd_run(args) -> int:
    from repro.apps import get_app
    from repro.bench.report import render_table
    from repro.engines import ALL_ENGINES, UVM_ENGINES

    app = get_app(args.app)
    data = app.generate(n_bytes=args.data_mib * MiB, seed=args.seed)
    settings = _settings(args)
    engines = [cls() for cls in ALL_ENGINES]
    if args.engine in {cls.name for cls in UVM_ENGINES}:
        # the UVM family stays out of the default five-scheme table but is
        # runnable by name, next to the serial baseline for a speedup ref
        engines = [engines[0]] + [
            cls() for cls in UVM_ENGINES if cls.name == args.engine
        ]
    elif args.engine != "all":
        engines = [e for e in engines if e.name == args.engine]
        if not engines:
            print(f"unknown engine {args.engine!r}", file=sys.stderr)
            return 2
    results = [e.run(app, data, settings.config) for e in engines]
    for r in results[1:]:
        if not app.outputs_equal(results[0].output, r.output):
            print(f"OUTPUT MISMATCH in {r.engine}", file=sys.stderr)
            return 1
    base = results[0].sim_time
    rows = [
        [r.engine, fmt_time(r.sim_time), f"{base / r.sim_time:.2f}x",
         fmt_bytes(r.metrics.bytes_h2d), r.metrics.n_chunks]
        for r in results
    ]
    print(render_table(
        ["scheme", "sim time", f"vs {results[0].engine}", "h2d", "chunks"],
        rows,
        title=f"{app.display_name}: {fmt_bytes(data.total_mapped_bytes)} mapped",
    ))
    return 0


def cmd_figure(args) -> int:
    from repro.bench import fig4a, fig4b, fig5, fig6, table1, table2

    fn = {
        "fig4a": fig4a,
        "fig4b": fig4b,
        "fig5": fig5,
        "fig6": fig6,
        "table1": table1,
        "table2": table2,
    }[args.command]
    print(fn(_settings(args)).text)
    return 0


def cmd_hw(args) -> int:
    from repro.hw.spec import DEFAULT_HARDWARE as hw

    print(f"GPU:  {hw.gpu.name}")
    print(f"      {hw.gpu.num_sms} SMs x {hw.gpu.cores_per_sm} cores @ "
          f"{hw.gpu.clock_hz / 1e6:.0f} MHz, {fmt_bytes(hw.gpu.global_mem_bytes)} "
          f"global memory @ {fmt_bandwidth(hw.gpu.mem_bandwidth)}")
    print(f"CPU:  {hw.cpu.name}")
    print(f"      {hw.cpu.cores} cores / {hw.cpu.threads} threads @ "
          f"{hw.cpu.clock_hz / 1e9:.1f} GHz, {fmt_bytes(hw.cpu.cache_bytes)} cache, "
          f"{fmt_bandwidth(hw.cpu.mem_bandwidth)} socket bandwidth")
    print(f"Link: {hw.pcie.name}: {fmt_bandwidth(hw.pcie.raw_bandwidth)} raw "
          f"({fmt_bandwidth(hw.pcie.pinned_bandwidth)} pinned, "
          f"{fmt_bandwidth(hw.pcie.pageable_bandwidth)} pageable), "
          f"{hw.pcie.latency * 1e6:.0f} us DMA setup")
    return 0


def cmd_trace(args) -> int:
    from repro.apps import get_app
    from repro.engines import BigKernelEngine

    app = get_app(args.app)
    data = app.generate(n_bytes=args.data_mib * MiB, seed=args.seed)
    # a trace dump needs the full timeline: force the DES (the analytic
    # fast path records no intervals)
    cfg = _settings(args).config.with_(fastpath=False)
    res = BigKernelEngine().run(app, data, cfg)
    assert res.trace is not None
    res.trace.dump_chrome_trace(args.out)
    if args.gantt:
        from repro.bench.report import render_gantt

        print(render_gantt(res.trace))
    print(f"wrote {len(res.trace)} intervals over {fmt_time(res.sim_time)} "
          f"to {args.out} (open in Perfetto / chrome://tracing)")
    return 0


def cmd_verify(args) -> int:
    from repro.verify import run_verify
    from repro.verify.runner import PILLARS

    summary = run_verify(
        quick=args.quick,
        seed=args.seed,
        data_bytes=args.data_mib * MiB if args.data_mib else None,
        fuzz_iterations=args.fuzz_iters,
        opt_in=tuple(p.name for p in PILLARS
                     if p.opt_in and getattr(args, p.name)),
    )
    print(summary.summary())
    return 0 if summary.ok else 1


def cmd_chaos(args) -> int:
    from repro.faults import run_chaos

    report = run_chaos(
        quick=args.quick,
        seed=args.seed,
        data_bytes=args.data_mib * MiB if args.data_mib else None,
        jobs=args.jobs,
        backend=args.backend,
        serve=args.serve,
    )
    print(report.summary())
    print(f"fingerprint: {report.fingerprint()}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    from repro.bench.uvm import run_uvm_comparison

    if args.gpus:
        return _cmd_bench_multigpu(args)
    comparison = run_uvm_comparison(
        data_bytes=args.data_mib * MiB,
        seed=args.seed,
        jobs=args.jobs,
        backend=args.backend,
    )
    print(comparison.summary())
    wins = sum(
        1
        for app in comparison.apps
        if comparison.sim_time(app, "bigkernel")
        < comparison.sim_time(app, comparison.best_uvm(app))
    )
    print(
        f"bigkernel beats the best unified-memory variant on "
        f"{wins}/{len(comparison.apps)} apps"
    )
    return 0


def _cmd_bench_multigpu(args) -> int:
    from repro.bench.multigpu import run_multigpu_scaling

    try:
        gpu_counts = tuple(int(tok) for tok in args.gpus.split(","))
    except ValueError:
        print(f"--gpus expects a comma-separated list of counts: {args.gpus!r}")
        return 2
    scaling = run_multigpu_scaling(
        data_bytes=args.data_mib * MiB,
        seed=args.seed,
        gpu_counts=gpu_counts,
        shared_link=args.shared_link,
        jobs=args.jobs,
        backend=args.backend,
    )
    print(scaling.summary())
    worst = max(
        scaling.prediction_rel_err(app, n)
        for app in scaling.apps
        for n in scaling.gpu_counts
    )
    print(
        f"analytic shard model vs DES: worst relative error "
        f"{worst:.2e} over {len(scaling.apps) * len(scaling.gpu_counts)} cells"
    )
    return 0


def cmd_sweep(args) -> int:
    from repro.apps import get_app
    from repro.bench.report import render_table
    from repro.bench.sweep import DEFAULT_GRID, autotune
    from repro.engines import ALL_ENGINES, UVM_ENGINES

    app = get_app(args.app)
    data = app.generate(n_bytes=args.data_mib * MiB, seed=args.seed)
    engine = None
    for cls in ALL_ENGINES + UVM_ENGINES:
        e = cls()
        if e.name == args.engine:
            engine = e
            break
    if engine is None:
        print(f"unknown engine {args.engine!r}", file=sys.stderr)
        return 2
    if args.points and args.mode == "analytic":
        return _analytic_scan(args, engine, app, data)
    best_cfg, res = autotune(
        engine,
        app,
        data,
        base_config=_settings(args).config,
        jobs=args.jobs,
        cache=True,
        backend=args.backend,
        mode=args.mode,
        top_k=args.top_k,
    )
    rows = [
        [
            fmt_bytes(p.params.get("chunk_bytes", best_cfg.chunk_bytes)),
            p.params.get("num_blocks", best_cfg.num_blocks),
            fmt_time(p.sim_time),
            "<-- best" if p.params == res.best.params else "",
        ]
        for p in res.points
    ]
    print(render_table(
        ["chunk", "blocks", "sim time", ""],
        rows,
        title=f"{engine.display_name} x {app.display_name}: "
              f"{len(res.points)}-point sweep (jobs={args.jobs})",
    ))
    print(f"best: chunk_bytes={fmt_bytes(best_cfg.chunk_bytes)} "
          f"num_blocks={best_cfg.num_blocks}")
    if args.spot_check and args.mode == "analytic":
        return _spot_check(engine, app, data, best_cfg, res.best.sim_time)
    return 0


def _spot_check(engine, app, data, cfg, predicted: float) -> int:
    """DES-simulate one predicted optimum; nonzero exit beyond tolerance."""
    from repro.verify.differential import ANALYTIC_TOL

    res = engine.run(app, data, cfg.with_(functional=False))
    rel = abs(predicted - res.sim_time) / max(abs(res.sim_time), 1e-300)
    ok = rel <= ANALYTIC_TOL
    print(f"spot check: DES says {fmt_time(res.sim_time)} "
          f"(predicted {fmt_time(predicted)}, rel err {rel:.2e}, "
          f"tol {ANALYTIC_TOL:g}: {'ok' if ok else 'FAIL'})")
    return 0 if ok else 1


def _analytic_scan(args, engine, app, data) -> int:
    import time

    from repro.analytic import predict_grid, suggest_grid

    base = _settings(args).config
    grid = suggest_grid(args.points)
    t0 = time.perf_counter()
    gp = predict_grid(app, data, grid, base, engine=engine)
    elapsed = time.perf_counter() - t0
    best = gp.best_params()
    print(f"{engine.display_name} x {app.display_name}: analytic scan of "
          f"{gp.n_points:,} configurations in {elapsed:.2f} s "
          f"({gp.n_points / max(elapsed, 1e-9):,.0f} points/s)")
    print("best: " + " ".join(f"{k}={v}" for k, v in sorted(best.items()))
          + f"  predicted {fmt_time(gp.best_time())}")
    if args.spot_check:
        return _spot_check(engine, app, data, gp.config_at(gp.argbest()),
                           gp.best_time())
    return 0


def cmd_serve(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.serve import (
        DEFAULT_TENANTS,
        ServeConfig,
        Server,
        TenantSpec,
        TraceSpec,
        generate_trace,
        serve_trace,
        with_slo,
    )

    if args.tenants:
        try:
            tenants = tuple(
                TenantSpec(
                    name.strip(), float(weight) if sep else 1.0
                )
                for name, sep, weight in (
                    tok.partition("=") for tok in args.tenants.split(",")
                )
            )
        except (ValueError, ReproError) as exc:
            print(f"bad --tenants {args.tenants!r}: {exc}", file=sys.stderr)
            return 2
    else:
        tenants = DEFAULT_TENANTS
    if args.slo:
        if args.slo < 0:
            print(f"bad --slo {args.slo!r}: must be positive", file=sys.stderr)
            return 2
        tenants = with_slo(tenants, args.slo)

    spec = TraceSpec(
        seed=args.seed,
        duration=args.duration,
        rate=args.rate,
        tenants=tenants,
        data_bytes=args.data_mib * MiB,
    )
    trace = generate_trace(spec)
    config = ServeConfig(
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        cache=not args.no_cache,
        disk_cache=args.disk_cache,
        verify=args.verify,
        jobs=args.jobs,
        backend=args.backend,
        scheduling=args.scheduling,
        adaptive_batch=args.adaptive_batch,
    )
    print(
        f"serving {len(trace)} requests over {spec.duration:g}s "
        f"({spec.rate:g}/s offered) from {len(tenants)} tenant(s), "
        f"backend={config.backend} jobs={config.jobs} "
        f"scheduling={config.scheduling}"
        + (f" slo={args.slo:g}ms" if args.slo else "")
    )
    with Server(config, tenants=tenants) as server:
        outcome = serve_trace(server, trace)
    print(outcome.summary())
    if args.trace_out:
        log = [
            {
                "req_id": r.req_id,
                "tenant": r.tenant,
                "status": r.status,
                "arrival": r.arrival,
                "dispatch": r.dispatch,
                "completion": r.completion,
                "batch_id": r.batch_id,
                "error": r.error,
            }
            for r in outcome.responses
        ]
        with open(args.trace_out, "w") as fh:
            json.dump(log, fh, indent=2)
        print(f"wrote {len(log)} responses to {args.trace_out}")
    metrics = outcome.metrics
    if metrics.verify_failures:
        print(
            f"{metrics.verify_failures} response(s) diverged from their "
            f"one-shot oracle",
            file=sys.stderr,
        )
        return 1
    if args.expect_cache_hits and metrics.cached == 0:
        print("expected cache hits but the run cache never hit",
              file=sys.stderr)
        return 1
    if args.slo and not metrics.slo_total:
        print("--slo was set but no request carried a deadline",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from repro.analytic import run_report

    print(run_report(
        args.app,
        data_bytes=args.data_mib * MiB,
        seed=args.seed,
        config=_settings(args).config,
        hw_preset=args.hw,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.verify.runner import PILLARS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BigKernel (IPDPS 2014) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list benchmark applications")
    sub.add_parser("hw", help="print the simulated testbed")

    p_run = sub.add_parser("run", help="run one app on the execution schemes")
    p_run.add_argument("app", help="application name (see `repro apps`)")
    p_run.add_argument("--engine", default="all",
                       help="engine name or 'all' (default)")
    _add_common(p_run)

    for name, help_text in (
        ("fig4a", "speedups over serial CPU (Fig. 4a)"),
        ("fig4b", "comp/comm ratio, single buffer (Fig. 4b)"),
        ("fig5", "incremental feature benefit (Fig. 5)"),
        ("fig6", "pipeline stage breakdown (Fig. 6)"),
        ("table1", "mapped-data characteristics (Table I)"),
        ("table2", "pattern-recognition benefit (Table II)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p_v = sub.add_parser(
        "verify",
        help="run the invariant + differential + fuzz verification suites",
    )
    p_v.add_argument("--quick", action="store_true",
                     help="CI scale: smaller datasets, fewer fuzz cases")
    p_v.add_argument("--seed", type=int, default=7, help="verification seed")
    p_v.add_argument("--data-mib", type=_data_mib, default=0,
                     help="dataset size (MiB); 0 = suite default")
    p_v.add_argument("--fuzz-iters", type=int, default=None,
                     help="fuzz cases per loop (default: 8 quick / 30 full)")
    for pillar in PILLARS:
        if pillar.opt_in:
            p_v.add_argument(f"--{pillar.name}", action="store_true",
                             help="also run " + pillar.help.replace("%", "%%"))

    p_c = sub.add_parser(
        "chaos",
        help="fault-injection sweep: app x engine matrix under a fault grid "
             "(see docs/faults.md)",
    )
    p_c.add_argument("--quick", action="store_true",
                     help="CI scale: one app, 1 MiB datasets")
    p_c.add_argument("--seed", type=int, default=7,
                     help="fault-grid + data seed (same seed => identical "
                          "FaultReport)")
    p_c.add_argument("--data-mib", type=_data_mib, default=0,
                     help="dataset size (MiB); 0 = sweep default")
    p_c.add_argument("--json", default="",
                     help="also write the FaultReport JSON to this path")
    p_c.add_argument("--jobs", type=int, default=1,
                     help="parallel (app, engine) blocks (0 = one per CPU); "
                          "the fingerprint is identical for any jobs/backend")
    p_c.add_argument("--backend", default="auto",
                     choices=["auto", "thread", "process"],
                     help="executor for --jobs > 1 (auto picks process only "
                          "with more than 2 cores and at least 4 blocks; "
                          "see docs/performance.md)")
    p_c.add_argument("--serve", action="store_true",
                     help="route every faulted run through a live serve "
                          "Server; the report fingerprint must match the "
                          "direct sweep (fault containment survives "
                          "batching)")

    p_b = sub.add_parser(
        "bench",
        help="competitor comparison: BigKernel vs the unified-memory engine "
             "family on the paper's six apps (see docs/engines.md)",
    )
    p_b.add_argument("--engine", default="uvm", choices=["uvm"],
                     help="competitor family to compare against "
                          "(currently only 'uvm')")
    p_b.add_argument("--data-mib", type=_data_mib, default=4,
                     help="dataset size (MiB)")
    p_b.add_argument("--seed", type=int, default=4, help="data generator seed")
    p_b.add_argument("--jobs", type=int, default=1,
                     help="parallel (app, engine) cells (0 = one per CPU)")
    p_b.add_argument("--backend", default="auto",
                     choices=["auto", "thread", "process"],
                     help="executor for --jobs > 1 (auto picks process only "
                          "with more than 2 cores and at least 4 cells; "
                          "see docs/performance.md)")
    p_b.add_argument("--gpus", default="",
                     help="run the multi-GPU scaling sweep instead: "
                          "comma-separated GPU counts, e.g. 1,2,4,8 "
                          "(see docs/engines.md)")
    p_b.add_argument("--shared-link", action="store_true",
                     help="with --gpus: all shards behind one PCIe root "
                          "complex instead of dedicated links")

    p_sw = sub.add_parser(
        "sweep", help="autotune one engine/app pair over the default grid"
    )
    p_sw.add_argument("app", help="application name (see `repro apps`)")
    p_sw.add_argument("--engine", default="bigkernel",
                      help="engine to tune (default: bigkernel)")
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="parallel sweep workers (0 = one per CPU)")
    p_sw.add_argument("--backend", default="auto",
                      choices=["auto", "thread", "process"],
                      help="executor for --jobs > 1: process sidesteps the "
                           "GIL for DES-bound grids, thread suits "
                           "fastpath/cached ones (auto picks process only "
                           "for DES-bound grids of at least 4 uncached "
                           "points with more than 2 cores)")
    p_sw.add_argument("--mode", default="des",
                      choices=["des", "analytic", "hybrid"],
                      help="des simulates every point; analytic prices the "
                           "grid with the closed-form predictor (no "
                           "simulation); hybrid ranks analytically and "
                           "simulates only the top candidates")
    p_sw.add_argument("--top-k", type=int, default=8,
                      help="candidates the hybrid mode DES-verifies "
                           "(exact prediction ties are expanded)")
    p_sw.add_argument("--points", type=int, default=0,
                      help="analytic mode only: scan a generated grid of at "
                           "least this many configurations instead of the "
                           "default tuning grid")
    p_sw.add_argument("--spot-check", action="store_true",
                      help="analytic mode only: DES-simulate the predicted "
                           "optimum and report the relative error")
    _add_common(p_sw)

    p_srv = sub.add_parser(
        "serve",
        help="multi-tenant serving: replay a seeded request trace through "
             "the admission queue + WDRR scheduler + batched dispatcher "
             "(see docs/serving.md)",
    )
    p_srv.add_argument("--duration", type=float, default=3.0,
                       help="seconds of arrivals to generate")
    p_srv.add_argument("--rate", type=float, default=20.0,
                       help="mean offered arrival rate (requests/second)")
    p_srv.add_argument("--tenants", default="",
                       help="tenant mix as 'name=weight,...' "
                            "(default: alpha=1,beta=2,gamma=4)")
    p_srv.add_argument("--seed", type=int, default=7, help="trace seed")
    p_srv.add_argument("--data-mib", type=_data_mib, default=1,
                       help="dataset size per job (MiB)")
    p_srv.add_argument("--max-queue", type=int, default=64,
                       help="total backlog before admission control rejects")
    p_srv.add_argument("--max-batch", type=int, default=8,
                       help="dispatch window size")
    p_srv.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --backend process")
    p_srv.add_argument("--backend", default="thread",
                       choices=["thread", "process"],
                       help="thread amortizes via batched engine entry; "
                            "process parallelizes unique jobs")
    p_srv.add_argument("--slo", type=float, default=0.0,
                       help="per-request latency SLO in milliseconds applied "
                            "to every tenant (0 = best-effort, no deadlines)")
    p_srv.add_argument("--scheduling", default="edf",
                       choices=["edf", "fifo"],
                       help="edf: deadline-aware dispatch with WDRR tiebreak "
                            "(identical to WDRR without SLOs); fifo: "
                            "deadline-blind arrival order (baseline)")
    p_srv.add_argument("--adaptive-batch", action="store_true",
                       help="size dispatch windows from priced deadline "
                            "slack instead of always filling max-batch")
    p_srv.add_argument("--no-cache", action="store_true",
                       help="disable the run cache (every job executes)")
    p_srv.add_argument("--disk-cache", action="store_true",
                       help="enable the persistent disk tier "
                            "(.repro-cache / REPRO_CACHE_DIR)")
    p_srv.add_argument("--verify", action="store_true",
                       help="oracle-check every response inline "
                            "(exit nonzero on any divergence)")
    p_srv.add_argument("--expect-cache-hits", action="store_true",
                       help="exit nonzero if the run cache never hit "
                            "(smoke-test guard)")
    p_srv.add_argument("--trace", dest="trace_out", default="",
                       help="write the per-response log JSON to this path")

    p_rep = sub.add_parser(
        "report",
        help="instant analytic report: predicted per-engine times, "
             "bottleneck stages, speedups and chunk-size sensitivity "
             "(closed-form, no simulation)",
    )
    p_rep.add_argument("app", help="application name (see `repro apps`)")
    p_rep.add_argument("--hw", default=None,
                       help="hardware preset for what-if analysis "
                            "(see repro.hw.spec.HW_PRESETS; default: the "
                            "paper's testbed)")
    _add_common(p_rep)

    p_tr = sub.add_parser("trace", help="dump a BigKernel Chrome-trace timeline")
    p_tr.add_argument("app")
    p_tr.add_argument("--out", default="bigkernel_trace.json")
    p_tr.add_argument("--gantt", action="store_true",
                      help="also print an ASCII Gantt chart")
    _add_common(p_tr)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "apps": cmd_apps,
        "run": cmd_run,
        "hw": cmd_hw,
        "trace": cmd_trace,
        "verify": cmd_verify,
        "chaos": cmd_chaos,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
        "serve": cmd_serve,
        "report": cmd_report,
        "fig4a": cmd_figure,
        "fig4b": cmd_figure,
        "fig5": cmd_figure,
        "fig6": cmd_figure,
        "table1": cmd_figure,
        "table2": cmd_figure,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
