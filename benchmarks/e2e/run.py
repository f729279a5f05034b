#!/usr/bin/env python3
"""End-to-end benchmark of the BigKernel reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload serve_nocache \\
        [--seed N] [--seconds 20] [--trace 0|1] [--trace-out PATH]

Without ``--workload`` every workload runs in turn.  Each measured run
happens in a fresh single-threaded child process (BLAS threads pinned to
1).  The run prints every end-to-end metric with its unit, checks the
outputs after the timed region, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` puts the end-to-end metrics of ``BENCHMARK.json`` in that
line.  ``--trace 1`` runs the workload again in a second child with timing
wrappers around every layer (``layers.py``), prints the per-layer table,
writes the spans as a Chrome trace and puts the per-layer metrics in the
line instead.  ``setup_s`` is the median set-up time of several children.
Every time is in reference seconds (``hostspeed.py``): wall time scaled by
how much slower than the reference host a fixed probe ran at that moment.
The exit code is 0 when every check passed, 1 when one failed, 2 on bad
usage or when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
DEFAULT_SECONDS = 20.0
#: set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: single-threaded children with a fixed string-hash seed
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: a child that runs longer than this is killed (a whole run must end
#: within 180 s)
CHILD_TIMEOUT_S = 150


# ------------------------------------------------------------------- child
def child_main(args) -> int:
    """Set up, then (``measure``) run one workload; print one JSON line.

    Set-up runs from the parent's spawn to the end of the warm-up; it is
    scaled by the mean host factor probed before the imports and after.
    """
    before = hostspeed.probe()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    prepared = workloads.setup(workload, args.seconds)
    setup_wall = time.time() - args.spawned_at
    factor = (before + hostspeed.probe()) / 2
    out = {"setup_s": setup_wall / factor, "seed": seed}
    if args.child == "measure":
        requests = workloads.inputs(workload, seed, args.seconds)
        timer = hostspeed.ReferenceClock()
        tracer = None
        if args.traced:
            import layers

            tracer = layers.Tracer(clock=timer)
            layers.install(tracer)
        try:
            run = workloads.execute(workload, prepared, requests, timer, tracer=tracer)
        finally:
            if tracer is not None:
                layers.uninstall()
        out["host_factor"] = statistics.median(timer.factors)
        rss = workloads.peak_rss_mb()
        start = time.perf_counter()
        result = workloads.evaluate(workload, prepared, requests, seed, run)
        out["check_s"] = time.perf_counter() - start
        result["metrics"]["peak_rss_mb"] = rss
        out.update(result)
        if tracer is not None:
            busy = result["busy_s"]
            out["layers"] = layers.layer_metrics(tracer, busy, result["observations"])
            out["breakdown"] = layers.breakdown(tracer, busy)
            path = Path(args.trace_out or HERE / "out" / f"{args.workload}-seed{seed}.trace.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            layers.dump_chrome_trace(tracer, path)
            out["trace_file"] = str(path)
        out.pop("observations")
    print(json.dumps(out))
    return 0


def spawn(kind: str, args, workload: str, traced: bool = False) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", kind,
        "--workload", workload, "--seconds", repr(args.seconds),
        "--spawned-at", repr(time.time()),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if traced:
        cmd += ["--traced"]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{kind} child of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


# ------------------------------------------------------------------ parent
def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_workload(args, workload: str, manifest: dict, baseline: dict) -> bool:
    """Measure one workload, print its report and result line."""
    setups = [spawn("setup", args, workload)["setup_s"] for _ in range(SETUP_SAMPLES - 1 - args.trace)]
    plain = spawn("measure", args, workload)
    setups.append(plain["setup_s"])
    runs = [plain]
    if args.trace:
        traced = spawn("measure", args, workload, traced=True)
        setups.append(traced["setup_s"])
        runs.append(traced)
    setup_s = statistics.median(setups)
    seed = plain["seed"]

    failed = sum(r["failed"] for r in runs)
    digest = plain.get("sim_digest")
    expected = baseline["sim_digest"].get(f"{args.seconds:g}")
    for r in runs:
        if digest is not None and r["sim_digest"] != (expected or digest):
            failed += 1

    values = {**plain["metrics"], "setup_s": setup_s}
    print(f"== {workload}  seed {seed}  seconds {args.seconds:g}")
    for m in manifest["end_to_end"]:
        print(f"{m['name']:>20} {values[m['name']]:14.6f} {m['unit']}")
    print(f"{'latency samples':>20} {plain['metrics']['latency_samples']}")
    for name in ("refused_frac", "failed_frac", "sweep_points_per_s"):
        if name in plain["metrics"]:
            print(f"{name:>20} {plain['metrics'][name]:14.6f}")
    print(f"{'setup samples':>20} " + " ".join(f"{s:.4f}" for s in setups))
    print(f"{'busy time':>20} {plain['busy_s']:.4f} s")
    print(f"{'host factor':>20} {plain['host_factor']:.4f} (median probe / reference)")
    print(f"{'checks':>20} {sum(r['checks'] for r in runs)} run, {failed} failed, "
          f"{sum(r['check_s'] for r in runs):.2f} s")
    if digest is not None:
        state = "unrecorded" if expected is None else ("match" if digest == expected else "MISMATCH")
        print(f"{'sim_digest':>20} {digest} ({state})")

    if args.trace:
        import layers

        traced = runs[1]
        layer_values = dict(traced["layers"])
        layer_values["trace.overhead_frac"] = 1.0 - (
            traced["metrics"]["throughput_jps"] / plain["metrics"]["throughput_jps"]
        )
        print(layers.report(traced["breakdown"], traced["busy_s"]))
        for m in manifest["per_layer"]:
            print(f"{m['name']:>28} {layer_values[m['name']]:14.6f} {m['unit']}")
        print(f"chrome trace: {traced['trace_file']}")
        declared, values = manifest["per_layer"], layer_values
    else:
        declared = manifest["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return failed == 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int,
                        help="run seed: arrival times and tenants, or the sweep's "
                        "call order (default: per workload)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="load scale: each serving trace spans a fixed "
                        "multiple of it on the serving clock, and the sweep's "
                        "datasets grow with it (default %(default)g)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = also run with layer wrappers and report per-layer metrics")
    parser.add_argument("--trace-out", help="Chrome-trace file of the traced run")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    manifest = load_json(MANIFEST)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    baseline = load_json(BASELINE)
    ok = True
    for workload in [args.workload] if args.workload else names:
        ok = run_workload(args, workload, manifest, baseline) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
