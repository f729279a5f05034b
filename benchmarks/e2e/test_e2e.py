"""Self-tests of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.  Every run here is tiny (``--seconds 1``), so the whole
file takes well under a minute.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import hostspeed
import layers
import run as cli
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = 1.0


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def traced_run(name: str, seed: int = 3):
    workload = workloads.WORKLOADS[name]
    prepared = workloads.setup(workload, TINY)
    requests = workloads.inputs(workload, seed, TINY)
    timer = hostspeed.ReferenceClock()
    tracer = layers.Tracer(clock=timer)
    layers.install(tracer)
    try:
        run = workloads.execute(workload, prepared, requests, timer, tracer=tracer)
    finally:
        layers.uninstall()
    return tracer, run


def test_manifest_names_and_bounds():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in MANIFEST[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert MANIFEST["run_seconds"] == workloads.REFERENCE_SECONDS == cli.DEFAULT_SECONDS
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_exactly_the_declared_metrics(workload, trace, tmp_path):
    out = tmp_path / "spans.json"
    proc = bench("--workload", workload, "--seconds", str(TINY),
                 "--trace", str(trace), "--trace-out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        events = json.loads(out.read_text())["traceEvents"]
        assert events and {e["ph"] for e in events} == {"X"}


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "serve_nocache", "--seconds", str(TINY), cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (workloads.inputs(workload, seed, 2.0) for seed in (5, 5, 6))
    assert first == again
    assert first != other


def test_every_seed_offers_the_same_work():
    workload = workloads.WORKLOADS["serve_repeat_spill"]
    a, b = (workloads.inputs(workload, seed, 2.0) for seed in (5, 6))
    assert [(r.arrival, r.job) for r in a] == [(r.arrival, r.job) for r in b]
    assert [r.tenant for r in a] != [r.tenant for r in b]


def test_traced_run_restores_every_wrapped_attribute():
    import repro.runtime.pipeline
    from repro.apps.kmeans import KMeansApp
    from repro.bench.sweep import RunCache
    from repro.engines import bigkernel
    from repro.serve.scheduler import Server
    from repro.sim.core import Environment

    before = {
        "submit": Server.submit,
        "env_run": Environment.run,
        "cache_key": RunCache.__dict__["key"],
        "run_pipeline": bigkernel.run_pipeline,
    }
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        assert layers.leftovers()
        assert "chunk_bounds" in KMeansApp.__dict__  # inherited, wrapped on the app
        # a module first imported while tracing binds the wrapper by name
        probe = types.ModuleType("repro._e2e_probe")
        probe.run_pipeline = repro.runtime.pipeline.run_pipeline
        sys.modules[probe.__name__] = probe
    finally:
        layers.uninstall()
        sys.modules.pop("repro._e2e_probe", None)
    assert layers.leftovers() == []
    assert probe.run_pipeline is before["run_pipeline"]
    assert "chunk_bounds" not in KMeansApp.__dict__
    assert Server.submit is before["submit"]
    assert Environment.run is before["env_run"]
    assert RunCache.__dict__["key"] is before["cache_key"]
    assert bigkernel.run_pipeline is before["run_pipeline"]


def test_reference_clock_counts_wall_time_at_the_probed_speed():
    factors = iter([2.0, 4.0])
    timer = hostspeed.ReferenceClock(period=0.0, probe=lambda: next(factors))
    wall0, ref0 = time.perf_counter(), timer()
    time.sleep(0.02)
    ref1, wall1 = timer(), time.perf_counter()
    assert ref1 - ref0 == pytest.approx((wall1 - wall0) / 2.0, rel=0.05)
    timer.tick()
    assert timer.factors == [2.0, 4.0]
    ref2, wall2 = timer(), time.perf_counter()
    assert ref2 >= ref1
    time.sleep(0.02)
    ref3, wall3 = timer(), time.perf_counter()
    assert ref3 - ref2 == pytest.approx((wall3 - wall2) / 4.0, rel=0.05)


def test_reference_clock_probes_once_per_period():
    calls = []
    timer = hostspeed.ReferenceClock(period=60.0, probe=lambda: calls.append(1) or 1.0)
    for _ in range(100):
        timer.tick()
    assert len(calls) == 1
    assert hostspeed.probe() > 0.0


def test_self_and_busy_time_of_nested_spans():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("engine", "A.run")              # t=0
    inner = tracer.open("engine", "Base.run")           # t=1, same layer
    leaf = tracer.open("functional", "App.finalize")    # t=2
    tracer.close(leaf)                                  # t=3
    tracer.close(inner)                                 # t=4
    tracer.close(outer)                                 # t=5
    totals = layers.layer_totals(tracer)
    assert totals["engine"] == {"calls": 1, "busy_s": 5.0, "self_s": 4.0}
    assert totals["functional"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


@pytest.mark.parametrize("name", ["serve_slo_edf", "sweep_des"])
def test_layer_self_times_reconcile_with_busy_wall(name):
    tracer, run = traced_run(name)
    attributed = sum(t["self_s"] for t in layers.layer_totals(tracer).values())
    assert abs(run.busy_s - attributed) <= 0.05 * run.busy_s


def test_correctness_gate_catches_a_diverged_response():
    workload = workloads.WORKLOADS["serve_slo_edf"]
    workloads.setup(workload, TINY)
    requests = workloads.inputs(workload, 3, TINY)
    run = workloads.execute(workload, {}, requests, hostspeed.ReferenceClock())
    checks, failures = workloads.check_serve(requests, run)
    assert checks > 1 and failures == 0
    resp = next(r for r in run.responses if r.result is not None)
    resp.result = dataclasses.replace(resp.result, sim_time=resp.result.sim_time * 2)
    assert workloads.check_serve(requests, run)[1] == 1
