"""Differential oracle: full engine-vs-cpu_serial matrix over small inputs.

The matrix is one graded :func:`repro.bench.harness.run_matrix` call,
parametrized per (app, engine) so a failure names the exact cell; a
module-scoped matrix runs each engine once per app.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.bench.harness import BenchSettings, run_matrix
from repro.engines import (
    ALL_ENGINES,
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
)
from repro.errors import ValidationFailure, VerificationError
from repro.units import MiB
from repro.verify.differential import Cell, Report, describe_output, grade

DATA_BYTES = 1 * MiB
CFG = EngineConfig(chunk_bytes=256 * 1024)
GRADED = BenchSettings(DATA_BYTES, 11, CFG, check_invariants=True)
APPS = [cls.name for cls in ALL_APPS]
ENGINES = [cls.name for cls in ALL_ENGINES if cls.name != "cpu_serial"]


@pytest.fixture(scope="module")
def report():
    return run_matrix(GRADED).report


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_engine_matches_oracle(report, app_name, engine_name):
    entry = next(
        e for e in report.cells if (e.app, e.engine) == (app_name, engine_name)
    )
    assert entry.ok, f"({app_name}, {engine_name}): {entry.detail}"


def test_matrix_is_complete(report):
    assert len(report.cells) == len(APPS) * (len(ENGINES) + 1)
    assert report.ok
    assert "0 mismatch(es)" in report.summary()


def test_each_engine_cell_runs_its_own_pass(functional_passes):
    """Each engine runs on a fresh dataset of the recipe, so none is
    handed the pass another engine memoized: one functional pass per
    engine cell (the oracle computes its reference without one)."""
    rep = run_matrix(GRADED).report
    assert rep.ok
    assert sorted(functional_passes) == sorted(
        c.app for c in rep.cells if c.engine != "cpu_serial"
    )


def test_simulating_cells_carry_invariant_reports(report):
    """Every timeline the DES recorded is audited: BigKernel's and double
    buffering's cells are ``traced``; the engines that never simulate
    have no timeline to audit."""
    traced = {(c.app, c.engine) for c in report.cells if c.mode == "traced"}
    assert traced == {
        (app, engine) for app in APPS for engine in ("gpu_double", "bigkernel")
    }


def _wrong_on(monkeypatch, engine_cls, apps):
    """Make ``engine_cls`` return a wrong array output on ``apps``."""
    run = engine_cls.run

    def corrupted(self, app, data, config):
        res = run(self, app, data, config)
        if app.name in apps:
            res.output = res.output + 1
        return res

    monkeypatch.setattr(engine_cls, "run", corrupted)


def _lose_a_byte(monkeypatch, engine_cls):
    """Make ``engine_cls`` count one h2d byte fewer than its link moved,
    which breaks byte conservation and leaves the output right."""
    run = engine_cls.run

    def lost_byte(self, app, data, config):
        res = run(self, app, data, config)
        res.metrics.bytes_h2d -= 1
        return res

    monkeypatch.setattr(engine_cls, "run", lost_byte)


def test_every_failing_cell_is_reported(monkeypatch, capsys):
    """One engine wrong on two apps: both cells are mismatches in the
    graded report the exception carries, the pillar built on it fails,
    and ``repro verify`` exits 1."""
    from repro.cli import main
    from repro.verify.runner import PILLARS

    _wrong_on(monkeypatch, GpuDoubleBufferEngine, {"kmeans", "wordcount"})
    with pytest.raises(ValidationFailure, match="gpu_double fails against "
                       "cpu_serial on kmeans") as caught:
        run_matrix(GRADED)
    assert isinstance(caught.value, VerificationError)
    bad = [(c.app, c.engine) for c in caught.value.matrix.report.mismatches]
    assert bad == [("kmeans", "gpu_double"), ("wordcount", "gpu_double")]
    assert all("output differs from cpu_serial" in c.detail
               for c in caught.value.matrix.report.mismatches)

    pillar = next(p for p in PILLARS if p.name == "differential")
    rep = pillar.run(quick=True, seed=7, data_bytes=256 * 1024, fuzz_n=1)
    assert [(c.app, c.engine) for c in rep.mismatches] == bad

    assert main(["verify", "--quick", "--fuzz-iters", "1",
                 "--data-mib", "1"]) == 1
    out = capsys.readouterr().out
    assert "verify: FAIL" in out
    assert "differential vs cpu_serial: 35 cells (14 traced), 2 mismatch(es)" in out


def test_broken_timeline_fails_its_cell(monkeypatch):
    """A timeline that breaks an invariant fails its cell even though
    its output is right."""
    _lose_a_byte(monkeypatch, BigKernelEngine)
    settings = BenchSettings(256 * 1024, 7, CFG, check_invariants=True)
    app = get_app("wordcount")
    with pytest.raises(ValidationFailure, match="bigkernel fails") as caught:
        run_matrix(settings, [app], [CpuSerialEngine(), BigKernelEngine()])
    (cell,) = caught.value.matrix.report.mismatches
    assert (cell.engine, cell.mode) == ("bigkernel", "traced")
    assert "violates pipeline invariants" in cell.detail
    assert "output differs" not in cell.detail


def test_single_engine_matrix_grades_its_reference():
    """A one-engine matrix is its own reference: every cell passes the
    output law by construction and is still audited."""
    settings = BenchSettings(512 * 1024, 7, CFG, check_invariants=True)
    rep = run_matrix(settings, [ALL_APPS[0]()], [BigKernelEngine()]).report
    assert [(c.ok, c.mode) for c in rep.cells] == [(True, "traced")]


def test_mismatch_report_names_the_pair():
    """A corrupted cell produces a structured report naming (app, engine)."""
    report = Report("differential vs cpu_serial")
    report.cells.append(Cell("kmeans", "bigkernel", True))
    report.cells.append(
        Cell("dna", "gpu_double", False, detail="oracle=... vs engine=...")
    )
    assert not report.ok
    assert [("dna", "gpu_double")] == [
        (e.app, e.engine) for e in report.mismatches
    ]
    head, *failing = report.summary().splitlines()
    assert head.endswith("2 cells, 1 mismatch(es)")
    assert len(failing) == 1
    assert failing[0].split() == [
        "dna", "x", "gpu_double", "MISMATCH", "—", "oracle=...", "vs", "engine=..."
    ]


def test_grade_reports_output_structure():
    app = get_app("netflix")
    ref = CpuSerialEngine().run(app, app.generate(n_bytes=64 * 1024), CFG)
    res = CpuSerialEngine().run(app, app.generate(n_bytes=64 * 1024), CFG)
    res.output = res.output + 1
    cell = grade(app, "cpu_serial", ref, res, CFG, audit=True)
    assert not cell.ok and "ndarray" in cell.detail and cell.mode == ""


def test_describe_output_shapes():
    assert "ndarray(3,)" in describe_output(np.zeros(3))
    assert describe_output({"a": 1}).startswith("dict(1")
    assert describe_output([1, 2]).startswith("list(len=2)")


def test_launch_verify_hook():
    """bigkernel_launch(verify=True) invariant-checks the timeline and
    replays the kernel on the serial oracle — with a writable mapped array,
    so the pre-launch state rewind is exercised too."""
    from tests.test_runtime_launcher import CFG as LAUNCH_CFG, kmeans_setup
    from repro.runtime import LaunchSpec, bigkernel_launch

    src, data, reg, fns = kmeans_setup(n=600, seed=2)
    expected = src.reference(src.generate(48 * 600, seed=2))
    res = bigkernel_launch(
        src.kernel(),
        reg,
        resident={"clusters": data.resident["clusters"]},
        params=dict(data.params),
        device_fns=fns,
        config=LAUNCH_CFG,
        spec=LaunchSpec(
            make_output=lambda ctx: ctx.mapped["particles"]["cid"].copy()
        ),
        verify=True,
    )
    np.testing.assert_array_equal(res.output, expected)


def test_launch_verify_hook_rejects_a_broken_timeline(monkeypatch):
    """The launch hook grades its run like any matrix cell: a timeline
    that breaks byte conservation raises."""
    from tests.test_runtime_launcher import CFG as LAUNCH_CFG, kmeans_setup
    from repro.runtime import bigkernel_launch

    _lose_a_byte(monkeypatch, BigKernelEngine)
    src, data, reg, fns = kmeans_setup(n=600, seed=2)
    with pytest.raises(VerificationError, match="violates pipeline invariants"):
        bigkernel_launch(
            src.kernel(), reg, resident={"clusters": data.resident["clusters"]},
            params=dict(data.params), device_fns=fns, config=LAUNCH_CFG,
            verify=True,
        )


def test_harness_check_invariants_hook():
    """BenchSettings(check_invariants=True) runs the checkers inside
    run_matrix without disturbing the results."""
    settings = BenchSettings(
        data_bytes=512 * 1024, config=CFG, check_invariants=True
    )
    matrix = run_matrix(settings, apps=[ALL_APPS[0]()])
    assert matrix.get(ALL_APPS[0].name, "bigkernel").sim_time > 0
