"""Differential oracle: full engine-vs-cpu_serial matrix over small inputs.

Parametrized per (app, engine) so a failure names the exact cell; a
module-scoped sweep runs each engine once per app.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.engines import ALL_ENGINES, CpuSerialEngine, EngineConfig
from repro.errors import VerificationError
from repro.units import MiB
from repro.verify.differential import (
    Cell,
    Report,
    compare_outputs,
    describe_output,
    run_differential,
)

DATA_BYTES = 1 * MiB
CFG = EngineConfig(chunk_bytes=256 * 1024)
APPS = [cls.name for cls in ALL_APPS]
ENGINES = [cls.name for cls in ALL_ENGINES if cls.name != "cpu_serial"]


@pytest.fixture(scope="module")
def report():
    return run_differential(data_bytes=DATA_BYTES, seed=11, config=CFG)


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


def test_bigkernel_cells_carry_invariant_reports(report):
    cells = [e for e in report.cells if e.engine == "bigkernel"]
    assert cells and all(e.mode == "traced" and e.ok for e in cells)


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
    with pytest.raises(VerificationError, match=r"\(dna, gpu_double\)"):
        report.raise_if_failed()


def test_compare_outputs_reports_structure():
    app = ALL_APPS[0]()
    ok, detail = compare_outputs(app, np.arange(4.0), np.arange(4.0) + 1)
    assert not ok and "ndarray" in detail


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


def test_harness_check_invariants_hook():
    """BenchSettings(check_invariants=True) runs the checkers inside
    run_matrix without disturbing the results."""
    from repro.bench.harness import BenchSettings, run_matrix

    settings = BenchSettings(
        data_bytes=512 * 1024, config=CFG, check_invariants=True
    )
    matrix = run_matrix(settings, apps=[ALL_APPS[0]()])
    assert matrix.get(ALL_APPS[0].name, "bigkernel").sim_time > 0


def test_oracle_added_when_absent():
    """An engine list without the oracle still gets diffed against it."""
    app = ALL_APPS[0]()
    rep = run_differential(
        data_bytes=512 * 1024,
        config=CFG,
        apps=[app],
        engines=[CpuSerialEngine()],
        check_invariants=False,
    )
    assert rep.ok and len(rep.cells) == 1
