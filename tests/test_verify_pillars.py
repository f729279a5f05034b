"""The verify pillar registry: exit codes, CLI flags, and every opt-in
pillar at tiny scale.

``PILLARS`` is the one list the CLI and ``run_verify`` walk, so these
tests stub pillar bodies through it rather than through per-pillar
wiring.
"""

import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.units import KiB
from repro.verify import runner
from repro.verify.differential import Cell, Report, run_serve_differential

NAMES = [p.name for p in runner.PILLARS]
OPT_IN = [p.name for p in runner.PILLARS if p.opt_in]
EVERY_FLAG = ["verify", "--quick", *(f"--{name}" for name in OPT_IN)]


def stub_pillars(monkeypatch, failing=None):
    """Replace every pillar body with an instant one-cell report; the
    pillar named ``failing`` reports one failing cell."""

    def stub(name):
        def run(**kwargs):
            return Report(name, [Cell("app", "engine", name != failing,
                                      f"{name} broke")])
        return run

    monkeypatch.setattr(
        runner, "PILLARS",
        tuple(p._replace(run=stub(p.name)) for p in runner.PILLARS),
    )


@pytest.mark.parametrize("name", NAMES)
def test_failing_pillar_fails_verify(monkeypatch, capsys, name):
    stub_pillars(monkeypatch, failing=name)
    assert main(EVERY_FLAG) == 1
    out = capsys.readouterr().out
    assert "verify: FAIL" in out
    assert f"{name} broke" in out


def test_all_pillars_passing_exits_zero(monkeypatch, capsys):
    stub_pillars(monkeypatch)
    assert main(EVERY_FLAG) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert f"[{len(NAMES)}/{len(NAMES)}]" in out


def test_opt_in_pillars_run_only_when_named(monkeypatch):
    stub_pillars(monkeypatch)
    summary = runner.run_verify(quick=True, opt_in=("serve",), emit=lambda s: None)
    assert list(summary) == [p.name for p in runner.PILLARS
                             if not p.opt_in or p.name == "serve"]
    with pytest.raises(ValueError, match="fastpth"):
        runner.run_verify(quick=True, opt_in=("fastpth",))


def test_help_lists_exactly_the_opt_in_pillars(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert flags - {"help", "quick", "seed", "data-mib", "fuzz-iters"} == set(OPT_IN)


def test_parser_imports_no_pillar_body():
    """Building the parser (every ``repro`` invocation, ``--help`` too)
    must not import the engines the pillars run."""
    code = (
        "import sys; from repro.cli import build_parser; build_parser(); "
        "print(sorted(m for m in ('numpy', 'repro.engines', "
        "'repro.verify.differential') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", OPT_IN)
def test_opt_in_pillar_smoke(name):
    pillar = next(p for p in runner.PILLARS if p.name == name)
    report = pillar.run(quick=True, seed=7, data_bytes=64 * KiB, fuzz_n=1)
    assert report.ok, report.summary()
    assert report.cells


def test_serve_pillar_fails_when_nothing_short_circuits(monkeypatch):
    """A one-request trace can be neither cached nor coalesced: the
    pillar must flag a serving layer that never amortized."""
    import repro.serve

    real = repro.serve.generate_trace
    monkeypatch.setattr(repro.serve, "generate_trace",
                        lambda spec: real(spec)[:1])
    report = run_serve_differential(data_bytes=64 * KiB, seed=5,
                                    duration=0.5, rate=20.0)
    assert not report.ok
    assert [c.detail for c in report.mismatches] == [
        "open phase never short-circuited: 0 cached and 0 coalesced responses"
    ]


def test_serve_pillar_repeats_and_exercises_both_phases():
    """On its step timer the serve pillar prints the same counts run after
    run; its open phase still short-circuits and its burst phase still
    rejects or sheds."""
    first, second = (
        run_serve_differential(data_bytes=64 * KiB, seed=7, duration=1.5)
        for _ in range(2)
    )
    assert first.ok, first.summary()
    assert first.summary() == second.summary()
    assert first.counts["cached"] + first.counts["coalesced"] > 0
    assert first.counts["slo shed"] + first.counts["slo rejected"] > 0
