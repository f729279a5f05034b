"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--data-mib", "2", "--chunk-kib", "512"]


class TestCli:
    def test_apps_lists_all_seven(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("kmeans", "wordcount", "netflix", "opinion", "dna",
                     "mastercard", "mastercard_indexed"):
            assert name in out

    def test_hw_prints_testbed(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "GTX 680" in out and "PCIe" in out

    def test_run_all_engines(self, capsys):
        assert main(["run", "kmeans", *FAST]) == 0
        out = capsys.readouterr().out
        assert "bigkernel" in out and "cpu_serial" in out

    def test_run_single_engine(self, capsys):
        assert main(["run", "netflix", "--engine", "bigkernel", *FAST]) == 0
        out = capsys.readouterr().out
        assert "bigkernel" in out

    def test_run_unknown_engine_fails(self, capsys):
        assert main(["run", "kmeans", "--engine", "warpdrive", *FAST]) == 2

    def test_run_multigpu_instance_name(self, capsys):
        """A multi-GPU instance name resolves like any registry name, and
        runs next to the serial baseline under its own name."""
        name = "bigkernel_multigpu4_shared_numablind"
        assert main(["run", "wordcount", "--engine", name, *FAST]) == 0
        out = capsys.readouterr().out
        assert name in out and "cpu_serial" in out

    @pytest.mark.parametrize(
        "command", ["run kmeans", "report kmeans", "verify", "chaos", "bench",
                    "serve"],
    )
    def test_negative_data_mib_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--data-mib", "-2"])
        assert exc.value.code == 2
        assert "--data-mib" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["des", "hybrid"])
    @pytest.mark.parametrize(
        "flag", [["--points", "100000"], ["--spot-check"]],
        ids=["points", "spot-check"],
    )
    def test_sweep_analytic_only_flag_rejected(self, flag, mode, capsys):
        """``--points`` and ``--spot-check`` act only under ``--mode
        analytic``; elsewhere they fail instead of being ignored."""
        argv = ["sweep", "wordcount", "--mode", mode, *flag, "--data-mib", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flag[0]} needs --mode analytic" in captured.err
        assert "sweep" not in captured.out

    @pytest.mark.parametrize("mode", ["des", "analytic"])
    def test_sweep_top_k_needs_hybrid(self, mode, capsys):
        """``--top-k`` acts only under ``--mode hybrid``; elsewhere it
        fails instead of being ignored."""
        argv = ["sweep", "wordcount", "--mode", mode, "--top-k", "3",
                "--data-mib", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--top-k needs --mode hybrid" in captured.err
        assert "sweep" not in captured.out

    @pytest.mark.parametrize(
        "top_k, points", [([], 8), (["--top-k", "2"], 2)], ids=["default", "2"]
    )
    def test_sweep_hybrid_top_k(self, top_k, points, capsys):
        """The hybrid mode DES-verifies ``--top-k`` candidates, 8 when
        the flag is not given."""
        assert main(["sweep", "wordcount", "--mode", "hybrid", *top_k,
                     "--data-mib", "1"]) == 0
        assert f"{points}-point sweep" in capsys.readouterr().out

    def test_bench_has_no_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--engine", "uvm"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_sweep_analytic_scan_with_spot_check(self, capsys):
        assert main(["sweep", "wordcount", "--mode", "analytic", "--points",
                     "1000", "--spot-check", "--data-mib", "1"]) == 0
        out = capsys.readouterr().out
        assert "analytic scan of" in out and "spot check:" in out

    def test_table1_command(self, capsys):
        assert main(["table1", *FAST]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig4b_command(self, capsys):
        assert main(["fig4b", *FAST]) == 0
        assert "Fig. 4(b)" in capsys.readouterr().out

    def test_trace_dumps_valid_json(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "kmeans", "--out", str(out_file), *FAST]) == 0
        events = json.loads(out_file.read_text())["traceEvents"]
        assert any(e.get("name") == "compute" for e in events)
        assert any(e.get("name") == "data_transfer" for e in events)
        # complete events carry microsecond timestamps
        xs = [e for e in events if e.get("ph") == "X"]
        assert xs and all(e["dur"] >= 0 for e in xs)

    def test_verify_quick_passes(self, capsys):
        assert main(["verify", "--quick", "--fuzz-iters", "2",
                     "--data-mib", "1"]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "differential vs cpu_serial" in out

    def test_verify_exits_nonzero_on_violation(self, capsys, monkeypatch):
        from repro.verify import runner
        from repro.verify.invariants import InvariantReport, Violation

        def broken(**kwargs):
            summary = runner.VerifySummary()
            summary["invariants"] = InvariantReport(
                checked=("ring-backpressure",),
                violations=[Violation("ring-backpressure", "ran ahead", 1.0)],
            )
            return summary

        monkeypatch.setattr(runner, "run_verify", broken)
        monkeypatch.setattr("repro.verify.run_verify", broken)
        assert main(["verify", "--quick"]) == 1
        assert "verify: FAIL" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
