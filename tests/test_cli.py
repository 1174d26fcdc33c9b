"""Tests for the python -m repro command-line interface."""

import pytest

from repro.__main__ import COMMANDS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS[1:]:
            assert name in out

    def test_placement(self, capsys):
        assert main(["placement"]) == 0
        out = capsys.readouterr().out
        assert "graph" in out and "sphinx" in out

    def test_preferences(self, capsys):
        assert main(["preferences"]) == 0
        out = capsys.readouterr().out
        assert "indirect" in out
        assert "sphinx" in out

    def test_fit(self, capsys):
        assert main(["fit"]) == 0
        out = capsys.readouterr().out
        assert "R2 perf" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "leontief*" in out
        assert "OK" in out

    def test_admission(self, capsys):
        assert main(["admission"]) == 0
        out = capsys.readouterr().out
        assert "Admission boundaries" in out
        assert "%" in out

    def test_seed_flag_changes_numbers(self, capsys):
        main(["fit", "--seed", "7"])
        first = capsys.readouterr().out
        main(["fit", "--seed", "8"])
        second = capsys.readouterr().out
        assert first != second

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("flags, message", [
        (["--resume"], "resume needs a journal_path"),
        (["--checkpoint-every", "0"], "checkpoint_every must be at least 1"),
    ], ids=["resume-without-checkpoint-dir", "checkpoint-every-zero"])
    def test_bad_durability_flags_rejected(self, capsys, flags, message):
        """A rejected durability option is a usage error, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *flags, "--duration", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--budget-tree", "--arbiter-period", "nan"],
         "arbiter_period_s must be positive and finite"),
        (["--budget-tree", "--lease", "nan"], "lease_s must be finite"),
        (["--budget-tree", "--lease", "inf"], "lease_s must be finite"),
        (["--duration", "inf"], "duration_s must be finite"),
    ], ids=["arbiter-period-nan", "lease-nan", "lease-inf", "duration-inf"])
    def test_non_finite_flags_rejected(self, capsys, flags, message):
        """A NaN or infinite period, lease or duration is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "usage:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.slow
    def test_motivation(self, capsys):
        assert main(["motivation"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out and "Fig 4" in out


class TestGuardCli:
    @pytest.mark.slow
    def test_guard_sweep_reports_checks(self, capsys):
        assert main(["guard", "--duration", "6"]) == 0
        out = capsys.readouterr().out
        assert "cells" in out
        assert "invariant checks" in out
        assert "record mode" in out

    @pytest.mark.slow
    def test_guard_enforce_writes_ledger(self, capsys, tmp_path):
        ledger = tmp_path / "violations.jsonl"
        assert main(["guard", "--guard-mode", "enforce", "--duration", "6",
                     "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "enforce mode" in out
        assert str(ledger) in out
        assert ledger.exists()

    @pytest.mark.slow
    def test_guard_campaign_reports_cases(self, capsys):
        assert main(["guard", "--campaign", "--rounds", "1",
                     "--duration", "8"]) == 0
        out = capsys.readouterr().out
        assert "cases run" in out
        assert "coverage points" in out

    def test_guard_campaign_rejects_enforce_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["guard", "--campaign", "--guard-mode", "enforce"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record" in captured.err


class TestBudgetCli:
    @pytest.mark.slow
    def test_run_with_budget_tree(self, capsys):
        assert main(["run", "--budget-tree", "--duration", "6",
                     "--arbiter-period", "2", "--lease", "4"]) == 0
        out = capsys.readouterr().out
        assert "Hierarchical budget tree" in out
        assert "Degradation under power budgets" in out
        assert "granted" in out

    def test_run_rejects_unknown_fairness(self):
        with pytest.raises(SystemExit):
            main(["run", "--budget-tree", "--fairness", "maximal"])


class TestWorkersCli:
    """Every command runs in-process, so there is no ``--workers`` flag.

    ``run``, ``guard`` and ``guard --campaign`` reject it as an unknown
    argument before any work starts.
    """

    @pytest.mark.parametrize("command", [
        ["run"], ["guard"], ["guard", "--campaign"],
    ], ids=["run", "guard", "campaign"])
    def test_sweep_commands_reject_a_pool(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--duration", "2", "--workers", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --workers 2" in captured.err
