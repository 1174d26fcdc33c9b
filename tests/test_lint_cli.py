"""CLI and exit-code tests for ``python -m repro.lint``.

Covers the acceptance contract: text, json and github formats, exit
codes (0 clean / 1 findings / 2 error), the whole-tree gate
(``src/repro`` is clean) and the canary — seeding a deliberate
``time.time()`` into a copy of ``engine/parallel.py`` must make the CLI
fail.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def run_cli(*argv):
    """Run the CLI in-process; returns (exit_code)."""
    return main(list(argv))


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        code = run_cli(str(FIXTURES / "units_good.py"))
        assert code == 0
        assert "pocolint: clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = run_cli(str(FIXTURES / "units_bad.py"))
        assert code == 1
        out = capsys.readouterr().out
        assert "POCO701[unit-flow]" in out
        assert "11 findings" in out

    def test_missing_path_exits_two(self, capsys):
        code = run_cli("tests/lint_fixtures/nonexistent.py")
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestFormats:
    def test_text_format_lines_are_parseable(self, capsys):
        run_cli(str(FIXTURES / "exceptions_bad.py"))
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if "POCO401" in line
        ]
        assert len(lines) == 4
        path, line_no, col, rest = lines[0].split(":", 3)
        assert path.endswith("exceptions_bad.py")
        assert int(line_no) == 5
        assert rest.strip().startswith("POCO401[exception-policy]")

    def test_json_format_is_machine_readable(self, capsys):
        code = run_cli(str(FIXTURES / "determinism_bad.py"), "--format=json")
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "pocolint"
        assert doc["clean"] is False
        assert doc["counts"] == {"determinism-taint": 12}
        first = doc["findings"][0]
        assert set(first) == {"rule", "code", "path", "line", "col", "message"}

    def test_json_clean_document(self, capsys):
        code = run_cli(str(FIXTURES / "units_good.py"), "--format=json")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True and doc["findings"] == []

    def test_rule_selection(self, capsys):
        # exceptions_bad also trips no other family, so selecting only
        # unit-flow must come back clean.
        code = run_cli(str(FIXTURES / "exceptions_bad.py"), "--rules=unit-flow")
        assert code == 0

    def test_rule_selection_by_id_and_code(self, capsys):
        for name in ("determinism-taint", "POCO901"):
            code = run_cli(
                str(FIXTURES / "determinism_bad.py"),
                "--format=json",
                f"--rules={name}",
            )
            assert code == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["counts"] == {"determinism-taint": 12}

    def test_unknown_rule_exits_two(self, capsys):
        code = run_cli(str(FIXTURES / "units_good.py"), "--rules=POCO999")
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_prints_six_rules(self, capsys):
        assert run_cli("--list-rules") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "POCO401", "POCO501", "POCO601", "POCO701", "POCO801", "POCO901"
        ]

    def test_removed_flags_are_usage_errors(self, capsys):
        for flag in ("--no-baseline", "--changed-only", "--write-baseline"):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(str(FIXTURES / "units_good.py"), flag)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestGithubFormat:
    def test_error_annotations_emitted(self, capsys):
        code = run_cli(str(FIXTURES / "units_bad.py"), "--format=github")
        assert code == 1
        out = capsys.readouterr().out
        annotations = [
            line for line in out.splitlines() if line.startswith("::error ")
        ]
        assert len(annotations) == 11
        assert "file=" in annotations[0]
        assert "line=5" in annotations[0]
        assert "title=POCO701[unit-flow]" in annotations[0]
        assert "pocolint: 11 findings" in out

    def test_clean_run_emits_no_annotations(self, capsys):
        code = run_cli(str(FIXTURES / "units_good.py"), "--format=github")
        assert code == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "pocolint: clean" in out


class TestDeliberateViolationCanary:
    """Acceptance: seeding time.time() into engine/parallel.py must fail."""

    def test_engine_parallel_copy_with_wallclock_fails(self, tmp_path):
        target = tmp_path / "parallel.py"
        shutil.copy(SRC / "repro" / "engine" / "parallel.py", target)
        source = target.read_text()
        source = source.replace(
            "def map_ordered(",
            "import time\n\n\ndef _stamp():\n    return time.time()\n\n\ndef map_ordered(",
            1,  # the module's one definition of the function
        )
        target.write_text(source)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 1, proc.stderr
        assert "time.time() is a wall-clock read" in proc.stdout

    def test_pristine_engine_parallel_is_clean(self):
        assert lint_paths([SRC / "repro" / "engine" / "parallel.py"]) == []


class TestWholeTreeGate:
    def test_src_repro_clean_modulo_committed_baseline(self):
        # No baseline is committed any more, so "modulo baseline" means
        # plain clean: every finding in src/repro fails the gate.
        findings = lint_paths([SRC / "repro"], root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0
        assert "POCO701" in proc.stdout
