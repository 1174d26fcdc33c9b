"""CLI, exit-code and baseline-workflow tests for ``python -m repro.lint``.

Covers the acceptance contract: text and json formats, exit codes
(0 clean / 1 findings / 2 error), the baseline grandfather-and-ratchet
workflow, and the canary — seeding a deliberate ``time.time()`` into a
copy of ``engine/parallel.py`` must make the CLI fail.
"""

import json
import pathlib
import shutil
import subprocess
import sys

from repro.lint import Baseline, lint_paths
from repro.lint.cache import analyzer_digest, load_cache
from repro.lint.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def run_cli(*argv):
    """Run the CLI in-process; returns (exit_code)."""
    return main(list(argv))


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        code = run_cli(str(FIXTURES / "units_good.py"), "--no-baseline")
        assert code == 0
        assert "pocolint: clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = run_cli(str(FIXTURES / "units_bad.py"), "--no-baseline")
        assert code == 1
        out = capsys.readouterr().out
        assert "POCO701[unit-flow]" in out
        assert "11 new findings" in out

    def test_missing_path_exits_two(self, capsys):
        code = run_cli("tests/lint_fixtures/nonexistent.py", "--no-baseline")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        code = run_cli(
            str(FIXTURES / "units_good.py"), "--baseline", str(bad)
        )
        assert code == 2


class TestFormats:
    def test_text_format_lines_are_parseable(self, capsys):
        run_cli(str(FIXTURES / "exceptions_bad.py"), "--no-baseline")
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
        code = run_cli(
            str(FIXTURES / "determinism_bad.py"),
            "--no-baseline",
            "--format=json",
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "pocolint"
        assert doc["clean"] is False
        assert doc["counts"] == {"determinism-taint": 12}
        first = doc["new_findings"][0]
        assert set(first) == {"rule", "code", "path", "line", "col", "message"}

    def test_json_clean_document(self, capsys):
        code = run_cli(
            str(FIXTURES / "units_good.py"), "--no-baseline", "--format=json"
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True and doc["new_findings"] == []

    def test_rule_selection(self, capsys):
        # exceptions_bad also trips no other family, so selecting only
        # unit-mixing must come back clean.
        code = run_cli(
            str(FIXTURES / "exceptions_bad.py"),
            "--no-baseline",
            "--rules=unit-mixing",
        )
        assert code == 0

    def test_rule_selection_by_code_and_alias(self, capsys):
        for name in ("POCO201", "nondeterminism", "POCO901"):
            code = run_cli(
                str(FIXTURES / "determinism_bad.py"),
                "--no-baseline",
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

    def test_list_rules_names_the_aliases(self, capsys):
        assert run_cli("--list-rules") == 0
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if line.startswith("POCO")]) == 7
        assert "aliases: unit-mixing, POCO101" in out
        assert "aliases: nondeterminism, POCO201" in out


#: Minimal structural subset of the SARIF 2.1.0 schema: enough to prove
#: the emitted document has the shape code-scanning backends require
#: (validated offline; the full OASIS schema needs network access).
SARIF_MIN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "required": [
                                                            "startLine"
                                                        ],
                                                        "properties": {
                                                            "startLine": {
                                                                "type": (
                                                                    "integer"
                                                                ),
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": (
                                                                    "integer"
                                                                ),
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    }
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarifFormat:
    def test_sarif_document_validates_against_schema(self, capsys):
        jsonschema = __import__("jsonschema")
        code = run_cli(
            str(FIXTURES / "units_bad.py"), "--no-baseline", "--format=sarif"
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SARIF_MIN_SCHEMA)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "pocolint"
        # the full seven-family catalogue rides along
        assert len(run["tool"]["driver"]["rules"]) == 7
        assert len(run["results"]) == 11
        first = run["results"][0]
        assert first["ruleId"] == "POCO701"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5
        assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_clean_run_has_empty_results(self, capsys):
        code = run_cli(
            str(FIXTURES / "units_good.py"), "--no-baseline", "--format=sarif"
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestGithubFormat:
    def test_error_annotations_emitted(self, capsys):
        code = run_cli(
            str(FIXTURES / "units_bad.py"), "--no-baseline", "--format=github"
        )
        assert code == 1
        out = capsys.readouterr().out
        annotations = [
            line for line in out.splitlines() if line.startswith("::error ")
        ]
        assert len(annotations) == 11
        assert "file=" in annotations[0]
        assert "line=5" in annotations[0]
        assert "title=POCO701[unit-flow]" in annotations[0]
        assert "pocolint: 11 new findings" in out

    def test_clean_run_emits_no_annotations(self, capsys):
        code = run_cli(
            str(FIXTURES / "units_good.py"), "--no-baseline", "--format=github"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "pocolint: clean" in out


def _git(tmp, *argv):
    proc = subprocess.run(
        ["git", "-C", str(tmp), "-c", "user.email=t@t", "-c", "user.name=t"]
        + list(argv),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestChangedOnly:
    def _make_repo(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "source.py").write_text(
            "import time\n\n\ndef stamp():\n"
            "    now = time.time()\n    return now\n"
        )
        (pkg / "sink.py").write_text(
            "from pkg.source import stamp\n\n\ndef log(telemetry):\n"
            "    telemetry.record('t', 0.0, 1.0)\n"
        )
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        return pkg

    def test_cross_module_finding_with_cached_context(
        self, tmp_path, monkeypatch, capsys
    ):
        pkg = self._make_repo(tmp_path)
        # Introduce the bug in the sink module only: the clock taint
        # lives in (unchanged) source.py, so catching it proves the
        # changed-only run kept whole-program context.
        (pkg / "sink.py").write_text(
            "from pkg.source import stamp\n\n\ndef log(telemetry):\n"
            "    tick = stamp()\n"
            "    telemetry.record('t', tick, 1.0)\n"
        )
        monkeypatch.chdir(tmp_path)
        code = run_cli("pkg", "--changed-only", "--no-baseline")
        out = capsys.readouterr().out
        assert code == 1
        assert "POCO901[determinism-taint]" in out
        assert "time.time() (pkg/source.py:5)" in out
        # only the changed file reports; unchanged files are context
        assert "pkg/source.py:5:" not in out.replace(
            "(pkg/source.py:5)", ""
        )
        cache = tmp_path / ".pocolint-cache.json"
        assert cache.is_file()

        # Second run restores source.py from the cache (hash unchanged)
        # and must reproduce the identical interprocedural finding.
        capsys.readouterr()
        code = run_cli("pkg", "--changed-only", "--no-baseline")
        out = capsys.readouterr().out
        assert code == 1
        assert "time.time() (pkg/source.py:5)" in out
        doc = json.loads(cache.read_text())
        entry = doc["files"]["pkg/source.py"]
        assert entry["taint"]["pkg.source.stamp"]["return_sources"]

    def test_clean_tree_lints_nothing(self, tmp_path, monkeypatch, capsys):
        self._make_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = run_cli("pkg", "--changed-only", "--no-baseline")
        assert code == 0
        assert "pocolint: clean" in capsys.readouterr().out

    def test_stale_cache_entry_degrades_to_cold_parse(
        self, tmp_path, monkeypatch, capsys
    ):
        pkg = self._make_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        run_cli("pkg", "--changed-only", "--no-baseline")
        capsys.readouterr()
        cache = tmp_path / ".pocolint-cache.json"
        doc = json.loads(cache.read_text())
        doc["files"]["pkg/source.py"]["hash"] = "0" * 64  # poison
        cache.write_text(json.dumps(doc))
        (pkg / "sink.py").write_text(
            "from pkg.source import stamp\n\n\ndef log(telemetry):\n"
            "    telemetry.record('t', stamp(), 1.0)\n"
        )
        code = run_cli("pkg", "--changed-only", "--no-baseline")
        out = capsys.readouterr().out
        assert code == 1  # mismatched hash -> re-parsed, finding intact
        assert "time.time() (pkg/source.py:5)" in out

    def test_cache_from_other_analyzer_sources_is_ignored(
        self, tmp_path, monkeypatch, capsys
    ):
        pkg = self._make_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        run_cli("pkg", "--changed-only", "--no-baseline")
        capsys.readouterr()
        cache = tmp_path / ".pocolint-cache.json"
        doc = json.loads(cache.read_text())
        assert doc["analyzer"] == analyzer_digest()
        # A cache from other analyzer sources: its hash-matching entry
        # claims stamp() is clean, which a stale analyzer could say.
        doc["analyzer"] = "0" * 64
        doc["files"]["pkg/source.py"]["taint"] = {}
        cache.write_text(json.dumps(doc))
        assert load_cache(cache) == {}
        (pkg / "sink.py").write_text(
            "from pkg.source import stamp\n\n\ndef log(telemetry):\n"
            "    telemetry.record('t', stamp(), 1.0)\n"
        )
        code = run_cli("pkg", "--changed-only", "--no-baseline")
        out = capsys.readouterr().out
        assert code == 1  # entry dropped -> re-analyzed, finding intact
        assert "time.time() (pkg/source.py:5)" in out

    def test_outside_git_repo_is_an_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-gitdir"))
        code = run_cli("m.py", "--changed-only", "--no-baseline")
        assert code == 2
        assert "changed-only" in capsys.readouterr().err


class TestBaselineWorkflow:
    def test_write_then_filter_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        bad = FIXTURES / "determinism_bad.py"
        assert run_cli(str(bad), "--write-baseline", "--baseline", str(baseline)) == 0
        capsys.readouterr()
        # Same findings again: all grandfathered, exit 0.
        code = run_cli(str(bad), "--baseline", str(baseline))
        assert code == 0
        assert "grandfathered" in capsys.readouterr().out

    def test_new_violation_not_absorbed(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        bad = FIXTURES / "determinism_bad.py"
        run_cli(str(bad), "--write-baseline", "--baseline", str(baseline))
        grown = tmp_path / "grown.py"
        grown.write_text(
            bad.read_text() + "\n\ndef more():\n    return time.time()\n"
        )
        capsys.readouterr()
        code = run_cli(str(grown), "--baseline", str(baseline))
        assert code == 1
        out = capsys.readouterr().out
        # Only the freshly added wall-clock read is new; the original
        # twelve stay absorbed (keys are path-sensitive, so the copy is
        # *not* automatically absorbed — assert the count grew by one
        # relative to the copy's own findings).
        assert "new finding" in out

    def test_baseline_counts_per_rule(self, tmp_path):
        findings = lint_paths([FIXTURES / "exceptions_bad.py"])
        baseline = Baseline.from_findings(findings)
        assert baseline.counts_per_rule() == {"exception-policy": 4}
        path = tmp_path / "b.json"
        baseline.save(path)
        assert Baseline.load(path).counts_per_rule() == {"exception-policy": 4}

    def test_line_churn_does_not_unbaseline(self, tmp_path):
        """Baseline keys ignore line numbers, so moving code keeps it absorbed."""
        original = tmp_path / "mod.py"
        original.write_text("import time\n\nt = time.time()\n")
        baseline = Baseline.from_findings(lint_paths([original]))
        shifted = "import time\n\n\n\n# comment pushing things down\nt = time.time()\n"
        original.write_text(shifted)
        new, old = baseline.filter(lint_paths([original]))
        assert new == [] and len(old) == 1


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
            [sys.executable, "-m", "repro.lint", str(target), "--no-baseline"],
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
        findings = lint_paths([SRC / "repro"], root=REPO_ROOT)
        baseline_path = REPO_ROOT / "lint-baseline.json"
        new, _ = Baseline.load(baseline_path).filter(findings)
        assert new == [], "\n".join(f.render() for f in new)

    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0
        assert "POCO101" in proc.stdout
