"""Repo hygiene: no build artifacts in the index, and no lint baseline.

Checks the *tracked* file list (``git ls-files``), not the working
tree — generated files on disk are fine, committing them is not:

* no bytecode (``*.pyc``/``*.pyo``) or ``__pycache__`` directories;
* the only ``benchmarks/out`` files in the index are the snapshot-pinned
  goldens from ``repro.evaluation.reports.GOLDEN_REPORTS`` (everything
  else there is regenerated by the benchmark harness and gitignored).

It also holds the pocolint gate (docs/LINTING.md): no
``lint-baseline.json`` may be committed to grandfather findings, and
``src/repro`` must be pocolint-clean as it stands.

The git checks are skipped outside a git checkout (e.g. an sdist).
"""

import pathlib
import subprocess

import pytest

from repro.evaluation.reports import GOLDEN_REPORTS
from repro.lint import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracked_files():
    try:
        proc = subprocess.run(
            ["git", "ls-files", "-z"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git not available")
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return [p for p in proc.stdout.split("\0") if p]


def test_no_bytecode_tracked(tracked_files):
    offenders = [
        p for p in tracked_files
        if p.endswith((".pyc", ".pyo")) or "__pycache__" in p.split("/")
    ]
    assert offenders == [], f"bytecode committed: {offenders}"


def test_benchmarks_out_only_pinned_goldens(tracked_files):
    pinned = {f"benchmarks/out/{name}" for name, _ in GOLDEN_REPORTS}
    tracked_out = {p for p in tracked_files if p.startswith("benchmarks/out/")}
    stray = sorted(tracked_out - pinned - {"benchmarks/out/README.md"})
    assert stray == [], (
        "generated benchmarks/out files committed without a golden test "
        f"covering them: {stray}"
    )
    missing = sorted(pinned - tracked_out)
    assert missing == [], f"pinned golden snapshots not committed: {missing}"


def test_src_repro_pocolint_clean_modulo_baseline():
    # The baseline is gone: findings are fixed, never grandfathered, so
    # no baseline file may come back and the tree must lint clean.
    assert not (REPO_ROOT / "lint-baseline.json").exists()
    findings = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert findings == [], "new pocolint findings:\n" + "\n".join(
        f.render() for f in findings
    )
