"""Repo hygiene: no build artifacts in the index, and the lint ratchet.

Checks the *tracked* file list (``git ls-files``), not the working
tree — generated files on disk are fine, committing them is not:

* no bytecode (``*.pyc``/``*.pyo``) or ``__pycache__`` directories;
* the only ``benchmarks/out`` files in the index are the snapshot-pinned
  goldens from ``repro.evaluation.reports.GOLDEN_REPORTS`` (everything
  else there is regenerated by the benchmark harness and gitignored).

It also holds the pocolint **baseline ratchet** (docs/LINTING.md): the
committed ``lint-baseline.json`` may only shrink — per-rule totals are
capped at the values recorded here, so grandfathered findings get fixed
over time but never multiply — and ``src/repro`` must be pocolint-clean
modulo that baseline.

The git checks are skipped outside a git checkout (e.g. an sdist).
"""

import pathlib
import subprocess

import pytest

from repro.evaluation.reports import GOLDEN_REPORTS
from repro.lint import Baseline, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The ratchet: per-rule baseline totals.  These numbers may be
#: LOWERED when grandfathered findings are fixed, never raised — new
#: findings must be fixed, not baselined.  The pocolint v2 landing
#: fixed the last two grandfathered findings (unseeded RNG fallbacks
#: in placement.py and meter.py now take explicit default seeds), so
#: every cap is zero and the baseline is empty.
BASELINE_CAPS = {
    "pool-closure": 0,
    "exception-policy": 0,
    "atomic-artifacts": 0,
    "hand-rolled-tolerance": 0,
    "unit-flow": 0,
    "lane-safety": 0,
    "determinism-taint": 0,
}


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


@pytest.fixture(scope="module")
def baseline():
    path = REPO_ROOT / "lint-baseline.json"
    assert path.is_file(), "lint-baseline.json must be committed at repo root"
    return Baseline.load(path)


def test_pocolint_baseline_is_burned_to_empty(baseline):
    # The ratchet reached zero: src/repro carries no grandfathered
    # findings at all.  Any entry reappearing here means someone
    # re-baselined instead of fixing — reject it.
    assert baseline.entries == {}, (
        "lint-baseline.json must stay empty; fix findings instead of "
        f"grandfathering them: {sorted(baseline.entries)}"
    )


def test_pocolint_baseline_never_grows(baseline):
    counts = baseline.counts_per_rule()
    unknown = sorted(set(counts) - set(BASELINE_CAPS))
    assert unknown == [], (
        f"baseline contains rules with no ratchet cap: {unknown}; "
        "new findings must be fixed, not grandfathered"
    )
    over = {
        rule: (count, BASELINE_CAPS[rule])
        for rule, count in counts.items()
        if count > BASELINE_CAPS[rule]
    }
    assert over == {}, (
        "pocolint baseline grew (rule: (count, cap)): "
        f"{over} — fix the finding instead of re-baselining, or, if a "
        "grandfathered finding was fixed, lower BASELINE_CAPS to match"
    )


def test_src_repro_pocolint_clean_modulo_baseline(baseline):
    findings = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    new, _ = baseline.filter(findings)
    assert new == [], "new pocolint findings:\n" + "\n".join(
        f.render() for f in new
    )
