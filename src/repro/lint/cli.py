"""``python -m repro.lint`` — the pocolint command line.

Exit codes follow the convention CI expects:

* ``0`` — no new findings (clean, or everything absorbed by the baseline);
* ``1`` — at least one new finding;
* ``2`` — usage or internal error (unparseable file, bad baseline, ...).

``--format=text`` (default) prints one ``path:line:col: CODE[rule]
message`` line per finding plus a summary; ``--format=json`` emits a
machine-readable document with per-rule counts; ``--format=sarif``
emits a SARIF 2.1.0 document for code-scanning backends; and
``--format=github`` emits GitHub Actions ``::error`` annotations.
``--write-baseline`` records the current findings as the new baseline
instead of failing on them — the hygiene ratchet in
``tests/test_repo_hygiene.py`` keeps that honest by refusing baselines
that grow.

``--changed-only`` lints just the files the working tree changed
(``git diff`` + untracked), restoring the rest of the project's symbol
tables and interprocedural summaries from the content-hash cache in
``.pocolint-cache.json`` so whole-program findings stay correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro.errors import LintError
from repro.lint.baseline import Baseline
from repro.lint.core import Finding, all_rules, get_rule, lint_paths

#: Baseline file picked up automatically when present in the CWD.
DEFAULT_BASELINE = Path("lint-baseline.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "pocolint: domain-aware static analysis for the Pocolo "
            "reproduction (unit safety, determinism, pickle/parallel "
            "safety, exception policy)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help=(
            "report format: text, json, sarif (SARIF 2.1.0) or github "
            "(Actions ::error annotations; default: text)"
        ),
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "lint only files changed in the git working tree, using the "
            "content-hash cache for the unchanged project context"
        ),
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "project cache for --changed-only "
            "(default: .pocolint-cache.json next to the baseline)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file, report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated rule ids, codes or aliases to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _select_rules(spec: Optional[str]) -> List:
    if spec is None:
        return all_rules()
    return [get_rule(rule_id.strip()) for rule_id in spec.split(",") if rule_id.strip()]


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    if DEFAULT_BASELINE.is_file() or args.write_baseline:
        return DEFAULT_BASELINE
    return None


def _render_text(
    new: List[Finding], old: List[Finding], stream=None
) -> None:
    stream = stream if stream is not None else sys.stdout
    for finding in new:
        print(finding.render(), file=stream)
    if new:
        noun = "finding" if len(new) == 1 else "findings"
        suffix = f" ({len(old)} grandfathered by baseline)" if old else ""
        print(f"pocolint: {len(new)} new {noun}{suffix}", file=stream)
    else:
        suffix = f" ({len(old)} grandfathered by baseline)" if old else ""
        print(f"pocolint: clean{suffix}", file=stream)


def _render_json(
    new: List[Finding], old: List[Finding], stream=None
) -> None:
    stream = stream if stream is not None else sys.stdout
    counts: dict = {}
    for finding in new:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    doc = {
        "tool": "pocolint",
        "new_findings": [
            {
                "rule": f.rule_id,
                "code": f.code,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in new
        ],
        "grandfathered": len(old),
        "counts": dict(sorted(counts.items())),
        "clean": not new,
    }
    json.dump(doc, stream, indent=2)
    print(file=stream)


def _git_changed_paths(root: Path) -> Set[str]:
    """Root-relative posix paths of changed + untracked ``*.py`` files."""
    commands = (
        ["git", "-C", str(root), "diff", "--name-only", "HEAD", "--"],
        ["git", "-C", str(root), "ls-files", "--others", "--exclude-standard"],
    )
    toplevel_proc = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
    )
    if toplevel_proc.returncode != 0:
        raise LintError(
            f"--changed-only needs a git work tree at {root}: "
            f"{toplevel_proc.stderr.strip()}"
        )
    toplevel = Path(toplevel_proc.stdout.strip())
    changed: Set[str] = set()
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            raise LintError(
                f"git failed for --changed-only: {proc.stderr.strip()}"
            )
        for line in proc.stdout.splitlines():
            name = line.strip()
            if not name.endswith(".py"):
                continue
            absolute = toplevel / name
            try:
                changed.add(absolute.relative_to(root).as_posix())
            except ValueError:
                changed.add(absolute.as_posix())
    return changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rules = _select_rules(args.rules)
        if args.list_rules:
            for rule in rules:
                print(f"{rule.code}  {rule.rule_id:<21} {rule.summary}")
                if rule.aliases:
                    print(" " * 31 + "aliases: " + ", ".join(rule.aliases))
            return 0
        baseline_path = _resolve_baseline_path(args)
        # Baseline keys are ``path::message`` with paths relative to the
        # baseline file's directory, so a run from any CWD (e.g. CI at
        # the repo root, a developer inside src/) matches the same keys.
        if baseline_path is not None:
            root = baseline_path.resolve().parent
        else:
            root = Path.cwd()
        if args.changed_only:
            # Imported lazily: the cache driver pulls in the summary
            # machinery, which plain runs never need.
            from repro.lint.cache import DEFAULT_CACHE_NAME, lint_paths_cached

            cache_path = (
                args.cache if args.cache is not None
                else root / DEFAULT_CACHE_NAME
            )
            findings = lint_paths_cached(
                [Path(p).resolve() for p in args.paths],
                rules=rules,
                root=root,
                changed=sorted(_git_changed_paths(root)),
                cache_path=cache_path,
            )
        else:
            findings = lint_paths(
                [Path(p).resolve() for p in args.paths], rules=rules, root=root
            )
        if args.write_baseline:
            if baseline_path is None:  # pragma: no cover - argparse default
                raise LintError("--write-baseline needs a baseline path")
            Baseline.from_findings(findings).save(baseline_path)
            per_rule = Baseline.from_findings(findings).counts_per_rule()
            total = sum(per_rule.values())
            print(
                f"pocolint: wrote {total} finding(s) to {baseline_path}",
                file=sys.stderr,
            )
            return 0
        if baseline_path is not None and baseline_path.is_file():
            new, old = Baseline.load(baseline_path).filter(findings)
        else:
            new, old = list(findings), []
    except LintError as exc:
        print(f"pocolint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _render_json(new, old)
    elif args.format == "sarif":
        from repro.lint.formats import render_sarif

        render_sarif(new, rules)
    elif args.format == "github":
        from repro.lint.formats import render_github

        render_github(new, old)
    else:
        _render_text(new, old)
    return 1 if new else 0
