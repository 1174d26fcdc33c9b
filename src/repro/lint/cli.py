"""``python -m repro.lint`` — the pocolint command line.

Every run is one cold whole-program pass over the given paths; an
inline ``# pocolint: disable=<rule>`` comment is the only way to exempt
a line.  Exit codes follow the convention CI expects:

* ``0`` — no findings;
* ``1`` — at least one finding;
* ``2`` — usage or internal error (unreadable or unparseable file,
  unknown rule name in ``--rules`` or in a suppression comment).

``--format`` picks the report (:mod:`repro.lint.formats`): ``text``
(default), ``json`` or ``github`` (GitHub Actions ``::error``
annotations).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import LintError
from repro.lint.core import Rule, all_rules, get_rule, lint_paths
from repro.lint.formats import RENDERERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "pocolint: domain-aware static analysis for the Pocolo "
            "reproduction (unit flow, determinism taint, lane safety, "
            "exception policy, atomic artifacts, tolerances)"
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
        choices=tuple(RENDERERS),
        default="text",
        help=(
            "report format: text, json or github (Actions ::error "
            "annotations; default: text)"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated rule ids or codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _select_rules(spec: Optional[str]) -> List[Rule]:
    if spec is None:
        return all_rules()
    return [get_rule(rule_id.strip()) for rule_id in spec.split(",") if rule_id.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rules = _select_rules(args.rules)
        if args.list_rules:
            for rule in rules:
                print(f"{rule.code}  {rule.rule_id:<21} {rule.summary}")
            return 0
        findings = lint_paths(
            [Path(p).resolve() for p in args.paths], rules=rules, root=Path.cwd()
        )
    except LintError as exc:
        print(f"pocolint: error: {exc}", file=sys.stderr)
        return 2
    RENDERERS[args.format](findings)
    return 1 if findings else 0
