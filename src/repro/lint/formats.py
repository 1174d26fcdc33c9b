"""Report renderers for the pocolint CLI: text, JSON and GitHub.

``text`` prints one ``path:line:col: CODE[rule] message`` line per
finding; ``json`` emits a machine-readable document with per-rule
counts; ``github`` emits GitHub Actions workflow commands
(``::error file=...,line=...``) so findings surface as inline
annotations on the pull-request diff.  ``text`` and ``github`` end with
the same one-line summary.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, Sequence

from repro.lint.core import Finding


def summary(findings: Sequence[Finding]) -> str:
    if not findings:
        return "pocolint: clean"
    noun = "finding" if len(findings) == 1 else "findings"
    return f"pocolint: {len(findings)} {noun}"


def render_text(findings: Sequence[Finding]) -> None:
    for finding in findings:
        print(finding.render())
    print(summary(findings))


def render_json(findings: Sequence[Finding]) -> None:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    doc = {
        "tool": "pocolint",
        "findings": [
            {
                "rule": f.rule_id,
                "code": f.code,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in findings
        ],
        "counts": dict(sorted(counts.items())),
        "clean": not findings,
    }
    json.dump(doc, sys.stdout, indent=2)
    print()


def _escape_property(value: str) -> str:
    """Escape a workflow-command *property* value (file=, title=)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape workflow-command message data."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(findings: Sequence[Finding]) -> None:
    for finding in findings:
        title = _escape_property(f"{finding.code}[{finding.rule_id}]")
        print(
            f"::error file={_escape_property(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={title}::{_escape_data(finding.message)}"
        )
    print(summary(findings))


#: ``--format`` choice -> renderer
RENDERERS: Dict[str, Callable[[Sequence[Finding]], None]] = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}
