"""POCO501 ``atomic-artifacts`` — durable writes go through the atomic helper.

A run artifact written with a plain ``write_text`` / ``write_bytes`` /
``open(..., "w")`` is observable half-written: a crash (or a concurrent
reader — CI tailing ``BENCH_engine.json``, a resumed sweep reading its
checkpoint) between ``open`` and ``close`` leaves a torn file that
parses as truncated JSON or a half table.  The crash-safe runtime (PR 4,
``docs/RECOVERY.md``) therefore routes every durable artifact through
:mod:`repro.runtime.atomic` — write-temp → fsync → rename — and this
rule keeps it that way at rest.

Flagged, anywhere in ``src/repro``:

* ``<path>.write_text(...)`` / ``<path>.write_bytes(...)`` — the
  pathlib one-shot writers;
* ``open(path, "w"|"a"|"x"...)`` and ``<path>.open("w"...)`` — any
  mode string containing a write intent (``w``, ``a``, ``x`` or ``+``);
  calls without a recognizable literal write mode are left alone
  (reads, and dynamically chosen modes the linter cannot judge).

Allowlisted: :mod:`repro.runtime.atomic` itself — something has to
perform the final write — and any line carrying
``# pocolint: disable=atomic-artifacts`` (for genuine streaming
writers, e.g. an append-only log).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import Finding, LintContext, Rule, register

#: The module allowed to write directly: the atomic helper itself.
_ALLOWED_PATH_SUFFIX = "runtime/atomic.py"

#: pathlib's one-shot writers.
_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

#: Mode-string characters that declare write intent.
_WRITE_MODE_CHARS = frozenset("wax+")


def _literal_mode(node: ast.Call) -> Optional[str]:
    """The call's mode string, when it is a literal we can judge.

    ``open(path, mode)`` takes the mode second; ``path.open(mode)``
    takes it first (the receiver is the path).
    """
    position = 0 if isinstance(node.func, ast.Attribute) else 1
    mode: Optional[ast.expr] = None
    if len(node.args) > position:
        mode = node.args[position]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _is_open_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr == "open"


@register
class AtomicArtifactsRule(Rule):
    rule_id = "atomic-artifacts"
    code = "POCO501"
    summary = (
        "durable artifacts are written via repro.runtime.atomic "
        "(write-temp/fsync/rename), never with in-place writes"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.path.replace("\\", "/").endswith(_ALLOWED_PATH_SUFFIX):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _WRITE_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f"{func.attr}() replaces the file in place — a crash "
                    "mid-write leaves a torn artifact; use "
                    "repro.runtime.atomic.atomic_write_text/_bytes/_json",
                )
            elif _is_open_call(node):
                mode = _literal_mode(node)
                if mode is not None and _WRITE_MODE_CHARS & set(mode):
                    yield self.finding(
                        ctx,
                        node,
                        f"open(..., {mode!r}) writes in place — build the "
                        "content first and hand it to "
                        "repro.runtime.atomic.atomic_write_text/_bytes/_json",
                    )
