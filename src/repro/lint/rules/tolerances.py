"""POCO601 ``hand-rolled-tolerance`` — one tolerance vocabulary for power.

The guard layer (:mod:`repro.guard.tolerance`) is the single place that
decides what "close enough" means for power and energy quantities:
``within_tolerance`` for equality bands, ``tolerance_band`` for
abs+relative envelopes, ``exceeds_cap`` for cap checks.  Scattered
hand-rolled comparisons drift — one module absolute, another relative,
a third with a stale epsilon — and the safety invariants end up
disagreeing with the code they watch.

This rule flags the classic hand-rolled shapes when the quantity being
compared carries a power/energy unit suffix (``_w``, ``_watts``,
``_joules``, ``_kwh`` — the suffix vocabulary of POCO701, read by
:func:`repro.lint.summaries.suffix_unit`):

* ``abs(a - b) < tol`` (any ordering, any of ``< <= > >=``) where
  ``a`` or ``b`` is a power/energy expression;
* ``math.isclose(...)`` / ``np.isclose(...)`` / ``allclose(...)`` with
  a power/energy argument.

Files inside ``repro/guard/`` are exempt — they *implement* the
vocabulary.  Control-loop hysteresis (``filtered < cap - margin``) is
deliberately not matched: an actuation threshold is a design choice,
not an equality tolerance, and flagging it would teach people to
suppress the rule.  See docs/LINTING.md.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    call_name,
    describe,
    register,
)
from repro.lint.summaries import suffix_unit

#: Units whose tolerance logic belongs to repro.guard.tolerance.
_POWER_UNITS = frozenset({"watts", "joules", "kilowatt_hours"})

#: Call names that are tolerance comparisons in disguise.
_ISCLOSE_NAMES = frozenset({"isclose", "allclose"})

#: Path fragments exempt from the rule (the vocabulary's own home).
_EXEMPT_FRAGMENT = "repro/guard/"


def _is_power_quantity(node: ast.expr) -> bool:
    """True when the expression carries a power/energy unit suffix."""
    return suffix_unit(node) in _POWER_UNITS


def _abs_of_power_difference(node: ast.expr) -> Optional[ast.expr]:
    """Match ``abs(x - y)`` (or ``abs(x)``) over a power/energy operand."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "abs"
        and len(node.args) == 1
    ):
        return None
    inner = node.args[0]
    if isinstance(inner, ast.BinOp) and isinstance(inner.op, (ast.Add, ast.Sub)):
        if _is_power_quantity(inner.left) or _is_power_quantity(inner.right):
            return inner
        return None
    if _is_power_quantity(inner):
        return inner
    return None


@register
class HandRolledToleranceRule(Rule):
    rule_id = "hand-rolled-tolerance"
    code = "POCO601"
    summary = (
        "tolerance comparisons on power/energy quantities belong to "
        "repro.guard.tolerance (within_tolerance / tolerance_band / "
        "exceeds_cap), not ad-hoc abs()/isclose() checks"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if _EXEMPT_FRAGMENT in ctx.path.replace("\\", "/"):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_isclose(ctx, node)

    def _check_compare(
        self, ctx: LintContext, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for (left, right), op in zip(
            zip(operands, operands[1:]), node.ops
        ):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                continue
            for side in (left, right):
                matched = _abs_of_power_difference(side)
                if matched is not None:
                    yield self.finding(
                        ctx,
                        node,
                        "hand-rolled tolerance comparison on "
                        f"{describe(matched)}; use repro.guard.tolerance "
                        "(within_tolerance / tolerance_band)",
                    )
                    break

    def _check_isclose(
        self, ctx: LintContext, node: ast.Call
    ) -> Iterator[Finding]:
        name = call_name(node.func)
        if name not in _ISCLOSE_NAMES:
            return
        for arg in node.args:
            if _is_power_quantity(arg):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() tolerance check on {describe(arg)}; use "
                    "repro.guard.tolerance (within_tolerance / "
                    "tolerance_band)",
                )
                return

