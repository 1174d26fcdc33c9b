"""POCO701 ``unit-flow`` — additive unit safety for the power budget.

The paper accounts power *additively in watts*
(``P_static + sum_j r_j * p_j <= Power``), and this codebase encodes
units in identifier suffixes (``power_w``, ``energy_joules``,
``duration_s``, ``freq_ghz``).  The rule runs
:class:`repro.lint.summaries.UnitAnalysis` over every function and
module body and flags what is only meaningful between like units:
``+``/``-`` (and ``+=``/``-=``) and comparisons across units; assigning
a value to a name or attribute suffixed with another unit; passing it
to a suffixed keyword (resolved callee or not) or to a suffixed
positional parameter of a resolved callee; and returning it from a
function suffixed with another unit.

Units follow local assignments, call returns (interprocedural
summaries) and dataclass constructor fields, so the suffix can be
modules away from the mistake.  Only two *known*, different units
mismatch: untagged code is never flagged.  The suffix vocabulary and
its index-name exceptions (``p_j``, ``a_w``, ``sum_j``) live in
:mod:`repro.lint.summaries`; see docs/LINTING.md.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Union

from repro.lint.core import describe, register
from repro.lint.dataflow import DataflowAnalysis, DataflowRule, Env
from repro.lint.graph import ClassSymbol, FunctionSymbol, ModuleSymbols, Project
from repro.lint.summaries import (
    UnitAnalysis,
    seed_param_units,
    suffix_unit,
    unit_of_name,
    unit_returns,
)


class _UnitFlowChecker(UnitAnalysis):
    """UnitAnalysis that records mismatches as candidate findings."""

    def on_mix(
        self,
        node: ast.AST,
        what: str,
        left: ast.expr,
        left_unit: str,
        right: ast.expr,
        right_unit: str,
    ) -> None:
        self.flag(
            node,
            f"{what} mixes {left_unit} ({describe(left)}) with "
            f"{right_unit} ({describe(right)})",
        )

    # assignments ----------------------------------------------------------

    def bind_target(
        self, target: ast.expr, value: object, node: ast.AST, env: Env
    ) -> None:
        if (
            isinstance(target, (ast.Name, ast.Attribute))
            and isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
        ):
            self._check_assignment(target, value, node, node.value)
        super().bind_target(target, value, node, env)

    def _check_assignment(
        self,
        target: Union[ast.Name, ast.Attribute],
        value: object,
        node: Union[ast.Assign, ast.AnnAssign],
        value_expr: ast.expr,
    ) -> None:
        name = target.id if isinstance(target, ast.Name) else target.attr
        expected = unit_of_name(name)
        if expected is None or not isinstance(value, str) or value == expected:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        direct = any(each is target for each in targets)
        if direct and suffix_unit(value_expr) == value:
            # The value names its unit itself: a plain suffix mismatch.
            self.flag(
                node,
                f"assignment mixes {expected} ({describe(target)}) with "
                f"{value} ({describe(value_expr)})",
            )
            return
        detail = self._value_detail(value_expr) if direct else ""
        self.flag(
            node,
            f"assignment binds {value} to {describe(target)} "
            f"(expects {expected}){detail}",
        )

    def _value_detail(self, value_expr: ast.expr) -> str:
        """Cross-module evidence: where a call-derived unit came from."""
        if not isinstance(value_expr, ast.Call):
            return ""
        resolved = self.resolve(value_expr.func)
        if isinstance(resolved, FunctionSymbol):
            return (
                f"; value returned by {resolved.name}() "
                f"defined at {resolved.path}:{resolved.lineno}"
            )
        return ""

    # call arguments -------------------------------------------------------

    def on_call(
        self,
        node: ast.Call,
        resolved: object,
        arg_units: List[Optional[str]],
        keyword_units: Dict[Optional[str], Optional[str]],
    ) -> None:
        for keyword in node.keywords:
            expected = unit_of_name(keyword.arg or "")
            actual = keyword_units.get(keyword.arg)
            if expected is not None and actual is not None and actual != expected:
                self.flag(
                    keyword.value,
                    f"keyword argument {keyword.arg}= expects {expected} "
                    f"but receives {actual} ({describe(keyword.value)})",
                )
        if isinstance(resolved, FunctionSymbol):
            params = resolved.params
            what = f"{resolved.name}()"
        elif isinstance(resolved, ClassSymbol):
            params = resolved.init_params
            what = f"{resolved.name}(...) constructor"
        else:
            return
        for arg, param, actual in zip(node.args, params, arg_units):
            expected = unit_of_name(param)
            if expected is not None and actual is not None and actual != expected:
                self.flag(
                    arg,
                    f"argument for parameter {param}= of {what} expects "
                    f"{expected} but receives {actual} "
                    f"(callee defined at {resolved.path}:{resolved.lineno})",
                )


@register
class UnitFlowRule(DataflowRule):
    rule_id = "unit-flow"
    code = "POCO701"
    summary = (
        "watts/joules/seconds/GHz values may only be added, compared, "
        "assigned or passed to like units; units follow assignments, call "
        "arguments, returns and dataclass fields across modules"
    )

    def checker(
        self, project: Project, table: ModuleSymbols,
        cls_sym: Optional[ClassSymbol], path: str,
    ) -> _UnitFlowChecker:
        return _UnitFlowChecker(project, table, cls_sym, unit_returns(project))

    def seed(self, func: FunctionSymbol, path: str) -> Env:
        return seed_param_units(func)

    def after_function(
        self, checker: DataflowAnalysis, func: FunctionSymbol
    ) -> None:
        """``def power_w(...)`` promises watts; flag returns that break it."""
        expected = unit_of_name(func.name)
        if expected is None:
            return
        for stmt, value in checker.returns:
            if isinstance(value, str) and value != expected:
                checker.flag(
                    stmt,
                    f"{func.name}() is suffix-typed as {expected} but "
                    f"this return produces {value}",
                )
