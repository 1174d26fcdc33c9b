"""POCO401 ``exception-policy`` — the ReproError contract for library code.

``repro.errors`` promises callers that *everything* the package raises
derives from :class:`~repro.errors.ReproError`, so a cluster sweep can
distinguish "this cell's configuration is infeasible" from a genuine
crash with one ``except`` clause.  Three patterns break that promise:

* raising builtin or foreign exception types (``raise ValueError(...)``)
  from library code — callers' ``except ReproError`` misses them;
* bare ``except:`` or a swallowed ``except Exception:`` — faults
  disappear instead of degrading gracefully through the
  :mod:`repro.faults` machinery;
* ``assert`` for runtime validation — ``python -O`` strips asserts, so
  the check silently vanishes in optimized deployments (the four
  historical ``assert primary is not None`` sites are now
  ``SimulationError`` raises).

The allowed raise set is introspected from :mod:`repro.errors` at lint
time, so adding a new ``ReproError`` subclass needs no linter change.
``NotImplementedError`` (abstract-method protocol), ``SystemExit`` and
``KeyboardInterrupt`` stay allowed; re-raising a caught variable
(``raise exc``) and bare ``raise`` are always fine.
"""

from __future__ import annotations

import ast
import inspect
from typing import FrozenSet, Iterator

from repro import errors as _errors
from repro.lint.core import Finding, LintContext, Rule, register


def _repro_error_names() -> FrozenSet[str]:
    names = set()
    for name, obj in inspect.getmembers(_errors, inspect.isclass):
        if issubclass(obj, _errors.ReproError):
            names.add(name)
    return frozenset(names)


#: Exception names library code may raise.
ALLOWED_RAISES = _repro_error_names() | frozenset(
    {"NotImplementedError", "SystemExit", "KeyboardInterrupt", "StopIteration"}
)

_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


def _exception_name(node: ast.expr) -> str:
    """Name of the exception being raised: ``X`` for ``raise X(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _handler_names(handler: ast.ExceptHandler) -> Iterator[str]:
    node = handler.type
    if node is None:
        return
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    for elt in elts:
        name = _exception_name(elt)
        if name:
            yield name


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


@register
class ExceptionPolicyRule(Rule):
    rule_id = "exception-policy"
    code = "POCO401"
    summary = (
        "library code raises only the ReproError hierarchy, never "
        "swallows broad excepts, and never validates with assert"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Assert):
                yield self.finding(
                    ctx,
                    node,
                    "assert used for runtime validation is stripped under "
                    "python -O; raise a ReproError subclass instead",
                )

    def _check_raise(self, ctx: LintContext, node: ast.Raise) -> Iterator[Finding]:
        if node.exc is None:
            return  # bare re-raise inside a handler
        name = _exception_name(node.exc)
        if not name or not name[0].isupper():
            return  # re-raising a caught variable, not a type
        if name not in ALLOWED_RAISES:
            yield self.finding(
                ctx,
                node,
                f"raise {name} escapes the ReproError hierarchy; library "
                "code must raise a repro.errors type so callers can catch "
                "the whole family",
            )

    def _check_handler(
        self, ctx: LintContext, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare except: catches everything including SystemExit; "
                "catch a specific exception type",
            )
            return
        broad = [n for n in _handler_names(node) if n in _BROAD_HANDLERS]
        if broad and not _reraises(node):
            yield self.finding(
                ctx,
                node,
                f"except {broad[0]} swallows the failure; re-raise (as a "
                "ReproError) or catch the specific type",
            )
