"""POCO301 ``pool-closure`` — picklable callables into process pools.

Work submitted to a process pool crosses the process boundary by
pickling — so the callable must be addressable by qualified name:
a module-level function or a frozen-dataclass factory.  Lambdas,
functions nested inside other functions, and ``self.``-bound methods
all fail at runtime with an opaque ``PicklingError`` — and only on the
pooled path, which is exactly how nondeterministic "works on my
serial run" bugs ship.  This rule rejects them at rest.  It also
checks ``engine.parallel.map_ordered`` call sites, although that map
runs its tasks in-process and pickles nothing.

Checked call sites:

* ``map_ordered(fn, ...)`` (any spelling: bare or attribute);
* ``<anything>.submit(fn, ...)`` — executor submission;
* ``<pool-or-executor>.map/imap/imap_unordered/starmap/apply_async``
  (the generic ``.map`` is only checked when the receiver's name
  contains ``pool`` or ``executor``, so ``series.map`` stays quiet);
* ``functools.partial(...)`` wrappers are unwrapped — ``partial`` of a
  module-level function is picklable, ``partial`` of a lambda is not.

A name is flagged only when every definition of it in the file is
nested inside another function — a name that is (also) a module-level
``def`` resolves to the picklable one.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.core import Finding, LintContext, Rule, call_name, register

#: Attribute names that submit work to a pool regardless of receiver.
_SUBMIT_ATTRS = frozenset(
    {"submit", "apply_async", "imap", "imap_unordered", "starmap"}
)

#: ``.map`` is checked only on receivers whose name suggests a pool.
_POOLISH = ("pool", "executor")


def _collect_def_scopes(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Return (module-level def names, nested-only def names)."""
    top: Set[str] = set()
    nested: Set[str] = set()

    def visit(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (top if depth == 0 else nested).add(child.name)
                visit(child, depth + 1)
            elif isinstance(child, ast.ClassDef):
                # Methods are picklable by qualified name; do not descend
                # with increased depth at module level, but functions
                # nested inside *methods* are still closures.
                visit(child, depth)
            else:
                visit(child, depth)

    visit(tree, 0)
    return top, nested - top


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    if isinstance(func.value, ast.Name):
        return func.value.id
    if isinstance(func.value, ast.Attribute):
        return func.value.attr
    return None


def _is_pool_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "map_ordered"
    if isinstance(func, ast.Attribute):
        if func.attr == "map_ordered" or func.attr in _SUBMIT_ATTRS:
            return True
        if func.attr == "map":
            receiver = _receiver_name(func)
            if receiver is not None:
                lowered = receiver.lower()
                return any(hint in lowered for hint in _POOLISH)
    return False


def _unwrap_partial(node: ast.expr) -> ast.expr:
    """``functools.partial(fn, ...)`` -> ``fn`` (recursively)."""
    while isinstance(node, ast.Call):
        if call_name(node.func) != "partial" or not node.args:
            break
        node = node.args[0]
    return node


@register
class PoolClosureRule(Rule):
    rule_id = "pool-closure"
    code = "POCO301"
    summary = (
        "callables handed to map_ordered / executor submission must be "
        "module-level (picklable), not lambdas, nested functions or "
        "bound methods"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        calls = [
            node
            for node in ctx.nodes
            if isinstance(node, ast.Call) and node.args and _is_pool_call(node)
        ]
        if not calls:
            return
        _, nested_only = _collect_def_scopes(ctx.tree)
        for node in calls:
            target = _unwrap_partial(node.args[0])
            site = _call_site_name(node)
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    ctx,
                    target,
                    f"lambda passed to {site} cannot cross the process "
                    "boundary; use a module-level function or frozen-"
                    "dataclass factory",
                )
            elif isinstance(target, ast.Name) and target.id in nested_only:
                yield self.finding(
                    ctx,
                    target,
                    f"nested function {target.id!r} passed to {site} is a "
                    "closure and cannot be pickled; hoist it to module "
                    "level",
                )
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id in ("self", "cls"):
                yield self.finding(
                    ctx,
                    target,
                    f"bound method {target.value.id}.{target.attr} passed "
                    f"to {site} drags its whole instance through pickle; "
                    "use a module-level function or frozen-dataclass "
                    "factory",
                )


def _call_site_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return f".{func.attr}"
    return "pool call"  # pragma: no cover - _is_pool_call filters others
