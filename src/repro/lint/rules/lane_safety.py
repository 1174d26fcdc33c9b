"""POCO801 ``lane-safety`` — numpy aliasing, dtype and reduction hazards.

The batched SoA engine (docs/ENGINE.md) keeps all per-server state in
lane-indexed float64 numpy arrays and promises bit-identity with the
per-object oracle.  Three silent ways to break that promise are purely
structural, so they are linted:

* **alias hazard** — mutating a lane array *through a view*:
  ``half = arr[:, ::2]; half += x`` (or ``np.add(..., out=view)``,
  or a subscript store through ``ravel()``/``reshape()``/``.T``)
  writes back into the base array under a different name, the classic
  source of order-dependent corruption in vectorized kernels;
* **dtype down-cast** — creating lane state as float32/float16
  (``dtype=np.float32``), casting with ``.astype(np.float32)``, or
  wrapping literals in ``np.float32(...)`` inside lane arithmetic:
  every lane value must stay float64 or the batched path diverges
  from the oracle in the last bits.  Accumulating floats in-place
  into an array built from bare int literals (implicit int64) is the
  same bug from the other side;
* **cross-lane reduction** — any ``mean``/``sum``-family reduction
  with an ``axis=`` argument bypasses the pairwise-stable
  ``_np_mean_lanes`` helper, whose whole purpose is replicating
  numpy's pairwise association order across lanes.

The rule is scoped by the ``# pocolint: lane-module`` directive: a
module that declares it (``engine/batched.py``, ``engine/vectorized.py``
and any future lane kernel) has *every* numpy array treated as lane
state.  Arrays are tracked by dataflow — through attributes assigned in
the class body, module-level globals, locals and view derivations — so
renaming an alias does not evade the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.lint.core import Finding, LintContext, Rule, describe, register
from repro.lint.dataflow import DataflowAnalysis, Env, self_attr_name

#: numpy array constructors (reached as ``np.<name>`` or bare imports).
_CONSTRUCTORS = frozenset(
    {
        "zeros", "ones", "full", "empty", "asarray", "array", "arange",
        "linspace", "zeros_like", "ones_like", "full_like", "empty_like",
        "copy",
    }
)

#: methods / functions returning a *view* of their receiver / argument.
_VIEW_METHODS = frozenset(
    {"ravel", "reshape", "view", "transpose", "swapaxes", "diagonal"}
)
_VIEW_FUNCTIONS = frozenset(
    {"ravel", "reshape", "broadcast_to", "transpose", "atleast_1d",
     "atleast_2d", "squeeze"}
)

#: reductions whose ``axis=`` form re-associates across lanes.
_REDUCTIONS = frozenset(
    {"mean", "sum", "std", "var", "nanmean", "nansum", "prod", "median"}
)

#: dtype spellings that narrow float64 lane state.
_NARROW_DTYPES = frozenset(
    {"float32", "float16", "half", "single", "f4", "f2", "<f4", "<f2"}
)

#: functions exempt from the reduction check (the pairwise helper
#: itself is the blessed implementation).
_EXEMPT_FUNCTIONS = frozenset({"_np_mean_lanes"})

_DIRECTIVE = "lane-module"


@dataclass(frozen=True)
class ArrayVal:
    """Abstract numpy value: an owning array or a view into one."""

    kind: str  # "array" | "view"
    dtype: Optional[str]  # "float64" | "narrow" | "int_implicit" | None
    base: str  # spelling of the ultimate base array
    line: int  # where this array/view came into being


def _dtype_of_keyword(node: ast.Call) -> Optional[str]:
    for keyword in node.keywords:
        if keyword.arg != "dtype":
            continue
        return _dtype_name(keyword.value)
    return None


def _dtype_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_int_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.BinOp):  # 10 ** 9 style literals
        return _is_int_literal(node.left) and _is_int_literal(node.right)
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


def _contains_float_literal(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
    return False


class _LaneChecker(DataflowAnalysis):
    """Tracks array/view derivations and records the three hazards."""

    def __init__(
        self,
        path: str,
        attr_arrays: Dict[str, ArrayVal],
        module_arrays: Dict[str, ArrayVal],
        func_name: str = "<module>",
    ) -> None:
        super().__init__()
        self.path = path
        self.attr_arrays = attr_arrays
        self.module_arrays = module_arrays
        self.func_name = func_name

    # -- derivation tracking ----------------------------------------------

    def eval_Name(self, node: ast.Name, env: Env) -> Optional[ArrayVal]:
        if node.id in env:
            return env[node.id]
        return self.module_arrays.get(node.id)

    def eval_Attribute(self, node: ast.Attribute, env: Env) -> Optional[ArrayVal]:
        pseudo = self_attr_name(node)
        if pseudo is not None:
            if pseudo in env:
                return env[pseudo]
            return self.attr_arrays.get(pseudo)
        if node.attr == "T":
            base = self.eval_expr(node.value, env)
            if isinstance(base, ArrayVal):
                return self._view_of(base, node)
        return None

    def eval_Subscript(self, node: ast.Subscript, env: Env) -> Optional[ArrayVal]:
        base = self.eval_expr(node.value, env)
        self.eval_expr(node.slice, env)
        if isinstance(base, ArrayVal) and _subscript_has_slice(node.slice):
            return self._view_of(base, node)
        return None

    def eval_Call(self, node: ast.Call, env: Env) -> Optional[ArrayVal]:
        for arg in node.args:
            self.eval_expr(arg, env)
        for keyword in node.keywords:
            value = self.eval_expr(keyword.value, env)
            if keyword.arg == "out" and isinstance(value, ArrayVal):
                if value.kind == "view":
                    self._flag_alias(node, value, "out= argument")
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._eval_method_call(node, func, env)
        if isinstance(func, ast.Name) and func.id in _CONSTRUCTORS:
            return self._constructed(node, func.id)
        return None

    def _eval_method_call(
        self, node: ast.Call, func: ast.Attribute, env: Env
    ) -> Optional[ArrayVal]:
        receiver = self.eval_expr(func.value, env)
        name = func.attr
        if name in _REDUCTIONS and _has_axis_argument(node):
            if self.func_name not in _EXEMPT_FUNCTIONS:
                self.flag(
                    node,
                    f"cross-lane {name}(axis=...) re-associates the "
                    "reduction; use the pairwise-stable _np_mean_lanes "
                    "helper (or derive from it) for lane aggregation",
                )
        if name == "astype":
            dtype = _dtype_name(node.args[0]) if node.args else None
            if dtype in _NARROW_DTYPES:
                self.flag(
                    node,
                    f"astype({dtype}) narrows lane state below "
                    "float64; batched/oracle bit-identity requires "
                    "float64 lanes",
                )
            if isinstance(receiver, ArrayVal):
                return ArrayVal(
                    kind="array",
                    dtype="narrow" if dtype in _NARROW_DTYPES else "float64",
                    base=receiver.base,
                    line=node.lineno,
                )
            return None
        if name in ("float32", "float16"):
            self._flag_narrow_literal(node, name)
            return None
        if name in _VIEW_METHODS and isinstance(receiver, ArrayVal):
            return self._view_of(receiver, node)
        if name == "copy" and isinstance(receiver, ArrayVal):
            return ArrayVal(
                kind="array",
                dtype=receiver.dtype,
                base=describe(func.value),
                line=node.lineno,
            )
        if name in _CONSTRUCTORS and _is_numpy_reference(func.value):
            return self._constructed(node, name)
        if name in _VIEW_FUNCTIONS and _is_numpy_reference(func.value):
            first = self.eval_expr(node.args[0], env) if node.args else None
            if isinstance(first, ArrayVal):
                return self._view_of(first, node)
        return None

    def _constructed(self, node: ast.Call, ctor: str) -> ArrayVal:
        dtype = _dtype_of_keyword(node)
        if dtype in _NARROW_DTYPES:
            self.flag(
                node,
                f"lane array created with dtype={dtype}; lane state "
                "must stay float64 for bit-identity with the oracle",
            )
            resolved = "narrow"
        elif dtype is not None:
            resolved = "float64" if "float" in dtype or dtype == "double" else "int"
        elif ctor in ("zeros", "ones", "empty", "linspace", "zeros_like",
                      "ones_like", "empty_like"):
            resolved = "float64"
        elif ctor in ("full", "array", "asarray", "full_like") and node.args:
            fill = node.args[-1] if ctor in ("full", "full_like") else node.args[0]
            resolved = "int_implicit" if _is_int_literal_payload(fill) else None
        else:
            resolved = None
        return ArrayVal(
            kind="array", dtype=resolved, base=describe(node), line=node.lineno
        )

    def _view_of(self, base: ArrayVal, node: ast.expr) -> ArrayVal:
        root = base.base if base.kind == "view" else _base_spelling(node, base)
        return ArrayVal(
            kind="view", dtype=base.dtype, base=root, line=node.lineno
        )

    # -- hazard checks -----------------------------------------------------

    def on_aug_assign(self, node: ast.AugAssign, value: object, env: Env) -> None:
        target_val = self.eval_expr(_augtarget_expr(node.target), env)
        if isinstance(target_val, ArrayVal):
            if target_val.kind == "view":
                self._flag_alias(node, target_val, "in-place operator")
            elif (
                target_val.dtype == "int_implicit"
                and _contains_float_literal(node.value)
            ):
                self.flag(
                    node,
                    "in-place float accumulation into a lane array "
                    "built from bare int literals (implicit int64); "
                    "give it an explicit float64 dtype",
                )

    def on_subscript_store(
        self, target: ast.Subscript, value: object, node: ast.AST, env: Env
    ) -> None:
        base = self.eval_expr(target.value, env)
        if isinstance(base, ArrayVal) and base.kind == "view":
            self._flag_alias(node, base, "subscript store")

    def _flag_alias(self, node: ast.AST, view: ArrayVal, how: str) -> None:
        self.flag(
            node,
            f"{how} mutates a view of lane array {view.base} "
            f"(view created at line {view.line}); in-place writes "
            "through an alias silently corrupt the base lanes — "
            "operate on the base array or take an explicit .copy()",
        )

    def _flag_narrow_literal(self, node: ast.Call, name: str) -> None:
        self.flag(
            node,
            f"np.{name}(...) literal narrows lane arithmetic below "
            "float64; drop the cast (python floats are float64)",
        )


def _augtarget_expr(target: ast.expr) -> ast.expr:
    """For ``x[i] += v`` the alias question is about ``x`` itself."""
    if isinstance(target, ast.Subscript):
        return target.value
    return target


def _subscript_has_slice(node: ast.expr) -> bool:
    if isinstance(node, ast.Slice):
        return True
    if isinstance(node, ast.Tuple):
        return any(isinstance(elt, ast.Slice) for elt in node.elts)
    return False


def _has_axis_argument(node: ast.Call) -> bool:
    return any(keyword.arg == "axis" for keyword in node.keywords)


def _is_numpy_reference(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _is_int_literal_payload(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(
            _is_int_literal(elt) for elt in node.elts
        )
    return _is_int_literal(node)


def _collect_attr_arrays(
    tree: ast.Module, path: str
) -> Dict[str, ArrayVal]:
    """``self.X = np.zeros(...)`` assignments anywhere in each class."""
    attrs: Dict[str, ArrayVal] = {}
    prober = _LaneChecker(path, {}, {})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = prober.eval_expr(node.value, {})
        if not isinstance(value, ArrayVal):
            continue
        for target in node.targets:
            pseudo = self_attr_name(target)
            if pseudo is not None:
                attrs[pseudo] = ArrayVal(
                    kind=value.kind,
                    dtype=value.dtype,
                    base=pseudo,
                    line=node.lineno,
                )
    prober.candidates.clear()  # probing must not report
    return attrs


@register
class LaneSafetyRule(Rule):
    rule_id = "lane-safety"
    code = "POCO801"
    summary = (
        "lane modules: no in-place writes through array views, no "
        "float32 narrowing, no axis= reductions bypassing _np_mean_lanes"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.has_directive(_DIRECTIVE):
            return
        attr_arrays = _collect_attr_arrays(ctx.tree, ctx.path)
        module_checker = _LaneChecker(ctx.path, attr_arrays, {})
        module_env = module_checker.run(
            [s for s in ctx.tree.body if not isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )]
        )
        module_arrays = {
            name: value
            for name, value in module_env.items()
            if isinstance(value, ArrayVal)
        }
        candidates = set(module_checker.candidates)
        for func in _iter_function_defs(ctx.tree):
            checker = _LaneChecker(
                ctx.path, attr_arrays, module_arrays, func.name
            )
            checker.run_function(func)
            candidates |= checker.candidates
        yield from self.report(ctx, candidates)


def _iter_function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _base_spelling(node: ast.expr, base: ArrayVal) -> str:
    if isinstance(node, ast.Subscript):
        return describe(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return describe(node.func.value)
    if isinstance(node, ast.Attribute):
        return describe(node.value)
    return base.base
