"""Interprocedural summaries: unit inference and taint, with fixpoints.

The whole-program rule families ask two questions about every project
function:

* **units** — what dimensional unit (watts/joules/seconds/...) does
  this function return?  Answered by running :class:`UnitAnalysis`
  (an abstract interpreter over the suffix-unit lattice defined here)
  on each function body, with call sites reading the *current* summary
  of their callee; iterated to a fixpoint so chains like
  ``a() -> b() -> c()`` converge across modules.
* **taint** — can this function's return value carry nondeterminism
  (wall clock, unseeded RNG, ``os.environ``, set-iteration order),
  and which of its parameters flow into the return value?  Answered
  the same way by :class:`TaintAnalysis`; the per-function
  :class:`TaintSummary` records the evidence (source location plus
  the assignment path) so a POCO901 diagnostic can show
  ``source → path → sink`` even when the source lives two modules
  away from the sink.

Summaries are memoized per :class:`repro.lint.graph.Project`, so
each is computed once per lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.core import call_name
from repro.lint.dataflow import DataflowAnalysis, Env, self_attr_name
from repro.lint.graph import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    Project,
    dotted_parts,
)

#: Fixpoint pass cap; call chains deeper than this stay unknown.
MAX_SUMMARY_PASSES = 6

_UNIT_SUMMARY_KEY = "unit-returns"
_TAINT_SUMMARY_KEY = "taint-summaries"


# ----------------------------------------------------------------------
# Unit flow
# ----------------------------------------------------------------------

#: identifier suffix -> canonical unit name
SUFFIX_UNITS = {
    "w": "watts",
    "watts": "watts",
    "j": "joules",
    "joules": "joules",
    "kwh": "kilowatt_hours",
    "ghz": "gigahertz",
    "hz": "hertz",
    "s": "seconds",
    "secs": "seconds",
    "seconds": "seconds",
    "ms": "milliseconds",
    "usd": "dollars",
}

#: Stems that make a suffix an *index*, not a unit: the paper's
#: per-app subscript ``j`` (``p_j``, ``r_j``), per-resource subscripts
#: (``a_w`` = ways, ``a_c`` = cores), and reduction/loop words.
INDEX_STEMS = frozenset(
    {"sum", "prod", "alpha", "beta", "pref", "idx", "arg", "num", "min", "max"}
)

#: (unit_left, op, unit_right) -> derived unit for * and /.
_DERIVATIONS = {
    ("watts", "*", "seconds"): "joules",
    ("seconds", "*", "watts"): "joules",
    ("joules", "/", "seconds"): "watts",
    ("joules", "/", "watts"): "seconds",
}

#: Builtins that return a value of their argument's unit.
_UNIT_PRESERVING_CALLS = frozenset({"abs", "min", "max", "sum", "round", "float"})


def unit_of_name(identifier: str) -> Optional[str]:
    """Infer a unit from an identifier's trailing ``_<suffix>``."""
    if "_" not in identifier:
        return None
    if "_per_" in identifier:
        # ``power_infra_usd_per_w`` is a *rate* (dollars/watt), not
        # watts — compound units are outside the suffix vocabulary.
        return None
    stem, _, suffix = identifier.rpartition("_")
    unit = SUFFIX_UNITS.get(suffix)
    if unit is None:
        return None
    stem = stem.lstrip("_")
    if len(stem) <= 1 or stem in INDEX_STEMS:
        return None
    return unit


def _is_literal_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    )


class UnitAnalysis(DataflowAnalysis):
    """Abstract interpretation over the suffix-unit agreement lattice.

    Values are canonical unit names (``"watts"``) or None (unknown);
    a merge of two different units gives up rather than guessing.
    Name lookups fall back to suffix inference.  Multiplication and
    division *derive* units (``watts * seconds -> joules``), a same-unit
    ratio is dimensionless, and scaling by a literal keeps the unit;
    anything else is unknown, and unknown values never mismatch.

    ``project`` may be None: calls then resolve to nothing and the
    analysis reads units from suffixes alone (see :func:`suffix_unit`).
    """

    def __init__(
        self,
        project: Optional[Project],
        table: Optional[ModuleSymbols],
        cls_sym: Optional[ClassSymbol],
        unit_returns: Dict[str, Optional[str]],
    ) -> None:
        super().__init__()
        self.project = project
        self.table = table
        self.cls_sym = cls_sym
        self.unit_returns = unit_returns

    # hooks for the POCO701 rule ------------------------------------------

    def on_call(
        self,
        node: ast.Call,
        resolved: object,
        arg_units: List[Optional[str]],
        keyword_units: Dict[Optional[str], Optional[str]],
    ) -> None:
        """Called at every call site with its resolved project symbol
        (or None) and the units of its arguments."""

    def on_mix(
        self,
        node: ast.AST,
        what: str,
        left: ast.expr,
        left_unit: str,
        right: ast.expr,
        right_unit: str,
    ) -> None:
        """Called where ``+``/``-``, ``+=``/``-=`` or a comparison
        meets two different known units."""

    def _check_mix(
        self,
        node: ast.AST,
        what: str,
        left: ast.expr,
        left_unit: Optional[str],
        right: ast.expr,
        right_unit: Optional[str],
    ) -> None:
        if left_unit is not None and right_unit is not None and (
            left_unit != right_unit
        ):
            self.on_mix(node, what, left, left_unit, right, right_unit)

    def resolve(self, func: ast.expr) -> Optional[object]:
        """The project symbol a callee expression names, if any."""
        if self.project is None or self.table is None:
            return None
        return self.project.resolve_call(self.table, func, self.cls_sym)

    # expression evaluation ------------------------------------------------

    def eval_Name(self, node: ast.Name, env: Env) -> Optional[str]:
        if node.id in env and env[node.id] is not None:
            return env[node.id]
        return unit_of_name(node.id)

    def eval_Attribute(self, node: ast.Attribute, env: Env) -> Optional[str]:
        pseudo = self_attr_name(node)
        if pseudo is not None and env.get(pseudo) is not None:
            return env[pseudo]
        self.eval_expr(node.value, env)
        return unit_of_name(node.attr)

    def eval_Subscript(self, node: ast.Subscript, env: Env) -> Optional[str]:
        self.eval_expr(node.slice, env)
        return self.eval_expr(node.value, env)

    def eval_Starred(self, node: ast.Starred, env: Env) -> Optional[str]:
        return self.eval_expr(node.value, env)

    def eval_UnaryOp(self, node: ast.UnaryOp, env: Env) -> Optional[str]:
        if isinstance(node.op, (ast.USub, ast.UAdd)):
            return self.eval_expr(node.operand, env)
        self.eval_expr(node.operand, env)
        return None

    def eval_Constant(self, node: ast.Constant, env: Env) -> Optional[str]:
        return None

    def eval_Compare(self, node: ast.Compare, env: Env) -> Optional[str]:
        operands = [node.left, *node.comparators]
        units = [self.eval_expr(operand, env) for operand in operands]
        for index in range(len(operands) - 1):
            self._check_mix(
                node, "comparison",
                operands[index], units[index],
                operands[index + 1], units[index + 1],
            )
        return None

    def eval_Call(self, node: ast.Call, env: Env) -> Optional[str]:
        self.eval_expr(node.func, env)
        arg_units = [self.eval_expr(arg, env) for arg in node.args]
        keyword_units = {
            keyword.arg: self.eval_expr(keyword.value, env)
            for keyword in node.keywords
        }
        resolved = self.resolve(node.func)
        self.on_call(node, resolved, arg_units, keyword_units)
        if isinstance(resolved, FunctionSymbol):
            summary = self.unit_returns.get(resolved.qualname)
            if summary is not None:
                return summary
        name = call_name(node.func)
        if name in _UNIT_PRESERVING_CALLS and arg_units:
            return arg_units[0]
        if name is not None:
            return unit_of_name(name)
        return None

    def eval_BinOp(self, node: ast.BinOp, env: Env) -> Optional[str]:
        left = self.eval_expr(node.left, env)
        right = self.eval_expr(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_mix(
                node, "arithmetic", node.left, left, node.right, right
            )
            # A known operand dominates an unknown one (``power_w + 0.5``
            # is still watts); a mixed sum is unknown.
            if left == right:
                return left
            return left if right is None else right if left is None else None
        if isinstance(node.op, (ast.Mult, ast.Div)):
            op = "*" if isinstance(node.op, ast.Mult) else "/"
            if left is not None and right is not None:
                if left == right:
                    return None
                return _DERIVATIONS.get((left, op, right))
            # Scaling by a literal number keeps the unit; an *unknown*
            # operand (an untagged variable, a compound rate) does not —
            # it may carry a dimension of its own.
            if left is not None and _is_literal_number(node.right):
                return left
            if (
                right is not None
                and isinstance(node.op, ast.Mult)
                and _is_literal_number(node.left)
            ):
                return right
        return None

    def on_aug_assign(
        self, node: ast.AugAssign, value: Optional[str], env: Env
    ) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_mix(
                node, "augmented assignment",
                node.target, self.eval_expr(node.target, env),
                node.value, value,
            )


def suffix_unit(node: ast.expr) -> Optional[str]:
    """The unit an expression names by itself: its suffixes and the
    conversions between them, with no bindings and no summaries."""
    return UnitAnalysis(None, None, None, {}).eval_expr(node, {})


def seed_param_units(func: FunctionSymbol) -> Env:
    """Initial environment: parameter suffixes carry their units."""
    env: Env = {}
    for param in func.params:
        unit = unit_of_name(param)
        if unit is not None:
            env[param] = unit
    return env


def unit_returns(project: Project) -> Dict[str, Optional[str]]:
    """Per-function return units, computed to a whole-program fixpoint."""
    cached = project.summary_cache.get(_UNIT_SUMMARY_KEY)
    if cached is not None:
        return cached  # type: ignore[return-value]
    returns: Dict[str, Optional[str]] = {}
    for _ in range(MAX_SUMMARY_PASSES):
        changed = False
        for table, func, cls_sym in project.all_functions():
            analysis = UnitAnalysis(project, table, cls_sym, returns)
            analysis.run_function(func.node, seed_param_units(func))
            unit = analysis.return_value()
            if unit is None:
                # An opaque body defers to the function's own suffix:
                # ``def power_w(self)`` promises watts by name.
                unit = unit_of_name(func.name)
            if returns.get(func.qualname) != unit:
                returns[func.qualname] = unit
                changed = True
        if not changed:
            break
    project.summary_cache[_UNIT_SUMMARY_KEY] = returns
    return returns


# ----------------------------------------------------------------------
# Determinism taint
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TaintSource:
    """Where nondeterminism entered: kind, spelling and location."""

    kind: str  # "clock" | "rng" | "env" | "order" | "set" | "param"
    desc: str
    path: str
    line: int

    def render(self) -> str:
        return f"{self.desc} ({self.path}:{self.line})"


@dataclass(frozen=True)
class Taint:
    """A tainted abstract value: sources plus the assignment path."""

    sources: Tuple[TaintSource, ...]
    steps: Tuple[str, ...] = ()

    def real_sources(self) -> Tuple[TaintSource, ...]:
        return tuple(
            s for s in self.sources if s.kind not in ("param", "set")
        )

    def param_indices(self) -> Tuple[int, ...]:
        return tuple(
            sorted({s.line for s in self.sources if s.kind == "param"})
        )

    def has_kind(self, kind: str) -> bool:
        return any(s.kind == kind for s in self.sources)


@dataclass(frozen=True)
class TaintSummary:
    """Interprocedural taint behaviour of one function."""

    return_sources: Tuple[TaintSource, ...] = ()
    return_steps: Tuple[str, ...] = ()
    param_flow: Tuple[int, ...] = ()


def merge_taint(a: Optional[Taint], b: Optional[Taint]) -> Optional[Taint]:
    if a is None:
        return b
    if b is None:
        return a
    sources = list(a.sources)
    for source in b.sources:
        if source not in sources:
            sources.append(source)
    steps = list(a.steps)
    for step in b.steps:
        if step not in steps:
            steps.append(step)
    return Taint(sources=tuple(sources[:6]), steps=tuple(steps[:8]))


#: Callables that launder order-nondeterminism (or all taint) away.
_ORDER_CLEANSERS = frozenset({"sorted"})
_FULL_CLEANSERS = frozenset({"len", "bool", "isinstance", "id", "type"})

#: ``os.environ`` style ambient-configuration reads.
_ENV_READS = frozenset({"os.environ", "os.environb"})
_ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environb.get"})

#: Directory listings with filesystem-dependent order.
_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Fully-qualified callables that read a wall clock.
_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: numpy.random callables that are legitimate *when given a seed*.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng", "numpy.random.SeedSequence",
        "numpy.random.PCG64", "numpy.random.PCG64DXSM",
        "numpy.random.Philox", "numpy.random.MT19937", "numpy.random.SFC64",
    }
)

#: Why each banned read is a finding at its call site.
_BANS = {
    "clock": "is a wall-clock read; derive time from the simulation "
    "clock, not the host",
    "random.Random": "constructs an unseeded RNG; pass an explicit seed",
    "seedable": "constructs an unseeded generator; pass an explicit seed "
    "(e.g. default_rng(config.seed))",
    "random.": "uses the process-global random module; thread an "
    "explicitly seeded generator instead",
    "numpy.random.": "uses numpy's global legacy RNG; use an explicitly "
    "seeded numpy.random.Generator",
}


def _entropy_read(
    dotted: str, has_args: bool
) -> Optional[Tuple[str, str, Optional[str]]]:
    """``(kind, evidence, ban)`` for a call that reads nondeterminism.

    ``evidence`` formats the callee's spelling into the taint source.
    ``ban`` says why a clock or RNG read is a finding wherever it
    happens; environment and directory-order reads have none, because
    they only matter once they reach a sink.
    """
    if dotted in _CLOCK_CALLS:
        return "clock", "{}()", _BANS["clock"]
    if dotted in _ENV_CALLS:
        return "env", "{}()", None
    if dotted in _LISTING_CALLS:
        return "order", "{}()", None
    if dotted == "random.Random" or dotted in _SEEDABLE_CONSTRUCTORS:
        ban = _BANS.get(dotted, _BANS["seedable"])
        return None if has_args else ("rng", "unseeded {}()", ban)
    for prefix in ("random.", "numpy.random."):
        if dotted.startswith(prefix) and dotted != "numpy.random.Generator":
            return "rng", "global-RNG {}()", _BANS[prefix]
    return None


class TaintAnalysis(DataflowAnalysis):
    """May-analysis propagating nondeterminism evidence to every use."""

    def __init__(
        self,
        project: Project,
        table: ModuleSymbols,
        cls_sym: Optional[ClassSymbol],
        summaries: Dict[str, TaintSummary],
        path: str,
    ) -> None:
        super().__init__()
        self.project = project
        self.table = table
        self.cls_sym = cls_sym
        self.summaries = summaries
        self.path = path
        self.aliases = table.imports

    # domain ---------------------------------------------------------------

    def join(self, a: Any, b: Any) -> Any:
        return merge_taint(a, b)

    def eval_children(self, node: ast.expr, env: Env) -> Any:
        value: Optional[Taint] = None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                value = merge_taint(value, self.eval_expr(child, env))
        return value

    # hooks for the POCO901 rule ------------------------------------------

    def on_call_site(
        self,
        node: ast.Call,
        resolved: object,
        arg_taints: Dict[str, Optional[Taint]],
        env: Env,
    ) -> None:
        """Called at every call with per-argument taint (keys are
        positional indices as strings plus keyword names)."""

    def on_banned_call(self, node: ast.Call, message: str) -> None:
        """Called at every clock or unseeded/global RNG read."""

    # bindings record the assignment path ---------------------------------

    def bind(self, name: str, value: Any, node: ast.AST, env: Env) -> None:
        if isinstance(value, Taint):
            step = f"{name} = ... ({self.path}:{getattr(node, 'lineno', 0)})"
            if step not in value.steps:
                value = Taint(
                    sources=value.sources, steps=value.steps + (step,)
                )
        env[name] = value

    # sources --------------------------------------------------------------

    def eval_Constant(self, node: ast.Constant, env: Env) -> Any:
        return None

    def eval_Set(self, node: ast.Set, env: Env) -> Any:
        self.eval_children(node, env)
        return self._set_marker(node)

    def eval_SetComp(self, node: ast.expr, env: Env) -> Any:
        self.eval_ListComp(node, env)
        return self._set_marker(node)

    def _set_marker(self, node: ast.expr) -> Taint:
        return Taint(
            sources=(
                TaintSource(
                    kind="set",
                    desc="set value",
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                ),
            )
        )

    def eval_Compare(self, node: ast.Compare, env: Env) -> Any:
        # Membership / ordering results are value-deterministic even for
        # sets, so comparisons never propagate order taint.
        self.eval_children(node, env)
        return None

    def eval_Subscript(self, node: ast.Subscript, env: Env) -> Any:
        dotted = _resolved_dotted(node.value, self.aliases)
        value = self.eval_children(node, env)
        if dotted in _ENV_READS:
            return self._source(
                "env", f"{ast.unparse(node.value)}[...]", node
            )
        return value

    def iter_element(self, iter_value: Any, node: ast.expr, env: Env) -> Any:
        if isinstance(iter_value, Taint) and iter_value.has_kind("set"):
            marker = next(
                s for s in iter_value.sources if s.kind == "set"
            )
            ordered = TaintSource(
                kind="order",
                desc="iteration over a set (hash-randomized order)",
                path=marker.path,
                line=getattr(node, "lineno", marker.line),
            )
            real = Taint(sources=(ordered,), steps=iter_value.steps)
            return merge_taint(real, _strip_kinds(iter_value, ("set",)))
        return iter_value

    def _source(self, kind: str, desc: str, node: ast.AST) -> Taint:
        return Taint(
            sources=(
                TaintSource(
                    kind=kind,
                    desc=desc,
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                ),
            )
        )

    # calls ----------------------------------------------------------------

    def eval_Call(self, node: ast.Call, env: Env) -> Any:
        self.eval_expr(node.func, env)
        arg_taints: Dict[str, Optional[Taint]] = {}
        joined_args: Optional[Taint] = None
        for index, arg in enumerate(node.args):
            taint = self.eval_expr(arg, env)
            arg_taints[str(index)] = taint
            joined_args = merge_taint(joined_args, taint)
        for keyword in node.keywords:
            taint = self.eval_expr(keyword.value, env)
            if keyword.arg is not None:
                arg_taints[keyword.arg] = taint
            joined_args = merge_taint(joined_args, taint)
        resolved = self.project.resolve_call(
            self.table, node.func, self.cls_sym
        )
        self.on_call_site(node, resolved, arg_taints, env)

        source = self._call_source(node)
        if source is not None:
            return merge_taint(source, joined_args)

        name = call_name(node.func)
        if name == "set" or name == "frozenset":
            marker = self._set_marker(node)
            return merge_taint(marker, _strip_kinds_opt(joined_args, ()))
        if name in _ORDER_CLEANSERS:
            return _strip_kinds_opt(joined_args, ("order", "set"))
        if name in _FULL_CLEANSERS:
            return None
        if name in ("list", "tuple") and joined_args is not None:
            # Materializing a set fixes its (nondeterministic) order.
            if joined_args.has_kind("set"):
                ordered = self._source(
                    "order",
                    "list/tuple of a set (hash-randomized order)",
                    node,
                )
                return merge_taint(
                    ordered, _strip_kinds(joined_args, ("set",))
                )
            return joined_args

        if isinstance(resolved, FunctionSymbol):
            summary = self.summaries.get(resolved.qualname)
            if summary is None:
                return _strip_kinds_opt(joined_args, ("set",))
            result: Optional[Taint] = None
            if summary.return_sources:
                step = (
                    f"return of {resolved.name}() "
                    f"({self.path}:{node.lineno})"
                )
                result = Taint(
                    sources=summary.return_sources,
                    steps=summary.return_steps + (step,),
                )
            for index in summary.param_flow:
                taint = arg_taints.get(str(index))
                if taint is None and index < len(resolved.params):
                    taint = arg_taints.get(resolved.params[index])
                result = merge_taint(result, taint)
            return result
        # Unresolved call: conservatively pass argument taint through,
        # but latent set markers do not survive an opaque call.
        return _strip_kinds_opt(joined_args, ("set",))

    def _call_source(self, node: ast.Call) -> Optional[Taint]:
        dotted = _resolved_dotted(node.func, self.aliases)
        if dotted is None:
            return None
        read = _entropy_read(dotted, bool(node.args or node.keywords))
        if read is None:
            return None
        kind, evidence, ban = read
        spelled = ast.unparse(node.func)
        if ban is not None:
            self.on_banned_call(node, f"{spelled}() {ban}")
        return self._source(kind, evidence.format(spelled), node)


def _strip_kinds(taint: Taint, kinds: Tuple[str, ...]) -> Optional[Taint]:
    kept = tuple(s for s in taint.sources if s.kind not in kinds)
    if not kept:
        return None
    return Taint(sources=kept, steps=taint.steps)


def _strip_kinds_opt(
    taint: Optional[Taint], kinds: Tuple[str, ...]
) -> Optional[Taint]:
    if taint is None:
        return None
    return _strip_kinds(taint, kinds)


def seed_param_taint(func: FunctionSymbol, path: str) -> Env:
    """Seed parameters with ``param`` markers for flow summaries."""
    env: Env = {}
    for index, param in enumerate(func.params):
        env[param] = Taint(
            sources=(
                TaintSource(kind="param", desc=param, path=path, line=index),
            )
        )
    return env


def taint_summaries(project: Project) -> Dict[str, TaintSummary]:
    """Per-function taint summaries, computed to a fixpoint."""
    cached = project.summary_cache.get(_TAINT_SUMMARY_KEY)
    if cached is not None:
        return cached  # type: ignore[return-value]
    summaries: Dict[str, TaintSummary] = {}
    for _ in range(MAX_SUMMARY_PASSES):
        changed = False
        for table, func, cls_sym in project.all_functions():
            analysis = TaintAnalysis(
                project, table, cls_sym, summaries, func.path
            )
            analysis.run_function(
                func.node, seed_param_taint(func, func.path)
            )
            value = analysis.return_value()
            if isinstance(value, Taint):
                summary = TaintSummary(
                    return_sources=value.real_sources(),
                    return_steps=value.steps,
                    param_flow=value.param_indices(),
                )
            else:
                summary = TaintSummary()
            if summaries.get(func.qualname) != summary:
                summaries[func.qualname] = summary
                changed = True
        if not changed:
            break
    project.summary_cache[_TAINT_SUMMARY_KEY] = summaries
    return summaries


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _resolved_dotted(
    node: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """Dotted spelling of an expression with the import aliases applied."""
    parts = dotted_parts(node)
    if parts is None:
        return None
    head = aliases.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])
