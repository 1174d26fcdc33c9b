"""Lattice-based intraprocedural dataflow for pocolint v2 rules.

:class:`DataflowAnalysis` is a structural forward abstract interpreter
over one function body.  A rule defines an abstract domain by
overriding :meth:`bottom` / :meth:`join` and the expression evaluator,
and the engine supplies the control-flow plumbing:

* straight-line transfer through ``Assign`` / ``AnnAssign`` /
  ``AugAssign`` (tuple targets are destructured when the value is a
  literal tuple, otherwise every bound name drops to bottom);
* branch **join** at ``if``/``else`` merges and ``try`` handlers;
* loop **fixpoints**: ``for``/``while`` bodies are re-interpreted until
  the environment stabilizes (joined with the pre-loop state each
  round, so the iteration is monotone) with a hard iteration cap;
* ``return`` collection — every return site's abstract value is
  recorded for the interprocedural summaries in
  :mod:`repro.lint.summaries`;
* **coverage** — default arguments, decorators, class bodies, lambda
  bodies and comprehension clauses are evaluated where they run, so
  every call hook fires.  Nested ``def`` bodies are opaque unless a
  checker lists the defs it analyzes on its own
  (:attr:`DataflowAnalysis.separately_analyzed`); then every other
  nested body is interpreted too, and the checker visits each call
  site of its module.

:class:`DataflowRule` is the driver of the whole-program rules built
on it: one checker per function body and one for the module body.

Environments map variable names (and ``self.attr`` pseudo-names) to
abstract values.  A missing binding means *bottom*.  The engine never
raises on unexpected syntax: anything it does not model evaluates to
bottom, which keeps every rule built on it conservative — unknown code
produces no findings, not wrong ones.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.core import Finding, LintContext, Rule
from repro.lint.graph import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    Project,
    iter_functions,
)

#: Hard cap on loop re-interpretation rounds; the environments are
#: small agreement lattices, so stabilization is fast in practice.
MAX_LOOP_PASSES = 8

Env = Dict[str, Any]


class DataflowAnalysis:
    """Forward abstract interpretation over one function body."""

    def __init__(self) -> None:
        #: (return node, abstract value) per return statement reached
        self.returns: List[Tuple[ast.Return, Any]] = []
        #: (line, col, message) a checker reports; a set because loop
        #: fixpoints and nested re-evaluation visit a site repeatedly
        self.candidates: Set[Tuple[int, int, str]] = set()
        #: None keeps nested ``def`` bodies opaque.  A checker sets the
        #: defs it analyzes on their own; every other nested body is
        #: then interpreted in a copy of its enclosing environment.
        self.separately_analyzed: Optional[FrozenSet[ast.AST]] = None

    # -- the abstract domain (override in subclasses) ----------------------

    def bottom(self) -> Any:
        return None

    def join(self, a: Any, b: Any) -> Any:
        """Default: agreement lattice (a *must* analysis like unit
        agreement) — equal values survive a merge, anything else is
        bottom.  A *may* analysis like taint overrides it with union."""
        return a if a == b else self.bottom()

    def flag(self, node: ast.AST, message: str) -> None:
        """Record a finding candidate at ``node``."""
        self.candidates.add(
            (getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message)
        )

    # -- expression evaluation (override pieces in subclasses) -------------

    def eval_expr(self, node: Optional[ast.expr], env: Env) -> Any:
        if node is None:
            return self.bottom()
        method = getattr(self, f"eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        return self.eval_children(node, env)

    def eval_children(self, node: ast.expr, env: Env) -> Any:
        """Evaluate sub-expressions (for their hooks) and return bottom.

        May-analyses (taint) override this to *join* child values so any
        tainted operand taints the enclosing expression.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child, env)
        return self.bottom()

    def eval_Name(self, node: ast.Name, env: Env) -> Any:
        return env.get(node.id, self.bottom())

    def eval_IfExp(self, node: ast.IfExp, env: Env) -> Any:
        self.eval_expr(node.test, env)
        return self.join(
            self.eval_expr(node.body, env), self.eval_expr(node.orelse, env)
        )

    def eval_ListComp(self, node: ast.expr, env: Env) -> Any:
        """Comprehensions: clauses bind in their own scope, then the
        element (or key and value) is evaluated there."""
        scope = dict(env)
        for clause in getattr(node, "generators", ()):
            iter_value = self.eval_expr(clause.iter, scope)
            element = self.iter_element(iter_value, clause.iter, scope)
            self.bind_target(clause.target, element, clause.target, scope)
            for condition in clause.ifs:
                self.eval_expr(condition, scope)
        return self.eval_children(node, scope)

    eval_SetComp = eval_ListComp
    eval_DictComp = eval_ListComp
    eval_GeneratorExp = eval_ListComp

    def eval_Lambda(self, node: ast.Lambda, env: Env) -> Any:
        self._eval_defaults(node.args, env)
        return self.eval_children(node, self._param_scope(node.args, env))

    def _eval_defaults(self, args: ast.arguments, env: Env) -> None:
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.eval_expr(default, env)

    def _param_scope(self, args: ast.arguments, env: Env) -> Env:
        """The enclosing environment with the parameters unbound."""
        scope = dict(env)
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            scope[arg.arg] = self.bottom()
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                scope[arg.arg] = self.bottom()
        return scope

    # -- assignment transfer ----------------------------------------------

    def bind(self, name: str, value: Any, node: ast.AST, env: Env) -> None:
        """Bind a plain name; rules hook here to check annotated names."""
        env[name] = value

    def bind_target(self, target: ast.expr, value: Any, node: ast.AST, env: Env) -> None:
        if isinstance(target, ast.Name):
            self.bind(target.id, value, node, env)
        elif isinstance(target, ast.Attribute):
            pseudo = _self_attr_name(target)
            if pseudo is not None:
                self.bind(pseudo, value, node, env)
            else:
                self.eval_expr(target.value, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            self._bind_tuple(target, value, node, env)
        elif isinstance(target, ast.Subscript):
            self.on_subscript_store(target, value, node, env)
        elif isinstance(target, ast.Starred):
            self.bind_target(target.value, self.bottom(), node, env)

    def _bind_tuple(
        self, target: ast.expr, value: Any, node: ast.AST, env: Env
    ) -> None:
        elements = getattr(target, "elts", [])
        source = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(source, (ast.Tuple, ast.List)) and len(source.elts) == len(
            elements
        ):
            for elt_target, elt_value in zip(elements, source.elts):
                self.bind_target(
                    elt_target, self.eval_expr(elt_value, env), node, env
                )
        else:
            for elt_target in elements:
                self.bind_target(elt_target, self.bottom(), node, env)

    def on_subscript_store(
        self, target: ast.Subscript, value: Any, node: ast.AST, env: Env
    ) -> None:
        """Hook: ``x[...] = value``.  Default: evaluate the base."""
        self.eval_expr(target.value, env)
        self.eval_expr(target.slice, env)

    def on_aug_assign(self, node: ast.AugAssign, value: Any, env: Env) -> None:
        """Hook: ``x += value`` before the (conservative) rebind."""

    def iter_element(self, iter_value: Any, node: ast.expr, env: Env) -> Any:
        """Abstract value of one element drawn from ``for _ in iterable``."""
        return self.bottom()

    # -- statement interpretation ------------------------------------------

    def run(self, body: List[ast.stmt], env: Optional[Env] = None) -> Env:
        environment: Env = {} if env is None else env
        for stmt in body:
            self.execute(stmt, environment)
        return environment

    def execute(self, stmt: ast.stmt, env: Env) -> None:
        method = getattr(self, f"exec_{type(stmt).__name__}", None)
        if method is not None:
            method(stmt, env)
            return
        # Unmodeled statements (raise, assert, match, ...): visit every
        # embedded expression and statement so call hooks still fire;
        # nothing they bind escapes.
        self._visit_unmodeled(stmt, dict(env))

    def _visit_unmodeled(self, node: ast.AST, env: Env) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child, env)
            elif isinstance(child, ast.stmt):
                self.execute(child, env)
            else:
                self._visit_unmodeled(child, env)

    def exec_Assign(self, stmt: ast.Assign, env: Env) -> None:
        value = self.eval_expr(stmt.value, env)
        for target in stmt.targets:
            self.bind_target(target, value, stmt, env)

    def exec_AnnAssign(self, stmt: ast.AnnAssign, env: Env) -> None:
        if stmt.value is None:
            return
        value = self.eval_expr(stmt.value, env)
        self.bind_target(stmt.target, value, stmt, env)

    def exec_AugAssign(self, stmt: ast.AugAssign, env: Env) -> None:
        value = self.eval_expr(stmt.value, env)
        self.on_aug_assign(stmt, value, env)
        current = self.eval_expr(stmt.target, env) if isinstance(
            stmt.target, (ast.Name, ast.Attribute)
        ) else self.bottom()
        self.bind_target(stmt.target, self.join(current, value), stmt, env)

    def exec_Expr(self, stmt: ast.Expr, env: Env) -> None:
        self.eval_expr(stmt.value, env)

    def exec_Return(self, stmt: ast.Return, env: Env) -> None:
        value = self.eval_expr(stmt.value, env)
        self.returns.append((stmt, value))

    def exec_If(self, stmt: ast.If, env: Env) -> None:
        self.eval_expr(stmt.test, env)
        then_env = dict(env)
        self.run(stmt.body, then_env)
        else_env = dict(env)
        self.run(stmt.orelse, else_env)
        _merge_into(env, then_env, else_env, self.join, self.bottom())

    def exec_While(self, stmt: ast.While, env: Env) -> None:
        self.eval_expr(stmt.test, env)
        self._loop_fixpoint(stmt.body, env)
        self.run(stmt.orelse, env)

    def exec_For(self, stmt: ast.For, env: Env) -> None:
        iter_value = self.eval_expr(stmt.iter, env)
        self.bind_target(
            stmt.target, self.iter_element(iter_value, stmt.iter, env), stmt, env
        )
        self._loop_fixpoint(stmt.body, env)
        self.run(stmt.orelse, env)

    def _loop_fixpoint(self, body: List[ast.stmt], env: Env) -> None:
        for _ in range(MAX_LOOP_PASSES):
            round_env = dict(env)
            self.run(body, round_env)
            merged = dict(env)
            _merge_into(merged, dict(env), round_env, self.join, self.bottom())
            if merged == env:
                break
            env.clear()
            env.update(merged)

    def exec_Try(self, stmt: ast.Try, env: Env) -> None:
        body_env = dict(env)
        self.run(stmt.body, body_env)
        branches = [body_env]
        for handler in stmt.handlers:
            handler_env = dict(env)
            _merge_into(
                handler_env, dict(env), dict(body_env), self.join, self.bottom()
            )
            self.eval_expr(handler.type, handler_env)
            if handler.name:
                handler_env[handler.name] = self.bottom()
            self.run(handler.body, handler_env)
            branches.append(handler_env)
        merged = branches[0]
        for branch in branches[1:]:
            out: Env = dict(merged)
            _merge_into(out, merged, branch, self.join, self.bottom())
            merged = out
        env.clear()
        env.update(merged)
        self.run(stmt.orelse, env)
        self.run(stmt.finalbody, env)

    def exec_With(self, stmt: ast.With, env: Env) -> None:
        for item in stmt.items:
            value = self.eval_expr(item.context_expr, env)
            if item.optional_vars is not None:
                self.bind_target(item.optional_vars, value, stmt, env)
        self.run(stmt.body, env)

    exec_AsyncFor = exec_For
    exec_AsyncWith = exec_With

    def exec_FunctionDef(self, stmt: ast.FunctionDef, env: Env) -> None:
        for decorator in stmt.decorator_list:
            self.eval_expr(decorator, env)
        self._eval_defaults(stmt.args, env)
        skipped = self.separately_analyzed
        if skipped is not None and stmt not in skipped:
            outer_returns, self.returns = self.returns, []
            self.run(stmt.body, self._param_scope(stmt.args, env))
            self.returns = outer_returns
        env[stmt.name] = self.bottom()

    exec_AsyncFunctionDef = exec_FunctionDef

    def exec_ClassDef(self, stmt: ast.ClassDef, env: Env) -> None:
        for expr in (*stmt.decorator_list, *stmt.bases):
            self.eval_expr(expr, env)
        for keyword in stmt.keywords:
            self.eval_expr(keyword.value, env)
        self.run(stmt.body, dict(env))
        env[stmt.name] = self.bottom()

    # -- entry point -------------------------------------------------------

    def run_function(
        self, func: ast.AST, initial: Optional[Env] = None
    ) -> Env:
        """Interpret a function body; seeds come from ``initial``."""
        env: Env = dict(initial) if initial else {}
        body = getattr(func, "body", [])
        return self.run(list(body), env)

    def return_value(self) -> Any:
        """Join of every return site's abstract value."""
        value = self.bottom()
        for index, (_, site_value) in enumerate(self.returns):
            value = site_value if index == 0 else self.join(value, site_value)
        return value


def _self_attr_name(node: ast.Attribute) -> Optional[str]:
    if isinstance(node.value, ast.Name) and node.value.id == "self":
        return f"self.{node.attr}"
    return None


def self_attr_name(node: ast.expr) -> Optional[str]:
    """Public spelling of the ``self.attr`` pseudo-binding, or None."""
    if isinstance(node, ast.Attribute):
        return _self_attr_name(node)
    return None


def _merge_into(target: Env, a: Env, b: Env, join: Any, bottom: Any) -> None:
    target.clear()
    for key in set(a) | set(b):
        target[key] = join(a.get(key, bottom), b.get(key, bottom))


class DataflowRule(Rule):
    """A whole-program rule that runs a checker over each function body
    and over the module body, and reports the checkers' candidates.

    Subclasses build the checker for one body (``cls_sym`` is the
    enclosing class of a method, None for functions and the module)
    and seed a function's parameters.  Nested defs are interpreted by
    the checker of their enclosing body, so each site is visited once.
    """

    requires_project = True

    def checker(
        self, project: Project, table: ModuleSymbols,
        cls_sym: Optional[ClassSymbol], path: str,
    ) -> DataflowAnalysis:
        raise NotImplementedError

    def seed(self, func: FunctionSymbol, path: str) -> Env:
        raise NotImplementedError

    def after_function(
        self, checker: DataflowAnalysis, func: FunctionSymbol
    ) -> None:
        """Hook: checks on a function's collected return values."""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        project = ctx.project
        if not isinstance(project, Project):
            return
        table = project.table_for(ctx.path)
        if table is None:
            return
        bodies = [
            (func.node, func, cls_sym) for func, cls_sym in iter_functions(table)
        ]
        own_defs = frozenset(node for node, _, _ in bodies)
        candidates: Set[Tuple[int, int, str]] = set()
        for node, func, cls_sym in bodies:
            checker = self.checker(project, table, cls_sym, ctx.path)
            checker.separately_analyzed = own_defs
            checker.run_function(node, self.seed(func, ctx.path))
            self.after_function(checker, func)
            candidates |= checker.candidates
        checker = self.checker(project, table, None, ctx.path)
        checker.separately_analyzed = own_defs
        checker.run(list(ctx.tree.body), {})
        candidates |= checker.candidates
        yield from self.report(ctx, candidates)
