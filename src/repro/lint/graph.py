"""Project symbol table and call graph for whole-program lint rules.

pocolint v1 rules see one file at a time.  The v2 rule families
(POCO701 unit-flow, POCO801 lane-safety, POCO901 determinism-taint)
need to answer questions that cross file boundaries — "what unit does
this call return?", "does this callee's return value carry taint?" —
so this module builds, once per lint run:

* a **symbol table** per module: top-level functions, classes (with
  methods, ``__init__`` parameters and annotated dataclass-style
  fields), and the import alias map;
* a **project index** that resolves a dotted reference from one module
  to the :class:`FunctionSymbol` / :class:`ClassSymbol` it names in
  another, using *suffix matching* on dotted module names so the same
  resolution works for ``src/repro/...`` layouts, test fixture
  packages and temporary directories alike;
* a **call graph**: for every function, the set of project functions
  it calls (used by the interprocedural summary fixpoint in
  :mod:`repro.lint.summaries`).

Resolution is deliberately conservative: an ambiguous suffix (two
modules both named ``util``) resolves to nothing, and nothing is ever
guessed from runtime behaviour — this is a static over/under-approximation
tuned to keep rule findings precise rather than complete.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint.core import LintContext


def module_name_for_path(path: str) -> str:
    """Dotted module name for a reported (posix) file path.

    ``src/repro/lint/core.py`` -> ``src.repro.lint.core`` and
    ``pkg/__init__.py`` -> ``pkg``.  The leading components are kept —
    cross-module references resolve by *suffix*, so the absolute spelling
    of the root never matters.
    """
    parts = [p for p in path.split("/") if p not in ("", ".", "..")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Windows drive / posix-root artifacts would break dotted joins.
    parts = [p.replace(".", "_") for p in parts if p]
    return ".".join(parts) if parts else "<module>"


@dataclass
class FunctionSymbol:
    """One function or method known to the project."""

    qualname: str
    name: str
    module_name: str
    path: str
    lineno: int
    params: Tuple[str, ...]
    node: ast.AST
    class_name: Optional[str] = None


@dataclass
class ClassSymbol:
    """One class: methods, constructor parameters, annotated fields."""

    qualname: str
    name: str
    module_name: str
    path: str
    lineno: int
    methods: Dict[str, FunctionSymbol] = field(default_factory=dict)
    #: annotated class-body fields (dataclass style), in declaration order
    fields: Tuple[str, ...] = ()
    bases: Tuple[str, ...] = ()

    @property
    def init_params(self) -> Tuple[str, ...]:
        """Constructor parameter names: ``__init__`` if present, else the
        annotated field order (the dataclass-generated ``__init__``)."""
        init = self.methods.get("__init__")
        if init is not None:
            return init.params
        return self.fields


def _function_params(node: ast.AST) -> Tuple[str, ...]:
    args = getattr(node, "args", None)
    if args is None:
        return ()
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def collect_import_aliases(
    nodes: Iterable[ast.AST], module_name: str
) -> Dict[str, str]:
    """Map local names to the dotted targets they import.

    Relative imports are resolved against ``module_name`` so that
    ``from .convert import to_watts`` inside ``pkg.engine`` becomes
    ``pkg.convert.to_watts``.
    """
    aliases: Dict[str, str] = {}
    pkg_parts = module_name.split(".")[:-1]
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                up = node.level - 1
                kept = pkg_parts[: len(pkg_parts) - up] if up else pkg_parts
                base_parts = list(kept)
                if node.module:
                    base_parts.append(node.module)
                base = ".".join(base_parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                aliases[alias.asname or alias.name] = target
    return aliases


@dataclass
class ModuleSymbols:
    """Symbol table of one parsed module."""

    name: str
    path: str
    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_context(cls, ctx: LintContext) -> "ModuleSymbols":
        path = ctx.path
        name = module_name_for_path(path)
        table = cls(name=name, path=path)
        table.imports = collect_import_aliases(ctx.nodes, name)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table.functions[node.name] = FunctionSymbol(
                    qualname=f"{name}.{node.name}",
                    name=node.name,
                    module_name=name,
                    path=path,
                    lineno=node.lineno,
                    params=_function_params(node),
                    node=node,
                )
            elif isinstance(node, ast.ClassDef):
                table.classes[node.name] = _class_symbol(node, name, path)
        return table


def _class_symbol(node: ast.ClassDef, module_name: str, path: str) -> ClassSymbol:
    qual = f"{module_name}.{node.name}"
    methods: Dict[str, FunctionSymbol] = {}
    fields: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = FunctionSymbol(
                qualname=f"{qual}.{stmt.name}",
                name=stmt.name,
                module_name=module_name,
                path=path,
                lineno=stmt.lineno,
                params=_function_params(stmt),
                node=stmt,
                class_name=node.name,
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields.append(stmt.target.id)
    bases = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
    return ClassSymbol(
        qualname=qual,
        name=node.name,
        module_name=module_name,
        path=path,
        lineno=node.lineno,
        methods=methods,
        fields=tuple(fields),
        bases=tuple(bases),
    )


def dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (or None for non-dotted shapes)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


class Project:
    """Whole-program view: every module's symbols plus resolution indexes.

    Built once per lint run by :func:`repro.lint.core.lint_paths` from
    the already-parsed per-file contexts; the interprocedural summary
    caches (:mod:`repro.lint.summaries`) hang off this object so they
    are computed at most once per run.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.contexts: Dict[str, LintContext] = {}
        #: caller qualname -> sorted tuple of callee qualnames
        self.call_graph: Dict[str, Tuple[str, ...]] = {}
        self._suffix_index: Dict[str, List[str]] = {}
        #: summary caches, populated lazily by repro.lint.summaries
        self.summary_cache: Dict[str, object] = {}

    @classmethod
    def from_contexts(cls, contexts: Sequence[LintContext]) -> "Project":
        """Build the project from every parsed context of the run."""
        project = cls()
        for ctx in contexts:
            table = ModuleSymbols.from_context(ctx)
            project.modules[table.name] = table
            project.contexts[table.name] = ctx
        project._build_suffix_index()
        project._build_call_graph()
        return project

    def _build_suffix_index(self) -> None:
        index: Dict[str, List[str]] = {}
        for name in self.modules:
            parts = name.split(".")
            for start in range(len(parts)):
                suffix = ".".join(parts[start:])
                index.setdefault(suffix, []).append(name)
        self._suffix_index = index

    def table_for(self, path: str) -> Optional[ModuleSymbols]:
        """The symbol table of the module reported as ``path``."""
        for table in self.modules.values():
            if table.path == path:
                return table
        return None

    def module_for_suffix(self, dotted: str) -> Optional[ModuleSymbols]:
        """The unique module whose dotted name ends with ``dotted``."""
        names = self._suffix_index.get(dotted, [])
        if len(names) == 1:
            return self.modules[names[0]]
        return None

    # -- symbol resolution -------------------------------------------------

    def lookup_dotted(
        self, dotted: str
    ) -> Optional[object]:
        """Resolve ``pkg.mod.symbol`` (or deeper) to a project symbol."""
        parts = dotted.split(".")
        # Longest module prefix first: ``pkg.mod.Class.method``.
        for cut in range(len(parts) - 1, 0, -1):
            module = self.module_for_suffix(".".join(parts[:cut]))
            if module is None:
                continue
            return _member_of(module, parts[cut:])
        return None

    def resolve_name(
        self, table: ModuleSymbols, name: str
    ) -> Optional[object]:
        """Resolve a bare name in ``table``'s namespace."""
        if name in table.functions:
            return table.functions[name]
        if name in table.classes:
            return table.classes[name]
        target = table.imports.get(name)
        if target is not None and target != name:
            return self.lookup_dotted(target)
        if target is not None:
            # ``import convert`` style: the module itself.
            return self.module_for_suffix(target)
        return None

    def resolve_call(
        self,
        table: ModuleSymbols,
        func: ast.expr,
        enclosing_class: Optional[ClassSymbol] = None,
    ) -> Optional[object]:
        """Resolve a call's callee expression to a project symbol.

        Handles bare names (local defs and imports), dotted module
        references (``mod.f``, ``pkg.mod.Class``) and ``self.method()``
        inside a known class.  Returns a :class:`FunctionSymbol`,
        :class:`ClassSymbol` or None.
        """
        if isinstance(func, ast.Name):
            return self.resolve_name(table, func.id)
        parts = dotted_parts(func)
        if parts is None:
            return None
        if parts[0] == "self" and enclosing_class is not None:
            if len(parts) == 2:
                resolved = enclosing_class.methods.get(parts[1])
                if resolved is not None:
                    return resolved
                return self._base_method(table, enclosing_class, parts[1])
            return None
        return _member_of(self.resolve_name(table, parts[0]), parts[1:])

    def _base_method(
        self, table: ModuleSymbols, cls_sym: ClassSymbol, method: str
    ) -> Optional[object]:
        """One-level base-class method lookup (no full MRO walk)."""
        for base_name in cls_sym.bases:
            base = self.resolve_name(table, base_name)
            if isinstance(base, ClassSymbol) and method in base.methods:
                return base.methods[method]
        return None

    # -- call graph --------------------------------------------------------

    def _build_call_graph(self) -> None:
        for table in self.modules.values():
            for func, cls_sym in iter_functions(table):
                callees = set()
                for node in ast.walk(func.node):
                    if not isinstance(node, ast.Call):
                        continue
                    resolved = self.resolve_call(table, node.func, cls_sym)
                    if isinstance(resolved, FunctionSymbol):
                        callees.add(resolved.qualname)
                    elif isinstance(resolved, ClassSymbol):
                        callees.add(resolved.qualname)
                self.call_graph[func.qualname] = tuple(sorted(callees))

    def all_functions(
        self,
    ) -> Iterator[Tuple[ModuleSymbols, FunctionSymbol, Optional[ClassSymbol]]]:
        for table in self.modules.values():
            for func, cls_sym in iter_functions(table):
                yield table, func, cls_sym


def iter_functions(
    table: ModuleSymbols,
) -> Iterator[Tuple[FunctionSymbol, Optional[ClassSymbol]]]:
    """Every function and method in one module's symbol table."""
    for func in table.functions.values():
        yield func, None
    for cls_sym in table.classes.values():
        for method in cls_sym.methods.values():
            yield method, cls_sym


def _member_of(head: Optional[object], rest: Sequence[str]) -> Optional[object]:
    for attr in rest:
        if head is None:
            return None
        head = _member_of_symbol(head, attr)
    return head


def _member_of_symbol(symbol: object, attr: str) -> Optional[object]:
    if isinstance(symbol, ModuleSymbols):
        if attr in symbol.functions:
            return symbol.functions[attr]
        if attr in symbol.classes:
            return symbol.classes[attr]
        # Re-exported imports are not chased further (conservative).
        return None
    if isinstance(symbol, ClassSymbol):
        return symbol.methods.get(attr)
    return None
