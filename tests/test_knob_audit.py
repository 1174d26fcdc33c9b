"""Every settable value in ``src/repro`` is set by some call.

A *settable value* is a defaulted parameter of a function or method in
``src/repro`` (``repro.lint`` included) or a dataclass field with a
default that ``__init__`` takes. The paper's hardware and models are
fixed, so a value no call sets is a knob nobody turns: it belongs in a
module constant next to its reader, not in a signature.

The audit parses every file under ``src``, ``tests``, ``benchmarks``,
``scripts``, ``examples`` and ``perfbench`` (plus the child-process
scripts tests embed as strings) and matches calls to definitions by
name, so a call to any ``run`` sets ``run``'s parameters everywhere. A
call *sets* a value when it passes it

- by keyword, including the string keys of a ``**{...}`` literal and,
  for ``**name``, every string key of a dict literal in the same file;
- by position, skipping ``self``/``cls`` on a method or constructor;
- through ``dataclasses.replace`` (every dataclass field of that name;
  ``replace(self, ...)`` only the fields of the class whose body holds
  the call);
- through a ``**kwargs`` parameter its callee forwards to another call.

A value passed inside ``with pytest.raises(...)`` is a rejected value
and counts as unset, and so does a value that equals the default
(the same expression, or the same literal).

The never-set set is pinned to ``ALLOWED_UNSET``: a value there is
either state that starts at zero and is filled in later, or set by a
call the AST cannot see. To keep a new unset value, add its key (or an
enclosing record's) with a one-line reason.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src"
CALLER_DIRS = ("src", "tests", "benchmarks", "scripts", "examples", "perfbench")

_BUILDER_REGISTRY = (
    "called through the catalog's builder registries, "
    "``_LC_BUILDERS[name](spec)``, which the AST cannot resolve"
)

#: Unset values the audit accepts, keyed by ``module:Qualname[.name]``;
#: a key covers itself and every value under it.
ALLOWED_UNSET: Dict[str, str] = {
    "repro.faults.cluster:ClusterFaultReport": (
        "counter record: every count starts at zero and is incremented"
    ),
    "repro.budget.arbiter:BudgetStats": (
        "counter record: every count starts at zero and is incremented"
    ),
    "repro.budget.brownout:BrownoutState": (
        "state record: a ladder starts at stage 0 with no recovery streak"
    ),
    "repro.sim.cluster:ClusterRunResult.outcomes": (
        "assigned the sweep's cells when they land"
    ),
    "repro.lint.core:LintContext": "per-run linter state, filled in as modules are read",
    "repro.lint.graph:ModuleSymbols": (
        "per-module symbol table, filled in as the module is walked"
    ),
    "repro.hwmodel.spec:ServerSpec.memory_gb": (
        "Table I's memory size, read by the Table I report"
    ),
    "repro.hwmodel.spec:ServerSpec.storage_gb": (
        "Table I's storage size, read by the Table I report"
    ),
    "repro.guard.tolerance:within_tolerance.abs_tol": (
        "the tolerance helper pocolint's float-equality finding points to"
    ),
    "repro.guard.tolerance:within_tolerance.rel_tol": (
        "the tolerance helper pocolint's float-equality finding points to"
    ),
    "repro.faults.schedule:GrantDelay.lc_names": (
        "set through ``kind(lc_names=...)`` over a list of fault classes "
        "in tests/test_budget_differential.py, which the AST cannot resolve"
    ),
    "repro.apps.catalog:make_img_dnn.spec": _BUILDER_REGISTRY,
    "repro.apps.catalog:make_sphinx.spec": _BUILDER_REGISTRY,
    "repro.apps.catalog:make_tpcc.spec": _BUILDER_REGISTRY,
    "repro.apps.catalog:make_lstm.spec": _BUILDER_REGISTRY,
    "repro.apps.catalog:make_rnn.spec": _BUILDER_REGISTRY,
    "repro.apps.catalog:make_graph.spec": _BUILDER_REGISTRY,
    "repro.apps.catalog:make_pbzip.spec": _BUILDER_REGISTRY,
}


@dataclass(frozen=True)
class Slot:
    """One settable value: where it is defined and its default."""

    key: str
    where: str
    default: ast.expr


@dataclass
class Signature:
    """The call shape of one function, method or constructor."""

    positional: List[str]
    slots: Dict[str, Slot]
    varkw: Optional[str] = None
    forwards: List[ast.Call] = field(default_factory=list)


@dataclass
class Index:
    """Every settable value in the package, by the names calls use."""

    slots: Dict[str, Slot] = field(default_factory=dict)
    by_name: Dict[str, List[Signature]] = field(default_factory=dict)
    fields_by_name: Dict[str, List[Slot]] = field(default_factory=dict)
    #: Class name -> field name -> slots, for ``replace(self, ...)``.
    fields_by_class: Dict[str, Dict[str, List[Slot]]] = field(default_factory=dict)

    def add(self, name: str, sig: Signature) -> None:
        self.by_name.setdefault(name, []).append(sig)
        self.slots.update({s.key: s for s in sig.slots.values()})


def _python_files(directory: Path) -> Iterator[Path]:
    yield from sorted(directory.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC_DIR).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    text = ast.unparse(annotation)
    return text.startswith(("ClassVar", "typing.ClassVar"))


def _field_default(value: ast.expr) -> Tuple[bool, Optional[ast.expr]]:
    """``(init, default)`` of a dataclass field's right-hand side."""
    if (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", "")) == "field"
    ):
        kw = {k.arg: k.value for k in value.keywords}
        init = kw.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False, None
        return True, kw.get("default", kw.get("default_factory"))
    return True, value


def _decorators(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    return {getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list}


def _function_signature(
    node: ast.FunctionDef | ast.AsyncFunctionDef, key: str, where: str, bound: bool
) -> Signature:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults.update(
        (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    if bound and "staticmethod" not in _decorators(node):
        positional = positional[1:]
    slots = {
        name: Slot(f"{key}.{name}", f"{where}:{default.lineno}", default)
        for name, default in defaults.items()
    }
    sig = Signature(positional, slots, args.kwarg.arg if args.kwarg else None)
    if sig.varkw:
        sig.forwards = [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and any(
                k.arg is None and getattr(k.value, "id", None) == sig.varkw
                for k in call.keywords
            )
        ]
    return sig


def _dataclass_fields(
    node: ast.ClassDef, key: str, where: str
) -> Iterator[Tuple[str, Optional[Slot]]]:
    """``(name, slot)`` of each field ``__init__`` takes; no slot if no default."""
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not _is_classvar(stmt.annotation)
        ):
            continue
        init, default = _field_default(stmt.value) if stmt.value else (True, None)
        if init:
            name = stmt.target.id
            slot = None if default is None else Slot(
                f"{key}.{name}", f"{where}:{stmt.lineno}", default
            )
            yield name, slot


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    init: Optional[Signature] = None
    fields: Optional[List[Tuple[str, Optional[Slot]]]] = None


def build_index(trees: Dict[Path, ast.Module]) -> Index:
    """Every defaulted parameter and dataclass field in ``src/repro``."""
    index = Index()
    classes: Dict[str, _ClassInfo] = {}

    def visit(
        body: List[ast.stmt], module: str, where: str, prefix: str,
        owner: Optional[_ClassInfo],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                sig = _function_signature(
                    node, f"{module}:{qual}", where, bound=owner is not None
                )
                if owner is not None and node.name == "__init__":
                    owner.init = sig
                index.add(node.name, sig)
                visit(node.body, module, where, f"{qual}.", None)
            elif isinstance(node, ast.ClassDef):
                info = _ClassInfo(node)
                classes.setdefault(node.name, info)
                visit(node.body, module, where, f"{prefix}{node.name}.", info)
                if not _is_dataclass(node):
                    continue
                info.fields = list(
                    _dataclass_fields(node, f"{module}:{prefix}{node.name}", where)
                )
                for name, slot in info.fields:
                    if slot is None:
                        continue
                    if info.init is None:
                        index.slots[slot.key] = slot
                    elif name in info.init.slots:
                        # A hand-written __init__ owns the defaults.
                        slot = info.init.slots[name]
                    else:
                        continue
                    index.fields_by_name.setdefault(name, []).append(slot)
                    index.fields_by_class.setdefault(node.name, {}).setdefault(
                        name, []
                    ).append(slot)

    for path, tree in trees.items():
        if SRC_DIR / "repro" in path.parents:
            visit(tree.body, _module_name(path), str(path.relative_to(ROOT)), "", None)

    def constructor(name: str, seen: Set[str]) -> Optional[Signature]:
        info = classes.get(name)
        if info is None or name in seen:
            return None
        seen.add(name)
        if info.init is not None:
            return info.init
        bases = [getattr(b, "id", getattr(b, "attr", "")) for b in info.node.bases]
        if info.fields is None:
            return next(
                (s for s in (constructor(b, seen) for b in bases) if s is not None), None
            )
        ordered: Dict[str, Optional[Slot]] = {}
        for base in bases:
            base_sig = constructor(base, seen)
            if base_sig is not None:
                ordered.update((p, base_sig.slots.get(p)) for p in base_sig.positional)
        ordered.update(info.fields)
        return Signature(
            list(ordered), {n: s for n, s in ordered.items() if s is not None}
        )

    for name in classes:
        sig = constructor(name, set())
        if sig is not None:
            index.add(name, sig)
    return index


def _same_value(value: ast.expr, default: ast.expr) -> bool:
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        return bool(ast.literal_eval(value) == ast.literal_eval(default))
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return False


def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@dataclass
class _File:
    """One parsed caller file, flattened once for the call pass."""

    nodes: List[ast.AST]
    dict_keys: Set[str] = field(default_factory=set)
    rejected: Set[int] = field(default_factory=set)
    classes: List[ast.ClassDef] = field(default_factory=list)

    @classmethod
    def of(cls, tree: ast.Module) -> "_File":
        info = cls(list(ast.walk(tree)))
        for node in info.nodes:
            if isinstance(node, ast.Dict):
                info.dict_keys.update(
                    k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
            elif isinstance(node, ast.Call) and _callee_name(node.func) == "dict":
                info.dict_keys.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.ClassDef):
                info.classes.append(node)
            elif isinstance(node, (ast.With, ast.AsyncWith)) and any(
                isinstance(item.context_expr, ast.Call)
                and _callee_name(item.context_expr.func) == "raises"
                for item in node.items
            ):
                info.rejected.update(
                    id(inner) for stmt in node.body for inner in ast.walk(stmt)
                )
        return info

    def enclosing_class(self, node: ast.expr) -> Optional[str]:
        """The innermost class whose body holds ``node``, by line span."""
        spans = [
            (c.lineno, c.name) for c in self.classes
            if c.lineno <= node.lineno <= (c.end_lineno or c.lineno)
        ]
        return max(spans)[1] if spans else None


class _CallWalker:
    """Marks every settable value that some call outside ``pytest.raises`` sets."""

    def __init__(self, index: Index) -> None:
        self.index = index
        self.set_keys: Set[str] = set()

    def mark(self, slot: Optional[Slot], value: Optional[ast.expr]) -> None:
        if slot is not None and (value is None or not _same_value(value, slot.default)):
            self.set_keys.add(slot.key)

    @staticmethod
    def keywords(call: ast.Call, file: _File) -> Iterator[Tuple[str, Optional[ast.expr]]]:
        for kw in call.keywords:
            if kw.arg is not None:
                yield kw.arg, kw.value
            elif isinstance(kw.value, ast.Dict):
                for k, v in zip(kw.value.keys, kw.value.values):
                    if isinstance(k, ast.Constant) and isinstance(k.value, str):
                        yield k.value, v
            else:
                for key in file.dict_keys:
                    yield key, None

    def apply(self, sig: Signature, call: ast.Call, file: _File) -> None:
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                for name in sig.positional[position:]:
                    self.mark(sig.slots.get(name), None)
                break
            if position < len(sig.positional):
                self.mark(sig.slots.get(sig.positional[position]), arg)
        for name, value in self.keywords(call, file):
            if name in sig.slots:
                self.mark(sig.slots[name], value)
            elif sig.varkw and name not in sig.positional:
                self.forward(sig, name, value, {id(sig)})

    def forward(self, sig: Signature, name: str, value: Optional[ast.expr], seen: Set[int]) -> None:
        for inner in sig.forwards:
            for target in self.index.by_name.get(_callee_name(inner.func), []):
                if name in target.slots:
                    self.mark(target.slots[name], value)
                elif target.varkw and id(target) not in seen:
                    self.forward(target, name, value, seen | {id(target)})

    def call(self, call: ast.Call, file: _File) -> None:
        name = _callee_name(call.func)
        if name == "replace":
            fields = self.index.fields_by_name
            if call.args and getattr(call.args[0], "id", None) == "self":
                # ``replace(self, ...)`` copies the enclosing class.
                owner = file.enclosing_class(call)
                fields = self.index.fields_by_class.get(owner or "", {})
            for field_name, value in self.keywords(call, file):
                for slot in fields.get(field_name, []):
                    self.mark(slot, value)
            return
        if name == "cls" or (
            isinstance(call.func, ast.Call) and _callee_name(call.func.func) == "type"
        ):
            name = file.enclosing_class(call) or name
        for sig in self.index.by_name.get(name, []):
            self.apply(sig, call, file)

    def walk(self, file: _File) -> None:
        for node in file.nodes:
            if isinstance(node, ast.Call):
                if id(node) not in file.rejected:
                    self.call(node, file)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "\n" in node.value
                and "import" in node.value
            ):
                # A child-process script a test runs with ``python -c``.
                try:
                    script = _File.of(ast.parse(textwrap.dedent(node.value)))
                except SyntaxError:
                    continue
                self.walk(script)

    def add_forwarders(self, file: _File) -> None:
        """Index a caller-side helper that forwards ``**overrides`` on."""
        for node in file.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.kwarg:
                sig = _function_signature(node, "", "", bound=False)
                sig.slots = {}
                self.index.by_name.setdefault(node.name, []).append(sig)


@functools.lru_cache(maxsize=None)
def audit() -> Tuple[Index, Set[str]]:
    """The package's settable values and the keys of those no call sets."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for directory in CALLER_DIRS
        for path in _python_files(ROOT / directory)
    }
    index = build_index(trees)
    walker = _CallWalker(index)
    files = {path: _File.of(tree) for path, tree in trees.items()}
    for path, file in files.items():
        if SRC_DIR not in path.parents:
            walker.add_forwarders(file)
    for file in files.values():
        walker.walk(file)
    return index, set(index.slots) - walker.set_keys


def _covered(key: str, allowed: str) -> bool:
    return key == allowed or key.startswith(allowed + ".")


def _report(index: Index, keys: Set[str]) -> str:
    return "\n".join(
        f"  {index.slots[k].where}  {k}" for k in sorted(keys, key=lambda k: index.slots[k].where)
    )


def test_every_settable_value_is_set_or_allowlisted() -> None:
    index, unset = audit()
    new = {k for k in unset if not any(_covered(k, a) for a in ALLOWED_UNSET)}
    assert not new, (
        f"{len(index.slots)} settable values in src/repro, {len(unset)} set by no call; "
        f"{len(new)} not in ALLOWED_UNSET (make each a module constant, or "
        f"allowlist it with a reason):\n{_report(index, new)}"
    )


def test_allowlist_names_only_unset_values() -> None:
    index, unset = audit()
    stale = [a for a in ALLOWED_UNSET if not any(_covered(k, a) for k in unset)]
    assert not stale, f"ALLOWED_UNSET entries no longer unset (drop them): {stale}"


def test_replace_self_sets_only_its_own_class() -> None:
    """``replace(self, x=...)`` copies the enclosing class, so it sets
    that class's ``x`` and no other record's field of the same name;
    ``replace(other, x=...)`` cannot know the type and sets every one."""
    source = textwrap.dedent('''
        from dataclasses import dataclass, replace

        @dataclass
        class Copied:
            x: float = 1.0

            def halved(self):
                return replace(self, x=0.5)

        @dataclass
        class Namesake:
            x: float = 1.0
    ''')
    path = SRC_DIR / "repro" / "_audit_probe.py"
    tree = ast.parse(source)

    def unset_after(caller: str) -> Set[str]:
        index = build_index({path: tree})
        walker = _CallWalker(index)
        walker.walk(_File.of(tree))
        walker.walk(_File.of(ast.parse(caller)))
        return set(index.slots) - walker.set_keys

    assert unset_after("") == {"repro._audit_probe:Namesake.x"}
    assert unset_after("replace(thing, x=2.0)") == set()
