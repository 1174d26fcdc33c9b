"""pocolint visitor core: findings, rule registry, suppressions, drivers.

A *rule* is a class with a stable ``rule_id``, a short ``code``
(``POCOxxx``, used in report lines) and a ``check`` method that yields
:class:`Finding` objects for one parsed module.  Rules are registered in
a module-level registry so the CLI and the test suite see the same rule
set.  Wherever a rule is named — ``--rules``, :func:`get_rule`,
``# pocolint: disable=<rule>`` — its id and its code both resolve to
it; a suppression naming anything else is a :class:`LintError`.

Determinism of the linter itself is part of the contract: findings are
always reported sorted by ``(path, line, col, rule_id)`` and directory
walks are sorted, so two runs over the same tree produce byte-identical
output.
"""

from __future__ import annotations

import ast
import functools
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.errors import LintError

#: Matches a ``pocolint: disable=`` comment naming rules (or ``all``).
_SUPPRESS_RE = re.compile(r"#\s*pocolint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Matches module-scope directives: ``# pocolint: lane-module``.
#: Directives opt a whole module into rule families that need explicit
#: scoping (POCO801 treats every numpy array in a lane module as lane
#: state); unknown directives are ignored so old linters skip them.
_DIRECTIVE_RE = re.compile(r"#\s*pocolint:\s*([a-z][a-z\-]*)\s*$")


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a source location."""

    rule_id: str
    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code}[{self.rule_id}] {self.message}"
        )


@dataclass
class LintContext:
    """Per-file state shared by every rule: source text and suppressions."""

    path: str
    source: str
    tree: ast.Module
    suppressed: Dict[int, frozenset] = field(default_factory=dict)
    #: module-scope directives (``# pocolint: lane-module``)
    directives: frozenset = frozenset()
    #: whole-program view, set by the driver when a rule needs it
    project: Optional[object] = None

    @classmethod
    def from_source(cls, source: str, path: str) -> "LintContext":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
        suppressed, directives = _scan_comments(source)
        for line, names in sorted(suppressed.items()):
            unknown = sorted(names - _NAMES.keys() - {"all"})
            if unknown:
                raise LintError(
                    f"{path}:{line}: pocolint: disable= names unknown rule "
                    f"{', '.join(map(repr, unknown))}"
                )
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressed=suppressed,
            directives=directives,
        )

    @functools.cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order: one walk per
        file, shared by the rules that scan the whole tree."""
        return list(ast.walk(self.tree))

    def has_directive(self, name: str) -> bool:
        return name in self.directives

    def is_suppressed(self, finding: Finding) -> bool:
        names = self.suppressed.get(finding.line)
        if names is None:
            return False
        return "all" in names or any(
            _NAMES.get(name) == finding.rule_id for name in names
        )


def _scan_comments(source: str) -> tuple:
    """Collect suppressions and module directives from comment tokens.

    Suppressions map line number -> rule names (ids, codes or ``all``)
    disabled on that physical line; directives are module-wide markers.
    Comments are found with :mod:`tokenize` rather than a per-line regex
    so that ``pocolint: disable`` *inside a string literal* does not
    suppress anything.
    """
    suppressed: Dict[int, frozenset] = {}
    directives: set = set()
    lines = source.splitlines(keepends=True)
    readline = iter(lines).__next__
    try:
        tokens = list(tokenize.generate_tokens(readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressed, frozenset()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is not None:
            names = frozenset(
                name.strip() for name in match.group(1).split(",") if name.strip()
            )
            if names:
                suppressed[tok.start[0]] = names
            continue
        directive = _DIRECTIVE_RE.search(tok.string)
        if directive is not None and directive.group(1) != "disable":
            directives.add(directive.group(1))
    return suppressed, frozenset(directives)


class Rule:
    """Base class for pocolint rules.

    Subclasses set ``rule_id`` (kebab-case slug, used for
    suppression), ``code`` (``POCOxxx``), a one-line ``summary``, and
    implement :meth:`check`.
    """

    rule_id: str = ""
    code: str = ""
    summary: str = ""
    #: Whole-program rules (POCO701/901) need ``ctx.project`` to be a
    #: :class:`repro.lint.graph.Project`; the drivers build one covering
    #: every file in the run before such a rule is invoked.
    requires_project: bool = False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            code=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def report(
        self, ctx: LintContext, candidates: Iterable[Tuple[int, int, str]]
    ) -> Iterator[Finding]:
        """Findings for ``(line, col, message)`` candidates, in order."""
        for line, col, message in sorted(candidates):
            yield Finding(self.rule_id, self.code, ctx.path, line, col, message)


_REGISTRY: Dict[str, Type[Rule]] = {}

#: every accepted rule name (id or code) -> rule id
_NAMES: Dict[str, str] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id or not rule_cls.code:
        raise LintError(
            f"rule {rule_cls.__name__} must define rule_id and code"
        )
    names = (rule_cls.rule_id, rule_cls.code)
    for name in names:
        owner = _NAMES.get(name)
        if owner is not None and _REGISTRY[owner] is not rule_cls:
            raise LintError(f"duplicate rule name {name!r}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    _NAMES.update(dict.fromkeys(names, rule_cls.rule_id))
    return rule_cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by code for stable output."""
    return [
        _REGISTRY[rule_id]()
        for rule_id in sorted(_REGISTRY, key=lambda r: _REGISTRY[r].code)
    ]


def get_rule(name: str) -> Rule:
    """The rule named by its id or its code."""
    try:
        return _REGISTRY[_NAMES[name]]()
    except KeyError:
        known = ", ".join(sorted(_NAMES))
        raise LintError(f"unknown rule {name!r} (known: {known})") from None


def describe(node: ast.expr) -> str:
    """A short, stable spelling of an offending expression."""
    text = ast.unparse(node)
    return text if len(text) <= 40 else text[:37] + "..."


def call_name(func: ast.expr) -> Optional[str]:
    """The bare name a call is spelled with: ``f`` for ``f()`` and
    ``a.b.f()`` alike."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _sorted_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message)
    )


def _check_contexts(
    contexts: Sequence[LintContext], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run ``rules`` (default: all) over ``contexts``, building one
    whole-program view over ``contexts`` when any rule needs it."""
    active = list(rules) if rules is not None else all_rules()
    project = None
    if any(rule.requires_project for rule in active):
        # Imported lazily: graph builds on LintContext, so a module-level
        # import here would be circular.
        from repro.lint.graph import Project

        project = Project.from_contexts(contexts)
    findings: List[Finding] = []
    for ctx in contexts:
        ctx.project = project
        for rule in active:
            for finding in rule.check(ctx):
                if not ctx.is_suppressed(finding):
                    findings.append(finding)
    return _sorted_findings(findings)


def lint_source(
    source: str, path: str = "<string>", rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint one source string; returns sorted, suppression-filtered findings.

    Whole-program rules see a single-module project, so intraprocedural
    and same-file interprocedural findings still fire.
    """
    return _check_contexts([LintContext.from_source(source, path)], rules)


def _read_context(path: Path, root: Optional[Path]) -> LintContext:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    shown = path
    if root is not None:
        try:
            shown = path.relative_to(root)
        except ValueError:
            shown = path
    return LintContext.from_source(source, path=shown.as_posix())


def lint_file(
    path: Path, rules: Optional[Sequence[Rule]] = None, root: Optional[Path] = None
) -> List[Finding]:
    """Lint one file; ``root`` relativizes the reported path when given."""
    return _check_contexts([_read_context(path, root)], rules)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            yield path
        else:
            raise LintError(f"no such file or directory: {path}")


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directories).

    All files are parsed into one whole-program project before any
    project-aware rule runs, so interprocedural findings cross file
    boundaries.
    """
    contexts = [
        _read_context(file_path, root) for file_path in iter_python_files(paths)
    ]
    return _check_contexts(contexts, rules)
