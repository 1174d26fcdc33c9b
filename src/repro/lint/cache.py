"""On-disk project cache for incremental (``--changed-only``) lint runs.

A whole-program lint of a large tree spends most of its time parsing
and re-deriving interprocedural summaries for files that did not
change.  The cache stores, per file and keyed by the SHA-256 of its
bytes:

* the **symbol table** (functions, classes, constructor parameters,
  annotated fields, import aliases) — enough for a changed module's
  call sites to resolve *into* the unchanged module;
* the **interprocedural summaries** — per-function return units
  (POCO701) and taint summaries (POCO901) — so the fixpoint treats the
  unchanged module's functions as fixed inputs instead of re-running
  their abstract interpretation;
* the **call graph** edges out of the module's functions.

A ``--changed-only`` run parses only the changed files (plus any cache
misses), restores everything else from the cache, lints the changed
files against the full project context, and rewrites the cache
atomically (:func:`repro.runtime.atomic.atomic_write_json`) so a
crashed run can never leave a torn cache behind.  A stale or corrupt
cache is never an error: any entry whose hash does not match the file
on disk — or any unreadable cache — degrades to a cold parse.  The
cache header records a digest of the linter's own sources, so a cache
written by a different version of the analyzers (whose summaries may
differ) is dropped whole.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    _check_contexts,
    _read_context,
    iter_python_files,
)
from repro.lint.graph import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    Project,
    iter_functions,
    module_name_for_path,
)
from repro.lint.summaries import (
    TaintSource,
    TaintSummary,
    taint_summaries,
    unit_returns,
)
from repro.runtime.atomic import atomic_write_json

#: Default cache location, resolved against the lint root.
DEFAULT_CACHE_NAME = ".pocolint-cache.json"


def file_digest(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


@functools.lru_cache(maxsize=None)
def analyzer_digest() -> str:
    """SHA-256 over the ``repro.lint`` sources that produce the cache."""
    digest = hashlib.sha256()
    package = Path(__file__).resolve().parent
    for source in sorted(package.rglob("*.py")):
        digest.update(source.relative_to(package).as_posix().encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def load_cache(path: Path) -> Dict[str, dict]:
    """Per-file cache entries, or {} for a missing/corrupt cache or one
    written by different analyzer sources."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict) or raw.get("analyzer") != analyzer_digest():
        return {}
    files = raw.get("files")
    return files if isinstance(files, dict) else {}


def save_cache(path: Path, files: Dict[str, dict]) -> None:
    atomic_write_json(
        path,
        {"analyzer": analyzer_digest(), "tool": "pocolint", "files": files},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _function_to_json(func: FunctionSymbol) -> dict:
    return {
        "qualname": func.qualname,
        "name": func.name,
        "lineno": func.lineno,
        "params": list(func.params),
        "class_name": func.class_name,
    }


def _function_from_json(raw: dict, module_name: str, path: str) -> FunctionSymbol:
    return FunctionSymbol(
        qualname=raw["qualname"],
        name=raw["name"],
        module_name=module_name,
        path=path,
        lineno=int(raw.get("lineno", 1)),
        params=tuple(raw.get("params", ())),
        node=None,
        class_name=raw.get("class_name"),
    )


def entry_for_module(
    table: ModuleSymbols,
    digest: str,
    units: Dict[str, Optional[str]],
    taints: Dict[str, TaintSummary],
    call_graph: Dict[str, Tuple[str, ...]],
) -> dict:
    """Serialize one analyzed module (symbols + its summaries) to JSON."""
    qualnames = [func.qualname for func, _ in iter_functions(table)]
    return {
        "hash": digest,
        "module": table.name,
        "path": table.path,
        "imports": dict(table.imports),
        "functions": [
            _function_to_json(func) for func in table.functions.values()
        ],
        "classes": [
            {
                "name": cls.name,
                "lineno": cls.lineno,
                "fields": list(cls.fields),
                "bases": list(cls.bases),
                "methods": [
                    _function_to_json(m) for m in cls.methods.values()
                ],
            }
            for cls in table.classes.values()
        ],
        "unit_returns": {
            q: units[q] for q in qualnames if q in units
        },
        "taint": {
            q: {
                "return_sources": [
                    [s.kind, s.desc, s.path, s.line]
                    for s in taints[q].return_sources
                ],
                "return_steps": list(taints[q].return_steps),
                "param_flow": list(taints[q].param_flow),
            }
            for q in qualnames
            if q in taints
        },
        "calls": {
            q: list(call_graph.get(q, ())) for q in qualnames
        },
    }


def table_from_entry(entry: dict) -> ModuleSymbols:
    """Rebuild a (node-free) symbol table from a cache entry."""
    path = entry.get("path", "")
    name = entry.get("module") or module_name_for_path(path)
    table = ModuleSymbols(name=name, path=path)
    table.imports = dict(entry.get("imports", {}))
    for raw in entry.get("functions", ()):
        func = _function_from_json(raw, name, path)
        table.functions[func.name] = func
    for raw_cls in entry.get("classes", ()):
        methods: Dict[str, FunctionSymbol] = {}
        for raw in raw_cls.get("methods", ()):
            method = _function_from_json(raw, name, path)
            methods[method.name] = method
        cls = ClassSymbol(
            qualname=f"{name}.{raw_cls['name']}",
            name=raw_cls["name"],
            module_name=name,
            path=path,
            lineno=int(raw_cls.get("lineno", 1)),
            methods=methods,
            fields=tuple(raw_cls.get("fields", ())),
            bases=tuple(raw_cls.get("bases", ())),
        )
        table.classes[cls.name] = cls
    return table


def _summaries_from_entry(
    entry: dict,
) -> Tuple[Dict[str, Optional[str]], Dict[str, TaintSummary]]:
    units: Dict[str, Optional[str]] = dict(entry.get("unit_returns", {}))
    taints: Dict[str, TaintSummary] = {}
    for qualname, raw in entry.get("taint", {}).items():
        taints[qualname] = TaintSummary(
            return_sources=tuple(
                TaintSource(kind=k, desc=d, path=p, line=int(line))
                for k, d, p, line in raw.get("return_sources", ())
            ),
            return_steps=tuple(raw.get("return_steps", ())),
            param_flow=tuple(int(i) for i in raw.get("param_flow", ())),
        )
    return units, taints


# ----------------------------------------------------------------------
# the incremental driver
# ----------------------------------------------------------------------

def lint_paths_cached(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Path,
    changed: Sequence[str],
    cache_path: Path,
) -> List[Finding]:
    """Incremental lint: parse changed files, restore the rest.

    ``changed`` holds reported (root-relative posix) paths; only those
    files produce findings.  Unchanged files whose content hash matches
    a cache entry contribute symbols and summaries without re-analysis;
    misses are parsed cold so correctness never depends on the cache.
    The cache is rewritten with every analyzed module's fresh entry.
    """
    cache = load_cache(cache_path)
    changed_set = set(changed)
    parsed: List[Tuple[LintContext, str]] = []
    restored: List[Tuple[ModuleSymbols, dict]] = []
    for file_path in iter_python_files([p.resolve() for p in paths]):
        digest = file_digest(file_path)
        shown = _reported_path(file_path, root)
        entry = cache.get(shown)
        if (
            shown not in changed_set
            and digest is not None
            and entry is not None
            and entry.get("hash") == digest
        ):
            restored.append((table_from_entry(entry), entry))
            continue
        parsed.append((_read_context(file_path, root), digest or ""))

    project = Project.from_contexts(
        [ctx for ctx, _ in parsed],
        cached_tables=[table for table, _ in restored],
    )
    for table, entry in restored:
        units, taints = _summaries_from_entry(entry)
        project.cached_unit_returns.update(units)
        project.cached_taint.update(taints)
        project.call_graph.update(
            {q: tuple(callees) for q, callees in entry.get("calls", {}).items()}
        )

    report_contexts = [ctx for ctx, _ in parsed if ctx.path in changed_set]
    findings = _check_contexts([ctx for ctx, _ in parsed], rules, project=project)
    reported_paths = {ctx.path for ctx in report_contexts}
    findings = [f for f in findings if f.path in reported_paths]

    units = unit_returns(project)
    taints = taint_summaries(project)
    files: Dict[str, dict] = {}
    for table, entry in restored:
        files[table.path] = entry
    for ctx, digest in parsed:
        table = project.table_for(ctx.path)
        if table is None or not digest:
            continue
        files[ctx.path] = entry_for_module(
            table, digest, units, taints, project.call_graph
        )
    save_cache(cache_path, files)
    return findings


def _reported_path(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()
