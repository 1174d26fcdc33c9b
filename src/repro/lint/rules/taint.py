"""POCO901 ``determinism-taint`` — banned entropy and where it flows.

The engine layer's contract (docs/ENGINE.md) is that the batched and
vectorized paths are *bit-identical* to their per-object oracles,
which only holds when no code path reads entropy the oracle would
not.  The rule reports two kinds of finding:

* **banned calls**, wherever they happen: wall-clock reads, any call
  into the stdlib ``random`` module or numpy's legacy global RNG, and
  unseeded ``random.Random()`` / ``np.random.default_rng()`` /
  bit-generator constructors (classified, with import aliases
  resolved, by :class:`repro.lint.summaries.TaintAnalysis`);
* **sources reaching sinks**: taint from those calls, ``os.environ``,
  directory listings and set-order iteration, followed through
  assignments, call arguments and returns across modules, into
  ``Checkpoint(...)`` payloads, ``checkpoint.append(...)`` journal
  records, ``telemetry.record(...)`` samples and the guard ledger
  (``write_ledger`` / ``ledger_entries``).  Environment and order reads
  are findings only here.

Each sink finding carries the evidence chain (source location, the
assignment path, the sink).  Values merely *derived from parameters*
are not reported at the sink; a sink-parameter summary flags the
*caller* that passes tainted data in, at its own call site.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.lint.core import call_name, register
from repro.lint.dataflow import DataflowRule, Env
from repro.lint.graph import ClassSymbol, FunctionSymbol, ModuleSymbols, Project
from repro.lint.summaries import (
    MAX_SUMMARY_PASSES,
    Taint,
    TaintAnalysis,
    TaintSummary,
    seed_param_taint,
    taint_summaries,
)

_SINK_PARAMS_KEY = "sink-params"

#: Bare/attribute call names that are sinks for every argument.
_SINK_FUNCTIONS: Dict[str, str] = {
    "write_ledger": "the guard violation ledger",
    "ledger_entries": "the guard violation ledger",
}

#: Constructors whose payload becomes durable state.
_SINK_CONSTRUCTORS: Dict[str, str] = {
    "Checkpoint": "checkpointed state (Checkpoint payload)",
}

#: ``<receiver>.record(...)`` is a telemetry sink when the receiver
#: spelling names a telemetry stream.  Curated, not heuristic: these
#: are the receiver idioms used by repro.sim.telemetry call sites.
_RECORD_RECEIVER_MARKERS = ("telemetry", "series", "energy", "trace")

#: ``<receiver>.append(...)`` is a checkpoint sink when the receiver
#: spelling names a checkpoint journal (repro.runtime.sweep's idiom).
_APPEND_RECEIVER_MARKER = "checkpoint"

SinkFlows = Dict[str, Dict[int, str]]


def _sink_of_call(node: ast.Call) -> Optional[str]:
    func = node.func
    name = call_name(func)
    if name is None:
        return None
    if name in _SINK_FUNCTIONS:
        return _SINK_FUNCTIONS[name]
    if name in _SINK_CONSTRUCTORS:
        return _SINK_CONSTRUCTORS[name]
    if name == "record" and isinstance(func, ast.Attribute):
        receiver = ast.unparse(func.value).lower()
        if any(marker in receiver for marker in _RECORD_RECEIVER_MARKERS):
            return f"telemetry ({ast.unparse(func.value)}.record)"
    if name == "append" and isinstance(func, ast.Attribute):
        if _APPEND_RECEIVER_MARKER in ast.unparse(func.value).lower():
            return "checkpointed state (Checkpoint journal record)"
    return None


def _render_taint(taint: Taint) -> str:
    sources = " and ".join(s.render() for s in taint.real_sources())
    if taint.steps:
        return f"{sources} via {' -> '.join(taint.steps)}"
    return sources


class _SinkChecker(TaintAnalysis):
    """TaintAnalysis that checks sink call sites and records evidence."""

    def __init__(
        self,
        project: Project,
        table: ModuleSymbols,
        cls_sym: Optional[ClassSymbol],
        summaries: Dict[str, TaintSummary],
        path: str,
        sink_flows: SinkFlows,
    ) -> None:
        super().__init__(project, table, cls_sym, summaries, path)
        self.sink_flows = sink_flows
        #: own-parameter index -> sink description (for caller reporting)
        self.param_sinks: Dict[int, str] = {}

    def on_banned_call(self, node: ast.Call, message: str) -> None:
        self.flag(node, message)

    def on_call_site(
        self,
        node: ast.Call,
        resolved: object,
        arg_taints: Dict[str, Optional[Taint]],
        env: Env,
    ) -> None:
        sink = _sink_of_call(node)
        if sink is not None:
            for taint in arg_taints.values():
                self._check_sink_value(node, taint, sink)
        if isinstance(resolved, FunctionSymbol):
            flows = self.sink_flows.get(resolved.qualname)
            if not flows:
                return
            for index, sink_desc in flows.items():
                taint = arg_taints.get(str(index))
                if taint is None and index < len(resolved.params):
                    taint = arg_taints.get(resolved.params[index])
                if taint is None:
                    continue
                routed = (
                    f"{sink_desc} (inside {resolved.name}(), defined at "
                    f"{resolved.path}:{resolved.lineno})"
                )
                self._check_sink_value(node, taint, routed)

    def _check_sink_value(
        self, node: ast.Call, taint: Optional[Taint], sink: str
    ) -> None:
        if not isinstance(taint, Taint):
            return
        if taint.real_sources():
            self.flag(
                node, f"nondeterminism reaches {sink}: {_render_taint(taint)}"
            )
        for index in taint.param_indices():
            self.param_sinks.setdefault(index, sink)


def _sink_param_flows(project: Project) -> SinkFlows:
    """Which parameters of which functions flow into sinks (fixpoint).

    One pass finds direct parameter→sink flows; further passes chase
    parameters routed through an intermediate callee that itself sinks
    them, up to the shared summary-pass cap.
    """
    cached = project.summary_cache.get(_SINK_PARAMS_KEY)
    if cached is not None:
        return cached  # type: ignore[return-value]
    summaries = taint_summaries(project)
    flows: SinkFlows = {}
    for _ in range(MAX_SUMMARY_PASSES):
        changed = False
        for table, func, cls_sym in project.all_functions():
            checker = _SinkChecker(
                project, table, cls_sym, summaries, func.path, flows
            )
            checker.run_function(
                func.node, seed_param_taint(func, func.path)
            )
            merged = {**flows.get(func.qualname, {}), **checker.param_sinks}
            if checker.param_sinks and merged != flows.get(func.qualname):
                flows[func.qualname] = merged
                changed = True
        if not changed:
            break
    project.summary_cache[_SINK_PARAMS_KEY] = flows
    return flows


@register
class DeterminismTaintRule(DataflowRule):
    rule_id = "determinism-taint"
    code = "POCO901"
    summary = (
        "no wall clocks or ambient/unseeded RNG, and no nondeterminism "
        "(those, os.environ, listing or set order) reaching checkpoints, "
        "telemetry or the guard ledger"
    )

    def checker(
        self, project: Project, table: ModuleSymbols,
        cls_sym: Optional[ClassSymbol], path: str,
    ) -> _SinkChecker:
        return _SinkChecker(
            project, table, cls_sym, taint_summaries(project), path,
            _sink_param_flows(project),
        )

    def seed(self, func: FunctionSymbol, path: str) -> Env:
        return seed_param_taint(func, path)
