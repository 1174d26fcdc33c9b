"""Crash-safe cluster sweeps: plan, execute, checkpoint, resume.

The cluster sweep (:func:`repro.sim.cluster.run_cluster`) is a list of
*pure* cells — each (server plan, load level) colocation is a function
of its explicit arguments only, with every RNG built inside the cell
from the config seed.  That purity is the whole recovery story:

1. :func:`repro.sim.cluster.plan_cluster_tasks` decides every cell of a
   :class:`~repro.sim.cluster.Sweep` (and the full fault report) before
   anything runs;
2. completed cell outcomes are persisted, keyed by planned position, in
   a :class:`~repro.runtime.checkpoint.Checkpoint` journal: each cell is
   pickled once, when it lands, and appended as one checksummed record,
   so the bytes written over a sweep grow linearly with its cells;
3. a resumed run re-plans (bit-identical, planning is deterministic),
   loads the completed cells, drops a torn last record, and re-runs
   only the missing cells.

The resumed :class:`~repro.sim.cluster.ClusterRunResult` is therefore
*bit-identical* to an uninterrupted run — the property
``tests/test_runtime_checkpoint.py`` pins with Hypothesis and a real
SIGKILL.  A checkpoint refuses to resume a different sweep: the
``run_key`` digests the sweep's full content (apps, provisioning,
levels, duration, sim config, fault plan), not object identities.

:func:`~repro.sim.cluster.run_sweeps` calls :func:`run_journaled` for a
:class:`~repro.sim.cluster.Durability` with a journal, so execution goes
through the same in-process executor as ``run_cluster`` (the batched
core or the per-object oracle), and a
crash costs at most the cells that had not yet landed in the journal.
Positions are planned positions whatever ``dedupe`` is, so a
checkpoint resumes with ``dedupe`` flipped.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.budget.arbiter import BudgetConfig
from repro.errors import CheckpointError, ConfigError
from repro.faults.cluster import ClusterFaultPlan
from repro.guard.invariants import GuardConfig
from repro.hwmodel.spec import ServerSpec
from repro.runtime.atomic import PathLike
from repro.runtime.checkpoint import Checkpoint, Journal, read_journal
from repro.sim.cluster import (
    Cell,
    ClusterRunResult,
    Durability,
    LevelOutcome,
    ServerPlan,
    Sweep,
    _execute,
    run_sweeps,
)
from repro.sim.colocation import SimConfig
from repro.sim.columns import Outcomes
from repro.workloads.traces import UNIFORM_EVAL_LEVELS

_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _stable_repr(obj: Any) -> str:
    """A ``repr`` with memory addresses scrubbed.

    The catalog's apps, specs, configs and manager factories are all
    dataclasses whose reprs are pure content; anything that leaks an
    ``at 0x...`` address (a default ``object.__repr__``) is reduced to
    its type name so the run key never varies between processes.
    """
    return _ADDRESS_RE.sub("", repr(obj))


def sweep_run_key(sweep: Sweep) -> str:
    """Digest a sweep's identity into a stable, content-based key.

    Two processes given the same configuration compute the same key;
    any change to the apps, provisioning, levels, duration, sim config,
    fault plan, guard config or budget config changes it.
    :func:`~repro.runtime.checkpoint.read_journal` compares this key
    before resuming, so a checkpoint can never silently continue a
    *different* sweep.  The guard, budget, rejoin and infra-fault parts
    are appended only when configured.
    """
    fault_plan, guard, budget = sweep.fault_plan, sweep.guard, sweep.budget
    parts: List[str] = [
        f"spec={_stable_repr(sweep.spec)}",
        f"levels={list(sweep.levels)!r}",
        f"duration_s={float(sweep.duration_s)!r}",
        f"config={_stable_repr(sweep.config)}",
    ]
    for plan in sweep.plans:
        parts.append("plan=" + "|".join((
            _stable_repr(plan.lc_app),
            _stable_repr(plan.be_app),
            repr(float(plan.provisioned_power_w)),
            _stable_repr(plan.manager_factory),
        )))
    if fault_plan is not None:
        parts.append(
            f"crashes={[_stable_repr(c) for c in fault_plan.crashes]!r}"
        )
        faults = fault_plan.cell_faults
        parts.append(
            "cell_faults=" + (
                "None" if faults is None
                else repr([_stable_repr(f) for f in faults])
            )
        )
        if fault_plan.rejoins:
            parts.append(
                f"rejoins={[_stable_repr(r) for r in fault_plan.rejoins]!r}"
            )
        if fault_plan.infra_faults is not None:
            parts.append(
                "infra_faults="
                + repr([_stable_repr(f) for f in fault_plan.infra_faults])
            )
    if guard is not None:
        parts.append(f"guard={_stable_repr(guard)}")
    if budget is not None:
        parts.append(f"budget={_stable_repr(budget)}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _encode_cell(outcome: LevelOutcome) -> bytes:
    """One cell's journal record payload: its outcome, pickled on its own."""
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def _load_completed(
    path: Path, run_key: str, total: int
) -> Tuple[Journal, Dict[int, LevelOutcome]]:
    """Validate a checkpoint journal and decode its completed cells.

    Every record's length and SHA-256 are checked before any cell is
    unpickled; then each cell is decoded once.  Cells are keyed by
    planned position.
    """
    journal = read_journal(path, expect_run_key=run_key)
    if journal.cells_total != total:
        raise CheckpointError(
            f"checkpoint {path} records {journal.cells_total} cells but this "
            f"sweep plans {total}; delete it and rerun"
        )
    outcomes: Dict[int, LevelOutcome] = {}
    for position, data in journal.cells.items():
        try:
            outcome = pickle.loads(data)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path} cell {position} failed to unpickle: {exc}"
            ) from exc
        if not isinstance(outcome, LevelOutcome):
            raise CheckpointError(
                f"checkpoint {path} cell {position} holds a "
                f"{type(outcome).__name__}, not a LevelOutcome"
            )
        outcomes[position] = outcome
    return journal, outcomes


def run_cluster_checkpointed(
    plans: Sequence[ServerPlan],
    spec: ServerSpec,
    checkpoint_path: PathLike,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 60.0,
    config: SimConfig = SimConfig(),
    fault_plan: Optional[ClusterFaultPlan] = None,
    dedupe: bool = False,
    resume: bool = False,
    checkpoint_every: int = 1,
    guard: Optional[GuardConfig] = None,
    ledger_path: Optional[PathLike] = None,
    engine: Optional[str] = None,
    budget: Optional[BudgetConfig] = None,
) -> ClusterRunResult:
    """:func:`~repro.sim.cluster.run_cluster`, crash-safe: a keyword shim.

    ``checkpoint_path``, ``resume``, ``checkpoint_every`` and
    ``ledger_path`` are the fields of :class:`~repro.sim.cluster.Durability`;
    the rest mean what they mean to ``run_cluster``.  The run key is
    engine-agnostic, so a journal written by either engine resumes under
    the other.
    """
    return run_sweeps(
        [Sweep(plans, spec, levels, duration_s, config, fault_plan, guard, budget)],
        engine, dedupe,
        Durability(checkpoint_path, resume, checkpoint_every, ledger_path),
    )[0]


def run_journaled(
    sweep: Sweep,
    cells: Sequence[Cell],
    engine: Optional[str],
    dedupe: bool,
    durability: Durability,
) -> Outcomes:
    """Run ``sweep``'s planned ``cells``, journaling each as it lands.

    A resumed run loads what ``durability``'s journal holds and runs
    only the rest; a fresh one starts a new journal.  Returns every
    planned cell's outcome, in planned order; the cells the journal
    pickled are the objects the result holds.
    """
    if durability.journal_path is None:
        raise ConfigError("a journaled run needs a journal_path")
    run_key = sweep_run_key(sweep)
    target = Path(durability.journal_path)
    completed: Dict[int, LevelOutcome] = {}
    if durability.resume and target.exists():
        journal, completed = _load_completed(target, run_key, len(cells))
        checkpoint = Checkpoint.reopen(journal)
    else:
        placement = {
            plan.lc_app.name: (plan.be_app.name if plan.be_app else None)
            for plan in sweep.plans
        }
        checkpoint = Checkpoint.create(target, run_key, len(cells), placement)

    def on_result(delivered: List[Tuple[int, LevelOutcome]]) -> None:
        # Group commit: a run of cells that landed together is
        # synced with one fsync, whatever checkpoint_every is.
        for position, outcome in delivered:
            checkpoint.append(position, _encode_cell(outcome))
        if checkpoint.pending >= durability.checkpoint_every:
            checkpoint.save()

    with checkpoint:
        outcomes = _execute(cells, engine, dedupe, completed, on_result)
        if checkpoint.pending:
            checkpoint.save()
    return outcomes
