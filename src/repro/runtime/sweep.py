"""Crash-safe cluster sweeps: plan, execute, checkpoint, resume.

The cluster sweep (:func:`repro.sim.cluster.run_cluster`) is a list of
*pure* cells — each (server plan, load level) colocation is a function
of its explicit arguments only, with every RNG built inside the cell
from the config seed.  That purity is the whole recovery story:

1. :func:`repro.sim.cluster.plan_cluster_tasks` decides every cell (and
   the full fault report) before anything runs;
2. completed cell outcomes are persisted, keyed by planned position, in a
   single :class:`~repro.runtime.checkpoint.Checkpoint` file rewritten
   atomically as results land.  Each cell is pickled once, when it
   lands, and every save writes those bytes as they are, so a save
   pickles only the cells new since the previous one;
3. a resumed run re-plans (bit-identical, planning is deterministic),
   loads the completed cells, and re-runs only the missing ones.

The resumed :class:`~repro.sim.cluster.ClusterRunResult` is therefore
*bit-identical* to an uninterrupted run — the property
``tests/test_runtime_checkpoint.py`` pins with Hypothesis and a real
SIGKILL.  A checkpoint refuses to resume a different sweep: the
``run_key`` digests the sweep's full content (apps, provisioning,
levels, duration, sim config, fault plan), not object identities.

Execution goes through the same executor as ``run_cluster`` (one
:class:`~repro.engine.parallel.SupervisedPool` or the batched core), so
a crashing *worker* costs a pool rebuild, not the run; a crashing
*parent* costs at most ``checkpoint_every`` cells of work.  Positions
are planned positions whatever ``dedupe`` is, so a checkpoint resumes
with ``dedupe`` flipped.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError, ConfigError
from repro.faults.cluster import ClusterFaultPlan
from repro.guard.invariants import GuardConfig
from repro.budget.arbiter import BudgetConfig
from repro.hwmodel.spec import ServerSpec
from repro.runtime.atomic import PathLike
from repro.runtime.checkpoint import Checkpoint
from repro.sim.cluster import (
    ClusterRunResult,
    LevelOutcome,
    ServerPlan,
    _execute,
    plan_cluster_tasks,
)
from repro.sim.colocation import SimConfig
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


def sweep_run_key(
    plans: Sequence[ServerPlan],
    spec: ServerSpec,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 60.0,
    config: SimConfig = SimConfig(),
    fault_plan: Optional[ClusterFaultPlan] = None,
    guard: Optional[GuardConfig] = None,
    budget: Optional[BudgetConfig] = None,
) -> str:
    """Digest a sweep's identity into a stable, content-based key.

    Two processes given the same configuration compute the same key;
    any change to the apps, provisioning, levels, duration, sim config,
    fault plan, guard config or budget config changes it.
    :meth:`Checkpoint.load` compares this key before resuming, so a
    checkpoint can never silently continue a *different* sweep.  The
    guard, budget, rejoin and infra-fault parts are appended only when
    configured, so checkpoints written before those features existed
    keep resuming.
    """
    parts: List[str] = [
        f"spec={_stable_repr(spec)}",
        f"levels={[float(level) for level in levels]!r}",
        f"duration_s={float(duration_s)!r}",
        f"config={_stable_repr(config)}",
    ]
    for plan in plans:
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
    """One cell's checkpoint entry: its outcome, pickled on its own."""
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def _load_completed(
    path: Path, run_key: str, total: int
) -> Tuple[Dict[int, LevelOutcome], Dict[int, bytes]]:
    """Validate and decode the completed cells of a checkpoint.

    Returns the outcomes and each cell's entry bytes, kept exactly as
    loaded so later saves never re-pickle them.  Entries written before
    cells were pickled one by one hold the ``LevelOutcome`` itself;
    those are still accepted and encoded once here.

    Entries are keyed by planned position.  Releases that keyed them by
    position in the *deduplicated* cell list wrote a smaller
    ``cells_total`` for sweeps with replicas; such a checkpoint is
    refused, never mis-slotted.
    """
    checkpoint = Checkpoint.load(path, expect_run_key=run_key)
    declared = checkpoint.extra.get("cells_total", total)
    if declared != total:
        raise CheckpointError(
            f"checkpoint {path} records {declared!r} cells but this sweep "
            f"plans {total}; it indexes a deduplicated cell list (written "
            "with dedupe=True by an older release) — delete it and rerun"
        )
    payload = checkpoint.payload
    if not isinstance(payload, dict) or not isinstance(
        payload.get("completed"), dict
    ):
        raise CheckpointError(
            f"checkpoint {path} carries no completed-cell map; it was not "
            "written by run_cluster_checkpointed"
        )
    outcomes: Dict[int, LevelOutcome] = {}
    encoded: Dict[int, bytes] = {}
    for index, entry in payload["completed"].items():
        if not isinstance(index, int) or not 0 <= index < total:
            raise CheckpointError(
                f"checkpoint {path} names cell {index!r} outside this "
                f"sweep's 0..{total - 1} range"
            )
        outcome = entry
        if isinstance(entry, bytes):
            try:
                outcome = pickle.loads(entry)
            except Exception as exc:
                raise CheckpointError(
                    f"checkpoint {path} cell {index} failed to unpickle: {exc}"
                ) from exc
        if not isinstance(outcome, LevelOutcome):
            raise CheckpointError(
                f"checkpoint {path} cell {index} holds a "
                f"{type(outcome).__name__}, not a LevelOutcome"
            )
        outcomes[index] = outcome
        encoded[index] = (
            entry if isinstance(entry, bytes) else _encode_cell(outcome)
        )
    return outcomes, encoded


def run_cluster_checkpointed(
    plans: Sequence[ServerPlan],
    spec: ServerSpec,
    checkpoint_path: PathLike,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 60.0,
    config: SimConfig = SimConfig(),
    fault_plan: Optional[ClusterFaultPlan] = None,
    workers: int = 1,
    dedupe: bool = False,
    resume: bool = False,
    checkpoint_every: int = 1,
    guard: Optional[GuardConfig] = None,
    ledger_path: Optional[PathLike] = None,
    engine: Optional[str] = None,
    budget: Optional[BudgetConfig] = None,
) -> ClusterRunResult:
    """:func:`~repro.sim.cluster.run_cluster`, crash-safe.

    Semantics and results are bit-identical to ``run_cluster`` with the
    same arguments; the additions are durability knobs:

    * ``checkpoint_path`` — the single checkpoint file, atomically
      rewritten as cells complete (never observably half-written);
    * ``resume`` — load ``checkpoint_path`` first and re-run only the
      cells it lacks.  A missing file starts fresh (so "always pass
      ``--resume``" is a safe operating procedure); a checkpoint from a
      *different* sweep raises :class:`~repro.errors.CheckpointError`;
    * ``checkpoint_every`` — cells completed between checkpoint writes;
      1 (default) bounds the recomputation lost to a crash at one cell.

    The checkpoint is left in place on success — it doubles as the
    completed-run record (its header carries progress counters readable
    without unpickling).

    ``guard`` runs every cell under the safety invariants of
    :mod:`repro.guard` (and becomes part of the run key, so guarded and
    unguarded checkpoints never cross-resume).  ``ledger_path`` writes
    the violation ledger — rebuilt deterministically from the completed
    cells, so a resumed sweep emits a byte-identical ledger to an
    uninterrupted one.

    ``engine`` and ``workers`` mean what they mean to ``run_cluster``.
    The batched engine (the default) delivers every cell when the sweep
    ends, so a crash loses its whole run; the object engine lands cells
    one at a time.  Both are bit-identical, so a checkpoint written by
    either resumes under the other without changing a result byte (the
    ``run_key`` is engine-agnostic on purpose).
    """
    if checkpoint_every < 1:
        raise ConfigError("checkpoint_every must be at least 1")

    def sweep() -> ClusterRunResult:
        cells, skeleton = plan_cluster_tasks(
            plans, spec, levels, duration_s, config, fault_plan, guard=guard,
            budget=budget,
        )
        run_key = sweep_run_key(
            plans, spec, levels=levels, duration_s=duration_s,
            config=config, fault_plan=fault_plan, guard=guard, budget=budget,
        )
        target = Path(checkpoint_path)
        completed: Dict[int, LevelOutcome] = {}
        encoded: Dict[int, bytes] = {}
        if resume and target.exists():
            completed, encoded = _load_completed(target, run_key, len(cells))
        placement = {
            plan.lc_app.name: (plan.be_app.name if plan.be_app else None)
            for plan in plans
        }
        since_save = 0

        def save() -> None:
            cursor = 0
            while cursor in encoded:
                cursor += 1
            Checkpoint(
                run_key=run_key,
                payload={"completed": encoded, "placement": placement},
                extra={
                    "cells_total": len(cells),
                    "cells_done": len(encoded),
                    "cursor": cursor,
                },
            ).save(target)

        def on_result(position: int, outcome: LevelOutcome) -> None:
            nonlocal since_save
            encoded[position] = _encode_cell(outcome)
            since_save += 1
            if since_save >= checkpoint_every:
                save()
                since_save = 0

        skeleton.outcomes.extend(
            _execute(cells, engine, workers, dedupe, completed, on_result)
        )
        save()
        return skeleton

    return _ledgered(sweep, guard, ledger_path)


def _ledgered(
    sweep: Callable[[], ClusterRunResult],
    guard: Optional[GuardConfig],
    ledger_path: Optional[PathLike],
) -> ClusterRunResult:
    """Run ``sweep``, then write its violation ledger if one is asked for.

    The one owner of the ledger contract for every sweep entry point: a
    ledger needs a guard config (refused before anything runs), and it
    is rebuilt from the finished result, so a resumed sweep writes the
    same bytes as an uninterrupted one.
    """
    if ledger_path is not None and guard is None:
        raise ConfigError("a violation ledger needs a guard config")
    result = sweep()
    if ledger_path is not None:
        # Imported here: repro.guard.ledger writes through this
        # package's atomic helpers, so a module-level import would be
        # circular during package initialization.
        from repro.guard.ledger import write_ledger

        write_ledger(ledger_path, result)
    return result
