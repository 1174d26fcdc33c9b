"""Cluster simulation: a set of colocated servers swept over load levels.

The paper's cluster is four servers, each provisioned for one LC app,
each hosting one BE co-runner chosen by the placement policy; evaluation
numbers are averages "across the primary load (under a uniform load
distribution from 10% to 90% in steps of 10%)" (Section V-D).

:func:`run_cluster` executes exactly that: for every server plan and
every load level it builds a fresh server + manager + cap loop, runs the
steady-state colocation, and aggregates.  Servers do not interact at run
time (each has its own provisioned feed), so the cluster-level coupling
is entirely through the placement decision — as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.apps.best_effort import BestEffortApp
from repro.apps.latency_critical import LatencyCriticalApp
from repro.budget.arbiter import BudgetConfig, BudgetPlan, BudgetReport, plan_budget
from repro.budget.schedule import CapSchedule
from repro.core.placement import assign_with_fallback
from repro.core.server_manager import ServerManagerBase
from repro.engine.parallel import CellKey, map_ordered
from repro.engine.select import resolve_engine
from repro.errors import ConfigError
from repro.faults.cluster import (
    ClusterFaultPlan,
    ClusterFaultReport,
    Replacement,
)
from repro.faults.schedule import FaultSchedule
from repro.guard.invariants import GuardConfig
from repro.hwmodel.server import Server
from repro.hwmodel.spec import ServerSpec
from repro.sim.colocation import (
    ColocationResult,
    ColocationSim,
    SimConfig,
    build_colocated_server,
)
from repro.sim.columns import Outcomes
from repro.workloads.traces import UNIFORM_EVAL_LEVELS, ConstantTrace

if TYPE_CHECKING:  # repro.runtime imports this module
    from repro.runtime.atomic import PathLike

#: Builds a manager for a freshly assembled server.
ManagerFactory = Callable[[Server], ServerManagerBase]


@dataclass(frozen=True)
class ServerPlan:
    """One server of the cluster: its LC app, BE co-runner and manager."""

    lc_app: LatencyCriticalApp
    manager_factory: ManagerFactory
    provisioned_power_w: float
    be_app: Optional[BestEffortApp] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.provisioned_power_w < math.inf:
            raise ConfigError(
                f"provisioned power must be positive and finite; "
                f"got {self.provisioned_power_w!r}"
            )


@dataclass(frozen=True)
class LevelOutcome:
    """The steady-state result of one (server, load level) cell."""

    lc_name: str
    be_name: Optional[str]
    level: float
    result: ColocationResult


@dataclass
class ClusterRunResult:
    """All (server, level) outcomes of one policy run, with aggregates.

    ``outcomes`` is an :class:`~repro.sim.columns.Outcomes`: the cells
    in planned order, each built on first access, over per-cell columns
    the aggregates read without building any cell (:meth:`column`).

    ``fault_report`` is populated only by faulted runs (crash/recovery
    handling, re-placements, degraded cells); it stays ``None`` for
    fault-free sweeps.  ``budget_report`` is populated only by budgeted
    runs (:mod:`repro.budget`): grant/lease counters, brownout stage
    history and the plan-time budget-invariant audit.
    """

    outcomes: Outcomes = field(default_factory=Outcomes.of)
    fault_report: Optional[ClusterFaultReport] = None
    budget_report: Optional[BudgetReport] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The cells as a plain list: a pickled result is the bytes the
        # list-holding record pickled to, and carries no lane block.
        return dict(self.__dict__, outcomes=list(self.outcomes))

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state, outcomes=Outcomes.of(state["outcomes"]))

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` of :data:`~repro.sim.columns.COLUMNS`, one row
        per cell in planned order."""
        return self.outcomes.column(name)

    def _server_groups(self) -> List[Tuple[str, np.ndarray]]:
        """Each LC server name, in first-seen order, with its cells'
        positions in ascending order."""
        code: Dict[str, int] = {}
        codes = np.asarray(
            [code.setdefault(name, len(code)) for name in self.column("lc_name").tolist()],
            dtype=np.int64,
        )
        order = np.argsort(codes, kind="stable")
        bounds = np.cumsum(np.bincount(codes, minlength=len(code)))[:-1]
        return list(zip(code, np.split(order, bounds)))

    def servers(self) -> List[str]:
        """LC server names present, in first-seen order."""
        return [name for name, _ in self._server_groups()]

    def _per_server(self, name: str) -> Dict[str, float]:
        # A server's values gathered into one contiguous array average
        # bit for bit like the list of them: the same pairwise sum.
        values = self.column(name)
        return {
            server: float(np.mean(values[cells]))
            for server, cells in self._server_groups()
        }

    def be_throughput_by_server(self) -> Dict[str, float]:
        """Mean normalized BE throughput per server over the level sweep.

        This is the Fig 12 y-axis (one bar per LC server per policy).
        """
        return self._per_server("avg_be_throughput_norm")

    def power_utilization_by_server(self) -> Dict[str, float]:
        """Mean power draw / provisioned capacity per server (Fig 13)."""
        return self._per_server("power_utilization")

    def cluster_be_throughput(self) -> float:
        """Mean normalized BE throughput across servers and levels."""
        per = self.be_throughput_by_server()
        return float(np.mean(list(per.values()))) if per else 0.0

    def cluster_power_utilization(self) -> float:
        """Mean power utilization across servers and levels."""
        per = self.power_utilization_by_server()
        return float(np.mean(list(per.values()))) if per else 0.0

    def total_energy_kwh(self) -> float:
        """Summed energy over every simulated cell, in cell order."""
        return float(sum(self.column("energy_kwh").tolist()))

    def cluster_violation_fraction(self) -> float:
        """Mean SLO-violation fraction across all cells."""
        if not self.outcomes:
            return 0.0
        return float(np.mean(self.column("slo_violation_fraction")))

    def be_names_by_server(self) -> Dict[str, Optional[str]]:
        """The placement this run executed (lc -> be)."""
        be_names = self.column("be_name")
        return {server: be_names[cells[-1]] for server, cells in self._server_groups()}


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Cell:
    """One (server, load level) cell of a sweep, validated when built.

    A cell is everything :func:`_run_cell` needs and nothing else, so it
    is a pure function of its fields: the RNG is built inside from
    ``config.seed``.  ``faults`` is the faulted sweep's shared cell
    fault schedule, ``guard`` the runtime invariants and ``schedule``
    the budget arbiter's compiled cap schedule for this cell.

    Construction raises :class:`~repro.errors.ConfigError` naming the
    offending field, so a malformed sweep fails before any cell runs.
    """

    plan: ServerPlan
    spec: ServerSpec
    level: float
    duration_s: float
    config: SimConfig
    be_app: Optional[BestEffortApp]
    faults: Optional[FaultSchedule] = None
    guard: Optional[GuardConfig] = None
    schedule: Optional[CapSchedule] = None

    def __init__(
        self,
        plan: ServerPlan,
        spec: ServerSpec,
        level: float,
        duration_s: float,
        config: SimConfig,
        be_app: Optional[BestEffortApp],
        faults: Optional[FaultSchedule] = None,
        guard: Optional[GuardConfig] = None,
        schedule: Optional[CapSchedule] = None,
    ) -> None:
        # One dict update instead of the frozen dataclass's nine
        # object.__setattr__ calls: a fleet sweep builds thousands of
        # cells, and this halves their cost.
        self.__dict__.update(
            plan=plan, spec=spec, level=level, duration_s=duration_s,
            config=config, be_app=be_app, faults=faults, guard=guard,
            schedule=schedule,
        )
        if not (
            isinstance(spec, ServerSpec)
            and isinstance(config, SimConfig)
            and (faults is None or isinstance(faults, FaultSchedule))
            and (guard is None or isinstance(guard, GuardConfig))
            and (schedule is None or isinstance(schedule, CapSchedule))
        ):
            for name, kind, optional in _CELL_FIELD_TYPES:
                value = getattr(self, name)
                if not isinstance(value, kind) and not (optional and value is None):
                    raise ConfigError(
                        f"cell {name} must be a {kind.__name__}, "
                        f"not {type(value).__name__}"
                    )
        # ``type(...) is float`` is the fast path; the ABC check admits
        # ints and numpy scalars.
        if not (
            (type(duration_s) is float or isinstance(duration_s, Real))
            and 0.0 < duration_s < math.inf
        ):
            raise ConfigError(
                f"cell duration_s must be positive and finite, got {duration_s!r}"
            )
        if not (
            (type(level) is float or isinstance(level, Real))
            and 0.0 <= level <= 1.0
        ):
            raise ConfigError(f"cell level must lie in [0, 1], got {level!r}")

    def __repr__(self) -> str:
        be_name = self.be_app.name if self.be_app is not None else None
        return (
            f"Cell(lc={self.plan.lc_app.name!r}, be={be_name!r}, "
            f"level={self.level!r}, duration_s={self.duration_s!r})"
        )

    @property
    def key(self) -> CellKey:
        """Identity of this cell for deduplication.

        Two cells with equal keys run the exact same simulation.  Apps
        and fault schedules are compared by object identity —
        replicated fleets share app objects, which is precisely the case
        dedupe targets; manager factories are compared by value when
        hashable (the pipeline's factories are) and by identity
        otherwise (user closures never dedupe by accident).  Guard
        configs and cap schedules are frozen value objects and compare
        by content — two replicas handed value-equal budget schedules
        still dedupe to one cell.
        """
        plan = self.plan
        factory_key: Hashable = plan.manager_factory
        try:
            hash(factory_key)
        except TypeError:
            factory_key = ("id", id(plan.manager_factory))
        return (
            id(plan.lc_app),
            None if self.be_app is None else id(self.be_app),
            plan.provisioned_power_w,
            factory_key,
            self.spec,
            self.level,
            self.duration_s,
            self.config,
            None if self.faults is None else id(self.faults),
            self.guard,
            self.schedule,
        )


#: ``(field, type, may be None)`` for every type-checked :class:`Cell` field.
_CELL_FIELD_TYPES = (
    ("spec", ServerSpec, False),
    ("config", SimConfig, False),
    ("faults", FaultSchedule, True),
    ("guard", GuardConfig, True),
    ("schedule", CapSchedule, True),
)


def _run_cell(cell: Cell) -> LevelOutcome:
    """One fresh (server, level) steady-state colocation cell."""
    plan = cell.plan
    server = build_colocated_server(
        spec=cell.spec,
        lc_app=plan.lc_app,
        provisioned_power_w=plan.provisioned_power_w,
        be_app=cell.be_app,
        name=f"{plan.lc_app.name}-server",
    )
    manager = plan.manager_factory(server)
    sim = ColocationSim(
        server=server,
        lc_app=plan.lc_app,
        trace=ConstantTrace(cell.level),
        manager=manager,
        be_app=cell.be_app,
        config=cell.config,
        faults=cell.faults,
        guard=cell.guard,
        cap_schedule=cell.schedule,
    )
    outcome = sim.run(cell.duration_s)
    return LevelOutcome(
        lc_name=plan.lc_app.name,
        be_name=cell.be_app.name if cell.be_app else None,
        level=cell.level,
        result=outcome,
    )


def _execute(
    cells: Sequence[Cell],
    engine: Optional[str],
    dedupe: bool,
    completed: Mapping[int, LevelOutcome],
    on_result: Optional[Callable[[List[Tuple[int, LevelOutcome]]], None]] = None,
) -> Outcomes:
    """Run a planned sweep: the one owner of dedupe and engine choice.

    ``completed`` maps planned cell positions to outcomes already known
    (a resumed checkpoint); those cells are not run again.  With
    ``dedupe``, a cell whose :attr:`Cell.key` appeared earlier reuses
    the outcome of that first occurrence, and a first occurrence runs
    only when it is not completed — so positions mean the same cells
    whether or not ``dedupe`` is set.  ``on_result(delivered)`` receives
    the cells run, in delivery order, as ``(position, outcome)`` pairs:
    each call is one run of cells that landed together (one cell on the
    object engine; every batched cell up to the next oracle fallback on
    the batched engine), so a checkpoint commits each run with one
    ``fsync``.  Only the cells it is handed are built as objects.

    Returns every planned cell, in planned order, as columns: the
    engine's store of the cells run, with the completed cells added,
    and each position's slot in it.
    """
    engine_name = resolve_engine(engine)
    source: Optional[List[int]] = None
    pending: Sequence[int] = range(len(cells))
    if dedupe:
        first: Dict[CellKey, int] = {}
        source = [first.setdefault(cell.key, i) for i, cell in enumerate(cells)]
        pending = [i for i, origin in enumerate(source) if origin == i]
    if completed:
        pending = [i for i in pending if i not in completed]
    todo = [cells[i] for i in pending]
    landed = None if on_result is None else (
        lambda delivered: on_result([(pending[i], o) for i, o in delivered])
    )
    if engine_name == "batched":
        # Imported lazily: the batched core builds on ColocationSim's
        # module surface, so a top-level import would be circular.
        from repro.engine.batched import run_batched_cells

        fresh = run_batched_cells(todo, on_result=landed)
    else:
        fresh = Outcomes.of(map_ordered(
            _run_cell, [(cell,) for cell in todo],
            on_result=None if landed is None else (
                lambda index, outcome: landed([(index, outcome)])
            ),
        ))
    if len(pending) == len(cells):
        return fresh
    store = fresh.store
    slots = np.empty(len(cells), dtype=np.int64)
    slots[np.asarray(pending, dtype=np.int64)] = fresh.slots
    for position, outcome in completed.items():
        if source is None or source[position] == position:
            slots[position] = store.add_outcome(outcome)
    if source is not None:
        slots = slots[source]
    return Outcomes(store, slots)


@dataclass(frozen=True)
class Sweep:
    """One cluster sweep: every server plan at every load level.

    The eight terms that define a sweep, validated once, when the value
    is built: ``plans`` and ``levels`` are normalised to tuples (levels
    as Python floats, so a numpy array works), and a malformed sweep
    raises :class:`~repro.errors.ConfigError` before anything is
    planned or run.

    ``fault_plan`` turns the level sweep into the cluster's timeline
    (crashes, recoveries, rejoins, re-placement, cell and infra
    faults).  ``guard`` switches on the runtime safety invariants of
    :mod:`repro.guard` in every cell: each outcome carries a
    ``guard_report``, and enforce mode fails the run on the first
    violation.  ``budget`` switches on hierarchical power budgeting
    (:mod:`repro.budget`): the lease-granting arbiter is planned over
    the timeline up front, every cell receives its compiled
    :class:`~repro.budget.schedule.CapSchedule` and the result carries a
    :class:`~repro.budget.arbiter.BudgetReport`.  Cells stay pure, so
    dedupe, checkpointing and both engines work unchanged.
    """

    plans: Sequence[ServerPlan]
    spec: ServerSpec
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS
    duration_s: float = 60.0
    config: SimConfig = SimConfig()
    fault_plan: Optional[ClusterFaultPlan] = None
    guard: Optional[GuardConfig] = None
    budget: Optional[BudgetConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "plans", tuple(self.plans))
        object.__setattr__(self, "levels", tuple(float(level) for level in self.levels))
        if not self.plans:
            raise ConfigError("sweep needs at least one server plan")
        if not self.levels:
            raise ConfigError("sweep needs at least one load level")
        for level in self.levels:
            if not 0.0 <= level <= 1.0:
                raise ConfigError(f"sweep level must lie in [0, 1], got {level!r}")
        if not self.duration_s > 0:
            raise ConfigError(f"sweep duration_s must be positive, got {self.duration_s!r}")
        if self.duration_s == math.inf:
            raise ConfigError(f"sweep duration_s must be finite, got {self.duration_s!r}")
        if self.fault_plan is not None:
            # Every rejoin repairs one of these crashes (ClusterFaultPlan
            # checks that), so known crash names cover the rejoins too.
            known = {plan.lc_app.name for plan in self.plans}
            for crash in self.fault_plan.crashes:
                if crash.lc_name not in known:
                    raise ConfigError(f"sweep crash names unknown server {crash.lc_name!r}")


@dataclass(frozen=True)
class Durability:
    """How one sweep survives a crash, checked when built.

    * ``journal_path`` — the checkpoint journal.  A fresh run's first
      landed cell atomically replaces any old file with a new header;
      every landed cell appends one checksummed record.  It is kept on
      success as the completed-run record.
    * ``resume`` — load the journal and re-run only the cells it lacks.
      A missing file starts fresh; a journal of a *different* sweep
      raises :class:`~repro.errors.CheckpointError`.  Needs a journal.
    * ``checkpoint_every`` (at least 1) — cells completed between saves
      (one flush and ``fsync`` each).  Cells that land together, such as
      a batched run, are committed with one ``fsync``.
    * ``ledger_path`` — the violation ledger, rebuilt from the finished
      result, so a resumed sweep writes the same bytes as an
      uninterrupted one.  It needs the sweep's ``guard``.
    """

    journal_path: Optional[PathLike] = None
    resume: bool = False
    checkpoint_every: int = 1
    ledger_path: Optional[PathLike] = None

    def __post_init__(self) -> None:
        every = self.checkpoint_every
        if isinstance(every, bool) or not isinstance(every, Integral):
            raise ConfigError(f"checkpoint_every must be an integer; got {every!r}")
        if every < 1:
            raise ConfigError("checkpoint_every must be at least 1")
        if self.resume and self.journal_path is None:
            raise ConfigError("resume needs a journal_path (nothing to resume from)")


def run_sweeps(
    sweeps: Sequence[Sweep],
    engine: Optional[str] = None,
    dedupe: bool = False,
    durability: Optional[Durability] = None,
) -> List[ClusterRunResult]:
    """Plan sweeps (with :func:`plan_cluster_tasks`) and run them as one.

    The one run call.  The sweeps' cells run through a single
    execution, so the batched engine advances all their lanes together;
    each sweep's outcomes then fill its own result.  Cells are pure, so
    what a sweep runs beside never changes its outcomes.  ``engine`` and
    ``dedupe`` are the bit-identical knobs of :func:`run_cluster`.

    ``durability`` makes one sweep crash-safe (a journal's run key is one
    sweep's); it is refused for several sweeps, and a ledger for a sweep
    without a ``guard``, before anything is planned or written.
    """
    if durability is not None:
        if len(sweeps) != 1:
            raise ConfigError(
                f"durability covers exactly one sweep, not {len(sweeps)}"
            )
        if durability.ledger_path is not None and sweeps[0].guard is None:
            raise ConfigError("a violation ledger needs a guard config")
    planned = [plan_cluster_tasks(sweep) for sweep in sweeps]
    cells = [cell for sweep_cells, _ in planned for cell in sweep_cells]
    if durability is None or durability.journal_path is None:
        outcomes = _execute(cells, engine, dedupe, {})
    else:
        from repro.runtime.sweep import run_journaled  # imports this module

        outcomes = run_journaled(sweeps[0], cells, engine, dedupe, durability)
    start = 0
    for sweep_cells, skeleton in planned:
        skeleton.outcomes = outcomes[start:start + len(sweep_cells)]
        start += len(sweep_cells)
    results = [skeleton for _, skeleton in planned]
    if durability is not None and durability.ledger_path is not None:
        from repro.guard.ledger import write_ledger  # imports repro.runtime

        write_ledger(durability.ledger_path, results[0])
    return results


def run_cluster(
    plans: Sequence[ServerPlan],
    spec: ServerSpec,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 60.0,
    config: SimConfig = SimConfig(),
    fault_plan: Optional[ClusterFaultPlan] = None,
    dedupe: bool = False,
    guard: Optional[GuardConfig] = None,
    engine: Optional[str] = None,
    budget: Optional[BudgetConfig] = None,
) -> ClusterRunResult:
    """Run every server plan at every load level, fresh state per cell.

    The sweep terms mean what they mean to :class:`Sweep`.  With a
    ``fault_plan`` levels run in order, crash events drop servers
    between levels, their displaced best-effort apps are re-placed onto
    survivors, and the returned result carries a
    :class:`ClusterFaultReport`.

    Cells never interact (fresh server + manager per cell; the faulted
    timeline's control flow depends only on the fault plan, not on cell
    outcomes), so this is :func:`plan_cluster_tasks` plus one execution,
    and execution is the engine's:

    * ``engine`` — ``"batched"`` (what ``None`` resolves to, see
      :func:`repro.engine.select.default_engine`) advances all cells
      together as numpy lanes (:mod:`repro.engine.batched`), falling
      back to the oracle per cell it cannot claim; ``"object"`` runs
      each cell in turn through its own
      :class:`~repro.sim.colocation.ColocationSim`, the oracle.
    * ``dedupe`` — run each distinct (plan, level) cell once and reuse
      the outcome for replicas (see :attr:`Cell.key`); exact because
      cells are pure, and the big lever for replicated fleets.

    Every knob is bit-identical — the differential suites pin that.
    """
    sweep = Sweep(plans, spec, levels, duration_s, config, fault_plan, guard, budget)
    return run_sweeps([sweep], engine, dedupe)[0]


def plan_cluster_tasks(sweep: Sweep) -> Tuple[List[Cell], ClusterRunResult]:
    """Decide every cell of a sweep without executing any of them.

    Returns ``(cells, skeleton)``: the ordered :class:`Cell` records
    and a :class:`ClusterRunResult` with empty ``outcomes`` but —
    for faulted sweeps — a fully populated :class:`ClusterFaultReport`
    (the crash/recovery/re-placement control flow depends only on the
    fault plan, never on cell outcomes, so it is decidable up front).

    This split is what makes crash-safe checkpointing possible: the
    :mod:`repro.runtime` layer plans once, persists completed cells by
    planned position, and on resume re-runs only the incomplete ones —
    bit-identical because each cell is a pure function of its fields.
    :func:`run_sweeps` is ``plan_cluster_tasks`` plus one execution.

    With a ``budget``, the lease arbiter is planned first (also pure:
    demand comes from app power models, infra faults are data) and each
    cell carries its :class:`CapSchedule`, with the brownout ladder's LC
    sheds and BE evictions applied.
    """
    budget_plan = None if sweep.budget is None else plan_budget(sweep)
    if sweep.fault_plan is not None:
        return _plan_cluster_faulted(sweep, budget_plan)
    cells: List[Cell] = []
    for plan in sweep.plans:
        name = plan.lc_app.name
        for level_index, level in enumerate(sweep.levels):
            cell_level, evicted, schedule = _budget_terms(
                budget_plan, name, level_index, level, plan.be_app is not None
            )
            cells.append(Cell(
                plan, sweep.spec, cell_level, sweep.duration_s, sweep.config,
                None if evicted else plan.be_app, None, sweep.guard, schedule,
            ))
    return cells, ClusterRunResult(
        budget_report=budget_plan.report if budget_plan is not None else None
    )


def _budget_terms(
    budget_plan: Optional[BudgetPlan],
    name: str,
    level_index: int,
    level: float,
    has_be: bool,
) -> Tuple[float, bool, Optional[CapSchedule]]:
    """One cell's ``(level, BE evicted, cap schedule)`` under a budget.

    Applies the brownout ladder's LC load shed and BE eviction for the
    cell, counting each in the budget report; without a budget the
    cell keeps its level and co-runner and runs unscheduled.
    """
    if budget_plan is None:
        return level, False, None
    stats = budget_plan.report.stats
    evicted = has_be and budget_plan.is_evicted(name, level_index)
    if evicted:
        stats.evicted_cells += 1
    scale = budget_plan.scale_for(name, level_index)
    if scale != 1.0:
        stats.shed_cells += 1
    return level * scale, evicted, budget_plan.schedule_for(name, level_index)


def _replace_displaced(
    displaced: List[Tuple[BestEffortApp, str]],
    hosting: Dict[str, List[BestEffortApp]],
    plan_by_name: Dict[str, ServerPlan],
    spec: ServerSpec,
    level_index: int,
    report: ClusterFaultReport,
) -> None:
    """Re-place displaced BE apps onto surviving servers.

    The score of (displaced app, survivor) is the survivor's provisioned
    active-power headroom divided by how many BE co-runners it already
    hosts — more budget and fewer co-runners make a better refuge.  The
    matching is solved with the placement stack's solve-then-greedy
    wrapper, so a solver failure degrades the *placement quality*, never
    the run.  Unmatched apps (more displaced than survivors — a 1:1
    matching places at most one per survivor per event) are parked.
    """
    survivors = sorted(name for name, bes in hosting.items())
    if not survivors:
        for be_app, from_lc in displaced:
            report.replacements.append(Replacement(
                be_name=be_app.name, from_lc=from_lc, to_lc=None,
                at_level_index=level_index,
            ))
        return
    scores = np.zeros((len(displaced), len(survivors)))
    for j, name in enumerate(survivors):
        budget = max(
            1e-6,
            plan_by_name[name].provisioned_power_w - spec.idle_power_w,
        )
        scores[:, j] = budget / (1.0 + len(hosting[name]))
    assignment, _total, _method, fallbacks = assign_with_fallback(scores)
    report.solver_fallbacks += fallbacks
    for i, (be_app, from_lc) in enumerate(displaced):
        j = assignment[i]
        to_lc = survivors[j] if j >= 0 else None
        if to_lc is not None:
            hosting[to_lc].append(be_app)
        report.replacements.append(Replacement(
            be_name=be_app.name, from_lc=from_lc, to_lc=to_lc,
            at_level_index=level_index,
        ))


def _plan_cluster_faulted(
    sweep: Sweep, budget_plan: Optional[BudgetPlan]
) -> Tuple[List[Cell], ClusterRunResult]:
    """Plan the level-major sweep with crash/recovery/rejoin handling.

    Levels are the timeline; each surviving server runs its level cell.
    A host with several BE co-runners (after re-placement) time-shares
    its spare slice: each co-runner gets an equal share of the cell's
    duration on a fresh server (the Section V-G time-sharing extension),
    so their reported throughputs are per-share averages.

    A *recovery* brings the server back empty-handed and nothing else
    moves (migration is not free, Section I).  A *rejoin* additionally
    retries every parked BE app: the repaired server enlarges the
    candidate pool, so apps that no survivor could host get one more
    pass through the re-placement matching.

    The crash/recovery/re-placement control flow depends only on the
    fault plan — never on cell outcomes — so the timeline is walked
    here to decide every cell (and the full fault report) up front; the
    cells then execute through the engine in timeline order.  With a
    ``budget_plan``, each cell carries its host's :class:`CapSchedule`
    and brownout evictions / LC sheds are applied per level window.
    """
    plans, spec, fault_plan = sweep.plans, sweep.spec, sweep.fault_plan
    if fault_plan is None:
        raise ConfigError("the faulted planner needs a fault plan")
    report = ClusterFaultReport()
    result = ClusterRunResult(
        fault_report=report,
        budget_report=budget_plan.report if budget_plan is not None else None,
    )
    plan_by_name = {plan.lc_app.name: plan for plan in plans}
    hosting: Dict[str, List[BestEffortApp]] = {
        plan.lc_app.name: ([plan.be_app] if plan.be_app is not None else [])
        for plan in plans
    }
    cells: List[Cell] = []
    parked: List[Tuple[BestEffortApp, str]] = []
    for level_index, level in enumerate(sweep.levels):
        for event in fault_plan.recoveries_at(level_index):
            if event.lc_name not in hosting:
                # Rejoin empty-handed; the displaced BE stays where the
                # re-placement put it (migration is not free, Section I).
                hosting[event.lc_name] = []
                report.recoveries_handled += 1
        rejoined = False
        for rejoin in fault_plan.rejoins_at(level_index):
            if rejoin.lc_name not in hosting:
                hosting[rejoin.lc_name] = []
                report.rejoins_handled += 1
                rejoined = True
        displaced: List[Tuple[BestEffortApp, str]] = []
        if rejoined and parked:
            # Repaired capacity: give every parked BE another shot.
            displaced.extend(parked)
            parked = []
        for event in fault_plan.crashes_at(level_index):
            if event.lc_name in hosting:
                displaced.extend(
                    (be, event.lc_name) for be in hosting.pop(event.lc_name)
                )
                report.crashes_handled += 1
        if displaced:
            before = len(report.replacements)
            _replace_displaced(
                displaced, hosting, plan_by_name, spec, level_index, report
            )
            # _replace_displaced records one Replacement per displaced
            # app, in order; the ones it parked stay queued for the
            # next rejoin.
            parked.extend(
                item
                for item, placed in zip(
                    displaced, report.replacements[before:]
                )
                if placed.to_lc is None
            )
        for plan in plans:
            name = plan.lc_app.name
            if name not in hosting:
                report.degraded_cells += 1
                continue
            cell_level, evicted, schedule = _budget_terms(
                budget_plan, name, level_index, level, bool(hosting[name])
            )
            co_runners = [] if evicted else list(hosting[name])
            share_s = sweep.duration_s / len(co_runners) if co_runners else sweep.duration_s
            for be_app in co_runners or [None]:
                cells.append(Cell(
                    plan, spec, cell_level, share_s, sweep.config, be_app,
                    fault_plan.cell_faults, sweep.guard, schedule,
                ))
    return cells, result
