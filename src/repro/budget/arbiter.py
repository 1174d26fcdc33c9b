"""The lease-granting budget arbiter and the plan-time budget planner.

The arbiter is the cluster's one power broker: every
``arbiter_period_s`` it walks the budget tree, estimates each alive
server's demand from the fitted app power models, and issues each
server a *lease-based grant* — an effective cap with an expiry
``lease_s`` in the future.  The fail-safe contract is the reason for
the leases: a server that stops hearing from the arbiter (arbiter
crash, lost grant messages, a partitioned management network) reverts
to its provisioned floor within one lease period, because nothing it
holds outlives its expiry.  Grants above the floor redistribute rack
headroom under a fairness objective (:mod:`repro.budget.fairness`);
capacity collapses walk the rack down the brownout ladder
(:mod:`repro.budget.brownout`).

Crucially, all of this happens at *plan time* — the same discipline as
:func:`repro.sim.cluster._plan_cluster_faulted`.  The sweep's timeline
is deterministic (level ``k`` spans ``[k * duration_s, (k+1) *
duration_s)``), demand comes from app power models rather than runtime
telemetry, and the infra faults are data; so :func:`plan_budget` can
walk every arbiter tick ahead of execution and compile the outcome
into per-cell :class:`~repro.budget.schedule.CapSchedule` objects.
Cells stay pure functions of their arguments, dedupe and checkpoint
resume keep working, and the object oracle and the batched engine
consume the identical plan — the foundation of the bit-exactness the
differential tests pin.

The two budget invariants (grant conservation, rack overcommit) are
audited here, over the planned timeline, by the same
:class:`~repro.guard.monitor.GuardMonitor` that guards every cell.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.budget.brownout import (
    STAGE_EVICT,
    STAGE_NOMINAL,
    STAGE_SHED,
    BrownoutLadder,
    BrownoutState,
)
from repro.budget.fairness import (
    FAIRNESS_MAX_MIN,
    FAIRNESS_OBJECTIVES,
    distribute,
)
from repro.budget.schedule import CapSchedule
from repro.budget.tree import BudgetTree, RackNode, build_tree
from repro.errors import ConfigError
from repro.faults.cluster import ClusterFaultPlan
from repro.faults.schedule import (
    ArbiterCrash,
    FaultSchedule,
    GrantDelay,
    GrantLoss,
    RackBreakerTrip,
    RackPowerDerate,
)
from repro.guard.invariants import (
    BudgetSample,
    GrantConservationInvariant,
    GuardReport,
    InvariantRegistry,
    RackOvercommitInvariant,
)
from repro.guard.monitor import GuardMonitor

if TYPE_CHECKING:  # repro.sim.cluster imports this module
    from repro.sim.cluster import Sweep

#: Share of its unused floor a nominal rack member donates to the pool.
DONATE_FRACTION = 0.8
#: Least cap brownout issues, as a share of the floor (what a capper enforces).
MIN_CAP_FRACTION = 0.35
#: Share of its load a stage-3 (shed) cell drops; it runs at 1 - LC_SHED_SHARE.
LC_SHED_SHARE = 0.5


@dataclass(frozen=True)
class BudgetConfig:
    """The arbiter's knobs — frozen, hashable, pure content.

    Rides inside checkpoint run keys (via its repr) the way
    :class:`~repro.sim.colocation.SimConfig` does, so two processes
    planning the same budget compute the same plan and the same key.

    ``lease_s`` must be finite and cover at least one
    ``arbiter_period_s`` (otherwise every grant would lapse before its
    renewal); the default 2x means one lost renewal is survivable and
    two are not — the staleness window the rack-overcommit invariant
    grants as grace.  The ``brownout_*_ratio`` fields are the ladder's
    entry thresholds; the shares below are module constants.
    """

    arbiter_period_s: float = 5.0
    lease_s: float = 10.0
    rack_size: int = 2
    rack_slack: float = 0.10
    oversubscription: float = 0.0
    fairness: str = FAIRNESS_MAX_MIN
    brownout_throttle_ratio: float = 1.0
    brownout_evict_ratio: float = 0.85
    brownout_shed_ratio: float = 0.70

    def __post_init__(self) -> None:
        if not 0.0 < self.arbiter_period_s < math.inf:
            raise ConfigError(
                f"arbiter_period_s must be positive and finite; got {self.arbiter_period_s!r}"
            )
        if not math.isfinite(self.lease_s):  # a lease must be able to expire
            raise ConfigError(f"lease_s must be finite; got {self.lease_s!r}")
        if self.lease_s < self.arbiter_period_s:
            raise ConfigError(
                "lease_s must cover at least one arbiter period; got "
                f"lease_s={self.lease_s!r} < period "
                f"{self.arbiter_period_s!r}"
            )
        if self.rack_size < 1:
            raise ConfigError("rack_size must be >= 1")
        for name in ("rack_slack", "oversubscription"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(
                    f"{name} must be non-negative and finite; got {value!r}"
                )
        if self.fairness not in FAIRNESS_OBJECTIVES:
            raise ConfigError(
                f"unknown fairness objective {self.fairness!r}; expected "
                f"one of {FAIRNESS_OBJECTIVES}"
            )
        # Ladder-ratio validation is delegated to the ladder itself so
        # the constraint lives in one place.
        self.ladder()

    def ladder(self) -> BrownoutLadder:
        """The brownout ladder this config describes."""
        return BrownoutLadder((
            self.brownout_throttle_ratio,
            self.brownout_evict_ratio,
            self.brownout_shed_ratio,
        ))


@dataclass(frozen=True)
class ServerDemand:
    """One server's estimated appetite at one arbiter tick.

    ``lc_w`` is the estimated latency-critical draw (idle plus
    level-scaled active power); ``be_w`` is the *additional* watts the
    best-effort co-runner could productively use; ``be_weight`` is its
    marginal throughput per watt, consumed by the total-throughput
    fairness objective only.
    """

    lc_w: float
    be_w: float = 0.0
    be_weight: float = 0.0


@dataclass(frozen=True)
class Grant:
    """One lease: an effective cap with a birth, an arrival and a death.

    ``effective_s`` trails ``granted_at_s`` when a
    :class:`~repro.faults.schedule.GrantDelay` is in force; the expiry
    clock always starts at *issue*, so a delayed grant is stale for
    longer but never lives longer.
    """

    server: str
    cap_w: float
    granted_at_s: float
    effective_s: float
    expires_s: float


@dataclass
class BudgetStats:
    """Degradation counters for the budget layer (reported like
    :class:`~repro.hwmodel.capping.CapStats`)."""

    ticks: int = 0
    skipped_ticks: int = 0
    grants_issued: int = 0
    grants_expired: int = 0
    grants_lost: int = 0
    grants_delayed: int = 0
    brownout_entries: int = 0
    throttle_ticks: int = 0
    evict_ticks: int = 0
    shed_ticks: int = 0
    evicted_cells: int = 0
    shed_cells: int = 0


class BudgetArbiter:
    """The stateful broker: one :meth:`tick` per arbiter period.

    Holds each rack's brownout ladder position; the grants it issues
    are returned to the caller, which compiles them into cap timelines
    (:func:`_build_segments`).  It lives only inside one
    :func:`plan_budget` call and is never persisted: a resume re-plans
    the budget from the same inputs.  With a ``monitor``, every issued
    assignment is audited for grant conservation.
    """

    def __init__(
        self,
        tree: BudgetTree,
        config: BudgetConfig,
        faults: Optional[FaultSchedule] = None,
        monitor: Optional[GuardMonitor[BudgetSample]] = None,
    ) -> None:
        self.tree = tree
        self.config = config
        self.faults = faults
        self.monitor = monitor
        self.stats = BudgetStats()
        self._ladder = config.ladder()
        self._brownout: Dict[str, BrownoutState] = {
            rack.name: BrownoutState() for rack in tree.racks
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stage_of(self, rack_name: str) -> int:
        """The rack's current brownout stage."""
        return self._brownout[rack_name].stage

    def rack_capacity_w(self, rack: RackNode, time_s: float) -> float:
        """Deliverable rack capacity at ``time_s``, faults applied."""
        capacity_w = rack.capacity_w
        if self.faults is None:
            return capacity_w
        for derate in self.faults.active(time_s, RackPowerDerate):
            if derate.rack == rack.name:
                capacity_w *= derate.factor
        for trip in self.faults.active(time_s, RackBreakerTrip):
            if trip.rack == rack.name:
                capacity_w *= trip.residual
        return capacity_w

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _rack_assignments(
        self,
        rack: RackNode,
        time_s: float,
        demands: Mapping[str, ServerDemand],
        alive: Set[str],
    ) -> Dict[str, float]:
        """Decide every alive member's cap for this period."""
        members = [s for s in rack.servers if s.name in alive]
        if not members:
            return {}
        capacity_w = self.rack_capacity_w(rack, time_s)
        floor_sum_w = sum(member.floor_w for member in members)
        ratio = capacity_w / floor_sum_w
        state = self._brownout[rack.name]
        if self._ladder.step(state, ratio):
            self.stats.brownout_entries += 1
        stage = state.stage
        if stage >= STAGE_SHED:
            self.stats.shed_ticks += 1
        elif stage >= STAGE_EVICT:
            self.stats.evict_ticks += 1
        elif stage > STAGE_NOMINAL:
            self.stats.throttle_ticks += 1
        caps: Dict[str, float] = {}
        if stage == STAGE_NOMINAL:
            cfg = self.config
            spares: List[float] = []
            wants: List[float] = []
            weights: List[float] = []
            for member in members:
                demand = demands.get(member.name, ServerDemand(member.floor_w))
                desired_w = demand.lc_w + demand.be_w
                spares.append(
                    max(0.0, member.floor_w - desired_w) * DONATE_FRACTION
                )
                wants.append(max(0.0, desired_w - member.floor_w))
                weights.append(demand.be_weight)
            pool_w = max(
                0.0, capacity_w * (1.0 + cfg.oversubscription) - floor_sum_w
            ) + sum(spares)
            shares = distribute(cfg.fairness, pool_w, wants, weights)
            for member, spare_w, share_w in zip(members, spares, shares):
                caps[member.name] = (member.floor_w - spare_w) + share_w
        else:
            # Brownout: scale every floor with the capacity ratio, but
            # never above the floor (hysteresis can hold a recovered
            # ratio above 1) and never below the emergency fraction a
            # capper can physically enforce.
            for member in members:
                scaled_w = member.floor_w * ratio
                emergency_w = member.floor_w * MIN_CAP_FRACTION
                caps[member.name] = min(
                    member.floor_w, max(scaled_w, emergency_w)
                )
        # Grant conservation is checked on what the arbiter *issues*;
        # message loss downstream never excuses an over-issue.
        if self.monitor is not None:
            self.monitor.observe(BudgetSample(
                time_s=time_s,
                node=rack.name,
                committed_w=sum(caps.values()),
                capacity_w=capacity_w,
                oversubscription=self.config.oversubscription,
                issued=True,
                lease_s=self.config.lease_s,
                period_s=self.config.arbiter_period_s,
                min_deliverable_w=floor_sum_w * MIN_CAP_FRACTION,
            ))
        return caps

    def tick(
        self,
        time_s: float,
        demands: Mapping[str, ServerDemand],
        alive: Set[str],
    ) -> List[Grant]:
        """One arbiter period: assign caps, apply message faults, lease.

        Returns the grants that actually *left* the arbiter (lost ones
        are counted but not returned — downstream, the old lease keeps
        governing until it expires).
        """
        self.stats.ticks += 1
        issued: List[Grant] = []
        cluster_committed_w = 0.0
        for rack in self.tree.racks:
            caps = self._rack_assignments(rack, time_s, demands, alive)
            cluster_committed_w += sum(caps.values())
            for name, cap_w in caps.items():
                if self.faults is not None and any(
                    loss.affects(name)
                    for loss in self.faults.active(time_s, GrantLoss)
                ):
                    self.stats.grants_lost += 1
                    continue
                delay_s = 0.0
                if self.faults is not None:
                    for lag in self.faults.active(time_s, GrantDelay):
                        if lag.affects(name):
                            delay_s = max(delay_s, lag.delay_s)
                if delay_s > 0.0:
                    self.stats.grants_delayed += 1
                grant = Grant(
                    server=name,
                    cap_w=cap_w,
                    granted_at_s=time_s,
                    effective_s=time_s + delay_s,
                    expires_s=time_s + self.config.lease_s,
                )
                issued.append(grant)
                self.stats.grants_issued += 1
        if self.monitor is not None:
            self.monitor.observe(BudgetSample(
                time_s=time_s,
                node="cluster",
                committed_w=cluster_committed_w,
                capacity_w=self.tree.capacity_w,
                oversubscription=self.config.oversubscription,
                issued=True,
                lease_s=self.config.lease_s,
                period_s=self.config.arbiter_period_s,
                min_deliverable_w=sum(
                    server.floor_w for rack in self.tree.racks
                    for server in rack.servers if server.name in alive
                ) * MIN_CAP_FRACTION,
            ))
        return issued


# ----------------------------------------------------------------------
# The plan-time compiler
# ----------------------------------------------------------------------

@dataclass
class BudgetReport:
    """What the budget layer planned and what its audit saw.

    Plain picklable data: rides inside
    :class:`~repro.sim.cluster.ClusterRunResult` and therefore into
    checkpoints.  ``stage_history`` records every rack's brownout stage
    at every arbiter tick (``(time_s, stage)`` pairs), which the chaos
    campaign's coverage signature and the brownout tests read.
    """

    fairness: str
    stats: BudgetStats
    guard_report: Optional[GuardReport] = None
    stage_history: Dict[str, Tuple[Tuple[float, int], ...]] = field(
        default_factory=dict
    )

    def max_stage(self) -> int:
        """The deepest brownout stage any rack reached."""
        deepest = STAGE_NOMINAL
        for history in self.stage_history.values():
            for _, stage in history:
                deepest = max(deepest, stage)
        return deepest

    def counters(self) -> Dict[str, int]:
        """Flat degradation counters (``budget.`` namespace) for
        reports and chaos-campaign coverage signatures."""
        flat = {
            f"budget.{name}": int(value)
            for name, value in dataclasses.asdict(self.stats).items()
        }
        flat["budget.max_stage"] = self.max_stage()
        return flat


@dataclass
class BudgetPlan:
    """The compiled budget: per-cell schedules plus planner decisions.

    Every container is filled in plan order (level, then server), so a
    plan pickles to the same bytes whatever the interpreter's hash seed.
    """

    schedules: Dict[Tuple[str, int], CapSchedule]
    evicted: Tuple[Tuple[str, int], ...]
    level_scale: Dict[Tuple[str, int], float]
    report: BudgetReport

    def schedule_for(
        self, lc_name: str, level_index: int
    ) -> Optional[CapSchedule]:
        """The cap schedule for one cell (None for crashed servers)."""
        return self.schedules.get((lc_name, level_index))

    def is_evicted(self, lc_name: str, level_index: int) -> bool:
        """True when the brownout ladder evicts this cell's BE."""
        return (lc_name, level_index) in self.evicted

    def scale_for(self, lc_name: str, level_index: int) -> float:
        """The LC load-shed multiplier for one cell (1.0 = no shed)."""
        return self.level_scale.get((lc_name, level_index), 1.0)


def _alive_by_level(
    plans: Sequence[Any],
    n_levels: int,
    fault_plan: Optional[ClusterFaultPlan],
) -> List[Set[str]]:
    """Cluster membership per level, from crashes, recoveries, rejoins.

    Mirrors ``_plan_cluster_faulted``'s walk order exactly: at each
    level boundary, recoveries and rejoins land before new crashes.
    """
    names = [str(plan.lc_app.name) for plan in plans]
    alive = set(names)
    out: List[Set[str]] = []
    for level_index in range(n_levels):
        if fault_plan is not None:
            for crash in fault_plan.recoveries_at(level_index):
                alive.add(crash.lc_name)
            for rejoin in fault_plan.rejoins_at(level_index):
                alive.add(rejoin.lc_name)
            for crash in fault_plan.crashes_at(level_index):
                alive.discard(crash.lc_name)
        out.append(set(alive))
    return out


def _server_demand(plan: Any, spec: Any, level: float) -> ServerDemand:
    """Estimate one server's appetite at ``level`` from its app models.

    The LC estimate is idle plus level-scaled peak active power (the
    right-sizing model of Section II-A); the BE want is the co-runner's
    full-box active power scaled by the capacity the LC leaves behind.
    Estimates only — the per-server capper enforces whatever cap the
    plan settles on, so a wrong estimate costs efficiency, not safety.
    """
    idle_w = float(spec.idle_power_w)
    lc_peak_w = float(plan.lc_app.peak_server_power_w())
    lc_w = idle_w + float(level) * (lc_peak_w - idle_w)
    if plan.be_app is None:
        return ServerDemand(lc_w=lc_w)
    be_full_w = float(plan.be_app.uncapped_full_power_w())
    be_w = be_full_w * (1.0 - float(level))
    peak = float(plan.be_app.peak_throughput)
    be_weight = peak / be_w if be_w > 0.0 else 0.0
    return ServerDemand(lc_w=lc_w, be_w=be_w, be_weight=be_weight)


def _build_segments(
    grants: List[Grant],
    floor_w: float,
    total_s: float,
    stats: BudgetStats,
) -> List[Tuple[float, float]]:
    """Compile one server's grant history into cap segments.

    This is the lease rule, and its only statement: the cap in force at
    any instant is the latest grant (by effective time, then grant
    time) whose ``[effective_s, expires_s)`` window covers the instant,
    else the fail-safe floor.  A delayed stale grant that lands after a
    fresher one overrides it — the reordering the rack-overcommit
    invariant watches.  A grant delayed past its own expiry has an
    empty window and is dead on arrival; every transition back to the
    floor is a lease running out, counted as an expiry — that revert
    *is* the lease protocol.  Segments start at 0.0 and are strictly
    increasing, so :meth:`CapSchedule.from_segments` compiles them
    into the server's timeline.
    """
    live = [
        grant for grant in grants
        if grant.effective_s < total_s
        and grant.expires_s > grant.effective_s
    ]
    breakpoints = {0.0}
    for grant in live:
        breakpoints.add(grant.effective_s)
        if grant.expires_s < total_s:
            breakpoints.add(grant.expires_s)
    segments: List[Tuple[float, float]] = []
    governed = False
    for time_s in sorted(breakpoints):
        governing: Optional[Grant] = None
        for grant in live:
            if grant.effective_s <= time_s < grant.expires_s:
                if governing is None or (
                    (grant.effective_s, grant.granted_at_s)
                    >= (governing.effective_s, governing.granted_at_s)
                ):
                    governing = grant
        if governing is None:
            if governed:
                stats.grants_expired += 1
            governed = False
            segments.append((time_s, floor_w))
        else:
            governed = True
            segments.append((time_s, governing.cap_w))
    return segments


def plan_budget(sweep: Sweep) -> BudgetPlan:
    """Walk the sweep timeline and compile ``sweep.budget`` into cell plans.

    Deterministic by construction: the only inputs are the plans, the
    sweep geometry, the budget config and the (data-pure) fault plan —
    replanning on a checkpoint resume reproduces the identical plan,
    which is why the arbiter needs no persistence of its own.

    With ``sweep.guard`` set, the grant-conservation and rack-overcommit
    invariants audit every arbiter period; ``enforce`` mode raises
    :class:`~repro.errors.InvariantViolationError` before any cell
    runs.
    """
    budget = sweep.budget
    if budget is None:
        raise ConfigError("plan_budget needs a sweep with a budget config")
    plans, spec, levels, duration_s = sweep.plans, sweep.spec, sweep.levels, sweep.duration_s
    fault_plan, guard = sweep.fault_plan, sweep.guard
    n_levels = len(levels)
    total_s = n_levels * float(duration_s)
    period_s = budget.arbiter_period_s
    infra = fault_plan.infra_faults if fault_plan is not None else None
    tree = build_tree(plans, budget.rack_size, budget.rack_slack)
    monitor = None
    if guard is not None:
        monitor = GuardMonitor(guard, InvariantRegistry([
            GrantConservationInvariant(guard), RackOvercommitInvariant(guard),
        ]))
    arbiter = BudgetArbiter(tree, budget, faults=infra, monitor=monitor)
    alive_by_level = _alive_by_level(plans, n_levels, fault_plan)
    plan_by_name = {str(plan.lc_app.name): plan for plan in plans}
    stage_history: Dict[str, List[Tuple[float, int]]] = {
        rack.name: [] for rack in tree.racks
    }

    grants_by_server: Dict[str, List[Grant]] = {
        server.name: [] for server in tree.servers
    }
    demand_cache: Dict[Tuple[str, int], ServerDemand] = {}
    tick_index = 0
    while True:
        time_s = tick_index * period_s
        if time_s >= total_s:
            break
        level_index = min(int(time_s / duration_s), n_levels - 1)
        alive = alive_by_level[level_index]
        if infra is not None and infra.active(time_s, ArbiterCrash):
            arbiter.stats.skipped_ticks += 1
        else:
            # Demand is a pure function of (server, level); memoized so
            # a dense arbiter period does not re-walk the app models.
            demands = {}
            for name in alive:
                key = (name, level_index)
                if key not in demand_cache:
                    demand_cache[key] = _server_demand(
                        plan_by_name[name], spec, levels[level_index]
                    )
                demands[name] = demand_cache[key]
            for grant in arbiter.tick(time_s, demands, alive):
                grants_by_server[grant.server].append(grant)
        for rack in tree.racks:
            stage_history[rack.name].append(
                (time_s, arbiter.stage_of(rack.name))
            )
        tick_index += 1

    timeline_by_server = {
        name: CapSchedule.from_segments(_build_segments(
            grants, tree.floor_of(name), total_s, arbiter.stats
        ))
        for name, grants in grants_by_server.items()
    }

    # In-force audit at every period boundary: this is where stale
    # grants meet collapsed capacity, the case the rack-overcommit
    # invariant (and its lease grace) exists for.
    if monitor is not None:
        audit_index = 0
        while True:
            time_s = audit_index * period_s
            if time_s >= total_s:
                break
            level_index = min(int(time_s / duration_s), n_levels - 1)
            alive = alive_by_level[level_index]
            for rack in tree.racks:
                committed_w = sum(
                    timeline_by_server[s.name].cap_at(time_s)
                    for s in rack.servers
                    if s.name in alive
                )
                monitor.observe(BudgetSample(
                    time_s=time_s,
                    node=rack.name,
                    committed_w=committed_w,
                    capacity_w=arbiter.rack_capacity_w(rack, time_s),
                    oversubscription=budget.oversubscription,
                    issued=False,
                    lease_s=budget.lease_s,
                    period_s=period_s,
                    min_deliverable_w=sum(
                        s.floor_w for s in rack.servers if s.name in alive
                    ) * MIN_CAP_FRACTION,
                ))
            audit_index += 1

    # Compile per-cell schedules and the ladder's structural decisions.
    schedules: Dict[Tuple[str, int], CapSchedule] = {}
    evicted: List[Tuple[str, int]] = []
    level_scale: Dict[Tuple[str, int], float] = {}
    for level_index in range(n_levels):
        start_s = level_index * float(duration_s)
        end_s = start_s + float(duration_s)
        alive = alive_by_level[level_index]
        for name in plan_by_name:
            if name not in alive:
                continue
            timeline = timeline_by_server[name]
            pieces = [(0.0, timeline.cap_at(start_s))]
            pieces.extend(
                (seg_start_s - start_s, cap_w)
                for seg_start_s, cap_w in zip(timeline.times_s, timeline.caps_w)
                if start_s < seg_start_s < end_s
            )
            schedules[(name, level_index)] = CapSchedule.from_segments(pieces)
            rack = tree.rack_of(name)
            history = stage_history[rack.name]
            stage = STAGE_NOMINAL
            for tick_s, tick_stage in history:
                if tick_s <= start_s:
                    stage = tick_stage
                else:
                    break
            # Structural decisions are flagged here; the cluster planner
            # (which knows the *actual* BE hosting after crash
            # re-placement) applies them and counts the cells affected.
            if stage >= STAGE_EVICT:
                evicted.append((name, level_index))
            if stage >= STAGE_SHED:
                level_scale[(name, level_index)] = 1.0 - LC_SHED_SHARE

    report = BudgetReport(
        fairness=budget.fairness,
        stats=arbiter.stats,
        guard_report=None if monitor is None else monitor.report(),
        stage_history={
            rack: tuple(history) for rack, history in stage_history.items()
        },
    )
    return BudgetPlan(
        schedules=schedules,
        evicted=tuple(evicted),
        level_scale=level_scale,
        report=report,
    )
