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
decide every arbiter tick ahead of execution (event by event, since
between events the ticks repeat) and compile the outcome into
per-cell :class:`~repro.budget.schedule.CapSchedule` objects.
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
from bisect import bisect_left, bisect_right
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
from repro.budget.lease import LeaseTimeline
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
    (:class:`~repro.budget.lease.LeaseTimeline`).  It lives only inside
    one :func:`plan_budget` call and is never persisted: a resume
    re-plans the budget from the same inputs.  With a ``monitor``,
    every issued assignment is audited for grant conservation.
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

    def delivery_delay_s(self, server: str, time_s: float) -> Optional[float]:
        """How late a grant issued to ``server`` at ``time_s`` lands:
        the longest active delay affecting it, or None when it is lost."""
        if self.faults is None:
            return 0.0
        if any(loss.affects(server) for loss in self.faults.active(time_s, GrantLoss)):
            return None
        delay_s = 0.0
        for lag in self.faults.active(time_s, GrantDelay):
            if lag.affects(server):
                delay_s = max(delay_s, lag.delay_s)
        return delay_s

    def sample(
        self,
        time_s: float,
        node: str,
        committed_w: float,
        capacity_w: float,
        min_deliverable_w: float,
        issued: bool,
    ) -> BudgetSample:
        """One budget-tree node's audit sample under this config."""
        return BudgetSample(
            time_s=time_s,
            node=node,
            committed_w=committed_w,
            capacity_w=capacity_w,
            oversubscription=self.config.oversubscription,
            issued=issued,
            lease_s=self.config.lease_s,
            period_s=self.config.arbiter_period_s,
            min_deliverable_w=min_deliverable_w,
        )

    def cluster_sample(
        self, time_s: float, committed_w: float, alive: Set[str]
    ) -> BudgetSample:
        """The cluster root's sample for one issuing tick."""
        floor_sum_w = sum(
            server.floor_w for server in self.tree.servers if server.name in alive
        )
        return self.sample(
            time_s, "cluster", committed_w, self.tree.capacity_w,
            floor_sum_w * MIN_CAP_FRACTION, issued=True,
        )

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _count_stage(self, stage: int, ticks: int) -> None:
        """Add ``ticks`` arbiter periods spent at ``stage``."""
        if stage >= STAGE_SHED:
            self.stats.shed_ticks += ticks
        elif stage >= STAGE_EVICT:
            self.stats.evict_ticks += ticks
        elif stage > STAGE_NOMINAL:
            self.stats.throttle_ticks += ticks

    def _rack_assignments(
        self,
        rack: RackNode,
        time_s: float,
        demands: Mapping[str, ServerDemand],
        alive: Set[str],
    ) -> Tuple[Dict[str, float], Optional[BudgetSample]]:
        """Decide every alive member's cap for this period.

        Returns the caps and the rack's grant-conservation sample (None,
        with no caps, when no member is alive: the ladder does not move).
        """
        members = [s for s in rack.servers if s.name in alive]
        if not members:
            return {}, None
        capacity_w = self.rack_capacity_w(rack, time_s)
        floor_sum_w = sum(member.floor_w for member in members)
        ratio = capacity_w / floor_sum_w
        state = self._brownout[rack.name]
        if self._ladder.step(state, ratio):
            self.stats.brownout_entries += 1
        stage = state.stage
        self._count_stage(stage, 1)
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
        return caps, self.sample(
            time_s, rack.name, sum(caps.values()), capacity_w,
            floor_sum_w * MIN_CAP_FRACTION, issued=True,
        )

    def rack_periods(
        self,
        rack: RackNode,
        times_s: Sequence[float],
        first: int,
        stop: int,
        demands: Mapping[str, ServerDemand],
        alive: Set[str],
    ) -> List[Tuple[int, int, Dict[str, float], BudgetSample, int]]:
        """The rack's decisions over ticks ``first .. stop - 1``, across
        which its capacity, membership and demands hold still.

        Runs the per-period rule tick by tick only until the brownout
        ladder reaches its fixed point (a tick that leaves the rack's
        stage and recovery streak as they were): every later tick
        repeats that one, so it covers the rest, and its stage is
        counted once per tick it covers.  Returns ``(first_tick,
        stop_tick, caps, sample, stage)`` pieces; none when no member is
        alive.
        """
        state = self._brownout[rack.name]
        pieces: List[Tuple[int, int, Dict[str, float], BudgetSample, int]] = []
        k = first
        while k < stop:
            before = (state.stage, state.recovery_streak)
            caps, sample = self._rack_assignments(rack, times_s[k], demands, alive)
            if sample is None:
                break
            end = k + 1
            if (state.stage, state.recovery_streak) == before:
                end = stop
                self._count_stage(state.stage, stop - k - 1)
            pieces.append((k, end, caps, sample, state.stage))
            k = end
        return pieces

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
            caps, sample = self._rack_assignments(rack, time_s, demands, alive)
            if sample is not None and self.monitor is not None:
                self.monitor.observe(sample)
            cluster_committed_w += sum(caps.values())
            for name, cap_w in caps.items():
                delay_s = self.delivery_delay_s(name, time_s)
                if delay_s is None:
                    self.stats.grants_lost += 1
                    continue
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
            self.monitor.observe(
                self.cluster_sample(time_s, cluster_committed_w, alive)
            )
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


def _tick_times(period_s: float, total_s: float) -> List[float]:
    """Every arbiter tick's time, ``k * period_s``, before ``total_s``."""
    n_ticks = int(total_s / period_s)
    while n_ticks * period_s < total_s:
        n_ticks += 1
    while n_ticks > 0 and (n_ticks - 1) * period_s >= total_s:
        n_ticks -= 1
    return [k * period_s for k in range(n_ticks)]


def _audit(
    queue: List[Tuple[Tuple[int, int, int], BudgetSample]],
    phase: int,
    node: int,
    sample: BudgetSample,
    first: int,
    stop: int,
    times_s: Sequence[float],
) -> int:
    """Queue one node's samples for ticks ``first .. stop - 1``, which
    repeat ``sample`` but for the time; returns how many were left out.

    An in-limit sample makes both budget invariants return None and,
    once it has cleared the node's overcommit clock, keep no state, so
    only the first of a run of them is queued.  Over-limit samples are
    queued one per tick: each may be a violation, and the overcommit
    clock reads their times.  The key ``(phase, tick, node)`` is the
    order the per-tick walk observes them in.
    """
    if sample.committed_w <= sample.limit_w:
        queue.append(((phase, first, node), sample))
        return stop - first - 1
    for k in range(first, stop):
        if k > first:
            sample = dataclasses.replace(sample, time_s=times_s[k])
        queue.append(((phase, k, node), sample))
    return 0


def plan_budget(sweep: Sweep) -> BudgetPlan:
    """Walk the sweep timeline and compile ``sweep.budget`` into cell plans.

    Deterministic by construction: the only inputs are the plans, the
    sweep geometry, the budget config and the (data-pure) fault plan —
    replanning on a checkpoint resume reproduces the identical plan,
    which is why the arbiter needs no persistence of its own.

    The walk goes event to event, not tick to tick.  The arbiter ticks
    at ``k * period_s``; an *event* is a tick where a level starts
    (demand and membership move) or where an infra fault starts or ends
    (rack capacity, an arbiter crash, grant loss or delay).  Between
    events every tick repeats the one before once each rack's brownout
    ladder has settled (:meth:`BudgetArbiter.rack_periods`), so the
    grants of an interval are runs of one cap each
    (:meth:`LeaseTimeline.grant_run`), the stats count rate × ticks,
    and the audit sees one sample per repeat of an in-limit sample
    (:func:`_audit`).  The plan is the one the per-tick walk gives,
    field for field and in pickle bytes; that walk is the differential
    oracle in ``tests/budget_oracle.py``.

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
    leaves = tree.leaf_index()
    monitor = None
    if guard is not None:
        monitor = GuardMonitor(guard, InvariantRegistry([
            GrantConservationInvariant(guard), RackOvercommitInvariant(guard),
        ]))
    arbiter = BudgetArbiter(tree, budget, faults=infra)
    stats = arbiter.stats
    alive_by_level = _alive_by_level(plans, n_levels, fault_plan)
    plan_by_name = {str(plan.lc_app.name): plan for plan in plans}
    times_s = _tick_times(period_s, total_s)
    n_ticks = len(times_s)
    # min(int(t / duration_s), n_levels - 1) per tick, as the level
    # index of a time; the index is monotone, so the clamp is a tail.
    level_by_tick = [int(time_s / duration_s) for time_s in times_s]
    past_end = bisect_left(level_by_tick, n_levels)
    level_by_tick[past_end:] = [n_levels - 1] * (n_ticks - past_end)
    edges = {0, n_ticks}
    edges.update(bisect_left(level_by_tick, level) for level in range(1, n_levels))
    for fault in infra if infra is not None else ():
        edges.add(bisect_left(times_s, fault.start_s))
        edges.add(bisect_left(times_s, fault.end_s))
    events = sorted(edges)

    stage_history: Dict[str, List[Tuple[float, int]]] = {
        rack.name: [] for rack in tree.racks
    }
    # Per server, the grants it received: (cap_w, delay_s, first, stop)
    # runs of ticks.
    runs: Dict[str, List[Tuple[float, float, int, int]]] = {
        server.name: [] for server in tree.servers
    }
    audit: List[Tuple[Tuple[int, int, int], BudgetSample]] = []
    passing = 0
    demands_by_level: Dict[int, Dict[str, ServerDemand]] = {}
    for first, stop in zip(events, events[1:]):
        time_s = times_s[first]
        level_index = level_by_tick[first]
        alive = alive_by_level[level_index]
        if infra is not None and infra.active(time_s, ArbiterCrash):
            stats.skipped_ticks += stop - first
            for rack in tree.racks:
                stage = arbiter.stage_of(rack.name)
                stage_history[rack.name].extend(
                    [(t, stage) for t in times_s[first:stop]]
                )
            continue
        stats.ticks += stop - first
        if level_index not in demands_by_level:
            # Demand is a pure function of (server, level).
            demands_by_level[level_index] = {
                name: _server_demand(plan_by_name[name], spec, levels[level_index])
                for name in alive
            }
        demands = demands_by_level[level_index]
        delays: Dict[str, Optional[float]] = {}
        rack_sums: List[Dict[int, float]] = []
        for rack_index, rack in enumerate(tree.racks):
            history = stage_history[rack.name]
            pieces = arbiter.rack_periods(rack, times_s, first, stop, demands, alive)
            if not pieces:
                stage = arbiter.stage_of(rack.name)
                history.extend([(t, stage) for t in times_s[first:stop]])
                continue
            sums: Dict[int, float] = {}
            for k0, k1, caps, sample, stage in pieces:
                history.extend([(t, stage) for t in times_s[k0:k1]])
                sums[k0] = sample.committed_w
                if monitor is not None:
                    passing += _audit(audit, 0, rack_index, sample, k0, k1, times_s)
                for name, cap_w in caps.items():
                    if name not in delays:
                        delays[name] = arbiter.delivery_delay_s(name, time_s)
                    delay_s = delays[name]
                    if delay_s is None:
                        stats.grants_lost += k1 - k0
                        continue
                    if delay_s > 0.0:
                        stats.grants_delayed += k1 - k0
                    stats.grants_issued += k1 - k0
                    runs[name].append((cap_w, delay_s, k0, k1))
            rack_sums.append(sums)
        if monitor is not None:
            # The cluster root sums the racks' issued caps, in rack order.
            breaks = sorted({first}.union(*rack_sums))
            current = [0.0] * len(rack_sums)
            for k0, k1 in zip(breaks, breaks[1:] + [stop]):
                committed_w = 0.0
                for index, sums in enumerate(rack_sums):
                    current[index] = sums.get(k0, current[index])
                    committed_w += current[index]
                sample = arbiter.cluster_sample(times_s[k0], committed_w, alive)
                passing += _audit(audit, 0, len(tree.racks), sample, k0, k1, times_s)

    timeline_by_server: Dict[str, CapSchedule] = {}
    for server in tree.servers:
        lease = LeaseTimeline(server.floor_w, total_s)
        for cap_w, delay_s, k0, k1 in runs[server.name]:
            lease.grant_run(cap_w, delay_s, k0, k1, period_s, budget.lease_s)
        timeline, expired = lease.compile()
        timeline_by_server[server.name] = timeline
        stats.grants_expired += expired

    # In-force audit at every period boundary: this is where stale
    # grants meet collapsed capacity, the case the rack-overcommit
    # invariant (and its lease grace) exists for.  A rack's in-force
    # sum moves only at an event or at a tick where a member's cap
    # changes.
    if monitor is not None:
        for rack_index, rack in enumerate(tree.racks):
            changes = set(events)
            for server in rack.servers:
                changes.update(
                    bisect_left(times_s, change_s)
                    for change_s in timeline_by_server[server.name].times_s
                )
            changes.discard(n_ticks)
            ticks = sorted(changes)
            for k0, k1 in zip(ticks, ticks[1:] + [n_ticks]):
                time_s = times_s[k0]
                alive = alive_by_level[level_by_tick[k0]]
                sample = arbiter.sample(
                    time_s,
                    rack.name,
                    sum(
                        timeline_by_server[s.name].cap_at(time_s)
                        for s in rack.servers
                        if s.name in alive
                    ),
                    arbiter.rack_capacity_w(rack, time_s),
                    sum(
                        s.floor_w for s in rack.servers if s.name in alive
                    ) * MIN_CAP_FRACTION,
                    issued=False,
                )
                passing += _audit(audit, 1, rack_index, sample, k0, k1, times_s)
        audit.sort(key=lambda item: item[0])
        for _, sample in audit:
            monitor.observe(sample)
        monitor.count_passing(passing)

    # Compile per-cell schedules and the ladder's structural decisions.
    schedules: Dict[Tuple[str, int], CapSchedule] = {}
    evicted: List[Tuple[str, int]] = []
    level_scale: Dict[Tuple[str, int], float] = {}
    for level_index in range(n_levels):
        start_s = level_index * float(duration_s)
        end_s = start_s + float(duration_s)
        alive = alive_by_level[level_index]
        # The last arbiter tick at or before the level's start.
        start_tick = bisect_right(times_s, start_s) - 1
        for name in plan_by_name:
            if name not in alive:
                continue
            timeline = timeline_by_server[name]
            segments = [(0.0, timeline.cap_at(start_s))]
            segments.extend(
                (seg_start_s - start_s, cap_w)
                for seg_start_s, cap_w in zip(timeline.times_s, timeline.caps_w)
                if start_s < seg_start_s < end_s
            )
            schedules[(name, level_index)] = CapSchedule.from_segments(segments)
            stage = stage_history[leaves[name][0].name][start_tick][1]
            # Structural decisions are flagged here; the cluster planner
            # (which knows the *actual* BE hosting after crash
            # re-placement) applies them and counts the cells affected.
            if stage >= STAGE_EVICT:
                evicted.append((name, level_index))
            if stage >= STAGE_SHED:
                level_scale[(name, level_index)] = 1.0 - LC_SHED_SHARE

    report = BudgetReport(
        fairness=budget.fairness,
        stats=stats,
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
