"""The per-tick budget walk: the differential oracle of ``plan_budget``.

:func:`repro.budget.arbiter.plan_budget` goes event to event.  This is
the walk it replaced, kept as the reference it must equal field for
field and in pickle bytes: every arbiter period runs
:meth:`BudgetArbiter.tick`, every server's grants compile through
:func:`build_segments` (the lease rule as a scan of every live grant at
every breakpoint), and the in-force audit observes every rack at every
period.  It is quadratic in grants per server and linear in ticks, so
only tests run it.
"""

from typing import Dict, List, Optional, Tuple

from repro.budget.arbiter import (
    LC_SHED_SHARE,
    MIN_CAP_FRACTION,
    BudgetArbiter,
    BudgetPlan,
    BudgetReport,
    BudgetStats,
    Grant,
    ServerDemand,
    _alive_by_level,
    _server_demand,
)
from repro.budget.brownout import STAGE_EVICT, STAGE_NOMINAL, STAGE_SHED
from repro.budget.schedule import CapSchedule
from repro.budget.tree import build_tree
from repro.errors import ConfigError
from repro.faults.schedule import ArbiterCrash
from repro.guard.invariants import (
    BudgetSample,
    GrantConservationInvariant,
    InvariantRegistry,
    RackOvercommitInvariant,
)
from repro.guard.monitor import GuardMonitor


def build_segments(
    grants: List[Grant],
    floor_w: float,
    total_s: float,
    stats: BudgetStats,
) -> List[Tuple[float, float]]:
    """Compile one server's grant history into cap segments.

    The lease rule as a scan: at every breakpoint (0.0, each live
    grant's effective time and in-horizon expiry) the cap in force is
    the latest grant (by effective time, then grant time) whose
    ``[effective_s, expires_s)`` window covers it, else the floor; each
    return to the floor counts one expiry.  The reference
    :class:`repro.budget.lease.LeaseTimeline` must equal.
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


def plan_budget_per_tick(sweep) -> BudgetPlan:
    """The budget plan of ``sweep``, walked one arbiter period at a time."""
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
        name: CapSchedule.from_segments(build_segments(
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
