"""Hierarchical power budgeting with lease-based grants.

The missing layer between per-server capping (:mod:`repro.hwmodel.capping`)
and the cluster: a budget tree (cluster -> rack -> server) whose
periodic arbiter redistributes headroom as *leases* — grants that
expire, so losing the arbiter means reverting to the provisioned
fail-safe floor, never running overcommitted.  See ``docs/BUDGETS.md``.
"""

from repro.budget.arbiter import (
    BudgetArbiter,
    BudgetConfig,
    BudgetPlan,
    BudgetReport,
    BudgetStats,
    Grant,
    ServerDemand,
    plan_budget,
)
from repro.budget.brownout import (
    STAGE_EVICT,
    STAGE_NAMES,
    STAGE_NOMINAL,
    STAGE_SHED,
    STAGE_THROTTLE,
    BrownoutLadder,
    BrownoutState,
)
from repro.budget.fairness import (
    FAIRNESS_MAX_MIN,
    FAIRNESS_OBJECTIVES,
    FAIRNESS_THROUGHPUT,
    distribute,
    max_min_shares,
    throughput_shares,
)
from repro.budget.schedule import CapSchedule
from repro.budget.tree import (
    BudgetTree,
    RackNode,
    ServerNode,
    build_tree,
)

__all__ = [
    "BudgetArbiter",
    "BudgetConfig",
    "BudgetPlan",
    "BudgetReport",
    "BudgetStats",
    "BudgetTree",
    "BrownoutLadder",
    "BrownoutState",
    "CapSchedule",
    "FAIRNESS_MAX_MIN",
    "FAIRNESS_OBJECTIVES",
    "FAIRNESS_THROUGHPUT",
    "Grant",
    "RackNode",
    "STAGE_EVICT",
    "STAGE_NAMES",
    "STAGE_NOMINAL",
    "STAGE_SHED",
    "STAGE_THROTTLE",
    "ServerDemand",
    "ServerNode",
    "build_tree",
    "distribute",
    "max_min_shares",
    "plan_budget",
    "throughput_shares",
]
