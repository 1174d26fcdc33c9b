"""Datacenter cost modelling: capacity planning and amortized monthly TCO."""

from repro.cost.planning import (
    PowerPlan,
    plan_power,
    servers_for_demand,
    stranded_power_profile,
)
from repro.cost.tco import (
    HOURS_PER_MONTH,
    PolicyOperatingPoint,
    TcoBreakdown,
    compare_policies,
    monthly_tco,
    relative_savings,
)

__all__ = [
    "HOURS_PER_MONTH",
    "PowerPlan",
    "plan_power",
    "servers_for_demand",
    "stranded_power_profile",
    "PolicyOperatingPoint",
    "TcoBreakdown",
    "compare_policies",
    "monthly_tco",
    "relative_savings",
]
