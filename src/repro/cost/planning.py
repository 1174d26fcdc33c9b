"""Capacity planning: right-sizing power for a primary application.

Section II-A: "datacenters right-size their infrastructure based on the
needs of the primary application in the cluster ... incorporating their
knowledge of application characteristics, estimated resource needs, and
demand projections into long-term capacity planning."

This module makes that planning step executable: given a latency-critical
application and its projected load trace, compute the provisioned power
capacity (the peak draw of the power-efficient operation over the trace),
the server count for a projected aggregate demand, and the stranded-power
profile that motivates harvesting in the first place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.latency_critical import LatencyCriticalApp
from repro.errors import ConfigError
from repro.evaluation.motivation import true_min_power_allocation
from repro.workloads.traces import LoadTrace

#: Trace samples :func:`plan_power` takes over its horizon (one every
#: 15 minutes of a day).
PLAN_SAMPLES = 96

#: Per-server share of capacity :func:`servers_for_demand` fills at
#: peak, keeping headroom for load dispersion and failures.
TARGET_UTILIZATION = 0.75


@dataclass(frozen=True)
class PowerPlan:
    """A right-sized power plan for one LC cluster."""

    app_name: str
    provisioned_power_w: float
    peak_load_fraction: float
    mean_draw_w: float
    stranded_fraction: float

    @property
    def stranded_w(self) -> float:
        """Average provisioned-but-unused watts per server."""
        return self.provisioned_power_w - self.mean_draw_w


def plan_power(
    lc: LatencyCriticalApp,
    trace: LoadTrace,
    horizon_s: float = 86400.0,
    safety_margin: float = 0.02,
) -> PowerPlan:
    """Right-size a server's power capacity for ``lc`` under ``trace``.

    Samples the trace ``PLAN_SAMPLES`` times, computes the least-power
    draw that serves each sampled load within its SLO, and provisions
    the maximum plus a ``safety_margin``.  Also reports the mean draw and
    the stranded fraction — the quantity harvesting recovers.
    """
    if horizon_s <= 0:
        raise ConfigError("horizon must be positive")
    if safety_margin < 0:
        raise ConfigError("safety margin cannot be negative")
    draws: List[float] = []
    peak_fraction = 0.0
    for i in range(PLAN_SAMPLES):
        t = horizon_s * i / PLAN_SAMPLES
        fraction = trace.load_fraction(t)
        peak_fraction = max(peak_fraction, fraction)
        alloc = true_min_power_allocation(lc, fraction)
        draws.append(lc.profile.server_power_w(alloc))
    provisioned = max(draws) * (1.0 + safety_margin)
    mean_draw = sum(draws) / len(draws)
    return PowerPlan(
        app_name=lc.name,
        provisioned_power_w=provisioned,
        peak_load_fraction=peak_fraction,
        mean_draw_w=mean_draw,
        stranded_fraction=1.0 - mean_draw / provisioned,
    )


def servers_for_demand(lc: LatencyCriticalApp, aggregate_peak_load: float) -> int:
    """Server count serving an aggregate peak demand.

    ``TARGET_UTILIZATION`` keeps per-server peak below capacity; the
    paper's clusters are right-sized per primary app, so this is
    per-cluster arithmetic.
    """
    if aggregate_peak_load <= 0:
        raise ConfigError("aggregate demand must be positive")
    per_server = lc.peak_load * TARGET_UTILIZATION
    return max(1, math.ceil(aggregate_peak_load / per_server))


def stranded_power_profile(
    lc: LatencyCriticalApp,
    trace: LoadTrace,
    provisioned_power_w: Optional[float] = None,
    samples: int = 24,
) -> List[Tuple[float, float]]:
    """(time, stranded watts) over one day — Fig 1's harvesting gap.

    Stranded watts = provisioned capacity minus the LC's power-efficient
    draw at that instant; the budget Pocolo hands to best-effort work.
    """
    if samples < 1:
        raise ConfigError("need at least one sample")
    if provisioned_power_w is None:
        provisioned_power_w = plan_power(lc, trace).provisioned_power_w
    profile = []
    for i in range(samples):
        t = 86400.0 * i / samples
        alloc = true_min_power_allocation(lc, trace.load_fraction(t))
        draw = lc.profile.server_power_w(alloc)
        profile.append((t, max(0.0, provisioned_power_w - draw)))
    return profile
