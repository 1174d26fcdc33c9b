"""Tail-latency model for latency-critical applications.

The paper's LC performance metric is "maximum achievable application load
(requests per second) within the target latency" (Section IV-A), and its
controllers consume the p99 latency *slack* relative to the SLO
(Sections IV-C, V-D: "maintaining a latency slack of at least 10%").

We model the p99 latency of an LC app serving load ``L`` on an allocation
with capacity ``C`` (the max load meeting the SLO on that allocation) with
an M/M/1-flavoured blow-up in the effective utilization:

    p99(rho) = t0 / (1 - RHO_KNEE * rho),      rho = L / C

calibrated so that ``p99(1) == SLO`` exactly — i.e. "capacity" *means*
"the load at which p99 hits the SLO", making the two definitions
consistent by construction.  With the knee of 0.85 the curve is
gentle at low utilization and explodes past ``rho = 1/0.85``, which is
where we clip to a large-but-finite value so controllers can still reason
about how badly they are violating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Utilization knee of the tail-latency blow-up: in (0, 1), and the
#: curve explodes past ``rho = 1 / RHO_KNEE``.
RHO_KNEE = 0.85

#: p99 reported when the allocation is saturated past the model's pole.
SATURATED_LATENCY_FACTOR = 50.0


@dataclass(frozen=True)
class LatencySlo:
    """Service-level objective for a latency-critical app (paper Table II)."""

    p95_s: float
    p99_s: float

    def __post_init__(self) -> None:
        if self.p95_s <= 0 or self.p99_s <= 0:
            raise ConfigError("SLO latencies must be positive")
        if self.p95_s > self.p99_s:
            raise ConfigError("p95 SLO cannot exceed p99 SLO")


@dataclass(frozen=True)
class TailLatencyModel:
    """Maps (load, capacity) to p99 latency, anchored to an SLO.

    Attributes
    ----------
    slo:
        The latency SLO; ``p99(load == capacity) == slo.p99_s``.
    """

    slo: LatencySlo

    @property
    def base_latency_s(self) -> float:
        """The ``t0`` intercept: p99 at zero load."""
        return self.slo.p99_s * (1.0 - RHO_KNEE)

    def p99_s(self, load: float, capacity: float) -> float:
        """p99 latency serving ``load`` on an allocation of ``capacity``.

        Both arguments share units (e.g. requests/s).  Zero capacity, or
        utilization at/past the model's pole, reports the saturated
        ceiling (``SATURATED_LATENCY_FACTOR`` × SLO) rather than raising:
        a real system under overload still answers *some* requests,
        horribly late, and controllers need a finite signal.
        """
        if load < 0:
            raise ConfigError("load cannot be negative")
        if capacity <= 0:
            return self.slo.p99_s * SATURATED_LATENCY_FACTOR
        rho = load / capacity
        denom = 1.0 - RHO_KNEE * rho
        ceiling = self.slo.p99_s * SATURATED_LATENCY_FACTOR
        if denom <= self.base_latency_s / ceiling:
            return ceiling
        return min(ceiling, self.base_latency_s / denom)

    def slack(self, load: float, capacity: float) -> float:
        """Latency slack: ``1 - p99/SLO``.

        Positive when under the SLO (1.0 = idle), zero exactly at the
        SLO, negative when violating.  This is the feedback signal of
        the paper's server managers.
        """
        return 1.0 - self.p99_s(load, capacity) / self.slo.p99_s

    def max_load_for_slack(self, capacity: float, slack_target: float) -> float:
        """Largest load on ``capacity`` keeping slack ≥ ``slack_target``.

        Inverts the latency curve:  ``p99 ≤ (1 - slack) * SLO``.  Used by
        controllers to translate "keep 10 % slack" into a utilization
        ceiling.
        """
        if not 0.0 <= slack_target < 1.0:
            raise ConfigError("slack target must lie in [0, 1)")
        if capacity <= 0:
            return 0.0
        # t0 / (1 - knee * rho) <= (1 - s) * slo  =>  rho <= (1 - t0/((1-s) slo)) / knee
        limit = (1.0 - self.base_latency_s / ((1.0 - slack_target) * self.slo.p99_s))
        rho_max = max(0.0, limit / RHO_KNEE)
        return rho_max * capacity

    def capacity_for_load(self, load: float, slack_target: float) -> float:
        """Smallest capacity serving ``load`` with slack ≥ ``slack_target``.

        The dual of :meth:`max_load_for_slack`; used to size allocations.
        """
        if load <= 0:
            return 0.0
        per_unit = self.max_load_for_slack(1.0, slack_target)
        if per_unit <= 0:
            raise ConfigError(
                f"slack target {slack_target} is unreachable at any load"
            )
        return load / per_unit
