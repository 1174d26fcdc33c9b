"""Admission control: *when* to colocate (the paper's "when" question).

Section I frames Pocolo as answering "the when/where/what questions
pertaining to co-location".  The *where/what* live in
:mod:`repro.core.placement`; this module answers *when*: given the
primary's current load, is admitting (or keeping) a best-effort tenant
worth it?

The decision uses the same fitted models as placement: the LC model's
least-power allocation for the current load predicts the spare resources
and power headroom; the BE model translates those into a predicted
throughput.  Admission requires both a minimum predicted throughput
(below it, the BE app would thrash against the cap for crumbs — the
paper's motivation only colocates "during such off-peak periods") and a
minimum power headroom (an SLO-safety buffer for load spikes between
control decisions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.placement import predict_be_throughput
from repro.core.utility import IndirectUtilityModel, integer_min_power_allocation
from repro.errors import CapacityError, ConfigError
from repro.hwmodel.spec import ServerSpec, spare_of

#: Multiplicative margin on measured load when sizing the LC's
#: allocation (mirrors POM's headroom).
LOAD_MARGIN = 1.2


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check, with its reasoning."""

    admit: bool
    reason: str
    predicted_headroom_w: float
    predicted_be_throughput: float


class AdmissionController:
    """Decides whether a BE tenant should run next to one LC server.

    Parameters
    ----------
    lc_model:
        The primary's fitted indirect utility model (perf unit =
        max load under SLO).
    peak_load:
        The primary's planned peak load (capacity-planning input).
    provisioned_power_w:
        The server's right-sized power capacity.
    spec:
        Server hardware description.
    min_be_throughput:
        Smallest predicted normalized BE throughput worth admitting for.
    min_headroom_w:
        Power headroom that must remain *after* the LC's predicted draw
        before any best-effort watt is granted.

    The LC's allocation is sized for ``LOAD_MARGIN`` times its measured
    load.
    """

    def __init__(
        self,
        lc_model: IndirectUtilityModel,
        peak_load: float,
        provisioned_power_w: float,
        spec: ServerSpec,
        min_be_throughput: float = 0.05,
        min_headroom_w: float = 5.0,
    ) -> None:
        if peak_load <= 0:
            raise ConfigError("peak load must be positive")
        if provisioned_power_w <= 0:
            raise ConfigError("provisioned power must be positive")
        if not 0.0 <= min_be_throughput < 1.0:
            raise ConfigError("throughput threshold must lie in [0, 1)")
        if min_headroom_w < 0:
            raise ConfigError("headroom threshold cannot be negative")
        self.lc_model = lc_model
        self.peak_load = peak_load
        self.provisioned_power_w = provisioned_power_w
        self.spec = spec
        self.min_be_throughput = min_be_throughput
        self.min_headroom_w = min_headroom_w

    def decide(
        self, measured_load: float, be_model: IndirectUtilityModel
    ) -> AdmissionDecision:
        """Admit or reject a BE tenant at the primary's current load."""
        if measured_load < 0:
            raise ConfigError("measured load cannot be negative")
        spec = self.spec
        floor = self.lc_model.performance((1.0, 1.0))
        full = self.lc_model.performance((float(spec.cores), float(spec.llc_ways)))
        target = min(max(measured_load * LOAD_MARGIN, floor), full)
        try:
            lc_alloc = integer_min_power_allocation(self.lc_model, target, spec)
        except CapacityError:
            return AdmissionDecision(
                admit=False, reason="primary needs the full server",
                predicted_headroom_w=0.0, predicted_be_throughput=0.0,
            )
        spare = spare_of(spec, lc_alloc)
        lc_power = self.lc_model.power_w((float(lc_alloc.cores), float(lc_alloc.ways)))
        headroom = self.provisioned_power_w - spec.idle_power_w - lc_power
        if spare.is_empty:
            return AdmissionDecision(
                admit=False, reason="no spare direct resources",
                predicted_headroom_w=max(0.0, headroom),
                predicted_be_throughput=0.0,
            )
        if headroom < self.min_headroom_w:
            return AdmissionDecision(
                admit=False,
                reason=(f"power headroom {headroom:.1f} W below the "
                        f"{self.min_headroom_w:.1f} W safety floor"),
                predicted_headroom_w=max(0.0, headroom),
                predicted_be_throughput=0.0,
            )
        budget = headroom - self.min_headroom_w
        predicted = predict_be_throughput(be_model, spec, spare, budget)
        if predicted < self.min_be_throughput:
            return AdmissionDecision(
                admit=False,
                reason=(f"predicted throughput {predicted:.3f} below the "
                        f"{self.min_be_throughput:.3f} threshold"),
                predicted_headroom_w=headroom,
                predicted_be_throughput=predicted,
            )
        return AdmissionDecision(
            admit=True,
            reason="spare resources and power headroom available",
            predicted_headroom_w=headroom,
            predicted_be_throughput=predicted,
        )

    def admission_boundary(
        self, be_model: IndirectUtilityModel, resolution: int = 100
    ) -> float:
        """Highest load fraction at which the BE tenant is still admitted.

        Scans downward from peak; returns 0.0 if never admitted.
        """
        if resolution < 2:
            raise ConfigError("resolution must be at least 2")
        for i in range(resolution, -1, -1):
            fraction = i / resolution
            if self.decide(fraction * self.peak_load, be_model).admit:
                return fraction
        return 0.0
