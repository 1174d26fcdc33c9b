"""Per-application power attribution — the "power containers" layer.

The paper's profiling uses "application-level power meter [27] to
apportion static/leakage power of the CPU and LLC ways" (Section IV-A):
a real socket meter reports one number for the whole box, and a software
layer splits it across tenants.  This module implements that layer for
the simulated server:

* each tenant is charged its modeled *active* power, plus
* a share of the server's idle/static power proportional to the direct
  resources it holds (half weighted by core share, half by way share —
  the CPU and LLC leakage split the paper describes).

It also quantifies the modeling consequence: fitting the utility model
against *attributed* power (idle apportioned in) shifts every ``p_j``
upward by the per-unit idle charge, which compresses the indirect
preference vector toward balance while preserving its ordering.
This reproduction calibrates against active power (idle kept at server
level); EXPERIMENTS.md documents the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError
from repro.hwmodel.server import Server


@dataclass(frozen=True)
class AttributedReading:
    """One tenant's slice of the server's power at an instant."""

    tenant: str
    active_w: float
    idle_share_w: float

    @property
    def total_w(self) -> float:
        """Active plus apportioned idle — what a power container reports."""
        return self.active_w + self.idle_share_w


class AttributedPowerMeter:
    """Splits a server's draw across tenants, power-containers style.

    Idle power is apportioned by held resources: a tenant holding
    ``c`` of ``C`` cores and ``w`` of ``W`` ways is charged
    ``idle * (c/C + w/W) / 2``; unheld resources leave their idle share
    unattributed (reported under the pseudo-tenant ``"(unallocated)"``).
    Optional multiplicative noise models the attribution error of a real
    software meter.
    """

    def __init__(
        self,
        server: Server,
        rng: Optional[np.random.Generator] = None,
        noise_sigma: float = 0.0,
    ) -> None:
        if noise_sigma < 0:
            raise ConfigError("noise sigma cannot be negative")
        self.server = server
        self._rng = rng
        self._noise_sigma = noise_sigma

    def read(self) -> Dict[str, AttributedReading]:
        """Attribute the current instant's power across tenants."""
        spec = self.server.spec
        readings: Dict[str, AttributedReading] = {}
        attributed_idle = 0.0
        for tenant in self.server.tenants():
            alloc = self.server.allocation_of(tenant)
            active = self.server.tenant_power_w(tenant)
            core_share = alloc.cores / spec.cores
            way_share = alloc.ways / spec.llc_ways
            idle_share = spec.idle_power_w * 0.5 * (core_share + way_share)
            if self._rng is not None and self._noise_sigma > 0:
                factor = float(self._rng.lognormal(0.0, self._noise_sigma))
                active *= factor
                idle_share *= factor
            attributed_idle += idle_share
            readings[tenant] = AttributedReading(
                tenant=tenant, active_w=active, idle_share_w=idle_share
            )
        leftover = max(0.0, self.server.spec.idle_power_w - attributed_idle)
        readings["(unallocated)"] = AttributedReading(
            tenant="(unallocated)", active_w=0.0, idle_share_w=leftover
        )
        return readings

    def conservation_error_w(self, true_power_w: Optional[float] = None) -> float:
        """|sum of attributed power − true server power| (0 when noiseless).

        ``true_power_w`` lets a caller that already sampled the server's
        draw this instant (the guard monitor does, every control tick)
        skip re-evaluating every tenant's power model.
        """
        total = sum(r.total_w for r in self.read().values())
        if true_power_w is None:
            true_power_w = self.server.power_w()
        return abs(total - true_power_w)
