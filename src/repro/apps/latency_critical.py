"""Latency-critical (primary) application model.

An LC app is the tenant the cluster was provisioned for: it has a peak
load (Table II), a latency SLO, and absolute priority on resources.  Its
performance metric is *max achievable load within the target latency*
(Section IV-A), which here equals the capacity of its allocation by the
calibration of :class:`~repro.apps.latency.TailLatencyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.base import ApplicationProfile, measured
from repro.apps.latency import TailLatencyModel
from repro.errors import ConfigError
from repro.hwmodel.spec import Allocation


@dataclass(frozen=True)
class LatencyCriticalApp:
    """A primary application: profile + peak load + latency behaviour.

    Attributes
    ----------
    profile:
        Ground-truth performance/power surfaces.
    peak_load:
        Max sustainable load (requests/s) at full allocation, max
        frequency — the Table II "peak server load".
    latency:
        Tail-latency model anchored to the app's SLO.

    Load is in requests/s for every paper LC app.
    """

    profile: ApplicationProfile
    peak_load: float
    latency: TailLatencyModel

    def __post_init__(self) -> None:
        if self.peak_load <= 0:
            raise ConfigError("peak load must be positive")

    @property
    def name(self) -> str:
        """Application name (e.g. ``"xapian"``)."""
        return self.profile.name

    # ------------------------------------------------------------------
    # Capacity and latency
    # ------------------------------------------------------------------
    def capacity(self, alloc: Allocation) -> float:
        """Max load (requests/s) meeting the p99 SLO on ``alloc``."""
        return self.peak_load * self.profile.normalized_throughput(alloc)

    def p99_s(self, load: float, alloc: Allocation) -> float:
        """True p99 latency serving ``load`` on ``alloc``."""
        return self.latency.p99_s(load, self.capacity(alloc))

    def slack(self, load: float, alloc: Allocation) -> float:
        """True latency slack (1 - p99/SLO) serving ``load`` on ``alloc``."""
        return self.latency.slack(load, self.capacity(alloc))

    def meets_slo(self, load: float, alloc: Allocation) -> bool:
        """True when ``alloc`` serves ``load`` within the p99 SLO."""
        return self.slack(load, alloc) >= 0.0

    def required_capacity(self, load: float, slack_target: float) -> float:
        """Capacity needed to serve ``load`` with ``slack_target`` slack."""
        return self.latency.capacity_for_load(load, slack_target)

    # ------------------------------------------------------------------
    # Telemetry (what the managers and the profiler actually see)
    # ------------------------------------------------------------------
    def measured_p99_s(
        self,
        load: float,
        alloc: Allocation,
        rng: Optional[np.random.Generator] = None,
        noise_sigma: float = 0.0,
    ) -> float:
        """p99 latency with multiplicative telemetry noise."""
        return measured(self.p99_s(load, alloc), rng, noise_sigma)

    def measured_capacity(
        self,
        alloc: Allocation,
        rng: Optional[np.random.Generator] = None,
        noise_sigma: float = 0.0,
    ) -> float:
        """The profiling performance sample: max load within the SLO."""
        return measured(self.capacity(alloc), rng, noise_sigma)

    # ------------------------------------------------------------------
    # Power (PowerDrawModel protocol for the server facade)
    # ------------------------------------------------------------------
    def active_power_w(self, alloc: Allocation) -> float:
        """True active power at ``alloc`` (duty cycle applied by the server)."""
        return self.profile.active_power_w(alloc)

    def peak_server_power_w(self) -> float:
        """Idle + active power at full allocation — Table II "peak server power".

        This is what right-sized capacity planning provisions per server
        when this app is the cluster's primary (Section II-A).
        """
        full = self.profile.spec.full_allocation()
        return self.profile.server_power_w(full)
