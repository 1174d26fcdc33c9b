"""Single-server colocation simulation: one LC tenant, one BE tenant.

This is the time-domain harness that exercises the full control stack the
way the paper's testbed does:

* every **1 s** the server manager reads (noisy) load and latency-slack
  telemetry for the primary and re-decides its allocation
  (Section IV-C: "over a time window of every second");
* every **100 ms** the power-cap loop samples the (noisy) power meter and
  throttles/restores the best-effort tenant (frequency ladder first, then
  duty cycling);
* the latency-critical app's true latency, both apps' true throughput and
  the server's true power follow from the ground-truth surfaces at the
  allocations currently in force.

Results aggregate exactly the quantities the paper's figures report:
average BE throughput (normalized), average power utilization against the
provisioned capacity, energy, SLO-violation fraction, and capping
activity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.apps.base import measured
from repro.apps.best_effort import BestEffortApp
from repro.apps.latency_critical import LatencyCriticalApp
from repro.budget.schedule import CapSchedule
from repro.core.server_manager import ManagerStats, ServerManagerBase
from repro.errors import ConfigError, SimulationError
from repro.faults.meter import FaultyPowerMeter
from repro.faults.schedule import (
    FaultSchedule,
    LoadSpike,
    ModelStaleness,
    TelemetryGap,
)
from repro.guard.invariants import (
    GuardConfig,
    GuardReport,
    GuardSample,
    InvariantRegistry,
)
from repro.guard.monitor import GuardMonitor
from repro.hwmodel.capping import CapStats, PowerCapController
from repro.hwmodel.meter import DEFAULT_SAMPLE_INTERVAL_S, EnergyCounter, PowerMeter
from repro.hwmodel.server import PRIMARY, SECONDARY, Server
from repro.hwmodel.spec import ServerSpec
from repro.sim.telemetry import Telemetry
from repro.workloads.traces import LoadTrace

#: Builds the cap loop for a sim; overridable so tests can plant doubles.
CapperFactory = Callable[[Server, PowerMeter], PowerCapController]


#: The tick geometry every simulator reads (Section IV-C): a manager
#: decision per control tick, then SUBTICKS cap-loop samples 100 ms apart.
CONTROL_INTERVAL_S = 1.0
SUBTICKS = int(round(CONTROL_INTERVAL_S / DEFAULT_SAMPLE_INTERVAL_S))


@dataclass(frozen=True)
class SimConfig:
    """Warm-up, telemetry noise and seed of the colocation loop; the
    tick geometry is :data:`CONTROL_INTERVAL_S` and :data:`SUBTICKS`."""

    warmup_s: float = 10.0
    load_noise: float = 0.02
    latency_noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("warmup_s", "load_noise", "latency_noise"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(
                    f"{name} must be non-negative and finite; got {value!r}"
                )


@dataclass
class ColocationResult:
    """Aggregates of one simulated run (post-warmup window only).

    ``guard_report`` is populated only when the sim ran with a
    :class:`~repro.guard.invariants.GuardConfig`; it stays ``None`` on
    unguarded runs, so existing aggregation code is unaffected.
    """

    lc_name: str
    be_name: Optional[str]
    duration_s: float
    avg_be_throughput_norm: float
    avg_be_throughput_abs: float
    avg_lc_load_fraction: float
    avg_power_w: float
    power_utilization: float
    energy_kwh: float
    slo_violation_fraction: float
    cap_stats: CapStats
    manager_stats: ManagerStats
    telemetry: Telemetry = field(repr=False)
    guard_report: Optional[GuardReport] = None


class ColocationSim:
    """Drives one server + manager + cap loop over a load trace."""

    def __init__(
        self,
        server: Server,
        lc_app: LatencyCriticalApp,
        trace: LoadTrace,
        manager: ServerManagerBase,
        be_app: Optional[BestEffortApp] = None,
        config: SimConfig = SimConfig(),
        faults: Optional[FaultSchedule] = None,
        guard: Optional[GuardConfig] = None,
        capper_factory: Optional[CapperFactory] = None,
        cap_schedule: Optional[CapSchedule] = None,
    ) -> None:
        primary = server.primary_tenant()
        if primary is None:
            raise SimulationError("server has no primary tenant attached")
        if be_app is not None and server.secondary_tenant() is None:
            raise SimulationError("BE app given but no secondary tenant attached")
        if manager.server is not server:
            raise SimulationError("manager is bound to a different server")
        self.server = server
        self.lc_app = lc_app
        self.be_app = be_app
        self.trace = trace
        self.manager = manager
        self.config = config
        self.faults = faults
        # Budgeted cells move the *effective* cap along a planned
        # CapSchedule; utilization and the capper's plausibility bound
        # stay anchored at the base provisioning captured here, so an
        # unbudgeted run (cap_schedule=None) is bit-identical to one
        # predating the budget layer.
        self.cap_schedule = cap_schedule
        self._base_provisioned_w = server.provisioned_power_w
        self._rng = np.random.default_rng(config.seed)
        if faults is not None:
            self.meter: PowerMeter = FaultyPowerMeter(
                source=server.power_w, schedule=faults, rng=self._rng,
            )
        else:
            self.meter = PowerMeter(source=server.power_w, rng=self._rng)
        if capper_factory is not None:
            self.capper = capper_factory(server, self.meter)
        else:
            self.capper = PowerCapController(server=server, meter=self.meter)
        self.guard = guard
        self._true_model = getattr(manager, "model", None)
        self._model_swapped = False

    def _apply_model_staleness(self, time_s: float) -> None:
        """Swap a stale model in (and the true one back out) on schedule."""
        if self._true_model is None:
            return
        fault = self.faults.first_active(time_s, ModelStaleness)
        if fault is not None and not self._model_swapped:
            self.manager.model = fault.model
            self._model_swapped = True
        elif fault is None and self._model_swapped:
            # The window closed: a fresh fit landed, restore the truth.
            self.manager.model = self._true_model
            self._model_swapped = False

    def run(self, duration_s: float) -> ColocationResult:
        """Simulate ``duration_s`` seconds (plus warmup) and aggregate.

        Warmup runs before t=0 so that traces are sampled on their own
        timeline; statistics cover only t in [0, duration_s).

        With a guard config, every control tick is checked against the
        safety invariants of :mod:`repro.guard`: ``record`` mode
        collects violations into ``result.guard_report``; ``enforce``
        mode raises :class:`~repro.errors.InvariantViolationError` on
        the first one.
        """
        if duration_s <= 0:
            raise ConfigError("duration must be positive")
        cfg = self.config
        monitor = None
        if self.guard is not None:
            monitor = GuardMonitor(
                self.guard, InvariantRegistry.default(self.guard)
            )
        telemetry = Telemetry()
        energy = EnergyCounter()
        primary = self.server.primary_tenant()
        be = self.server.secondary_tenant()
        if primary is None:
            raise SimulationError(
                f"server {self.server.name!r} lost its primary tenant before "
                "the colocation run started"
            )

        n_warmup = int(round(cfg.warmup_s / CONTROL_INTERVAL_S))
        n_ticks = int(round(duration_s / CONTROL_INTERVAL_S))
        violations = 0
        stale_load: Optional[float] = None
        stale_slack: Optional[float] = None

        for tick in range(-n_warmup, n_ticks):
            t = tick * CONTROL_INTERVAL_S
            in_window = tick >= 0
            load_frac = self.trace.load_fraction(max(0.0, t))
            if self.faults is not None:
                # Transient load spikes raise the *true* offered load.
                for spike in self.faults.active(t, LoadSpike):
                    load_frac = min(1.0, load_frac * spike.factor)
                self._apply_model_staleness(t)
            true_load = load_frac * self.lc_app.peak_load

            # Telemetry the manager sees: noisy load and latency slack at
            # the allocation currently in force.  During a telemetry gap
            # the collection pipeline serves the last values it has.
            alloc_before = self.server.allocation_of(primary)
            in_gap = (
                self.faults is not None
                and stale_load is not None
                and self.faults.first_active(t, TelemetryGap) is not None
            )
            if in_gap:
                measured_load, measured_slack = stale_load, stale_slack
            else:
                measured_load = measured(true_load, self._rng, cfg.load_noise)
                p99 = self.lc_app.measured_p99_s(
                    true_load, alloc_before, self._rng, cfg.latency_noise
                )
                measured_slack = 1.0 - p99 / self.lc_app.latency.slo.p99_s
                stale_load, stale_slack = measured_load, measured_slack

            self.manager.control_step(measured_load, measured_slack)

            # Power-cap loop at 100 ms within the control tick.  A
            # budget schedule moves the effective cap immediately
            # before the capper samples — the capper reads the live
            # ``provisioned_power_w`` each step, so a lease expiring
            # mid-tick takes effect at the very next 100 ms sample.
            for k in range(SUBTICKS):
                sub_t = t + k * DEFAULT_SAMPLE_INTERVAL_S
                if self.cap_schedule is not None:
                    self.server.provisioned_power_w = self.cap_schedule.cap_at(sub_t)
                self.capper.step(sub_t)

            # Record ground truth at end of tick.
            lc_alloc = self.server.allocation_of(primary)
            true_slack = self.lc_app.slack(true_load, lc_alloc)
            power = self.server.power_w()
            if monitor is not None:
                monitor.observe(GuardSample(
                    time_s=t,
                    in_window=in_window,
                    power_w=power,
                    server=self.server,
                    capper=self.capper,
                    manager=self.manager,
                    faults=self.faults,
                    rng=self._rng,
                    final=tick == n_ticks - 1,
                ))
            if in_window:
                if true_slack < 0:
                    violations += 1
                telemetry.record("power_w", t, power)
                telemetry.record("lc_load_fraction", t, load_frac)
                telemetry.record("lc_slack", t, true_slack)
                telemetry.record("safe_mode", t, 1.0 if self.capper.safe_mode else 0.0)
                telemetry.record("lc_cores", t, lc_alloc.cores)
                telemetry.record("lc_ways", t, lc_alloc.ways)
                if self.cap_schedule is not None:
                    telemetry.record(
                        "effective_cap_w", t, self.server.provisioned_power_w
                    )
                if self.meter.last_reading is not None:
                    energy.record(self.meter.last_reading)
                if be is not None and self.be_app is not None:
                    be_alloc = self.server.allocation_of(be)
                    norm = self.be_app.normalized_throughput(be_alloc)
                    telemetry.record("be_throughput_norm", t, norm)
                    telemetry.record("be_freq_ghz", t, be_alloc.freq_ghz)
                    telemetry.record("be_duty", t, be_alloc.duty_cycle)

        be_norm_series = telemetry.series("be_throughput_norm")
        avg_norm = be_norm_series.mean() if not be_norm_series.empty else 0.0
        avg_abs = (
            avg_norm * self.be_app.peak_throughput if self.be_app is not None else 0.0
        )
        avg_power = telemetry.series("power_w").mean()
        return ColocationResult(
            lc_name=self.lc_app.name,
            be_name=self.be_app.name if self.be_app is not None else None,
            duration_s=duration_s,
            avg_be_throughput_norm=avg_norm,
            avg_be_throughput_abs=avg_abs,
            avg_lc_load_fraction=telemetry.series("lc_load_fraction").mean(),
            avg_power_w=avg_power,
            power_utilization=avg_power / self._base_provisioned_w,
            energy_kwh=energy.kwh,
            slo_violation_fraction=violations / max(1, n_ticks),
            cap_stats=self.capper.stats,
            manager_stats=self.manager.stats,
            telemetry=telemetry,
            guard_report=monitor.report() if monitor is not None else None,
        )


def build_colocated_server(
    spec: ServerSpec,
    lc_app: LatencyCriticalApp,
    provisioned_power_w: float,
    be_app: Optional[BestEffortApp] = None,
    name: str = "server-0",
) -> Server:
    """Assemble a server with the LC tenant (full box) and an empty BE slot.

    The LC app starts on the full allocation — the safe state capacity
    planning provisions for — and the manager shrinks it from there.
    """
    server = Server(spec=spec, provisioned_power_w=provisioned_power_w, name=name)
    server.attach(lc_app.name, lc_app, role=PRIMARY)
    server.apply_allocation(lc_app.name, spec.full_allocation())
    if be_app is not None:
        server.attach(be_app.name, be_app, role=SECONDARY)
    return server
