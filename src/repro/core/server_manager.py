"""Server-level resource management (Section IV-C).

Two managers share one job — keep the primary latency-critical app inside
its SLO with at least a target latency slack, and hand everything else to
the best-effort app — but differ in *which* feasible allocation they pick
for the primary:

* :class:`HeraclesLikeManager` — the paper's baseline: a pure
  feedback controller in the style of Heracles [6].  It grows/shrinks the
  primary's allocation along a balanced path through the indifference
  region; "resources are not differentiated by their power use"
  (Section V-D).
* :class:`PowerOptimizedManager` (POM) — the paper's contribution: on a
  load or slack change it jumps straight to the *least-power* allocation
  the fitted Cobb-Douglas indirect utility model predicts for the current
  load ("done trivially using the analytical solution ... a constant time
  operation"), then fine-tunes with latency feedback — including a
  frequency trim when even the smallest allocation leaves excess slack.

Neither manager touches the best-effort tenant's frequency or duty cycle:
those belong to the power-cap loop
(:class:`~repro.hwmodel.capping.PowerCapController`).  The managers only
resize the BE app into whatever direct resources are spare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.utility import IndirectUtilityModel, integer_min_power_allocation
from repro.errors import CapacityError, ConfigError, SimulationError
from repro.hwmodel.server import Server
from repro.hwmodel.spec import Allocation

#: The paper's latency-slack target (Sections IV-C, V-D).
DEFAULT_SLACK_TARGET = 0.10

#: Slack above which managers consider the primary over-provisioned.
DEFAULT_SLACK_UPPER = 0.45

#: Heracles: consecutive high-slack steps before the primary shrinks.
SHRINK_PATIENCE = 3

#: Heracles: steps before the post-violation size floor decays (so a
#: load drop can reclaim it).
FLOOR_TTL = 60

#: POM: initial multiplicative load margin when translating measured
#: load into a capacity target; feedback adapts it online.
INITIAL_HEADROOM = 1.20

#: POM: the band the headroom feedback keeps the load margin within.
MIN_HEADROOM = 1.05
MAX_HEADROOM = 2.50

#: POM: consecutive model misses tolerated before the manager stops
#: trusting the fitted model.
DISTRUST_AFTER = 3

#: POM: control steps spent in the feedback-only fallback before the
#: model is given another chance.
RETRUST_AFTER = 15


@dataclass
class ManagerStats:
    """Counters for controller activity, used by reports and ablations.

    The degradation counters record graceful-degradation activity
    (``docs/FAULTS.md``): ``model_fallbacks`` counts entries into the
    model-distrust feedback mode of :class:`PowerOptimizedManager`,
    ``model_fallback_steps`` the control steps spent there, and
    ``solver_fallbacks`` the times an analytical/solver path failed and a
    conservative answer was substituted.
    """

    control_steps: int = 0
    reconfigurations: int = 0
    slo_violations: int = 0
    grow_actions: int = 0
    shrink_actions: int = 0
    model_fallbacks: int = 0
    model_fallback_steps: int = 0
    solver_fallbacks: int = 0

    @property
    def violation_fraction(self) -> float:
        """Fraction of control steps observed below zero slack."""
        return self.slo_violations / self.control_steps if self.control_steps else 0.0

    @property
    def model_fallback_fraction(self) -> float:
        """Fraction of control steps spent distrusting the fitted model."""
        return (
            self.model_fallback_steps / self.control_steps
            if self.control_steps else 0.0
        )


def balanced_allocation(spec, cores: int) -> Allocation:
    """A feasible indifference-region point on the balanced path.

    Cores and ways scale in the server's core:way proportion — the
    power-unaware walk both the Heracles-like baseline and POM's
    model-distrust fallback use.
    """
    way_per_core = spec.llc_ways / spec.cores
    c = max(1, min(spec.cores, cores))
    w = max(1, min(spec.llc_ways, round(c * way_per_core)))
    return Allocation(cores=c, ways=w, freq_ghz=spec.max_freq_ghz)


class ServerManagerBase:
    """Shared plumbing: slack bookkeeping and BE spare-resource handoff.

    Subclasses implement :meth:`_decide_primary_allocation`; the base
    class applies it (shrinking the BE tenant first so the primary's
    claim always succeeds — absolute priority) and then grants the BE
    tenant the new spare resources, preserving whatever frequency and
    duty cycle the power-cap loop last imposed.
    """

    power_aware = False

    def __init__(
        self,
        server: Server,
        slack_target: float = DEFAULT_SLACK_TARGET,
        slack_upper: float = DEFAULT_SLACK_UPPER,
    ) -> None:
        if not 0.0 <= slack_target < 1.0:
            raise ConfigError("slack target must lie in [0, 1)")
        if slack_upper <= slack_target:
            raise ConfigError("upper slack threshold must exceed the target")
        self.server = server
        self.slack_target = slack_target
        self.slack_upper = slack_upper
        self.stats = ManagerStats()
        if server.primary_tenant() is None:
            raise ConfigError("server has no primary tenant to manage")

    # ------------------------------------------------------------------
    def control_step(self, measured_load: float, measured_slack: float) -> Allocation:
        """One 1-second control decision (Section IV-C cadence).

        ``measured_load`` is the primary's current offered load in its
        own units; ``measured_slack`` is the observed p99 latency slack
        (1 - p99/SLO).  Returns the primary allocation now in force.
        """
        if measured_load < 0:
            raise ConfigError("measured load cannot be negative")
        self.stats.control_steps += 1
        if measured_slack < 0:
            self.stats.slo_violations += 1

        primary = self.server.primary_tenant()
        if primary is None:
            raise SimulationError(
                f"{type(self).__name__} on server {self.server.name!r}: "
                "primary tenant detached mid-control-loop"
            )
        current = self.server.allocation_of(primary)
        target = self._decide_primary_allocation(current, measured_load, measured_slack)
        if target != current:
            self._apply_primary(primary, target)
            self.stats.reconfigurations += 1
        else:
            self._refresh_secondary()
        return self.server.allocation_of(primary)

    # ------------------------------------------------------------------
    def _decide_primary_allocation(
        self, current: Allocation, measured_load: float, measured_slack: float
    ) -> Allocation:
        raise NotImplementedError

    def _apply_primary(self, primary: str, target: Allocation) -> None:
        be = self.server.secondary_tenant()
        be_state: Optional[Allocation] = None
        if be is not None:
            # Make room first: the primary has absolute priority — but
            # remember the BE tenant's throttle state across the move.
            be_state = self.server.allocation_of(be)
            self.server.release_allocation(be)
        self.server.apply_allocation(primary, target)
        self._refresh_secondary(previous=be_state)

    def _refresh_secondary(self, previous: Optional[Allocation] = None) -> None:
        """Grant the BE tenant everything the primary does not hold.

        The spare is computed against the *primary's* holdings (not the
        server's free pool — the BE tenant's own current holdings are
        spare by definition), so a steady primary leaves the BE
        allocation untouched.
        """
        be = self.server.secondary_tenant()
        if be is None:
            return
        primary = self.server.primary_tenant()
        if primary is None:
            raise SimulationError(
                f"{type(self).__name__} on server {self.server.name!r}: "
                "primary tenant detached while refreshing the BE spare grant"
            )
        prim = self.server.allocation_of(primary)
        spec = self.server.spec
        cores = spec.cores - prim.cores
        ways = spec.llc_ways - prim.ways
        current = self.server.allocation_of(be)
        if previous is None:
            previous = current
        if cores <= 0 or ways <= 0:
            if not current.is_empty:
                self.server.release_allocation(be)
            return
        freq = previous.freq_ghz if not previous.is_empty else spec.max_freq_ghz
        duty = previous.duty_cycle if not previous.is_empty else 1.0
        desired = Allocation(
            cores=cores, ways=ways,
            freq_ghz=spec.ladder.clamp(freq), duty_cycle=duty,
        )
        if desired != current:
            self.server.release_allocation(be)
            self.server.apply_allocation(be, desired)


class HeraclesLikeManager(ServerManagerBase):
    """Power-unaware feedback baseline (the Random policy's server half).

    Grows the primary when slack is below target and shrinks it when
    slack is comfortably above, moving along a *balanced* path: resources
    are added/removed in proportion to the server's core:way ratio, so
    the controller walks the indifference region without ever asking
    which direction is cheaper in watts.

    Heracles-style asymmetry keeps the SLO safe: growth is immediate and
    makes the grown size a floor that decays only after :data:`FLOOR_TTL`
    steps, so the primary cannot shrink back below it until then; and
    shrinking needs :data:`SHRINK_PATIENCE` consecutive high-slack
    observations.
    """

    power_aware = False

    def __init__(
        self,
        server: Server,
        slack_target: float = DEFAULT_SLACK_TARGET,
        slack_upper: float = DEFAULT_SLACK_UPPER,
    ) -> None:
        super().__init__(server, slack_target=slack_target, slack_upper=slack_upper)
        self._high_slack_streak = 0
        self._floor_cores = 1
        self._floor_age = 0

    def _decide_primary_allocation(
        self, current: Allocation, measured_load: float, measured_slack: float
    ) -> Allocation:
        spec = self.server.spec
        if current.is_empty:
            return self._balanced(1)
        self._floor_age += 1
        if self._floor_age > FLOOR_TTL:
            self._floor_cores = 1

        if measured_slack < self.slack_target:
            # Starved: grow immediately and keep the grown size as a floor
            # until it ages out.
            self.stats.grow_actions += 1
            self._high_slack_streak = 0
            self._floor_cores = min(spec.cores, current.cores + 1)
            self._floor_age = 0
            return self._balanced(current.cores + 1)

        if measured_slack > self.slack_upper:
            self._high_slack_streak += 1
            can_shrink = (
                self._high_slack_streak >= SHRINK_PATIENCE
                and current.cores - 1 >= self._floor_cores
            )
            if can_shrink:
                self.stats.shrink_actions += 1
                self._high_slack_streak = 0
                return self._balanced(current.cores - 1)
        else:
            self._high_slack_streak = 0
        return current

    def _balanced(self, cores: int) -> Allocation:
        """A feasible indifference-region point on the balanced path."""
        return balanced_allocation(self.server.spec, cores)


class PowerOptimizedManager(ServerManagerBase):
    """POM: model-guided least-power allocation + latency feedback.

    Parameters
    ----------
    server:
        The managed server (primary tenant already attached).
    model:
        The primary app's *fitted* indirect utility model; its
        performance unit is max-load-under-SLO, i.e. the same unit as
        ``measured_load``.

    When slack stays high at the smallest allocation the manager steps
    the primary's core frequency down (the "including core frequency"
    fine-tuning of Section IV-C).

    After :data:`DISTRUST_AFTER` consecutive *model misses* the manager
    stops trusting the fitted model.  A miss is a control step whose
    observed slack falls below target even though the model's last
    allocation promised (at full frequency) enough capacity for the
    currently measured load — i.e. the model overestimated, as a stale
    or mis-fitted model does.  Starvation during a load surge is *not*
    a miss; that is the feedback loop's normal business.  The manager
    then spends :data:`RETRUST_AFTER` control steps in the fallback
    (Heracles-style balanced feedback stepping, no model jumps) before
    the model gets another chance; persistent model error re-enters the
    fallback after further misses.
    """

    power_aware = True

    def __init__(
        self,
        server: Server,
        model: IndirectUtilityModel,
        slack_target: float = DEFAULT_SLACK_TARGET,
        slack_upper: float = DEFAULT_SLACK_UPPER,
    ) -> None:
        super().__init__(server, slack_target=slack_target, slack_upper=slack_upper)
        self.model = model
        self.headroom = INITIAL_HEADROOM
        self._miss_streak = 0
        self._fallback_steps_left = 0
        self._promised_capacity: Optional[float] = None
        self._promised_at_max_freq = True

    @property
    def distrusts_model(self) -> bool:
        """True while the manager is in the feedback-only fallback."""
        return self._fallback_steps_left > 0

    def _observe_model_miss(self, measured_load: float, measured_slack: float) -> None:
        """Update the distrust counter from the last promise vs. reality."""
        if self._promised_capacity is None or not self._promised_at_max_freq:
            return
        covered = measured_load <= self._promised_capacity * 0.95
        if measured_slack < self.slack_target and covered:
            self._miss_streak += 1
        else:
            self._miss_streak = 0

    def _feedback_allocation(
        self, current: Allocation, measured_slack: float
    ) -> Allocation:
        """Heracles-style balanced stepping, used while distrusting."""
        if current.is_empty:
            return balanced_allocation(self.server.spec, 1)
        if measured_slack < self.slack_target:
            return balanced_allocation(self.server.spec, current.cores + 1)
        if measured_slack > self.slack_upper:
            return balanced_allocation(self.server.spec, current.cores - 1)
        # In band: hold resources, but pin frequency to maximum — the
        # fallback never carries a trimmed frequency forward.
        return balanced_allocation(self.server.spec, current.cores)

    def _decide_primary_allocation(
        self, current: Allocation, measured_load: float, measured_slack: float
    ) -> Allocation:
        spec = self.server.spec

        # Feedback on the adaptive headroom: starved -> widen fast,
        # lavish -> narrow slowly (asymmetric, SLO-safety first).
        if measured_slack < self.slack_target:
            self.stats.grow_actions += 1
            self.headroom = min(MAX_HEADROOM, self.headroom * 1.25)
        elif measured_slack > self.slack_upper:
            self.stats.shrink_actions += 1
            self.headroom = max(MIN_HEADROOM, self.headroom * 0.93)

        # Model distrust: when predictions repeatedly miss observed
        # slack, fall back to pure feedback stepping for a while.
        self._observe_model_miss(measured_load, measured_slack)
        if self._fallback_steps_left == 0 and self._miss_streak >= DISTRUST_AFTER:
            self.stats.model_fallbacks += 1
            self._fallback_steps_left = RETRUST_AFTER
            self._miss_streak = 0
        if self._fallback_steps_left > 0:
            self._fallback_steps_left -= 1
            self.stats.model_fallback_steps += 1
            self._promised_capacity = None
            return self._feedback_allocation(current, measured_slack)

        target_capacity = max(measured_load, 1e-9) * self.headroom
        floor_perf = self.model.performance((1.0, 1.0))
        full_perf = self.model.performance((float(spec.cores), float(spec.llc_ways)))
        target_capacity = min(max(target_capacity, floor_perf), full_perf)
        try:
            alloc = integer_min_power_allocation(self.model, target_capacity, spec)
        except CapacityError:  # defensive: clamped above
            self.stats.solver_fallbacks += 1
            alloc = spec.full_allocation()

        # Frequency fine-tuning: when the smallest allocation still
        # leaves lavish slack, shed watts via DVFS; any slack shortfall
        # snaps the frequency back to maximum before resources grow.
        freq = spec.max_freq_ghz
        if not current.is_empty:
            at_floor = alloc.cores == current.cores and alloc.ways == current.ways
            if measured_slack > self.slack_upper and at_floor:
                freq = spec.ladder.step_down(current.freq_ghz)
            elif measured_slack >= self.slack_target:
                freq = current.freq_ghz
        self._promised_capacity = self.model.performance(
            (float(alloc.cores), float(alloc.ways))
        )
        self._promised_at_max_freq = freq >= spec.max_freq_ghz - 1e-9
        return Allocation(cores=alloc.cores, ways=alloc.ways, freq_ghz=freq)
