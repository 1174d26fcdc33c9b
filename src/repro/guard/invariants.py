"""Checkable runtime safety contracts for the colocation control stack.

Pocolo's premise is operating *at* the power cap safely; everything else
in this repo simulates controllers that are supposed to uphold a handful
of contracts no matter which faults are active, which solver fell back,
or which checkpoint a sweep resumed from.  This module states those
contracts as data — an :class:`InvariantRegistry` of small stateful
checkers evaluated once per control tick against a :class:`GuardSample`
snapshot of the live simulation:

``power-cap``
    True server draw never exceeds the provisioned capacity plus a
    bounded envelope (meter-noise margin, the sensing error a correct
    controller *cannot* see during an active negative meter drift, and
    the best-effort floor draw while the watchdog's safe mode holds),
    for more than ``cap_grace_steps`` consecutive control ticks.
``energy-conservation``
    The per-tenant attributed power (active + apportioned idle, the
    power-containers split of :mod:`repro.hwmodel.attribution`) sums
    back to the true server draw within tolerance, every tick.
``lc-slo-floor``
    The latency-critical primary always exists, always holds at least
    its paper-defined floor share (``lc_min_cores`` cores and
    ``lc_min_ways`` LLC ways), and is never duty-cycled — the cap loop
    throttles best-effort tenants only.
``budget-conservation``
    Tenant allocations never oversubscribe the box: cores and ways sum
    to at most the spec's totals, duty cycles stay in [0, 1], and every
    frequency stays on the DVFS ladder.
``monotonic-time``
    The simulation clock strictly advances between control ticks.
``rng-isolation``
    No component draws from numpy's *global* legacy RNG mid-run — the
    reproducibility contract that makes cells pure functions of their
    seeds (and checkpoint resume bit-identical).

Each invariant yields :class:`Violation` records; the monitor decides
whether to collect them (``record`` mode) or raise
:class:`~repro.errors.InvariantViolationError` (``enforce`` mode).

Two further invariants guard the *hierarchical budget* layer
(:mod:`repro.budget`).  They share the :class:`Invariant` base and the
monitor, but run at plan time over :class:`BudgetSample` snapshots of
the arbiter's tree, not per control tick:

``grant-conservation``
    At every tree node, the caps the arbiter issues to its children
    never exceed the node's capacity beyond the configured controlled
    oversubscription.
``rack-overcommit``
    The caps *in force* at a rack (issued or stale) never exceed its
    deliverable capacity for longer than the lease grace window — the
    bound the lease protocol exists to enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import ConfigError
from repro.faults.schedule import FaultSchedule, MeterDrift
from repro.guard.tolerance import exceeds_cap, tolerance_band
from repro.hwmodel.attribution import AttributedPowerMeter
from repro.hwmodel.server import Server

if TYPE_CHECKING:  # layering: guard sits below the sim loop
    from repro.core.server_manager import ServerManagerBase
    from repro.hwmodel.capping import PowerCapController

#: Guard evaluation modes.
MODE_RECORD = "record"
MODE_ENFORCE = "enforce"

#: A step *down* in the effective cap (a budget lease expiring, the
#: arbiter curtailing a rack) grants the cap loop a decaying extra
#: allowance equal to the drop: the 100 ms loop needs several duty steps
#: to shed that many watts, and the excursion is the *plan's* doing, not
#: the controller's.  It decays by ``CAP_RAMP_DECAY`` per control tick
#: and snaps to zero below ``CAP_RAMP_MIN_W``; a constant cap keeps it 0.0.
CAP_RAMP_DECAY = 0.5
CAP_RAMP_MIN_W = 0.5


@dataclass(frozen=True)
class GuardConfig:
    """Per-invariant tolerances and the record/enforce switch.

    Frozen and hashable so a config can ride inside cell-dedupe keys and
    the checkpoint ``run_key`` — two guarded cells with equal configs
    are the same computation.

    ``cap_margin_w`` absorbs meter noise and one throttle step of
    actuation granularity; ``cap_grace_steps`` is how many *consecutive*
    over-envelope control ticks are forgiven (a correct controller needs
    a few 100 ms samples to see and squash an excursion).
    ``max_violations`` bounds the per-cell record-mode ledger so a
    hopelessly broken run cannot exhaust memory.

    ``deep_check_every`` strides the two *cumulative* checks — energy
    conservation and RNG isolation — whose failure states persist once
    entered (an accounting bug does not fix itself; the global RNG
    never un-advances).  Evaluating them every Nth tick catches every
    violation with at most ``N - 1`` ticks of timestamp slack, while
    keeping guard overhead within the perf budget; the control-loop
    contracts (cap, floor, budget, time) stay strictly per-tick.
    """

    mode: str = MODE_RECORD
    cap_margin_w: float = 3.0
    cap_grace_steps: int = 3
    energy_abs_tol_w: float = 1e-6
    energy_rel_tol: float = 1e-9
    lc_min_cores: int = 1
    lc_min_ways: int = 1
    check_rng: bool = True
    max_violations: int = 100
    deep_check_every: int = 8

    def __post_init__(self) -> None:
        if self.mode not in (MODE_RECORD, MODE_ENFORCE):
            raise ConfigError(
                f"guard mode must be {MODE_RECORD!r} or {MODE_ENFORCE!r}, "
                f"got {self.mode!r}"
            )
        if not math.isfinite(self.cap_margin_w):
            raise ConfigError(f"cap margin must be finite; got {self.cap_margin_w!r}")
        if self.cap_grace_steps < 0:
            raise ConfigError("cap grace steps cannot be negative")
        for name in ("energy_abs_tol_w", "energy_rel_tol"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite; got {value!r}")
        if self.lc_min_cores < 1 or self.lc_min_ways < 1:
            raise ConfigError("the LC floor share must be at least one unit")
        if self.max_violations < 1:
            raise ConfigError("max_violations must be at least 1")
        if self.deep_check_every < 1:
            raise ConfigError("deep_check_every must be at least 1")

    @property
    def enforcing(self) -> bool:
        """True when violations raise instead of being recorded."""
        return self.mode == MODE_ENFORCE


@dataclass(frozen=True)
class Violation:
    """One invariant breach at one control tick, as plain data."""

    invariant: str
    time_s: float
    message: str
    observed: float
    limit: float

    def render(self) -> str:
        """The one-line human rendering used by reports and exceptions."""
        return (
            f"[{self.invariant}] t={self.time_s:g}s: {self.message} "
            f"(observed {self.observed:.6g}, limit {self.limit:.6g})"
        )


@dataclass(frozen=True)
class GuardReport:
    """What the guards saw over one simulated run.

    ``violations`` is capped at the config's ``max_violations``;
    ``total_violations`` keeps the true count so truncation is visible.
    Plain frozen data — pickles into checkpoints unchanged.
    """

    mode: str
    checks: int
    total_violations: int
    violations: Tuple[Violation, ...]

    @property
    def clean(self) -> bool:
        """True when no invariant was ever violated."""
        return self.total_violations == 0

    @property
    def truncated(self) -> bool:
        """True when ``violations`` holds fewer entries than occurred."""
        return self.total_violations > len(self.violations)

    def count(self, invariant: str) -> int:
        """Recorded violations of one invariant (post-truncation)."""
        return sum(1 for v in self.violations if v.invariant == invariant)


@dataclass
class GuardSample:
    """One control tick's snapshot handed to every invariant.

    Everything is a live reference into the running simulation —
    invariants read, never mutate, and never draw from ``rng``.
    """

    time_s: float
    in_window: bool
    power_w: float
    server: Server
    capper: "PowerCapController"
    manager: "ServerManagerBase"
    faults: Optional[FaultSchedule]
    rng: np.random.Generator
    #: True on the run's last control tick.  The strided cumulative
    #: checks (energy conservation, RNG isolation) always evaluate on a
    #: final sample, so a cell shorter than ``deep_check_every`` ticks
    #: cannot skip them entirely.
    final: bool = False


@dataclass(frozen=True)
class BudgetSample:
    """One budget-tree node's state at one arbiter period boundary.

    Pure data (unlike :class:`GuardSample`'s live references): the
    budget invariants audit the *plan*, which exists before any
    simulation state does.  ``issued`` distinguishes a live arbiter
    tick (fresh assignments) from an in-force audit of a period the
    arbiter missed — stale grants are legitimate there, up to the
    lease grace the rack-overcommit invariant enforces.
    """

    time_s: float
    node: str
    committed_w: float
    capacity_w: float
    oversubscription: float
    issued: bool
    lease_s: float
    period_s: float
    #: The least the arbiter can physically issue to this node's
    #: children (the sum of their emergency minimums — caps below
    #: ``MIN_CAP_FRACTION`` of a floor cannot be enforced by a capper).
    #: When a fault collapses capacity beneath this, issuing it is the
    #: arbiter doing its best, not over-committing.
    min_deliverable_w: float = 0.0

    @property
    def limit_w(self) -> float:
        """The most the node's children may hold: capacity times ``1 +
        oversubscription`` or the emergency minimum, whichever is larger,
        plus :data:`BUDGET_SUM_TOL_W` of rounding slack.  Both budget
        invariants pass every sample whose ``committed_w`` is within it."""
        return (
            max(self.capacity_w * (1.0 + self.oversubscription), self.min_deliverable_w)
            + BUDGET_SUM_TOL_W
        )


#: The snapshot an invariant reads: one control tick of a live run, or
#: one budget-tree node at one arbiter period.
SampleT = TypeVar("SampleT", GuardSample, BudgetSample)


class Invariant(Generic[SampleT]):
    """Base class: one named, stateful safety check over one sample type."""

    name: str = ""

    def __init__(self, config: GuardConfig) -> None:
        self.config = config

    def observe(self, sample: SampleT) -> Optional[Violation]:
        """Check one sample; return a violation or None."""
        raise NotImplementedError

    def violation(
        self, sample: SampleT, message: str, observed: float, limit: float
    ) -> Violation:
        """Build a violation record anchored at the sample's clock."""
        return Violation(
            invariant=self.name,
            time_s=sample.time_s,
            message=message,
            observed=observed,
            limit=limit,
        )


class PowerCapInvariant(Invariant[GuardSample]):
    """True draw stays inside the cap envelope (Section IV-C's contract).

    The envelope adapts to what a *correct* controller can actually
    see and actuate:

    * ``cap_margin_w`` — meter noise plus one throttle step;
    * active negative :class:`~repro.faults.schedule.MeterDrift` bias —
      a meter under-reporting by ``b`` watts makes a true draw of
      ``cap + b`` look exactly on-cap, so during the drift window the
      blame belongs to the fault model, not the controller;
    * watchdog safe mode — the controller's contract degrades to "the
      primary alone fits under the cap" (best-effort tenants are pinned
      to their floor, whose small true draw is excused).

    Only excursions persisting *beyond* ``cap_grace_steps`` consecutive
    in-window control ticks count: the 100 ms loop needs a few samples
    to observe and squash a step change.

    Under a budget :class:`~repro.budget.schedule.CapSchedule` the
    effective cap moves mid-run; a step *down* additionally grants a
    decaying ramp allowance (see :data:`CAP_RAMP_DECAY`) so the
    controller is judged on how fast it *sheds* the drop, not punished
    for the instant the plan moved the goalposts.
    """

    name = "power-cap"

    def __init__(self, config: GuardConfig) -> None:
        super().__init__(config)
        self._streak = 0
        self._prev_cap_w: Optional[float] = None
        self._ramp_w = 0.0

    def _drift_allowance_w(self, sample: GuardSample) -> float:
        """Under-reporting bias of every active meter drift, in watts."""
        if sample.faults is None:
            return 0.0
        allowance = 0.0
        for drift in sample.faults.active(sample.time_s, MeterDrift):
            bias = drift.bias_at(sample.time_s)
            if bias < 0:
                allowance += -bias
        return allowance

    def _safe_mode_allowance_w(self, sample: GuardSample) -> float:
        """Floored best-effort draw excused while the watchdog holds."""
        if not sample.capper.safe_mode:
            return 0.0
        return sum(
            sample.server.tenant_power_w(name)
            for name in sample.server.secondary_tenants()
        )

    def _ramp_allowance_w(self, cap: float) -> float:
        """Decaying allowance tracking downward cap steps, in watts.

        The float op order here is mirrored bit-for-bit by the batched
        engine's lane arrays; a run whose cap never moves keeps the
        allowance at exactly 0.0.
        """
        ramp = self._ramp_w * CAP_RAMP_DECAY
        if self._prev_cap_w is not None and cap < self._prev_cap_w:
            ramp = ramp + (self._prev_cap_w - cap)
        if ramp < CAP_RAMP_MIN_W:
            ramp = 0.0
        self._ramp_w = ramp
        self._prev_cap_w = cap
        return ramp

    def observe(self, sample: GuardSample) -> Optional[Violation]:
        if not sample.in_window:
            return None
        cap = sample.server.provisioned_power_w
        margin = (
            self.config.cap_margin_w
            + self._drift_allowance_w(sample)
            + self._safe_mode_allowance_w(sample)
        ) + self._ramp_allowance_w(cap)
        if not exceeds_cap(sample.power_w, cap, margin):
            self._streak = 0
            return None
        self._streak += 1
        if self._streak <= self.config.cap_grace_steps:
            return None
        return self.violation(
            sample,
            f"true draw above the provisioned cap envelope for "
            f"{self._streak} consecutive control ticks",
            observed=sample.power_w,
            limit=cap + margin,
        )


class EnergyConservationInvariant(Invariant[GuardSample]):
    """Attributed per-tenant power sums back to the true server draw.

    The power-containers split (:class:`AttributedPowerMeter`) charges
    each tenant its active power plus a resource-proportional idle
    share; conservation means the split plus the unallocated idle
    remainder equals the box's true draw.  A noiseless attribution is
    exact, so any measurable error is an accounting bug (double-counted
    duty cycling, a tenant dropped from the sum, ...).
    """

    name = "energy-conservation"

    def __init__(self, config: GuardConfig) -> None:
        super().__init__(config)
        self._meter: Optional[AttributedPowerMeter] = None
        self._tick = 0

    def observe(self, sample: GuardSample) -> Optional[Violation]:
        # Cumulative check: an accounting bug persists, so a strided
        # evaluation still catches it (see GuardConfig.deep_check_every).
        # The final tick always evaluates so short cells cannot skip it.
        tick, self._tick = self._tick, self._tick + 1
        if tick % self.config.deep_check_every and not sample.final:
            return None
        if self._meter is None or self._meter.server is not sample.server:
            self._meter = AttributedPowerMeter(sample.server)
        error_w = self._meter.conservation_error_w(true_power_w=sample.power_w)
        limit = tolerance_band(
            sample.power_w,
            self.config.energy_abs_tol_w,
            self.config.energy_rel_tol,
        )
        if error_w <= limit:
            return None
        return self.violation(
            sample,
            "attributed tenant power does not sum to the true server draw",
            observed=error_w,
            limit=limit,
        )


class LcSloFloorInvariant(Invariant[GuardSample]):
    """The latency-critical primary keeps its floor share, always.

    The paper gives the primary absolute priority; the floor is the
    smallest allocation the control stack may ever leave it with —
    including during displaced-BE re-placement and safe mode.  The
    primary is also never duty-cycled: CPU-time limiting is the cap
    loop's last-resort knob for *best-effort* tenants only.
    """

    name = "lc-slo-floor"

    def observe(self, sample: GuardSample) -> Optional[Violation]:
        primary = sample.server.primary_tenant()
        if primary is None:
            return self.violation(
                sample, "server lost its primary tenant mid-run",
                observed=0.0, limit=1.0,
            )
        alloc = sample.server.allocation_of(primary)
        if alloc.cores < self.config.lc_min_cores:
            return self.violation(
                sample,
                f"primary {primary!r} starved below its core floor",
                observed=float(alloc.cores),
                limit=float(self.config.lc_min_cores),
            )
        if alloc.ways < self.config.lc_min_ways:
            return self.violation(
                sample,
                f"primary {primary!r} starved below its LLC-way floor",
                observed=float(alloc.ways),
                limit=float(self.config.lc_min_ways),
            )
        if alloc.duty_cycle < 1.0:
            return self.violation(
                sample,
                f"primary {primary!r} was duty-cycled",
                observed=alloc.duty_cycle,
                limit=1.0,
            )
        return None


class BudgetConservationInvariant(Invariant[GuardSample]):
    """Allocations never oversubscribe the box or leave the knob ranges."""

    name = "budget-conservation"

    def observe(self, sample: GuardSample) -> Optional[Violation]:
        spec = sample.server.spec
        total_cores = 0
        total_ways = 0
        for tenant in sample.server.tenants():
            alloc = sample.server.allocation_of(tenant)
            total_cores += alloc.cores
            total_ways += alloc.ways
            if not 0.0 <= alloc.duty_cycle <= 1.0:
                return self.violation(
                    sample,
                    f"tenant {tenant!r} duty cycle outside [0, 1]",
                    observed=alloc.duty_cycle, limit=1.0,
                )
            if not alloc.is_empty and not (
                spec.ladder.min_ghz - 1e-9
                <= alloc.freq_ghz
                <= spec.ladder.max_ghz + 1e-9
            ):
                return self.violation(
                    sample,
                    f"tenant {tenant!r} frequency off the DVFS ladder",
                    observed=alloc.freq_ghz, limit=spec.ladder.max_ghz,
                )
        if total_cores > spec.cores:
            return self.violation(
                sample, "tenant core allocations oversubscribe the socket",
                observed=float(total_cores), limit=float(spec.cores),
            )
        if total_ways > spec.llc_ways:
            return self.violation(
                sample, "tenant way allocations oversubscribe the LLC",
                observed=float(total_ways), limit=float(spec.llc_ways),
            )
        return None


class MonotonicTimeInvariant(Invariant[GuardSample]):
    """The simulation clock strictly advances between control ticks."""

    name = "monotonic-time"

    def __init__(self, config: GuardConfig) -> None:
        super().__init__(config)
        self._prev_s: Optional[float] = None

    def observe(self, sample: GuardSample) -> Optional[Violation]:
        prev = self._prev_s
        self._prev_s = sample.time_s
        if prev is not None and sample.time_s <= prev:
            return self.violation(
                sample, "control tick clock failed to advance",
                observed=sample.time_s, limit=prev,
            )
        return None


class RngIsolationInvariant(Invariant[GuardSample]):
    """Nothing draws from numpy's global legacy RNG during the run.

    Every cell builds its own ``default_rng(config.seed)``; a stray
    ``np.random.uniform(...)`` (the module-level singleton) would make
    results depend on execution order across cells — silently breaking
    dedupe, batched-versus-oracle equality and checkpoint-resume
    bit-identity.  The
    invariant fingerprints the global Mersenne Twister state on its
    first tick and verifies it never moves.
    """

    name = "rng-isolation"

    def __init__(self, config: GuardConfig) -> None:
        super().__init__(config)
        self._baseline: Optional[Tuple[str, bytes, int]] = None
        self._tick = 0

    @staticmethod
    def _fingerprint() -> Tuple[str, bytes, int]:
        # Reading the legacy global RNG is the point: the invariant
        # detects anyone *using* it.
        kind, keys, pos = np.random.get_state()[:3]  # pocolint: disable=determinism-taint
        return str(kind), np.asarray(keys).tobytes(), int(pos)

    def observe(self, sample: GuardSample) -> Optional[Violation]:
        if not self.config.check_rng:
            return None
        # Cumulative check: the global RNG never un-advances, so a
        # strided read still catches every stray draw (see
        # GuardConfig.deep_check_every).  The final tick always
        # evaluates so short cells cannot skip it.
        tick, self._tick = self._tick, self._tick + 1
        if tick % self.config.deep_check_every and not sample.final:
            return None
        current = self._fingerprint()
        if self._baseline is None:
            self._baseline = current
            return None
        if current == self._baseline:
            return None
        # Re-baseline so one stray draw reports once, not every tick.
        self._baseline = current
        return self.violation(
            sample,
            "numpy's global legacy RNG advanced mid-run (a component "
            "drew from np.random instead of its seeded generator)",
            observed=float(current[2]),
            limit=float("nan"),
        )


@dataclass
class InvariantRegistry(Generic[SampleT]):
    """The ordered set of invariants one guarded run evaluates.

    Order is part of determinism: violations are discovered (and the
    enforce-mode exception raised) in registry order within a tick.
    """

    invariants: List[Invariant[SampleT]] = field(default_factory=list)

    @staticmethod
    def default(config: GuardConfig) -> "InvariantRegistry[GuardSample]":
        """The full per-tick safety-contract set, in severity order."""
        return InvariantRegistry(invariants=[
            PowerCapInvariant(config),
            EnergyConservationInvariant(config),
            LcSloFloorInvariant(config),
            BudgetConservationInvariant(config),
            MonotonicTimeInvariant(config),
            RngIsolationInvariant(config),
        ])

    def names(self) -> Tuple[str, ...]:
        """Registered invariant names, in evaluation order."""
        return tuple(inv.name for inv in self.invariants)


# ----------------------------------------------------------------------
# Budget-tree invariants (evaluated at plan time by repro.budget)
# ----------------------------------------------------------------------

#: Absolute float slack for budget-sum comparisons, in watts.  Budget
#: arithmetic is a handful of additions over O(rack) terms; anything
#: beyond accumulated rounding dust is a real conservation breach.
BUDGET_SUM_TOL_W = 1e-6


class GrantConservationInvariant(Invariant[BudgetSample]):
    """The arbiter never issues more than a node can deliver.

    At every tree node, on every tick the arbiter actually runs, the
    caps issued to the node's children must sum to at most the node's
    capacity times ``1 + oversubscription`` (the *controlled*
    oversubscription CloudPowerCap-style arbiters may deliberately
    allow) — or to the node's emergency minimum when a fault collapses
    capacity beneath what the cappers can physically enforce.  A breach
    is an arbiter bug — fairness shares overflowing the pool, a crashed
    server's floor double-counted — never a fault's fault: faults
    shrink capacity *before* the arbiter assigns.
    """

    name = "grant-conservation"

    def observe(self, sample: BudgetSample) -> Optional[Violation]:
        if not sample.issued:
            return None
        limit = sample.limit_w
        if sample.committed_w <= limit:
            return None
        return self.violation(
            sample,
            f"caps issued to {sample.node!r} children exceed its capacity "
            "beyond the controlled-oversubscription bound",
            observed=sample.committed_w,
            limit=limit,
        )


class RackOvercommitInvariant(Invariant[BudgetSample]):
    """In-force caps above capacity never outlive the lease grace.

    Stale grants legitimately overcommit a rack whose capacity just
    collapsed (the arbiter may even be down) — but only until their
    leases run out.  Overcommit persisting beyond one lease period plus
    one arbiter period (the discretization slack of auditing at period
    boundaries) means an expiry was not enforced, which is precisely
    the failure mode lease-based granting exists to rule out.
    """

    name = "rack-overcommit"

    def __init__(self, config: GuardConfig) -> None:
        super().__init__(config)
        self._over_since_s: dict[str, float] = {}

    def observe(self, sample: BudgetSample) -> Optional[Violation]:
        limit = sample.limit_w
        if sample.committed_w <= limit:
            self._over_since_s.pop(sample.node, None)
            return None
        since_s = self._over_since_s.setdefault(sample.node, sample.time_s)
        grace_s = sample.lease_s + sample.period_s
        if sample.time_s - since_s <= grace_s:
            return None
        return self.violation(
            sample,
            f"rack {sample.node!r} in-force caps above capacity for "
            f"{sample.time_s - since_s:g}s, beyond the {grace_s:g}s lease "
            "grace (a grant outlived its lease)",
            observed=sample.committed_w,
            limit=limit,
        )
