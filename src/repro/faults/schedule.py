"""Seeded, time-triggered fault schedules for the control stack.

The paper's controllers claim resilience to "load uncertainties and model
inaccuracies" (Section IV-C); a production power-capped cluster also has
to survive *component* faults — meters that stick or drift, telemetry
pipelines that drop samples, fitted models that go stale, and servers
that crash outright.  This module is the fault *model*: small, composable
fault descriptions bound to time windows, collected in a
:class:`FaultSchedule` that the simulators consult each step.

Every fault is a frozen dataclass — a schedule is pure data, so two runs
with the same schedule and seed are bit-identical.  :meth:`FaultSchedule.random`
draws a reproducible random mix for soak-style testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Type, TypeVar

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Fault:
    """Base fault: active from ``start_s`` for ``duration_s`` seconds.

    ``duration_s = None`` means the fault never clears (a hard failure).
    """

    start_s: float = 0.0
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigError("fault start time cannot be negative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigError("fault duration must be positive (or None)")

    @property
    def end_s(self) -> float:
        """Exclusive end of the active window (inf for permanent faults)."""
        if self.duration_s is None:
            return float("inf")
        return self.start_s + self.duration_s

    def active(self, time_s: float) -> bool:
        """True while the fault is in force at ``time_s``."""
        return self.start_s <= time_s < self.end_s

    def ended(self, time_s: float) -> bool:
        """True once the fault's window has passed."""
        return time_s >= self.end_s


# ----------------------------------------------------------------------
# Meter faults (consumed by repro.faults.meter.FaultyPowerMeter)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MeterStuckAt(Fault):
    """The meter reports one constant value for the whole window.

    ``value_w = None`` freezes at the last reading taken before the fault
    struck (the classic stuck ADC); a float pins the output explicitly.
    """

    value_w: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.value_w is not None and self.value_w < 0:
            raise ConfigError("a meter cannot stick at negative watts")


@dataclass(frozen=True)
class MeterDrift(Fault):
    """Additive bias ramping at ``rate_w_per_s`` from ``bias_w`` onward.

    Models a decalibrating sensor; a negative rate under-reports, which
    is the dangerous direction for a power cap.
    """

    bias_w: float = 0.0
    rate_w_per_s: float = 0.5

    def bias_at(self, time_s: float) -> float:
        """The additive error at ``time_s`` (0 outside the window)."""
        if not self.active(time_s):
            return 0.0
        return self.bias_w + self.rate_w_per_s * (time_s - self.start_s)


@dataclass(frozen=True)
class MeterDropout(Fault):
    """The meter stops producing: callers see the last reading, stale."""


# ----------------------------------------------------------------------
# Control-plane faults (consumed by repro.sim.colocation.ColocationSim)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryGap(Fault):
    """Load/latency telemetry stops updating; the manager acts on stale
    measurements for the duration of the gap (Section IV-A's collection
    pipeline failing, not the app)."""


@dataclass(frozen=True)
class LoadSpike(Fault):
    """Transient multiplicative surge on the primary's offered load."""

    factor: float = 1.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 0:
            raise ConfigError("load spike factor must be positive")


@dataclass(frozen=True)
class ModelStaleness(Fault):
    """Swap a mis-fitted utility model into the manager mid-run.

    ``model`` is any :class:`~repro.core.utility.IndirectUtilityModel`;
    the original model is restored when the window closes (a refit
    landing).
    """

    model: object = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.model is None:
            raise ConfigError("model staleness fault needs a stale model")


# ----------------------------------------------------------------------
# Power-infrastructure faults (consumed by repro.budget.arbiter at plan
# time — they reshape budgets, not any single server's sensors)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RackPowerDerate(Fault):
    """A rack PDU delivers only ``factor`` of its rated capacity.

    Models a shared-feed curtailment (utility demand response, an
    upstream transformer running hot).  The budget arbiter sees the
    reduced capacity at its next tick and walks the rack down the
    brownout ladder as needed.
    """

    rack: str = ""
    factor: float = 0.7

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rack:
            raise ConfigError("a rack derate must name its rack")
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(
                f"derate factor must be in (0, 1); got {self.factor!r}"
            )


@dataclass(frozen=True)
class RackBreakerTrip(Fault):
    """A rack breaker trips; only a residual feed (if any) survives.

    ``residual`` is the fraction of rated capacity still deliverable
    (a secondary feed); the default 0.25 keeps the rack on the deepest
    brownout stage rather than dark, which is the recoverable scenario
    the ladder is designed for.  A residual below the arbiter's
    ``MIN_CAP_FRACTION`` makes the rack physically un-cappable — the
    chaos campaign uses that to surface power-cap violations.
    """

    rack: str = ""
    residual: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rack:
            raise ConfigError("a breaker trip must name its rack")
        if not 0.0 <= self.residual < 1.0:
            raise ConfigError(
                f"breaker residual must be in [0, 1); got {self.residual!r}"
            )


@dataclass(frozen=True)
class ArbiterCrash(Fault):
    """The budget arbiter is down; no grants are issued in the window.

    This is the fault the lease protocol exists for: outstanding grants
    keep their expiries, so every server reverts to its fail-safe floor
    within one lease period of the crash — the kill-the-arbiter drill
    in ``tests/test_budget_differential.py`` pins exactly that.  The
    window's end models the arbiter restarting (state restored from its
    checkpoint); granting resumes at the next tick.
    """


@dataclass(frozen=True)
class GrantLoss(Fault):
    """Grant messages to the named servers are lost in the window.

    An affected server keeps running on its *previous* grant until that
    lease expires, then reverts to its floor — the grant is stale, never
    forged.  An empty ``lc_names`` loses every server's grants (a dead
    management switch rather than one flaky NIC).
    """

    lc_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "lc_names", tuple(str(n) for n in self.lc_names)
        )

    def affects(self, lc_name: str) -> bool:
        """True when ``lc_name``'s grants are lost in this window."""
        return not self.lc_names or lc_name in self.lc_names


@dataclass(frozen=True)
class GrantDelay(Fault):
    """Grant messages issued in the window arrive ``delay_s`` late.

    A delayed grant takes effect late but its lease clock starts at
    *issue* time, so staleness is still bounded by one lease period; a
    delay longer than the arbiter period can even land a stale grant on
    top of a fresher one — the reordering hazard the rack-overcommit
    invariant watches for.
    """

    delay_s: float = 2.0
    lc_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay_s <= 0.0:
            raise ConfigError(
                f"grant delay must be positive; got {self.delay_s!r}"
            )
        object.__setattr__(
            self, "lc_names", tuple(str(n) for n in self.lc_names)
        )

    def affects(self, lc_name: str) -> bool:
        """True when ``lc_name``'s grants are delayed in this window."""
        return not self.lc_names or lc_name in self.lc_names


@dataclass(frozen=True)
class ServerRejoin:
    """A crashed server is repaired and rejoins the fleet.

    The mirror image of :class:`repro.faults.cluster.ServerCrash`, and
    like it *level-indexed*: cluster membership changes at sweep level
    boundaries, where cells are planned.  From ``at_level_index`` the
    server hosts cells again (initially BE-empty — its displaced
    co-runners may be re-placed onto it by the planner) and its floor
    re-enters the budget arbiter's rack capacity.  Rides in
    :class:`repro.faults.cluster.ClusterFaultPlan`, not in a
    :class:`FaultSchedule`.
    """

    lc_name: str
    at_level_index: int

    def __post_init__(self) -> None:
        if self.at_level_index < 1:
            raise ConfigError(
                "a rejoin cannot precede the crash it repairs; "
                f"at_level_index must be >= 1, got {self.at_level_index}"
            )


F = TypeVar("F", bound=Fault)


class FaultSchedule:
    """An ordered, queryable collection of time-triggered faults.

    The schedule is consulted with the simulation clock; it never keeps
    per-run state, so one schedule can drive many runs deterministically.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        for f in faults:
            if not isinstance(f, Fault):
                raise ConfigError(f"not a fault: {f!r}")
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: (f.start_s, f.end_s))
        )

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def active(self, time_s: float, kind: Type[F] = Fault) -> Tuple[F, ...]:
        """All faults of ``kind`` in force at ``time_s``, in start order."""
        return tuple(
            f for f in self.faults if isinstance(f, kind) and f.active(time_s)
        )

    def first_active(self, time_s: float, kind: Type[F]) -> Optional[F]:
        """The earliest-starting active fault of ``kind``, if any."""
        for f in self.faults:
            if isinstance(f, kind) and f.active(time_s):
                return f
        return None

    def any_of(self, kind: Type[Fault]) -> bool:
        """True when the schedule contains at least one fault of ``kind``."""
        return any(isinstance(f, kind) for f in self.faults)

    def describe(self) -> List[str]:
        """One human-readable line per fault, in trigger order."""
        lines = []
        for f in self.faults:
            window = (
                f"t={f.start_s:g}s.." + ("end" if f.duration_s is None
                                         else f"{f.end_s:g}s")
            )
            lines.append(f"{type(f).__name__} [{window}]")
        return lines

    @classmethod
    def random(
        cls,
        seed: int,
        horizon_s: float,
        n_faults: int = 3,
        mean_duration_s: float = 10.0,
    ) -> "FaultSchedule":
        """A reproducible random mix of meter/telemetry/load faults.

        Draws fault kinds, start times and durations from a seeded
        generator — the soak-testing entry point.  Model-staleness and
        crash faults need external objects, so they are never drawn here.
        """
        if horizon_s <= 0:
            raise ConfigError("fault horizon must be positive")
        if n_faults < 0:
            raise ConfigError("fault count cannot be negative")
        rng = np.random.default_rng(seed)
        faults: List[Fault] = []
        for _ in range(n_faults):
            start = float(rng.uniform(0.0, horizon_s * 0.8))
            duration = float(min(
                max(1.0, rng.exponential(mean_duration_s)),
                horizon_s - start,
            ))
            kind = int(rng.integers(4))
            if kind == 0:
                faults.append(MeterStuckAt(start, duration))
            elif kind == 1:
                rate = float(rng.uniform(-2.0, 2.0))
                faults.append(MeterDrift(start, duration, rate_w_per_s=rate))
            elif kind == 2:
                faults.append(TelemetryGap(start, duration))
            else:
                factor = float(rng.uniform(1.2, 2.0))
                faults.append(LoadSpike(start, duration, factor=factor))
        return cls(faults)
