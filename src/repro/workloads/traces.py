"""Load traces for latency-critical applications.

The paper's primary applications see "dynamic variations, such as diurnal
load behavior" (Fig 1); the evaluation averages over "a uniform load
distribution from 10% to 90% in steps of 10%" (Section V-D).  This module
provides both, plus step traces for controller testing and the
weekday/weekend (:class:`WeeklyTrace`) and load-spike
(:class:`FlashCrowdTrace`) shapes of a production week.

A trace maps simulation time (seconds) to a *load fraction* in [0, 1] —
the fraction of the application's peak load currently offered.  Traces are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.errors import ConfigError

#: The evaluation's load levels (Section V-D).
UNIFORM_EVAL_LEVELS: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))

DAY_S = 86_400.0
WEEK_S = 7 * DAY_S


@runtime_checkable
class LoadTrace(Protocol):
    """Anything that yields an offered load fraction at a given time."""

    def load_fraction(self, time_s: float) -> float:
        """Offered load as a fraction of peak, in [0, 1]."""
        ...


@dataclass(frozen=True)
class ConstantTrace:
    """A fixed operating point — one level of the evaluation sweep."""

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError("load fraction must lie in [0, 1]")

    def load_fraction(self, time_s: float) -> float:
        """The constant fraction, regardless of time."""
        return self.fraction


@dataclass(frozen=True)
class DiurnalTrace:
    """Smooth day/night load curve (the Fig 1 motivation shape).

    ``load(t) = mid + amp * cos(2*pi*(t - peak_time)/DAY_S)^sharpness``
    so the maximum (``max_fraction``) occurs at ``peak_time_s`` and the
    minimum (``min_fraction``) half a day later.  An odd ``sharpness``
    above 1 narrows both the peak and the trough, concentrating time near
    the mid-load shoulders while preserving the extremes.
    """

    min_fraction: float = 0.1
    max_fraction: float = 0.9
    peak_time_s: float = 14.0 * 3600.0
    sharpness: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_fraction <= self.max_fraction <= 1.0:
            raise ConfigError("need 0 <= min_fraction <= max_fraction <= 1")
        if self.sharpness < 1 or self.sharpness % 2 == 0:
            raise ConfigError("sharpness must be an odd positive integer")

    def load_fraction(self, time_s: float) -> float:
        """Offered load at ``time_s``; periodic with one day."""
        phase = 2.0 * math.pi * (time_s - self.peak_time_s) / DAY_S
        shaped = math.cos(phase) ** self.sharpness
        mid = 0.5 * (self.max_fraction + self.min_fraction)
        amp = 0.5 * (self.max_fraction - self.min_fraction)
        return mid + amp * shaped


@dataclass(frozen=True)
class StepTrace:
    """Piecewise-constant trace from (time, fraction) breakpoints.

    Used for controller transient tests (e.g. the Section II-C "load
    increases from 50 % to 80 %" reclamation scenario).  Before the first
    breakpoint the first fraction applies.
    """

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigError("step trace needs at least one breakpoint")
        times = [t for t, _ in self.steps]
        if times != sorted(times):
            raise ConfigError("step breakpoints must be in time order")
        for _, frac in self.steps:
            if not 0.0 <= frac <= 1.0:
                raise ConfigError("load fractions must lie in [0, 1]")

    @staticmethod
    def of(*steps: Tuple[float, float]) -> "StepTrace":
        """Convenience constructor: ``StepTrace.of((0, .5), (60, .8))``."""
        return StepTrace(steps=tuple(steps))

    def load_fraction(self, time_s: float) -> float:
        """The fraction of the latest breakpoint at or before ``time_s``."""
        current = self.steps[0][1]
        for t, frac in self.steps:
            if time_s >= t:
                current = frac
            else:
                break
        return current


@dataclass(frozen=True)
class WeeklyTrace:
    """Diurnal base with per-day-of-week scaling.

    ``day_factors[d]`` scales day ``d`` (0 = the trace's epoch day); the
    default profile slumps ~35 % on days 5-6 — the weekend shape of
    office-hours services.  Output is clipped to [0, 1].
    """

    base: DiurnalTrace = DiurnalTrace()
    day_factors: Tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0, 0.65, 0.6)

    def __post_init__(self) -> None:
        if len(self.day_factors) != 7:
            raise ConfigError("need exactly seven day factors")
        if any(f < 0 for f in self.day_factors):
            raise ConfigError("day factors cannot be negative")

    def load_fraction(self, time_s: float) -> float:
        """Scaled diurnal load at ``time_s``; periodic over the week."""
        day = int((time_s % WEEK_S) // DAY_S)
        value = self.base.load_fraction(time_s) * self.day_factors[day]
        return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class FlashCrowdTrace:
    """A base trace plus scheduled spikes.

    Each event is ``(start_s, duration_s, magnitude)``: during the
    event, load is lifted toward 1.0 by ``magnitude`` (0.5 closes half
    the gap to full load; 1.0 pegs it).  The decay after ``duration_s``
    is exponential with ``decay_s`` — crowds disperse, they don't
    vanish.
    """

    base: LoadTrace
    events: Tuple[Tuple[float, float, float], ...]
    decay_s: float = 600.0

    def __post_init__(self) -> None:
        for start, duration, magnitude in self.events:
            if start < 0 or duration <= 0:
                raise ConfigError("events need start >= 0 and duration > 0")
            if not 0.0 <= magnitude <= 1.0:
                raise ConfigError("event magnitude must lie in [0, 1]")
        if self.decay_s <= 0:
            raise ConfigError("decay must be positive")

    def load_fraction(self, time_s: float) -> float:
        """Base load lifted by any active (or decaying) events."""
        value = self.base.load_fraction(time_s)
        for start, duration, magnitude in self.events:
            if time_s < start:
                continue
            if time_s <= start + duration:
                lift = magnitude
            else:
                lift = magnitude * float(
                    np.exp(-(time_s - start - duration) / self.decay_s)
                )
            value = value + lift * (1.0 - value)
        return min(1.0, max(0.0, value))


def uniform_levels(start: float = 0.1, stop: float = 0.9, step: float = 0.1) -> List[float]:
    """The paper's static evaluation levels: ``start..stop`` inclusive.

    Defaults to the Section V-D sweep (10 % to 90 % in steps of 10 %).
    """
    if step <= 0:
        raise ConfigError("step must be positive")
    if stop < start:
        raise ConfigError("stop must be >= start")
    n = int(round((stop - start) / step))
    levels = [round(start + i * step, 10) for i in range(n + 1)]
    for level in levels:
        if not 0.0 <= level <= 1.0:
            raise ConfigError("levels must lie in [0, 1]")
    return levels
