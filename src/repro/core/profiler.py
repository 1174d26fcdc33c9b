"""Profiling: sample (allocation → perf, power) through noisy telemetry.

Section IV-A: "We use samples of application performance and power under
different settings of the allocation of the direct resources using fine
grained resource allocation knobs ...  the power metrics are available
on-line through server/socket power meters."  And the guard: "we use
samples where the tail latency of the primary application has at least
10% slack with respect to its SLO latency."

The profiler sweeps a (cores, ways) grid at the maximum frequency —
frequency is a runtime control knob, not a profiled dimension — and
returns :class:`~repro.core.fitting.ProfileSample` lists ready for
fitting.  Measurement noise is multiplicative lognormal, applied to both
performance and attributed power, because that is what request counters
and power meters exhibit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.apps.base import measured
from repro.apps.best_effort import BestEffortApp
from repro.apps.latency_critical import LatencyCriticalApp
from repro.core.fitting import ProfileSample
from repro.errors import ConfigError
from repro.hwmodel.spec import Allocation, ServerSpec

#: The paper's latency-slack guard on usable LC profiling samples.
DEFAULT_SLACK_GUARD = 0.10

#: Default telemetry noise levels (relative sigma), chosen so the fitted
#: R² lands where the paper's does (Fig 8: 0.8-0.95 perf, 0.8-0.98 power).
DEFAULT_PERF_NOISE = 0.12
DEFAULT_POWER_NOISE = 0.05


def default_profiling_grid(
    spec: ServerSpec,
    core_step: int = 2,
    way_step: int = 3,
) -> List[Allocation]:
    """A coarse sweep over (cores, ways) including both axis extremes.

    With the reference server and default steps this yields a ~7x8 grid —
    about 50 operating points, roughly what an online profiler can visit
    in a few hours of off-peak operation.
    """
    if core_step < 1 or way_step < 1:
        raise ConfigError("grid steps must be positive")
    cores = sorted(set(list(range(1, spec.cores + 1, core_step)) + [spec.cores]))
    ways = sorted(set(list(range(1, spec.llc_ways + 1, way_step)) + [spec.llc_ways]))
    return [
        Allocation(cores=c, ways=w, freq_ghz=spec.max_freq_ghz)
        for c in cores
        for w in ways
    ]


def _apportioned_idle_w(alloc: Allocation, spec) -> float:
    """The tenant's share of idle power under the paper's accounting.

    Section IV-A apportions "static/leakage power of the CPU and LLC
    ways" per application; we charge half the idle power by core share
    and half by way share (see :mod:`repro.hwmodel.attribution`).
    """
    return spec.idle_power_w * 0.5 * (
        alloc.cores / spec.cores + alloc.ways / spec.llc_ways
    )


def profile_best_effort(
    app: BestEffortApp,
    grid: Sequence[Allocation],
    rng: Optional[np.random.Generator] = None,
    perf_noise: float = DEFAULT_PERF_NOISE,
    power_noise: float = DEFAULT_POWER_NOISE,
    apportion_idle: bool = False,
) -> List[ProfileSample]:
    """Profile a best-effort app: throughput + power per grid point.

    ``apportion_idle`` selects the power-accounting convention: False
    (default) samples the app's active power only — this reproduction's
    calibration baseline; True adds the app's share of server idle
    power, matching the paper's application-level power-meter
    apportionment.  The V3 benchmark compares the two conventions.
    """
    if not grid:
        raise ConfigError("profiling grid is empty")
    samples = []
    for alloc in grid:
        perf = app.measured_throughput(alloc, rng, perf_noise)
        true_power = app.active_power_w(alloc)
        if apportion_idle:
            true_power += _apportioned_idle_w(alloc, app.profile.spec)
        power = measured(true_power, rng, power_noise)
        samples.append(
            ProfileSample(cores=alloc.cores, ways=alloc.ways, perf=perf, power_w=power)
        )
    return samples


def profile_latency_critical(
    app: LatencyCriticalApp,
    grid: Sequence[Allocation],
    load_fraction: float = 0.3,
    rng: Optional[np.random.Generator] = None,
    perf_noise: float = DEFAULT_PERF_NOISE,
    power_noise: float = DEFAULT_POWER_NOISE,
    apportion_idle: bool = False,
) -> List[ProfileSample]:
    """Profile an LC app online while it serves ``load_fraction`` of peak.

    The performance metric per point is the estimated *max load within
    the SLO* (Section IV-A).  Points where the app would violate the
    ``DEFAULT_SLACK_GUARD`` latency slack at the current production load are
    dropped — profiling never endangers the SLO, and contaminated
    samples (queue build-up corrupts both throughput and power readings)
    are exactly the ones the paper's guard rejects.
    """
    if not grid:
        raise ConfigError("profiling grid is empty")
    if not 0.0 <= load_fraction <= 1.0:
        raise ConfigError("load fraction must lie in [0, 1]")
    load = load_fraction * app.peak_load
    samples = []
    for alloc in grid:
        if app.slack(load, alloc) < DEFAULT_SLACK_GUARD:
            continue
        perf = app.measured_capacity(alloc, rng, perf_noise)
        true_power = app.active_power_w(alloc)
        if apportion_idle:
            true_power += _apportioned_idle_w(alloc, app.profile.spec)
        power = measured(true_power, rng, power_noise)
        samples.append(
            ProfileSample(cores=alloc.cores, ways=alloc.ways, perf=perf, power_w=power)
        )
    return samples
