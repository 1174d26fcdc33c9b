"""Ground-truth application behaviour models.

The paper treats applications as black boxes observable through telemetry:
throughput (or max load under an SLO), tail latency, and attributed power
draw, as functions of the direct-resource allocation (cores, LLC ways) and
the DVFS operating point.  Since the Tailbench / Keras / PARSEC-style
binaries are not available here, this module provides the *ground truth*
that the simulated telemetry samples.

Design of the ground truth — and why it is faithful:

* **Performance** follows a Cobb-Douglas core
  ``(c/C)^a_c * (w/W)^a_w`` wrapped in a mild saturating non-linearity
  ``sat(x) = (1+k) x / (1 + k x)`` and scaled by a frequency term
  ``(f/f_max)^a_f`` and the duty cycle.  The paper *argues* (Section III,
  citing REF [8]) that real applications are approximately Cobb-Douglas in
  cores and ways; the saturation term deliberately breaks the exact
  functional form so that Pocolo's fitted model is an approximation of the
  world, not a tautology (the paper's fits land at R² 0.8-0.95, Fig 8 —
  ours do too, because of this mismatch plus measurement noise).
* **Power** is additive over resources (the premise of Eq. 2):
  ``static + c * p_core * phi^e + w * p_way * (s + (1-s) phi)`` with
  ``phi = f/f_max``.  Core power scales super-linearly with frequency
  (voltage scaling, e ≈ 2.2); way power has a static share plus an
  access-rate component linear in frequency.

Calibration of per-app parameters to the paper's anchor numbers lives in
:mod:`repro.apps.catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.hwmodel.spec import Allocation, ServerSpec

#: Exponent of core dynamic power in frequency (captures DVFS voltage scaling).
DEFAULT_FREQ_POWER_EXPONENT = 2.2

#: Static (frequency-independent) share of per-way LLC power.
DEFAULT_WAY_STATIC_SHARE = 0.3

#: Curvature of the saturating wrapper around the Cobb-Douglas core.
DEFAULT_SATURATION_KAPPA = 0.15


def saturate(x: float, kappa: float) -> float:
    """Mild concave saturation with ``saturate(0)=0`` and ``saturate(1)=1``.

    ``sat(x) = (1+kappa) x / (1 + kappa x)``.  For ``kappa=0`` this is the
    identity; small positive ``kappa`` boosts small allocations slightly
    and flattens near full allocation — the "diminishing returns at scale"
    every real workload shows, and the controlled model mismatch that
    keeps utility fitting honest.
    """
    if kappa < 0:
        raise ConfigError("saturation kappa cannot be negative")
    return (1.0 + kappa) * x / (1.0 + kappa * x)


def frequency_ratio(freq_ghz: float, spec: ServerSpec) -> float:
    """``phi = f / f_max``, capped at 1: the DVFS point both surfaces scale by."""
    return min(1.0, freq_ghz / spec.max_freq_ghz)


@dataclass(frozen=True)
class PerformanceSurface:
    """Ground-truth normalized performance over (cores, ways, freq, duty).

    ``normalized`` returns 1.0 at the full allocation of the reference
    server at maximum frequency and full duty cycle.

    Attributes
    ----------
    alpha_cores / alpha_ways:
        Direct-resource elasticities (the true ``a_j`` the fitting
        pipeline tries to recover, up to the saturation mismatch).
    alpha_freq:
        Throughput elasticity in frequency — how compute-bound the app is.
    saturation_kappa:
        Curvature of the saturating wrapper (0 disables it).
    """

    alpha_cores: float
    alpha_ways: float
    alpha_freq: float
    saturation_kappa: float = DEFAULT_SATURATION_KAPPA

    def __post_init__(self) -> None:
        if self.alpha_cores <= 0 or self.alpha_ways <= 0:
            raise ConfigError("direct-resource elasticities must be positive")
        if self.alpha_freq < 0:
            raise ConfigError("frequency elasticity cannot be negative")

    def resource_factor(self, cores: int, ways: int, spec: ServerSpec) -> float:
        """The saturated Cobb-Douglas core ``sat((c/C)^a_c * (w/W)^a_w)``."""
        core_frac = cores / spec.cores
        way_frac = ways / spec.llc_ways
        base = (core_frac ** self.alpha_cores) * (way_frac ** self.alpha_ways)
        return saturate(base, self.saturation_kappa)

    def freq_factor(self, freq_ghz: float, spec: ServerSpec) -> float:
        """The frequency term ``(f/f_max)^a_f``."""
        return frequency_ratio(freq_ghz, spec) ** self.alpha_freq

    def normalized(self, alloc: Allocation, spec: ServerSpec) -> float:
        """Normalized throughput in [0, ~1] at ``alloc`` on ``spec``."""
        if alloc.is_empty or alloc.ways == 0:
            return 0.0
        return (
            self.resource_factor(alloc.cores, alloc.ways, spec)
            * self.freq_factor(alloc.freq_ghz, spec)
            * alloc.duty_cycle
        )

    def normalized_table(
        self, spec: ServerSpec, cores: int, ways: int, freqs: Sequence[float]
    ) -> np.ndarray:
        """``normalized`` at duty 1.0 on a ``(cores+1, ways+1, freqs)`` grid.

        Each factor is evaluated once per (cores, ways) or per frequency
        by the scalar helpers above, then combined with the same multiply
        ``normalized`` performs (a duty of 1.0 multiplies exactly), so
        every entry is the bit-exact scalar value.  Row and column zero
        stay 0.0, as ``normalized`` returns for an empty allocation.
        """
        resource = np.array([
            [self.resource_factor(c, w, spec) for w in range(1, ways + 1)]
            for c in range(1, cores + 1)
        ])
        freq = np.array([self.freq_factor(f, spec) for f in freqs])
        table = np.zeros((cores + 1, ways + 1, len(freqs)))
        table[1:, 1:] = resource[:, :, None] * freq
        return table


@dataclass(frozen=True)
class PowerSurface:
    """Ground-truth active (above-idle) power over (cores, ways, freq).

    ``active_power_w`` deliberately ignores the duty cycle: the server
    facade scales tenant power by duty when aggregating, so applying it
    here too would double-count.
    """

    p_core_w: float
    p_way_w: float
    static_w: float = 0.0
    freq_exponent: float = DEFAULT_FREQ_POWER_EXPONENT
    way_static_share: float = DEFAULT_WAY_STATIC_SHARE

    def __post_init__(self) -> None:
        if self.p_core_w < 0 or self.p_way_w < 0 or self.static_w < 0:
            raise ConfigError("power coefficients cannot be negative")
        if not 0.0 <= self.way_static_share <= 1.0:
            raise ConfigError("way static share must lie in [0, 1]")

    def core_freq_factor(self, freq_ghz: float, spec: ServerSpec) -> float:
        """Per-core dynamic power's frequency scaling ``phi^e``."""
        return frequency_ratio(freq_ghz, spec) ** self.freq_exponent

    def way_freq_factor(self, freq_ghz: float, spec: ServerSpec) -> float:
        """Per-way power's frequency scaling ``s + (1-s) phi``."""
        s = self.way_static_share
        return s + (1.0 - s) * frequency_ratio(freq_ghz, spec)

    def active_power_w(self, alloc: Allocation, spec: ServerSpec) -> float:
        """Active power at ``alloc`` on ``spec`` (duty cycle NOT applied)."""
        if alloc.is_empty:
            return 0.0
        core_power = (
            alloc.cores * self.p_core_w
            * self.core_freq_factor(alloc.freq_ghz, spec)
        )
        way_power = (
            alloc.ways * self.p_way_w * self.way_freq_factor(alloc.freq_ghz, spec)
        )
        return self.static_w + core_power + way_power

    def active_power_table(
        self, spec: ServerSpec, cores: int, ways: int, freqs: Sequence[float]
    ) -> np.ndarray:
        """``active_power_w`` on a ``(cores+1, ways+1, freqs)`` grid.

        The frequency factors are evaluated once per frequency by the
        scalar helpers above and combined with ``active_power_w``'s own
        multiplies and adds in its order, so every entry is the bit-exact
        scalar value.  Row and column zero stay 0.0.
        """
        core_freq = np.array([self.core_freq_factor(f, spec) for f in freqs])
        way_freq = np.array([self.way_freq_factor(f, spec) for f in freqs])
        core_power = (np.arange(1, cores + 1) * self.p_core_w)[:, None] * core_freq
        way_power = (np.arange(1, ways + 1) * self.p_way_w)[:, None] * way_freq
        table = np.zeros((cores + 1, ways + 1, len(freqs)))
        table[1:, 1:] = (self.static_w + core_power[:, None, :]) + way_power[None, :, :]
        return table


@dataclass(frozen=True)
class ApplicationProfile:
    """One application's ground truth: identity + both surfaces.

    This is the simulation's replacement for "the binary running on the
    testbed".  Every observable the Pocolo pipeline consumes (profiling
    samples, online telemetry) derives from these two surfaces plus noise.
    """

    name: str
    domain: str
    perf: PerformanceSurface
    power: PowerSurface
    spec: ServerSpec

    def normalized_throughput(self, alloc: Allocation) -> float:
        """True normalized throughput at ``alloc`` (1.0 = full box, max freq)."""
        return self.perf.normalized(alloc, self.spec)

    def active_power_w(self, alloc: Allocation) -> float:
        """True active power at ``alloc`` — the :class:`PowerDrawModel` hook."""
        return self.power.active_power_w(alloc, self.spec)

    def server_power_w(self, alloc: Allocation) -> float:
        """Idle + this app's active power (running alone on the box)."""
        return self.spec.idle_power_w + self.active_power_w(alloc) * alloc.duty_cycle

    def true_preference_ratio(self) -> float:
        """Ground-truth indirect preference ratio cores:ways.

        ``(a_c / p_c) / (a_w / p_w)`` at max frequency — the quantity the
        fitted metric of Section III estimates.  Useful for testing that
        the pipeline recovers the right ordering.
        """
        return (self.perf.alpha_cores / self.power.p_core_w) / (
            self.perf.alpha_ways / self.power.p_way_w
        )


def measured(
    true_value: float,
    rng: Optional[np.random.Generator],
    noise_sigma: float,
) -> float:
    """Apply multiplicative lognormal measurement noise to a true value.

    Telemetry in the paper's platform (request counters, power meters)
    carries relative — not absolute — error, hence the lognormal model.
    Passing ``rng=None`` or ``noise_sigma=0`` returns the value unchanged.
    """
    if rng is None or noise_sigma <= 0 or true_value <= 0:
        return true_value
    return float(true_value * rng.lognormal(mean=0.0, sigma=noise_sigma))
