"""k-resource generalization: beyond (cores, ways).

Section III: "While the Edgeworth-box helps us to characterize this for
two-types of resources, we can represent this more generally for more
than two types of resources, and analytically reason about the demand
for these resources" — and Section V-G lists memory bandwidth, network
bandwidth and storage read bandwidth as substitutable resources the
framework applies to.

:class:`~repro.core.utility.IndirectUtilityModel` is already written for
k resources; this module supplies the missing pieces for k > 2:

* a ground-truth k-resource application model
  (:class:`KResourceProfile`) with the same saturating-Cobb-Douglas +
  additive-power structure as the 2-resource catalog — the default
  instantiation adds *memory bandwidth* (in allocation units of an
  MBA-style bandwidth allocator) as the third resource;
* profiling and log-linear fitting over k regressors
  (:func:`profile_k_resources`, :func:`fit_k_model`);
* an integer least-power projection for k dimensions
  (:func:`integer_min_power_allocation_k`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import measured, saturate
from repro.core.fitting import r_squared
from repro.core.utility import (
    CobbDouglasParams,
    IndirectUtilityModel,
    LinearPowerParams,
)
from repro.errors import CapacityError, ConfigError, ModelFitError

#: Default third-resource axis: memory-bandwidth allocation units
#: (an Intel MBA-style throttling level granting ~6 GB/s per unit).
DEFAULT_RESOURCE_NAMES: Tuple[str, ...] = ("cores", "ways", "membw")

#: ``analytics-3r``'s calibration: its indirect preference vector over
#: ``DEFAULT_RESOURCE_NAMES``, and the active and static power (W) of
#: the full allocation.
THREE_RESOURCE_PREFERENCES: Tuple[float, float, float] = (0.30, 0.25, 0.45)
THREE_RESOURCE_FULL_ACTIVE_W = 95.0
THREE_RESOURCE_STATIC_W = 4.0


@dataclass(frozen=True)
class KResourceProfile:
    """Ground truth for a k-resource application.

    Performance: ``saturate(prod (r_j / R_j)^alpha_j)`` normalized to 1.0
    at the full allocation; power: ``static + sum r_j * p_j`` (evaluated
    at maximum frequency — the k-resource analysis, like the paper's
    profiling, treats DVFS as a runtime knob, not a profiled axis).
    """

    name: str
    alphas: Tuple[float, ...]
    p: Tuple[float, ...]
    limits: Tuple[int, ...]
    static_w: float = 4.0
    saturation_kappa: float = 0.15

    def __post_init__(self) -> None:
        if not len(self.p) == len(self.limits) == len(self.alphas):
            raise ConfigError("alphas, p and limits must share length")
        if any(a <= 0 for a in self.alphas) or any(px <= 0 for px in self.p):
            raise ConfigError("elasticities and power coefficients must be positive")
        if any(limit < 1 for limit in self.limits):
            raise ConfigError("every resource limit must be at least 1")
        if self.static_w < 0:
            raise ConfigError("static power cannot be negative")

    @property
    def k(self) -> int:
        """Number of direct resources."""
        return len(self.alphas)

    def normalized_throughput(self, r: Sequence[float]) -> float:
        """True normalized performance at resource vector ``r``."""
        self._check(r)
        if any(x <= 0 for x in r):
            return 0.0
        base = math.exp(sum(
            a * math.log(x / limit)
            for a, x, limit in zip(self.alphas, r, self.limits)
        ))
        return saturate(base, self.saturation_kappa)

    def active_power_w(self, r: Sequence[float]) -> float:
        """True active power at resource vector ``r``."""
        self._check(r)
        return self.static_w + sum(x * px for x, px in zip(r, self.p))

    def true_preference_vector(self) -> Tuple[float, ...]:
        """Ground-truth normalized ``alpha_j / p_j``."""
        raw = [a / px for a, px in zip(self.alphas, self.p)]
        total = sum(raw)
        return tuple(v / total for v in raw)

    def _check(self, r: Sequence[float]) -> None:
        if len(r) != self.k:
            raise ConfigError(f"expected {self.k} resources, got {len(r)}")


def make_three_resource_app() -> KResourceProfile:
    """``analytics-3r``, a calibrated app over cores, LLC ways and memory
    bandwidth.

    Elasticities are ``(0.45, 0.25, 0.30)`` and limits ``(12, 20, 10)``.
    Power coefficients are derived from ``THREE_RESOURCE_PREFERENCES``
    exactly as in the 2-resource catalog: ``p_j ∝ alpha_j / pref_j``,
    scaled so the full allocation draws ``THREE_RESOURCE_FULL_ACTIVE_W``.
    """
    alphas = (0.45, 0.25, 0.30)
    limits = (12, 20, 10)
    raw_p = [a / pref for a, pref in zip(alphas, THREE_RESOURCE_PREFERENCES)]
    scale = (THREE_RESOURCE_FULL_ACTIVE_W - THREE_RESOURCE_STATIC_W) / sum(
        limit * px for limit, px in zip(limits, raw_p)
    )
    return KResourceProfile(
        name="analytics-3r",
        alphas=alphas,
        p=tuple(px * scale for px in raw_p),
        limits=limits,
        static_w=THREE_RESOURCE_STATIC_W,
    )


# ----------------------------------------------------------------------
# Profiling + fitting over k regressors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KResourceSample:
    """One k-resource profiling observation."""

    resources: Tuple[float, ...]
    perf: float
    power_w: float


def profiling_grid_k(
    limits: Sequence[int], points_per_axis: int = 4
) -> List[Tuple[int, ...]]:
    """A lattice over the k-dimensional allocation space."""
    if points_per_axis < 2:
        raise ConfigError("need at least 2 points per axis")
    axes = []
    for limit in limits:
        values = np.unique(
            np.round(np.linspace(1, limit, points_per_axis)).astype(int)
        )
        axes.append([int(v) for v in values])
    return [tuple(p) for p in itertools.product(*axes)]


def profile_k_resources(
    profile: KResourceProfile,
    grid: Sequence[Tuple[int, ...]],
    rng: Optional[np.random.Generator] = None,
    perf_noise: float = 0.10,
    power_noise: float = 0.05,
) -> List[KResourceSample]:
    """Sample (allocation → perf, power) with telemetry noise."""
    if not grid:
        raise ConfigError("profiling grid is empty")
    samples = []
    for point in grid:
        perf = measured(profile.normalized_throughput(point), rng, perf_noise)
        power = measured(profile.active_power_w(point), rng, power_noise)
        samples.append(
            KResourceSample(
                resources=tuple(float(x) for x in point),
                perf=perf, power_w=power,
            )
        )
    return samples


def fit_k_model(
    samples: Sequence[KResourceSample],
) -> Tuple[IndirectUtilityModel, float, float]:
    """Log-linear + linear least squares over the k regressors named by
    ``DEFAULT_RESOURCE_NAMES``.

    Returns ``(model, r2_perf, r2_power)``; the same recipe as the
    2-resource :mod:`repro.core.fitting`, generalized.
    """
    k = len(DEFAULT_RESOURCE_NAMES)
    usable = [s for s in samples if s.perf > 0]
    if len(usable) < k + 2:
        raise ModelFitError(f"need at least {k + 2} positive samples")
    for s in samples:
        if len(s.resources) != k:
            raise ModelFitError("sample arity disagrees with resource names")

    design = np.array(
        [[1.0] + [math.log(x) for x in s.resources] for s in usable]
    )
    target = np.array([math.log(s.perf) for s in usable])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ModelFitError("degenerate k-resource profiling grid")
    perf_params = CobbDouglasParams(
        alpha0=math.exp(coef[0]),
        alphas=tuple(max(1e-6, float(a)) for a in coef[1:]),
    )

    design_p = np.array([[1.0] + list(s.resources) for s in samples])
    target_p = np.array([s.power_w for s in samples])
    coef_p, _, rank_p, _ = np.linalg.lstsq(design_p, target_p, rcond=None)
    if rank_p < design_p.shape[1]:
        raise ModelFitError("degenerate k-resource profiling grid")
    power_params = LinearPowerParams(
        p_static=max(0.0, float(coef_p[0])),
        p=tuple(max(1e-6, float(px)) for px in coef_p[1:]),
    )

    model = IndirectUtilityModel(
        perf=perf_params, power=power_params, names=DEFAULT_RESOURCE_NAMES
    )
    r2_perf = r_squared(
        [s.perf for s in usable],
        [model.performance(s.resources) for s in usable],
    )
    r2_power = r_squared(
        [s.power_w for s in samples],
        [model.power_w(s.resources) for s in samples],
    )
    return model, r2_perf, r2_power


# ----------------------------------------------------------------------
# Integer least-power projection in k dimensions
# ----------------------------------------------------------------------

def integer_min_power_allocation_k(
    model: IndirectUtilityModel,
    perf_target: float,
    limits: Sequence[int],
) -> Tuple[int, ...]:
    """Discrete least-power k-vector reaching ``perf_target``.

    Rounds the continuous dual solution, searches the ±2
    lattice neighborhood for the cheapest feasible point, and repairs an
    infeasible rounding by greedily adding the unit with the best
    marginal performance per watt.  Raises :class:`CapacityError` when
    even the full allocation misses the target.
    """
    k = len(model.names)
    if len(limits) != k:
        raise ConfigError("limits arity disagrees with the model")
    full = tuple(float(x) for x in limits)
    if model.performance(full) < perf_target:
        raise CapacityError(
            f"even the full allocation reaches only "
            f"{model.performance(full):.4g} < {perf_target:.4g}"
        )
    cont = model.least_power_allocation(perf_target)
    center = [min(limits[j], max(1, round(cont[j]))) for j in range(k)]

    best: Optional[Tuple[float, Tuple[int, ...]]] = None
    offsets = itertools.product(range(-2, 3), repeat=k)
    for offset in offsets:
        point = tuple(center[j] + offset[j] for j in range(k))
        if any(not 1 <= point[j] <= limits[j] for j in range(k)):
            continue
        if model.performance(point) < perf_target:
            continue
        cost = model.power_w(point)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, point)
    if best is not None:
        return best[1]

    # Repair: greedy growth from the (clamped) center until feasible.
    point = list(center)
    for _ in range(sum(limits)):
        if model.performance(tuple(point)) >= perf_target:
            return tuple(point)
        candidates = []
        for j in range(k):
            if point[j] + 1 > limits[j]:
                continue
            trial = list(point)
            trial[j] += 1
            gain = model.performance(tuple(trial)) - model.performance(tuple(point))
            candidates.append((gain / model.power.p[j], j))
        if not candidates:
            break
        _, j = max(candidates)
        point[j] += 1
    if model.performance(tuple(point)) >= perf_target:
        return tuple(point)
    raise CapacityError(
        f"no integer allocation reaches performance {perf_target:.4g}"
    )  # pragma: no cover - full-allocation check above makes this unreachable
