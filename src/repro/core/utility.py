"""Cobb-Douglas indirect utility: the paper's analytical engine (Section III).

The model (Eq. 1-2):

    Utility(r_1..r_k, Power) = a_0 * prod_j r_j^{a_j}
    subject to   p_static + sum_j r_j p_j <= Power

Two closed forms fall out of the first-order conditions, and both are
implemented here:

* **Primal (demand)** — the allocation maximizing utility under a power
  budget ``P``:  ``r_j = (P - p_static)/p_j * a_j / sum(a)``  (quoted
  verbatim in Section III).
* **Dual (least power)** — the allocation reaching a target performance
  ``U`` at minimum power: ``r_j = t * a_j/p_j`` with the scale ``t``
  solving ``a_0 * prod (t a_j/p_j)^{a_j} = U``, giving a total power of
  ``p_static + t * sum(a)``.  This is the dotted expansion path of Fig 5
  and what POM rides as load changes.

The scale-free **preference vector** ``a_j/p_j`` (normalized) is the
performance-per-watt ranking that drives placement (Sections III, V-C).

Everything is written for k resources; the rest of the system instantiates
k=2 with the canonical order ``("cores", "ways")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError, ConfigError
from repro.hwmodel.spec import Allocation, ServerSpec

#: Canonical resource order for the two-resource instantiation.
RESOURCES: Tuple[str, ...] = ("cores", "ways")


@dataclass(frozen=True)
class CobbDouglasParams:
    """Performance half of the model: ``perf = a0 * prod r_j^{a_j}``."""

    alpha0: float
    alphas: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.alpha0 <= 0:
            raise ConfigError("alpha0 must be positive")
        if not self.alphas or any(a <= 0 for a in self.alphas):
            raise ConfigError("every elasticity must be positive")

    @property
    def alpha_sum(self) -> float:
        """``sum_j a_j`` — the returns-to-scale exponent."""
        return sum(self.alphas)

    def performance(self, r: Sequence[float]) -> float:
        """Model performance at resource vector ``r`` (zeros give zero)."""
        self._check_len(r)
        if any(x < 0 for x in r):
            raise ConfigError("resource quantities cannot be negative")
        if any(x == 0 for x in r):
            return 0.0
        log_perf = math.log(self.alpha0) + sum(
            a * math.log(x) for a, x in zip(self.alphas, r)
        )
        return math.exp(log_perf)

    def _check_len(self, r: Sequence[float]) -> None:
        if len(r) != len(self.alphas):
            raise ConfigError(
                f"expected {len(self.alphas)} resources, got {len(r)}"
            )


@dataclass(frozen=True)
class LinearPowerParams:
    """Power half of the model: ``power = p_static + sum r_j p_j`` (Eq. 2)."""

    p_static: float
    p: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.p_static < 0:
            raise ConfigError("static power cannot be negative")
        if not self.p or any(x <= 0 for x in self.p):
            raise ConfigError("every marginal power coefficient must be positive")

    def power(self, r: Sequence[float]) -> float:
        """Model power draw at resource vector ``r``."""
        if len(r) != len(self.p):
            raise ConfigError(f"expected {len(self.p)} resources, got {len(r)}")
        if any(x < 0 for x in r):
            raise ConfigError("resource quantities cannot be negative")
        return self.p_static + sum(x * px for x, px in zip(r, self.p))


@dataclass(frozen=True)
class IndirectUtilityModel:
    """The joint model an application exposes to Pocolo once fitted.

    ``names`` labels the resource axes (default cores, ways).  All closed
    forms below treat resources as continuous; integer projection onto a
    server's discrete grid lives in :func:`integer_min_power_allocation`
    and :func:`integer_demand_allocation`.
    """

    perf: CobbDouglasParams
    power: LinearPowerParams
    names: Tuple[str, ...] = RESOURCES

    def __post_init__(self) -> None:
        if len(self.perf.alphas) != len(self.power.p):
            raise ConfigError("performance and power halves disagree on k")
        if len(self.names) != len(self.perf.alphas):
            raise ConfigError("resource names disagree with k")

    # ------------------------------------------------------------------
    # Direct evaluation
    # ------------------------------------------------------------------
    def performance(self, r: Sequence[float]) -> float:
        """Model performance at ``r``."""
        return self.perf.performance(r)

    def power_w(self, r: Sequence[float]) -> float:
        """Model power at ``r``."""
        return self.power.power(r)

    # ------------------------------------------------------------------
    # Preferences (Section III)
    # ------------------------------------------------------------------
    def preference_vector(self) -> Dict[str, float]:
        """Normalized ``a_j / p_j`` — the performance-per-watt ranking.

        "This metric provides the relative demand for direct resources
        that operates the application in the most power-efficient way
        irrespective of the load" (Section III).  Sums to 1.
        """
        raw = [a / p for a, p in zip(self.perf.alphas, self.power.p)]
        total = sum(raw)
        return {name: v / total for name, v in zip(self.names, raw)}

    def direct_preference_vector(self) -> Dict[str, float]:
        """Normalized ``a_j`` — power-*unaware* preferences (Fig 9)."""
        total = self.perf.alpha_sum
        return {name: a / total for name, a in zip(self.names, self.perf.alphas)}

    # ------------------------------------------------------------------
    # Primal: demand under a power budget
    # ------------------------------------------------------------------
    def demand(self, power_budget_w: float) -> Tuple[float, ...]:
        """Utility-maximizing resource vector under ``power_budget_w``.

        The Section III closed form:
        ``r_j = (P - p_static)/p_j * a_j / sum(a)``.
        Raises :class:`CapacityError` if the budget cannot even cover
        static power.
        """
        headroom = power_budget_w - self.power.p_static
        if headroom <= 0:
            raise CapacityError(
                f"budget {power_budget_w} W does not cover static power "
                f"{self.power.p_static} W"
            )
        alpha_sum = self.perf.alpha_sum
        return tuple(
            headroom / pj * (aj / alpha_sum)
            for aj, pj in zip(self.perf.alphas, self.power.p)
        )

    def max_performance_under_budget(self, power_budget_w: float) -> float:
        """Best achievable model performance under a power budget."""
        return self.performance(self.demand(power_budget_w))

    def constrained_demand(
        self, power_budget_w: float, ceiling: Sequence[float]
    ) -> Tuple[float, ...]:
        """Demand under a budget AND per-resource availability ceilings.

        Models the best-effort app's situation: it can only buy watts of
        resources that are actually spare.  Resources that hit their
        ceiling are frozen there and the residual budget is re-optimized
        over the rest (the standard KKT water-filling argument for
        Cobb-Douglas: a capped resource's multiplier absorbs the
        difference, the remainder re-solves as a smaller problem).
        """
        if len(ceiling) != len(self.names):
            raise ConfigError("ceiling length disagrees with k")
        if any(c < 0 for c in ceiling):
            raise ConfigError("ceilings cannot be negative")
        k = len(self.names)
        fixed: Dict[int, float] = {}
        for _ in range(k + 1):
            free = [j for j in range(k) if j not in fixed]
            if not free:
                break
            spent_on_fixed = sum(fixed[j] * self.power.p[j] for j in fixed)
            headroom = power_budget_w - self.power.p_static - spent_on_fixed
            if headroom <= 0:
                # Budget exhausted by capped resources: spend nothing more.
                return tuple(fixed.get(j, 0.0) for j in range(k))
            alpha_free = sum(self.perf.alphas[j] for j in free)
            newly_capped = False
            for j in free:
                want = headroom / self.power.p[j] * (self.perf.alphas[j] / alpha_free)
                if want > ceiling[j]:
                    fixed[j] = ceiling[j]
                    newly_capped = True
            if not newly_capped:
                result = [0.0] * k
                for j in range(k):
                    if j in fixed:
                        result[j] = fixed[j]
                    else:
                        result[j] = (
                            headroom / self.power.p[j]
                            * (self.perf.alphas[j] / alpha_free)
                        )
                return tuple(result)
        return tuple(fixed.get(j, 0.0) for j in range(k))

    # ------------------------------------------------------------------
    # Dual: least power for a target performance
    # ------------------------------------------------------------------
    def least_power_allocation(self, perf_target: float) -> Tuple[float, ...]:
        """Resource vector reaching ``perf_target`` at minimum model power.

        ``r_j = t * a_j / p_j`` with ``t`` solving the performance
        equation; see the module docstring for the derivation.
        """
        if perf_target <= 0:
            raise ConfigError("performance target must be positive")
        log_prod = sum(
            a * math.log(a / p)
            for a, p in zip(self.perf.alphas, self.power.p)
        )
        alpha_sum = self.perf.alpha_sum
        log_t = (math.log(perf_target / self.perf.alpha0) - log_prod) / alpha_sum
        t = math.exp(log_t)
        return tuple(t * a / p for a, p in zip(self.perf.alphas, self.power.p))

    def min_power_for_performance(self, perf_target: float) -> float:
        """Minimum model power reaching ``perf_target``.

        Equals ``p_static + t * sum(a)`` — linear in the Lagrange scale.
        """
        r = self.least_power_allocation(perf_target)
        return self.power.power(r)


# ----------------------------------------------------------------------
# Integer projection onto a server's discrete allocation grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelGrid:
    """Scalar-model evaluations cached on the integer allocation grid.

    ``perf[c, w]`` / ``power[c, w]`` hold ``model.performance((c, w))``
    and ``model.power_w((c, w))`` for ``1 <= c <= cores`` and
    ``1 <= w <= ways`` (index 0 rows/cols are inf power, 0 perf, and
    never selected).  Filling the grid costs ``cores * ways`` scalar
    calls once per (model, spec); every lookup afterwards is exact by
    construction.
    """

    perf: np.ndarray
    power: np.ndarray

    @property
    def full_perf(self) -> float:
        """Performance of the full box — the normalization denominator."""
        return float(self.perf[-1, -1])


#: (model, spec) -> its grid.  Models are frozen dataclasses, so equal
#: values share one grid whatever object carries them.
_MODEL_GRIDS: Dict[Tuple[IndirectUtilityModel, ServerSpec], ModelGrid] = {}


def model_grid(model: IndirectUtilityModel, spec: ServerSpec) -> ModelGrid:
    """The (cores+1, ways+1) grid of exact scalar evaluations, memoized.

    A model that cannot be hashed cannot key the memo; it gets a grid
    filled for this call alone.
    """
    key = (model, spec)
    try:
        grid = _MODEL_GRIDS.get(key)
    except TypeError:
        return _fill_model_grid(model, spec)
    if grid is None:
        grid = _MODEL_GRIDS[key] = _fill_model_grid(model, spec)
    return grid


def _fill_model_grid(model: IndirectUtilityModel, spec: ServerSpec) -> ModelGrid:
    perf = np.zeros((spec.cores + 1, spec.llc_ways + 1))
    power = np.full((spec.cores + 1, spec.llc_ways + 1), np.inf)
    for c in range(1, spec.cores + 1):
        for w in range(1, spec.llc_ways + 1):
            perf[c, w] = model.performance((float(c), float(w)))
            power[c, w] = model.power_w((float(c), float(w)))
    perf.setflags(write=False)
    power.setflags(write=False)
    return ModelGrid(perf=perf, power=power)


def integer_min_power_allocation(
    model: IndirectUtilityModel,
    perf_target: float,
    spec: ServerSpec,
    radius: int = 3,
) -> Allocation:
    """Discrete least-power allocation reaching ``perf_target`` on ``spec``.

    Rounds the continuous dual solution and searches the surrounding
    integer neighborhood (±``radius``) for the cheapest feasible point
    *according to the model*; "a constant time operation (less than a
    millisecond)" as the paper notes of the analytical solution
    (Section IV-C).  Every candidate is read from the (model, spec)
    :class:`ModelGrid`, whose entries are the scalar model's own values.
    Only valid for the two-resource instantiation.

    Raises :class:`CapacityError` when even the full server cannot reach
    the target under the model.
    """
    _require_two_resources(model)
    grid = model_grid(model, spec)
    full_perf = grid.full_perf
    if full_perf < perf_target:
        raise CapacityError(
            f"model says even the full server ({spec.cores}c/{spec.llc_ways}w) "
            f"reaches only {full_perf:.4g} < {perf_target:.4g}"
        )
    cont = model.least_power_allocation(perf_target)
    center_c = int(round(cont[0]))
    center_w = int(round(cont[1]))
    # The window, clipped to the grid: the in-bounds points in scan order.
    best = _cheapest_reaching(
        grid,
        perf_target,
        range(max(center_c - radius, 1), min(center_c + radius, spec.cores) + 1),
        range(max(center_w - radius, 1), min(center_w + radius, spec.llc_ways) + 1),
    )
    if best is None:
        # The rounded neighborhood missed; fall back to scanning the grid.
        best = _cheapest_reaching(
            grid,
            perf_target,
            range(1, spec.cores + 1),
            range(1, spec.llc_ways + 1),
        )
    if best is None:
        raise CapacityError(
            f"no integer allocation reaches performance {perf_target:.4g}"
        )  # pragma: no cover - full-server check above makes this unreachable
    _, c, w = best
    return Allocation(cores=c, ways=w, freq_ghz=spec.max_freq_ghz)


def _cheapest_reaching(
    grid: ModelGrid, perf_target: float, cores: range, ways: range
) -> Optional[Tuple[float, int, int]]:
    """``(power, cores, ways)`` of the first point, cores-major, whose
    power undercuts every earlier feasible one by more than 1e-12."""
    block = (slice(cores.start, cores.stop), slice(ways.start, ways.stop))
    perf_rows = grid.perf[block].tolist()
    power_rows = grid.power[block].tolist()
    best: Optional[Tuple[float, int, int]] = None
    for c, perf_row, power_row in zip(cores, perf_rows, power_rows):
        for w, perf, cost in zip(ways, perf_row, power_row):
            if perf < perf_target:
                continue
            if best is None or cost < best[0] - 1e-12:
                best = (cost, c, w)
    return best


def integer_demand_allocation(
    model: IndirectUtilityModel,
    power_budget_w: float,
    spec: ServerSpec,
    ceiling: Optional[Allocation] = None,
) -> Allocation:
    """Discrete utility-maximizing allocation under a power budget.

    Floors the continuous (possibly ceiling-constrained) demand and
    greedily spends leftover budget on whichever +1 increment buys the
    most performance per watt — respecting both the budget and the
    availability ceiling.  Returns the empty allocation when the budget
    cannot cover static power plus one unit of each resource.
    """
    _require_two_resources(model)
    max_c = spec.cores if ceiling is None else ceiling.cores
    max_w = spec.llc_ways if ceiling is None else ceiling.ways
    if max_c < 1 or max_w < 1:
        return Allocation.empty()
    try:
        cont = model.constrained_demand(power_budget_w, (float(max_c), float(max_w)))
    except CapacityError:
        return Allocation.empty()
    c = min(max_c, int(cont[0]))
    w = min(max_w, int(cont[1]))
    if c < 1 or w < 1:
        # Not enough budget for the proportional split; try the cheapest
        # viable corner before giving up.
        c, w = max(c, 1), max(w, 1)
        if model.power_w((c, w)) > power_budget_w:
            return Allocation.empty()
    # Greedy top-up.
    while True:
        candidates = []
        if c + 1 <= max_c and model.power_w((c + 1, w)) <= power_budget_w:
            gain = model.performance((c + 1, w)) - model.performance((c, w))
            candidates.append((gain / model.power.p[0], c + 1, w))
        if w + 1 <= max_w and model.power_w((c, w + 1)) <= power_budget_w:
            gain = model.performance((c, w + 1)) - model.performance((c, w))
            candidates.append((gain / model.power.p[1], c, w + 1))
        if not candidates:
            break
        _, c, w = max(candidates)
    return Allocation(cores=c, ways=w, freq_ghz=spec.max_freq_ghz)


def _require_two_resources(model: IndirectUtilityModel) -> None:
    if len(model.names) != 2:
        raise ConfigError(
            "integer projection is implemented for the (cores, ways) "
            "instantiation only"
        )
