"""Spatial sharing: partition spare resources among several BE apps.

Section V-G names this as future work: "Spatial sharing would entail
further partitioning of direct resources and power".  This module
implements it on top of the fitted indirect utility models: given the
spare (cores, ways), a best-effort power budget and the models of the
co-located best-effort applications, find the integer partition that
maximizes total *normalized* throughput.

The objective (a sum of Cobb-Douglas terms) is component-wise concave in
each tenant's resources.  For one or two tenants — the common cases when
one spare slice is split — the solver enumerates the option space
exactly (tens of thousands of cells at server scale, milliseconds of
work).  For three or more tenants it uses a marginal-gain-per-watt
greedy plus a portfolio of exact solo-tenant candidates; tests show this
lands within a few percent of optimal on representative instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.utility import IndirectUtilityModel
from repro.errors import CapacityError, ConfigError
from repro.hwmodel.spec import Allocation, ServerSpec


@dataclass(frozen=True)
class SpatialShare:
    """A spatial partition of the spare resources among BE tenants."""

    allocations: Dict[str, Allocation]
    predicted_total: float
    power_used_w: float

    def allocation_of(self, name: str) -> Allocation:
        """One tenant's share (empty allocation if it was shut out)."""
        return self.allocations.get(name, Allocation.empty())

    def active_tenants(self) -> Tuple[str, ...]:
        """Tenants that received a non-empty share."""
        return tuple(
            name for name, alloc in self.allocations.items() if not alloc.is_empty
        )


def _normalized_perf(model: IndirectUtilityModel, spec: ServerSpec,
                     cores: int, ways: int) -> float:
    if cores < 1 or ways < 1:
        return 0.0
    full = model.performance((float(spec.cores), float(spec.llc_ways)))
    return model.performance((float(cores), float(ways))) / full


def _power(model: IndirectUtilityModel, cores: int, ways: int) -> float:
    if cores < 1 or ways < 1:
        return 0.0
    return model.power_w((float(cores), float(ways)))


def _best_single(
    model: IndirectUtilityModel,
    spec: ServerSpec,
    max_cores: int,
    max_ways: int,
    budget_w: float,
) -> Tuple[Tuple[int, int], float]:
    """Exact best (cores, ways) for one tenant under the constraints."""
    best_choice = (0, 0)
    best_perf = 0.0
    for c in range(1, max_cores + 1):
        for w in range(1, max_ways + 1):
            if _power(model, c, w) > budget_w + 1e-9:
                continue
            perf = _normalized_perf(model, spec, c, w)
            if perf > best_perf + 1e-12:
                best_perf = perf
                best_choice = (c, w)
    return best_choice, best_perf


def _share_from(
    models: Dict[str, IndirectUtilityModel],
    spec: ServerSpec,
    shares: Dict[str, Tuple[int, int]],
) -> SpatialShare:
    allocations = {}
    total = 0.0
    power_used = 0.0
    for name, model in models.items():
        c, w = shares.get(name, (0, 0))
        if c >= 1 and w >= 1:
            allocations[name] = Allocation(cores=c, ways=w, freq_ghz=spec.max_freq_ghz)
            total += _normalized_perf(model, spec, c, w)
            power_used += _power(model, c, w)
        else:
            allocations[name] = Allocation.empty()
    return SpatialShare(
        allocations=allocations, predicted_total=total, power_used_w=power_used
    )


def partition_spare(
    models: Dict[str, IndirectUtilityModel],
    spare: Allocation,
    power_budget_w: float,
    spec: ServerSpec,
) -> SpatialShare:
    """Best spatial partition of ``spare`` + ``power_budget_w``.

    Exact for one or two tenants; high-quality heuristic for more.
    Tenants may be shut out entirely (empty allocation) when the budget
    or the spare is better spent on their co-runners — in that case the
    caller can time-share the shut-out tenant in later
    (:mod:`repro.sim.timeshare`).
    """
    if not models:
        raise ConfigError("need at least one best-effort model")
    if power_budget_w < 0:
        raise ConfigError("power budget cannot be negative")
    names = list(models)
    if spare.is_empty:
        return _share_from(models, spec, {})

    if len(names) == 1:
        choice, _ = _best_single(
            models[names[0]], spec, spare.cores, spare.ways, power_budget_w
        )
        return _share_from(models, spec, {names[0]: choice})

    if len(names) == 2:
        return exhaustive_partition(models, spare, power_budget_w, spec)

    if len(names) > min(spare.cores, spare.ways):
        raise CapacityError(
            f"{len(names)} tenants cannot each hold a core and a way of "
            f"a ({spare.cores}c, {spare.ways}w) spare; time-share instead"
        )
    greedy = _greedy_shares(models, spec, spare, power_budget_w)
    candidates = [greedy]
    for solo in names:
        choice, _ = _best_single(
            models[solo], spec, spare.cores, spare.ways, power_budget_w
        )
        candidates.append({solo: choice})
    best_shares = max(
        candidates,
        key=lambda s: _share_from(models, spec, s).predicted_total,
    )
    best_shares = _pairwise_refine(models, spec, best_shares, spare, power_budget_w)
    return _share_from(models, spec, best_shares)


def _pairwise_refine(
    models: Dict[str, IndirectUtilityModel],
    spec: ServerSpec,
    shares: Dict[str, Tuple[int, int]],
    spare: Allocation,
    power_budget_w: float,
) -> Dict[str, Tuple[int, int]]:
    """Re-split every tenant pair exactly, holding the others fixed.

    Each pass hands one pair its combined resources + budget headroom
    and re-solves that two-tenant subproblem with the exact enumerator;
    iterating to a fixed point (at most six passes) lifts the k>=3 heuristic close to optimal
    without exponential work.
    """
    from itertools import combinations

    names = list(models)
    for _ in range(6):
        improved = False
        for a, b in combinations(names, 2):
            others = {n: shares.get(n, (0, 0)) for n in names if n not in (a, b)}
            others_c = sum(c for c, _ in others.values())
            others_w = sum(w for _, w in others.values())
            others_power = sum(
                _power(models[n], c, w) for n, (c, w) in others.items()
            )
            pair_spare_c = spare.cores - others_c
            pair_spare_w = spare.ways - others_w
            if pair_spare_c < 1 or pair_spare_w < 1:
                continue
            pair = exhaustive_partition(
                {a: models[a], b: models[b]},
                Allocation(cores=pair_spare_c, ways=pair_spare_w,
                           freq_ghz=spec.max_freq_ghz),
                max(0.0, power_budget_w - others_power),
                spec,
            )
            new_a = pair.allocation_of(a)
            new_b = pair.allocation_of(b)
            old_total = (
                _normalized_perf(models[a], spec, *shares.get(a, (0, 0)))
                + _normalized_perf(models[b], spec, *shares.get(b, (0, 0)))
            )
            if pair.predicted_total > old_total + 1e-12:
                shares[a] = (new_a.cores, new_a.ways)
                shares[b] = (new_b.cores, new_b.ways)
                improved = True
        if not improved:
            break
    return shares


def _greedy_shares(
    models: Dict[str, IndirectUtilityModel],
    spec: ServerSpec,
    spare: Allocation,
    power_budget_w: float,
) -> Dict[str, Tuple[int, int]]:
    """Seed-and-grow greedy by marginal normalized performance per watt."""
    names = list(models)
    shares: Dict[str, Tuple[int, int]] = {}
    budget_left = power_budget_w
    cores_left, ways_left = spare.cores, spare.ways
    # Seed the cheapest tenants first, so a tight budget shuts out the
    # power-hungriest ones rather than arbitrary ones.
    for name in sorted(names, key=lambda n: _power(models[n], 1, 1)):
        seed_power = _power(models[name], 1, 1)
        if seed_power <= budget_left and cores_left >= 1 and ways_left >= 1:
            shares[name] = (1, 1)
            budget_left -= seed_power
            cores_left -= 1
            ways_left -= 1
    while True:
        best: Optional[Tuple[float, str, Tuple[int, int]]] = None
        for name, (c, w) in shares.items():
            model = models[name]
            current_perf = _normalized_perf(model, spec, c, w)
            current_power = _power(model, c, w)
            options: List[Tuple[int, int]] = []
            if cores_left >= 1:
                options.append((c + 1, w))
            if ways_left >= 1:
                options.append((c, w + 1))
            for nc, nw in options:
                extra_power = _power(model, nc, nw) - current_power
                if extra_power > budget_left + 1e-12:
                    continue
                gain = _normalized_perf(model, spec, nc, nw) - current_perf
                score = gain / max(extra_power, 1e-9)
                if best is None or score > best[0]:
                    best = (score, name, (nc, nw))
        if best is None:
            break
        _, name, (nc, nw) = best
        c, w = shares[name]
        budget_left -= _power(models[name], nc, nw) - _power(models[name], c, w)
        cores_left -= nc - c
        ways_left -= nw - w
        shares[name] = (nc, nw)
    return shares


def exhaustive_partition(
    models: Dict[str, IndirectUtilityModel],
    spare: Allocation,
    power_budget_w: float,
    spec: ServerSpec,
) -> SpatialShare:
    """Exact optimal partition for two tenants.

    Enumerates every split of the spare cores and ways between exactly
    two tenants (including shutting either out) under the power budget.
    Quadratic in the spare area — fast at server scale, and the oracle
    the tests hold the general solver against.
    """
    names = list(models)
    if len(names) != 2:
        raise ConfigError("exhaustive partition supports exactly two tenants")
    a, b = names
    best_shares: Dict[str, Tuple[int, int]] = {}
    best_total = 0.0
    # Precompute tenant B's exact best for every residual rectangle row
    # is overkill; the plain quadruple loop is fast enough at (12, 20).
    for ca in range(0, spare.cores + 1):
        for wa in range(0, spare.ways + 1):
            if (ca >= 1) != (wa >= 1):
                continue  # half-empty allocations are invalid
            power_a = _power(models[a], ca, wa)
            if power_a > power_budget_w + 1e-9:
                continue
            perf_a = _normalized_perf(models[a], spec, ca, wa)
            choice_b, perf_b = _best_single(
                models[b], spec, spare.cores - ca, spare.ways - wa,
                power_budget_w - power_a,
            )
            if perf_a + perf_b > best_total + 1e-12:
                best_total = perf_a + perf_b
                best_shares = {a: (ca, wa), b: choice_b}
    return _share_from(models, spec, best_shares)
