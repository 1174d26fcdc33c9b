"""Vectorized placement math, bit-identical to the scalar reference.

:func:`repro.core.placement.build_performance_matrix` predicts, for every
(BE app, LC server, load level) triple, the normalized throughput the BE
app would achieve on the LC server's spare capacity.  The reference
implementation walks that cube with nested Python loops, calling the
Cobb-Douglas closed forms cell by cell.  This module computes the same
cube with numpy broadcasting — and **exactly** the same floats:

* Transcendental evaluations (``exp``/``log`` inside
  ``model.performance``) are the only operations whose last bit can
  differ between libm and numpy, so they are never re-derived here:
  every performance/power value comes from a :class:`ModelGrid` filled
  by the *scalar* model at every integer (cores, ways) point.
* Everything else — the constrained-demand closed form, the greedy
  budget top-up, the normalization — is IEEE-754 add/sub/mul/div and
  comparisons, which numpy rounds identically to CPython, replicated in
  the reference's exact operation order.

``tests/test_engine_differential.py`` asserts cell-for-cell equality
against the retained loop implementation
(``_build_performance_matrix_reference``).

The spare-capacity prediction (one dual-form solve per (server, level))
is memoized in :func:`cached_spare_capacity`, keyed by the values it
reads (model, provisioning, peak load, spec, level, margin) and never
by the server's name: repeated matrix builds, and renamed replicas of
one server, skip the integer neighborhood search.  :class:`ModelGrid`
and :func:`model_grid` live in :mod:`repro.core.utility`, whose POM
solve reads the same grid, and are re-exported here.
"""

# pocolint: lane-module

from __future__ import annotations

import sys
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.core.placement import (
    DEFAULT_PLACEMENT_MARGIN,
    LcServerSide,
    PerformanceMatrix,
    predict_spare_capacity,
)
from repro.core.utility import (
    _MODEL_GRIDS,
    IndirectUtilityModel,
    ModelGrid,
    model_grid,
)
from repro.errors import ConfigError
from repro.hwmodel.spec import Allocation, ServerSpec

__all__ = [
    "ModelGrid",
    "build_performance_matrix_vectorized",
    "cached_spare_capacity",
    "clear_engine_caches",
    "model_grid",
    "predict_be_throughput_batch",
]


#: (LC model, provisioned power, peak load, spec, level, margin) ->
#: (spare, BE budget): everything the prediction reads, and not the
#: server's name, so renamed servers of one physics share a solve.
_SPARE_CAPACITY: Dict[Tuple[Any, ...], Tuple[Allocation, float]] = {}


def cached_spare_capacity(
    lc: LcServerSide,
    spec: ServerSpec,
    level: float,
    margin: float = DEFAULT_PLACEMENT_MARGIN,
) -> Tuple[Allocation, float]:
    """Memoized :func:`repro.core.placement.predict_spare_capacity`.

    The key is a plain tuple of the values the prediction reads (frozen
    dataclasses and floats), so equality of keys implies equality of
    the prediction; the property suite asserts cached == uncached.
    """
    key = (lc.model, lc.provisioned_power_w, lc.peak_load, spec, level, margin)
    hit = _SPARE_CAPACITY.get(key)
    if hit is None:
        hit = _SPARE_CAPACITY[key] = predict_spare_capacity(lc, spec, level, margin)
    return hit


def clear_engine_caches() -> None:
    """Empty every value-keyed memo: model grids, spare-capacity solves
    and the batched core's tables (tests, cold-start benchmarks)."""
    _MODEL_GRIDS.clear()
    _SPARE_CAPACITY.clear()
    # The batched core keeps its own memoized surfaces; clear them too,
    # but only if that module was ever imported (it imports this one).
    batched = sys.modules.get("repro.engine.batched")
    if batched is not None:
        batched.clear_batched_caches()


def _batched_constrained_demand(
    model: IndirectUtilityModel,
    budgets: np.ndarray,
    ceil_c: np.ndarray,
    ceil_w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``model.constrained_demand`` for k=2, over a batch of cells.

    Replicates the reference's KKT water-filling for two resources in
    its exact arithmetic order (see ``IndirectUtilityModel
    .constrained_demand``): propose the proportional split, freeze any
    resource over its ceiling, re-solve the remainder.  Only +-*/ and
    comparisons — bit-identical to the scalar loop.
    """
    a0, a1 = model.perf.alphas
    p0, p1 = model.power.p
    p_static = model.power.p_static
    alpha_sum = 0.0 + a0 + a1  # reference: sum(alphas) starting at 0

    out_c = np.zeros_like(budgets)
    out_w = np.zeros_like(budgets)
    headroom = budgets - p_static
    feasible = headroom > 0

    want_c = headroom / p0 * (a0 / alpha_sum)
    want_w = headroom / p1 * (a1 / alpha_sum)
    cap_c = want_c > ceil_c
    cap_w = want_w > ceil_w

    # Case A: nothing capped — the proportional split stands.
    case = feasible & ~cap_c & ~cap_w
    out_c[case] = want_c[case]
    out_w[case] = want_w[case]

    # Case B: both capped in round one — round two has no free resource.
    case = feasible & cap_c & cap_w
    out_c[case] = ceil_c[case]
    out_w[case] = ceil_w[case]

    # Case C: exactly one capped — re-solve the other on the residual
    # budget (its alpha ratio is exactly 1.0, so want = headroom2 / p).
    for capped_is_c in (True, False):
        if capped_is_c:
            case = feasible & cap_c & ~cap_w
            ceil_cap, p_cap, p_free = ceil_c, p0, p1
            out_cap, out_free, ceil_free = out_c, out_w, ceil_w
        else:
            case = feasible & cap_w & ~cap_c
            ceil_cap, p_cap, p_free = ceil_w, p1, p0
            out_cap, out_free, ceil_free = out_w, out_c, ceil_c
        if not np.any(case):
            continue
        spent = 0.0 + ceil_cap[case] * p_cap  # reference sums from 0
        headroom2 = budgets[case] - p_static - spent
        want_free = headroom2 / p_free * 1.0
        over = want_free > ceil_free[case]
        exhausted = headroom2 <= 0
        free_val = np.where(over, ceil_free[case], want_free)
        free_val = np.where(exhausted, 0.0, free_val)
        out_cap[case] = ceil_cap[case]
        out_free[case] = free_val
    return out_c, out_w


def predict_be_throughput_batch(
    be_model: IndirectUtilityModel,
    spec: ServerSpec,
    spares: Sequence[Allocation],
    budgets: Sequence[float],
) -> np.ndarray:
    """Vectorized ``predict_be_throughput`` over many (spare, budget) cells.

    Exactly replicates, per cell, the scalar pipeline: constrained
    continuous demand -> floor -> cheapest-viable-corner rescue ->
    greedy highest-gain-per-watt top-up -> full-box normalization.  The
    greedy loop runs batched: one numpy step advances every still-active
    cell by its chosen +1 increment (cores win exact ratio ties, as the
    reference's tuple-max does).
    """
    if len(spares) != len(budgets):
        raise ConfigError("spares and budgets must align")
    n = len(spares)
    if n == 0:
        return np.zeros(0)
    grid = model_grid(be_model, spec)
    full = grid.full_perf
    if full <= 0:
        raise ConfigError("BE model predicts non-positive full-box throughput")
    p0, p1 = be_model.power.p

    budget = np.asarray(budgets, dtype=float)
    max_c = np.array([s.cores for s in spares], dtype=np.int64)
    max_w = np.array([s.ways for s in spares], dtype=np.int64)
    # Empty spare (no cores) or no ways to grant -> zero throughput.
    dead = (max_c < 1) | (max_w < 1)

    cont_c, cont_w = _batched_constrained_demand(
        be_model,
        budget,
        ceil_c=max_c.astype(float),
        ceil_w=max_w.astype(float),
    )
    c = np.minimum(max_c, cont_c.astype(np.int64))
    w = np.minimum(max_w, cont_w.astype(np.int64))
    # Cells whose floored split lost a resource try the (1, 1)-clamped
    # corner; if even that exceeds the budget the cell is parked.
    needs_corner = (c < 1) | (w < 1)
    c = np.maximum(c, 1)
    w = np.maximum(w, 1)
    corner_power = grid.power[c, w]
    dead |= needs_corner & (corner_power > budget)

    active = ~dead
    while np.any(active):
        cc, cw = c[active], w[active]
        b = budget[active]
        can_c = (cc + 1 <= max_c[active]) & (
            grid.power[np.minimum(cc + 1, len(grid.power) - 1), cw] <= b
        )
        can_w = (cw + 1 <= max_w[active]) & (
            grid.power[cc, np.minimum(cw + 1, grid.power.shape[1] - 1)] <= b
        )
        base = grid.perf[cc, cw]
        gain_c = grid.perf[np.minimum(cc + 1, len(grid.perf) - 1), cw] - base
        gain_w = grid.perf[cc, np.minimum(cw + 1, grid.perf.shape[1] - 1)] - base
        ratio_c = np.where(can_c, gain_c / p0, -np.inf)
        ratio_w = np.where(can_w, gain_w / p1, -np.inf)
        any_move = can_c | can_w
        take_c = can_c & (~can_w | (ratio_c >= ratio_w))
        step_c = np.where(any_move & take_c, 1, 0)
        step_w = np.where(any_move & ~take_c, 1, 0)
        c[active] = cc + step_c
        w[active] = cw + step_w
        still = np.zeros_like(active)
        still[active] = any_move
        active = still

    values = grid.perf[c, w] / full
    values[dead] = 0.0
    return values


def build_performance_matrix_vectorized(
    servers: Sequence[LcServerSide],
    be_models: Dict[str, IndirectUtilityModel],
    spec: ServerSpec,
    levels: Sequence[float],
    margin: float = DEFAULT_PLACEMENT_MARGIN,
) -> PerformanceMatrix:
    """The Fig 7 (II) matrix via memoized spares + batched prediction.

    Validation and semantics match the reference loop; each cell is the
    mean over ``levels`` of the batched per-level predictions, taken
    with the same ``np.mean`` call on the same contiguous values.
    """
    if not servers or not be_models:
        raise ConfigError("need at least one LC server and one BE model")
    if not levels:
        raise ConfigError("need at least one load level")
    be_names = tuple(be_models)
    lc_names = tuple(s.name for s in servers)
    pairs = [
        cached_spare_capacity(lc, spec, float(level), margin)
        for lc in servers
        for level in levels
    ]
    spares = [spare for spare, _budget in pairs]
    budgets = [budget for _spare, budget in pairs]
    n_lc, n_lv = len(servers), len(levels)
    values = np.zeros((len(be_names), n_lc))
    for i, be in enumerate(be_names):
        cube = predict_be_throughput_batch(
            be_models[be], spec, spares, budgets
        ).reshape(n_lc, n_lv)
        for j in range(n_lc):
            values[i, j] = float(np.mean(cube[j]))
    return PerformanceMatrix(be_names=be_names, lc_names=lc_names, values=values)
