"""Cluster-level placement (Section IV-B, Fig 7 steps II-III).

"The cluster manager populates a performance matrix ... It first
estimates the spare resource capacity in a server hosting a
latency-critical application using the Cobb-Douglas utility model
solution that minimizes for power usage for the dynamic range of the LC
application.  Then, it translates the spare resource capacity to
performance of the BE application using the Cobb-Douglas utility function
...  We use a LP solver to identify an assignment that maximizes the
overall cluster performance."

The matrix cell (be, lc) is the *predicted normalized* throughput of the
BE app when placed on the LC app's server, averaged over the LC app's
load range — normalized to the BE app's own full-box prediction so that
apps with different throughput units aggregate meaningfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.utility import (
    IndirectUtilityModel,
    integer_demand_allocation,
    integer_min_power_allocation,
)
from repro.errors import CapacityError, ConfigError, SolverError
from repro.hwmodel.spec import Allocation, ServerSpec, spare_of
from repro.solvers.assignment import assign_max
from repro.workloads.traces import UNIFORM_EVAL_LEVELS

#: Load margin used when translating a load level into a capacity target
#: (mirrors POM's initial headroom).
DEFAULT_PLACEMENT_MARGIN = 1.20

#: Seed for the fallback generator of :func:`random_placement` when the
#: caller does not inject one.  The random baseline is still *random
#: across seeds* (callers pass their own rng in sweeps); the default
#: merely makes a bare call reproducible run-to-run.
DEFAULT_PLACEMENT_SEED = 0


@dataclass(frozen=True)
class LcServerSide:
    """What the cluster manager knows about one latency-critical server."""

    name: str
    model: IndirectUtilityModel
    provisioned_power_w: float
    peak_load: float

    def __post_init__(self) -> None:
        if self.provisioned_power_w <= 0:
            raise ConfigError("provisioned power must be positive")
        if self.peak_load <= 0:
            raise ConfigError("peak load must be positive")


@dataclass(frozen=True)
class PerformanceMatrix:
    """The Fig 7 (II) matrix: predicted BE throughput per (be, lc) pair."""

    be_names: Tuple[str, ...]
    lc_names: Tuple[str, ...]
    values: np.ndarray  # shape (len(be_names), len(lc_names))

    def cell(self, be: str, lc: str) -> float:
        """Predicted normalized throughput of ``be`` on ``lc``'s server."""
        return float(
            self.values[self.be_names.index(be), self.lc_names.index(lc)]
        )


@dataclass(frozen=True)
class PlacementDecision:
    """A full cluster placement: every BE app matched to one LC server.

    ``solver_fallbacks`` counts how many solve attempts failed before
    this decision was reached (0 = the requested method succeeded
    first try); ``method`` names the back end that actually produced
    the assignment.
    """

    mapping: Dict[str, str]  # be name -> lc name
    predicted_total: float
    method: str
    solver_fallbacks: int = 0


def predict_spare_capacity(
    lc: LcServerSide,
    spec: ServerSpec,
    level: float,
    margin: float = DEFAULT_PLACEMENT_MARGIN,
) -> Tuple[Allocation, float]:
    """Spare (cores, ways) and the BE power budget at one LC load level.

    Uses the LC model's least-power integer allocation for the level's
    capacity target; the BE budget is the provisioned capacity minus idle
    and the LC's predicted draw (clipped at zero).
    """
    if not 0.0 < level <= 1.0:
        raise ConfigError("load level must lie in (0, 1]")
    floor_perf = lc.model.performance((1.0, 1.0))
    full_perf = lc.model.performance((float(spec.cores), float(spec.llc_ways)))
    target = min(max(level * lc.peak_load * margin, floor_perf), full_perf)
    try:
        alloc = integer_min_power_allocation(lc.model, target, spec)
    except CapacityError:  # pragma: no cover - target clamped to full_perf
        alloc = spec.full_allocation()
    spare = spare_of(spec, alloc)
    lc_power = lc.model.power_w((float(alloc.cores), float(alloc.ways)))
    budget = max(0.0, lc.provisioned_power_w - spec.idle_power_w - lc_power)
    return spare, budget


def predict_be_throughput(
    be_model: IndirectUtilityModel,
    spec: ServerSpec,
    spare: Allocation,
    power_budget_w: float,
) -> float:
    """Predicted *normalized* BE throughput on given spare + power budget.

    The Fig 7 (II) translation: run the BE app's fitted model at its
    budget-constrained demand, clipped to the spare-resource ceiling;
    normalize by the model's own full-box prediction so different BE
    units aggregate.
    """
    if spare.is_empty:
        return 0.0
    alloc = integer_demand_allocation(be_model, power_budget_w, spec, ceiling=spare)
    if alloc.is_empty:
        return 0.0
    full = be_model.performance((float(spec.cores), float(spec.llc_ways)))
    if full <= 0:
        raise ConfigError("BE model predicts non-positive full-box throughput")
    return be_model.performance((float(alloc.cores), float(alloc.ways))) / full


def _build_performance_matrix_reference(
    servers: Sequence[LcServerSide],
    be_models: Dict[str, IndirectUtilityModel],
    spec: ServerSpec,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    margin: float = DEFAULT_PLACEMENT_MARGIN,
) -> PerformanceMatrix:
    """The loop-based matrix population, kept as the differential oracle.

    :func:`build_performance_matrix` (the vectorized engine path) must
    reproduce this cell for cell, bit for bit;
    ``tests/test_engine_differential.py`` holds it to that.
    """
    if not servers or not be_models:
        raise ConfigError("need at least one LC server and one BE model")
    if not levels:
        raise ConfigError("need at least one load level")
    be_names = tuple(be_models)
    lc_names = tuple(s.name for s in servers)
    values = np.zeros((len(be_names), len(lc_names)))
    for j, lc in enumerate(servers):
        spares = [predict_spare_capacity(lc, spec, level, margin) for level in levels]
        for i, be in enumerate(be_names):
            preds = [
                predict_be_throughput(be_models[be], spec, spare, budget)
                for spare, budget in spares
            ]
            values[i, j] = float(np.mean(preds))
    return PerformanceMatrix(be_names=be_names, lc_names=lc_names, values=values)


def build_performance_matrix(
    servers: Sequence[LcServerSide],
    be_models: Dict[str, IndirectUtilityModel],
    spec: ServerSpec,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    margin: float = DEFAULT_PLACEMENT_MARGIN,
) -> PerformanceMatrix:
    """Populate the placement matrix over the LC apps' dynamic load range.

    Each cell averages the predicted normalized BE throughput across
    ``levels`` — "for the dynamic range of the LC application" — under a
    uniform load distribution, exactly the evaluation's averaging.

    Computation runs on the vectorized engine (numpy broadcasting over
    the BE x LC x level cube, memoized spare-capacity solves), which is
    bit-identical to :func:`_build_performance_matrix_reference`.
    """
    from repro.engine.vectorized import build_performance_matrix_vectorized

    return build_performance_matrix_vectorized(
        servers, be_models, spec, levels=levels, margin=margin
    )


def assign_with_fallback(
    values: np.ndarray, method: str = "hungarian"
) -> Tuple[List[int], float, str, int]:
    """Solve an assignment, with the greedy heuristic as the last resort.

    Production placement must produce *some* feasible assignment even
    when the optimal solver fails (numerical trouble, NaN-poisoned
    matrix, ...).  The requested ``method`` gets one attempt — the
    solvers are deterministic, so retrying the same matrix cannot
    succeed; on :class:`SolverError`, non-finite cells are zeroed (a
    failed prediction is worth nothing, not un-placeable) and the greedy
    heuristic decides.  Returns ``(assignment, total, method_used,
    fallbacks)`` where ``fallbacks`` counts failed solves (0 or 1).
    """
    try:
        assignment, total = assign_max(values, method=method)
        return assignment, total, method, 0
    except SolverError as exc:
        last_error = exc
    sanitized = np.nan_to_num(
        np.asarray(values, dtype=float), nan=0.0, posinf=0.0, neginf=0.0
    )
    try:
        assignment, total = assign_max(sanitized, method="greedy")
    except SolverError as exc:  # ill-formed beyond repair (bad shape)
        # Chain the *root* cause: the primary solver's failure is why we
        # are here at all, so it must survive as __cause__ for ledgers
        # and ExecutionError messages; the greedy failure is in the text.
        raise SolverError(
            f"assignment failed for {method!r} ({last_error}) and the "
            f"greedy fallback could not recover: {exc}"
        ) from last_error
    return assignment, total, "greedy-fallback", 1


def pocolo_placement(
    matrix: PerformanceMatrix, method: str = "hungarian"
) -> PlacementDecision:
    """Solve the matrix for the throughput-maximizing assignment.

    ``method`` selects the back end: ``hungarian`` (default) and the
    paper's ``lp`` return the same canonical optimum (see
    :func:`repro.solvers.assign_max`); ``greedy``/``brute`` exist for
    the A2 ablation.  On
    :class:`SolverError` the solve falls back to the greedy heuristic,
    so placement always returns a feasible decision; the decision
    records how it was reached.
    """
    assignment, total, used, fallbacks = assign_with_fallback(
        matrix.values, method=method
    )
    mapping = {
        matrix.be_names[i]: matrix.lc_names[j]
        for i, j in enumerate(assignment)
        if j >= 0
    }
    return PlacementDecision(
        mapping=mapping, predicted_total=total, method=used,
        solver_fallbacks=fallbacks,
    )


def random_placement(
    be_names: Sequence[str],
    lc_names: Sequence[str],
    rng: Optional[np.random.Generator] = None,
) -> PlacementDecision:
    """The baseline: "randomly assigns the best-effort application to any
    available latency-critical server" (Section V-D)."""
    if len(be_names) > len(lc_names):
        raise ConfigError("more BE apps than LC servers; cannot place 1:1")
    generator = rng if rng is not None else np.random.default_rng(
        DEFAULT_PLACEMENT_SEED
    )
    chosen = generator.permutation(len(lc_names))[: len(be_names)]
    mapping = {be: lc_names[int(j)] for be, j in zip(be_names, chosen)}
    return PlacementDecision(mapping=mapping, predicted_total=float("nan"),
                             method="random")


def enumerate_placements(
    be_names: Sequence[str], lc_names: Sequence[str]
) -> List[Dict[str, str]]:
    """All 1:1 placements of BE apps onto LC servers (Fig 14's 4x4 sweep).

    Factorial in size; guarded to small clusters.
    """
    from itertools import permutations

    if len(be_names) != len(lc_names):
        raise ConfigError("exhaustive enumeration expects equal counts")
    if len(be_names) > 8:
        raise ConfigError("exhaustive enumeration limited to 8 apps")
    return [
        {be: lc_names[j] for be, j in zip(be_names, perm)}
        for perm in permutations(range(len(lc_names)))
    ]


# ----------------------------------------------------------------------
# Fleet-scale placement: many servers per cluster (transportation form)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetPlacement:
    """How many servers of each LC cluster run each BE stream.

    The fleet generalization of :class:`PlacementDecision`: the paper's
    prototype matches apps 1:1, a datacenter ships ``demand`` servers of
    each best-effort stream onto clusters of ``capacity`` servers
    (Section II-A's "multiple such clusters").
    """

    be_names: Tuple[str, ...]
    lc_names: Tuple[str, ...]
    flows: Tuple[Tuple[int, ...], ...]
    predicted_total: float

    def servers(self, be: str, lc: str) -> int:
        """Servers of cluster ``lc`` assigned to stream ``be``."""
        return self.flows[self.be_names.index(be)][self.lc_names.index(lc)]


def fleet_placement(
    matrix: PerformanceMatrix,
    be_demands: Dict[str, int],
    lc_capacities: Dict[str, int],
    method: str = "lp",
) -> FleetPlacement:
    """Solve the fleet-scale matching over a fitted performance matrix.

    ``be_demands[name]`` is how many colocation slots stream ``name``
    wants; ``lc_capacities[name]`` how many servers cluster ``name``
    offers.  ``method`` is ``"lp"`` (optimal) or ``"greedy"`` (the
    comparator the fleet ablation measures against).
    """
    from repro.solvers.transportation import (
        greedy_transportation_max,
        solve_transportation_max,
    )

    if set(be_demands) != set(matrix.be_names):
        raise ConfigError("demands must cover exactly the matrix's BE apps")
    if set(lc_capacities) != set(matrix.lc_names):
        raise ConfigError("capacities must cover exactly the matrix's LC apps")
    supply = [be_demands[name] for name in matrix.be_names]
    capacity = [lc_capacities[name] for name in matrix.lc_names]
    solver = solve_transportation_max if method == "lp" else (
        greedy_transportation_max if method == "greedy" else None
    )
    if solver is None:
        raise ConfigError(f"unknown fleet method {method!r}; use 'lp' or 'greedy'")
    plan = solver(matrix.values, supply, capacity)
    return FleetPlacement(
        be_names=matrix.be_names,
        lc_names=matrix.lc_names,
        flows=tuple(tuple(int(x) for x in row) for row in plan.flows),
        predicted_total=plan.total_value,
    )
