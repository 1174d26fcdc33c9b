"""Pocolo's core: indirect utility theory, fitting, management, placement.

This package is the paper's contribution proper (Sections III-IV):

* :mod:`repro.core.utility` — Cobb-Douglas indirect utility model with
  the primal (demand under a power budget) and dual (least power for a
  performance target) closed forms, and integer projections.
* :mod:`repro.core.indifference` — indifference curves, the least-power
  expansion path, and the Edgeworth box (Figs 5-6).
* :mod:`repro.core.profiler` / :mod:`repro.core.fitting` — the profiling
  and log-linear regression pipeline (Fig 7 step I).
* :mod:`repro.core.server_manager` — the Heracles-like baseline and the
  power-optimized manager POM (Fig 7 step IV).
* :mod:`repro.core.placement` — the performance matrix and the placement
  solvers (Fig 7 steps II-III).
"""

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.fitting import (
    FitResult,
    ProfileSample,
    fit_indirect_utility,
    fit_performance,
    fit_power,
    r_squared,
)
from repro.core.indifference import (
    EdgeworthBox,
    EdgeworthPoint,
    indifference_curve,
    path_is_ray,
)
from repro.core.multires import (
    KResourceProfile,
    KResourceSample,
    fit_k_model,
    integer_min_power_allocation_k,
    make_three_resource_app,
    profile_k_resources,
    profiling_grid_k,
)
from repro.core.placement import (
    DEFAULT_PLACEMENT_MARGIN,
    FleetPlacement,
    LcServerSide,
    PerformanceMatrix,
    PlacementDecision,
    assign_with_fallback,
    build_performance_matrix,
    enumerate_placements,
    fleet_placement,
    pocolo_placement,
    predict_be_throughput,
    predict_spare_capacity,
    random_placement,
)
from repro.core.profiler import (
    DEFAULT_PERF_NOISE,
    DEFAULT_POWER_NOISE,
    DEFAULT_SLACK_GUARD,
    default_profiling_grid,
    profile_best_effort,
    profile_latency_critical,
)
from repro.core.server_manager import (
    DEFAULT_SLACK_TARGET,
    DEFAULT_SLACK_UPPER,
    HeraclesLikeManager,
    ManagerStats,
    PowerOptimizedManager,
    ServerManagerBase,
)
from repro.core.spatial import (
    SpatialShare,
    exhaustive_partition,
    partition_spare,
)
from repro.core.utility import (
    RESOURCES,
    CobbDouglasParams,
    IndirectUtilityModel,
    LinearPowerParams,
    integer_demand_allocation,
    integer_min_power_allocation,
)
from repro.core.validation import (
    FitDiagnostics,
    diagnose_fit,
    leontief_samples,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CobbDouglasParams",
    "KResourceProfile",
    "KResourceSample",
    "fit_k_model",
    "integer_min_power_allocation_k",
    "make_three_resource_app",
    "profile_k_resources",
    "profiling_grid_k",
    "DEFAULT_PERF_NOISE",
    "DEFAULT_PLACEMENT_MARGIN",
    "DEFAULT_POWER_NOISE",
    "DEFAULT_SLACK_GUARD",
    "DEFAULT_SLACK_TARGET",
    "DEFAULT_SLACK_UPPER",
    "EdgeworthBox",
    "EdgeworthPoint",
    "FitDiagnostics",
    "FitResult",
    "HeraclesLikeManager",
    "IndirectUtilityModel",
    "LcServerSide",
    "LinearPowerParams",
    "ManagerStats",
    "PerformanceMatrix",
    "PlacementDecision",
    "PowerOptimizedManager",
    "ProfileSample",
    "RESOURCES",
    "ServerManagerBase",
    "SpatialShare",
    "build_performance_matrix",
    "default_profiling_grid",
    "diagnose_fit",
    "FleetPlacement",
    "assign_with_fallback",
    "enumerate_placements",
    "fleet_placement",
    "exhaustive_partition",
    "fit_indirect_utility",
    "fit_performance",
    "fit_power",
    "indifference_curve",
    "integer_demand_allocation",
    "integer_min_power_allocation",
    "leontief_samples",
    "partition_spare",
    "path_is_ray",
    "pocolo_placement",
    "predict_be_throughput",
    "predict_spare_capacity",
    "profile_best_effort",
    "profile_latency_critical",
    "r_squared",
    "random_placement",
]
