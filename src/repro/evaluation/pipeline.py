"""End-to-end Pocolo pipeline: profile → fit → place → manage → measure.

This module wires the whole system together the way Fig 7 draws it, and
defines the three policies of the evaluation (Section V-D):

* ``random`` — random placement + Heracles-like power-unaware server
  manager (the baseline);
* ``pom`` — random placement + power-optimized server management;
* ``pocolo`` — LP placement over the performance matrix + power-optimized
  server management.

Everything downstream (the figure benchmarks, the examples) builds on
:func:`fit_catalog` and :func:`run_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.apps.best_effort import BestEffortApp
from repro.apps.catalog import (
    NOCAP_PROVISIONED_W,
    REFERENCE_SPEC,
    best_effort_apps,
    latency_critical_apps,
)
from repro.apps.latency_critical import LatencyCriticalApp
from repro.core.fitting import FitResult, fit_indirect_utility
from repro.core.placement import (
    LcServerSide,
    PerformanceMatrix,
    PlacementDecision,
    build_performance_matrix,
    pocolo_placement,
    random_placement,
)
from repro.core.profiler import (
    DEFAULT_PERF_NOISE,
    DEFAULT_POWER_NOISE,
    default_profiling_grid,
    profile_best_effort,
    profile_latency_critical,
)
from repro.core.server_manager import (
    HeraclesLikeManager,
    PowerOptimizedManager,
    ServerManagerBase,
)
from repro.errors import ConfigError
from repro.hwmodel.server import Server
from repro.hwmodel.spec import ServerSpec
from repro.sim.cluster import (
    ClusterRunResult,
    ManagerFactory,
    ServerPlan,
    plan_cluster_tasks,
    run_cluster,
    run_sweeps,
)
from repro.sim.colocation import SimConfig
from repro.workloads.traces import UNIFORM_EVAL_LEVELS

if TYPE_CHECKING:  # guard/budget configs only pass through; import lazily
    from repro.budget.arbiter import BudgetConfig
    from repro.guard.invariants import GuardConfig

#: The evaluation's policy names (Section V-D), plus the TCO-only variant.
POLICIES = ("random", "pom", "pocolo")
POLICY_RANDOM_NOCAP = "random-nocap"
#: Policies that place at random, so evaluations average placement seeds.
RANDOM_PLACED = ("random", "pom", POLICY_RANDOM_NOCAP)


@dataclass
class FittedCatalog:
    """All applications plus their fitted indirect utility models.

    The single source of truth handed to placement and management; the
    ground-truth surfaces stay hidden behind the fits, as they would be
    behind real binaries.
    """

    spec: ServerSpec
    lc_apps: Dict[str, LatencyCriticalApp]
    be_apps: Dict[str, BestEffortApp]
    lc_fits: Dict[str, FitResult]
    be_fits: Dict[str, FitResult]

    def lc_server_sides(self) -> List[LcServerSide]:
        """Placement inputs: one :class:`LcServerSide` per LC server."""
        return [
            LcServerSide(
                name=name,
                model=self.lc_fits[name].model,
                provisioned_power_w=app.peak_server_power_w(),
                peak_load=app.peak_load,
            )
            for name, app in self.lc_apps.items()
        ]

    def performance_matrix(
        self, levels: Sequence[float] = UNIFORM_EVAL_LEVELS
    ) -> PerformanceMatrix:
        """The Fig 7 (II) matrix from the fitted models."""
        be_models = {name: fit.model for name, fit in self.be_fits.items()}
        return build_performance_matrix(
            self.lc_server_sides(), be_models, self.spec, levels=levels
        )


def fit_catalog(
    spec: ServerSpec = REFERENCE_SPEC,
    seed: int = 7,
    perf_noise: float = DEFAULT_PERF_NOISE,
    power_noise: float = DEFAULT_POWER_NOISE,
    profiling_load_fraction: float = 0.3,
    lc_apps: Optional[Dict[str, LatencyCriticalApp]] = None,
    be_apps: Optional[Dict[str, BestEffortApp]] = None,
) -> FittedCatalog:
    """Profile and fit every application in the paper's catalog.

    One shared RNG stream keeps the whole catalog reproducible from one
    seed while still giving every app independent noise draws.  Custom
    ``lc_apps`` / ``be_apps`` dicts replace the paper's catalog — used
    by the calibration-sensitivity ablation and by downstream users
    onboarding their own workloads.
    """
    rng = np.random.default_rng(seed)
    grid = default_profiling_grid(spec)
    if lc_apps is None:
        lc_apps = latency_critical_apps(spec)
    if be_apps is None:
        be_apps = best_effort_apps(spec)
    lc_fits = {}
    for name, app in lc_apps.items():
        samples = profile_latency_critical(
            app, grid, load_fraction=profiling_load_fraction,
            rng=rng, perf_noise=perf_noise, power_noise=power_noise,
        )
        lc_fits[name] = fit_indirect_utility(samples)
    be_fits = {}
    for name, app in be_apps.items():
        samples = profile_best_effort(
            app, grid, rng=rng, perf_noise=perf_noise, power_noise=power_noise
        )
        be_fits[name] = fit_indirect_utility(samples)
    return FittedCatalog(
        spec=spec, lc_apps=lc_apps, be_apps=be_apps,
        lc_fits=lc_fits, be_fits=be_fits,
    )


def placement_for_policy(
    catalog: FittedCatalog,
    policy: str,
    seed: int = 0,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    method: str = "lp",
) -> PlacementDecision:
    """The placement each policy uses (random for random/pom, LP for pocolo)."""
    if policy in RANDOM_PLACED:
        return random_placement(
            tuple(catalog.be_apps), tuple(catalog.lc_apps),
            rng=np.random.default_rng(seed),
        )
    if policy == "pocolo":
        return pocolo_placement(catalog.performance_matrix(levels), method=method)
    raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")


@dataclass(frozen=True)
class HeraclesFactory:
    """Builds the power-unaware baseline manager.

    A frozen dataclass (not a closure) so that :class:`ServerPlan`
    objects pickle across the engine's process pool and compare equal
    for cell deduplication.
    """

    def __call__(self, server: Server) -> ServerManagerBase:
        return HeraclesLikeManager(server)


@dataclass(frozen=True)
class PomFactory:
    """Builds the power-optimized manager around one fitted LC model.

    Value-equal when the model is the same, which lets the engine
    recognize replicated servers; picklable for pooled execution.
    """

    model: object

    def __call__(self, server: Server) -> ServerManagerBase:
        return PowerOptimizedManager(server, model=self.model)


def manager_factory(
    catalog: FittedCatalog, lc_name: str, policy: str
) -> ManagerFactory:
    """Manager constructor for one server under one policy."""
    if policy in ("random", POLICY_RANDOM_NOCAP):
        return HeraclesFactory()
    if policy in ("pom", "pocolo"):
        return PomFactory(model=catalog.lc_fits[lc_name].model)
    raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")


def cluster_plans(
    catalog: FittedCatalog,
    placement: PlacementDecision,
    policy: str,
    provisioned_override_w: Optional[float] = None,
) -> List[ServerPlan]:
    """One :class:`ServerPlan` per LC server, with its placed BE co-runner.

    ``provisioned_override_w`` implements Random(NoCap): every server is
    provisioned at the cluster-wide maximum (185 W) instead of its own
    right-sized capacity.
    """
    lc_for_be = placement.mapping
    be_for_lc = {lc: be for be, lc in lc_for_be.items()}
    plans = []
    for lc_name, lc_app in catalog.lc_apps.items():
        be_name = be_for_lc.get(lc_name)
        be_app = catalog.be_apps[be_name] if be_name is not None else None
        provisioned = (
            provisioned_override_w
            if provisioned_override_w is not None
            else lc_app.peak_server_power_w()
        )
        plans.append(
            ServerPlan(
                lc_app=lc_app,
                be_app=be_app,
                provisioned_power_w=provisioned,
                manager_factory=manager_factory(catalog, lc_name, policy),
            )
        )
    return plans


def _policy_plans(
    catalog: FittedCatalog,
    policy: str,
    levels: Sequence[float],
    seed: int,
    placement: Optional[PlacementDecision] = None,
) -> List[ServerPlan]:
    """One policy run's plans: its placement, then one plan per LC server."""
    if placement is None:
        placement = placement_for_policy(catalog, policy, seed=seed, levels=levels)
    override = NOCAP_PROVISIONED_W if policy == POLICY_RANDOM_NOCAP else None
    return cluster_plans(catalog, placement, policy, provisioned_override_w=override)


def run_policy(
    catalog: FittedCatalog,
    policy: str,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 40.0,
    seed: int = 0,
    sim_config: Optional[SimConfig] = None,
    placement: Optional[PlacementDecision] = None,
    workers: int = 1,
    dedupe: bool = False,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    guard: Optional["GuardConfig"] = None,
    ledger_path: Optional[str] = None,
    engine: Optional[str] = None,
    budget: Optional["BudgetConfig"] = None,
) -> ClusterRunResult:
    """Run one policy over the full cluster and load sweep.

    ``random-nocap`` runs the random policy with every server provisioned
    at :data:`~repro.apps.catalog.NOCAP_PROVISIONED_W` (the Section V-F
    TCO baseline); all other policies use right-sized capacities.

    ``engine``, ``workers`` and ``dedupe`` are forwarded to
    :func:`~repro.sim.cluster.run_cluster` — bit-identical execution
    knobs, not semantic ones.  ``engine`` selects the simulation core:
    the default ``"batched"`` structure-of-arrays core or the
    ``"object"`` per-cell oracle (``docs/ENGINE.md``); ``workers > 1``
    runs a process pool and needs ``engine="object"``.  A
    ``checkpoint_path`` routes the sweep through
    :func:`repro.runtime.run_cluster_checkpointed` instead: completed
    cells persist as they land and ``resume=True`` re-runs only the
    missing ones — still bit-identical (see ``docs/RECOVERY.md``).

    ``guard`` runs every cell under the runtime safety invariants of
    :mod:`repro.guard` (``docs/GUARDS.md``); ``ledger_path`` writes the
    violation ledger — derived deterministically from the completed
    cells, checkpointed or not.

    ``budget`` switches on hierarchical lease-based power budgeting
    (:mod:`repro.budget`, ``docs/BUDGETS.md``): every cell runs under
    its arbiter-compiled cap schedule and the result carries a
    :class:`~repro.budget.arbiter.BudgetReport`.
    """
    plans = _policy_plans(catalog, policy, levels, seed, placement)
    config = sim_config if sim_config is not None else SimConfig(seed=seed)
    from repro.runtime.sweep import _ledgered, run_cluster_checkpointed

    sweep: Dict[str, Any] = dict(
        levels=levels, duration_s=duration_s, config=config, workers=workers,
        dedupe=dedupe, guard=guard, engine=engine, budget=budget,
    )
    if checkpoint_path is not None:
        return run_cluster_checkpointed(
            plans, catalog.spec, checkpoint_path, resume=resume,
            checkpoint_every=checkpoint_every, ledger_path=ledger_path,
            **sweep,
        )
    return _ledgered(
        lambda: run_cluster(plans, catalog.spec, **sweep), guard, ledger_path
    )


def run_policies(
    catalog: FittedCatalog,
    policies: Sequence[str],
    placement_seeds: Iterable[int],
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 30.0,
    sim_seed: int = 0,
) -> Dict[str, List[ClusterRunResult]]:
    """Every policy's seeded runs, planned first and executed as one sweep.

    Random-placement policies run once per placement seed, POColo once
    (seed 0), all under ``SimConfig(seed=sim_seed)``.  Each run equals
    the :func:`run_policy` run with the same arguments, bit for bit.
    """
    seeds = list(placement_seeds)
    runs: Dict[str, List[ClusterRunResult]] = {p: [] for p in policies}
    planned = [(p, s) for p in runs for s in (seeds if p in RANDOM_PLACED else [0])]
    config = SimConfig(seed=sim_seed)
    results = run_sweeps([
        plan_cluster_tasks(
            _policy_plans(catalog, p, levels, s), catalog.spec, levels, duration_s, config
        )
        for p, s in planned
    ])
    for (policy, _seed), result in zip(planned, results):
        runs[policy].append(result)
    return runs


@dataclass(frozen=True)
class PolicySummary:
    """Per-server operating point of a policy, for the TCO comparison."""

    policy: str
    throughput_per_server: float
    provisioned_w_per_server: float
    avg_power_w_per_server: float
    be_throughput_norm: float
    power_utilization: float


def summarize_policy(
    policy: str,
    result: ClusterRunResult,
    catalog: FittedCatalog,
    provisioned_override_w: Optional[float] = None,
) -> PolicySummary:
    """Reduce a cluster run to the per-server operating point.

    Throughput per server counts the LC app's served load fraction plus
    the BE app's normalized throughput — both in "fraction of a full
    server's work" units, so they add.

    A fully degraded run — every server crashed, no cells executed —
    summarizes to zeros rather than NaN: an operating point of "nothing
    served, nothing drawn" is the truthful description of a cluster
    that is entirely down.
    """
    lc_load = float(np.mean(
        [o.result.avg_lc_load_fraction for o in result.outcomes]
    )) if result.outcomes else 0.0
    be_norm = result.cluster_be_throughput()
    power = float(np.mean(
        [o.result.avg_power_w for o in result.outcomes]
    )) if result.outcomes else 0.0
    if provisioned_override_w is not None:
        provisioned = provisioned_override_w
    else:
        provisioned = float(np.mean(
            [app.peak_server_power_w() for app in catalog.lc_apps.values()]
        ))
    return PolicySummary(
        policy=policy,
        throughput_per_server=lc_load + be_norm,
        provisioned_w_per_server=provisioned,
        avg_power_w_per_server=power,
        be_throughput_norm=be_norm,
        power_utilization=result.cluster_power_utilization(),
    )
