"""Package-surface tests: the public API is importable and consistent.

A downstream user's first contact is ``from repro.<pkg> import <name>``;
these tests pin that surface: every ``__all__`` entry resolves, every
package imports cleanly, and the exception hierarchy behaves.
"""

import importlib
import inspect

import pytest

import repro
from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    InvariantViolationError,
    ModelFitError,
    ReproError,
    SimulationError,
    SolverError,
)

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.budget",
    "repro.core",
    "repro.cost",
    "repro.engine",
    "repro.evaluation",
    "repro.guard",
    "repro.hwmodel",
    "repro.runtime",
    "repro.sim",
    "repro.solvers",
    "repro.workloads",
)


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_duplicate_all_entries(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_key_entry_points_present(self):
        from repro.core import IndirectUtilityModel, PowerOptimizedManager
        from repro.evaluation import fit_catalog, run_policy
        from repro.hwmodel import Server
        from repro.sim import ColocationSim

        for obj in (IndirectUtilityModel, PowerOptimizedManager, fit_catalog,
                    run_policy, Server, ColocationSim):
            assert callable(obj)



#: Public parameters of the control-plane constructors, the placement
#: wrapper, and the figure drivers and library helpers.  Tuning values
#: and each experiment's fixed settings are literals or module constants
#: of the owning module; a defaulted parameter belongs here only once
#: some caller (a test included) sets it.
CONSTRUCTOR_SURFACE = {
    ("repro.hwmodel.capping", "PowerCapController"): (
        "server", "meter", "watchdog",
    ),
    ("repro.core.server_manager", "HeraclesLikeManager"): (
        "server", "slack_target", "slack_upper",
    ),
    ("repro.core.server_manager", "PowerOptimizedManager"): (
        "server", "model", "slack_target", "slack_upper",
    ),
    ("repro.core.placement", "assign_with_fallback"): ("values", "method"),
    ("repro.analysis.reporting", "format_series"): (
        "x_label", "y_labels", "x", "series", "title",
    ),
    ("repro.analysis.reporting", "format_degradation"): ("rows",),
    ("repro.analysis.reporting", "format_budget_degradation"): ("rows",),
    ("repro.analysis.stats", "relative_gain_ci"): ("new", "base", "seed"),
    ("repro.budget.arbiter", "BudgetReport.max_stage"): ("self",),
    ("repro.core.multires", "make_three_resource_app"): (),
    ("repro.core.multires", "fit_k_model"): ("samples",),
    ("repro.core.multires", "integer_min_power_allocation_k"): (
        "model", "perf_target", "limits",
    ),
    ("repro.core.profiler", "profile_latency_critical"): (
        "app", "grid", "load_fraction", "rng", "perf_noise", "power_noise",
        "apportion_idle",
    ),
    ("repro.core.validation", "diagnose_fit"): ("samples", "fit", "min_r2_perf"),
    ("repro.core.validation", "leontief_samples"): ("noise",),
    ("repro.cost.planning", "plan_power"): (
        "lc", "trace", "horizon_s", "safety_margin",
    ),
    ("repro.cost.planning", "servers_for_demand"): ("lc", "aggregate_peak_load"),
    ("repro.cost.planning", "stranded_power_profile"): (
        "lc", "trace", "provisioned_power_w", "samples",
    ),
    ("repro.cost.tco", "compare_policies"): ("points", "reference"),
    ("repro.cost.tco", "monthly_tco"): ("point", "reference_throughput"),
    ("repro.budget.brownout", "BrownoutLadder"): ("enter_ratios",),
    ("repro.lint.formats", "render_text"): ("findings",),
    ("repro.lint.formats", "render_json"): ("findings",),
    ("repro.lint.formats", "render_github"): ("findings",),
    # The config records' fields.  The paper's fixed settings (tick
    # geometry, meter noise, TCO prices, the arbiter's shares, the
    # ladder's hysteresis, the guard's ramp allowance, the campaign's
    # shrink budget) are module constants, not fields.
    ("repro.sim.colocation", "SimConfig"): (
        "warmup_s", "load_noise", "latency_noise", "seed",
    ),
    ("repro.guard.invariants", "GuardConfig"): (
        "mode", "cap_margin_w", "cap_grace_steps", "energy_abs_tol_w",
        "energy_rel_tol", "lc_min_cores", "lc_min_ways", "check_rng",
        "max_violations", "deep_check_every",
    ),
    ("repro.budget.arbiter", "BudgetConfig"): (
        "arbiter_period_s", "lease_s", "rack_size", "rack_slack",
        "oversubscription", "fairness", "brownout_throttle_ratio",
        "brownout_evict_ratio", "brownout_shed_ratio",
    ),
    ("repro.guard.campaign", "CampaignConfig"): (
        "seed", "rounds", "batch_size", "initial_corpus", "horizon_s",
        "max_faults", "mean_duration_s", "stop_on_violation", "infra_faults",
    ),
    ("repro.evaluation.ablations", "ablate_slack_target"): (
        "catalog", "targets", "levels", "duration_s",
    ),
    ("repro.evaluation.ablations", "ablate_solver_choice"): ("catalog",),
    ("repro.evaluation.ablations", "ablate_sample_budget"): ("budgets",),
    ("repro.evaluation.ablations", "ablate_calibration_sensitivity"): (
        "trials", "perturbation",
    ),
    ("repro.evaluation.characterization", "fig5_indifference"): ("catalog",),
    ("repro.evaluation.characterization", "fig6_edgeworth"): ("catalog",),
    ("repro.evaluation.colocation_eval", "evaluate_all_policies"): (
        "catalog", "policies", "placement_seeds", "levels", "duration_s",
    ),
    ("repro.evaluation.colocation_eval", "measure_placement"): (
        "catalog", "mapping", "levels", "duration_s",
    ),
    ("repro.evaluation.colocation_eval", "fig14_placement_comparison"): (
        "catalog", "levels", "duration_s",
    ),
    ("repro.evaluation.motivation", "fig1_diurnal_overshoot"): ("capacity_w",),
    ("repro.evaluation.motivation", "fig2_power_overshoot"): (),
    ("repro.evaluation.motivation", "fig3_capped_throughput"): (),
    ("repro.evaluation.motivation", "fig4_load_spectrum"): ("be_names", "levels"),
    ("repro.evaluation.motivation", "true_min_power_allocation"): ("lc", "load_fraction"),
    ("repro.evaluation.pipeline", "fit_catalog"): ("seed", "lc_apps", "be_apps"),
    ("repro.evaluation.pipeline", "run_policies"): (
        "catalog", "policies", "placement_seeds", "levels", "duration_s",
    ),
    ("repro.evaluation.replacement", "phase_loads"): ("catalog", "phase"),
    ("repro.evaluation.replacement", "compare_replacement"): ("catalog",),
    ("repro.evaluation.reports", "solve_fleet_scale"): ("catalog",),
    ("repro.evaluation.reports", "render_fleet_flows"): ("lp",),
    ("repro.evaluation.sharing", "compare_schedulers"): ("catalog",),
    ("repro.evaluation.sharing", "compare_sharing_modes"): ("catalog",),
    ("repro.evaluation.tco_eval", "measure_operating_points"): (
        "catalog", "placement_seeds", "levels", "duration_s",
    ),
    ("repro.evaluation.tco_eval", "fig15_tco"): (
        "catalog", "placement_seeds", "levels", "duration_s",
    ),
    ("repro.hwmodel.capping", "PowerCapController.run_until_stable"): (
        "self", "max_steps",
    ),
    ("repro.hwmodel.spec", "ServerSpec.full_allocation"): ("self",),
    ("repro.runtime.atomic", "atomic_write_text"): ("path", "text"),
    ("repro.runtime.atomic", "atomic_write_json"): ("path", "obj", "sort_keys"),
    ("repro.sim.queueing", "p99_curve"): (
        "service_rate_total", "rhos", "num_requests", "seed",
    ),
    ("repro.sim.queueing", "simulate_queue"): ("config", "num_requests"),
    ("repro.core.admission", "AdmissionController"): (
        "lc_model", "peak_load", "provisioned_power_w", "spec",
        "min_be_throughput", "min_headroom_w",
    ),
    ("repro.apps.latency_critical", "LatencyCriticalApp.meets_slo"): (
        "self", "load", "alloc",
    ),
    # The model records' fields.  The paper's fixed hardware and models
    # (the latency knee, the DVFS step, the service-time CV, the diurnal
    # period, the three-resource axes) are module constants, not fields.
    ("repro.apps.latency", "TailLatencyModel"): ("slo",),
    ("repro.apps.latency_critical", "LatencyCriticalApp"): (
        "profile", "peak_load", "latency",
    ),
    ("repro.hwmodel.spec", "FrequencyLadder"): ("min_ghz", "max_ghz"),
    ("repro.core.multires", "KResourceProfile"): (
        "name", "alphas", "p", "limits", "static_w", "saturation_kappa",
    ),
    ("repro.sim.queueing", "QueueingConfig"): (
        "arrival_rate", "service_rate_total", "workers", "seed",
    ),
    ("repro.workloads.traces", "DiurnalTrace"): (
        "min_fraction", "max_fraction", "peak_time_s", "sharpness",
    ),
}


class TestConstructorSurface:
    @pytest.mark.parametrize(
        "where, params", CONSTRUCTOR_SURFACE.items(),
        ids=[name for _, name in CONSTRUCTOR_SURFACE],
    )
    def test_parameters_pinned(self, where, params):
        module, name = where
        obj = importlib.import_module(module)
        for part in name.split("."):
            obj = getattr(obj, part)
        assert tuple(inspect.signature(obj).parameters) == params

    @pytest.mark.parametrize("package", ["repro.guard", "repro.engine"])
    def test_no_lazy_module_attributes(self, package):
        """Every export is bound at import time: no PEP 562 hook."""
        module = importlib.import_module(package)
        assert "__getattr__" not in vars(module)
        assert "__dir__" not in vars(module)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        AllocationError, CapacityError, ConfigError,
        InvariantViolationError, ModelFitError, SimulationError,
        SolverError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_family(self):
        with pytest.raises(ReproError):
            raise AllocationError("boom")

    def test_distinct_types(self):
        with pytest.raises(AllocationError):
            raise AllocationError("x")
        with pytest.raises(SolverError):
            raise SolverError("y")

    def test_docstrings_everywhere(self):
        for exc in (ReproError, AllocationError, CapacityError, ConfigError,
                    InvariantViolationError, ModelFitError, SimulationError,
                    SolverError):
            assert exc.__doc__


class TestDocstringCoverage:
    """Every public item of the core packages carries a docstring."""

    @pytest.mark.parametrize("package", [
        "repro.core", "repro.hwmodel", "repro.apps", "repro.sim",
        "repro.solvers", "repro.cost", "repro.workloads", "repro.analysis",
        "repro.runtime", "repro.guard", "repro.budget",
    ])
    def test_exported_items_documented(self, package):
        import inspect

        module = importlib.import_module(package)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            # Type aliases (e.g. Callable aliases) carry no docstring.
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, f"{package}: {undocumented}"
