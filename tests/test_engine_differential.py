"""Differential tests: every engine fast path equals its slow twin, bitwise.

The engine's contract is *bit-identity*, not approximation:

* the vectorized performance matrix reproduces the retained loop
  reference (``_build_performance_matrix_reference``) cell for cell;
* ``run_cluster(dedupe=True)`` reproduces the plain sweep exactly,
  across sim seeds and with a fault plan active (crashes, recovery,
  re-placement, cell faults).

The evaluation-level cross-engine check lives in
``tests/test_batched_differential.py`` (``TestEvaluationDifferential``).

Exact float equality (``==`` / ``np.array_equal``) is deliberate: any
last-bit drift means the fast path computed something different, and a
tolerance would let that rot silently.
"""

import numpy as np
import pytest

from repro.core.placement import (
    LcServerSide,
    _build_performance_matrix_reference,
    build_performance_matrix,
)
from repro.core.utility import (
    CobbDouglasParams,
    IndirectUtilityModel,
    LinearPowerParams,
)
from repro.engine.vectorized import (
    build_performance_matrix_vectorized,
    clear_engine_caches,
)
from repro.evaluation.pipeline import (
    cluster_plans,
    fit_catalog,
    placement_for_policy,
    run_policy,
)
from repro.faults.cluster import ClusterFaultPlan, ServerCrash
from repro.faults.schedule import FaultSchedule, MeterDrift, TelemetryGap
from repro.hwmodel.spec import ServerSpec
from repro.sim.cluster import run_cluster
from repro.sim.colocation import SimConfig

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def catalog():
    return fit_catalog(seed=7)


def _make_model(alpha0, a_cores, a_ways, p_static, p_core, p_way):
    return IndirectUtilityModel(
        perf=CobbDouglasParams(alpha0=alpha0, alphas=(a_cores, a_ways)),
        power=LinearPowerParams(p_static=p_static, p=(p_core, p_way)),
    )


def _flatten(result):
    """Every float an outcome reports, for exact comparison."""
    rows = []
    for o in result.outcomes:
        r = o.result
        rows.append((
            o.lc_name, o.be_name, o.level, r.duration_s,
            r.avg_be_throughput_norm, r.avg_be_throughput_abs,
            r.avg_lc_load_fraction, r.avg_power_w, r.power_utilization,
            r.energy_kwh, r.slo_violation_fraction,
        ))
    return rows


class TestMatrixDifferential:
    def test_fitted_catalog_matrix_bit_identical(self, catalog):
        servers = catalog.lc_server_sides()
        be_models = {n: f.model for n, f in catalog.be_fits.items()}
        reference = _build_performance_matrix_reference(
            servers, be_models, catalog.spec
        )
        vectorized = build_performance_matrix(servers, be_models, catalog.spec)
        assert vectorized.be_names == reference.be_names
        assert vectorized.lc_names == reference.lc_names
        assert np.array_equal(vectorized.values, reference.values)

    def test_cold_caches_bit_identical(self, catalog):
        servers = catalog.lc_server_sides()
        be_models = {n: f.model for n, f in catalog.be_fits.items()}
        reference = _build_performance_matrix_reference(
            servers, be_models, catalog.spec
        )
        clear_engine_caches()
        vectorized = build_performance_matrix_vectorized(
            servers, be_models, catalog.spec,
            levels=tuple(round(0.1 * i, 1) for i in range(1, 10)),
        )
        assert np.array_equal(vectorized.values, reference.values)

    @pytest.mark.parametrize("margin", [1.0, 1.2, 1.5])
    @pytest.mark.parametrize(
        "levels", [(0.5,), (0.1, 0.9), (0.25, 0.5, 0.75, 1.0)]
    )
    def test_synthetic_sweeps_bit_identical(self, margin, levels):
        spec = ServerSpec()
        servers = [
            LcServerSide(
                name=f"lc-{i}",
                model=_make_model(2.0 + i, 0.4 + 0.1 * i, 0.3, 40.0, 5.5, 1.5),
                provisioned_power_w=120.0 + 15.0 * i,
                peak_load=50.0 + 10.0 * i,
            )
            for i in range(3)
        ]
        be_models = {
            f"be-{i}": _make_model(1.0 + i, 0.6, 0.2 + 0.05 * i, 30.0, 4.0, 1.0)
            for i in range(3)
        }
        reference = _build_performance_matrix_reference(
            servers, be_models, spec, levels=levels, margin=margin
        )
        vectorized = build_performance_matrix(
            servers, be_models, spec, levels=levels, margin=margin
        )
        assert np.array_equal(vectorized.values, reference.values)

    def test_tight_budget_corner_cases_bit_identical(self):
        """Budgets near static power exercise the corner-rescue branch."""
        spec = ServerSpec(cores=6, llc_ways=8)
        servers = [
            LcServerSide(
                name="lc-tight",
                # High provisioning pressure: spare budget hovers near
                # the BE model's static power.
                model=_make_model(3.0, 0.5, 0.4, 45.0, 6.0, 2.0),
                provisioned_power_w=100.0,
                peak_load=40.0,
            )
        ]
        be_models = {
            "be-hungry": _make_model(1.5, 0.7, 0.3, 48.0, 5.0, 1.2),
            "be-light": _make_model(1.2, 0.3, 0.3, 10.0, 1.0, 0.4),
        }
        levels = (0.1, 0.5, 0.9, 1.0)
        reference = _build_performance_matrix_reference(
            servers, be_models, spec, levels=levels
        )
        vectorized = build_performance_matrix(
            servers, be_models, spec, levels=levels
        )
        assert np.array_equal(vectorized.values, reference.values)


class TestClusterDifferential:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_dedupe_bit_identical(self, catalog, seed):
        placement = placement_for_policy(catalog, "pocolo")
        base = cluster_plans(catalog, placement, "pocolo")[:2]
        plans = [base[i % 2] for i in range(6)]  # replicated fleet
        kwargs = dict(
            levels=(0.3, 0.7), duration_s=4.0, config=SimConfig(seed=seed)
        )
        serial = run_cluster(plans, catalog.spec, **kwargs)
        deduped = run_cluster(plans, catalog.spec, dedupe=True, **kwargs)
        assert _flatten(deduped) == _flatten(serial)

    def test_faulted_run_bit_identical(self, catalog):
        placement = placement_for_policy(catalog, "pocolo")
        plans = cluster_plans(catalog, placement, "pocolo")[:3]
        fault_plan = ClusterFaultPlan(
            crashes=(
                ServerCrash(
                    lc_name=plans[0].lc_app.name,
                    at_level_index=1,
                    recover_at_level_index=3,
                ),
            ),
            cell_faults=FaultSchedule(faults=(
                MeterDrift(start_s=1.0, duration_s=2.0, rate_w_per_s=0.5),
                TelemetryGap(start_s=2.0, duration_s=1.0),
            )),
        )
        kwargs = dict(
            levels=(0.2, 0.4, 0.6, 0.8), duration_s=4.0,
            config=SimConfig(seed=5), fault_plan=fault_plan,
        )
        serial = run_cluster(plans, catalog.spec, **kwargs)
        deduped = run_cluster(plans, catalog.spec, dedupe=True, **kwargs)
        assert _flatten(deduped) == _flatten(serial)
        assert (
            deduped.fault_report.crashes_handled,
            deduped.fault_report.recoveries_handled,
            deduped.fault_report.degraded_cells,
            deduped.fault_report.replacements,
        ) == (
            serial.fault_report.crashes_handled,
            serial.fault_report.recoveries_handled,
            serial.fault_report.degraded_cells,
            serial.fault_report.replacements,
        )

    def test_run_policy_knobs_bit_identical(self, catalog):
        kwargs = dict(levels=(0.4, 0.8), duration_s=4.0, seed=1)
        serial = run_policy(catalog, "pom", **kwargs)
        deduped = run_policy(catalog, "pom", dedupe=True, **kwargs)
        assert _flatten(deduped) == _flatten(serial)
