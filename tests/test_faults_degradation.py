"""Model-distrust fallback, solver fallback, and degradation reporting.

The POM manager must notice a model that keeps over-promising capacity
and step back to Heracles-style feedback; the placement stack must keep
producing feasible assignments when the optimal solver fails; and the
degradation counters must surface in the reporting layer.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import format_degradation
from repro.core.placement import assign_with_fallback, pocolo_placement
from repro.core.server_manager import (
    DISTRUST_AFTER,
    RETRUST_AFTER,
    ManagerStats,
    PowerOptimizedManager,
)
from repro.errors import ConfigError, SolverError
from repro.faults import FaultSchedule, ModelStaleness
from repro.hwmodel.capping import CapStats
from repro.sim import ColocationSim, SimConfig, build_colocated_server
from repro.workloads import ConstantTrace


def overconfident(model, factor=3.0):
    """A mis-fit that claims ``factor``x the real capacity everywhere."""
    return replace(model, perf=replace(model.perf, alpha0=model.perf.alpha0 * factor))


def build_manager(catalog, model):
    lc = catalog.lc_apps["xapian"]
    be = catalog.be_apps["rnn"]
    server = build_colocated_server(
        catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w(), be_app=be
    )
    return PowerOptimizedManager(server, model=model), lc


class TestModelDistrust:
    def test_repeated_misses_enter_the_fallback(self, catalog):
        stale = overconfident(catalog.lc_fits["xapian"].model)
        manager, lc = build_manager(catalog, stale)
        load = 0.3 * lc.peak_load
        # Step 1 records the model's promise; each following starved step
        # (slack below target while the promised capacity covers the
        # load) is a miss.  DISTRUST_AFTER misses trip the fallback.
        for _ in range(1 + DISTRUST_AFTER):
            manager.control_step(load, -0.05)
        assert manager.distrusts_model
        assert manager.stats.model_fallbacks == 1
        assert manager.stats.model_fallback_steps >= 1

    def test_retrust_after_the_holdoff(self, catalog):
        stale = overconfident(catalog.lc_fits["xapian"].model)
        manager, lc = build_manager(catalog, stale)
        load = 0.3 * lc.peak_load
        for _ in range(1 + DISTRUST_AFTER):
            manager.control_step(load, -0.05)
        assert manager.distrusts_model
        # Healthy in-band slack burns down the holdoff; the model then
        # gets another chance.
        for _ in range(RETRUST_AFTER):
            manager.control_step(load, 0.30)
        assert not manager.distrusts_model
        # A persistently bad model re-trips after further misses.
        for _ in range(DISTRUST_AFTER + 2):
            manager.control_step(load, -0.05)
        assert manager.stats.model_fallbacks == 2

    def test_load_surge_is_not_a_model_miss(self, catalog):
        # Starvation while the load exceeds the promised capacity is the
        # feedback loop's normal business, not model distrust.
        manager, lc = build_manager(catalog, catalog.lc_fits["xapian"].model)
        surge = 2.0 * lc.peak_load
        for _ in range(10):
            manager.control_step(surge, -0.2)
        assert not manager.distrusts_model
        assert manager.stats.model_fallbacks == 0

    def test_fallback_steps_counted_in_stats(self, catalog):
        stale = overconfident(catalog.lc_fits["xapian"].model)
        manager, lc = build_manager(catalog, stale)
        load = 0.3 * lc.peak_load
        for _ in range(1 + DISTRUST_AFTER + RETRUST_AFTER):
            manager.control_step(load, -0.05)
        stats = manager.stats
        assert stats.model_fallback_steps >= RETRUST_AFTER
        assert 0.0 < stats.model_fallback_fraction <= 1.0
        assert stats.model_fallback_fraction == pytest.approx(
            stats.model_fallback_steps / stats.control_steps
        )

    def test_stale_model_fault_triggers_fallback_in_sim(self, catalog):
        lc = catalog.lc_apps["xapian"]
        be = catalog.be_apps["rnn"]
        true_model = catalog.lc_fits["xapian"].model
        schedule = FaultSchedule([
            ModelStaleness(start_s=10.0, duration_s=20.0,
                           model=overconfident(true_model)),
        ])
        server = build_colocated_server(
            catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w(),
            be_app=be,
        )
        manager = PowerOptimizedManager(server, model=true_model)
        sim = ColocationSim(
            server=server, lc_app=lc, trace=ConstantTrace(0.5),
            manager=manager, be_app=be, config=SimConfig(seed=0),
            faults=schedule,
        )
        result = sim.run(duration_s=40.0)
        assert result.manager_stats.model_fallbacks >= 1
        # The true model is restored after the window; the run ends
        # trusting it again and the SLO is not in sustained violation.
        assert sim.manager.model is true_model
        assert result.slo_violation_fraction < 0.5


class TestSolverFallback:
    def test_failed_solve_falls_back_to_greedy(self):
        values = np.array([[3.0, 1.0], [2.0, 4.0]])
        # An unknown method fails with SolverError; the solvers are
        # deterministic, so the wrapper hands over to greedy at once.
        assignment, total, method, fallbacks = assign_with_fallback(
            values, method="bogus"
        )
        assert method == "greedy-fallback"
        assert fallbacks == 1  # the one failed solve
        assert assignment == [0, 1]
        assert total == pytest.approx(7.0)

    def test_successful_solve_reports_no_fallbacks(self):
        values = np.array([[3.0, 1.0], [2.0, 4.0]])
        assignment, total, method, fallbacks = assign_with_fallback(values)
        assert method == "hungarian"
        assert fallbacks == 0
        assert assignment == [0, 1]

    def test_nan_cells_sanitized_for_the_fallback(self):
        values = np.array([[np.nan, 1.0], [2.0, np.nan]])
        assignment, total, method, fallbacks = assign_with_fallback(
            values, method="bogus"
        )
        assert method == "greedy-fallback"
        # NaN cells are worth nothing, not un-placeable.
        assert assignment == [1, 0]
        assert total == pytest.approx(3.0)

    def test_unrecoverable_failure_raises_chained_solver_error(self):
        empty = np.empty((0, 0))
        with pytest.raises(SolverError):
            assign_with_fallback(empty, method="bogus")

    def test_pocolo_placement_records_fallbacks(self, catalog):
        matrix = catalog.performance_matrix()
        decision = pocolo_placement(matrix, method="bogus")
        assert decision.method == "greedy-fallback"
        assert decision.solver_fallbacks == 1
        assert set(decision.mapping) == set(matrix.be_names)
        clean = pocolo_placement(matrix)
        assert clean.solver_fallbacks == 0
        assert clean.method == "hungarian"


class TestDegradationReporting:
    def test_format_degradation_renders_counters(self):
        cap = CapStats(samples=100, over_cap_samples=5, safe_mode_steps=20,
                       safe_mode_entries=1, watchdog_trips=1)
        mgr = ManagerStats(control_steps=50, model_fallbacks=2,
                           model_fallback_steps=15, solver_fallbacks=1)
        table = format_degradation([("faulted", cap, mgr)])
        assert "Degradation under faults" in table
        assert "faulted" in table
        lines = table.splitlines()
        assert "safe steps" in lines[1] and "model fb" in lines[1]
        row = lines[-1]
        assert "20" in row and "0.200" in row  # safe steps + safe frac
        assert "0.300" in row  # model fallback fraction (15/50)

    def test_row_shape_validation(self):
        with pytest.raises(ConfigError):
            format_degradation([("just-a-label",)])

    def test_stats_fractions_empty_safe(self):
        assert CapStats().safe_mode_fraction == 0.0
        assert ManagerStats().model_fallback_fraction == 0.0
