"""Tests for repro.evaluation.colocation_eval and ablations (short runs)."""

import numpy as np
import pytest

from repro.core.placement import PlacementDecision
from repro.errors import ConfigError
from repro.evaluation import ablations, colocation_eval
from repro.evaluation.ablations import (
    ablate_sample_budget,
    ablate_slack_target,
    ablate_solver_choice,
)
from repro.evaluation.colocation_eval import (
    evaluate_all_policies,
    fig14_placement_comparison,
    measure_placement,
)
from repro.evaluation.pipeline import cluster_plans, placement_for_policy
from repro.sim.cluster import run_cluster
from repro.sim.colocation import SimConfig


def _counting_run_sweeps(monkeypatch, module):
    """Patch ``module.run_sweeps`` to record each call's sweep count."""
    calls = []
    real = module.run_sweeps

    def counting(sweeps, *args, **kwargs):
        calls.append(len(sweeps))
        return real(sweeps, *args, **kwargs)

    monkeypatch.setattr(module, "run_sweeps", counting)
    return calls


class TestEvaluatePolicy:
    def test_aggregates_per_server(self, catalog):
        ev = evaluate_all_policies(catalog, policies=("pocolo",), levels=[0.3, 0.7],
                                   duration_s=8.0)["pocolo"]
        assert set(ev.be_throughput_by_server) == set(catalog.lc_apps)
        assert 0.0 < ev.cluster_be_throughput < 1.0
        assert 0.0 < ev.cluster_power_utilization <= 1.05
        assert len(ev.runs) == 1  # pocolo placement is deterministic

    def test_random_policy_averages_seeds(self, catalog):
        ev = evaluate_all_policies(catalog, policies=("random",),
                                   placement_seeds=range(3), levels=[0.5],
                                   duration_s=6.0)["random"]
        assert len(ev.runs) == 3


class TestMeasurePlacement:
    def test_curve_shape(self, catalog):
        mapping = placement_for_policy(catalog, "pocolo").mapping
        curve = measure_placement(catalog, mapping, levels=[0.2, 0.8],
                                  duration_s=6.0)
        assert curve.levels == (0.2, 0.8)
        assert len(curve.total_load) == 2
        assert all(0.0 < v < 2.0 for v in curve.total_load)
        assert curve.mean_total == pytest.approx(
            sum(curve.total_load) / 2
        )

    def test_total_includes_lc_and_be(self, catalog):
        mapping = placement_for_policy(catalog, "pocolo").mapping
        curve = measure_placement(catalog, mapping, levels=[0.5], duration_s=6.0)
        # Total server load at level 0.5 must exceed the LC share alone.
        assert curve.total_load[0] > 0.5


class TestFig14:
    LEVELS = (0.2, 0.7)
    DURATION_S = 5.0

    def _per_level_totals(self, catalog, mapping):
        """The curve as one ``run_cluster`` call per level computes it."""
        decision = PlacementDecision(mapping=dict(mapping),
                                     predicted_total=float("nan"), method="fixed")
        plans = cluster_plans(catalog, decision, policy="pom")
        totals = []
        for level in self.LEVELS:
            result = run_cluster(plans, catalog.spec, levels=[level],
                                 duration_s=self.DURATION_S,
                                 config=SimConfig(seed=0))
            totals.append(float(np.mean([
                o.result.avg_lc_load_fraction + o.result.avg_be_throughput_norm
                for o in result.outcomes
            ])))
        return tuple(totals)

    def test_one_sweep_equals_per_level_runs(self, catalog, monkeypatch):
        calls = _counting_run_sweeps(monkeypatch, colocation_eval)
        fig = fig14_placement_comparison(catalog, levels=self.LEVELS,
                                         duration_s=self.DURATION_S)
        assert calls == [24], "all placements must run as one sweep"
        other = next(c for c in fig.all_curves if c.mapping != fig.pocolo.mapping)
        for curve in (fig.pocolo, other):
            assert curve.levels == self.LEVELS
            assert curve.total_load == self._per_level_totals(
                catalog, dict(curve.mapping)
            )


class TestSolverAblation:
    def test_exact_methods_agree(self, catalog):
        rows, random_mean = ablate_solver_choice(catalog)
        by_method = {r.method: r for r in rows}
        assert by_method["lp"].predicted_total == pytest.approx(
            by_method["hungarian"].predicted_total
        )
        assert by_method["lp"].predicted_total == pytest.approx(
            by_method["brute"].predicted_total
        )

    def test_greedy_at_most_optimal(self, catalog):
        rows, _ = ablate_solver_choice(catalog)
        by_method = {r.method: r for r in rows}
        assert by_method["greedy"].predicted_total <= (
            by_method["lp"].predicted_total + 1e-9
        )

    def test_optimal_beats_random_mean(self, catalog):
        rows, random_mean = ablate_solver_choice(catalog)
        by_method = {r.method: r for r in rows}
        assert by_method["lp"].predicted_total > random_mean


class TestSlackAblation:
    def test_rows_cover_targets(self, catalog, monkeypatch):
        calls = _counting_run_sweeps(monkeypatch, ablations)
        rows = ablate_slack_target(catalog, targets=(0.1, 0.5),
                                   levels=[0.3], duration_s=5.0)
        assert [r.slack_target for r in rows] == [0.1, 0.5]
        assert calls == [2], "every target must run in one sweep"

    def test_extreme_target_starves_be(self, catalog):
        rows = ablate_slack_target(catalog, targets=(0.1, 0.5),
                                   levels=[0.3, 0.6], duration_s=10.0)
        plateau, cliff = rows
        assert cliff.be_throughput < plateau.be_throughput


class TestSampleBudgetAblation:
    def test_full_grid_recovers_placement(self):
        rows = ablate_sample_budget(budgets=(6,))
        assert rows[0].placement_matches_full
        assert rows[0].mean_pref_error < 0.08

    def test_rows_report_grid_sizes(self):
        rows = ablate_sample_budget(budgets=(3, 4))
        assert rows[0].n_points == 9
        assert rows[1].n_points == 16

    def test_too_small_budget_rejected(self):
        with pytest.raises(ConfigError):
            ablate_sample_budget(budgets=(1,))


class TestCalibrationAblation:
    def test_small_perturbation_keeps_conclusion(self):
        from repro.evaluation.ablations import ablate_calibration_sensitivity
        rows = ablate_calibration_sensitivity(trials=4, perturbation=0.05)
        assert all(r.graph_on_sphinx for r in rows)
        assert all(r.predicted_regret < 1e-9 for r in rows)

    def test_rows_carry_mappings(self):
        from repro.evaluation.ablations import ablate_calibration_sensitivity
        rows = ablate_calibration_sensitivity(trials=2, perturbation=0.1)
        for r in rows:
            assert len(r.mapping) == 4
            assert {be for be, _ in r.mapping} == {"lstm", "rnn", "graph", "pbzip"}

    def test_validation(self):
        from repro.evaluation.ablations import ablate_calibration_sensitivity
        import pytest
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ablate_calibration_sensitivity(trials=0)
        with pytest.raises(ConfigError):
            ablate_calibration_sensitivity(trials=1, perturbation=1.5)
