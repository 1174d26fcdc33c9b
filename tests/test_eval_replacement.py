"""Tests for repro.evaluation.replacement: static vs dynamic placement."""

import pytest

from repro.core.placement import pocolo_placement
from repro.evaluation.replacement import (
    compare_replacement,
    matrix_at_loads,
    phase_loads,
)


class TestPhaseLoads:
    def test_staggered_peaks(self, catalog):
        # At phase 0, the first server peaks; a quarter-day later the
        # second one does.
        names = list(catalog.lc_apps)
        at0 = phase_loads(catalog, 0.0)
        at25 = phase_loads(catalog, 0.25)
        assert at0[names[0]] == pytest.approx(0.9)
        assert at25[names[1]] == pytest.approx(0.9)

    def test_bounds(self, catalog):
        for phase in (0.0, 0.1, 0.33, 0.7):
            for load in phase_loads(catalog, phase).values():
                assert 0.1 - 1e-9 <= load <= 0.9 + 1e-9


class TestMatrixAtLoads:
    def test_busy_server_offers_less(self, catalog):
        names = list(catalog.lc_apps)
        low = matrix_at_loads(catalog, {n: 0.1 for n in names})
        high = matrix_at_loads(catalog, {n: 0.9 for n in names})
        assert low.values.sum() > high.values.sum()

    def test_mixed_loads_shape_the_columns(self, catalog):
        names = list(catalog.lc_apps)
        loads = {n: 0.1 for n in names}
        loads[names[0]] = 0.9
        matrix = matrix_at_loads(catalog, loads)
        busy_col = matrix.values[:, 0]
        idle_col = matrix.values[:, 1]
        assert busy_col.mean() < idle_col.mean()

    def test_slammed_server_gets_the_cheapest_sacrifice(self, catalog):
        """With a 1:1 matching someone must take the slammed server; the
        LP must still land on the brute-force optimum for the phase."""
        from repro.solvers.hungarian import brute_force_assignment_max

        names = list(catalog.lc_apps)
        loads = {n: 0.15 for n in names}
        loads["sphinx"] = 0.95  # sphinx is slammed this phase
        matrix = matrix_at_loads(catalog, loads)
        decision = pocolo_placement(matrix)
        _, oracle_total = brute_force_assignment_max(matrix.values)
        assert decision.predicted_total == pytest.approx(oracle_total)
        # The slammed column offers ~nothing this phase.
        sacrificed = next(be for be, lc in decision.mapping.items()
                          if lc == "sphinx")
        assert matrix.cell(sacrificed, "sphinx") < 0.05


class TestCompareReplacement:
    def test_free_dynamic_at_least_static(self, catalog):
        result = compare_replacement(catalog)
        assert result.dynamic_total_by_penalty[0.0] >= result.static_total - 1e-9

    def test_penalty_monotone(self, catalog):
        result = compare_replacement(catalog)
        totals = [
            result.dynamic_total_by_penalty[p]
            for p in sorted(result.dynamic_total_by_penalty)
        ]
        assert totals == sorted(totals, reverse=True)

    def test_crossover_exists_in_sweep(self, catalog):
        result = compare_replacement(catalog)
        assert result.crossover_penalty() <= 0.20
