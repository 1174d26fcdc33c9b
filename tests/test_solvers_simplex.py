"""Tests for repro.solvers.simplex and the assignment LP wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import fleet_placement
from repro.errors import SolverError
from repro.evaluation.reports import FLEET_CAPACITIES, FLEET_DEMANDS
from repro.solvers import assignment, simplex, transportation
from repro.solvers.assignment import METHODS, assign_max, lp_assignment_max
from repro.solvers.hungarian import solve_assignment_max
from repro.solvers.simplex import solve_lp


class TestKnownLPs:
    def test_two_variable_textbook(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2 -> x=2, y=2, obj=10
        result = solve_lp([3, 2], a_ub=[[1, 1], [1, 0]], b_ub=[4, 2])
        assert result.objective == pytest.approx(10.0)
        assert result.x == pytest.approx([2.0, 2.0])

    def test_equality_constraint(self):
        # max x + 2y s.t. x + y == 3, y <= 2 -> x=1, y=2, obj=5
        result = solve_lp([1, 2], a_ub=[[0, 1]], b_ub=[2], a_eq=[[1, 1]], b_eq=[3])
        assert result.objective == pytest.approx(5.0)

    def test_negative_rhs_inequality(self):
        # max -x s.t. -x <= -2  (i.e. x >= 2) -> x=2, obj=-2
        result = solve_lp([-1], a_ub=[[-1]], b_ub=[-2])
        assert result.objective == pytest.approx(-2.0)
        assert result.x[0] == pytest.approx(2.0)

    def test_degenerate_objective(self):
        result = solve_lp([0, 0], a_ub=[[1, 1]], b_ub=[5])
        assert result.objective == 0.0

    def test_binding_budget(self):
        # The paper's Eq.2 shape: max perf proxy under a power budget.
        result = solve_lp([1, 1], a_ub=[[2, 3]], b_ub=[12])
        assert result.objective == pytest.approx(6.0)  # all on the cheap resource


class TestInfeasibleUnbounded:
    def test_infeasible(self):
        with pytest.raises(SolverError, match="infeasible"):
            solve_lp([1], a_eq=[[1]], b_eq=[5], a_ub=[[1]], b_ub=[1])

    def test_unbounded(self):
        with pytest.raises(SolverError, match="unbounded"):
            solve_lp([1, 1], a_ub=[[1, -1]], b_ub=[1])

    def test_contradictory_equalities(self):
        with pytest.raises(SolverError, match="infeasible"):
            solve_lp([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[2, 3])


class TestValidation:
    def test_empty_objective_rejected(self):
        with pytest.raises(SolverError):
            solve_lp([], a_ub=[[1]], b_ub=[1])

    def test_no_constraints_rejected(self):
        with pytest.raises(SolverError):
            solve_lp([1, 2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SolverError):
            solve_lp([1, 2], a_ub=[[1, 2, 3]], b_ub=[1])
        with pytest.raises(SolverError):
            solve_lp([1, 2], a_ub=[[1, 2]], b_ub=[1, 2])

    def test_half_specified_constraints_rejected(self):
        with pytest.raises(SolverError):
            solve_lp([1], a_ub=[[1]])

    def test_nan_rejected(self):
        with pytest.raises(SolverError):
            solve_lp([float("nan")], a_ub=[[1]], b_ub=[1])


class TestAgainstScipy:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_random_bounded_lps(self, n, m, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m)) + 1.0
        # Add a box row to guarantee boundedness.
        a = np.vstack([a, np.ones(n)])
        b = np.append(b, 100.0)
        ours = solve_lp(c, a_ub=a, b_ub=b)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert ours.objective == pytest.approx(-ref.fun, abs=1e-6)


class TestAssignmentLp:
    def test_matches_hungarian(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) * 5
            _, lp_total = lp_assignment_max(m)
            _, hung_total = solve_assignment_max(m)
            assert lp_total == pytest.approx(hung_total, abs=1e-6)

    def test_solution_is_integral_permutation(self):
        m = np.random.default_rng(3).normal(size=(5, 5))
        assignment, _ = lp_assignment_max(m)
        assert sorted(assignment) == list(range(5))

    def test_rectangular_padding(self):
        m = [[5.0, 1.0, 2.0], [1.0, 6.0, 2.0]]
        assignment, total = lp_assignment_max(m)
        assert assignment == [0, 1]
        assert total == pytest.approx(11.0)

    def test_assign_max_method_dispatch(self):
        m = [[2.0, 1.0], [1.0, 2.0]]
        for method in METHODS:
            assignment, total = assign_max(m, method=method)
            assert assignment == [0, 1]
            assert total == pytest.approx(4.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            assign_max([[1.0]], method="quantum")

    def test_empty_matrix_rejected(self):
        with pytest.raises(SolverError):
            lp_assignment_max(np.zeros((0, 0)))


def _dense_pivot(table, rhs, row, col):
    """The row-by-row dense pivot, kept here as the reference."""
    pivot = table[row, col]
    table[row, :] /= pivot
    rhs[row] /= pivot
    for i in range(table.shape[0]):
        if i != row and abs(table[i, col]) > simplex._EPS:
            factor = table[i, col]
            table[i, :] -= factor * table[row, :]
            rhs[i] -= factor * rhs[row]


def _tied_matrices():
    rng = np.random.default_rng(2020)
    return [np.round(rng.random((n, n)), 1) for n in (6, 9, 12)]


class TestSparsePivotDifferential:
    """The sparse rank-1 pivot reproduces the dense pivot bit for bit.

    Every LP the solver returns (``x`` bytes, objective, iteration
    count) and every decoded assignment must match, on the degenerate,
    tie-heavy shapes the cluster stack actually solves: the catalog's
    placement matrix replicated to fleet size, the all-equal 1 x 47
    crash re-placement, and rounded matrices full of ties.
    """

    @staticmethod
    def _solve(monkeypatch, pivot, call):
        results = []

        def recording(*args, **kwargs):
            result = solve_lp(*args, **kwargs)
            results.append(
                (result.x.tobytes(), result.objective, result.iterations)
            )
            return result

        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_pivot", pivot)
            patch.setattr(simplex, "solve_lp", recording)
            patch.setattr(assignment, "solve_lp", recording)
            patch.setattr(transportation, "solve_lp", recording)
            value = call()
        assert results, "the call never reached solve_lp"
        return value, results

    def _assert_identical(self, monkeypatch, call):
        sparse = self._solve(monkeypatch, simplex._pivot, call)
        dense = self._solve(monkeypatch, _dense_pivot, call)
        assert sparse == dense

    def test_replicated_catalog_matrix(self, monkeypatch, catalog):
        # Replicas share their fits, so the x12 catalog's placement
        # matrix is the 4 x 4 one tiled: 48 x 48 and full of ties.
        matrix = np.tile(catalog.performance_matrix().values, (12, 12))
        self._assert_identical(
            monkeypatch, lambda: assign_max(matrix, method="lp")
        )

    @pytest.mark.parametrize(
        "matrix",
        [
            np.full((1, 47), 37.5),  # crash re-placement: equal refuges
            np.arange(15.0).reshape(3, 5) % 4,
            np.arange(15.0).reshape(5, 3) % 4,
            np.zeros((6, 6)),
            *_tied_matrices(),
        ],
        ids=["1x47-equal", "3x5", "5x3", "zeros", "tied6", "tied9", "tied12"],
    )
    def test_assignment_shapes(self, monkeypatch, matrix):
        self._assert_identical(
            monkeypatch, lambda: assign_max(matrix, method="lp")
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_general_lps_with_ties(self, monkeypatch, seed):
        # Non-integral tableaus, both phases and negative right-hand
        # sides: the update arithmetic itself, not just its pattern.
        rng = np.random.default_rng(seed)
        n = 12
        x0 = np.round(rng.random(n), 1)  # a feasible point
        c = np.round(rng.normal(size=n), 1)
        a_ub = np.vstack([np.round(rng.normal(size=(6, n)), 1), np.ones(n)])
        b_ub = np.round(a_ub @ x0 + 0.5, 1)
        a_eq = np.round(rng.random((2, n)), 1)
        b_eq = a_eq @ x0
        self._assert_identical(
            monkeypatch,
            lambda: simplex.solve_lp(
                c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq
            ).objective,
        )

    def test_fleet_transportation_lp(self, monkeypatch, catalog):
        matrix = catalog.performance_matrix()

        def solve():
            plan = fleet_placement(
                matrix, FLEET_DEMANDS, FLEET_CAPACITIES, method="lp"
            )
            return plan.predicted_total, plan.flows

        self._assert_identical(monkeypatch, solve)
