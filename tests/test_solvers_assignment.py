"""The assignment contract: one canonical optimum, whichever solver runs.

Every exact method of :func:`repro.solvers.assign_max` — the Hungarian
solver (plus canonicalisation), the paper's LP and brute force — must
return the *same* assignment: the lexicographically smallest optimal
permutation of the zero-padded square matrix.  Brute force enumerates
permutations in lexicographic order, so it is an independent oracle for
the rule.  The shapes below are the ones where solvers used to disagree:
integer matrices full of ties, replicated columns (the fleet's
replicated catalog) and the all-equal crash re-placement row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import assign_with_fallback
from repro.errors import SolverError
from repro.solvers import assign_max

EXACT = ("hungarian", "lp", "brute")


def _tie_heavy(rows, cols):
    """Integer matrices with values 0-2: ties almost everywhere."""
    return st.lists(
        st.lists(st.integers(0, 2), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda m: np.array(m, dtype=float))


@st.composite
def tie_heavy_square(draw):
    n = draw(st.integers(1, 8))
    return draw(_tie_heavy(n, n))


@st.composite
def replicated_columns(draw):
    """A few distinct columns, each repeated, in a random column order.

    Values are sevenths: inexact in binary, so equal totals summed in
    different orders can differ in the last bit, yet distinct totals
    stay far apart.
    """
    rows = draw(st.integers(1, 8))
    distinct = draw(st.integers(1, 4))
    base = draw(st.lists(
        st.lists(st.integers(0, 14).map(lambda k: k / 7),
                 min_size=distinct, max_size=distinct),
        min_size=rows, max_size=rows,
    ))
    cols = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=8))
    return np.array(base, dtype=float)[:, cols]


def _assert_one_assignment(matrix):
    results = {method: assign_max(matrix, method=method) for method in EXACT}
    assignments = {method: r[0] for method, r in results.items()}
    assert len({tuple(a) for a in assignments.values()}) == 1, assignments
    totals = [r[1] for r in results.values()]
    assert max(totals) - min(totals) <= 1e-9


class TestCanonicalContract:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_square())
    def test_tie_heavy_square(self, matrix):
        _assert_one_assignment(matrix)

    @settings(max_examples=40, deadline=None)
    @given(replicated_columns())
    def test_replicated_columns(self, matrix):
        _assert_one_assignment(matrix)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 5), (5, 3)]).flatmap(lambda s: _tie_heavy(*s)))
    def test_rectangular(self, matrix):
        _assert_one_assignment(matrix)

    def test_all_equal_crash_replacement_row(self):
        # Crash re-placement scores every survivor alike: the first wins.
        row = np.full((1, 47), 37.5)
        for method in ("hungarian", "lp"):
            assert assign_max(row, method=method) == ([0], 37.5)
        assert assign_max(np.full((1, 9), 37.5), method="brute") == ([0], 37.5)

    def test_default_is_the_canonical_hungarian(self):
        matrix = np.tile([[2.0, 1.0], [1.0, 2.0]], (2, 2))
        assert assign_max(matrix) == assign_max(matrix, method="hungarian")
        assert assign_max(matrix)[0] == [0, 1, 2, 3]

    def test_padded_columns_decode_to_unmatched(self):
        assignment, total = assign_max([[9.0], [5.0], [9.0]])
        assert assignment == [0, -1, -1]
        assert total == 9.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("method", EXACT)
    def test_exact_methods_reject_nan(self, method):
        with pytest.raises(SolverError):
            assign_max([[1.0, float("nan")], [2.0, 3.0]], method=method)

    def test_fallback_ends_in_greedy(self):
        values = np.array([[np.nan, 1.0], [2.0, np.nan]])
        assignment, total, method, fallbacks = assign_with_fallback(values)
        assert method == "greedy-fallback"
        assert fallbacks == 1  # the one failed solve
        assert assignment == [1, 0]
        assert total == pytest.approx(3.0)


class TestLpValueOracle:
    def test_lp_optimum_must_match_hungarian(self, monkeypatch):
        # A simplex optimum off the Hungarian one is a solver failure,
        # not a second opinion on the assignment.
        from repro.solvers import assignment
        from repro.solvers.simplex import LpResult

        monkeypatch.setattr(
            assignment, "solve_lp",
            lambda *args, **kwargs: LpResult(np.zeros(4), 2.0, 0),
        )
        with pytest.raises(SolverError, match="disagrees"):
            assign_max([[2.0, 1.0], [1.0, 2.0]], method="lp")
