"""Ablation A2 — assignment-solver choice (our addition).

The paper says "We use a LP solver" and cites Hungarian/randomized
alternatives without comparing them.  This ablation runs all back ends
on the same fitted performance matrix.

Expected shape: LP, Hungarian and brute force return the same mapping
(every exact method returns the canonical optimum, the lexicographically
smallest optimal assignment); greedy can fall short; the optimum clearly
beats the mean random placement.

The emitted table is a committed golden snapshot — see
``tests/test_golden_reports.py`` and ``repro.evaluation.reports``.
"""

import pytest

from repro.evaluation.ablations import ablate_solver_choice
from repro.evaluation.reports import render_solver_choice


def test_abl2_solver_choice(benchmark, emit, catalog):
    rows_data, random_mean = benchmark(ablate_solver_choice, catalog)

    emit("abl2_solver_choice", render_solver_choice(rows_data, random_mean))

    by_method = {r.method: r for r in rows_data}
    assert by_method["lp"].predicted_total == pytest.approx(
        by_method["hungarian"].predicted_total, abs=1e-9
    )
    assert by_method["lp"].predicted_total == pytest.approx(
        by_method["brute"].predicted_total, abs=1e-9
    )
    assert by_method["lp"].mapping == by_method["brute"].mapping
    assert by_method["hungarian"].mapping == by_method["brute"].mapping
    assert by_method["greedy"].predicted_total <= by_method["lp"].predicted_total + 1e-9
    assert by_method["lp"].predicted_total > random_mean * 1.01
