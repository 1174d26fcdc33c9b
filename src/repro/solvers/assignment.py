"""Assignment-problem front end over the Hungarian and LP back ends.

The cluster manager needs "an assignment that maximizes the overall
cluster performance" (Section IV-B).  This module exposes one function,
:func:`assign_max`, with a selectable method, so the solver-choice
ablation (A2 in DESIGN.md) can swap back ends without touching the
placement logic.

Every exact method (``hungarian``, ``lp``, ``brute``) returns the same
assignment: the lexicographically smallest optimal permutation of the
zero-padded square matrix, decoded with padded columns as -1.  Which
optimum a solver happens to reach among tied ones never leaks out.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.solvers.hungarian import (
    _decode,
    _pad_square,
    _validate,
    brute_force_assignment_max,
    greedy_assignment_max,
    solve_assignment_max,
    tie_tolerance,
)
from repro.solvers.simplex import LpResult, solve_lp

#: Supported assignment back ends.
METHODS = ("hungarian", "lp", "greedy", "brute")


def assign_max(
    matrix: Sequence[Sequence[float]], method: str = "hungarian"
) -> Tuple[List[int], float]:
    """Maximize the total value of a row-to-column assignment.

    Parameters
    ----------
    matrix:
        ``matrix[i][j]`` is the value of assigning row ``i`` (a BE app)
        to column ``j`` (an LC server).
    method:
        ``"hungarian"`` (default), ``"lp"`` (the paper's formulation),
        ``"greedy"`` (heuristic) or ``"brute"`` (exhaustive, small
        matrices only).  The exact three return the same canonical
        assignment.

    Returns ``(assignment, total)`` with ``assignment[i]`` the column for
    row ``i`` (-1 if unmatched in rectangular problems).
    """
    if method == "hungarian":
        return solve_assignment_max(matrix)
    if method == "greedy":
        return greedy_assignment_max(matrix)
    if method == "brute":
        m = _validate(matrix)
        perm, _ = brute_force_assignment_max(_pad_square(m))
        assignment = _decode(perm, *m.shape)
        total = sum(m[i][j] for i, j in enumerate(assignment) if j >= 0)
        return assignment, float(total)
    if method == "lp":
        return lp_assignment_max(matrix)
    raise SolverError(f"unknown assignment method {method!r}; use one of {METHODS}")


def lp_assignment_max(
    matrix: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Assignment via the Birkhoff-polytope LP (the paper's formulation).

    Every vertex of that polytope is a permutation matrix, so the
    simplex optimum is an optimal assignment.  Rectangular matrices are
    padded with zero-value cells first.  The LP's optimum value must
    match the Hungarian solver's within the tie tolerance (else
    :class:`SolverError`); the canonical assignment is returned, so the
    vertex the pivoting happened to land on among tied optima does not
    matter.
    """
    m = _validate(matrix)
    result = birkhoff_lp(_pad_square(m))
    assignment, total = solve_assignment_max(m)
    if abs(result.objective - total) > tie_tolerance(m):
        raise SolverError(
            f"LP optimum {result.objective!r} disagrees with the Hungarian "
            f"optimum {total!r}"
        )
    return assignment, total


def birkhoff_lp(square: np.ndarray) -> LpResult:
    """Solve the assignment LP of a square value matrix.

    Maximizes ``sum(square[i, j] * x_ij)`` over variables ``x_ij >= 0``
    with every row and column summing to 1 (the Birkhoff polytope).
    """
    n = square.shape[0]
    c = square.reshape(-1)
    a_eq = np.zeros((2 * n, n * n))
    b_eq = np.ones(2 * n)
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0  # row sum
    for j in range(n):
        a_eq[n + j, j::n] = 1.0  # column sum
    return solve_lp(c, a_eq=a_eq, b_eq=b_eq)
