"""Two-phase simplex LP solver on a dense tableau, implemented from scratch.

The paper's cluster manager "uses a LP solver to identify an assignment
that maximizes the overall cluster performance" (Section IV-B).  We build
that LP solver here rather than importing one: a textbook two-phase
primal simplex on the standard form

    maximize    c^T x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                x >= 0

with Bland's anti-cycling rule.  The assignment polytope (birkhoff
polytope) has integral vertices, so simplex lands exactly on a
permutation matrix — which the assignment wrapper in
:mod:`repro.solvers.assignment` relies on.  Pivots write only the
entries a pivot can change (see :func:`_pivot`); assignment tableaus are
mostly zeros, so that is a small block of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError

_EPS = 1e-9


@dataclass(frozen=True)
class LpResult:
    """Outcome of an LP solve: the optimum and its objective value."""

    x: np.ndarray
    objective: float
    iterations: int


def solve_lp(
    c: Sequence[float],
    a_ub: Optional[Sequence[Sequence[float]]] = None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq: Optional[Sequence[Sequence[float]]] = None,
    b_eq: Optional[Sequence[float]] = None,
    max_iterations: int = 10_000,
) -> LpResult:
    """Maximize ``c @ x`` under ``a_ub x <= b_ub``, ``a_eq x == b_eq``, ``x >= 0``.

    Raises :class:`SolverError` on infeasible or unbounded problems, on
    dimension mismatches, and on non-finite inputs.
    """
    c_vec = np.asarray(c, dtype=float)
    if c_vec.ndim != 1 or c_vec.size == 0:
        raise SolverError("objective must be a non-empty vector")
    n = c_vec.size

    rows_ub, rhs_ub = _as_constraints(a_ub, b_ub, n, "inequality")
    rows_eq, rhs_eq = _as_constraints(a_eq, b_eq, n, "equality")
    if rows_ub.shape[0] + rows_eq.shape[0] == 0:
        raise SolverError("LP needs at least one constraint")
    if not (np.all(np.isfinite(c_vec)) and np.all(np.isfinite(rows_ub))
            and np.all(np.isfinite(rows_eq))):
        raise SolverError("LP data contains NaN or infinity")

    # Build the phase-1 tableau.  Slack variables for <= rows; artificial
    # variables for == rows and for <= rows with negative rhs (after sign
    # flip those become >= rows needing surplus + artificial).
    a_parts = []
    b_parts = []
    for row, rhs in zip(rows_ub, rhs_ub):
        if rhs < 0:
            a_parts.append((-row, -rhs, "ge"))
        else:
            a_parts.append((row, rhs, "le"))
    for row, rhs in zip(rows_eq, rhs_eq):
        if rhs < 0:
            a_parts.append((-row, -rhs, "eq"))
        else:
            a_parts.append((row, rhs, "eq"))

    m = len(a_parts)
    num_slack = sum(1 for _, _, kind in a_parts if kind in ("le", "ge"))
    num_art = sum(1 for _, _, kind in a_parts if kind in ("eq", "ge"))
    width = n + num_slack + num_art

    table = np.zeros((m, width))
    rhs_col = np.zeros(m)
    basis = [-1] * m
    slack_idx = n
    art_idx = n + num_slack
    art_cols = []
    for i, (row, rhs, kind) in enumerate(a_parts):
        table[i, :n] = row
        rhs_col[i] = rhs
        if kind == "le":
            table[i, slack_idx] = 1.0
            basis[i] = slack_idx
            slack_idx += 1
        elif kind == "ge":
            table[i, slack_idx] = -1.0
            slack_idx += 1
            table[i, art_idx] = 1.0
            basis[i] = art_idx
            art_cols.append(art_idx)
            art_idx += 1
        else:  # eq
            table[i, art_idx] = 1.0
            basis[i] = art_idx
            art_cols.append(art_idx)
            art_idx += 1

    iterations = 0
    if art_cols:
        # Phase 1: minimize sum of artificials == maximize -sum.
        phase1_c = np.zeros(width)
        for col in art_cols:
            phase1_c[col] = -1.0
        iterations += _run_simplex(table, rhs_col, phase1_c, basis, max_iterations)
        phase1_obj = sum(rhs_col[i] for i in range(m) if basis[i] in set(art_cols))
        if phase1_obj > 1e-7:
            raise SolverError("LP is infeasible")
        _drive_out_artificials(table, rhs_col, basis, set(art_cols), n + num_slack)
        # Freeze artificial columns at zero for phase 2.
        for col in art_cols:
            table[:, col] = 0.0

    phase2_c = np.zeros(width)
    phase2_c[:n] = c_vec
    iterations += _run_simplex(table, rhs_col, phase2_c, basis, max_iterations)

    x = np.zeros(width)
    for i, col in enumerate(basis):
        if col >= 0:
            x[col] = rhs_col[i]
    solution = x[:n]
    return LpResult(
        x=solution, objective=float(c_vec @ solution), iterations=iterations
    )


def _as_constraints(
    a: Optional[Sequence], b: Optional[Sequence], n: int, kind: str
) -> Tuple[np.ndarray, np.ndarray]:
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise SolverError(f"{kind} constraints need both matrix and rhs")
    a_m = np.asarray(a, dtype=float)
    b_v = np.asarray(b, dtype=float)
    if a_m.ndim != 2 or a_m.shape[1] != n:
        raise SolverError(f"{kind} matrix must be 2-D with {n} columns")
    if b_v.ndim != 1 or b_v.size != a_m.shape[0]:
        raise SolverError(f"{kind} rhs length must match matrix rows")
    return a_m, b_v


def _run_simplex(
    table: np.ndarray,
    rhs: np.ndarray,
    c: np.ndarray,
    basis: list,
    max_iterations: int,
) -> int:
    """Primal simplex iterations in place; returns the iteration count.

    Pivoting uses Dantzig's rule with a Bland fallback once the iteration
    count passes half the budget, guaranteeing termination.
    """
    m, width = table.shape
    for iteration in range(max_iterations):
        # Reduced costs: c_j - c_B^T B^-1 A_j; the tableau is kept in
        # B^-1 A form, so reduced = c - c_basis @ table.
        c_basis = np.array([c[j] if j >= 0 else 0.0 for j in basis])
        reduced = c - c_basis @ table
        use_bland = iteration > max_iterations // 2
        entering = _choose_entering(reduced, use_bland)
        if entering < 0:
            return iteration
        ratios = np.full(m, np.inf)
        col = table[:, entering]
        positive = col > _EPS
        ratios[positive] = rhs[positive] / col[positive]
        if not np.any(np.isfinite(ratios)):
            raise SolverError("LP is unbounded")
        if use_bland:
            best = np.min(ratios)
            candidates = [i for i in range(m) if ratios[i] <= best + _EPS]
            leaving = min(candidates, key=lambda i: basis[i])
        else:
            leaving = int(np.argmin(ratios))
        _pivot(table, rhs, leaving, entering)
        basis[leaving] = entering
    raise SolverError(f"simplex exceeded {max_iterations} iterations")


def _choose_entering(reduced: np.ndarray, bland: bool) -> int:
    if bland:
        for j, r in enumerate(reduced):
            if r > _EPS:
                return j
        return -1
    j = int(np.argmax(reduced))
    return j if reduced[j] > _EPS else -1


def _pivot(table: np.ndarray, rhs: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``table[row, col]`` as a sparse rank-1 update.

    Every row ``i != row`` with ``|table[i, col]| > _EPS`` becomes
    ``table[i] - table[i, col] * table[row]`` after the pivot row is
    normalised.  Only the entries where the normalised pivot row is
    non-zero can change, so only those are written; each gets the same
    ``t - f * p`` a dense row update would give, which keeps the pivot
    sequence, and hence the tie-breaks on degenerate assignment LPs,
    unchanged.  ``table`` must be C-contiguous (``solve_lp`` builds it
    so), since the update goes through a flat view.
    """
    pivot = table[row, col]
    table[row, :] /= pivot
    rhs[row] /= pivot
    factors = table[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(np.abs(factors) > _EPS)
    if rows.size == 0:
        return
    pivot_row = table[row]
    cols = np.flatnonzero(pivot_row)
    factors = factors[rows]
    flat = table.reshape(-1)
    flat[np.add.outer(rows * table.shape[1], cols).ravel()] -= np.outer(
        factors, pivot_row[cols]
    ).ravel()
    rhs[rows] -= factors * rhs[row]


def _drive_out_artificials(
    table: np.ndarray,
    rhs: np.ndarray,
    basis: list,
    art_cols: set,
    num_real: int,
) -> None:
    """Pivot basic artificial variables (at zero) out of the basis."""
    for i in range(table.shape[0]):
        if basis[i] not in art_cols:
            continue
        pivot_col = -1
        for j in range(num_real):
            if abs(table[i, j]) > _EPS:
                pivot_col = j
                break
        if pivot_col >= 0:
            _pivot(table, rhs, i, pivot_col)
            basis[i] = pivot_col
        # else: redundant row; the artificial stays basic at value 0,
        # harmless because its column is frozen afterwards.
