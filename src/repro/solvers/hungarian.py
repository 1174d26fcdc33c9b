"""Hungarian (Kuhn-Munkres) assignment solver, implemented from scratch.

The paper's cluster manager solves a best-effort-to-server matching that
maximizes total estimated throughput (Section IV-B), citing the classic
assignment literature (Munkres [30]) alongside LP solvers.  This module
provides the O(n^3) shortest-augmenting-path formulation with dual
potentials — the standard modern statement of Kuhn-Munkres.

The core routine *minimizes* cost; :func:`solve_assignment_max` negates
the matrix for the maximization the cluster manager needs.  Rectangular
matrices are handled by padding with zeros (extra rows/columns match a
dummy partner, reported as -1).

Tied optima are resolved by a rule, not by the search order: every
exact solver returns the *lexicographically smallest* optimal
permutation of the zero-padded square matrix (see :func:`_canonicalise`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError

#: Tie tolerance, relative to the matrix's largest magnitude (or 1 if
#: that is smaller).  A reduced cost within it counts as tight, and an
#: assignment total within it of the optimum counts as optimal.
TIE_TOL = 1e-9


def _validate(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise SolverError("assignment needs a non-empty 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise SolverError("assignment matrix contains NaN or infinity")
    return m


def _pad_square(m: np.ndarray) -> np.ndarray:
    rows, cols = m.shape
    n = max(rows, cols)
    if rows == cols:
        return m
    padded = np.zeros((n, n), dtype=float)
    padded[:rows, :cols] = m
    return padded


def tie_tolerance(m: np.ndarray) -> float:
    """The absolute tie tolerance for matrix ``m`` (:data:`TIE_TOL` scaled)."""
    return TIE_TOL * max(1.0, float(np.max(np.abs(m))))


def _decode(perm: Sequence[int], rows: int, cols: int) -> List[int]:
    """Real rows' columns of a padded-square permutation; padding is -1."""
    return [j if j < cols else -1 for j in perm[:rows]]


def _hungarian(cost: List[List[float]]) -> Tuple[List[int], List[float], List[float]]:
    """Minimum-cost perfect matching of a square cost matrix, with duals.

    Returns ``(perm, u, v)``: ``perm[i]`` is row ``i``'s column and
    ``u``/``v`` are the row/column potentials, feasible
    (``cost[i][j] - u[i] - v[j] >= 0``) and tight on the matching.
    """
    n = len(cost)
    # Potentials u (rows) and v (columns); way[j] = predecessor column on
    # the alternating path; match_col[j] = row matched to column j.
    # 1-indexed internally per the classical formulation, cost rows
    # included (a leading 0.0 each), so the inner loop does no index
    # arithmetic.
    inf = float("inf")
    rows: List[List[float]] = [[]] + [[0.0] + row for row in cost]
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # 0 = unmatched
    way = [0] * (n + 1)
    columns = range(1, n + 1)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        visited = [0]  # used columns, in visiting order
        free = list(columns)  # unused columns, ascending
        while True:
            i0 = match_col[j0]
            row = rows[i0]
            u_i0 = u[i0]
            delta = inf
            j1 = -1
            for j in free:
                cur = row[j] - u_i0 - v[j]
                low = minv[j]
                if cur < low:
                    minv[j] = low = cur
                    way[j] = j0
                if low < delta:
                    delta = low
                    j1 = j
            if j1 < 0:
                raise SolverError("augmenting path search failed")  # pragma: no cover
            for j in visited:
                u[match_col[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
            visited.append(j0)
            free.remove(j0)
        # Unwind the alternating path.
        while j0 != 0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    perm = [0] * n
    for j in columns:
        perm[match_col[j] - 1] = j - 1
    return perm, u[1:], v[1:]


def _canonicalise(
    cost: List[List[float]],
    perm: List[int],
    u: List[float],
    v: List[float],
    tol: float,
) -> List[int]:
    """The lexicographically smallest optimal permutation.

    By complementary slackness every optimal matching uses only *tight*
    edges (reduced cost ``cost[i][j] - u[i] - v[j]`` within ``tol`` of
    zero; dual feasibility makes it non-negative), and every perfect
    matching of tight edges is optimal.  Rows are fixed in order: each
    takes its smallest tight column that still leaves a perfect
    matching, which one alternating-path search from the displaced row
    — over rows not yet fixed — decides.  ``perm`` (the Hungarian
    matching) is the start; its edges count as tight whatever rounding
    did to their reduced costs, so a perfect matching always exists.
    """
    n = len(cost)
    tight = [
        [j for j, c in enumerate(row) if c - u_i - v[j] <= tol or j == perm[i]]
        for i, (row, u_i) in enumerate(zip(cost, u))
    ]
    match = list(perm)
    owner = [0] * n  # owner[j] = row matched to column j
    for i, j in enumerate(match):
        owner[j] = i
    for i in range(n):
        target = match[i]
        for j in tight[i]:
            if j == target:
                break
            if owner[j] < i:
                continue  # held by a fixed row
            path = _alternating_path(owner[j], j, target, i, tight, owner)
            if path is None:
                continue
            # Shift every row on the path to its next column, then
            # give row i column j.
            for row, col in path:
                match[row] = col
                owner[col] = row
            match[i] = j
            owner[j] = i
            break
    return match


def _alternating_path(
    start: int,
    taken: int,
    target: int,
    fixed_below: int,
    tight: List[List[int]],
    owner: List[int],
) -> Optional[List[Tuple[int, int]]]:
    """An alternating path from row ``start`` to the free column ``target``.

    Row ``start`` has just lost column ``taken``.  The search runs
    depth-first over tight edges and moves only rows above
    ``fixed_below``.  Returns the ``(row, new column)`` steps, or
    ``None`` when no such path exists.
    """
    seen = {taken}
    stack = [(start, iter(tight[start]))]
    steps: List[Tuple[int, int]] = []
    while stack:
        row, columns = stack[-1]
        for col in columns:
            if col in seen:
                continue
            seen.add(col)
            if col == target:
                steps.append((row, col))
                return steps
            nxt = owner[col]
            if nxt > fixed_below:
                steps.append((row, col))
                stack.append((nxt, iter(tight[nxt])))
                break
        else:
            stack.pop()
            if steps:
                steps.pop()
    return None


def solve_assignment_min(matrix: Sequence[Sequence[float]]) -> Tuple[List[int], float]:
    """Minimum-cost perfect assignment on a (possibly rectangular) matrix.

    Returns ``(assignment, total_cost)`` where ``assignment[i]`` is the
    column matched to row ``i`` (or -1 for padded rows of a rectangular
    problem).  Among tied optima it is the lexicographically smallest
    permutation of the zero-padded square.  Cost counts only real
    (unpadded) cells.
    """
    m = _validate(matrix)
    rows, cols = m.shape
    cost = _pad_square(m).tolist()
    perm, u, v = _hungarian(cost)
    canonical = _canonicalise(cost, perm, u, v, tie_tolerance(m))
    assignment = _decode(canonical, rows, cols)
    total = sum(
        m[i][assignment[i]] for i in range(rows) if assignment[i] >= 0
    )
    return assignment, float(total)


def solve_assignment_max(matrix: Sequence[Sequence[float]]) -> Tuple[List[int], float]:
    """Maximum-value perfect assignment (what the cluster manager wants).

    Same contract as :func:`solve_assignment_min`; implemented by
    negating the matrix, so ties resolve identically.
    """
    m = _validate(matrix)
    assignment, neg_total = solve_assignment_min(-m)
    return assignment, -neg_total


def brute_force_assignment_max(
    matrix: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Exhaustive search over all permutations — the Fig 14 comparator.

    Exponential; intended for the paper's 4x4 cluster and as the
    independent oracle for the polynomial solvers in tests.  Permutations
    come in lexicographic order and the first within the tie tolerance
    of the maximum wins, which is the canonical optimum by definition.
    Requires a square matrix.
    """
    m = _validate(matrix)
    rows, cols = m.shape
    if rows != cols:
        raise SolverError("brute force requires a square matrix")
    if rows > 9:
        raise SolverError("brute force limited to 9x9 (factorial blow-up)")

    from itertools import permutations

    tol = tie_tolerance(m)
    values = m.tolist()
    # Record-setting permutations within tol of the running maximum, in
    # enumeration order: an earlier permutation with an equal or higher
    # total always beats a later one, so only new records are kept.
    records: List[Tuple[Tuple[int, ...], float]] = []
    for perm in permutations(range(rows)):
        total = sum(values[i][perm[i]] for i in range(rows))
        if not records or total > records[-1][1]:
            records.append((perm, total))
            while records[0][1] < total - tol:
                records.pop(0)
    best_perm, _ = records[0]
    best_total = sum(m[i][best_perm[i]] for i in range(rows))
    return list(best_perm), float(best_total)


def greedy_assignment_max(
    matrix: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Greedy heuristic: repeatedly take the largest remaining cell.

    Not optimal in general — used by the solver-choice ablation (A2) to
    quantify how much the LP/Hungarian optimum actually buys.
    """
    m = _validate(matrix).copy()
    rows, cols = m.shape
    assignment = [-1] * rows
    free_rows = set(range(rows))
    free_cols = set(range(cols))
    while free_rows and free_cols:
        best = None
        for i in free_rows:
            for j in free_cols:
                if best is None or m[i][j] > m[best[0]][best[1]]:
                    best = (i, j)
        i, j = best  # type: ignore[misc]
        assignment[i] = j
        free_rows.remove(i)
        free_cols.remove(j)
    total = sum(m[i][assignment[i]] for i in range(rows) if assignment[i] >= 0)
    return assignment, float(total)
