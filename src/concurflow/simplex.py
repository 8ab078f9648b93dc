"""Dense two-phase primal simplex with Bland's rule.

Solves  max c.x  subject to rows of the form  a.x (<=|>=|==) rhs  with x >= 0.
Built for desk-scale problems (at most a few hundred variables and rows),
where the plain tableau method in double precision is robust. Bland's
entering/leaving rule precludes cycling, so every solve terminates; the
iteration cap only guards against pathological floating-point behaviour.

The basis is an index array. Each iteration prices every column with one
vector-matrix product, takes the first eligible column, and breaks
ratio-test ties on the lowest basic index; a pivot is one outer-product
update written into a buffer allocated once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-8
PIVOT_TOL = 1e-9

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="
_SENSES = (LESS_EQUAL, GREATER_EQUAL, EQUAL)
# Per sense, the coefficient of the row's slack column; 0.0 means none. A row
# multiplied by -1 swaps <= and >=, which negates it.
_SLACK_SIGNS = (1.0, -1.0, 0.0)


class SimplexError(RuntimeError):
    """Infeasible, unbounded, or stalled solve."""


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    value: float
    iterations: int


def solve_lp(
    objective,
    rows,
    max_iterations: int | None = None,
) -> LpResult:
    """Maximize ``objective . x`` over ``rows`` of (coefficients, sense, rhs).

    Every coefficient vector has one entry per variable; a row of any other
    length or with an unknown sense raises ``ValueError``. Raises
    ``SimplexError`` for infeasible or unbounded problems and when the
    iteration cap is exceeded.
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    m = len(rows)
    if m == 0:
        raise SimplexError("no constraint rows; problem is unbounded or trivial")

    coeffs, senses, rhs = zip(*rows)
    for size, sense in zip(map(len, coeffs), senses):
        if size > n:
            raise ValueError("constraint row longer than the objective")
        if size < n:
            raise ValueError("constraint row shorter than the objective")
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
    a = np.array(coeffs, dtype=float)
    b = np.array(rhs, dtype=float)
    signs = np.array([_SLACK_SIGNS[_SENSES.index(sense)] for sense in senses])

    # Normalize to nonnegative right-hand sides; <= and >= swap on those rows.
    flip = (b < 0).nonzero()[0]
    a[flip] *= -1.0
    b[flip] = -b[flip]
    signs[flip] *= -1.0

    # Column layout: structural | slack/surplus | artificial | rhs. The rows
    # with a slack (<=, >=) or an artificial (>=, ==) take the columns of
    # that block in row order; a row's artificial, if any, starts basic.
    slack_rows = (signs != 0.0).nonzero()[0]
    art_rows = (signs <= 0.0).nonzero()[0]
    art_start = n + slack_rows.size
    slack_cols = np.arange(n, art_start)
    art_cols = np.arange(art_start, art_start + art_rows.size)
    ncols = art_start + art_rows.size
    tableau = np.zeros((m, ncols + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b
    tableau[slack_rows, slack_cols] = signs[slack_rows]
    tableau[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
    body, rhs = tableau[:, :ncols], tableau[:, -1]
    update = np.empty_like(tableau)

    if max_iterations is None:
        max_iterations = 2000 + 200 * (m + ncols)
    iterations = 0

    def pivot(row: int, col: int) -> None:
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        np.multiply(factors[:, None], tableau[row], out=update)  # np.outer, no allocation
        tableau[...] -= update
        # Keep the pivot column numerically exact.
        tableau[:, col] = 0.0
        tableau[row, col] = 1.0
        basis[row] = col

    def run_phase(costs: np.ndarray, allowed: np.ndarray) -> None:
        nonlocal iterations
        while True:
            if iterations > max_iterations:
                raise SimplexError("iteration cap exceeded; solve stalled")
            iterations += 1
            reduced = costs - costs[basis] @ body
            reduced[basis] = 0.0
            candidates = (allowed & (reduced > OPTIMALITY_TOL)).nonzero()[0]
            if candidates.size == 0:
                return
            col = int(candidates[0])  # Bland: smallest eligible index.
            column = tableau[:, col]
            rows_ok = (column > PIVOT_TOL).nonzero()[0]
            if rows_ok.size == 0:
                raise SimplexError("unbounded objective")
            ratios = rhs[rows_ok] / column[rows_ok]
            tied = rows_ok[ratios <= ratios.min() + 1e-12]
            pivot(min(tied.tolist(), key=basis.item), col)  # Bland on ties.

    allowed = np.ones(ncols, dtype=bool)
    if art_cols.size:
        art_mask = np.zeros(ncols, dtype=bool)
        art_mask[art_cols] = True
        phase1_costs = np.zeros(ncols)
        phase1_costs[art_cols] = -1.0
        run_phase(phase1_costs, allowed)
        # Python's sum, in row order: the rounding of the feasibility test.
        art_total = sum(rhs[art_mask[basis]].tolist())
        if art_total > FEASIBILITY_TOL * (1.0 + float(np.max(b, initial=0.0))):
            raise SimplexError("infeasible constraint system")
        allowed = ~art_mask
        # Drive leftover artificial basics out on any usable structural column.
        for i in art_mask[basis].nonzero()[0].tolist():
            row_cols = (allowed & (np.abs(body[i]) > PIVOT_TOL)).nonzero()[0]
            if row_cols.size:
                pivot(i, int(row_cols[0]))
            # Otherwise the row is redundant; the artificial stays basic at 0.

    phase2_costs = np.zeros(ncols)
    phase2_costs[:n] = c
    run_phase(phase2_costs, allowed)

    x = np.zeros(ncols)
    x[basis] = rhs
    solution = x[:n]
    return LpResult(solution, float(c @ solution), iterations)
