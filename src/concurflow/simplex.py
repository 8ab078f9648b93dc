"""Dense primal simplex with Bland's rule.

Solves  max c.x  subject to rows  a.x <= rhs  with x >= 0, from the slack
basis or from the basis a caller's start pivots reach. Built for desk-scale
problems (at most a few hundred variables and rows), where the plain
tableau method in double precision is robust. Bland's entering/leaving rule
precludes cycling, so every solve terminates; the iteration cap only guards
against pathological floating-point behaviour.

The basis is an index array. Each iteration prices every column with one
vector-matrix product, takes the first eligible column, and breaks
ratio-test ties on the lowest basic index. A pivot on a wide tableau updates
only the rows with a nonzero entry in the pivot column; on a narrow one, where
gathering those rows costs more than it saves, it is one outer-product update
of every row. Both give the same bits (the comment at ``skip_zero_rows`` says
why). A caller that solves one set of rows under changing right-hand sides
may pass their coefficients as the blocks it already holds, and the initial
tableau is copied from those.

Passed as ``RowBlocks``, the blocks also keep the pivot path of each solve,
and a later right-hand side replays it without a tableau. From the slack
basis the body after a sequence of pivots does not depend on the
right-hand side: a pivot's body update reads none. Pricing reads ``costs``
and the body, and so do the eligible rows of the entering column. So every
choice but the leaving row follows from the pivots before it, and the
rounds of all solves form a tree that branches only on the ratio test. A
walk down it repeats each ratio test on the recorded entering column and
each right-hand-side update ``rhs_r - f_r * (rhs_p / p)`` on the recorded
factors: the same operations on the same operands as a cold solve, so
pivots, ``x`` and ``value`` are the same bits. That holds while the update
form stays the one the path was recorded in. A walk stops, and the solve
goes on cold from the pivots it proved, where a divided pivot right-hand
side is -0.0, not finite or past ``REPLAY_LIMIT``. The recorded divided
pivot row's square sum was at most ``REPLAY_LIMIT ** 2``, so the finiteness
test at ``skip_zero_rows`` passes too, and the row update never ends on a
walked pivot. Paths are recorded only up to their first pivot that a walk
would stop at, and a tree stops growing at ``REPLAY_ROUNDS`` rounds: later
solves still walk it, and go on cold without recording where it ends.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-8
PIVOT_TOL = 1e-9
# Ratio-test ties: one value for cold solves and replayed walks, as replay needs.
TIE_TOL = 1e-12

# ``solve_lp`` takes ``<=`` rows only. ``EQUAL`` is kept for code outside the
# package that tells rows apart by sense.
LESS_EQUAL = "<="
EQUAL = "=="
# Tableaux with at least this many columns update only the rows a pivot changes.
ROW_UPDATE_MIN_COLUMNS = 128
# Largest right-hand side a replayed solve divides or starts from; its square
# and a recorded row's square sum stay far from overflow.
REPLAY_LIMIT = 1e150
# Rounds one ``RowBlocks`` tree keeps, about 0.5 MB at 53 rows. A search
# records at most a few dozen; the cap bounds a system solved for its whole
# life under ever new right-hand sides.
REPLAY_ROUNDS = 256


class SimplexError(RuntimeError):
    """Unbounded or stalled solve, or a start that leaves an infeasible basis."""


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0``, as builtin ``sum`` does up to Python 3.11.

    From 3.12 on ``sum`` compensates float rounding; the package adds a run of
    floats in Python only here, so ``eps``, levels and output bytes match on
    every interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class LpResult:
    """``x``, its ``value``, the pricing rounds (a replayed pivot counts, a start's
    do not) and every ``(row, col)`` pivot made, in order, a start's first."""

    x: np.ndarray
    value: float
    iterations: int
    pivots: list


class RowBlocks(tuple):
    """Coefficient blocks of one set of ``<=`` rows, with their recorded pivot paths.

    Stacked top to bottom the arrays are the rows' coefficients. ``roots``
    maps an objective's bytes to the first round of every solve under it
    over these blocks, a tree that ``solve_lp`` walks and extends while it
    holds fewer than ``REPLAY_ROUNDS`` rounds; ``rounds`` counts them. The
    objective's length and the blocks' row count fix the column count, and
    so the update form a path is recorded in. A branch is built in full
    before one ``dict.setdefault`` installs it, and every branch holds what
    a cold solve computes, so the blocks may be shared across threads.
    There the count may miss a concurrent branch, which lets the tree pass
    the cap by that branch; no result depends on it.
    """

    def __new__(cls, arrays: Sequence[np.ndarray]) -> RowBlocks:
        blocks = super().__new__(cls, arrays)
        blocks.roots = {}
        blocks.rounds = 0
        return blocks


class _Round:
    """One pricing round of a recorded solve.

    ``col`` entered, or is -1 in a final round, whose ``basis`` gives ``x``.
    ``rows`` are the rows with a positive entry in ``col``, ordered by their
    basic variable (Bland's tie-break), and ``column`` those entries.
    ``leaving`` maps each leaving row taken so far to its pivot element, the
    rows its update changes (a slice for all), their factors and the next
    round.
    """

    __slots__ = ("col", "rows", "column", "basis", "leaving")

    def __init__(self, col: int, rows=None, column=None, basis=None) -> None:
        self.col = col
        self.rows = rows
        self.column = column
        self.basis = basis
        self.leaving: dict = {}


def _replays(r: float) -> bool:
    """Whether a walk may take a pivot whose divided right-hand side is ``r``."""
    return -REPLAY_LIMIT <= r <= REPLAY_LIMIT and not (r == 0.0 and math.copysign(1.0, r) < 0.0)


def _walk(node: _Round, rhs: np.ndarray) -> tuple[_Round, list]:
    """Follow the recorded rounds from ``node`` under ``rhs``, updated in place.

    Returns the round the walk stopped at and the ``(row, col)`` pivots it
    took: a final round, or one whose leaving row has no recorded branch or
    takes a pivot that ``_replays`` refuses.
    """
    pivots = []
    while node.col >= 0:
        ratios = rhs.take(node.rows) / node.column
        low = ratios.min()
        if not math.isfinite(low):
            break  # the cold solve's tie set may be empty
        row = node.rows.item((ratios <= low + TIE_TOL).argmax())
        branch = node.leaving.get(row)
        if branch is None:
            break
        p, hit, factors, child = branch
        r = rhs.item(row) / p
        if not _replays(r):
            break
        rhs[row] = r
        rhs[hit] -= factors * r
        pivots.append((row, node.col))
        node = child
    return node, pivots


def _iteration_cap(m: int, ncols: int) -> int:
    """Pricing rounds allowed to one solve of ``m`` rows and ``ncols`` columns."""
    return 2000 + 200 * (m + ncols)


def solve_lp(
    objective,
    rows,
    blocks: Sequence[np.ndarray] | None = None,
    start: Iterable[tuple[int, int]] | None = None,
) -> LpResult:
    """Maximize ``objective . x`` over ``rows`` of (coefficients, ``<=``, rhs).

    Every coefficient vector has one entry per variable; a row of any other
    length or sense raises ``ValueError`` (the first bad row decides, its
    length before its sense). Raises ``SimplexError`` for unbounded problems
    and when the iteration cap is exceeded.

    ``start``, if given, are ``(row, col)`` pivots, as ``pivots`` lists them,
    made on the slack basis (slack ``i`` is column ``len(objective) + i``)
    before any pricing. After them every right-hand side must be at least
    ``-FEASIBILITY_TOL * (1 + max|rhs|)``, or ``SimplexError`` is raised.
    Without a start a negative right-hand side raises ``ValueError``.

    ``blocks``, if given and no ``start`` is, stacked top to bottom are the
    coefficient vectors of ``rows``, and the initial tableau is copied from
    them: the same bits. A caller that solves those rows under changing
    right-hand sides passes the arrays it keeps. Given as ``RowBlocks``, the
    solve first walks the pivot paths recorded with them, returns without a
    tableau if a path runs to its end, and otherwise continues cold from the
    pivots the walk proved and records the new branch.
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    m = len(rows)
    if m == 0:
        raise SimplexError("no constraint rows; problem is unbounded or trivial")

    coeffs, senses, rhs = zip(*rows)
    if blocks is not None:
        if start is not None:
            raise ValueError("a start is not taken with coefficient blocks")
        if senses.count(LESS_EQUAL) != m:
            raise ValueError("rows given with coefficient blocks must all be <=")
        if sum(map(len, blocks)) != m:
            raise ValueError("coefficient blocks do not match the rows")
    else:
        for size, sense in zip(map(len, coeffs), senses):
            if size > n:
                raise ValueError("constraint row longer than the objective")
            if size < n:
                raise ValueError("constraint row shorter than the objective")
            if sense != LESS_EQUAL:
                raise ValueError(f"unknown sense {sense!r}")
    b = np.array(rhs, dtype=float)
    if start is None and (b < 0).any():
        raise ValueError("negative right-hand side without a start")
    ncols = n + m
    made: list = []  # every (row, col) pivot, in order
    rounds, recording = None, False
    if isinstance(blocks, RowBlocks) and b.max() <= REPLAY_LIMIT:
        key = c.tobytes()
        anchor = blocks.roots.get(key)
        if anchor is not None:
            replayed = b.copy()
            anchor, made = _walk(anchor, replayed)
            if anchor.col < 0:
                x = np.zeros(ncols)
                x[anchor.basis] = replayed
                solution = x[:n]
                return LpResult(solution, float(c @ solution), len(made) + 1, made)
        # This solve's rounds from ``anchor`` on (from a new root if None),
        # and the (row, branch) by which each but the last left.
        recording, rounds, branches = blocks.rounds < REPLAY_ROUNDS, [], []
    # Every row is <= with its slack basic: copy in the coefficients and slacks.
    tableau = np.zeros((m, ncols + 1))
    if blocks is None:
        tableau[:, :n] = coeffs
    else:
        top = 0
        for block in blocks:
            tableau[top : top + len(block), :n] = block
            top += len(block)
    basis = np.arange(n, ncols)
    tableau[np.arange(m), basis] = 1.0
    tableau[:, -1] = b
    body, rhs = tableau[:, :ncols], tableau[:, -1]
    # Skipping a row whose pivot-column entry is +-0 keeps every nonzero entry
    # that the full update computes (x - 0*y == x). The two differ only in the
    # sign of a zero, which no pivot choice reads, and where the full update
    # makes NaN of 0*inf. x reads the right-hand sides of the rows whose basic
    # variable is structural, and each such row got it as the pivot row. The
    # full update leaves a pivot row no -0.0 right-hand side, and no update
    # makes a -0.0 of a +0.0. So wide tableaux skip rows until a divided pivot
    # row is not finite or has a -0.0 right-hand side (a given -0.0, or a
    # +0.0 divided by a negative pivot, which only a start may take); from
    # then on every pivot updates all rows.
    skip_zero_rows = ncols >= ROW_UPDATE_MIN_COLUMNS
    update = None  # one pivot's products, allocated on the first pivot

    max_iterations = _iteration_cap(m, ncols)
    iterations = len(made)

    def pivot(row: int, col: int) -> None:
        nonlocal skip_zero_rows, update
        line = tableau[row]
        p = line.item(col)
        line /= p
        if skip_zero_rows:
            r = line.item(-1)
            # Overflow in line @ line also ends the skipping: slower, still exact.
            if not math.isfinite(line @ line) or (r == 0.0 and math.copysign(1.0, r) < 0.0):
                skip_zero_rows = False
        line[col] = 0.0  # the pivot row takes no update
        factors = tableau[:, col]
        if update is None:
            update = np.empty_like(tableau)
        if skip_zero_rows:
            hit = factors.nonzero()[0]
            block = tableau[hit]
            block -= np.multiply(block[:, col, None], line, out=update[: hit.size])
            tableau[hit] = block
        else:
            np.multiply(factors[:, None], line, out=update)  # np.outer, no allocation
            tableau[...] -= update
        # Keep the pivot column numerically exact.
        tableau[:, col] = 0.0
        line[col] = 1.0
        basis[row] = col

    for row, col in made:
        pivot(row, col)
    if start is not None:
        for row, col in start:
            pivot(row, col)
            made.append((row, col))
        if rhs.min() < -FEASIBILITY_TOL * (1.0 + float(np.abs(b).max())):
            raise SimplexError("start leaves a negative right-hand side")

    costs = np.zeros(ncols)
    costs[:n] = c
    while True:
        if iterations > max_iterations:
            raise SimplexError("iteration cap exceeded; solve stalled")
        iterations += 1
        reduced = costs - costs[basis] @ body
        reduced[basis] = 0.0
        candidates = (reduced > OPTIMALITY_TOL).nonzero()[0]
        if candidates.size == 0:
            if recording:
                rounds.append(_Round(-1, basis=basis.copy()))
            break
        col = int(candidates[0])  # Bland: smallest eligible index.
        column = tableau[:, col]
        rows_ok = (column > PIVOT_TOL).nonzero()[0]
        if rows_ok.size == 0:
            raise SimplexError("unbounded objective")
        entries = column[rows_ok]
        ratios = rhs[rows_ok] / entries
        tied = rows_ok[ratios <= ratios.min() + TIE_TOL]
        row = min(tied.tolist(), key=basis.item)  # Bland on ties.
        made.append((row, col))
        if not recording:
            pivot(row, col)
            continue
        order = basis[rows_ok].argsort()
        rounds.append(_Round(col, rows_ok[order], entries[order]))
        p = column.item(row)
        r = rhs.item(row) / p
        factors = column.copy()
        factors[row] = 0.0
        wide = skip_zero_rows
        hit = factors.nonzero()[0] if wide else slice(None)
        pivot(row, col)
        line = tableau[row]
        if _replays(r) and (not wide or line @ line <= REPLAY_LIMIT**2):
            branches.append((row, (p, hit, factors[hit])))
        else:
            recording = False  # a walk stops here, or the update form changed

    if rounds and (anchor is None or branches):
        for i, (row, branch) in enumerate(branches):
            rounds[i].leaving[row] = (*branch, rounds[i + 1])
        if anchor is None:
            blocks.roots.setdefault(key, rounds[0])
        else:  # rounds[0] repeats ``anchor``
            row = branches[0][0]
            anchor.leaving.setdefault(row, rounds[0].leaving[row])
        blocks.rounds += len(branches) + (anchor is None)

    x = np.zeros(ncols)
    x[basis] = rhs
    solution = x[:n]
    return LpResult(solution, float(c @ solution), iterations, made)
