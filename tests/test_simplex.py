import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import concurflow.oracle
import concurflow.simplex
from concurflow import Flow, generate_instance, lp_emcfpsc, solve
from concurflow.oracle import lp_grouped_max, lp_mmfpb_exact
from concurflow.simplex import (
    EQUAL,
    FEASIBILITY_TOL,
    GREATER_EQUAL,
    LESS_EQUAL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    REPLAY_LIMIT,
    REPLAY_ROUNDS,
    ROW_UPDATE_MIN_COLUMNS,
    LpResult,
    RowBlocks,
    SimplexError,
    solve_lp,
)


def test_box_maximum():
    res = solve_lp([1.0, 1.0], [([1, 0], "<=", 1.0), ([0, 1], "<=", 2.0)])
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 2.0])


def test_shared_budget():
    res = solve_lp([2.0, 1.0], [([1, 1], "<=", 1.0)])
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 0.0])


def test_greater_equal_two_phase():
    # max x + y  s.t.  x + y <= 4,  x >= 1,  y >= 2
    res = solve_lp(
        [1.0, 1.0],
        [([1, 1], "<=", 4.0), ([1, 0], ">=", 1.0), ([0, 1], ">=", 2.0)],
    )
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.x[0] >= 1.0 - 1e-9
    assert res.x[1] >= 2.0 - 1e-9


def test_equality_constraint():
    # max x  s.t.  x + y == 2,  x <= 1.5
    res = solve_lp([1.0, 0.0], [([1, 1], "==", 2.0), ([1, 0], "<=", 1.5)])
    assert res.value == pytest.approx(1.5, abs=1e-12)
    assert res.x == pytest.approx([1.5, 0.5])


def test_infeasible_detected():
    with pytest.raises(SimplexError, match="infeasible"):
        solve_lp([1.0], [([1], "<=", 1.0), ([1], ">=", 2.0)])


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        solve_lp([1.0, 0.0], [([0, 1], "<=", 1.0)])


def test_degenerate_rows_terminate():
    # Zero right-hand sides force degenerate pivots; Bland must still finish.
    res = solve_lp(
        [1.0, 1.0, 1.0],
        [
            ([1, -1, 0], "<=", 0.0),
            ([0, 1, -1], "<=", 0.0),
            ([1, 1, 1], "<=", 3.0),
            ([0, 0, 1], "<=", 0.5),
        ],
    )
    assert res.value == pytest.approx(1.5, abs=1e-9)


def test_negative_rhs_normalized():
    # -x <= -1 is x >= 1.
    res = solve_lp([-1.0], [([-1], "<=", -1.0), ([1], "<=", 3.0)])
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert res.x == pytest.approx([1.0])


def test_redundant_equality_rows():
    res = solve_lp(
        [1.0, 1.0],
        [([1, 1], "==", 2.0), ([2, 2], "==", 4.0), ([1, 0], "<=", 1.0)],
    )
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_fractional_vertex():
    # Optimum at x = y = 1/3.
    res = solve_lp(
        [1.0, 1.0],
        [([2, 1], "<=", 1.0), ([1, 2], "<=", 1.0)],
    )
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.allclose(res.x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_larger_random_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 4, 5
        a = rng.uniform(0.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(0.1, 1.0, size=n)
        res = solve_lp(c, [(a[i], "<=", b[i]) for i in range(m)])
        assert np.all(a @ res.x <= b + 1e-8)
        assert np.all(res.x >= -1e-12)
        # Brute-force check: no basic feasible candidate beats the optimum.
        best = _brute_force_best(c, a, b)
        assert res.value == pytest.approx(best, abs=1e-7)


def _brute_force_best(c, a, b):
    """Enumerate vertices of {x >= 0, ax <= b} by solving all square systems."""
    import itertools

    n = c.size
    m = b.size
    rows = np.vstack([a, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = 0.0
    for combo in itertools.combinations(range(m + n), n):
        sub = rows[list(combo)]
        sub_rhs = rhs[list(combo)]
        try:
            x = np.linalg.solve(sub, sub_rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(x >= -1e-9) and np.all(rows @ x <= rhs + 1e-9):
            best = max(best, float(c @ x))
    return best


# The simplex as it stood before it kept its basis as an index array and set
# up its slack and artificial columns with index arrays: one Python loop per
# row, ``flatnonzero`` for the entering column and ``min`` with a key for
# Bland's leaving row. The current solver must make the same pivots and
# return the same bits.
def reference_solve_lp(
    objective,
    rows,
    max_iterations: int | None = None,
) -> LpResult:
    """Maximize ``objective . x`` over ``rows`` of (coefficients, sense, rhs).

    Coefficient vectors may be shorter than the variable count; missing
    entries are zero. Raises ``SimplexError`` for infeasible or unbounded
    problems and when the iteration cap is exceeded.
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    m = len(rows)
    if m == 0:
        raise SimplexError("no constraint rows; problem is unbounded or trivial")

    a = np.zeros((m, n))
    b = np.zeros(m)
    senses = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.size > n:
            raise ValueError("constraint row longer than the objective")
        a[i, : coeffs.size] = coeffs
        b[i] = rhs
        if sense not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
            raise ValueError(f"unknown sense {sense!r}")
        senses.append(sense)

    # Normalize to nonnegative right-hand sides.
    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] = -b[i]
            if senses[i] == LESS_EQUAL:
                senses[i] = GREATER_EQUAL
            elif senses[i] == GREATER_EQUAL:
                senses[i] = LESS_EQUAL

    # Column layout: structural | slack/surplus | artificial.
    n_slack = sum(1 for s in senses if s != EQUAL)
    n_art = sum(1 for s in senses if s != LESS_EQUAL)
    ncols = n + n_slack + n_art
    tableau = np.zeros((m, ncols + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b

    basis = [-1] * m
    slack_col = n
    art_col = n + n_slack
    art_cols = []
    for i, sense in enumerate(senses):
        if sense == LESS_EQUAL:
            tableau[i, slack_col] = 1.0
            basis[i] = slack_col
            slack_col += 1
        elif sense == GREATER_EQUAL:
            tableau[i, slack_col] = -1.0
            slack_col += 1
            tableau[i, art_col] = 1.0
            basis[i] = art_col
            art_cols.append(art_col)
            art_col += 1
        else:
            tableau[i, art_col] = 1.0
            basis[i] = art_col
            art_cols.append(art_col)
            art_col += 1

    if max_iterations is None:
        max_iterations = 2000 + 200 * (m + ncols)
    iterations = 0

    def pivot(row: int, col: int) -> None:
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau[...] -= np.outer(factors, tableau[row])
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
            cb = costs[basis]
            reduced = costs - cb @ tableau[:, :ncols]
            reduced[basis] = 0.0
            candidates = np.flatnonzero(allowed & (reduced > OPTIMALITY_TOL))
            if candidates.size == 0:
                return
            col = int(candidates[0])  # Bland: smallest eligible index.
            column = tableau[:, col]
            rows_ok = np.flatnonzero(column > PIVOT_TOL)
            if rows_ok.size == 0:
                raise SimplexError("unbounded objective")
            ratios = tableau[rows_ok, -1] / column[rows_ok]
            best = ratios.min()
            tied = rows_ok[np.flatnonzero(ratios <= best + 1e-12)]
            leave = int(min(tied, key=lambda r: basis[r]))  # Bland on ties.
            pivot(leave, col)

    allowed = np.ones(ncols, dtype=bool)
    if art_cols:
        art_mask = np.zeros(ncols, dtype=bool)
        art_mask[art_cols] = True
        phase1_costs = np.zeros(ncols)
        phase1_costs[art_cols] = -1.0
        run_phase(phase1_costs, allowed)
        art_total = sum(tableau[i, -1] for i in range(m) if basis[i] in set(art_cols))
        if art_total > FEASIBILITY_TOL * (1.0 + float(np.max(b, initial=0.0))):
            raise SimplexError("infeasible constraint system")
        # Drive leftover artificial basics out on any usable structural column.
        for i in range(m):
            if not art_mask[basis[i]]:
                continue
            row_cols = np.flatnonzero(
                (~art_mask) & (np.abs(tableau[i, :ncols]) > PIVOT_TOL)
            )
            if row_cols.size:
                pivot(i, int(row_cols[0]))
            # Otherwise the row is redundant; the artificial stays basic at 0.
        allowed = ~art_mask

    phase2_costs = np.zeros(ncols)
    phase2_costs[:n] = c
    run_phase(phase2_costs, allowed)

    x = np.zeros(ncols)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    solution = x[:n]
    return LpResult(solution, float(c @ solution), iterations)


def _outcome(fn, objective, rows, **kwargs):
    try:
        res = fn(objective, rows, **kwargs)
    except (SimplexError, ValueError) as exc:
        return type(exc), str(exc)
    return res.iterations, res.x.tobytes(), res.value


def _existing_lps():
    """Every LP of the tests above."""
    lps = {
        "box": ([1.0, 1.0], [([1, 0], "<=", 1.0), ([0, 1], "<=", 2.0)]),
        "shared-budget": ([2.0, 1.0], [([1, 1], "<=", 1.0)]),
        "greater-equal": (
            [1.0, 1.0], [([1, 1], "<=", 4.0), ([1, 0], ">=", 1.0), ([0, 1], ">=", 2.0)]
        ),
        "equality": ([1.0, 0.0], [([1, 1], "==", 2.0), ([1, 0], "<=", 1.5)]),
        "infeasible": ([1.0], [([1], "<=", 1.0), ([1], ">=", 2.0)]),
        "unbounded": ([1.0, 0.0], [([0, 1], "<=", 1.0)]),
        "degenerate": (
            [1.0, 1.0, 1.0],
            [
                ([1, -1, 0], "<=", 0.0),
                ([0, 1, -1], "<=", 0.0),
                ([1, 1, 1], "<=", 3.0),
                ([0, 0, 1], "<=", 0.5),
            ],
        ),
        "negative-rhs": ([-1.0], [([-1], "<=", -1.0), ([1], "<=", 3.0)]),
        "redundant-equalities": (
            [1.0, 1.0], [([1, 1], "==", 2.0), ([2, 2], "==", 4.0), ([1, 0], "<=", 1.0)]
        ),
        "fractional": ([1.0, 1.0], [([2, 1], "<=", 1.0), ([1, 2], "<=", 1.0)]),
    }
    rng = np.random.default_rng(7)
    for t in range(20):
        n, m = 4, 5
        a = rng.uniform(0.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(0.1, 1.0, size=n)
        lps[f"random-{t}"] = (c, [(a[i], "<=", b[i]) for i in range(m)])
    return lps


# Phase 1, sign flips, leftover artificial basics, ties, failures and the cap.
PHASE_AND_EDGE_LPS = {
    "ge-and-eq-need-phase-1": (
        [1.0, 2.0, -1.0],
        [([1, 1, 1], "==", 3.0), ([1, 0, 0], ">=", 0.5), ([0, 1, 1], "<=", 2.5)],
    ),
    "negative-rhs-every-sense": (
        [1.0, 1.0],
        [([-1, 0], ">=", -3.0), ([0, -1], "<=", -1.0), ([1, -1], "==", -0.5)],
    ),
    # The third row repeats the first two; its artificial stays basic at 0.
    "redundant-artificial-stays-basic": (
        [1.0, 1.0, 0.0],
        [([1, 1, 0], "==", 2.0), ([0, 0, 1], "==", 1.0), ([1, 1, 1], "==", 3.0)],
    ),
    "degenerate-ties": (
        [1.0, 1.0, 1.0, 1.0],
        [([1, 1, 0, 0], "<=", 1.0), ([1, 0, 1, 0], "<=", 1.0), ([0, 1, 0, 1], "<=", 1.0),
         ([0, 0, 1, 1], "<=", 1.0), ([1, 1, 1, 1], "<=", 2.0)],
    ),
    "infeasible-equalities": ([1.0, 1.0], [([1, 1], "==", 1.0), ([1, 1], "==", 2.0)]),
    "unbounded-after-phase-1": ([0.0, 1.0], [([1, -1], ">=", 1.0), ([1, 0], "<=", 3.0)]),
    "no-rows": ([1.0], []),
    "row-too-long": ([1.0], [([1, 1], "<=", 1.0)]),
    "unknown-sense": ([1.0], [([1], "<", 1.0)]),
    # The first bad row decides, and within one row its length before its sense.
    "long-row-with-unknown-sense": ([1.0], [([1], "<=", 1.0), ([1, 1], "<", 1.0)]),
    "unknown-sense-before-long-row": ([1.0], [([1], "<", 1.0), ([1, 1], "<=", 1.0)]),
}

def _unit(n, j, value=1.0):
    row = np.zeros(n)
    row[j] = value
    return row


# Wide enough for row updates, each with a right-hand side or pivot row that
# the full update treats differently from a skipped row.
_W = ROW_UPDATE_MIN_COLUMNS + 2
WIDE_EDGE_LPS = {
    # x0 and x1 enter on degenerate -0.0 rows. When x0 enters, the full update
    # turns x1's -0.0 right-hand side into +0.0, which x1 then reads.
    "minus-zero-rhs": (
        _unit(_W, 0) + _unit(_W, 1),
        [(_unit(_W, 0), "<=", -0.0), (_unit(_W, 1), "<=", -0.0), (np.ones(_W), "<=", 5.0)],
    ),
    # The artificial of -x1 == 0 stays basic through phase 1. The drive-out
    # divides its +0.0 right-hand side by -1, and x1 stays basic at that value.
    "drive-out-on-negative-entry": (
        np.ones(_W), [(np.ones(_W), "<=", 4.0), (_unit(_W, 1, -1.0), "==", 0.0)]
    ),
    # 1e300 / 2e-9 overflows, and the full update turns x1's row into NaN,
    # on which the rest of the solve runs.
    "non-finite-pivot-row": (
        _unit(_W, 0) + _unit(_W, 1),
        [(_unit(_W, 0, 2e-9), "<=", 1e300), (_unit(_W, 1), "<=", 1.0)],
    ),
}

ITERATION_CAP_LP = (
    [1.0, 1.0, 1.0], [([1, 0, 0], "<=", 1.0), ([0, 1, 0], "<=", 1.0), ([0, 0, 1], "<=", 1.0)]
)


def _random_lps(count=300, seed=11):
    """Small integer LPs of every sense: many ties, infeasible and unbounded ones."""
    rng = np.random.default_rng(seed)
    senses = (LESS_EQUAL, GREATER_EQUAL, EQUAL)
    lps = []
    for _ in range(count):
        n, m = rng.integers(1, 6), rng.integers(1, 6)
        rows = [
            (
                rng.integers(-2, 3, size=n).astype(float),
                senses[rng.integers(0, 3)],
                float(rng.integers(-3, 4)),
            )
            for _ in range(m)
        ]
        lps.append((rng.integers(-2, 3, size=n).astype(float), rows))
    return lps


def _wide_random_lps(count=40, seed=5):
    """LPs with more than ``ROW_UPDATE_MIN_COLUMNS`` columns, so pivots update rows.

    Sparse integer rows of every sense with right-hand sides in -3..3 (the
    negative ones flipped), mostly under a budget row, now and then a -0.0 right-hand side, a repeated
    row (degenerate ties) or a ``-x_j == 0`` or ``-x_j >= 0`` row, whose
    artificial stays basic through phase 1 and is driven out on the -1.
    """
    rng = np.random.default_rng(seed)
    senses = (LESS_EQUAL, GREATER_EQUAL, EQUAL)
    lps = []
    for _ in range(count):
        n = int(rng.integers(ROW_UPDATE_MIN_COLUMNS + 1, ROW_UPDATE_MIN_COLUMNS + 30))
        # Most get a budget row, without which nearly every one is unbounded.
        rows = [(np.ones(n), LESS_EQUAL, 5.0)] if rng.random() < 0.7 else []
        for _ in range(int(rng.integers(4, 14))):
            coeffs = rng.integers(-2, 3, size=n) * (rng.random(n) < 0.08)
            rhs = float(rng.integers(-3, 4))
            roll = rng.random()
            if roll < 0.1:
                rhs = -0.0
            elif roll < 0.2 and rows:
                coeffs, rhs = rows[-1][0], rows[-1][2]
            elif roll < 0.3:
                coeffs = np.zeros(n)
                coeffs[rng.integers(0, n)] = -1.0
                rhs = 0.0
            rows.append((coeffs.astype(float), senses[rng.integers(0, 3)], rhs))
        lps.append((rng.integers(-2, 3, size=n).astype(float), rows))
    return lps


def _captured_lps(system, etas):
    """Every LP the oracle subroutine and ``lp_emcfpsc`` hand the simplex for ``system``.

    One ``(objective, rows, result, blocks)`` entry per call: ``result`` is
    what the oracle got, ``blocks`` what it passed (or ``None``).
    """
    captured = []

    def recording(objective, rows, *args, **kwargs):
        result = solve_lp(objective, rows, *args, **kwargs)
        captured.append((objective, rows, result, kwargs.get("blocks")))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurflow.oracle, "solve_lp", recording)
        for eta in etas:
            solve(system, eta, subroutine="oracle")
        lp_emcfpsc(system)
    return captured


def _replay_case(width, seed):
    """Coefficients, objective and a sequence of right-hand sides for replays.

    Eight sparse integer rows, every column with an entry in one of the first
    seven, the last a copy of row 1 (its ratios tie with row 1's); at most
    eight priced columns. The right-hand sides: a base, the base again and halved (both
    take its path to the end), the base with one entry 0 (degenerate ties),
    tripled or -0.0, all zeros, and the base with one entry 1e300.
    """
    rng = np.random.default_rng(seed)
    m = 8
    coeffs = (rng.integers(1, 3, size=(m, width)) * (rng.random((m, width)) < 0.3)).astype(float)
    coeffs[rng.integers(0, m - 1, size=width), np.arange(width)] += 1.0
    coeffs[-1] = coeffs[1]
    objective = np.zeros(width)
    priced = min(8, width)
    objective[rng.choice(width, size=priced, replace=False)] = rng.integers(1, 3, size=priced)
    base = rng.integers(1, 4, size=m).astype(float)
    sequence = [base, base.copy(), 0.5 * base]
    for j in range(m):
        for value in (0.0, 3.0 * base[j], -0.0):
            rhs = base.copy()
            rhs[j] = value
            sequence.append(rhs)
    big = base.copy()
    big[2] = 1e300
    return coeffs, objective, [*sequence, np.zeros(m), big]


def _replay_kind(blocks, rhs, iterations):
    """How a solve of ``iterations`` rounds under ``rhs`` uses the paths recorded so far."""
    root = next(iter(blocks.roots.values()), None)
    if root is None or not rhs.max() <= REPLAY_LIMIT:
        return "cold"
    node, pivots = concurflow.simplex._walk(root, rhs.copy())
    if node.col < 0:
        return "full walk"
    if len(pivots) == iterations - 2:
        return "leaves at the last pivot"
    return "leaves at the first pivot" if not pivots else "leaves in the middle"


def _basis_broken_ties(root, rhs):
    """Rounds on the recorded path of ``rhs`` where the basis, not the row order, breaks a tie."""
    count, node, rhs = 0, root, rhs.copy()
    while node.col >= 0:
        ratios = rhs[node.rows] / node.column
        tied = node.rows[ratios <= ratios.min() + 1e-12]
        count += int(tied[0] != tied.min())
        branch = node.leaving.get(int(tied[0]))
        if branch is None:
            break
        p, hit, factors, node = branch
        rhs[tied[0]] /= p
        rhs[hit] -= factors * rhs[tied[0]]
    return count


@pytest.mark.parametrize(
    "rows",
    [
        [([1], "<=", 1.0), ([0, 1], "<=", 2.0), ([1, 1, 1], "<=", 2.5)],
        [([1, 1, 1], "<=", 2.5), ([1, 1], "<", 1.0)],
    ],
    ids=["short-first", "short-before-unknown-sense"],
)
def test_short_row_rejected(rows):
    # Every row carries one coefficient per variable; short rows are not padded.
    with pytest.raises(ValueError, match="^constraint row shorter than the objective$"):
        solve_lp([1.0, 1.0, 1.0], rows)


class TestReferenceSolver:
    @pytest.mark.parametrize("name", sorted(_existing_lps()) + sorted(PHASE_AND_EDGE_LPS))
    def test_named_lps_match_reference(self, name):
        objective, rows = {**_existing_lps(), **PHASE_AND_EDGE_LPS}[name]
        expected = _outcome(reference_solve_lp, objective, rows)
        assert _outcome(solve_lp, objective, rows) == expected

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_iteration_cap_matches_reference(self, cap, monkeypatch):
        # Three pivots and one optimality test: a cap below 3 stops the solve.
        objective, rows = ITERATION_CAP_LP
        expected = _outcome(reference_solve_lp, objective, rows, max_iterations=cap)
        monkeypatch.setattr(concurflow.simplex, "_iteration_cap", lambda m, ncols: cap)
        assert _outcome(solve_lp, objective, rows) == expected
        assert (expected[0] is SimplexError) == (cap < 3)

    def test_random_lps_match_reference(self):
        kinds = set()
        for objective, rows in _random_lps():
            expected = _outcome(reference_solve_lp, objective, rows)
            assert _outcome(solve_lp, objective, rows) == expected
            kinds.add(expected[1] if expected[0] is SimplexError else "solved")
        # The sample reaches every exit.
        assert kinds == {
            "solved",
            "infeasible constraint system",
            "unbounded objective",
        }

    def test_wide_random_lps_match_reference(self):
        kinds = set()
        for objective, rows in _wide_random_lps():
            expected = _outcome(reference_solve_lp, objective, rows)
            assert _outcome(solve_lp, objective, rows) == expected
            kinds.add(expected[1] if expected[0] is SimplexError else "solved")
        assert kinds == {"solved", "infeasible constraint system", "unbounded objective"}

    def test_row_updates_on_every_lp_match_reference(self, monkeypatch):
        # With no width threshold, every pivot of these small LPs, flipped rows,
        # -0.0 right-hand sides and drive-outs included, may take the row update.
        monkeypatch.setattr(concurflow.simplex, "ROW_UPDATE_MIN_COLUMNS", 0)
        lps = [*_existing_lps().values(), *PHASE_AND_EDGE_LPS.values(), *_random_lps()]
        for objective, rows in lps:
            expected = _outcome(reference_solve_lp, objective, rows)
            assert _outcome(solve_lp, objective, rows) == expected

    @pytest.mark.parametrize("name", sorted(WIDE_EDGE_LPS))
    def test_wide_edge_lps_match_reference(self, name):
        objective, rows = WIDE_EDGE_LPS[name]
        with np.errstate(all="ignore"):  # the overflow and its NaN are the point
            expected = _outcome(reference_solve_lp, objective, rows)
            assert _outcome(solve_lp, objective, rows) == expected

    @pytest.mark.parametrize("width", [3, ROW_UPDATE_MIN_COLUMNS + 20])
    def test_blocks_match_reference(self, width):
        # Coefficients passed as two blocks, under new right-hand sides: zero
        # ones (degenerate), -0.0 ones, and a negative one, which the rows serve.
        rng = np.random.default_rng(width)
        coeffs = (rng.integers(0, 3, size=(6, width)) * (rng.random((6, width)) < 0.3)).astype(float)
        objective = rng.integers(1, 3, size=width).astype(float)
        blocks = (coeffs[:4], coeffs[4:])
        rhs_sets = [[2.0, 1.0, 3.0, 1.0, 2.0, 2.0], [0.0, 1.0, 0.0, 1.0, 2.0, 0.0],
                    [-0.0, -0.0, 1.0, -0.0, 0.5, 1.0], [1.0, 1.0, -1.0, 2.0, 2.0, 1.0],
                    [2.5, 0.5, 1.5, 1.0, 0.25, 3.0]]
        for rhs in rhs_sets:
            rows = [(row, LESS_EQUAL, b) for row, b in zip(coeffs, rhs)]
            expected = _outcome(reference_solve_lp, objective, rows)
            assert _outcome(solve_lp, objective, rows, blocks=blocks) == expected

    def test_blocks_of_other_rows_rejected(self):
        rows = [([1.0, 0.0], LESS_EQUAL, 1.0), ([0.0, 1.0], LESS_EQUAL, 1.0)]
        with pytest.raises(ValueError, match="^coefficient blocks do not match the rows$"):
            solve_lp([1.0, 1.0], rows, blocks=(np.eye(2)[:1],))

    @pytest.mark.parametrize("make_blocks", [tuple, RowBlocks], ids=["tuple", "RowBlocks"])
    def test_blocks_beside_a_row_that_is_not_le_rejected(self, make_blocks):
        # Minimize x subject to x >= 1 and x <= 3: x = 1 without blocks, and
        # x = 0 if the >= row were solved as <=.
        objective = [-1.0]
        rows = [([1.0], GREATER_EQUAL, 1.0), ([1.0], LESS_EQUAL, 3.0)]
        assert solve_lp(objective, rows).x.tolist() == [1.0]
        blocks = make_blocks([np.array([[1.0], [1.0]])])
        with pytest.raises(ValueError, match="^rows given with coefficient blocks must all be <=$"):
            solve_lp(objective, rows, blocks=blocks)
        assert not getattr(blocks, "roots", None)  # no replay tree was started
        rows[0] = ([1.0], EQUAL, 1.0)
        with pytest.raises(ValueError, match="must all be <="):
            solve_lp(objective, rows, blocks=blocks)

    @pytest.mark.parametrize(
        "args, etas",
        [((0, 7, 11, 3, 4), (0.05, 0.2)), ((3, 16, 50, 8, 25), (0.1,))],
        ids=["corpus-shape", "200-paths"],
    )
    def test_oracle_lps_match_reference(self, args, etas):
        # What the oracle got, mostly from blocks kept within a search, is
        # what the reference and the rows alone make of the same LP.
        system = generate_instance(*args).path_system
        lps = _captured_lps(system, etas)
        assert len(lps) > len(etas)
        kept = [id(blocks) for *_, blocks in lps if blocks is not None]
        assert len(kept) - len(set(kept)) > len(lps) // 2
        for objective, rows, result, _ in lps:
            expected = _outcome(reference_solve_lp, objective, rows)
            assert (result.iterations, result.x.tobytes(), result.value) == expected
            assert _outcome(solve_lp, objective, rows) == expected


class TestReplay:
    @pytest.mark.parametrize(
        "width, seed", [(6, 3), (ROW_UPDATE_MIN_COLUMNS + 2, 8)], ids=["full-update", "row-update"]
    )
    def test_replays_match_reference(self, width, seed):
        # One set of blocks under a sequence of right-hand sides: forward,
        # reversed, and each on fresh blocks. Every solve is the reference's.
        coeffs, objective, sequence = _replay_case(width, seed)
        assert (width + len(coeffs) >= ROW_UPDATE_MIN_COLUMNS) == (width > 6)

        def rows(rhs):
            return [(row, LESS_EQUAL, b) for row, b in zip(coeffs, rhs)]

        def solved(blocks, rhs):
            return _outcome(solve_lp, objective, rows(rhs), blocks=blocks)

        with np.errstate(over="ignore"):  # 1e300 overflows the row check of a cold solve
            expected = [_outcome(reference_solve_lp, objective, rows(rhs)) for rhs in sequence]
            blocks = RowBlocks((coeffs[:3], coeffs[3:]))
            kinds = set()
            for rhs, outcome in zip(sequence, expected):
                kinds.add(_replay_kind(blocks, rhs, outcome[0]))
                assert solved(blocks, rhs) == outcome
            backward = RowBlocks((coeffs[:5], coeffs[5:]))
            for rhs, outcome in zip(sequence[::-1], expected[::-1]):
                assert solved(backward, rhs) == outcome
            for rhs, outcome in zip(sequence, expected):
                fresh = RowBlocks((coeffs,))
                assert solved(fresh, rhs) == outcome
                # 1e300 is past the replay limit: the solve is cold and records nothing.
                assert (fresh.roots == {}) == (rhs.max() > REPLAY_LIMIT)
        assert kinds == {
            "cold", "full walk", "leaves at the first pivot", "leaves in the middle",
            "leaves at the last pivot",
        }
        root = next(iter(blocks.roots.values()))
        assert sum(_basis_broken_ties(root, rhs) for rhs in sequence[:-1]) > 0


def _tree_rounds(blocks: RowBlocks) -> int:
    """The rounds recorded in ``blocks``' trees, counted by walking them."""
    stack, count = list(blocks.roots.values()), 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(branch[-1] for branch in node.leaving.values())
    return count


def test_replay_tree_stops_growing_at_its_cap():
    # One 480-path system solved all its life under ever new bounds. Uncapped,
    # its tree held about 4.8 MB after these 1000 calls.
    system = generate_instance(3, 16, 50, 8, 60).path_system
    base = system.network.bounds()
    rng = np.random.default_rng(5)
    lp_mmfpb_exact(system, base)  # the layout and the LP's rows, before measuring
    ((*_, blocks),) = system.grouped.lps.values()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for call in range(1000):
            bounds = [b * 10 ** rng.uniform(-2, 1) for b in base]
            total, flow = lp_mmfpb_exact(system, bounds)
            if call % 10 == 0 or call >= 990:
                fresh = replace(system.grouped)  # the same rows, no recorded paths
                result = lp_grouped_max(fresh.capacities, fresh, bounds)
                assert (total, flow.values) == (result.total, Flow(system, result.x).values)
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
    # The install that reaches the cap adds one solve's rounds, and no more follow.
    assert REPLAY_ROUNDS <= blocks.rounds == _tree_rounds(blocks) < REPLAY_ROUNDS + 100
