import numpy as np
import pytest

import concurflow.oracle
from concurflow import generate_instance, lp_emcfpsc, solve
from concurflow.simplex import (
    EQUAL,
    FEASIBILITY_TOL,
    GREATER_EQUAL,
    LESS_EQUAL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    LpResult,
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


def _captured_lps(system, etas):
    """Every LP the oracle subroutine and ``lp_emcfpsc`` hand the simplex for ``system``."""
    captured = []

    def recording(objective, rows, *args, **kwargs):
        captured.append((objective, rows))
        return solve_lp(objective, rows, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurflow.oracle, "solve_lp", recording)
        for eta in etas:
            solve(system, eta, subroutine="oracle")
        lp_emcfpsc(system)
    return captured


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
    def test_iteration_cap_matches_reference(self, cap):
        # Three pivots and one optimality test: a cap below 3 stops the solve.
        objective, rows = ITERATION_CAP_LP
        expected = _outcome(reference_solve_lp, objective, rows, max_iterations=cap)
        assert _outcome(solve_lp, objective, rows, max_iterations=cap) == expected
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

    @pytest.mark.parametrize(
        "args, etas",
        [((0, 7, 11, 3, 4), (0.05, 0.2)), ((3, 16, 50, 8, 25), (0.1,))],
        ids=["corpus-shape", "200-paths"],
    )
    def test_oracle_lps_match_reference(self, args, etas):
        system = generate_instance(*args).path_system
        lps = _captured_lps(system, etas)
        assert len(lps) > len(etas)
        for objective, rows in lps:
            expected = _outcome(reference_solve_lp, objective, rows)
            assert _outcome(solve_lp, objective, rows) == expected
