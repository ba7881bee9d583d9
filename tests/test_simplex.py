"""The exact simplex core: hand-solved programs, a differential test
against a dense Fraction tableau that takes the same Bland pivots, and
differential tests of the resumable tableau against from-scratch solves."""
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbal import simplex
from fracbal.simplex import SimplexError, SimplexResult, Tableau, simplex_max

F = Fraction


def dense_simplex_max(rows, b, c) -> SimplexResult:
    """Reference oracle: the full m x (n + m + 1) Fraction tableau with
    Bland's rule (least-index entering column, ratio ties broken by least
    basic index), counting its pivots."""
    m = len(rows)
    n = len(c)
    if any(len(r) != n for r in rows) or len(b) != m:
        raise SimplexError("inconsistent dimensions")
    if any(bi < 0 for bi in b):
        raise SimplexError("requires nonnegative right-hand sides")

    zero = Fraction(0)
    t = [
        [Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(1) if k == i else zero for k in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [Fraction(c[j]) for j in range(n)] + [zero] * m + [zero]
    basis = [n + i for i in range(m)]
    total = n + m
    pivots = 0

    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = t[i][enter]
            if coef > 0:
                ratio = t[i][total] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise SimplexError("unbounded objective")
        piv = t[leave][enter]
        t[leave] = [v / piv for v in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                row = t[i]
                prow = t[leave]
                t[i] = [row[k] - f * prow[k] for k in range(total + 1)]
        if obj[enter] != 0:
            f = obj[enter]
            prow = t[leave]
            obj = [obj[k] - f * prow[k] for k in range(total + 1)]
        basis[leave] = enter
        pivots += 1

    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = t[i][total]
    value = -obj[total]
    duals = tuple(-obj[n + i] for i in range(m))
    return SimplexResult(value, tuple(x), duals, pivots)


def outcome(solver, rows, b, c):
    try:
        return solver(rows, b, c)
    except SimplexError as exc:
        return str(exc)


def test_two_variable_program():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4: optimum 4 at (1,3)-type vertices
    res = simplex_max(
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
        [F(2), F(3), F(4)],
        [F(1), F(1)],
    )
    assert res.value == 4
    assert sum(res.x) == 4
    # duals reconstruct the optimum: y.b == value
    assert sum(d * b for d, b in zip(res.duals, (F(2), F(3), F(4)))) == 4
    assert all(d >= 0 for d in res.duals)


def test_fractional_optimum():
    # max x + y s.t. 2x + y <= 2, x + 2y <= 2: optimum 4/3 at (2/3, 2/3)
    res = simplex_max(
        [[F(2), F(1)], [F(1), F(2)]],
        [F(2), F(2)],
        [F(1), F(1)],
    )
    assert res.value == F(4, 3)
    assert res.x == (F(2, 3), F(2, 3))


def test_degenerate_instance_terminates():
    # redundant constraints force degenerate pivots; Bland's rule must exit
    res = simplex_max(
        [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)], [F(1), F(0)]],
        [F(1), F(1), F(2), F(1)],
        [F(1), F(1)],
    )
    assert res.value == 1


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        simplex_max([[F(-1), F(0)]], [F(1)], [F(1), F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(SimplexError, match="nonnegative"):
        simplex_max([[F(1)]], [F(-1)], [F(1)])


@pytest.mark.parametrize("entry", [0.5, 1.0, Decimal("0.5")], ids=["float", "whole-float", "decimal"])
def test_non_rational_entries_rejected(entry):
    # the entry in the constraint rows, the right-hand side, the objective
    for rows, b, c in (
        ([[entry, 1]], [1], [1, 1]),
        ([[F(1), 1]], [entry], [1, 1]),
        ([[1, 1]], [F(1, 2)], [1, entry]),
    ):
        with pytest.raises(SimplexError, match="must be rational"):
            simplex_max(rows, b, c)


def test_zero_objective():
    res = simplex_max([[F(1)]], [F(5)], [F(0)])
    assert res.value == 0


@pytest.mark.parametrize(
    "rows, b, c",
    [
        ([], [], [F(1)]),          # m = 0, positive cost: unbounded
        ([], [], [F(0), F(-1)]),   # m = 0, nothing to gain
        ([[]], [F(1)], []),        # n = 0
        ([], [], []),
        ([[F(1)]], [F(1), F(2)], [F(1)]),  # inconsistent dimensions
    ],
)
def test_edge_shapes_match_oracle(rows, b, c):
    assert outcome(simplex_max, rows, b, c) == outcome(dense_simplex_max, rows, b, c)


def test_edge_shape_results():
    with pytest.raises(SimplexError, match="unbounded objective"):
        simplex_max([], [], [1])
    res = simplex_max([[]], [1], [])
    assert (res.value, res.x, res.duals, res.pivots) == (0, (), (F(0),), 0)


def test_counters_on_hand_solved_program():
    res = simplex_max([[F(2), F(1)], [F(1), F(2)]], [F(2), F(2)], [F(1), F(1)])
    assert res.pivots == 2
    # the final objective row holds -value * d = -4/3 * 3
    assert res.max_bits == 3


# mostly nonnegative, so that most programs are bounded and pivot often
entries = st.one_of(
    st.integers(min_value=-2, max_value=4),
    st.fractions(min_value=-2, max_value=4, max_denominator=6),
)


@st.composite
def programs(draw):
    """Small LPs: integer or fractional entries, zero right-hand sides and
    repeated rows for degeneracy, costs of any sign, unbounded directions."""
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=5))
    rows, b = [], []
    for _ in range(m):
        if rows and draw(st.integers(min_value=0, max_value=3)) == 0:
            k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows.append(list(rows[k]))
            b.append(b[k])
            continue
        rows.append([F(draw(entries)) for _ in range(n)])
        b.append(F(draw(st.one_of(st.just(0), entries.map(abs)))))
    c = [F(draw(entries)) for _ in range(n)]
    return rows, b, c


@settings(derandomize=True, deadline=None, max_examples=400)
@given(programs())
def test_condensed_tableau_matches_dense_oracle(program):
    rows, b, c = program
    want = outcome(dense_simplex_max, rows, b, c)
    got = outcome(simplex_max, rows, b, c)
    # equal results include equal pivot counts: the same Bland path
    assert got == want


def test_appended_row_the_optimum_satisfies_keeps_the_path():
    # max x + y s.t. x <= 1, y <= 1: two pivots to (1, 1); x + y <= 2 loses
    # the first ratio test (2/1 against 1/1) and ties the second (1/1 against
    # 1/1), and the optimum satisfies it, so the path stays and its dual is 0
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [1, 1], resumable=True)
    assert tab.solve().pivots == 2
    tab.append_row([1, 1], 2)
    res = tab.solve()
    assert res == simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [1, 1])
    assert (res.value, res.duals, res.pivots, tab.executed) == (2, (1, 1, 0), 2, 2)


def test_violated_row_rewinds_to_where_it_wins():
    # x + y <= 1 ties the first ratio test (1/1 against 1/1), which keeps
    # x <= 1, and wins the second, for y, at 0/1 against 1/1: the engine
    # replays one pivot from the checkpoint before pivot 0 and takes a new one
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [1, 1], resumable=True)
    tab.solve()
    tab.append_row([1, 1], 1)
    res = tab.solve()
    assert res == simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 1], [1, 1])
    assert (res.value, res.x, res.duals, res.pivots, tab.executed) == (1, (1, 0), (0, 0, 1), 2, 4)


def test_append_row_checks_its_row():
    with pytest.raises(SimplexError, match="resumable"):
        Tableau([[1]], [1], [1]).append_row([1], 1)
    tab = Tableau([[1]], [1], [1], resumable=True)
    with pytest.raises(SimplexError, match="inconsistent dimensions"):
        tab.append_row([1, 1], 1)
    with pytest.raises(SimplexError, match="nonnegative"):
        tab.append_row([1], -1)


def with_bits(result):
    return (result, result.max_bits) if isinstance(result, SimplexResult) else result


def resumed(tab):
    try:
        return tab.solve()
    except SimplexError as exc:
        return str(exc)


@st.composite
def packing_runs(draw):
    """A packing LP (0/1 rows, small right-hand sides including 0, small
    costs of any sign) and rows to append one at a time.  Copies of earlier
    rows make exact ratio ties; many appended rows are not violated, and
    without the unit rows some programs are unbounded until a row bounds
    them."""
    n = draw(st.integers(min_value=1, max_value=7))
    c = [draw(st.integers(min_value=-1, max_value=3)) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        if rows and draw(st.integers(min_value=0, max_value=3)) == 0:
            rows.append(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))])
        else:
            row = [draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
            rows.append((row, draw(st.integers(min_value=0, max_value=2))))
    if draw(st.booleans()):
        # unit rows first, as column generation starts: bounded throughout
        rows[:0] = [([int(j == k) for j in range(n)], 1) for k in range(n)]
    start = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    return c, rows[:start], rows[start:]


# checkpoints every 2 pivots also rebuild from later checkpoints
@pytest.mark.parametrize("every", [2, simplex._CHECKPOINT_EVERY])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(run=packing_runs())
def test_appended_rows_resume_along_the_from_scratch_path(every, run):
    c, start, appended = run
    rows = [row for row, _ in start]
    b = [rhs for _, rhs in start]
    with mock.patch.object(simplex, "_CHECKPOINT_EVERY", every):
        tab = Tableau(rows, b, c, resumable=True)
        assert with_bits(resumed(tab)) == with_bits(outcome(simplex_max, rows, b, c))
        for row, rhs in appended:
            tab.append_row(row, rhs)
            rows.append(row)
            b.append(rhs)
            # equal results include equal pivot counts: the same Bland path,
            # and equal max_bits: the same final tableau
            assert with_bits(resumed(tab)) == with_bits(outcome(simplex_max, rows, b, c))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(programs())
def test_max_bits_reads_the_final_tableau(program):
    rows, b, c = program
    scale = lcm(*(v.denominator for v in chain(b, c, *rows)))

    def scaled(vals):
        return [int(v * scale) for v in vals]

    tab = Tableau([scaled(row) for row in rows], scaled(b), scaled(c))
    try:
        res = tab.solve()
    except SimplexError:
        return
    assert res.max_bits == max(abs(v) for row in tab.t for v in row).bit_length()
    assert simplex_max(rows, b, c).max_bits == res.max_bits


@pytest.mark.parametrize("every", [2, simplex._CHECKPOINT_EVERY])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(run=packing_runs())
def test_max_bits_of_resumed_solves_matches_full_scan(every, run):
    # a rewind rebuilds the tableau from a checkpoint and replays pivots:
    # after every resumed solve, max_bits is still a full scan of what is left
    c, start, appended = run
    rows = [row for row, _ in start]
    b = [rhs for _, rhs in start]
    with mock.patch.object(simplex, "_CHECKPOINT_EVERY", every):
        tab = Tableau(rows, b, c, resumable=True)
        for row, rhs in [(None, None), *appended]:
            if row is not None:
                tab.append_row(row, rhs)
            res = resumed(tab)
            if isinstance(res, SimplexResult):
                assert res.max_bits == max(abs(v) for r in tab.t for v in r).bit_length()
