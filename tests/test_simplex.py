"""The exact simplex core on the 0/1 programs it takes: hand-solved
programs, refusals of every other entry, differential tests of both
packings against a dense Fraction tableau that takes the same Bland
pivots, and differential tests of the resumable tableau against
from-scratch solves."""
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbal import simplex
from fracbal.cover import _indicator
from fracbal.families import SetProperty, enumerate_sets
from fracbal.gadgets import w_prime
from fracbal.simplex import SimplexError, SimplexResult, Tableau, simplex_max

F = Fraction


def dense_simplex_max(rows, b, c) -> SimplexResult:
    """Reference oracle: the full m x (n + m + 1) Fraction tableau with
    Bland's rule (least-index entering column, ratio ties broken by least
    basic index), counting its pivots.  The result keeps the condensed
    integer tableau, the basis determinant, the product of the pivots,
    times each entry of a nonbasic column or of the right-hand side, so its
    ``max_bits`` is the engine's."""
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
    det = Fraction(1)

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
        det *= piv
        prow = t[leave] = [v / piv for v in t[leave]]
        # the zero entries of the pivot row, most of its slack part, leave
        # an entry as it is
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                t[i] = [v - f * q if q else v for v, q in zip(t[i], prow)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * q if q else v for v, q in zip(obj, prow)]
        basis[leave] = enter
        pivots += 1

    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = t[i][total]
    value = -obj[total]
    duals = tuple(-obj[n + i] for i in range(m))
    keep = [j for j in range(total) if j not in basis] + [total]
    final = [[int(det * row[j]) for j in keep] for row in (*t, obj)]
    lanes = simplex._Lanes(n)
    return SimplexResult(value, tuple(x), duals, pivots, tuple(map(lanes.pack, final)), lanes)


def outcome(solver, rows, b, c):
    try:
        return solver(rows, b, c)
    except SimplexError as exc:
        return str(exc)


def test_two_variable_program():
    # max x + y s.t. x <= 1, y <= 1, x + y <= 1: optimum 1 on the edge x + y = 1
    res = simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 1], [1, 1])
    assert res.value == 1
    assert sum(res.x) == 1
    # duals reconstruct the optimum: y.b == value
    assert sum(d * b for d, b in zip(res.duals, (1, 1, 1))) == 1
    assert all(d >= 0 for d in res.duals)


def test_fractional_optimum():
    # max x + y + z over the triangle's edges x + y, y + z, x + z <= 1:
    # optimum 3/2 at (1/2, 1/2, 1/2)
    res = simplex_max([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1], [1, 1, 1])
    assert res.value == F(3, 2)
    assert res.x == (F(1, 2), F(1, 2), F(1, 2))


def test_degenerate_instance_terminates():
    # x <= 0 forces a degenerate first pivot and the repeated rows a ratio
    # tie at the second; Bland's rule must exit
    res = simplex_max([[1, 0], [1, 1], [1, 1], [0, 1]], [0, 1, 1, 1], [1, 1])
    assert (res.value, res.x, res.pivots) == (1, (0, 1), 2)


def test_unbounded_detected():
    # y appears in no row and has cost 1
    with pytest.raises(SimplexError, match="unbounded"):
        simplex_max([[1, 0]], [1], [1, 1])


def test_negative_rhs_rejected():
    with pytest.raises(SimplexError, match="the int 0 or 1"):
        simplex_max([[1]], [-1], [1])


def refused_everywhere(entry):
    """``entry`` is refused by ``simplex_max`` and ``Tableau`` in the
    constraint rows, the right-hand side and the objective, then in b, c
    and the last row behind many ints."""
    many = [1] * 40
    for rows, b, c in (
        ([[entry, 1]], [1], [1, 1]),
        ([[1, 1]], [entry], [1, 1]),
        ([[1, 1]], [1], [1, entry]),
        ([many] * 40, many[1:] + [entry], many),
        ([many] * 40, many, many[1:] + [entry]),
        ([many] * 39 + [many[1:] + [entry]], many, many),
    ):
        for solver in (simplex_max, Tableau):
            with pytest.raises(SimplexError, match="the int 0 or 1"):
                solver(rows, b, c)


@pytest.mark.parametrize(
    "entry",
    [0.5, 1.0, Decimal("0.5"), Decimal(1), [1]],
    ids=["float", "whole-float", "decimal", "whole-decimal", "list"],
)
def test_non_rational_entries_rejected(entry):
    refused_everywhere(entry)


@pytest.mark.parametrize(
    "entry",
    [2, -1, F(1), F(1, 2), F(0)],
    ids=["two", "minus-one", "fraction-one", "fraction-half", "fraction-zero"],
)
def test_rationals_other_than_the_ints_0_and_1_rejected(entry):
    # a Fraction equal to 0 or 1 is refused too: the engine takes ints only
    refused_everywhere(entry)


def test_bool_entries_are_accepted():
    # bool is an int subclass, and the type test takes it as one
    res = simplex_max([[True, 1]], [True], [1, False])
    assert res.value == 1


def test_zero_objective():
    res = simplex_max([[1]], [1], [0])
    assert res.value == 0


@pytest.mark.parametrize(
    "rows, b, c",
    [
        ([], [], [1]),          # m = 0, positive cost: unbounded
        ([], [], [0, 0]),       # m = 0, nothing to gain
        ([[]], [1], []),        # n = 0
        ([], [], []),
        ([[1]], [1, 1], [1]),   # inconsistent dimensions
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
    rows, b, c = [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1], [1, 1, 1]
    res = simplex_max(rows, b, c)
    assert res.pivots == 3
    # the final objective row holds -value * d = -3/2 * 2
    assert res.max_bits == 2
    assert with_bits(res) == with_bits(dense_simplex_max(rows, b, c))


@st.composite
def programs(draw):
    """Small 0/1 programs: zero rows, columns, right-hand sides and costs,
    repeated rows for ratio ties and degeneracy, and some programs made
    unbounded by an all-zero column of cost 1."""
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=5))
    # mostly 1, so that most programs are bounded and pivot often
    bit = st.sampled_from((0, 1, 1))
    rows, b = [], []
    for _ in range(m):
        kind = draw(st.integers(min_value=0, max_value=4))
        if rows and kind == 0:
            k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows.append(list(rows[k]))
            b.append(b[k])
            continue
        rows.append([0] * n if kind == 1 else [draw(bit) for _ in range(n)])
        b.append(draw(bit))
    c = [draw(bit) for _ in range(n)]
    if n and draw(st.integers(min_value=0, max_value=3)) == 0:
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row in rows:
            row[j] = 0
        c[j] = 1
    return rows, b, c


@settings(derandomize=True, deadline=None, max_examples=400)
@given(programs())
def test_condensed_tableau_matches_dense_oracle(program):
    rows, b, c = program
    want = outcome(dense_simplex_max, rows, b, c)
    got = outcome(simplex_max, rows, b, c)
    # equal results include equal pivot counts: the same Bland path
    assert got == want


@st.composite
def wide_programs(draw):
    """Larger 0/1 programs, up to 16 rows over up to 10 columns, with
    right-hand sides and costs mostly 1: longer Bland paths to wider
    tableau entries than ``programs`` gives.  A few are unbounded by an
    all-zero column of cost 1."""
    m = draw(st.integers(min_value=0, max_value=16))
    n = draw(st.integers(min_value=0, max_value=10))
    bit = st.integers(min_value=0, max_value=1)
    rows = [[draw(bit) for _ in range(n)] for _ in range(m)]
    b = [draw(st.sampled_from((0, 1, 1, 1))) for _ in range(m)]
    c = [draw(st.sampled_from((0, 1, 1, 1))) for _ in range(n)]
    if n and draw(st.integers(min_value=0, max_value=7)) == 0:
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row in rows:
            row[j] = 0
        c[j] = 1
    return rows, b, c


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wide_programs())
def test_wide_entries_match_dense_oracle(program):
    rows, b, c = program
    # equal pivots and max_bits: the same Bland path to the same tableau
    assert with_bits(outcome(simplex_max, rows, b, c)) == with_bits(
        outcome(dense_simplex_max, rows, b, c)
    )


def test_appended_row_the_optimum_satisfies_keeps_the_path():
    # max x + y s.t. x <= 1, y <= 1: two pivots to (1, 1).  A second x <= 1
    # ties the first ratio test (1/1 against 1/1), which keeps the recorded
    # row, whose label is smaller, and has no entry in y's column at the
    # second; the optimum satisfies it, so the path stays and its dual is 0
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [1, 1])
    assert tab.solve().pivots == 2
    tab.append_row([1, 0], 1)
    res = tab.solve()
    assert res == simplex_max([[1, 0], [0, 1], [1, 0]], [1, 1, 1], [1, 1])
    assert (res.value, res.duals, res.pivots, tab.executed) == (2, (1, 1, 0), 2, 2)


def test_violated_row_rewinds_to_where_it_wins():
    # x + y <= 1 ties the first ratio test (1/1 against 1/1), which keeps
    # x <= 1, and wins the second, for y, at 0/1 against 1/1: the engine
    # replays one pivot from the checkpoint before pivot 0 and takes a new one
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [1, 1])
    tab.solve()
    tab.append_row([1, 1], 1)
    res = tab.solve()
    assert res == simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 1], [1, 1])
    assert (res.value, res.x, res.duals, res.pivots, tab.executed) == (1, (1, 0), (0, 0, 1), 2, 4)


def test_appended_row_is_scaled_through_a_pivot_it_has_no_entry_in():
    # the recorded path's third pivot, on x3, takes d from 1 to 2, and the
    # new row x2 <= 1 has 0 in x3's column there, so carrying it through
    # that pivot only scales it by 2; it never wins a ratio test, so the
    # resumed tableau is the from-scratch one with no pivot taken
    rows = [[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 0]]
    tab = Tableau(rows, [1, 1, 1], [1, 1, 1, 1])
    tab.solve()
    assert [(s, d) for _, s, _, d in tab.path] == [(0, 1), (1, 1), (3, 1), (2, 2)]
    tab.append_row([0, 0, 1, 0], 1)
    res = tab.solve()
    # the same final rows as a from-scratch tableau, packed alike
    want = Tableau([*rows, [0, 0, 1, 0]], [1] * 4, [1] * 4).solve()
    assert (res, res.final) == (want, want.final)
    assert res == simplex_max([*rows, [0, 0, 1, 0]], [1] * 4, [1] * 4)
    assert tab.executed == 4


def test_append_row_refuses_a_non_01_entry():
    # the lanes are sized for 0/1 rows when the tableau is built: a refused
    # row, x + y <= 1 scaled by 2^40 among them, leaves the tableau, its
    # path and its checkpoints as they were
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [1, 1])
    res = tab.solve()

    def state():
        checkpoints = [(list(rows), d, list(basis), list(nonbasic))
                       for rows, d, basis, nonbasic in tab.checkpoints]
        return (list(tab.t), tab.d, list(tab.basis), list(tab.nonbasic), list(tab.path),
                checkpoints, tab.pivots, tab.executed)

    before = state()
    for row, rhs in (
        ([2**40, 2**40], 2**40),
        ([1, 1], 2),
        ([2, 0], 1),
        ([1, -1], 1),
        ([-1, 0], 0),
        ([1, 1], -1),
        ([F(1), 1], 1),
        ([1, 1], F(1)),
        ([1, 1.0], 1),
        ([1, 1], 0.5),
        ([Decimal(1), 0], 1),
        ([1, 1], Decimal("0.5")),
    ):
        with pytest.raises(SimplexError, match="the int 0 or 1"):
            tab.append_row(row, rhs)
    assert state() == before
    assert tab.solve() == res
    # a 0/1 row is appended and resumed from as before
    tab.append_row([1, 1], 1)
    assert tab.solve() == simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 1], [1, 1])


@pytest.mark.parametrize(
    "rows, b, c, message",
    [
        # a row's extra entry would be read as its right-hand side
        ([[1, 2]], [1], [1], "inconsistent dimensions"),
        # the all-slack basis would be the infeasible x = -1
        ([[1]], [-1], [1], "the int 0 or 1"),
        # the extra right-hand side would be dropped
        ([[1]], [1, 1], [1], "inconsistent dimensions"),
    ],
    ids=["long-row", "negative-rhs", "extra-rhs"],
)
def test_tableau_checks_its_input(rows, b, c, message):
    with pytest.raises(SimplexError, match=message):
        Tableau(rows, b, c)


@pytest.mark.parametrize("n, width", [(16, 23), (23, 37), (34, 61), (66, 142), (88, 206), (130, 336)])
def test_lane_widths_are_pinned(n, width):
    # n = 16 / 23 / 34 / 66 / 88 / 130: w_prime, w_double_prime, w1, g_hat_k3,
    # u_hat and g_sequence(1) as covering LPs over their vertices
    assert simplex._Lanes(n).width == width


def det(matrix):
    """Exact determinant by Bareiss elimination with row swaps."""
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


# Sylvester's Hadamard matrix of order 8 has entries (-1)^popcount(i & j);
# bordered off and mapped -1 -> 1, +1 -> 0 it is a 0/1 matrix of order 7
# whose determinant 32 is the 0/1 bound 8^4 / 2^7 met exactly
SYLVESTER_7 = [[bin(i & j).count("1") % 2 for j in range(1, 8)] for i in range(1, 8)]

# the largest determinant of a 0/1 matrix of orders 1 to 10 (OEIS A003432)
MAX_01_DET = [1, 1, 2, 3, 5, 9, 32, 56, 144, 320]


def test_binary_lanes_hold_every_01_determinant():
    # orders 1 to 4 exhaustively, up to the order of the rows, which moves
    # only the sign; orders 5 to 10 by their known maxima
    for k in range(1, 5):
        rows = list(product((0, 1), repeat=k))
        assert max(abs(det(m)) for m in combinations(rows, k)) == MAX_01_DET[k - 1]
    assert abs(det(SYLVESTER_7)) == 32
    for k, peak in enumerate(MAX_01_DET, start=1):
        lanes = simplex._Lanes(k - 1)
        # strictly inside (-2^(W-1), 2^(W-1)), and within bits(H) = W - 2
        assert peak < lanes.half
        assert peak.bit_length() <= lanes.width - 2
    # at order 7 the bound is met: H = 32, so W = bits(32) + 2
    assert simplex._Lanes(6).width == 8


@st.composite
def cover_programs(draw):
    """Packing LPs of covering form: 0/1 rows, b = 1 and c = 1, n <= 12 and
    up to 40 rows.  Some start with the unit rows, as column generation
    does, and so are bounded; some hold the rows of ``SYLVESTER_7``."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=40))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        rows[:0] = [[int(j == k) for j in range(n)] for k in range(n)]
    if n >= 7 and draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=min(len(rows), 33)))
        pad = draw(st.lists(st.integers(0, 1), min_size=n - 7, max_size=n - 7))
        rows[at:at] = [row + pad for row in SYLVESTER_7]
    del rows[40:]
    return rows, [1] * len(rows), [1] * n


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cover_programs())
def test_cover_programs_on_binary_lanes_match_dense_oracle(program):
    rows, b, c = program
    got = outcome(simplex_max, rows, b, c)
    # equal results include equal pivots, and equal max_bits the same tableau
    assert with_bits(got) == with_bits(outcome(dense_simplex_max, rows, b, c))
    if isinstance(got, SimplexResult):
        # the one-shot solve packs by column: the 0/1 determinant width of
        # 1 to 12 columns, 3 to 16 bits, rounded up to 1 or 2 bytes
        bits = simplex._Lanes(len(c)).width
        assert got.lanes.width == (8 if bits <= 8 else 16)


@pytest.mark.parametrize(
    "n, width",
    [(0, 8), (6, 8), (7, 16), (16, 32), (23, 64), (34, 64), (35, 64), (36, 72), (66, 144), (130, 336)],
)
def test_column_lane_widths_are_pinned(n, width):
    # the row widths of test_lane_widths_are_pinned rounded up to 1, 2, 4 or
    # 8 bytes, and to whole bytes beyond: from n = 36 on a lane is decoded
    # by int.from_bytes rather than memoryview.cast
    lanes = simplex._ColumnLanes(n, 3)
    assert lanes.width == width
    assert (lanes.cast is None) == (width > 64)


@st.composite
def tall_programs(draw):
    """Tall 0/1 programs, up to 60 rows over up to 40 columns, some with
    n >= 36, whose column lanes are wider than 8 bytes.  Beyond 12 columns
    at most 12 columns cost 1, which keeps the Bland paths, and with them
    the dense oracle, short.  Everything comes from a ``Random`` seeded by
    the one draw: 2,400 entries would overrun Hypothesis's buffer, and its
    own draws lean to the smallest shapes, which the examples below cover."""
    rnd = Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = rnd.randint(0, 60)
    n = rnd.randint(*rnd.choice(((1, 12), (13, 35), (36, 40))))
    density = rnd.choice((0.2, 0.5))
    rows = [[int(rnd.random() < density) for _ in range(n)] for _ in range(m)]
    b = [rnd.choice((0, 1, 1, 1)) for _ in range(m)]
    live = set(rnd.sample(range(n), n if n <= 12 else rnd.randint(1, 12)))
    return rows, b, [int(j in live) for j in range(n)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(tall_programs())
@example(([], [], [1] * 40))        # m = 0 over wide lanes: unbounded
@example(([], [], [0] * 40))
@example(([[]] * 60, [1] * 60, []))  # n = 0
def test_tall_programs_on_column_lanes_match_dense_oracle(program):
    rows, b, c = program
    # equal pivots and max_bits: the same Bland path to the same tableau
    assert with_bits(outcome(simplex_max, rows, b, c)) == with_bits(
        outcome(dense_simplex_max, rows, b, c)
    )


@pytest.mark.parametrize(
    "prop, pivots", [(SetProperty.BALANCED, 54), (SetProperty.ACYCLIC, 42)]
)
def test_both_packings_solve_w_prime_alike(prop, pivots):
    # chi_fb and a_f of w_prime: 244 and 316 maximal sets over 16 vertices
    g = w_prime().graph
    col = {v: j for j, v in enumerate(g.vertices)}
    rows = [_indicator(s, col) for s in enumerate_sets(g, prop, maximal_only=True).sets]
    ones = [1] * len(rows)
    by_column = simplex_max(rows, ones, [1] * len(col))
    by_row = Tableau(rows, ones, [1] * len(col)).solve()
    assert with_bits(by_column) == with_bits(by_row)
    assert by_column.pivots == pivots


def test_append_row_checks_its_row():
    tab = Tableau([[1]], [1], [1])
    with pytest.raises(SimplexError, match="inconsistent dimensions"):
        tab.append_row([1, 1], 1)
    with pytest.raises(SimplexError, match="the int 0 or 1"):
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
    """A 0/1 program (right-hand sides and costs 0 or 1 too) and 0/1 rows
    to append one at a time.  Copies of earlier rows make exact ratio ties;
    many appended rows are not violated.  Without the unit rows some
    programs are unbounded until a row bounds them, and some stay
    unbounded throughout, by a column of cost 1 that every row leaves 0."""
    n = draw(st.integers(min_value=1, max_value=7))
    bit = st.integers(min_value=0, max_value=1)
    # right-hand sides and costs mostly 1, as in the covering LPs
    mostly_one = st.sampled_from((0, 1, 1, 1))
    c = [draw(mostly_one) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        if rows and draw(st.integers(min_value=0, max_value=3)) == 0:
            rows.append(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))])
        else:
            rows.append(([draw(bit) for _ in range(n)], draw(mostly_one)))
    if draw(st.booleans()):
        # unit rows first, as column generation starts: bounded throughout
        rows[:0] = [([int(j == k) for j in range(n)], 1) for k in range(n)]
    elif draw(st.integers(min_value=0, max_value=3)) == 0:
        j = draw(st.integers(min_value=0, max_value=n - 1))
        for row, _ in rows:
            row[j] = 0
        c[j] = 1
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
        tab = Tableau(rows, b, c)
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
    # both packings: the resumable tableau's rows are scanned whole
    rows, b, c = program
    tab = Tableau(rows, b, c)
    try:
        res = tab.solve()
    except SimplexError:
        return
    assert res.max_bits == max(abs(v) for row in tab.rows() for v in row).bit_length()
    assert simplex_max(rows, b, c).max_bits == res.max_bits


@pytest.mark.parametrize("every", [2, simplex._CHECKPOINT_EVERY])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(run=packing_runs())
def test_max_bits_of_resumed_solves_matches_full_scan(every, run):
    # a rewind rebuilds the tableau from a checkpoint and replays pivots, and
    # append_row inserts into the live tableau in place: each result, read
    # only after every later append and solve, still gives the x, duals and
    # max_bits of a full scan of the tableau taken when it was built
    c, start, appended = run
    rows = [row for row, _ in start]
    b = [rhs for _, rhs in start]
    kept = []
    with mock.patch.object(simplex, "_CHECKPOINT_EVERY", every):
        tab = Tableau(rows, b, c)
        for row, rhs in [(None, None), *appended]:
            if row is not None:
                tab.append_row(row, rhs)
            res = resumed(tab)
            if isinstance(res, SimplexResult):
                kept.append((res, full_scan(tab)))
    for res, scan in kept:
        assert (res.x, res.duals, res.max_bits) == scan


def full_scan(tab):
    """``x``, the duals and ``max_bits`` read off every unpacked row."""
    rows, n, d = tab.rows(), tab.n, tab.d
    x = [F(0)] * n
    for i, var in enumerate(tab.basis):
        if var < n:
            x[var] = F(rows[i][n], d)
    duals = [F(0)] * (len(rows) - 1)
    for k, var in enumerate(tab.nonbasic):
        if var >= n:
            duals[var - n] = F(-rows[-1][k], d)
    return tuple(x), tuple(duals), max(abs(v) for r in rows for v in r).bit_length()
