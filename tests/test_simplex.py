"""The exact simplex core: hand-solved programs, a differential test
against a dense Fraction tableau that takes the same Bland pivots, and
differential tests of the resumable tableau against from-scratch solves."""
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations, product
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
    basic index), counting its pivots.  The result keeps the condensed
    integer tableau, the basis determinant, the product of the pivots,
    times each entry of a nonbasic column or of the right-hand side, so on
    integer input its ``max_bits`` is the engine's."""
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
    keep = [j for j in range(total) if j not in basis] + [total]
    final = [[int(det * row[j]) for j in keep] for row in (*t, obj)]
    lanes = simplex._Lanes(len(keep) - 1, max(abs(v) for row in final for v in row))
    return SimplexResult(value, tuple(x), duals, pivots, tuple(map(lanes.pack, final)), lanes)


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
    # the entry in the constraint rows, the right-hand side, the objective,
    # then in b, c and the last row behind many ints
    many = [1] * 40
    for rows, b, c in (
        ([[entry, 1]], [1], [1, 1]),
        ([[F(1), 1]], [entry], [1, 1]),
        ([[1, 1]], [F(1, 2)], [1, entry]),
        ([many] * 40, many[1:] + [entry], many),
        ([many] * 40, many, many[1:] + [entry]),
        ([many] * 39 + [many[1:] + [entry]], many, many),
    ):
        with pytest.raises(SimplexError, match="must be rational"):
            simplex_max(rows, b, c)


def test_bool_entries_are_accepted():
    # bool is an int subclass, so it passes the Rational check, not the type test
    res = simplex_max([[True, 1]], [True], [1, False])
    assert res.value == 1


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


@st.composite
def wide_programs(draw):
    """Small LPs whose entries are integers up to about 2^80 or fractions
    with denominators up to 2^40: after scaling, lanes hundreds of bits
    wide.  Returned with the integer program ``simplex_max`` solves."""
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=0, max_value=4))
    wide = st.one_of(
        st.integers(min_value=-(2**80), max_value=2**81),
        st.fractions(min_value=-4, max_value=8, max_denominator=2**40),
        st.integers(min_value=-1, max_value=2),
    )
    rows = [[F(draw(wide)) for _ in range(n)] for _ in range(m)]
    b = [F(draw(st.one_of(st.just(0), wide.map(abs)))) for _ in range(m)]
    c = [F(draw(wide)) for _ in range(n)]
    scale = lcm(*(v.denominator for v in chain(b, c, *rows)))

    def scaled(vals):
        return [int(v * scale) for v in vals]

    return (rows, b, c), ([scaled(row) for row in rows], scaled(b), scaled(c)), scale


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wide_programs())
def test_wide_entries_match_dense_oracle(program):
    (rows, b, c), (int_rows, int_b, int_c), scale = program
    want = outcome(dense_simplex_max, int_rows, int_b, int_c)
    if isinstance(want, SimplexResult):
        want = replace(want, value=want.value / scale)
    # equal pivots and max_bits: the same Bland path to the same tableau
    assert with_bits(outcome(simplex_max, rows, b, c)) == with_bits(want)


def test_appended_row_the_optimum_satisfies_keeps_the_path():
    # max 2x + 2y s.t. x <= 1, y <= 1: two pivots to (1, 1); x + y <= 2 loses
    # the first ratio test (2/1 against 1/1) and ties the second (1/1 against
    # 1/1), and the optimum satisfies it, so the path stays and its dual is 0.
    # The objective sets the input peak to 2, so the new row fits the lanes
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [2, 2], resumable=True)
    assert tab.solve().pivots == 2
    tab.append_row([1, 1], 2)
    res = tab.solve()
    assert res == simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [2, 2])
    assert (res.value, res.duals, res.pivots, tab.executed) == (4, (2, 2, 0), 2, 2)


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


def test_append_row_refuses_an_entry_above_the_peak():
    # the lanes are sized for the input when the tableau is built: a refused
    # row, x + y <= 1 scaled by 2^40 among them, leaves the tableau, its
    # path and its checkpoints as they were.  The input is all 0 or 1, so
    # the lanes have the 0/1 width and a -1 is refused as well as a 2
    tab = Tableau([[1, 0], [0, 1]], [1, 1], [1, 1], resumable=True)
    assert tab.binary
    res = tab.solve()

    def state():
        checkpoints = [(list(rows), d, list(basis), list(nonbasic))
                       for rows, d, basis, nonbasic in tab.checkpoints]
        return (list(tab.t), tab.d, list(tab.basis), list(tab.nonbasic), list(tab.path),
                checkpoints, tab.pivots, tab.executed)

    before = state()
    for row, rhs, message in (
        ([2**40, 2**40], 2**40, "exceeds the tableau's input peak"),
        ([1, -2], 1, "exceeds the tableau's input peak"),
        ([1, 1], 2, "exceeds the tableau's input peak"),
        ([2, 0], 1, "exceeds the tableau's input peak"),
        ([1, -1], 1, "of a 0/1 tableau is negative"),
        ([-1, 0], 0, "of a 0/1 tableau is negative"),
    ):
        with pytest.raises(SimplexError, match=message):
            tab.append_row(row, rhs)
    assert state() == before
    assert tab.solve() == res
    # a row within the peak is appended and resumed from as before
    tab.append_row([1, 1], 1)
    assert tab.solve() == simplex_max([[1, 0], [0, 1], [1, 1]], [1, 1, 1], [1, 1])


@pytest.mark.parametrize(
    "rows, b, c, message",
    [
        # a row's extra entry would be read as its right-hand side
        ([[1, 2]], [1], [1], "inconsistent dimensions"),
        # the all-slack basis would be the infeasible x = -1
        ([[1]], [-1], [1], "nonnegative"),
        # the extra right-hand side would be dropped
        ([[1]], [1, 1], [1], "inconsistent dimensions"),
    ],
    ids=["long-row", "negative-rhs", "extra-rhs"],
)
def test_tableau_checks_its_input(rows, b, c, message):
    with pytest.raises(SimplexError, match=message):
        Tableau(rows, b, c)


def test_lanes_are_sized_by_the_inputs_sign_and_peak():
    # all 0 or 1, zero right-hand sides included: the 0/1 bound
    assert Tableau([[1, 0], [0, 1]], [0, 1], [1, 1]).lanes.width == simplex._Lanes(2, 1, True).width
    # a -1 at peak 1, in a row or in the objective, keeps the Hadamard width
    for rows, b, c in (([[1, -1], [0, 1]], [1, 1], [1, 1]), ([[1, 0], [0, 1]], [1, 1], [1, -1])):
        tab = Tableau(rows, b, c, resumable=True)
        assert (tab.binary, tab.peak, tab.lanes.width) == (False, 1, simplex._Lanes(2, 1).width)
    # and such a tableau takes a -1 in an appended row
    tab.solve()
    tab.append_row([-1, 1], 1)
    assert tab.solve() == simplex_max([[1, 0], [0, 1], [-1, 1]], [1, 1, 1], [1, -1])
    # a 2 sets the Hadamard width at peak 2
    assert Tableau([[1, 0]], [2], [1, 1]).lanes.width == simplex._Lanes(2, 2).width


@pytest.mark.parametrize(
    "n, binary, hadamard",
    [(16, 23, 37), (23, 37, 58), (34, 61, 92), (66, 142, 206), (88, 206, 291), (130, 336, 463)],
)
def test_lane_widths_are_pinned(n, binary, hadamard):
    # n = 16 / 23 / 34 / 66 / 88 / 130: w_prime, w_double_prime, w1, g_hat_k3,
    # u_hat and g_sequence(1) as covering LPs over their vertices
    assert (simplex._Lanes(n, 1, True).width, simplex._Lanes(n, 1).width) == (binary, hadamard)


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
        lanes = simplex._Lanes(k - 1, 1, True)
        # strictly inside (-2^(W-1), 2^(W-1)), and within bits(H) = W - 2
        assert peak < lanes.half
        assert peak.bit_length() <= lanes.width - 2
    # at order 7 the bound is met: H = 32, so W = bits(32) + 2
    assert simplex._Lanes(6, 1, True).width == 8


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
        assert got.lanes.width == simplex._Lanes(len(c), 1, True).width


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
    them.  The appended rows are clipped to the input peak of the first
    ones and the costs, which a resumable tableau refuses to exceed."""
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
    peak = max(map(abs, chain(c, *(row + [rhs] for row, rhs in rows[:start]))))
    appended = [([min(v, peak) for v in row], min(rhs, peak)) for row, rhs in rows[start:]]
    return c, rows[:start], appended


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
        tab = Tableau(rows, b, c, resumable=True)
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
