"""Exact covering LP: optima, certificates, scaling, column generation.

Expected optima are pinned by explicit strong-duality arguments spelled
out next to each case, not by rerunning the solver: a feasible cover of
value V plus a feasible vertex-weighting of the same value prove V exact.
"""
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbal.certify import Mode, verify
from fracbal import cover, simplex
from fracbal.cover import (
    ColumnGenResult,
    CoverError,
    a_f,
    chi_fb,
    column_generation,
    fractional_cover_optimum,
    _price,
    _verify_scaled,
    lp_to_certificate,
    verify_cover_certificates,
)
from fracbal.families import SetFamily, SetProperty, _lift, enumerate_sets
from fracbal.gadgets import g_hat_k3, k3_minus, k4_minus, u_hat, w1_underlying, w_hat, w_prime
from fracbal.sgraph import (
    SignedGraph, any_cycle, is_acyclic, is_balanced, negative_cycle_witness,
)
from fracbal.simplex import simplex_max


def c4():
    return SignedGraph(
        ("a", "b", "c", "d"),
        (("a", "b", -1), ("b", "c", -1), ("c", "d", -1), ("a", "d", -1)),
    )


def recheck_result(g, prop, res):
    """Re-verify both certificates with loops only (independent of cover.py)."""
    check = is_balanced if prop is SetProperty.BALANCED else is_acyclic
    cover = {v: Fraction(0) for v in g.vertices}
    total = Fraction(0)
    for s, w in res.primal:
        assert w > 0
        assert check(g, s)
        total += w
        for v in s:
            cover[v] += w
    assert all(c >= 1 for c in cover.values())
    duals = dict(res.dual)
    assert all(y >= 0 for y in duals.values())
    assert total == res.optimum == sum(duals.values())


def test_chi_fb_of_negative_triangle_is_three_halves():
    # dual: weight 1/2 per vertex is feasible (balanced sets have <= 2
    # vertices), total 3/2; primal: the three edges at weight 1/2 cover
    # every vertex exactly once, total 3/2
    res = chi_fb(k3_minus().graph)
    assert res.optimum == Fraction(3, 2)
    recheck_result(k3_minus().graph, SetProperty.BALANCED, res)


def test_chi_fb_of_negative_k4_is_two():
    # dual 1/2 per vertex sums to 2 and is feasible on <= 2-vertex sets;
    # primal: pair up the vertices into two disjoint 2-sets at weight 1 each
    res = chi_fb(k4_minus().graph)
    assert res.optimum == Fraction(2)
    recheck_result(k4_minus().graph, SetProperty.BALANCED, res)


def test_a_f_of_four_cycle():
    # acyclic sets of the 4-cycle have <= 3 vertices, so weight 1/3 per
    # vertex is dual feasible (total 4/3); the four 3-subsets at weight 1/3
    # cover every vertex three times / 3 = 1
    res = a_f(c4())
    assert res.optimum == Fraction(4, 3)
    recheck_result(c4(), SetProperty.ACYCLIC, res)


def test_a_f_of_trees_is_one():
    path = SignedGraph(
        ("a", "b", "c", "d", "e"),
        (("a", "b", 1), ("b", "c", -1), ("c", "d", 1), ("d", "e", -1)),
    )
    star = SignedGraph(
        ("hub", "s1", "s2", "s3"),
        (("hub", "s1", -1), ("hub", "s2", -1), ("hub", "s3", 1)),
    )
    for g in (path, star):
        res = a_f(g)
        assert res.optimum == 1
        recheck_result(g, SetProperty.ACYCLIC, res)


def test_core_gadget_regressions():
    # frozen solver values; certificates re-verified independently
    res = chi_fb(w_hat().graph)
    assert res.optimum == Fraction(11, 6)
    recheck_result(w_hat().graph, SetProperty.BALANCED, res)
    res2 = a_f(w_hat().graph)
    assert res2.optimum == Fraction(2)
    recheck_result(w_hat().graph, SetProperty.ACYCLIC, res2)


def test_uncovered_vertex_is_reported():
    g = k3_minus().graph
    fam = SetFamily(g, SetProperty.BALANCED, (("u1", "u2"),))
    with pytest.raises(CoverError, match="no family set"):
        fractional_cover_optimum(fam)


def test_monotonicity_adding_sets_never_hurts():
    g = k4_minus().graph
    full = enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    partial = SetFamily(g, SetProperty.BALANCED, full.sets[:4])
    if all(any(v in s for s in partial.sets) for v in g.vertices):
        assert fractional_cover_optimum(partial).optimum >= fractional_cover_optimum(full).optimum


def test_disjoint_union_of_component_families_adds_optima():
    # two disjoint triangles, each with its per-component family: the LP
    # separates, so optimum and dual total are the component sums
    names = tuple(f"a{i}" for i in range(3)) + tuple(f"b{i}" for i in range(3))
    edges = []
    for p in ("a", "b"):
        for i in range(3):
            for j in range(i + 1, 3):
                edges.append((f"{p}{i}", f"{p}{j}", -1))
    g = SignedGraph(names, tuple(edges))
    comp_sets = []
    for p in ("a", "b"):
        comp_sets.extend(
            [(f"{p}0", f"{p}1"), (f"{p}0", f"{p}2"), (f"{p}1", f"{p}2")]
        )
    fam = SetFamily(g, SetProperty.BALANCED, tuple(comp_sets))
    res = fractional_cover_optimum(fam)
    assert res.optimum == Fraction(3, 2) + Fraction(3, 2)
    assert sum(dict(res.dual).values()) == res.optimum


def test_lp_to_certificate_examples():
    res = chi_fb(k3_minus().graph)
    cert = lp_to_certificate(res, Mode.BALANCED)
    assert (cert.p, cert.q) == (3, 2)
    assert verify(k3_minus().graph, cert).ok
    assert Fraction(cert.p, cert.q) == res.optimum

    res4 = chi_fb(k4_minus().graph)
    cert4 = lp_to_certificate(res4, Mode.BALANCED)
    assert Fraction(cert4.p, cert4.q) == Fraction(2)
    assert verify(k4_minus().graph, cert4).ok

    path = SignedGraph(("a", "b", "c"), (("a", "b", 1), ("b", "c", 1)))
    cert_tree = lp_to_certificate(a_f(path), Mode.FOREST)
    assert (cert_tree.p, cert_tree.q) == (1, 1)
    assert cert_tree.classes == ((("a", "b", "c"), 1),)


def test_column_generation_reproduces_small_optima():
    cg = column_generation(k4_minus().graph, SetProperty.BALANCED)
    assert cg.completed and cg.optimum == Fraction(2)
    cg2 = column_generation(c4(), SetProperty.ACYCLIC)
    assert cg2.completed and cg2.optimum == Fraction(4, 3)


def random_corpus():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(2, 9)
        names = tuple(f"v{i}" for i in range(n))
        edges = tuple(
            (names[i], names[j], rng.choice((1, -1)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        yield SignedGraph(names, edges)


def test_column_generation_agrees_with_enumeration_on_random_corpus():
    for g in random_corpus():
        for prop, solve in ((SetProperty.BALANCED, chi_fb), (SetProperty.ACYCLIC, a_f)):
            direct = solve(g).optimum
            cg = column_generation(g, prop)
            assert cg.completed and cg.optimum == direct


def test_column_generation_budget_interval():
    # two iterations never close w_hat: the run is always capped
    cg = column_generation(w_hat().graph, SetProperty.BALANCED, max_iterations=2)
    assert isinstance(cg, ColumnGenResult)
    assert not cg.completed and cg.iterations == 2
    assert cg.lower <= Fraction(11, 6) <= cg.upper


def greedy_lift(g, prop, s):
    """Reference lift: every other vertex in declaration order joins ``s``
    when one property check says the set stays good."""
    check = is_balanced if prop is SetProperty.BALANCED else is_acyclic
    chosen = set(s)
    for v in g.vertices:
        if v not in chosen and check(g, [*chosen, v]):
            chosen.add(v)
    return tuple(v for v in g.vertices if v in chosen)


def scratch_column_generation(g, prop, max_iterations=None):
    """Reference loop: the restricted master solved from scratch by
    ``fractional_cover_optimum`` at every iteration, priced by ``_price``,
    each priced column lifted by ``greedy_lift``."""
    columns = [(v,) for v in g.vertices]
    iterations, lower, nodes = 0, Fraction(0), 0
    while True:
        master = fractional_cover_optimum(SetFamily._trusted(g, prop, tuple(columns)))
        best_w, best_s, price_nodes = _price(g, prop, dict(master.dual))
        nodes += price_nodes
        iterations += 1
        if best_w <= 1:
            return ColumnGenResult(
                True, master.optimum, master.optimum, master, iterations, len(columns),
                master.dual, nodes,
            )
        if master.optimum / best_w > lower:
            lower, behind = master.optimum / best_w, (master.dual, best_w)
        if max_iterations is not None and iterations >= max_iterations:
            y, w = behind
            return ColumnGenResult(
                False, lower, master.optimum, master, iterations, len(columns),
                tuple((v, val / w) for v, val in y), nodes,
            )
        columns.append(greedy_lift(g, prop, best_s))


def resumed_cases():
    yield w_hat().graph, SetProperty.BALANCED, None
    yield w_hat().graph, SetProperty.ACYCLIC, None
    yield w1_underlying().graph, SetProperty.BALANCED, 2
    for g in random_corpus():
        yield g, SetProperty.BALANCED, None
        yield g, SetProperty.ACYCLIC, None


def test_resumed_master_matches_from_scratch_loop():
    for g, prop, cap in resumed_cases():
        want = scratch_column_generation(g, prop, cap)
        got = column_generation(g, prop, max_iterations=cap)
        assert got == want
        assert got.price_nodes == want.price_nodes


def test_lower_dual_attains_lower_and_is_feasible():
    # capped, the weighting is y / best_w, which every good set weighs at
    # most 1; completed, it is the final master dual, which pricing accepts
    for g, prop, cap in resumed_cases():
        for limit in (cap, 1, 2):
            got = column_generation(g, prop, max_iterations=limit)
            y = dict(got.lower_dual)
            assert tuple(y) == g.vertices
            assert all(w >= 0 for w in y.values())
            assert sum(y.values()) == got.lower
            assert _price(g, prop, y)[0] <= 1
            if got.completed:
                assert got.lower_dual == got.result.dual


@st.composite
def graphs_and_duals(draw):
    """A random signed graph, up to 14 vertices so that some are one atom
    too large for the row DP, and a nonnegative dual that is often 0."""
    n = draw(st.integers(min_value=1, max_value=14))
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (names[i], names[j], draw(st.sampled_from((1, -1))))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    )
    weight = st.one_of(st.just(Fraction(0)), st.fractions(0, 2, max_denominator=7))
    y = {v: draw(weight) for v in names}
    return SignedGraph(names, edges), y, draw(st.sampled_from(list(SetProperty)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs_and_duals())
def test_lift_grows_the_priced_set_to_a_maximal_one_of_the_same_weight(case):
    g, y, prop = case
    witness = negative_cycle_witness if prop is SetProperty.BALANCED else any_cycle
    best_w, best_s, _ = _price(g, prop, y)
    lifted = _lift(g, prop, best_s)
    assert set(best_s) <= set(lifted)
    assert lifted == tuple(v for v in g.vertices if v in lifted)
    assert witness(g, lifted) is None
    assert all(witness(g, lifted + (v,)) is not None for v in g.vertices if v not in lifted)
    assert sum(y[v] for v in lifted) == best_w


def test_column_generation_prices_through_the_cover_attribute(monkeypatch):
    # the benchmark's pricing span wraps ``cover._price`` by name, so each
    # iteration must look the pricer up there, not in ``families``
    calls = []
    price = cover._price

    def counted(*args):
        calls.append(args)
        return price(*args)

    monkeypatch.setattr(cover, "_price", counted)
    cg = column_generation(w_prime().graph, SetProperty.BALANCED)
    assert len(calls) == cg.iterations == 21


def test_master_pivots_counts_executed_pivots(monkeypatch):
    # the from-scratch loop takes 306 Bland pivots on w_prime; resuming
    # computes 202, replays included, and returns the same result.  The pin
    # is exact so that a rewind that replays more than it needs to fails here
    # (a single checkpoint at pivot 0 executes all 306)
    from_scratch = []

    def counting(rows, b, c):
        res = simplex_max(rows, b, c)
        from_scratch.append(res.pivots)
        return res

    g = w_prime().graph
    monkeypatch.setattr(cover, "simplex_max", counting)
    want = scratch_column_generation(g, SetProperty.BALANCED)
    got = column_generation(g, SetProperty.BALANCED)
    assert got == want
    assert len(from_scratch) == got.iterations
    assert 0 < got.master_pivots < sum(from_scratch)
    assert (got.iterations, got.columns, got.master_pivots) == (21, 36, 202)
    assert sum(from_scratch) == 306


def test_master_reads_unpack_one_column_per_solve(monkeypatch):
    # a master read unpacks only its right-hand side column, for x, and
    # reads the value and the duals from lane 0 of every column; the pins
    # keep the count from being met by a shorter run.  The master is a
    # tableau over 16 vertices, so its lanes take the 0/1 determinant bound
    # of order 17, 23 bits, rounded up to 4 bytes
    unpack, read = simplex._ColumnLanes.unpack, simplex.Tableau._read
    unpacked, per_read = [], []

    def counting(lanes, x):
        unpacked.append(lanes.width)
        return unpack(lanes, x)

    def counted_read(tab):
        before = len(unpacked)
        opt = read(tab)
        per_read.append(len(unpacked) - before)
        return opt

    monkeypatch.setattr(simplex._ColumnLanes, "unpack", counting)
    monkeypatch.setattr(simplex.Tableau, "_read", counted_read)
    got = column_generation(w_prime().graph, SetProperty.BALANCED)
    assert (got.iterations, got.columns, got.master_pivots) == (21, 36, 202)
    assert per_read == [1] * got.iterations
    assert set(unpacked) == {32}


@pytest.mark.stretch
def test_column_generation_interval_on_large_arboricity_instance():
    # 34 vertices is beyond maximal enumeration's guard of 24; column
    # generation, priced over w1's four 10-vertex atoms, closes at the known
    # value 52/25 well inside the budget
    from fracbal.gadgets import w1_underlying

    cg = column_generation(
        w1_underlying().graph, SetProperty.ACYCLIC, time_budget=45.0
    )
    assert cg.completed and cg.optimum == Fraction(52, 25) and cg.iterations == 73


# (iterations, columns, master pivots) of each closure below
CLOSURES = {"g_hat_k3": (101, 166, 13919), "u_hat": (44, 131, 6654)}


@pytest.mark.stretch
@pytest.mark.parametrize("host, optimum", [(g_hat_k3, Fraction(87, 43)), (u_hat, Fraction(2))])
def test_column_generation_closes_chi_fb_of_the_paper_hosts(host, optimum):
    # g_hat_k3 (66 vertices) and u_hat (88) close in the pinned iterations,
    # columns and master pivots, so that an engine that leaves the Bland
    # path fails here; the budget makes a slowdown fail rather than hang
    g = host().graph
    cg = column_generation(g, SetProperty.BALANCED, time_budget=120.0)
    assert cg.completed and cg.optimum == optimum
    assert (cg.iterations, cg.columns, cg.master_pivots) == CLOSURES[host.__name__]
    assert verify(g, lp_to_certificate(cg.result, Mode.BALANCED)).ok


def test_master_resumes_on_lanes_wider_than_8_bytes():
    # g_hat_k3 has 66 vertices, so the master's lanes are 18 bytes, decoded
    # by int.from_bytes; ten iterations run in well under a second and
    # match the from-scratch loop, whose one-shot solves share the engine
    g = g_hat_k3().graph
    cg = column_generation(g, SetProperty.BALANCED, max_iterations=10)
    assert (cg.iterations, cg.columns, cg.master_pivots) == (10, 75, 208)
    assert (cg.lower, cg.upper) == (Fraction(66, 37), 3)
    assert cg == scratch_column_generation(g, SetProperty.BALANCED, 10)


def test_column_generation_rejects_a_nan_budget():
    with pytest.raises(ValueError, match="NaN"):
        column_generation(k3_minus().graph, SetProperty.BALANCED, time_budget=float("nan"))


@pytest.mark.parametrize("cap", [0, -3])
def test_column_generation_rejects_an_iteration_cap_below_one(cap):
    with pytest.raises(ValueError, match="at least 1"):
        column_generation(k3_minus().graph, SetProperty.BALANCED, max_iterations=cap)


def fraction_cover_check(family, optimum, primal, dual):
    """Reference copy of the certificate re-check in plain Fraction sums;
    returns the CoverError message, or None.  A set listed twice in the
    primal counts with both weights; a vertex listed twice in the dual is
    refused first."""
    names = [v for v, _ in dual]
    for k, v in enumerate(names):
        if v in names[:k]:
            return f"dual lists vertex {v!r} twice"
    if any(w < 0 for _, w in primal):
        return "negative primal weight"
    for s, _ in primal:
        if s not in family.sets:
            return f"primal set {s} is not in the family"
    coverage = {v: Fraction(0) for v in family.host.vertices}
    for s, w in primal:
        for v in s:
            coverage[v] += w
    if any(c < 1 for c in coverage.values()):
        return "primal does not cover every vertex"
    y = dict(dual)
    if any(val < 0 for val in y.values()):
        return "negative dual weight"
    for v in y:
        if v not in family.host.vertices:
            return f"dual weight on {v!r}, which is not a host vertex"
    for s in family.sets:
        if sum(y.get(v, Fraction(0)) for v in s) > 1:
            return f"dual violates set constraint for {s}"
    if sum(w for _, w in primal) != optimum or sum(y.values()) != optimum:
        return "certificate values do not match the optimum"
    return None


CORRUPTIONS = {
    "none": None,
    "negative weight": "negative primal weight",
    "foreign set": "primal set",
    "uncovered vertex": "primal does not cover every vertex",
    "negative dual": "negative dual weight",
    "stranger vertex": "dual weight on",
    "violated set": "dual violates set constraint for",
    "value mismatch": "certificate values do not match the optimum",
    "primal surplus": "certificate values do not match the optimum",
    "split set": None,
    "repeated dual vertex": "dual lists vertex",
}
positive = st.fractions(min_value=Fraction(1, 97), max_value=3, max_denominator=97)


@st.composite
def certificates(draw):
    """An optimal certificate of a random family on an edgeless host (every
    set is balanced), then one corruption of it.  The family may list one
    set twice, so that the solver's primal may too."""
    n = draw(st.integers(min_value=1, max_value=6))
    names = tuple(f"v{i}" for i in range(n))
    subsets = st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True)
    sets = {tuple(sorted(s)) for s in draw(st.lists(subsets, min_size=1, max_size=8))}
    sets |= {(v,) for v in names if not any(v in s for s in sets)}
    listed = sorted(sets)
    if draw(st.booleans()):
        listed.append(draw(st.sampled_from(listed)))
    fam = SetFamily(SignedGraph(names, ()), SetProperty.BALANCED, tuple(listed))
    res = fractional_cover_optimum(fam)
    optimum, primal, dual = res.optimum, list(res.primal), list(res.dual)
    kind = draw(st.sampled_from(sorted(CORRUPTIONS)))
    maybe_zero = st.one_of(st.just(Fraction(0)), positive)
    if kind == "foreign set":
        # a host set the family lacks, or one that names a stranger
        lacking = [c for r in range(1, n + 1) for c in combinations(names, r) if c not in sets]
        s = draw(st.sampled_from([*lacking, ("zzz",), (names[0], "zzz")]))
        k = draw(st.integers(min_value=0, max_value=len(primal)))
        primal.insert(k, (s, draw(maybe_zero)))
    elif kind == "stranger vertex":
        k = draw(st.integers(min_value=0, max_value=n))
        dual.insert(k, ("zzz", draw(maybe_zero)))
    elif kind == "repeated dual vertex":
        # a second entry for a host vertex, before or after its first
        v = draw(st.sampled_from(names))
        k = draw(st.integers(min_value=0, max_value=n))
        dual.insert(k, (v, draw(maybe_zero)))
    elif kind == "split set":
        k = draw(st.integers(min_value=0, max_value=len(primal) - 1))
        s, w = primal[k]
        part = draw(st.fractions(min_value=0, max_value=1, max_denominator=5))
        primal[k : k + 1] = [(s, w * part), (s, w - w * part)]
    elif kind == "negative weight":
        k = draw(st.integers(min_value=0, max_value=len(primal) - 1))
        primal[k] = (primal[k][0], -draw(st.fractions(min_value=0, max_denominator=9)) - 1)
    elif kind == "uncovered vertex":
        v = draw(st.sampled_from(names))
        primal = [(s, w) for s, w in primal if v not in s]
    elif kind == "negative dual":
        k = draw(st.integers(min_value=0, max_value=n - 1))
        dual[k] = (dual[k][0], Fraction(-1, draw(st.integers(min_value=1, max_value=9))))
    elif kind == "violated set":
        # a set of positive weight is tight, so any increase violates it
        tight = draw(st.sampled_from([s for s, _ in primal]))
        k = names.index(draw(st.sampled_from(tight)))
        dual[k] = (dual[k][0], dual[k][1] + draw(positive))
    elif kind == "value mismatch":
        optimum += draw(st.sampled_from((Fraction(1, 7), Fraction(-1, 3), Fraction(1))))
    elif kind == "primal surplus":
        k = draw(st.integers(min_value=0, max_value=len(primal) - 1))
        primal[k] = (primal[k][0], primal[k][1] + draw(positive))
    # integral weights may arrive as ints
    primal = [(s, int(w) if w.denominator == 1 else w) for s, w in primal]
    return fam, optimum, primal, dual, CORRUPTIONS[kind]


def scaled_check(fam, optimum, primal, dual):
    """The certificate over the common denominator of all its weights,
    through ``_verify_scaled``; returns the CoverError message, or None."""
    y = dict(dual)
    scale = lcm(
        Fraction(optimum).denominator,
        *(Fraction(w).denominator for _, w in primal),
        *(val.denominator for val in y.values()),
    )
    scaled_y = {v: 0 for v in fam.host.vertices}
    scaled_y.update((v, int(val * scale)) for v, val in y.items())
    try:
        _verify_scaled(
            dict.fromkeys(fam.sets), fam.host.vertices, scale, int(optimum * scale),
            [(s, int(w * scale)) for s, w in primal], scaled_y,
        )
    except CoverError as exc:
        return str(exc)
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(certificates())
def test_integer_cover_check_matches_fraction_reference(case):
    fam, optimum, primal, dual, expected = case
    want = fraction_cover_check(fam, optimum, primal, dual)
    try:
        verify_cover_certificates(fam, optimum, primal, dual)
        got = None
    except CoverError as exc:
        got = str(exc)
    assert got == want
    # the same certificate over one common scale: the same first message,
    # where the dual is a mapping (``_verify_scaled`` takes one, which
    # cannot list a vertex twice)
    if len(dict(dual)) == len(dual):
        assert scaled_check(fam, optimum, primal, dual) == got
    if expected is None:
        assert got is None
    else:
        assert got.startswith(expected)


def test_cover_check_refuses_strangers_and_sums_a_repeated_set():
    g = k3_minus().graph
    fam = enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    res = chi_fb(g)
    half = Fraction(1, 2)
    # the unbalanced triangle is no family set, so it proves nothing
    triangle = [(("u1", "u2", "u3"), Fraction(3, 2))]
    with pytest.raises(CoverError, match="not in the family"):
        verify_cover_certificates(fam, Fraction(3, 2), triangle, res.dual)
    # the whole dual weight on a vertex outside the host
    with pytest.raises(CoverError, match="'zzz', which is not a host vertex"):
        verify_cover_certificates(fam, res.optimum, res.primal, [("zzz", Fraction(3, 2))])
    # a primal set that names a stranger is refused, not looked up
    with pytest.raises(CoverError, match="not in the family"):
        verify_cover_certificates(fam, res.optimum, [*res.primal, (("u1", "zzz"), half)], res.dual)
    # a vertex listed twice in the dual is refused, whichever weight is last:
    # with ("u1", 5) in front the last weights are optimal, but the listed
    # weights sum to 13/2
    for dual in ([("u1", Fraction(5)), *res.dual], [*res.dual, ("u1", Fraction(0))]):
        with pytest.raises(CoverError, match="dual lists vertex 'u1' twice"):
            verify_cover_certificates(fam, res.optimum, res.primal, dual)
    # one set's weight split over two entries is the same cover
    (s, w), *rest = res.primal
    verify_cover_certificates(fam, res.optimum, [(s, w / 3), (s, w * 2 / 3), *rest], res.dual)
    # and a family that lists a set twice keeps a solver cover valid
    twice = SetFamily(g, SetProperty.BALANCED, (*fam.sets, fam.sets[0]))
    assert fractional_cover_optimum(twice).optimum == Fraction(3, 2)


@pytest.mark.parametrize("at", [1, 13])
@pytest.mark.parametrize("corrupt", ["vertex up", "row down"])
def test_every_master_is_checked_before_pricing(monkeypatch, at, corrupt):
    # one integer read of the master is off by one numerator: the loop must
    # refuse it before the pricer sees its weights
    optimize = simplex.Tableau.optimize
    reads, priced = [], []

    def corrupted(tab):
        opt = optimize(tab)
        reads.append(opt)
        if len(reads) == at:
            if corrupt == "vertex up":
                opt.x[at % len(opt.x)] += 1
            else:
                opt.duals[at % len(opt.duals)] -= 1
        return opt

    price = cover._price

    def counted(*args):
        priced.append(args)
        return price(*args)

    monkeypatch.setattr(simplex.Tableau, "optimize", corrupted)
    monkeypatch.setattr(cover, "_price", counted)
    with pytest.raises(CoverError):
        column_generation(w_prime().graph, SetProperty.BALANCED)
    assert (len(reads), len(priced)) == (at, at - 1)


def test_a_priced_column_already_in_the_master_is_refused(monkeypatch):
    # a pricer that stalls, here a lift that returns a singleton the master
    # starts with, must stop the loop rather than append the row again
    g = w_prime().graph
    monkeypatch.setattr(cover, "_lift", lambda g, prop, s: (g.vertices[0],))
    with pytest.raises(CoverError, match="pricing returned a known column"):
        column_generation(g, SetProperty.BALANCED)
