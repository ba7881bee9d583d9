"""Set enumeration, maximality certification, and the lemma oracles."""
from itertools import combinations

import pytest

from fracbal.families import (
    GuardExceeded,
    SetProperty,
    check_forest_lemmas,
    check_missing_triangle_lemma,
    enumerate_sets,
    lemma_case_sets,
    triangles_missed,
)
from fracbal.gadgets import GadgetGraph, k4_minus, w_double_prime, w_hat, w_prime
from fracbal.sgraph import SignedGraph, is_acyclic, is_balanced

PAPER_TEN = [
    {"u", "v", "x1", "x2", "x4"},
    {"u", "v", "x1", "x3", "x4"},
    {"u", "v", "w", "x1", "x4"},
    {"u", "v", "w", "x2"},
    {"u", "v", "w", "x3"},
    {"u", "v", "w", "x5"},
    {"u", "v", "x1", "x3"},
    {"u", "v", "x2", "x5"},
    {"u", "v", "x2", "x4"},
    {"u", "v", "x3", "x5"},
]


def powerset_maximal(g, prop, must=()):
    """Oracle: filter the full powerset, then keep inclusion-maximal sets.

    A good set with a good proper superset lies in some larger maximal set,
    so taking the good sets largest first, a set is maximal iff no maximal
    set kept before it contains it."""
    check = is_balanced if prop is SetProperty.BALANCED else is_acyclic
    good = []
    n = len(g.vertices)
    for bits in range(1, 1 << n):
        s = frozenset(g.vertices[i] for i in range(n) if bits >> i & 1)
        if set(must) <= s and check(g, s):
            good.append(s)
    top: list[frozenset] = []
    for s in sorted(good, key=len, reverse=True):
        if not any(s < t for t in top):
            top.append(s)
    return set(top)


def test_case_listing_is_the_paper_ten():
    listing = lemma_case_sets(w_hat(), (("u", "x1", "x2"), ("v", "x3", "x4")))
    assert len(listing) == 10
    assert {frozenset(s) for s in listing} == {frozenset(x) for x in PAPER_TEN}


def test_strict_maximal_with_terminals_is_subfamily_of_ten():
    wh = w_hat()
    fam = enumerate_sets(
        wh.graph, SetProperty.BALANCED, maximal_only=True, must_contain=("u", "v")
    )
    got = {frozenset(s) for s in fam.sets}
    ten = {frozenset(s) for s in PAPER_TEN}
    assert got <= ten
    # the two non-maximal rows of the ten are proper subsets of listed sets
    assert frozenset({"u", "v", "x1", "x3"}) not in got
    assert frozenset({"u", "v", "x2", "x4"}) not in got
    assert got == powerset_maximal(wh.graph, SetProperty.BALANCED, must=("u", "v"))


def test_k4_balanced_sets_have_at_most_two_vertices():
    g = k4_minus().graph
    fam = enumerate_sets(g, SetProperty.BALANCED)
    assert max(len(s) for s in fam.sets) == 2
    fam_max = enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    assert sorted(map(set, fam_max.sets), key=sorted) == [
        set(c) for c in combinations(("u1", "u2", "u3", "u4"), 2)
    ]


def test_max_acyclic_order_of_core_graph_is_five():
    fam = enumerate_sets(w_hat().graph, SetProperty.ACYCLIC, maximal_only=True)
    assert max(len(s) for s in fam.sets) == 5


def test_maximal_family_matches_powerset_oracle_small_graphs():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 9)
        names = tuple(f"v{i}" for i in range(n))
        edges = tuple(
            (names[i], names[j], rng.choice((1, -1)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        g = SignedGraph(names, edges)
        for prop in SetProperty:
            fam = enumerate_sets(g, prop, maximal_only=True)
            assert {frozenset(s) for s in fam.sets} == powerset_maximal(g, prop)


def test_enumeration_is_deterministic():
    g = w_hat().graph
    a = enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    b = enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    assert a.sets == b.sets


def test_forbid_and_avoid_constraints():
    g = w_hat().graph
    fam = enumerate_sets(
        g, SetProperty.BALANCED, maximal_only=True, must_contain=("u", "v"), forbid=("w",)
    )
    assert all("w" not in s for s in fam.sets)
    # the case sets that hold neither positive face are the maximal ones
    # among the balanced sets that hold both terminals and no face
    faces = (("u", "x1", "x2"), ("v", "x3", "x4"))
    cases = lemma_case_sets(w_hat(), faces)
    assert len(cases) == 10
    assert [s for s in cases if not any(set(f) <= set(s) for f in faces)] == [
        ("w", "x1", "x4", "u", "v"),
        ("w", "x2", "u", "v"),
        ("w", "x3", "u", "v"),
        ("w", "x5", "u", "v"),
        ("x1", "x3", "u", "v"),
        ("x2", "x4", "u", "v"),
        ("x2", "x5", "u", "v"),
        ("x3", "x5", "u", "v"),
    ]


def test_guard_exceeded():
    with pytest.raises(GuardExceeded, match="column generation"):
        enumerate_sets(w_prime().graph, SetProperty.BALANCED, size_guard=10)


def test_size_guard_admits_the_23_vertex_completion():
    g = w_double_prime()
    fam = enumerate_sets(
        g.graph, SetProperty.BALANCED, maximal_only=True, must_contain=("u", "v")
    )
    assert fam.sets  # runs within the default maximal guard of 24


def test_triangles_missed_examples():
    wh = w_hat()
    marked = wh.marked_triangles  # order: wx1x2, wx1x5, wx3x4, zx2x3, tx4x5
    b3 = ("u", "v", "w", "x1", "x4")
    missed = triangles_missed(b3, marked)
    assert marked.index(("x2", "x3", "z")) in missed
    b10 = ("u", "v", "x3", "x5")
    assert marked.index(("w", "x1", "x2")) in triangles_missed(b10, marked)
    assert triangles_missed(wh.graph.vertices, marked) == []


def test_missing_triangle_lemma_on_w_prime():
    ok, witness = check_missing_triangle_lemma(w_prime())
    assert ok and witness is None


def test_missing_triangle_lemma_fails_on_bare_core():
    # with only the five core triangles marked, a balanced set hits them all
    ok, witness = check_missing_triangle_lemma(w_hat())
    assert not ok
    assert witness is not None
    hits = set(witness)
    assert all(hits & set(t) for t in w_hat().marked_triangles)


def test_missing_triangle_lemma_on_k4_block():
    # every triangle of K4 contains one of the two terminals, and the only
    # maximal balanced set containing both is the terminal pair itself, so
    # no marked triangle can be missed, whichever one is marked
    g = k4_minus()
    for marked in (("u1", "u3", "u4"), ("u2", "u3", "u4")):
        gadget = GadgetGraph(g.graph, {"u": "u1", "v": "u2"}, (marked,))
        ok, witness = check_missing_triangle_lemma(gadget)
        assert not ok
        assert set(witness) == {"u1", "u2"}


def test_lemma_witness_is_the_first_failing_set_in_enumeration_order():
    k4 = k4_minus().graph
    gadgets = [w_hat()] + [
        GadgetGraph(k4, {"u": "u1", "v": "u2"}, (marked,))
        for marked in (("u1", "u3", "u4"), ("u2", "u3", "u4"))
    ]
    failing_counts = []
    for g in gadgets:
        fam = enumerate_sets(
            g.graph, SetProperty.BALANCED, maximal_only=True,
            must_contain=(g.terminal("u"), g.terminal("v")),
        )
        failing = [s for s in fam.sets if not triangles_missed(s, g.marked_triangles)]
        assert check_missing_triangle_lemma(g) == (False, failing[0])
        failing_counts.append(len(failing))
    assert failing_counts == [2, 1, 1]  # on w_hat the order picks the witness


def test_forest_lemmas_report():
    rep = check_forest_lemmas(w_hat())
    assert rep.max_order == 5
    assert rep.max_order_with_terminals == 4
    assert rep.hubs_ok
