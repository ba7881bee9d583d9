"""The integer search core behind enumeration and pricing: differential
tests against the recursive string-keyed walks it replaced, counters, and
inputs too deep for recursion."""
from dataclasses import replace
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbal import families
from fracbal.cover import column_generation
from fracbal.families import _ATOM_LIMIT, SetFamily, SetProperty, _Core, enumerate_sets
from fracbal.families import _price, lemma_case_sets
from fracbal.gadgets import GadgetGraph, g_hat_k3, w_double_prime, w_hat, w_prime
from fracbal.sgraph import (
    GraphError,
    SignedGraph,
    all_triangles,
    canonical_set,
    clique_tree,
    include_first_keys,
    is_acyclic,
    is_balanced,
    names_by_key,
    negative_cycle_witness,
)
from test_families import powerset_maximal


class _ReferenceSearch:
    """Reference oracle state: the chosen names in a union-find of their
    own, each linked to a parent name with the parity between them, and
    every inclusion re-scanning the avoid sets and the neighbour dict.  An
    added vertex becomes the root of every component it touches, so removing
    it, last in first out, just unlinks those roots again."""

    def __init__(self, g, prop, avoid=()):
        self.g = g
        self.prop = prop
        self.up = {}  # chosen name -> (parent name, parity); a root is its own parent
        self.avoid = avoid

    def root(self, v):
        parity = 0
        while self.up[v][0] != v:
            v, p = self.up[v]
            parity ^= p
        return v, parity

    def try_add(self, v):
        """The roots v joins, each with v's parity relative to it, or None
        when v cannot join."""
        for a in self.avoid:
            if v in a and a <= self.up.keys() | {v}:
                return None
        roots = {}
        for w, sign in self.g.adj[v].items():
            if w in self.up:
                r, p = self.root(w)
                p ^= sign < 0
                if r in roots and (self.prop is SetProperty.ACYCLIC or roots[r] != p):
                    return None
                roots[r] = p
        self.up[v] = (v, 0)
        for r, p in roots.items():
            self.up[r] = (v, p)
        return roots

    def remove(self, v, roots):
        for r in roots:
            self.up[r] = (r, 0)
        del self.up[v]

    def extendable_by(self, v):
        roots = self.try_add(v)
        if roots is None:
            return False
        self.remove(v, roots)
        return True


def reference_enumerate_sets(
    g: SignedGraph,
    prop: SetProperty,
    *,
    maximal_only: bool = False,
    must_contain: Sequence[str] = (),
    forbid: Sequence[str] = (),
    avoid: Sequence[Iterable[str]] = (),
) -> tuple[tuple[str, ...], ...]:
    """Reference oracle: the include-first recursive walk that certifies
    maximality by trying every extension at each leaf."""
    need = canonical_set(g, must_contain)
    banned = set(canonical_set(g, forbid))
    search = _ReferenceSearch(g, prop, tuple(frozenset(a) for a in avoid))
    for v in need:
        if search.try_add(v) is None:
            return ()
    candidates = [v for v in g.vertices if v not in search.up and v not in banned]
    out = []

    def emit():
        if maximal_only:
            for w in candidates:
                if w not in search.up and search.extendable_by(w):
                    return
        if search.up:
            out.append(tuple(sorted(search.up, key=g.index.__getitem__)))

    def walk(i):
        if i == len(candidates):
            emit()
            return
        v = candidates[i]
        roots = search.try_add(v)
        if roots is not None:
            walk(i + 1)
            search.remove(v, roots)
        walk(i + 1)

    walk(0)
    return tuple(out)


def walk_enumerate(g, prop, maximal, need=(), ban=()):
    """``enumerate_sets`` by the search core's walk over the whole graph,
    the path it takes on a host with an atom above ``_ATOM_LIMIT``: the
    sets, nodes and leaves."""
    core = _Core(g._neighbours, prop)
    for v in canonical_set(g, need):
        roots = core.scan(g.index[v])
        if roots is None:
            return (), 0, 0
        core.attach(g.index[v], roots)
    cand = [i for i, v in enumerate(g.vertices) if v not in set(need) | set(ban)]
    masks, nodes, leaves = core.walk_sets(cand, maximal)
    return tuple(named(g, masks)), nodes, leaves


def named(g, masks):
    """The names of each mask, in the order given: the walk's own order is
    under test, so the masks are not sorted first."""
    return [names_by_key(g, include_first_keys(g, [m]))[0] for m in masks]


def reference_price(g, prop, y):
    """Reference oracle: recursive branch and bound on Fraction weights,
    keeping the first maximizer in include-first order."""
    cand = [v for v in g.vertices if y.get(v, Fraction(0)) > 0]
    search = _ReferenceSearch(g, prop)
    best_w = Fraction(0)
    best_s = ()
    suffix = [Fraction(0)] * (len(cand) + 1)
    for i in range(len(cand) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + y[cand[i]]

    def walk(i, weight):
        nonlocal best_w, best_s
        if weight + suffix[i] <= best_w:
            return
        if i == len(cand):
            if weight > best_w:
                best_w = weight
                best_s = tuple(sorted(search.up, key=g.index.__getitem__))
            return
        v = cand[i]
        roots = search.try_add(v)
        if roots is not None:
            walk(i + 1, weight + y[v])
            search.remove(v, roots)
        walk(i + 1, weight)

    walk(0, Fraction(0))
    return best_w, best_s


@st.composite
def signed_graphs(draw, max_n=9):
    """Random signed graphs whose declaration order is not name order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    density = draw(st.sampled_from((0.25, 0.5, 0.8)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(min_value=0, max_value=1)) < density:
                edges.append((names[i], names[j], draw(st.sampled_from((1, -1)))))
    return SignedGraph(tuple(names), tuple(edges))


@st.composite
def apex_tailed_graphs(draw):
    """A random signed core followed by apexes, each on a random triangle,
    edge or single vertex of the graph so far (now and then on an earlier
    apex), so that the last vertices are mostly simplicial."""
    core = draw(signed_graphs(max_n=7))
    names = list(core.vertices)
    edges = list(core.edges)
    adj = {v: set() for v in names}
    for a, b, _ in edges:
        adj[a].add(b)
        adj[b].add(a)
    for k in range(draw(st.integers(min_value=0, max_value=5))):
        hosts = names if draw(st.integers(0, 4)) == 0 else list(core.vertices)
        clique = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            room = [v for v in hosts if v not in clique and all(v in adj[c] for c in clique)]
            if not room:
                break
            clique.append(draw(st.sampled_from(room)))
        apex = f"c{k}"
        adj[apex] = set(clique)
        for c in clique:
            adj[c].add(apex)
            edges.append((c, apex, draw(st.sampled_from((1, -1)))))
        names.append(apex)
    return SignedGraph(tuple(names), tuple(edges))


@st.composite
def clique_sums(draw, pieces=st.integers(min_value=1, max_value=3)):
    """A random signed graph with pieces glued on one after another, each
    along a random clique of the graph so far (none, a vertex, an edge or a
    triangle, with its signs), in a shuffled declaration order.  Also the
    vertices before the last piece and those of the last piece, which
    share just that clique."""
    g = draw(signed_graphs(max_n=6))
    names, edges = list(g.vertices), list(g.edges)
    adj = {v: set() for v in names}
    for a, b, _ in edges:
        adj[a].add(b)
        adj[b].add(a)
    for k in range(draw(pieces)):
        clique: list[str] = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            room = [v for v in names if v not in clique and all(v in adj[c] for c in clique)]
            if not room:
                break
            clique.append(draw(st.sampled_from(room)))
        fresh = [f"p{k}_{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
        side = fresh + clique
        before = set(names)
        for v in fresh:
            adj[v] = set()
        for i, a in enumerate(fresh):
            for b in side[i + 1:]:
                if draw(st.booleans()):
                    edges.append((a, b, draw(st.sampled_from((1, -1)))))
                    adj[a].add(b)
                    adj[b].add(a)
        names += fresh
    order = draw(st.permutations(names))
    return SignedGraph(tuple(order), tuple(edges)), before, set(side)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(clique_sums(pieces=st.just(1)), st.data())
def test_a_set_is_good_iff_its_part_on_each_side_of_a_clique_is(glued, data):
    g, left, right = glued
    s = data.draw(st.sets(st.sampled_from(g.vertices)))
    for holds in (is_balanced, is_acyclic):
        assert holds(g, s) == (holds(g, s & left) and holds(g, s & right))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(clique_sums(), st.sampled_from(SetProperty), st.data())
def test_pricing_on_clique_sums_matches_reference_walk(glued, prop, data):
    g = glued[0]
    y = {v: data.draw(duals) for v in g.vertices}
    weight, best, _ = _price(g, prop, y)
    assert (weight, best) == reference_price(g, prop, y)


def square_of_a_cycle(rng, n=14):
    """The square of an n-cycle with signs drawn from ``rng``: 4-connected,
    so no clique of at most 3 vertices separates it, and it is one atom of
    n vertices."""
    names = tuple(f"q{i}" for i in range(n))
    edges = tuple(
        (names[i], names[(i + d) % n], rng.choice((1, -1))) for i in range(n) for d in (1, 2)
    )
    g = SignedGraph(names, edges)
    assert [a.mask.bit_count() for a in clique_tree(g)] == [n] > [_ATOM_LIMIT]
    return g


@pytest.mark.parametrize("prop", SetProperty)
def test_pricing_a_host_with_an_atom_above_the_limit_walks(prop):
    rng = Random(11)
    g = square_of_a_cycle(rng)
    assert families._atom_rows(g, prop) is None
    for _ in range(20):
        y = {v: Fraction(rng.randint(0, 4), rng.randint(1, 3)) for v in g.vertices}
        weight, best, _ = _price(g, prop, y)
        assert (weight, best) == reference_price(g, prop, y)


@pytest.mark.parametrize("prop", SetProperty)
@pytest.mark.parametrize("maximal", (False, True))
def test_enumerating_a_host_with_an_atom_above_the_limit_walks(prop, maximal):
    g = square_of_a_cycle(Random(11))
    fam = enumerate_sets(g, prop, maximal_only=maximal, forbid=("q5",))
    assert fam.sets == reference_enumerate_sets(g, prop, maximal_only=maximal, forbid=("q5",))
    # the walk's leaves, the empty set among them when all sets are wanted
    assert fam.leaves == len(fam.sets) + (not maximal)


def test_pricing_g_hat_k3_with_every_dual_one():
    # a single call of the walk over all 66 vertices did not finish in 120 s
    g = g_hat_k3().graph
    weight, best, rows = _price(g, SetProperty.BALANCED, dict.fromkeys(g.vertices, Fraction(1)))
    assert weight == len(best) == 37
    assert negative_cycle_witness(g, best) is None
    # the rows are the balanced subsets of its 31 atoms, the empty ones included
    assert rows == 1624


@st.composite
def constrained_searches(draw, graphs=signed_graphs()):
    """A graph, a property and must_contain / forbid constraints."""
    g = draw(graphs)
    verts = list(g.vertices)
    prop = draw(st.sampled_from(SetProperty))
    role = [draw(st.sampled_from(("free",) * 6 + ("need", "ban"))) for _ in verts]
    need = [v for v, r in zip(verts, role) if r == "need"]
    ban = [v for v, r in zip(verts, role) if r == "ban"]
    return g, prop, need, ban


def assert_enumeration_matches_reference_walk(case, maximal):
    g, prop, need, ban = case
    want = reference_enumerate_sets(g, prop, maximal_only=maximal, must_contain=need, forbid=ban)
    fam = enumerate_sets(g, prop, maximal_only=maximal, must_contain=need, forbid=ban)
    # the same sets in the same order, not merely the same family
    assert fam.sets == want
    walked, _, leaves = walk_enumerate(g, prop, maximal, need, ban)
    assert walked == want
    if maximal:
        # every leaf the walk reaches is emitted, except the empty set when
        # every candidate is blocked from the start
        assert leaves == len(want) or (want, leaves) == ((), 1)
    # the join emits each set once; the walk's count is checked above
    assert fam.leaves == len(want) or fam.leaves == leaves


@settings(derandomize=True, deadline=None, max_examples=400)
@given(constrained_searches(), st.booleans())
def test_enumeration_matches_reference_walk(case, maximal):
    assert_enumeration_matches_reference_walk(case, maximal)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(constrained_searches(clique_sums().map(lambda glued: glued[0])), st.booleans())
def test_enumeration_on_clique_sums_matches_reference_walk(case, maximal):
    # the join matches child rows to parent rows across separators of up
    # to three vertices
    assert_enumeration_matches_reference_walk(case, maximal)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(constrained_searches(apex_tailed_graphs()))
def test_maximal_enumeration_on_apex_tails_matches_reference_walk(case):
    # each apex on a clique is an atom of its own, which the join settles
    # with the clique; the reference walk branches on every vertex and
    # tries every extension at each leaf
    assert_enumeration_matches_reference_walk(case, True)


@pytest.mark.parametrize(
    "g",
    [
        SignedGraph((), ()),
        SignedGraph(("c", "a", "b"), ()),
        SignedGraph(
            ("a", "d", "b", "e", "c"),
            (("a", "b", -1), ("b", "c", -1), ("a", "c", -1), ("d", "e", 1)),
        ),
    ],
    ids=["empty", "edgeless", "disconnected"],
)
@pytest.mark.parametrize("maximal", (False, True))
def test_enumeration_without_separating_cliques(g, maximal):
    # the empty graph has no atoms; the others hang their components on
    # one another along empty separators
    tree = clique_tree(g)
    assert bool(tree) == bool(g.vertices)
    assert all(a.separator == 0 for a in tree)
    for prop in SetProperty:
        fam = enumerate_sets(g, prop, maximal_only=maximal)
        assert fam.sets == reference_enumerate_sets(g, prop, maximal_only=maximal)
        assert fam.leaves == len(fam.sets)


duals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=2, max_denominator=12),
    st.integers(min_value=1, max_value=3).map(Fraction),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(signed_graphs(), st.sampled_from(SetProperty), st.data())
def test_pricing_matches_reference_walk(g, prop, data):
    # some vertices carry no dual at all; the rest are zero or positive
    y = {}
    for v in g.vertices:
        d = data.draw(st.one_of(st.none(), duals))
        if d is not None:
            y[v] = d
    weight, best, _ = _price(g, prop, y)
    assert (weight, best) == reference_price(g, prop, y)
    assert type(weight) is Fraction


def test_maximal_enumeration_counters_on_w_double_prime():
    g = w_double_prime().graph
    walk = _Core(g._neighbours, SetProperty.BALANCED).walk_sets
    everything = list(range(len(g.vertices)))
    fam = enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    # the join evaluates 511 rows of the ten atoms and emits each set once
    assert (fam.nodes, fam.leaves, len(fam.sets)) == (511, 3501, 3501)
    # every leaf the pruned walk reaches is a maximal set.  The recursive
    # walk with a per-leaf extension scan visited 1,476,086 nodes, the walk
    # that re-tested a pending vertex beside one chosen component on its
    # component's neighbours 248,722, and the walk that settled the apexes
    # c1..c7 in one step 27,015
    masks, nodes, leaves = walk(everything, True)
    assert named(g, masks) == list(fam.sets)
    assert (nodes, leaves) == (89_197, 3501)
    forests = enumerate_sets(g, SetProperty.ACYCLIC, maximal_only=True)
    assert (forests.nodes, forests.leaves, len(forests.sets)) == (438, 2370, 2370)
    # 168,108 with the re-tests on a lone component's neighbours, 20,842
    # with the apexes settled in one step
    walk = _Core(g._neighbours, SetProperty.ACYCLIC).walk_sets
    assert walk(everything, True)[1:] == (64_936, 2370)


def test_pending_vertex_beside_one_component_waits_for_its_own_neighbours():
    # p's only neighbour is a.  With a chosen and p excluded, p touches one
    # chosen component; b borders it but not p, so no later inclusion can
    # block p, and the branch is cut at once.
    g = SignedGraph(
        ("a", "p", "b", "c", "d"),
        (("a", "p", 1), ("a", "b", 1), ("b", "c", -1), ("c", "d", 1), ("b", "d", 1)),
    )
    for prop in SetProperty:
        masks, nodes, leaves = _Core(g._neighbours, prop).walk_sets(list(range(5)), True)
        assert set(map(frozenset, named(g, masks))) == powerset_maximal(g, prop)
        assert leaves == len(masks) == 3
        # a walk that waited on b as well visited 21 nodes
        assert nodes == 17
        fam = enumerate_sets(g, prop, maximal_only=True)
        assert fam.sets == tuple(named(g, masks))
        assert (fam.nodes, fam.leaves) == (9, 3)


@pytest.mark.parametrize("prop", SetProperty)
def test_maximal_enumeration_on_a_clique_sum_in_any_order(prop):
    # w_prime glues two mini gadgets onto w_hat along triangles, so chosen
    # components meet pending vertices across clique separators
    g = w_prime().graph
    want = powerset_maximal(g, prop)
    for seed in (None, 1, 2, 3):
        names = list(g.vertices)
        if seed is not None:
            Random(seed).shuffle(names)
        h = SignedGraph(tuple(names), g.edges)
        fam = enumerate_sets(h, prop, maximal_only=True)
        assert {frozenset(s) for s in fam.sets} == want
        assert fam.sets == reference_enumerate_sets(h, prop, maximal_only=True)
        assert fam.leaves == len(fam.sets)


def test_lemma_case_sets_on_a_clique_sum_match_the_reference_walk():
    assert_lemma_case_sets_match_the_reference_walk(w_prime())


def test_lemma_case_sets_on_apex_triangles_match_the_reference_walk():
    # w_double_prime ends in the apexes c1..c7, each an atom with its
    # triangle, beside the positive faces that the lemma's filter drops
    assert_lemma_case_sets_match_the_reference_walk(w_double_prime())


def test_lemma_case_sets_on_a_host_with_an_atom_above_the_limit_match_the_reference_walk():
    # both of its enumerations walk the whole graph
    assert_lemma_case_sets_match_the_reference_walk(
        GadgetGraph(square_of_a_cycle(Random(11)), {"u": "q0", "v": "q1"})
    )


def test_lemma_case_sets_skip_a_face_naming_a_stranger():
    wh = w_hat()
    faces = [t for t, sign in all_triangles(wh.graph) if sign > 0]
    assert lemma_case_sets(wh, faces + [("u", "x1", "stranger")]) == lemma_case_sets(wh, faces)


def assert_lemma_case_sets_match_the_reference_walk(wp):
    g = wp.graph
    faces = [t for t, sign in all_triangles(g) if sign > 0]
    assert faces
    terminals = (wp.terminal("u"), wp.terminal("v"))
    plain = reference_enumerate_sets(
        g, SetProperty.BALANCED, maximal_only=True, must_contain=terminals
    )
    avoiding = reference_enumerate_sets(
        g, SetProperty.BALANCED, maximal_only=True, must_contain=terminals, avoid=faces
    )
    want = sorted(dict.fromkeys(plain + avoiding), key=lambda s: [g.index[x] for x in s])
    assert list(lemma_case_sets(wp, faces)) == want


def test_counters_stay_out_of_equality():
    g = w_double_prime().graph
    fam = enumerate_sets(g, SetProperty.BALANCED, must_contain=("u", "v"), maximal_only=True)
    plain = SetFamily(g, SetProperty.BALANCED, fam.sets, True)
    assert (plain.nodes, plain.leaves) == (0, 0)
    assert fam.nodes > 0 and fam == plain


def test_column_generation_counts_pricing_nodes():
    cg = column_generation(w_hat().graph, SetProperty.BALANCED)
    assert cg.completed and cg.price_nodes > 0
    assert cg == replace(cg, price_nodes=0)


def test_caller_built_families_are_still_validated():
    g = SignedGraph(("a", "b", "c"), (("a", "b", -1), ("b", "c", -1), ("a", "c", -1)))
    with pytest.raises(GraphError, match="violates balanced"):
        SetFamily(g, SetProperty.BALANCED, (("a", "b", "c"),))
    cycle = SignedGraph(("a", "b", "c"), (("a", "b", 1), ("b", "c", 1), ("a", "c", 1)))
    with pytest.raises(GraphError, match="violates acyclic"):
        SetFamily(cycle, SetProperty.ACYCLIC, (("a", "b", "c"),))


def test_a_family_names_its_first_bad_set_after_reading_every_set():
    # every set is read before any is tested, so a stranger or a duplicate
    # in a later set is reported before an earlier set that fails
    g = SignedGraph(
        ("a", "b", "c", "d"),
        (("a", "b", -1), ("b", "c", -1), ("a", "c", -1), ("c", "d", 1)),
    )
    bad = (("c", "d"), ("c", "b", "a"), ("a", "b", "c", "d"))
    with pytest.raises(GraphError, match=r"set \('c', 'b', 'a'\) violates balanced"):
        SetFamily(g, SetProperty.BALANCED, bad)
    with pytest.raises(GraphError, match="vertex 'zz' not in graph"):
        SetFamily(g, SetProperty.BALANCED, (*bad, ("a", "zz")))
    with pytest.raises(GraphError, match="duplicate member 'd'"):
        SetFamily(g, SetProperty.ACYCLIC, (*bad, ("d", "a", "d")))
    assert SetFamily(g, SetProperty.BALANCED, bad[:1] + (("a", "b", "d"),)).sets == (
        ("c", "d"), ("a", "b", "d"))


def test_pricing_a_long_path_needs_no_recursion():
    n = 1200
    names = tuple(f"p{i}" for i in range(n))
    g = SignedGraph(names, tuple((names[i], names[i + 1], -1) for i in range(n - 1)))
    y = {v: Fraction(1, 3) for v in names}
    weight, best, _ = _price(g, SetProperty.BALANCED, y)
    # a path is a tree, so the whole vertex set is the unique maximizer
    assert weight == Fraction(n, 3) and best == names
