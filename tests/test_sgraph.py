"""Core signed-graph operations: parsing, balance, witnesses, switching."""
import json
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbal import sgraph
from fracbal.sgraph import (
    GraphError,
    SignedGraph,
    all_triangles,
    any_cycle,
    clique_tree,
    include_first_keys,
    is_balanced,
    is_k4_minus_equivalent,
    names_by_key,
    negative_cycle_witness,
    parse_graph,
    serialize_graph,
    sets_hold,
    switch,
    triangle_sign,
)
from fracbal.gadgets import (
    GadgetGraph,
    complete_negative_face,
    g_hat_k3,
    k4_minus,
    w1_underlying,
    w_double_prime,
    w_hat,
    w_prime,
)
from test_search import signed_graphs


def brute_force_triangle_signs(g):
    """Independent sign computation over raw vertex triples."""
    out = {}
    for a, b, c in combinations(g.vertices, 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            out[frozenset((a, b, c))] = g.sign(a, b) * g.sign(b, c) * g.sign(a, c)
    return out


def test_parse_minimal_graph():
    g = parse_graph('{"vertices": ["a", "b"], "edges": [{"a": "a", "b": "b", "sign": -1}]}')
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b", -1),)


def test_parse_k4_minus_document():
    doc = {
        "vertices": ["u1", "u2", "u3", "u4"],
        "edges": [
            {"a": a, "b": b, "sign": -1}
            for a, b in combinations(["u1", "u2", "u3", "u4"], 2)
        ],
    }
    g = parse_graph(json.dumps(doc))
    tris = all_triangles(g)
    assert len(tris) == 4
    assert all(s == -1 for _, s in tris)


def test_parse_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        parse_graph('{"vertices": ["a"], "edges": [{"a": "a", "b": "a", "sign": 1}]}')


def test_parse_rejects_duplicate_edge():
    doc = '{"vertices": ["a","b"], "edges": [{"a":"a","b":"b","sign":1},{"a":"b","b":"a","sign":-1}]}'
    with pytest.raises(GraphError, match="duplicate edge"):
        parse_graph(doc)


def test_parse_rejects_unknown_vertex():
    with pytest.raises(GraphError, match="unknown vertex"):
        parse_graph('{"vertices": ["a"], "edges": [{"a": "a", "b": "c", "sign": 1}]}')


def test_parse_rejects_bad_sign():
    with pytest.raises(GraphError, match="sign"):
        parse_graph('{"vertices": ["a","b"], "edges": [{"a": "a", "b": "b", "sign": 2}]}')


def test_parse_rejects_malformed_json():
    with pytest.raises(GraphError, match="malformed JSON"):
        parse_graph("{not json")


def test_round_trip_all_gadgets():
    for g in (w_hat().graph, k4_minus().graph):
        assert parse_graph(serialize_graph(g)) == g


def test_k4_minus_full_set_unbalanced():
    g = k4_minus().graph
    assert not is_balanced(g, g.vertices)


def test_empty_set_balanced():
    assert is_balanced(w_hat().graph, ())


def test_sets_hold_takes_one_mask_per_vertex_in_vertex_order():
    g = k4_minus().graph
    full = [1] * len(g.vertices)
    assert sets_hold(g, full, 1, acyclic=False) == [False]
    by_name = dict(zip(g.vertices, full))
    for masks in (full[:-1], [*full, 1], by_name, dict(list(by_name.items())[1:])):
        with pytest.raises(ValueError, match="list of 4 class bitmasks"):
            sets_hold(g, masks, 1, acyclic=False)


@pytest.mark.parametrize("masks,count", [([3, 3, 3, 3], 1), ([0, -1, 0, 0], 1), ([0, 0, 1, 0], 0)])
def test_sets_hold_rejects_masks_out_of_range(masks, count):
    with pytest.raises(ValueError, match=rf"class bitmasks must lie in \[0, 2\*\*{count}\)"):
        sets_hold(k4_minus().graph, masks, count, acyclic=False)


@pytest.mark.parametrize("acyclic", [False, True])
def test_sets_hold_with_no_sets_and_isolated_vertices(acyclic):
    assert sets_hold(w_hat().graph, [0] * len(w_hat().graph.vertices), 0, acyclic) == []
    # a negative triangle a-b-c, the edge c-d and two isolated vertices
    g = SignedGraph(
        ("a", "b", "c", "d", "i", "j"),
        (("a", "b", -1), ("b", "c", -1), ("a", "c", -1), ("c", "d", 1)),
    )
    sets = [("a", "b", "c"), ("i",), ("i", "j"), ("c", "d", "i", "j"), (), ("a", "b", "d", "i")]
    masks = [sum(1 << k for k, s in enumerate(sets) if v in s) for v in g.vertices]
    assert sets_hold(g, masks, len(sets), acyclic) == [False, True, True, True, True, True]


@st.composite
def graphs_and_masks(draw, max_n=10):
    """A random signed graph, possibly empty, with isolated vertices now
    and then, and up to 90 sets as class bitmasks in vertex order."""
    g = draw(signed_graphs(max_n=max_n))
    count = draw(st.integers(0, 90))
    masks = [draw(st.integers(0, (1 << count) - 1)) for _ in g.vertices]
    return g, masks, count


def per_set(g, masks, count, acyclic):
    """Each set's answer from the BFS witness search, one set at a time."""
    search = any_cycle if acyclic else negative_cycle_witness
    return [
        search(g, [v for v, m in zip(g.vertices, masks) if m >> j & 1]) is None
        for j in range(count)
    ]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs_and_masks(max_n=12))
def test_sets_hold_matches_per_set_search_at_every_width(case):
    # widths 0 to 3 stop the sweep early, before or after it has left fill
    # links, so the union-find runs on edges and fill links of either parity
    g, masks, count = case
    for acyclic in (False, True):
        want = per_set(g, masks, count, acyclic)
        for width in (0, 1, 2, 3, sgraph._WIDTH):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sgraph, "_WIDTH", width)
                assert sets_hold(g, masks, count, acyclic) == want


def holds(g, sets, acyclic):
    """``sets_hold`` on sets of names."""
    masks = [sum(1 << j for j, s in enumerate(sets) if v in s) for v in g.vertices]
    return sets_hold(g, masks, len(sets), acyclic)


@pytest.mark.parametrize("sign,balanced", [(-1, False), (1, True)])
def test_a_fill_link_on_an_edge_closes_a_triangle(sign, balanced):
    # c merges into b and leaves the fill link (b, a), which meets the edge
    # a-b when b is eliminated: a clash of parities iff the triangle is
    # negative, and a cycle either way
    g = SignedGraph(("a", "b", "c"), (("a", "b", sign), ("b", "c", 1), ("a", "c", 1)))
    sets = [("a", "b", "c"), ("a", "c"), ("b", "c"), ("a", "b")]
    assert holds(g, sets, acyclic=False) == [balanced, True, True, True]
    assert holds(g, sets, acyclic=True) == [False, True, True, True]


@pytest.mark.parametrize("sign,balanced", [(-1, False), (1, True)])
def test_two_fill_links_on_one_pair_close_a_four_cycle(sign, balanced):
    # d and then c merge into b, each leaving a fill link (b, a); no edge
    # joins a and b
    g = SignedGraph(
        ("a", "b", "c", "d"),
        (("a", "c", 1), ("b", "c", 1), ("a", "d", sign), ("b", "d", 1)),
    )
    sets = [("a", "b", "c", "d"), ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")]
    assert holds(g, sets, acyclic=False) == [balanced, True, True, True]
    assert holds(g, sets, acyclic=True) == [False, True, True, True]


def test_a_vertex_over_the_width_at_the_top_leaves_every_set_to_the_union_find():
    # a hub declared after a path of _WIDTH + 1 rim vertices, each joined to
    # it: the sweep stops at once, and only the spoke to r0 is negative
    rim = tuple(f"r{i}" for i in range(sgraph._WIDTH + 1))
    edges = [(a, b, 1) for a, b in zip(rim, rim[1:])]
    edges += [(r, "hub", -1 if r == "r0" else 1) for r in rim]
    g = SignedGraph((*rim, "hub"), tuple(edges))
    sets = [g.vertices, ("hub", *rim[1:]), rim, ("hub", *rim[::2])]
    assert holds(g, sets, acyclic=False) == [False, True, True, True]
    assert holds(g, sets, acyclic=True) == [False, False, True, True]


def test_a_vertex_over_the_width_after_fill_links_leaves_them_to_the_union_find(monkeypatch):
    # v4 merges into v3 and leaves the odd fill link (v3, v0); with it v3
    # has three links, over a width of 2, so the union-find closes the
    # negative cycle v0-v4-v3-v1 through that fill link
    g = SignedGraph(
        ("v0", "v1", "v2", "v3", "v4"),
        (("v3", "v4", -1), ("v0", "v4", 1), ("v1", "v3", 1), ("v2", "v3", 1),
         ("v0", "v1", 1), ("v0", "v2", 1)),
    )
    sets = [("v0", "v1", "v3", "v4"), ("v0", "v1", "v2", "v3"), ("v1", "v3", "v4"),
            ("v0", "v3", "v4"), g.vertices]
    answers = [holds(g, sets, acyclic) for acyclic in (False, True)]
    assert answers == [[False, True, True, True, False], [False, False, True, True, False]]
    monkeypatch.setattr(sgraph, "_WIDTH", 2)
    assert [holds(g, sets, acyclic) for acyclic in (False, True)] == answers


@pytest.mark.parametrize("acyclic", [False, True])
def test_the_hand_off_counts_fill_links_and_keeps_failed_sets(monkeypatch, acyclic):
    # The negative triangle r-s-t fails the third set when s is eliminated.
    # u's only neighbour in the graph is v, which merges into u and leaves
    # the fill links (u, x) and (u, y).  h has four links in the second set,
    # over a width of 3, so the sweep stops there.  Below h, u closes the
    # negative cycle u-x-y of the first set through the fill links, and the
    # third set leaves the tree a-h-b, which the hand-off alone would pass.
    g = SignedGraph(
        ("a", "b", "x", "y", "u", "h", "v", "r", "s", "t"),
        (("v", "u", 1), ("v", "x", -1), ("v", "y", 1), ("x", "y", 1),
         ("h", "a", 1), ("h", "b", 1), ("h", "x", 1), ("h", "y", 1),
         ("r", "s", 1), ("s", "t", 1), ("r", "t", -1)),
    )
    sets = [("u", "v", "x", "y"), ("h", "a", "b", "x", "y"), ("a", "b", "h", "r", "s", "t"),
            ("a", "b", "h", "x")]
    monkeypatch.setattr(sgraph, "_WIDTH", 3)
    assert holds(g, sets, acyclic) == [False, not acyclic, False, True]


def test_positive_five_cycle_balanced():
    # u-x1-w-x4-v closes through the u-v edge; its induced 5-cycle is positive
    assert is_balanced(w_hat().graph, ("u", "v", "w", "x1", "x4"))


@pytest.mark.parametrize(
    "members,cycle",
    [
        (("u", "x2", "w", "x4", "v"), {"u", "x2", "w", "x4", "v"}),
        (("u", "x5", "w", "x3", "v"), {"u", "x5", "w", "x3", "v"}),
    ],
)
def test_negative_five_cycle_witnesses(members, cycle):
    g = w_hat().graph
    wit = negative_cycle_witness(g, members)
    assert wit is not None and wit.sign == -1
    assert set(wit.vertices) == cycle
    sign = 1
    for i, v in enumerate(wit.vertices):
        w = wit.vertices[(i + 1) % len(wit.vertices)]
        assert g.has_edge(v, w)
        sign *= g.sign(v, w)
    assert sign == -1


def test_tree_inducing_set_has_no_witness():
    assert negative_cycle_witness(w_hat().graph, ("u", "v", "w", "x2")) is None


def test_any_cycle_on_forest_and_cycle():
    g = w_hat().graph
    assert any_cycle(g, ("u", "v", "w", "x2")) is None
    wit = any_cycle(g, ("x1", "x2", "x3", "x4", "x5"))
    assert wit is not None and set(wit.vertices) == {"x1", "x2", "x3", "x4", "x5"}


def test_switch_identity_cases():
    g = w_hat().graph
    assert switch(g, ()) == g
    assert switch(g, g.vertices) == g
    assert switch(switch(g, ("u", "w")), ("u", "w")) == g


def test_switch_one_vertex_of_k4_minus():
    g = k4_minus().graph
    s = switch(g, ("u1",))
    pos = [e for e in s.edges if e[2] == 1]
    neg = [e for e in s.edges if e[2] == -1]
    assert len(pos) == 3 and len(neg) == 3
    # triangle signs recomputed from scratch stay negative
    assert all(v == -1 for v in brute_force_triangle_signs(s).values())


def test_all_triangles_w_hat_face_signs():
    d = {frozenset(t): s for t, s in all_triangles(w_hat().graph)}
    assert d[frozenset(("u", "x1", "x2"))] == 1
    assert d[frozenset(("v", "x3", "x4"))] == 1
    assert d[frozenset(("w", "x1", "x2"))] == -1
    assert d[frozenset(("u", "v", "z"))] == -1
    assert d[frozenset(("u", "v", "t"))] == -1


def test_all_triangles_matches_brute_force_on_w_hat():
    g = w_hat().graph
    got = {frozenset(t): s for t, s in all_triangles(g)}
    assert got == brute_force_triangle_signs(g)


def test_all_triangles_returns_a_fresh_list():
    g = w_hat().graph
    want = all_triangles(g)
    # a graph derived from g inherits its memoised list
    derived = complete_negative_face(GadgetGraph(g, {}, ()), ("w", "x1", "x2")).graph
    derived_want = all_triangles(derived)
    for graph, expected in ((g, want), (derived, derived_want)):
        got = all_triangles(graph)
        assert got is not all_triangles(graph)
        got.reverse()
        got.append((("u", "v", "w"), 1))
        del got[0]
        assert all_triangles(graph) == expected


def test_triangle_free_graph_has_no_triangles():
    g = SignedGraph(("a", "b", "c", "d"), (("a", "b", 1), ("b", "c", 1), ("c", "d", 1)))
    assert all_triangles(g) == []


def test_k4_equivalence():
    g = k4_minus().graph
    assert is_k4_minus_equivalent(g)
    assert is_k4_minus_equivalent(switch(g, ("u2",)))
    allpos = SignedGraph(g.vertices, tuple((a, b, 1) for a, b, _ in g.edges))
    assert not is_k4_minus_equivalent(allpos)
    assert not is_k4_minus_equivalent(w_hat().graph)


def test_negative_four_cycles_from_the_core_graph():
    g = w_hat().graph
    for cyc in (("u", "x2", "x3", "v"), ("u", "x5", "x4", "v")):
        sign = 1
        for i, v in enumerate(cyc):
            sign *= g.sign(v, cyc[(i + 1) % 4])
        assert sign == -1


def test_triangle_sign_requires_triangle():
    with pytest.raises(GraphError):
        triangle_sign(w_hat().graph, ("u", "v", "w"))  # u-w is not an edge


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _connected(vertices, near):
    """Whether ``vertices`` induce a connected subgraph (True when empty)."""
    left = set(vertices)
    stack = [left.pop()] if left else []
    while stack:
        v = stack.pop()
        for w in _members(near[v]):
            if w in left:
                left.remove(w)
                stack.append(w)
    return not left


def assert_clique_tree(g):
    """Check ``clique_tree(g)`` by brute force: a tree decomposition whose
    separators are cliques and whose atoms are connected, pairwise
    incomparable and cut by no clique of their own; those are exactly the
    atoms of the decomposition by clique minimal separators."""
    idx = g.index
    near = [0] * len(g.vertices)
    for a, b, _ in g.edges:
        near[idx[a]] |= 1 << idx[b]
        near[idx[b]] |= 1 << idx[a]

    def clique(mask):
        return all(mask & ~near[v] == 1 << v for v in _members(mask))

    atoms = clique_tree(g)
    assert [a.parent for a in atoms[-1:]] == ([-1] if g.vertices else [])
    for k, a in enumerate(atoms[:-1]):
        assert a.parent > k and a.mask & atoms[a.parent].mask == a.separator
        assert clique(a.separator)
    for a, b, _ in g.edges:
        edge = 1 << idx[a] | 1 << idx[b]
        assert any(atom.mask & edge == edge for atom in atoms)
    for v in range(len(g.vertices)):
        holding = [k for k, atom in enumerate(atoms) if atom.mask >> v & 1]
        # the atoms holding v form a subtree: one fewer tree edge than atoms
        assert sum(atoms[k].parent in holding for k in holding) == len(holding) - 1
    for a in atoms:
        assert all(b is a or a.mask & b.mask != a.mask for b in atoms)
        inside = _members(a.mask)
        assert _connected(inside, near)
        for size in range(len(inside)):
            for cut in combinations(inside, size):
                mask = sum(1 << v for v in cut)
                if clique(mask):
                    assert _connected([v for v in inside if not mask >> v & 1], near)
    return atoms


@settings(derandomize=True, deadline=None, max_examples=300)
@given(signed_graphs(max_n=11))
def test_clique_tree_matches_brute_force(g):
    assert_clique_tree(g)


def test_clique_tree_of_the_paper_hosts():
    def sizes(g):
        return sorted((a.mask.bit_count() for a in assert_clique_tree(g)), reverse=True)

    assert sizes(w_hat().graph) == [10]
    assert sizes(w_prime().graph) == [10, 6, 6]
    assert sizes(w_double_prime().graph) == [10, 6, 6] + [4] * 7
    w1 = w1_underlying().graph
    assert sizes(w1) == [10] * 4
    assert [a.separator.bit_count() for a in clique_tree(w1)] == [2, 2, 2, 0]
    big = sizes(g_hat_k3().graph)
    assert len(big) == 31 and big[0] == 10


def test_clique_tree_of_a_long_path_needs_no_recursion():
    n = 1200
    names = tuple(f"p{i}" for i in range(n))
    g = SignedGraph(names, tuple((names[i], names[i + 1], -1) for i in range(n - 1)))
    atoms = clique_tree(g)
    assert len(atoms) == n - 1
    assert all(a.mask.bit_count() == 2 for a in atoms)
    assert all(a.separator.bit_count() == 1 for a in atoms[:-1])


def test_clique_tree_is_built_lazily_once_per_graph():
    g = w_prime().graph
    assert "_clique_tree" not in vars(g)
    assert clique_tree(g) is clique_tree(g)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(signed_graphs(max_n=11))
def test_index_form_matches_the_named_adjacency(g):
    idx = g.index
    assert g._index_edges == tuple((idx[a], idx[b], sign < 0) for a, b, sign in g.edges)
    pairs, near = g._neighbours
    assert len(pairs) == len(near) == len(g.vertices)
    for v, nbrs in g.adj.items():
        assert pairs[idx[v]] == tuple(sorted((idx[w], sign < 0) for w, sign in nbrs.items()))
        assert near[idx[v]] == sum(1 << idx[w] for w in nbrs)


@pytest.mark.parametrize("n", [0, 1, 8, 9, 21])
def test_names_of_matches_a_comprehension(n):
    # a single mask is named as a batch of one;
    # declared in reverse name order, so canonical order is not name order
    names = tuple(f"x{k:02}" for k in reversed(range(n)))
    g = SignedGraph(names, ())
    rng = Random(n)
    for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(100)]:
        want = tuple(v for i, v in enumerate(names) if mask >> i & 1)
        assert names_by_key(g, include_first_keys(g, [mask])) == [want]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 23, 24])
def test_batched_naming_matches_a_comprehension_in_include_first_order(n):
    # declared in reverse name order, so canonical order is not name order;
    # masks that share low bytes or differ only in the top one are in the draw
    names = tuple(f"x{k:02}" for k in reversed(range(n)))
    g = SignedGraph(names, ())
    rng = Random(n)
    masks = [0, (1 << n) - 1] + [1 << i for i in range(n)]
    masks += [rng.getrandbits(n) for _ in range(200)]
    masks += [m & 0xFFFF | rng.getrandbits(n) >> 16 << 16 for m in masks[-50:]]
    rng.shuffle(masks)

    def include_first(mask):  # vertex 0 in the set first, then vertex 1, ...
        return [mask >> i & 1 for i in range(n)]

    want = [
        tuple(v for i, v in enumerate(names) if mask >> i & 1)
        for mask in sorted(masks, key=include_first, reverse=True)
    ]
    assert names_by_key(g, include_first_keys(g, masks)) == want
    assert all(len(table) <= 256 for table in g._name_tables)


def test_index_form_is_not_built_by_the_trace_pipeline(monkeypatch):
    from fracbal.acceptance import random_trace
    from fracbal.certify import verify
    from fracbal.compose import compose_8341
    from fracbal.gadgets import build_from_trace

    def unbuilt(self):
        raise AssertionError("the trace pipeline built a mask-level view")

    for view in ("_neighbours", "_name_tables"):
        monkeypatch.setattr(SignedGraph, view, property(unbuilt))
    trace = random_trace(Random(7), 200)
    g = build_from_trace(trace).graph
    assert verify(g, compose_8341(trace)).ok
    assert "_index_edges" in vars(g)


def test_a_derived_graph_builds_its_own_index_form():
    views = {"_index_edges", "_neighbours", "_name_tables"}
    host = w_prime()
    for view in views:
        getattr(host.graph, view)  # built on the parent first
    g = complete_negative_face(host, host.marked_triangles[0]).graph
    assert not views & vars(g).keys()
    assert g._neighbours[1][-1] == sum(1 << g.index[v] for v in host.marked_triangles[0])


def test_the_search_layers_share_one_index_form(monkeypatch):
    from fracbal import cover, families
    from fracbal.families import SetProperty, enumerate_sets

    g = w_prime().graph
    atoms = clique_tree(g)
    nbrs = vars(g)["_neighbours"][0]
    cores = []
    init = families._Core.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        cores.append(self)

    monkeypatch.setattr(families._Core, "__init__", recorded)
    enumerate_sets(g, SetProperty.BALANCED, maximal_only=True)
    enumerate_sets(g, SetProperty.ACYCLIC, maximal_only=True)
    cover._price(g, SetProperty.BALANCED, dict.fromkeys(g.vertices, Fraction(1)))
    # one core per atom and property enumerates the rows, over the atom's
    # induced subgraph read off the graph's one index form, separator first;
    # enumeration joins those rows and pricing reads them again
    assert len(cores) == 2 * len(atoms) == 6
    for core, a in zip(cores, atoms * 2):
        members = [i for i in range(len(g.vertices)) if a.separator >> i & 1]
        members += [i for i in range(len(g.vertices)) if (a.mask & ~a.separator) >> i & 1]
        assert len(core.nbrs) == len(members)
        for k, pairs in enumerate(core.nbrs):
            whole = [(j, negative) for j, negative in nbrs[members[k]] if a.mask >> j & 1]
            assert sorted((members[j], negative) for j, negative in pairs) == whole
            assert core.near[k] == sum(1 << j for j, _ in pairs)
    assert vars(g)["_neighbours"][0] is nbrs
    plans = [plan for key, plan in g._memo.items() if key[0] is families._atom_rows]
    assert len(plans) == 2
    assert all(isinstance(rows, families._AtomRows) for plan in plans for rows in plan)
