"""Property-based invariants over random signed graphs."""
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from fracbal.sgraph import (
    SignedGraph,
    all_triangles,
    any_cycle,
    is_acyclic,
    is_balanced,
    negative_cycle_witness,
    parse_graph,
    serialize_graph,
    switch,
)


@st.composite
def signed_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            present = draw(st.booleans())
            if present:
                edges.append((names[i], names[j], draw(st.sampled_from((1, -1)))))
    return SignedGraph(names, tuple(edges))


@st.composite
def graph_and_subset(draw, max_n=8):
    g = draw(signed_graphs(max_n))
    members = tuple(v for v in g.vertices if draw(st.booleans()))
    return g, members


@given(graph_and_subset())
def test_hereditary_balance(case):
    g, members = case
    if is_balanced(g, members):
        for k in range(len(members)):
            sub = members[:k] + members[k + 1:]
            assert is_balanced(g, sub)


@given(graph_and_subset(), st.data())
def test_switching_invariance_of_balance(case, data):
    g, members = case
    cut = tuple(v for v in g.vertices if data.draw(st.booleans()))
    assert is_balanced(switch(g, cut), members) == is_balanced(g, members)


@given(graph_and_subset())
def test_witness_soundness(case):
    g, members = case
    wit = negative_cycle_witness(g, members)
    assert (wit is None) == is_balanced(g, members)
    if wit is not None:
        cyc = wit.vertices
        assert len(cyc) == len(set(cyc)) >= 3
        inside = set(members)
        sign = 1
        for i, v in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            assert v in inside
            sign *= g.sign(v, w)
        assert sign == -1


@given(signed_graphs())
def test_parse_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(signed_graphs())
@settings(max_examples=50)
def test_switching_is_involutive(g):
    cut = g.vertices[: len(g.vertices) // 2]
    assert switch(switch(g, cut), cut) == g


@given(graph_and_subset(max_n=7))
@settings(max_examples=60)
def test_balance_agrees_with_cycle_enumeration(case):
    from fracbal.acceptance import balance_oracle

    g, members = case
    assert is_balanced(g, members) == balance_oracle(g, members)


def triple_scan(g: SignedGraph) -> list:
    """Reference for ``all_triangles``: every vertex triple in canonical
    order that is a 3-clique, with its sign."""
    return [
        ((a, b, c), g.sign(a, b) * g.sign(b, c) * g.sign(a, c))
        for a, b, c in combinations(g.vertices, 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    ]


@given(signed_graphs(), st.data())
@settings(derandomize=True, max_examples=200)
def test_all_triangles_matches_triple_scan(g, data):
    # a shuffled declaration order, so canonical order differs from name order
    order = tuple(data.draw(st.permutations(g.vertices)))
    g = SignedGraph(order, g.edges)
    assert all_triangles(g) == triple_scan(g)


@given(signed_graphs(), st.data())
@settings(derandomize=True, max_examples=200)
def test_adjacency_is_in_canonical_order(g, data):
    # shuffled declaration order, edge order and endpoint order
    order = tuple(data.draw(st.permutations(g.vertices)))
    edges = [
        (b, a, sign) if data.draw(st.booleans()) else (a, b, sign)
        for a, b, sign in data.draw(st.permutations(g.edges))
    ]
    g = SignedGraph(order, tuple(edges))
    for v in order:
        signs = {b: sign for a, b, sign in edges if a == v}
        signs.update({a: sign for a, b, sign in edges if b == v})
        assert list(g.adj[v]) == sorted(signs, key=order.index)
        assert g.adj[v] == signs


def _components(members, edges) -> int:
    nbrs = {v: [] for v in members}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = set()
    count = 0
    for root in members:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


@given(graph_and_subset())
@settings(derandomize=True, max_examples=300)
def test_acyclicity_agrees_with_cycle_walk_and_edge_count(case):
    g, members = case
    inside = set(members)
    edges = [(a, b) for a, b, _ in g.edges if a in inside and b in inside]
    forest = len(edges) == len(members) - _components(members, edges)
    assert is_acyclic(g, members) == (any_cycle(g, members) is None) == forest
