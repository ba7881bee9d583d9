"""Core signed-graph operations: parsing, balance, witnesses, switching."""
import json
from itertools import combinations

import pytest

from fracbal.sgraph import (
    GraphError,
    SignedGraph,
    all_triangles,
    any_cycle,
    is_balanced,
    is_k4_minus_equivalent,
    negative_cycle_witness,
    parse_graph,
    serialize_graph,
    switch,
    triangle_sign,
)
from fracbal.gadgets import GadgetGraph, complete_negative_face, k4_minus, w_hat


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
