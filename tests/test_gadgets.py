"""Constructors, graph surgery, and build traces."""
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import triple_scan

from fracbal.acceptance import random_trace
from fracbal.gadgets import (
    BuildTrace,
    GadgetGraph,
    Op1,
    Op2,
    TraceError,
    _MINI,
    _Builder,
    _w_prime_template,
    apply_trace_step,
    build_from_trace,
    complete_negative_face,
    complete_positive_face,
    g_hat_k3,
    g_sequence,
    glue_triangle,
    k3_minus,
    k4_minus,
    substitute_edge,
    u_hat,
    w1_underlying,
    w_double_prime,
    w_hat,
    w_prime,
)
from fracbal.sgraph import (
    GraphError,
    SignedGraph,
    all_triangles,
    is_balanced,
    is_k4_minus_equivalent,
    serialize_graph,
    triangle_sign,
)


def block_subgraph(g, verts):
    """Induced signed subgraph on a vertex subset, for block audits."""
    from fracbal.sgraph import SignedGraph

    keep = [v for v in g.vertices if v in set(verts)]
    edges = tuple(e for e in g.edges if e[0] in set(verts) and e[1] in set(verts))
    return SignedGraph(tuple(keep), edges)


def test_k3_minus_shape():
    g = k3_minus()
    assert len(g.graph.vertices) == 3
    assert all(s == -1 for *_, s in g.graph.edges)
    assert not is_balanced(g.graph, g.graph.vertices)
    assert g.marked_triangles == (("u1", "u2", "u3"),)


def test_k4_minus_shape():
    g = k4_minus()
    assert len(g.graph.vertices) == 4
    assert len(g.graph.edges) == 6
    assert is_k4_minus_equivalent(g.graph)
    assert len(g.marked_triangles) == 4


def test_complete_negative_face_on_k3():
    g = complete_negative_face(k3_minus(), ("u1", "u2", "u3"), "n")
    assert is_k4_minus_equivalent(g.graph)


def test_complete_negative_face_twice_on_k4():
    g = k4_minus()
    g = complete_negative_face(g, ("u1", "u2", "u3"), "n1")
    g = complete_negative_face(g, ("u1", "u2", "u4"), "n2")
    assert len(g.graph.vertices) == 6
    for apex, face in (("n1", ("u1", "u2", "u3")), ("n2", ("u1", "u2", "u4"))):
        block = block_subgraph(g.graph, face + (apex,))
        assert is_k4_minus_equivalent(block)


def test_complete_negative_face_rejects_positive_triangle():
    with pytest.raises(GraphError, match="not negative"):
        complete_negative_face(w_hat(), ("u", "x1", "x2"))


def test_complete_positive_face_adds_negative_inner_triangle():
    g = complete_positive_face(w_hat(), ("u", "x1", "x2"), ("a2", "a3", "a1"))
    assert triangle_sign(g.graph, ("a1", "a2", "a3")) == -1
    assert g.marked_triangles[-1] == ("a2", "a3", "a1") or set(g.marked_triangles[-1]) == {"a1", "a2", "a3"}
    # each new vertex is adjacent to exactly two of the face vertices
    for m in ("a1", "a2", "a3"):
        assert sum(1 for o in ("u", "x1", "x2") if g.graph.has_edge(o, m)) == 2


def test_complete_positive_face_rejects_negative_triangle():
    with pytest.raises(GraphError, match="not positive"):
        complete_positive_face(w_hat(), ("w", "x1", "x2"))


def _k3(sign, at):
    """K3 on u1, u2, u3 with every edge ``sign``, switched at ``at``."""
    from fracbal.sgraph import switch

    t = ("u1", "u2", "u3")
    return switch(SignedGraph(t, tuple((a, b, sign) for a, b in combinations(t, 2))), at)


def test_face_completions_follow_the_sign_rules_on_every_face_pattern():
    t = ("u1", "u2", "u3")
    primes = ("p1", "p2", "p3")
    patterns = set()
    for at in ((), ("u1",), ("u2",), ("u3",)):
        neg = GadgetGraph(_k3(-1, at), {}, (t,))
        sign = neg.graph.sign
        g = complete_negative_face(neg, t, "n")
        assert tuple(g.graph.sign(v, "n") for v in t) == (-1, sign("u1", "u2"), sign("u1", "u3"))
        assert g.marked_triangles == (t,)
        assert_canonical_adjacency(g.graph)
        patterns.add(tuple(sign(a, b) for a, b in combinations(t, 2)))

        pos = GadgetGraph(_k3(1, at))
        sign = pos.graph.sign
        g = complete_positive_face(pos, t, primes)
        for i in range(3):
            s = sign(t[i], t[i - 1]) * sign(t[i], t[i - 2])
            assert g.graph.sign(t[i], primes[(i + 1) % 3]) == s
            assert g.graph.sign(t[i], primes[(i + 2) % 3]) == -s
            assert not g.graph.has_edge(t[i], primes[i])
        assert all(g.graph.sign(p, q) == -1 for p, q in combinations(primes, 2))
        assert g.marked_triangles == (primes,)
        assert_canonical_adjacency(g.graph)
        patterns.add(tuple(sign(a, b) for a, b in combinations(t, 2)))
    assert len(patterns) == 8


_FACE = ("u", "x1", "x2")  # a positive face of w_hat
_NAMES_MESSAGE = r"^prime_names must be three vertex names"


@pytest.mark.parametrize(
    "surgery, message",
    [
        (lambda b: b.add_mini(_FACE, ("a", "b")), _NAMES_MESSAGE),
        (lambda b: b.add_mini(_FACE, ("a", "b", "c", "d")), _NAMES_MESSAGE),
        (lambda b: b.add_mini(_FACE, ("a", 5, "c")), _NAMES_MESSAGE),
        (lambda b: b.add_mini(_FACE, ("q", "q", "r")), r"^duplicate vertex name$"),
        (lambda b: b.add_mini(_FACE, ("q", "w", "r")), r"^vertex name 'w' already in graph$"),
        (lambda b: b.add_apex(("w", "x1", "x2"), 5), r"^apex name must be a string, got 5$"),
        (lambda b: b.add_apex(("w", "x1", "x2"), "u"), r"^apex name 'u' already in graph$"),
    ],
    ids=["two-primes", "four-primes", "non-string-prime", "duplicate-prime", "taken-prime",
         "non-string-apex", "taken-apex"],
)
def test_surgery_names_are_checked_before_the_builder_changes(surgery, message):
    g = w_hat()
    b = _Builder(g)
    with pytest.raises(GraphError, match=message):
        surgery(b)
    assert b.vertices == list(g.graph.vertices) and not b.added
    assert b.marked == list(g.marked_triangles)
    assert all(b.adj[v] is g.graph.adj[v] for v in g.graph.vertices)


def test_w_hat_face_audit():
    g = w_hat()
    assert len(g.graph.vertices) == 10
    assert len(g.graph.edges) == 24
    assert triangle_sign(g.graph, ("u", "x1", "x2")) == 1
    assert triangle_sign(g.graph, ("v", "x3", "x4")) == 1
    assert all(triangle_sign(g.graph, t) == -1 for t in g.marked_triangles)
    assert len(g.marked_triangles) == 5
    # only u-x2 and v-x4 are positive
    positive = {(a, b) for a, b, s in g.graph.edges if s == 1}
    assert positive == {("x2", "u"), ("x4", "v")}


def test_w_prime_structure():
    g = w_prime()
    assert len(g.graph.vertices) == 16
    assert len(g.marked_triangles) == 7
    assert all(triangle_sign(g.graph, t) == -1 for t in g.marked_triangles)
    inner = [t for t in g.marked_triangles if set(t) == {"a1", "a2", "a3"}]
    assert inner, "inner mini triangle must be marked"


def test_w_double_prime_blocks():
    g = w_double_prime()
    assert len(g.graph.vertices) == 23
    assert g.terminals["u"] == "u" and g.terminals["v"] == "v"
    wp = w_prime()
    for i, t in enumerate(wp.marked_triangles, start=1):
        block = block_subgraph(g.graph, tuple(t) + (f"c{i}",))
        assert is_k4_minus_equivalent(block)


def test_substitute_edge_counts():
    base = GadgetGraph(k3_minus().graph, {}, ())
    g = base
    for i, (a, b, _) in enumerate(base.graph.edges, start=1):
        g = substitute_edge(g, (a, b), w_double_prime(), suffix=i)
    assert len(g.graph.vertices) == 3 + 3 * 21

    base4 = GadgetGraph(k4_minus().graph, {}, ())
    g4 = base4
    for i, (a, b, _) in enumerate(base4.graph.edges, start=1):
        g4 = substitute_edge(g4, (a, b), w_double_prime(), suffix=i)
    assert len(g4.graph.vertices) == 4 + 6 * 21
    # the same graph size arises from gluing apex blocks onto the 42 marked
    # triangles of the level-1 assembly
    assert len(g4.graph.vertices) == len(g_sequence(1).graph.vertices)


def test_substitute_edge_requires_edge():
    with pytest.raises(GraphError, match="not an edge"):
        substitute_edge(w_hat(), ("u", "w"), w_prime())


def test_substitute_edge_switches_copy_to_match_positive_host_edge():
    # host edge u-x2 is positive, the gadget's u-v edge is negative
    g = substitute_edge(w_hat(), ("u", "x2"), w_prime(), suffix=9)
    assert g.graph.sign("u", "x2") == 1
    # copy marked triangles remain negative: switching preserves cycle signs
    assert all(triangle_sign(g.graph, t) == -1 for t in g.marked_triangles)


def test_surgery_preserves_host_edges_and_cycle_signs():
    host = w_hat()
    for surgered in (
        substitute_edge(host, ("u", "v"), w_prime(), suffix=1),
        glue_triangle(host, ("w", "x1", "x2"), k4_minus(), ("u1", "u2", "u3"), suffix=1),
    ):
        for a, b, s in host.graph.edges:
            assert surgered.graph.sign(a, b) == s
        # consequently every cycle lying in the host keeps its sign
        assert triangle_sign(surgered.graph, ("u", "x1", "x2")) == 1
        assert triangle_sign(surgered.graph, ("x2", "x3", "z")) == -1


def test_default_fresh_names():
    g = complete_negative_face(k3_minus(), ("u1", "u2", "u3"))
    apex = [v for v in g.graph.vertices if v not in ("u1", "u2", "u3")]
    assert len(apex) == 1
    assert is_k4_minus_equivalent(g.graph)
    g2 = complete_positive_face(w_hat(), ("u", "x1", "x2"))
    assert len(g2.graph.vertices) == 13


def test_u_hat_counts():
    g = u_hat()
    assert len(g.graph.vertices) == 88
    assert len(g.marked_triangles) == 42


def test_g_hat_k3_has_66_vertices():
    assert len(g_hat_k3().graph.vertices) == 66


def test_g_sequence_level_0_and_1():
    g0 = g_sequence(0)
    assert is_k4_minus_equivalent(g0.graph)
    g1 = g_sequence(1)
    assert len(g1.graph.vertices) == 130
    # simplicity: constructor would have raised on parallel edges
    pairs = {(a, b) for a, b, _ in g1.graph.edges}
    assert len(pairs) == len(g1.graph.edges)


def test_g_sequence_guard():
    with pytest.raises(TraceError, match="depth guard"):
        g_sequence(3)


def test_glue_triangle_counts_and_signs():
    host = u_hat()
    t = host.marked_triangles[0]
    glued = glue_triangle(host, t, k4_minus(), ("u1", "u2", "u3"), suffix="x")
    assert len(glued.graph.vertices) == len(host.graph.vertices) + 1
    # the guest's glued triangle is marked in the host already, its other three are new
    n = len(host.marked_triangles)
    assert glued.marked_triangles[:n] == host.marked_triangles
    assert len(glued.marked_triangles) == n + 3 and t not in glued.marked_triangles[n:]
    face = next(f for f, s in all_triangles(host.graph) if s == -1 and f not in host.marked_triangles)
    glued = glue_triangle(host, face, k4_minus(), ("u1", "u2", "u3"), suffix="x")
    assert glued.marked_triangles[n:][0] == face and len(glued.marked_triangles) == n + 4


def test_glue_triangle_rejects_positive_triangle():
    with pytest.raises(GraphError, match="not negative"):
        glue_triangle(w_hat(), ("u", "x1", "x2"), k4_minus(), ("u1", "u2", "u3"))


def test_glue_matches_switched_guest_signs():
    # a guest whose shared triangle has a different sign pattern still glues
    from fracbal.sgraph import switch

    guest = k4_minus()
    switched = GadgetGraph(switch(guest.graph, ("u1",)), {}, ())
    host = u_hat()
    t = host.marked_triangles[3]
    glued = glue_triangle(host, t, switched, ("u1", "u2", "u3"), suffix="y")
    sub = block_subgraph(glued.graph, tuple(t) + ("u4#y",))
    assert is_k4_minus_equivalent(sub)


def test_glue_switches_the_guest_where_the_subset_search_did(monkeypatch):
    from fracbal.sgraph import switch

    def reference(host, guest, identified):
        """The first of the eight subsets of the guest triangle, in bit
        order, whose switching matches all three shared edge signs."""
        tg = tuple(identified)
        for bits in range(8):
            subset = {tg[i] for i in range(3) if bits >> i & 1}
            if all(
                (-guest.sign(a, b) if (a in subset) != (b in subset) else guest.sign(a, b))
                == host.sign(identified[a], identified[b])
                for a, b in combinations(tg, 2)
            ):
                return subset
        raise AssertionError("no switching matches")

    graft = _Builder._graft
    seen = []

    def checked(self, guest, identified, switched, name):
        assert switched == reference(self, guest.graph, identified)
        seen.append(frozenset(switched))
        return graft(self, guest, identified, switched, name)

    monkeypatch.setattr(_Builder, "_graft", checked)
    t = ("u1", "u2", "u3")
    for host_bits in range(8):
        host = GadgetGraph(switch(k4_minus().graph, [t[i] for i in range(3) if host_bits >> i & 1]))
        for guest_bits in range(8):
            guest = switch(k4_minus().graph, [t[i] for i in range(3) if guest_bits >> i & 1])
            glue_triangle(host, t, GadgetGraph(guest), t, suffix="s")
    assert len(seen) == 64 and len(set(seen)) == 4


def test_w1_underlying_shape():
    g = w1_underlying()
    assert len(g.graph.vertices) == 34
    assert g.graph.has_edge("u", "z")
    assert g.graph.has_edge("u", "x1")
    assert g.graph.has_edge("u", "t")
    assert all(s == -1 for *_, s in g.graph.edges)
    # copies keep the degree profile internally
    degs = sorted(len(g.graph.adj[v]) for v in g.graph.vertices if v.endswith("#1"))
    assert degs  # eight renamed vertices per copy
    assert len(degs) == 8


def test_build_from_trace_empty():
    g = build_from_trace(BuildTrace("K3_MINUS"))
    assert g.graph == k3_minus().graph


def assert_canonical_adjacency(g):
    """Each neighbour dict of ``g`` as a graph built from scratch on its
    vertices and edges fills it, item order included."""
    want = SignedGraph(g.vertices, g.edges).adj
    assert list(g.adj) == list(want)
    for v in g.vertices:
        assert list(g.adj[v].items()) == list(want[v].items())


def k4_with_terminals():
    k4 = k4_minus()
    return GadgetGraph(k4.graph, {"u": "u1", "v": "u2"}, k4.marked_triangles)


@pytest.mark.parametrize("gadget", [k4_with_terminals, w_hat, w_prime, w_double_prime])
@pytest.mark.parametrize("edge", [("x2", "u"), ("u", "x2"), ("x1", "x2"), ("x2", "x1")])
def test_substitution_fills_every_neighbour_dict_in_canonical_order(gadget, edge):
    # w_prime's x2-u is positive and x1-x2 negative; every gadget's u-v edge
    # is negative, so the copy is switched on the first two edges only
    host = w_prime()
    guest = gadget()
    b = _Builder(host)
    mapping = b.substitute(edge, guest, 5)
    assert list(mapping) == list(guest.graph.vertices)
    assert guest.graph.sign(guest.terminal("u"), guest.terminal("v")) == -1
    assert host.graph.sign(*edge) == (1 if "u" in edge else -1)
    g = b.freeze()
    assert_canonical_adjacency(g.graph)
    assert g == substitute_edge(host, edge, guest, 5)


def test_glue_and_the_trace_fill_every_neighbour_dict_in_canonical_order():
    from fracbal.sgraph import switch

    t = ("u1", "u2", "u3")
    host = u_hat()
    for bits in range(4):
        guest = GadgetGraph(switch(k4_minus().graph, [t[i] for i in range(3) if bits >> i & 1]))
        assert_canonical_adjacency(glue_triangle(host, host.marked_triangles[bits], guest, t).graph)
    assert_canonical_adjacency(g_sequence(1).graph)
    assert_canonical_adjacency(build_from_trace(random_trace(random.Random(7), 200)).graph)


def test_a_colliding_copy_name_is_refused_with_the_first_in_guest_order():
    names = ("p", "q", "x3#5", "x1#5")
    host = GadgetGraph(SignedGraph(names, (("p", "q", -1), ("q", "x3#5", 1), ("p", "x1#5", -1))))
    b = _Builder(host)
    with pytest.raises(GraphError, match=r"^fresh name 'x1#5' collides with host$"):
        b.substitute(("p", "q"), w_prime(), 5)
    assert b.vertices == list(names) and not b.added and not b.grafts
    assert b.adj == host.graph.adj and all(b.adj[v] is host.graph.adj[v] for v in names)


def test_graft_plans_are_built_on_first_use_and_stay_few():
    root = Path(__file__).resolve().parents[1]
    code = (
        "import fracbal.gadgets as g; assert g._w_prime_template.cache_info().currsize == 0;"
        " assert not g._MINI.graph._memo"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
    guest = w_prime()
    assert not guest.graph._memo
    substitute_edge(w_hat(), ("u", "v"), guest)
    assert len(guest.graph._memo) == 1
    # one plan per order of the identified pair in the host and switching
    build_from_trace(random_trace(random.Random(3), 400))
    memo = _w_prime_template().graph._memo
    assert 1 <= len(memo) <= 4
    assert all(len(hosts) == 2 and isinstance(switched, frozenset) for hosts, switched in memo)
    # one mini plan per switching of its face: an even subset of t0 t1 t2
    host = u_hat()
    for t, sign in all_triangles(host.graph):
        if sign == 1:
            complete_positive_face(host, t)
    memo = _MINI.graph._memo
    assert 1 <= len(memo) <= 4
    assert all(hosts == ("t0", "t1", "t2") and len(switched) % 2 == 0 for hosts, switched in memo)


def test_build_from_trace_three_substitutions():
    steps = tuple(Op2((a, b)) for a, b, _ in k3_minus().graph.edges)
    g = build_from_trace(BuildTrace("K3_MINUS", steps))
    assert len(g.graph.vertices) == 3 + 3 * 14
    assert len(g.marked_triangles) == 1 + 3 * 7


def test_build_from_trace_nested_op1():
    trace = BuildTrace(
        "K3_MINUS",
        (Op1(("u1", "u2", "u3")), Op1(("u1", "u2", "k1"))),
    )
    g = build_from_trace(trace)
    block = block_subgraph(g.graph, ("u1", "u2", "k1", "k2"))
    assert is_k4_minus_equivalent(block)


def test_build_from_trace_reports_step_index():
    trace = BuildTrace("K3_MINUS", (Op2(("u1", "nope")),))
    with pytest.raises(TraceError, match="step 1"):
        build_from_trace(trace)
    trace = BuildTrace("K3_MINUS", (Op1(("u1", "u2", "u3")), Op2(("u1", "zzz"))))
    with pytest.raises(TraceError, match="step 2"):
        build_from_trace(trace)


def test_step_by_step_replay_matches_build_from_trace():
    # one frozen gadget per step versus one builder for the whole trace
    trace = random_trace(random.Random(11), 60)
    g = k3_minus()
    for idx, step in enumerate(trace.steps, start=1):
        g, _ = apply_trace_step(g, step, idx)
    assert g == build_from_trace(trace)


def test_trace_json_round_trip():
    trace = BuildTrace(
        "K3_MINUS",
        (Op1(("u1", "u2", "u3")), Op2(("u1", "u2"))),
    )
    again = BuildTrace.from_json(trace.to_json())
    assert again == trace


@pytest.mark.parametrize(
    "build, digest",
    [(u_hat, "795d3aa7efa7eee7"), (lambda: g_sequence(1), "d4259f6ad674cc8c")],
    ids=["u_hat", "g_sequence(1)"],
)
def test_constructions_are_pinned(build, digest):
    # sha256 prefix of the serialized graph: vertex order, names and signs
    text = serialize_graph(build().graph)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_constructions_are_deterministic():
    assert serialize_graph(w_prime().graph) == serialize_graph(w_prime().graph)
    assert serialize_graph(u_hat().graph) == serialize_graph(u_hat().graph)
    assert serialize_graph(g_sequence(1).graph) == serialize_graph(g_sequence(1).graph)


def test_marked_triangle_validation():
    with pytest.raises(GraphError, match="not negative"):
        GadgetGraph(w_hat().graph, {}, (("u", "x1", "x2"),))


def _snapshot(g: GadgetGraph):
    graph = g.graph
    adj = [list(graph.adj[v].items()) for v in graph.vertices]
    return graph.vertices, graph.edges, dict(graph.index), adj, g.marked_triangles, dict(g.terminals)


def _surgery_checked(g: GadgetGraph, surgery, memo: bool) -> GadgetGraph | None:
    """Apply ``surgery`` to ``g``, check that ``g`` is untouched, also when
    the surgery raises, and that the result equals the same graph built
    from scratch.  With ``memo``, ``g``'s triangle list is computed first,
    so the result inherits it; without, neither list is computed."""
    if memo:
        assert all_triangles(g.graph) == triple_scan(g.graph)
    before = _snapshot(g)
    try:
        out = surgery(g)
    except (GraphError, TraceError):
        out = None
    assert _snapshot(g) == before
    if memo:
        assert all_triangles(g.graph) == triple_scan(g.graph)
    if out is not None:
        got = out.graph
        ref = SignedGraph(got.vertices, got.edges)
        assert got == ref and got.edges == ref.edges and got.index == ref.index
        assert [list(got.adj[v].items()) for v in got.vertices] == [
            list(ref.adj[v].items()) for v in ref.vertices
        ]
        if memo:
            assert all_triangles(got) == triple_scan(ref)
        GadgetGraph(ref, out.terminals, out.marked_triangles)  # the full validation
    return out


def _shuffled(g: GadgetGraph, order) -> GadgetGraph:
    graph = SignedGraph(tuple(order), g.graph.edges)
    marked = tuple(tuple(sorted(t, key=graph.index.__getitem__)) for t in g.marked_triangles)
    return GadgetGraph(graph, dict(g.terminals), marked)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.data())
def test_derived_freeze_matches_from_scratch(data):
    # a graph from a random trace, w_hat or w_prime, possibly in a shuffled
    # declaration order so that canonical order differs from insertion order
    trace = random_trace(random.Random(data.draw(st.integers(0, 9999))), 40)
    start = data.draw(st.sampled_from(("trace", "w_hat", "w_prime")))
    g = {"trace": k3_minus, "w_hat": w_hat, "w_prime": w_prime}[start]()
    if data.draw(st.booleans()):
        g = _shuffled(g, data.draw(st.permutations(g.graph.vertices)))
    steps = iter(enumerate(trace.steps, start=1))
    for n in range(data.draw(st.integers(1, 6))):
        # faces from a copy, so that g's own list is computed only with memo
        triangles = all_triangles(SignedGraph(g.graph.vertices, g.graph.edges))
        negative = [t for t, s in triangles if s == -1]
        positive = [t for t, s in triangles if s == 1]
        kinds = ["apex", "glue", "substitute", "fail"] + ["trace"] * (start == "trace")
        kind = data.draw(st.sampled_from(kinds + ["mini"] * bool(positive)))
        if kind == "trace":
            idx, step = next(steps)
            surgery = lambda g: apply_trace_step(g, step, idx)[0]  # noqa: E731
        elif kind == "apex":
            face = data.draw(st.sampled_from(negative))
            apex = data.draw(st.sampled_from((None, f"apex{n}")))
            surgery = lambda g: complete_negative_face(g, face, apex)  # noqa: E731
        elif kind == "mini":
            face = data.draw(st.sampled_from(positive))
            primes = data.draw(st.sampled_from((None, (f"z{n}", f"a{n}", f"m{n}"))))
            surgery = lambda g: complete_positive_face(g, face, primes)  # noqa: E731
        elif kind == "substitute":
            # a positive host edge switches the copy, whose u-v edge is negative
            edges = g.graph.edges
            if data.draw(st.booleans()):
                edges = [e for e in edges if e[2] == 1] or edges
            a, b, _ = data.draw(st.sampled_from(edges))
            guest = data.draw(st.sampled_from((w_hat, w_prime)))()
            surgery = lambda g: substitute_edge(g, (a, b), guest, f"s{n}")  # noqa: E731
        elif kind == "glue":
            face = data.draw(st.sampled_from(negative))
            guest = data.draw(st.sampled_from((k4_minus, w_double_prime)))()
            t_guest = data.draw(st.sampled_from(guest.marked_triangles))
            surgery = lambda g: glue_triangle(g, face, guest, t_guest, f"g{n}")  # noqa: E731
        else:
            # raises before it adds anything: the second prime is a duplicate
            face = data.draw(st.sampled_from(positive or negative))
            surgery = lambda g: complete_positive_face(g, face, ("q", "q", "r"))  # noqa: E731
        out = _surgery_checked(g, surgery, memo=data.draw(st.booleans()))
        if out is not None:
            g = out


@pytest.mark.parametrize(
    "edges",
    [
        [("v", "u", 1)],  # repeats an inherited edge
        [("u", "p", 1), ("p", "u", 1)],  # repeats an added one
        [("p", "p", 1)],
        [("u", "nobody", 1)],
        [("u", "p", 0)],
    ],
    ids=["inherited-duplicate", "added-duplicate", "loop", "unknown-vertex", "sign"],
)
def test_freeze_rejects_added_edges_as_full_validation_does(edges):
    g = w_hat()
    b = _Builder(g)
    b._graft(GadgetGraph(SignedGraph(("p",), ())), {}, set(), str)
    b.added += edges
    with pytest.raises(GraphError) as got:
        b.freeze()
    with pytest.raises(GraphError) as want:
        SignedGraph(g.graph.vertices + ("p",), g.graph.edges + tuple(edges))
    assert str(got.value) == str(want.value)


def test_freeze_checks_added_marked_triangles_and_terminals():
    b = _Builder(w_hat())
    b.marked.append(("x1", "x2", "u"))
    with pytest.raises(GraphError, match=r"marked triangle \('x1', 'x2', 'u'\) is not negative"):
        b.freeze()
    # a triple that is no triangle raises what ``triangle_sign`` raises
    for triple, message in [
        (("x1", "x3", "w"), "no edge ('x1', 'x3')"),
        (("w", "x1", "nobody"), "vertex 'nobody' not in graph"),
        (("w", "x1", "x1"), "duplicate member 'x1'"),
    ]:
        b = _Builder(w_hat())
        b.marked.append(triple)
        with pytest.raises(GraphError) as err:
            b.freeze()
        assert str(err.value) == message
    b = _Builder(w_hat())
    b.terminals["w"] = "nobody"
    with pytest.raises(GraphError, match="terminal w='nobody' not in graph"):
        b.freeze()
