"""The inductive (83,41)-coloring composer across trace shapes."""
import hashlib
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbal import gadgets
from fracbal.acceptance import random_trace
from fracbal.certify import overlap, profile, verify
from fracbal.compose import _bits, _lowest, compose_8341
from fracbal.gadgets import (
    BuildTrace,
    Op1,
    Op2,
    apply_trace_step,
    build_from_trace,
    k3_minus,
    w_prime,
)
from fracbal.sgraph import serialize_graph


def assert_good_coloring(trace):
    g = build_from_trace(trace)
    cert = compose_8341(trace)
    assert (cert.p, cert.q) == (83, 41)
    rep = verify(g.graph, cert)
    assert rep.ok, rep.violations[:3]
    assert all(cov == 41 for _, cov in rep.per_vertex_coverage)
    for a, b, _ in g.graph.edges:
        assert overlap(cert, a, b) in (13, 14), (a, b)
    return g, cert


def test_empty_trace_base_k3():
    g, cert = assert_good_coloring(BuildTrace("K3_MINUS"))
    prof = profile(cert, ("u1", "u2", "u3"))
    assert set(prof.pair_map.values()) == {14}
    assert cert.total_rep == 81


def test_empty_trace_base_k4():
    g, cert = assert_good_coloring(BuildTrace("K4_MINUS"))
    assert cert.total_rep == 83


def test_single_apex_insertion():
    trace = BuildTrace("K3_MINUS", (Op1(("u1", "u2", "u3")),))
    g, cert = assert_good_coloring(trace)
    for pair, ov in profile(cert, ("u1", "u2", "u3", "k1")).pairs:
        assert ov in (13, 14)


def test_single_substitution_both_orientations():
    for edge in (("u1", "u2"), ("u2", "u1")):
        trace = BuildTrace("K3_MINUS", (Op2(edge),))
        assert_good_coloring(trace)


def test_substitution_on_positive_edge():
    # an apex inserted into the base triangle creates positive edges when
    # the face has mixed signs; substituting across one exercises the
    # copy-switching path
    trace = BuildTrace(
        "K3_MINUS",
        (Op1(("u1", "u2", "u3")), Op2(("u1", "k1"))),
    )
    g = build_from_trace(trace)
    assert_good_coloring(trace)


def gadget_triangle_trace():
    """Every edge of the base triangle replaced by a w_prime copy, then an
    apex in every marked triangle."""
    steps = [Op2((a, b)) for a, b, _ in k3_minus().graph.edges]
    partial = build_from_trace(BuildTrace("K3_MINUS", tuple(steps)))
    steps.extend(Op1(t) for t in partial.marked_triangles)
    return BuildTrace("K3_MINUS", tuple(steps)), partial


def test_gadget_triangle_trace():
    trace, partial = gadget_triangle_trace()
    g, cert = assert_good_coloring(trace)
    assert len(g.graph.vertices) == 45 + len(partial.marked_triangles)


def test_deep_substitution_chain():
    # substitute, then substitute inside the copy, then deep again
    trace = BuildTrace(
        "K3_MINUS",
        (
            Op2(("u1", "u2")),
            Op2(("x1#1", "x2#1")),
            Op2(("w#2", "x3#2")),
            Op1(("w#1", "x1#1", "x5#1")),
        ),
    )
    assert_good_coloring(trace)


def test_apex_stacking_same_face():
    trace = BuildTrace(
        "K3_MINUS",
        (Op1(("u1", "u2", "u3")), Op1(("u1", "u2", "u3")), Op1(("u1", "u2", "k1"))),
    )
    assert_good_coloring(trace)


def test_hundred_random_traces_seeded():
    rng = random.Random(0)
    for _ in range(100):
        trace = random_trace(rng, rng.randint(0, 5))
        assert_good_coloring(trace)


def deep_trace(depth: int, seed: int) -> BuildTrace:
    """A valid trace that alternates apex insertions and w_prime
    substitutions, drawn from pools of known negative triangles and edges
    that each step extends by name, so the trace is made without replaying
    it."""
    rng = random.Random(seed)
    wp = w_prime()
    faces = [("u1", "u2", "u3")]
    edges = [("u1", "u2"), ("u1", "u3"), ("u2", "u3")]
    steps: list = []
    for idx in range(1, depth + 1):
        if idx % 2:
            t = rng.choice(faces)
            apex = f"k{idx}"
            steps.append(Op1(t))
            faces += [(t[0], t[1], apex), (t[0], t[2], apex), (t[1], t[2], apex)]
            edges += [(v, apex) for v in t]
        else:
            x, y = rng.choice(edges)
            if rng.random() < 0.5:
                x, y = y, x
            steps.append(Op2((x, y)))
            name = {"u": x, "v": y}
            rename = {v: name.get(v, f"{v}#{idx}") for v in wp.graph.vertices}
            faces += [tuple(rename[v] for v in t) for t in wp.marked_triangles]
            edges += [(rename[a], rename[b]) for a, b, _ in wp.graph.edges if {a, b} != {"u", "v"}]
    return BuildTrace("K3_MINUS", tuple(steps))


def test_depth_1000_trace_is_certified():
    g, _ = assert_good_coloring(deep_trace(1000, seed=3))
    assert len(g.graph.vertices) == 3 + 500 + 500 * 14


def gadget_snapshot(gg):
    """Everything a reader of ``gg`` sees, dicts in key order."""
    g = gg.graph
    return (
        g.vertices,
        g.edges,
        list(g.index.items()),
        [(v, list(nbrs.items())) for v, nbrs in g.adj.items()],
        gg.marked_triangles,
        list(gg.terminals.items()),
    )


def test_trace_replay_leaves_the_w_prime_template_unchanged():
    # every substitution reads one shared w_prime, which nothing may write
    # into; checked after each step too, so a write that a later step
    # happens to undo is caught
    trace = random_trace(random.Random(7), 200)
    want = gadget_snapshot(w_prime())
    g = k3_minus()
    for idx, step in enumerate(trace.steps, start=1):
        g, _ = apply_trace_step(g, step, idx)
        assert gadget_snapshot(gadgets._w_prime_template()) == want, idx
    build_from_trace(trace)
    assert gadget_snapshot(gadgets._w_prime_template()) == want
    compose_8341(trace)
    assert gadget_snapshot(gadgets._w_prime_template()) == want


def test_composition_is_deterministic():
    trace = BuildTrace("K3_MINUS", (Op2(("u1", "u2")), Op1(("u1", "u2", "u3"))))
    assert compose_8341(trace) == compose_8341(trace)


@settings(derandomize=True, max_examples=300)
@given(pool=st.integers(min_value=0, max_value=(1 << 83) - 1), count=st.integers(0, 90))
@example(pool=0b1011, count=0)
@example(pool=0b1011, count=3)
@example(pool=0b1011, count=5)
@example(pool=0, count=2)
def test_lowest_takes_the_lowest_set_bits(pool, count):
    assert _lowest(pool, count) == sum(1 << i for i in islice(_bits(pool), count))


def test_invalid_trace_surfaces_step_error():
    from fracbal.gadgets import TraceError

    trace = BuildTrace("K3_MINUS", (Op1(("u1", "u2", "zz")),))
    with pytest.raises(TraceError, match="step 1"):
        compose_8341(trace)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the built graph and the composed certificate; any
# change to vertex naming, edge order or color assignment moves them
@pytest.mark.parametrize(
    "name, graph_digest, cert_digest",
    [
        ("random depth 200", "df07f53f2a85d7f0", "5b4dd2afaa75dae8"),
        ("gadget triangle", "ef30ed74d5a1f78b", "fe5ae59ac87f9ec7"),
    ],
    ids=["random-depth-200", "gadget-triangle"],
)
def test_trace_outputs_are_pinned(name, graph_digest, cert_digest):
    if name == "gadget triangle":
        trace, _ = gadget_triangle_trace()
    else:
        trace = random_trace(random.Random(7), 200)
    assert _digest(serialize_graph(build_from_trace(trace).graph)) == graph_digest
    assert _digest(compose_8341(trace).to_json()) == cert_digest
