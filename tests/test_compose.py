"""The inductive (83,41)-coloring composer across trace shapes."""
import hashlib
import json
import random
from functools import cache
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbal import compose, gadgets
from fracbal.acceptance import random_trace
from fracbal.certify import Certificate, Mode, overlap, profile, verify
from fracbal.compose import (
    P,
    Q,
    ComposeError,
    _State,
    _base_state,
    _bits,
    _extend_apex,
    _extend_mini,
    _groups,
    _lowest,
    compose_8341,
)
from fracbal.gadgets import (
    W_HAT_POSITIVE_FACES,
    W_PRIME_FACE_PRIMES,
    BuildTrace,
    Op1,
    Op2,
    apply_trace_step,
    build_from_trace,
    k3_minus,
    w_prime,
)
from fracbal.sgraph import canonical_set, serialize_graph
from fracbal.tables import mini_extension_schemes, w_coloring_83_41_uv13, w_coloring_83_41_uv14


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


def test_mini_primes_follow_face_positions():
    # the composer pairs face vertex i with prime i and relies on every
    # mapped face being in canonical order already
    wp = w_prime().graph
    for face, primes in zip(W_HAT_POSITIVE_FACES, W_PRIME_FACE_PRIMES):
        for i, p in enumerate(primes):
            assert [wp.has_edge(v, p) for v in face] == [j != i for j in range(3)]
    g = k3_minus()
    for idx, edge in enumerate((("u1", "u2"), ("u3", "u1")), start=1):
        g, mapping = apply_trace_step(g, Op2(edge), idx)
        for face in W_HAT_POSITIVE_FACES:
            mapped = tuple(mapping[v] for v in face)
            assert canonical_set(g.graph, mapped) == mapped


def test_composition_is_deterministic():
    trace = BuildTrace("K3_MINUS", (Op2(("u1", "u2")), Op1(("u1", "u2", "u3"))))
    assert compose_8341(trace) == compose_8341(trace)


@settings(derandomize=True, max_examples=300)
@given(pool=st.integers(min_value=0, max_value=(1 << 83) - 1), count=st.integers(0, 90))
@example(pool=0b1011, count=0)
@example(pool=0b1011, count=3)
@example(pool=0b1011, count=5)
@example(pool=0, count=2)
# where ``_lowest`` changes ends, on 8 bits and on the full palette: the
# whole pool, all but one bit, and one above, at and one below half
@example(pool=0b1011_0110_1101, count=8)
@example(pool=0b1011_0110_1101, count=7)
@example(pool=0b1011_0110_1101, count=5)
@example(pool=0b1011_0110_1101, count=4)
@example(pool=0b1011_0110_1101, count=3)
@example(pool=(1 << 83) - 1, count=83)
@example(pool=(1 << 83) - 1, count=82)
@example(pool=(1 << 83) - 1, count=42)
@example(pool=(1 << 83) - 1, count=41)
def test_lowest_takes_the_lowest_set_bits(pool, count):
    assert _lowest(pool, count) == sum(1 << i for i in islice(_bits(pool), count))


# The substitution remap and the final transpose as they stood before the
# C-level ones: a generator step per color bit, a shift per copied color and
# one scan of every vertex per color.  The oracle side of the test below.
def reference_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_extend_substitution(state, edge, mapping, step):
    mx, my = (state.masks[v] for v in edge)
    a = (mx & my).bit_count()
    template = compose._masks(w_coloring_83_41_uv13() if a == 13 else w_coloring_83_41_uv14())
    to_host = [0] * P
    for h, t in zip(_groups(mx, my), _groups(template["u"], template["v"])):
        assert h.bit_count() == t.bit_count()
        for hi, ti in zip(reference_bits(h), reference_bits(t)):
            to_host[ti] = hi
    for w, m in template.items():
        if w not in ("u", "v"):
            state.masks[mapping[w]] = sum(1 << to_host[i] for i in reference_bits(m))
    for face, primes in zip(W_HAT_POSITIVE_FACES, W_PRIME_FACE_PRIMES):
        reference_extend_mini(state, [mapping[v] for v in face], [mapping[m] for m in primes], step)


def reference_extend_mini(state, o, primes, step):
    """The mini extension as it stood before its schemes were compiled into
    plans: pools in dicts keyed by face vertex sets, the scheme found by a
    scan of the fixture and its tokens read on every call."""
    prime = dict(zip(o, primes))
    m = [state.masks[v] for v in o]
    triple = m[0] & m[1] & m[2]
    pair_groups = {
        frozenset((o[i], o[(i + 1) % 3])): m[i] & m[(i + 1) % 3] & ~m[(i + 2) % 3]
        for i in range(3)
    }
    single_groups = {o[i]: m[i] & ~(m[(i + 1) % 3] | m[(i + 2) % 3]) for i in range(3)}
    pair_sizes = {v.bit_count() for v in pair_groups.values()}
    single_sizes = {v.bit_count() for v in single_groups.values()}
    scheme = next((
        cand for cand in mini_extension_schemes()
        if triple.bit_count() == cand["profile"]["triple"]
        and pair_sizes == {cand["profile"]["pair"]}
        and single_sizes == {cand["profile"]["single"]}
    ), None)
    if scheme is None:
        raise ComposeError(
            f"step {step}: unknown triangle profile "
            f"(triple={triple.bit_count()}, pairs={sorted(pair_sizes)}, "
            f"singles={sorted(single_sizes)})"
        )
    for i in range(3):
        env = {"i": o[i], "i+1": o[(i + 1) % 3], "i+2": o[(i + 2) % 3]}
        for fam in scheme["families"]:
            out_pat = [env[tok] for tok in fam["outer"]]
            receivers = [prime[env[tok]] for tok in fam["primes"]]
            count = fam["count"]
            if len(out_pat) == 2:
                pools, key = pair_groups, frozenset(out_pat)
                if pools[key].bit_count() < count:
                    raise ComposeError(f"step {step}: pair pool exhausted at {out_pat}")
            else:
                pools, key = single_groups, out_pat[0]
                if pools[key].bit_count() < count:
                    raise ComposeError(f"step {step}: single pool exhausted at {key}")
            chosen = _lowest(pools[key], count)
            pools[key] ^= chosen
            for p in receivers:
                state.masks[p] = state.masks.get(p, 0) | chosen


def reference_compose(trace):
    state = _base_state(trace.base)
    for idx, step in enumerate(trace.steps, start=1):
        info = state.graph.apply(step, idx)
        if isinstance(step, Op1):
            _extend_apex(state, step.face, info, idx)
        else:
            reference_extend_substitution(state, step.edge, info, idx)
    items = sorted(state.masks.items())
    classes = ([v for v, mask in items if mask >> i & 1] for i in range(P))
    return Certificate.build(P, Q, Mode.BALANCED, ((s, 1) for s in classes if s))


def oracle_traces():
    traces = [BuildTrace("K4_MINUS"), BuildTrace("K4_MINUS", (Op2(("u1", "u4")),))]
    return traces + [random_trace(random.Random(seed), seed * 60 // 49) for seed in range(50)]


def test_composer_matches_per_bit_remap_and_scan_transpose():
    for trace in oracle_traces():
        assert compose_8341(trace).to_json() == reference_compose(trace).to_json()


def test_extend_mini_matches_the_dict_oracle(monkeypatch):
    # each call of the compiled plans against the dict version on a copy of
    # the same masks: the same colors, and new primes added in the same order
    live = compose._extend_mini
    calls = []

    def both(state, o, primes, step):
        ref = _State(state.graph, dict(state.masks))
        reference_extend_mini(ref, o, primes, step)
        live(state, o, primes, step)
        assert list(state.masks.items()) == list(ref.masks.items())
        calls.append(step)

    monkeypatch.setattr(compose, "_extend_mini", both)
    for trace in oracle_traces():
        compose_8341(trace)
    assert len(calls) > 100


@pytest.mark.parametrize(
    "masks, profile",
    [
        ((0b111, 0b011, 0b101), "triple=1, pairs=[0, 1], singles=[0]"),  # pools of mixed sizes
        ((0b001, 0b010, 0b100), "triple=0, pairs=[0], singles=[1]"),  # uniform, but no scheme's
    ],
)
def test_unknown_face_profile_is_named(masks, profile):
    state = _State(None, dict(zip("abc", masks)))
    for mini in (_extend_mini, reference_extend_mini):
        with pytest.raises(ComposeError) as err:
            mini(state, ["a", "b", "c"], ["a'", "b'", "c'"], 9)
        assert str(err.value) == f"step 9: unknown triangle profile ({profile})"
    assert state.masks == dict(zip("abc", masks))


@pytest.mark.parametrize(
    "family, message",
    [
        ({"outer": ["i"], "primes": ["i+1"], "count": 2}, "single pool exhausted at a"),
        ({"outer": ["i+1", "i"], "primes": ["i"], "count": 1}, "pair pool exhausted at ['b', 'a']"),
    ],
)
def test_exhausted_pool_is_named(monkeypatch, family, message):
    # no shipped scheme overdraws its pools, so a scheme that does is swapped in
    schemes = ({"profile": {"triple": 0, "pair": 0, "single": 1}, "families": [family]},)
    monkeypatch.setattr(compose, "mini_extension_schemes", lambda: schemes)
    monkeypatch.setattr(compose, "_mini_plans", cache(compose._mini_plans.__wrapped__))
    monkeypatch.setitem(globals(), "mini_extension_schemes", lambda: schemes)
    for mini in (_extend_mini, reference_extend_mini):
        state = _State(None, {"a": 0b001, "b": 0b010, "c": 0b100})
        with pytest.raises(ComposeError) as err:
            mini(state, ["a", "b", "c"], ["a'", "b'", "c'"], 9)
        assert str(err.value) == f"step 9: {message}"


def test_invalid_trace_surfaces_step_error():
    from fracbal.gadgets import TraceError

    trace = BuildTrace("K3_MINUS", (Op1(("u1", "u2", "zz")),))
    with pytest.raises(TraceError, match="step 1"):
        compose_8341(trace)


# once u1-u2 is substituted, u1 sees x1#1, x2#1 and x5#1 of the copy, u2 sees
# x3#1 and x4#1, u3 sees none, and u1 x1#1 x2#1 is a positive face
@pytest.mark.parametrize(
    "face, message",
    [
        (("u1", "u2", "zz"), "vertex 'zz' not in graph"),
        (("zz", "u1", "u1"), "vertex 'zz' not in graph"),
        (("u1", "u1", "u2"), "duplicate member 'u1'"),
        (("x3#1", "x1#1", "u2"), "no edge ('u2', 'x1#1')"),
        (("u3", "u1", "x3#1"), "no edge ('u3', 'x3#1')"),
        (("u1", "u2", "x3#1"), "no edge ('u1', 'x3#1')"),
        (("x2#1", "u1", "x1#1"), "triangle ('u1', 'x1#1', 'x2#1') is not negative"),
    ],
    ids=["stranger", "stranger-first", "repeat", "first-edge", "second-edge", "third-edge",
         "positive"],
)
def test_bad_apex_face_errors_are_pinned(face, message):
    from fracbal.gadgets import TraceError

    trace = BuildTrace("K3_MINUS", (Op2(("u1", "u2")), Op1(face)))
    for run in (build_from_trace, compose_8341):
        with pytest.raises(TraceError) as err:
            run(trace)
        assert str(err.value) == f"step 2: {message}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the built graph, its marked triangles in order and the
# composed certificate; any change to vertex naming, edge order, marked order
# or color assignment moves them
@pytest.mark.parametrize(
    "name, graph_digest, marked_digest, cert_digest",
    [
        ("random depth 200", "df07f53f2a85d7f0", "6706b10d5e2961cb", "5b4dd2afaa75dae8"),
        ("gadget triangle", "ef30ed74d5a1f78b", "0a27bd60b87659a2", "fe5ae59ac87f9ec7"),
    ],
    ids=["random-depth-200", "gadget-triangle"],
)
def test_trace_outputs_are_pinned(name, graph_digest, marked_digest, cert_digest):
    if name == "gadget triangle":
        trace, _ = gadget_triangle_trace()
    else:
        trace = random_trace(random.Random(7), 200)
    built = build_from_trace(trace)
    assert _digest(serialize_graph(built.graph)) == graph_digest
    assert _digest(json.dumps(built.marked_triangles)) == marked_digest
    assert _digest(compose_8341(trace).to_json()) == cert_digest
