"""Certificate model, verifier findings, audits, and the fixture tables."""
import tracemalloc
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbal.acceptance import random_trace
from fracbal.certify import (
    Certificate,
    CertificateError,
    Mode,
    OverlapProfile,
    VerifyReport,
    Violation,
    overlap,
    profile,
    triangle_common_count,
    triangle_missing_count,
    triangle_property_audit,
    verify,
)
from fracbal.cover import chi_fb, lp_to_certificate
from fracbal.compose import compose_8341
from fracbal.gadgets import build_from_trace, k4_minus, w_hat
from fracbal.sgraph import (
    GraphError,
    SignedGraph,
    all_triangles,
    any_cycle,
    negative_cycle_witness,
    sets_hold,
)
from fracbal.tables import (
    FixtureError,
    k3_base_colorings,
    w_coloring_172_85,
    w_coloring_83_41_uv13,
    w_coloring_83_41_uv14,
    w_forest_52_25,
)


def test_certificate_merges_duplicate_rows():
    cert = Certificate.build(
        10, 3, Mode.BALANCED, [(("a", "b"), 2), (("b", "a"), 1), (("c",), 1)]
    )
    assert cert.classes == ((("a", "b"), 3), (("c",), 1))


def test_certificate_rejects_palette_overflow():
    with pytest.raises(CertificateError, match="palette"):
        Certificate.build(2, 1, Mode.BALANCED, [(("a",), 3)])


def test_certificate_rejects_empty_class():
    with pytest.raises(CertificateError):
        Certificate(3, 1, Mode.BALANCED, (((), 1),))


def test_certificate_json_round_trip():
    cert = w_coloring_172_85()
    again = Certificate.from_json(cert.to_json())
    assert again == cert


def test_table_172_85_verifies_with_golden_sums():
    wh = w_hat()
    cert = w_coloring_172_85()
    rep = verify(wh.graph, cert)
    assert rep.ok
    assert cert.total_rep == 172
    assert all(cov == 85 for _, cov in rep.per_vertex_coverage)
    # the table lists one set twice; the loader merges it to 22 distinct rows
    assert len(cert.classes) == 22
    assert overlap(cert, "u", "v") == 28


def test_table_172_85_triangle_audits():
    cert = w_coloring_172_85()
    wh = w_hat()
    for t in wh.marked_triangles:
        assert triangle_missing_count(cert, t) <= 4
    for t in (("u", "x1", "x2"), ("v", "x3", "x4")):
        assert triangle_common_count(cert, t) <= 4


def test_table_172_85_undercoverage_detected_when_weakened():
    cert = w_coloring_172_85()
    rows = [(s, rep) for s, rep in cert.classes]
    victim = next(i for i, (s, _) in enumerate(rows) if set(s) == {"u", "v", "w", "x1", "x4"})
    s, rep = rows[victim]
    rows[victim] = (s, rep - 1)
    weakened = Certificate.build(cert.p, cert.q, cert.mode, rows)
    rep2 = verify(w_hat().graph, weakened)
    assert not rep2.ok
    undercovered = {v.subject[0] for v in rep2.violations if v.kind == "undercovered-vertex"}
    assert "w" in undercovered


def test_tables_83_41_overlaps():
    wh = w_hat()
    t13 = w_coloring_83_41_uv13()
    t14 = w_coloring_83_41_uv14()
    assert verify(wh.graph, t13).ok and verify(wh.graph, t14).ok
    assert overlap(t13, "u", "v") == 13
    assert overlap(t14, "u", "v") == 14
    for a, b, _ in wh.graph.edges:
        if {a, b} != {"u", "v"}:
            assert overlap(t13, a, b) == 14
        assert overlap(t14, a, b) == 14


def test_forest_table_verifies():
    wh = w_hat()
    cert = w_forest_52_25()
    rep = verify(wh.graph, cert)
    assert rep.ok
    assert cert.total_rep == 52
    assert all(cov == 25 for _, cov in rep.per_vertex_coverage)
    for other in ("v", "z", "x1", "t"):
        assert overlap(cert, "u", other) == 10


def test_forest_mode_catches_cycles():
    bad = Certificate.build(
        52, 25, Mode.FOREST, [(("x1", "x2", "x3", "x4", "x5"), 25), (tuple("uvwzt"), 25)]
    )
    rep = verify(w_hat().graph, bad)
    kinds = {v.kind for v in rep.violations}
    assert "cyclic-class" in kinds


def test_balanced_mode_reports_witness():
    bad = Certificate.build(2, 1, Mode.BALANCED, [(("u", "v", "z"), 1)])
    rep = verify(w_hat().graph, bad)
    finding = next(v for v in rep.violations if v.kind == "unbalanced-class")
    assert finding.witness is not None and set(finding.witness) == {"u", "v", "z"}


def test_unknown_vertex_finding():
    cert = Certificate.build(2, 1, Mode.BALANCED, [(("u", "ghost"), 1)])
    rep = verify(w_hat().graph, cert)
    assert any(v.kind == "unknown-vertex" for v in rep.violations)


def test_merge_is_a_verifier_noop():
    cert = w_coloring_172_85()
    doubled_rows = []
    for s, rep in cert.classes:
        if rep > 1:
            doubled_rows.append((s, rep - 1))
            doubled_rows.append((s, 1))
        else:
            doubled_rows.append((s, rep))
    again = Certificate.build(cert.p, cert.q, cert.mode, doubled_rows)
    assert again == cert
    assert verify(w_hat().graph, again) == verify(w_hat().graph, cert)


def test_strict_triangle_property_on_lp_certificate():
    # the forced (2k, k) structure of the all-negative K4 passes the strict
    # negative audit on every triangle
    cert = lp_to_certificate(chi_fb(k4_minus().graph), Mode.BALANCED)
    for t in k4_minus().marked_triangles:
        assert triangle_property_audit(cert, t, -1)
        assert triangle_missing_count(cert, t) == 0
    one_class = Certificate.build(3, 1, Mode.BALANCED, [(("u", "v", "w"), 1)])
    assert not triangle_property_audit(one_class, ("u", "v", "w"), 1)


def test_missing_count_includes_unused_palette():
    cert = Certificate.build(5, 1, Mode.BALANCED, [(("u", "v"), 2)])
    # 3 unused colors miss everything; the used class hits the triangle
    assert triangle_missing_count(cert, ("u", "v", "z")) == 3


def test_profiles_of_base_colorings():
    base = k3_base_colorings()
    prof = profile(base["14-14-14"], ("u1", "u2", "u3"))
    assert set(prof.pair_map.values()) == {14}
    assert set(prof.single_map.values()) == {13}
    prof2 = profile(base["14-13-13"], ("u1", "u2", "u3"))
    assert sorted(prof2.pair_map.values()) == [13, 13, 14]
    assert sorted(prof2.single_map.values()) == [14, 14, 15]
    assert base["14-13-13"].total_rep == 83
    prof3 = profile(w_coloring_83_41_uv14(), ("u", "v"))
    assert prof3.pair_map[("u", "v")] == 14


def test_fixture_checksum_guard(tmp_path, monkeypatch):
    import fracbal.tables as tables

    monkeypatch.setitem(tables._SHA256, "w_forest_52_25.json", "0" * 64)
    tables.w_forest_52_25.cache_clear()
    with pytest.raises(FixtureError, match="checksum"):
        tables.w_forest_52_25()
    monkeypatch.undo()
    tables.w_forest_52_25.cache_clear()
    assert tables.w_forest_52_25().p == 52


# The overlap audits on a color mask per vertex, as they stood before they
# summed class repetitions: the oracle side of the differential test below.
# The triangle counts scan the classes as sets.
def reference_masks(c):
    masks = {}
    color = 0
    for s, rep in c.classes:
        for v in s:
            masks[v] = masks.get(v, 0) | ((1 << rep) - 1) << color
        color += rep
    return masks


def reference_overlap(c, x, y):
    if x == y:
        raise GraphError("overlap needs two distinct vertices")
    m = reference_masks(c)
    return (m.get(x, 0) & m.get(y, 0)).bit_count()


def reference_triangle_common_count(c, t):
    if len(set(t)) != 3:
        raise GraphError("expected 3 distinct vertices")
    need = set(t)
    return sum(rep for s, rep in c.classes if need <= set(s))


def reference_triangle_missing_count(c, t):
    if len(set(t)) != 3:
        raise GraphError("expected 3 distinct vertices")
    need = set(t)
    disjoint = sum(rep for s, rep in c.classes if not need & set(s))
    return disjoint + (c.p - c.total_rep)


def reference_profile(c, terminals):
    terms = list(terminals)
    pairs = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            pairs.append(((terms[i], terms[j]), reference_overlap(c, terms[i], terms[j])))
    m = reference_masks(c)
    singles = []
    for v in terms:
        others = 0
        for w in terms:
            if w != v:
                others |= m.get(w, 0)
        singles.append((v, (m.get(v, 0) & ~others).bit_count()))
    return OverlapProfile(tuple(pairs), tuple(singles))


# six names a certificate may use, two it never does
_MEMBERS = ("a", "b", "c", "d", "e", "f")
_NAMES = _MEMBERS + ("ghost", "stranger")


@st.composite
def raw_certificates(draw):
    """Rows as a caller passes them: sets in any order, repeated sets that
    ``build`` merges, and a palette that may exceed the total repetition."""
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(_MEMBERS), min_size=1, max_size=4, unique=True),
            st.integers(1, 3),
        ),
        max_size=6,
    ))
    if rows:
        repeats = draw(st.lists(st.sampled_from(rows), max_size=3))
        rows += [(list(reversed(s)), rep) for s, rep in repeats]
    total = sum(rep for _, rep in rows)
    p = max(total, 1) + draw(st.integers(0, 3))
    return Certificate.build(p, 1, Mode.BALANCED, rows)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except GraphError as exc:
        return "error", str(exc)


def test_overlap_audits_do_not_grow_with_the_palette():
    # a color mask per vertex would hold 4 * 10^8 bits, 50 MB, for each of
    # a, b and c; summing the class repetitions holds none
    rep = 10**8
    cert = Certificate.build(4 * rep, 1, Mode.BALANCED, [(("a", "b"), rep), (("b", "c"), rep), (("a", "c"), rep)])
    tracemalloc.start()
    try:
        got = overlap(cert, "a", "b"), profile(cert, ("a", "b", "c", "d"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = ((("a", "b"), rep), (("a", "c"), rep), (("a", "d"), 0), (("b", "c"), rep), (("b", "d"), 0), (("c", "d"), 0))
    assert got == (rep, OverlapProfile(pairs, (("a", 0), ("b", 0), ("c", 0), ("d", 0))))
    assert peak < 5 * 2**20


@settings(derandomize=True, deadline=None, max_examples=300)
@given(raw_certificates(), st.lists(st.sampled_from(_NAMES), max_size=5))
def test_mask_audits_match_class_scans(cert, terminals):
    for x in _NAMES:
        for y in _NAMES:
            assert _outcome(overlap, cert, x, y) == _outcome(reference_overlap, cert, x, y)
    # repeated names hit the distinctness checks, with the same messages
    for t in [*combinations(_NAMES, 3), ("a", "a", "b"), ("ghost",) * 3, ("a", "b", "c", "a")]:
        assert _outcome(triangle_common_count, cert, t) == _outcome(
            reference_triangle_common_count, cert, t
        )
        assert _outcome(triangle_missing_count, cert, t) == _outcome(
            reference_triangle_missing_count, cert, t
        )
    assert _outcome(profile, cert, terminals) == _outcome(reference_profile, cert, terminals)


# The verifier as it stood before the batched balance check: one BFS
# witness search per class.  The oracle side of the differential test below.
def reference_verify(g, c):
    violations = []
    for s, rep in c.classes:
        strangers = [v for v in s if not g.has_vertex(v)]
        if strangers:
            violations.append(
                Violation("unknown-vertex", s, None, f"not in graph: {strangers}")
            )
            continue
        if c.mode is Mode.BALANCED:
            witness = negative_cycle_witness(g, s)
            if witness is not None:
                violations.append(
                    Violation("unbalanced-class", s, witness.vertices,
                              "induces a negative cycle")
                )
        else:
            witness = any_cycle(g, s)
            if witness is not None:
                violations.append(
                    Violation("cyclic-class", s, witness.vertices, "induces a cycle")
                )
    if c.total_rep > c.p:
        violations.append(
            Violation("palette-overflow", (), None,
                      f"{c.total_rep} repetitions for {c.p} colors")
        )
    counts = dict.fromkeys(g.vertices, 0)
    for s, rep in c.classes:
        for v in s:
            if v in counts:
                counts[v] += rep
    coverage = tuple(counts.items())
    for v, cov in coverage:
        if cov < c.q:
            violations.append(
                Violation("undercovered-vertex", (v,), None, f"coverage {cov} < {c.q}")
            )
    return VerifyReport(not violations, coverage, tuple(violations))


@st.composite
def hosts_and_certificates(draw):
    """A small signed graph, possibly empty or with isolated vertices, and a
    certificate of either mode whose classes may hold names the graph lacks,
    induce cycles of either sign, undercover vertices or overflow the
    palette."""
    n = draw(st.integers(0, len(_MEMBERS)))
    names = _MEMBERS[:n]
    edges = tuple(
        (names[i], names[j], draw(st.sampled_from((1, -1))))
        for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    )
    g = SignedGraph(names, edges)
    # a stranger in one case of four, so that most classes reach the balance check
    pool = names + ("ghost",) if not names or draw(st.integers(0, 3)) == 0 else names
    rows = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(pool), min_size=1, unique=True), st.integers(1, 3)),
        max_size=7,
    ))
    total = sum(rep for _, rep in rows)
    cert = Certificate.build(max(total, 1), draw(st.integers(1, 3)), draw(st.sampled_from(Mode)), rows)
    if total > 1 and draw(st.integers(0, 3)) == 0:
        # a palette the constructor would refuse: verify reports it instead
        object.__setattr__(cert, "p", draw(st.integers(1, total - 1)))
    return g, cert


@pytest.mark.parametrize("per_pass", [1, 2, 64])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(hosts_and_certificates())
def test_verify_matches_per_class_witness_search(per_pass, case):
    g, cert = case
    assert verify(g, cert) == reference_verify(g, cert)
    # sets_hold answers each set on its own: handing it the classes
    # ``per_pass`` at a time gives the answer of one pass over them all
    acyclic = cert.mode is Mode.FOREST
    count = len(cert.classes)
    masks = [sum(1 << j for j, (s, _) in enumerate(cert.classes) if v in s) for v in g.vertices]
    parts: list[bool] = []
    for lo in range(0, count, per_pass):
        n = min(per_pass, count - lo)
        parts += sets_hold(g, [m >> lo & (1 << n) - 1 for m in masks], n, acyclic)
    assert parts == sets_hold(g, masks, count, acyclic)


def test_verify_matches_per_class_witness_search_beyond_64_classes():
    # the 83 classes of a composed certificate take class bits above 64:
    # as composed, as forest classes (cyclic, with witnesses) and with a
    # stranger in one class above bit 64
    trace = random_trace(Random(7), 100)
    g = build_from_trace(trace).graph
    cert = compose_8341(trace)
    assert len(cert.classes) == 83
    forest = Certificate(cert.p, cert.q, Mode.FOREST, cert.classes)
    s, rep = cert.classes[70]
    rows = [*cert.classes[:70], ((*s, "zz-ghost"), rep), *cert.classes[71:]]
    stray = Certificate.build(cert.p, cert.q, Mode.BALANCED, rows)
    assert stray.classes[70] == ((*s, "zz-ghost"), rep)
    reports = [verify(g, c) for c in (cert, forest, stray)]
    assert reports == [reference_verify(g, c) for c in (cert, forest, stray)]
    assert reports[0].ok
    cyclic = {v.subject for v in reports[1].violations if v.kind == "cyclic-class"}
    assert any(cert.classes[j][0] in cyclic for j in range(64, 83))
    assert [(v.kind, v.subject) for v in reports[2].violations] == [
        ("unknown-vertex", stray.classes[70][0])
    ]


def test_verify_matches_the_reference_out_of_build_order():
    # declared in build order, every vertex of a trace graph has few links
    # when sets_hold eliminates it.  Shuffled, the sweep stops near the top
    # (at vertex 1,311 of 1,321 here); with the widest vertex (39 links)
    # moved to the middle, it stops there (at vertex 660) with fill links
    # left below.  Either way the hand-off settles the classes.
    trace = random_trace(Random(7), 200)
    built = build_from_trace(trace).graph
    shuffled = list(built.vertices)
    Random(1).shuffle(shuffled)
    middle = list(built.vertices)
    widest = max(middle, key=lambda v: len(built.adj[v]))
    middle.remove(widest)
    middle.insert(len(middle) // 2, widest)
    cert = compose_8341(trace)
    forest = Certificate(cert.p, cert.q, Mode.FOREST, cert.classes)
    for names in (shuffled, middle):
        g = SignedGraph(tuple(names), built.edges)
        reports = [verify(g, c) for c in (cert, forest)]
        assert reports == [reference_verify(g, c) for c in (cert, forest)]
        assert reports[0].ok and not reports[1].ok


@pytest.mark.parametrize("mode", list(Mode))
def test_a_class_that_fails_early_leaves_no_links_for_the_next(mode):
    # sets_hold reuses one union-find array for every class and stops a
    # class at its first bad edge.  Each failing class here holds a bad
    # triangle a < b < c and vertices after a; the holding classes after it
    # in class order hold b and c and vertices after a, so links left over
    # from the failing class would close a false cycle through a.  There
    # are 90 classes, so bits above 64 take part, and isolated vertices.
    rng = Random(11)
    names = tuple(f"v{i:02d}" for i in range(24)) + ("z1", "z2")
    edges = tuple(
        (names[i], names[j], rng.choice((1, -1)))
        for i in range(24) for j in range(i + 1, 24) if rng.random() < 0.3
    )
    g = SignedGraph(names, edges)
    bad = negative_cycle_witness if mode is Mode.BALANCED else any_cycle
    closers = [t for t, sign in all_triangles(g) if mode is Mode.FOREST or sign == -1]
    rows = []
    for k in range(30):
        a, b, c = closers[k % len(closers)]
        later = names[names.index(a) + 1:]
        rows.append(({a, b, c, *rng.sample(later, 3)}, 1))
        for _ in range(2):
            held = [b, c, "z1"]
            for v in rng.sample(later, len(later)):
                if v not in held and bad(g, (*held, v)) is None:
                    held.append(v)
            rows.append((held, 1))
    cert = Certificate.build(len(rows), 1, mode, rows)
    assert len(cert.classes) > 64
    report = verify(g, cert)
    assert report == reference_verify(g, cert)
    failing = {v.subject for v in report.violations}
    assert 0 < len(failing) < len(cert.classes)
    index = g.index
    masks = [0] * len(names)
    for j, (members, _) in enumerate(cert.classes):
        for v in members:
            masks[index[v]] |= 1 << j
    holds = sets_hold(g, masks, len(cert.classes), mode is Mode.FOREST)
    assert holds == [members not in failing for members, _ in cert.classes]


# The class checks as they stood before the linear-time ones, each class
# compared with ``sorted(set(...))``: the oracle side of the test below.
def reference_post_init(p, q, classes):
    if p < 1 or q < 1:
        raise CertificateError("p and q must be positive")
    total = 0
    prev = None
    for s, rep in classes:
        if not s:
            raise CertificateError("empty color class")
        if list(s) != sorted(set(s)):
            raise CertificateError(f"class {s} is not a sorted set")
        if prev is not None and s <= prev:
            raise CertificateError("classes not sorted or not merged")
        if rep < 1:
            raise CertificateError(f"class {s} has repetition {rep}")
        prev = s
        total += rep
    if total > p:
        raise CertificateError(f"total repetition {total} exceeds palette {p}")
    return tuple(classes)


def reference_build(p, q, classes):
    merged = {}
    for raw, rep in classes:
        row = tuple(raw)
        key = tuple(sorted(set(row)))
        if len(key) != len(row):
            raise CertificateError(f"class {row} repeats a vertex")
        merged[key] = merged.get(key, 0) + rep
    return reference_post_init(p, q, tuple(sorted(merged.items())))


def _classes_or_error(fn, *args):
    try:
        out = fn(*args)
    except CertificateError as exc:
        return "error", str(exc)
    return "value", out if isinstance(out, tuple) else out.classes


@st.composite
def raw_rows(draw):
    """Rows that may be unsorted, repeat a member, repeat a whole row (which
    ``build`` merges and the constructor refuses) or have repetition 0; or,
    half the time, the same rows sorted, made distinct and merged."""
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(_MEMBERS[:4]), min_size=1, max_size=5).map(tuple),
            st.sampled_from((0, 1, 1, 2, 3)),
        ),
        max_size=5,
    ))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows = sorted({tuple(sorted(set(s))): rep for s, rep in rows}.items())
    return rows


@example(3, 1, [((), 1)])
@example(0, 1, [(("a",), 1)])
@example(3, 0, [(("a",), 1)])
@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.integers(1, 12), st.integers(1, 3), raw_rows())
def test_certificate_checks_match_sorted_set_checks(p, q, rows):
    mode = Mode.BALANCED
    assert _classes_or_error(Certificate, p, q, mode, tuple(rows)) == _classes_or_error(
        reference_post_init, p, q, tuple(rows)
    )
    assert _classes_or_error(Certificate.build, p, q, mode, rows) == _classes_or_error(
        reference_build, p, q, rows
    )
