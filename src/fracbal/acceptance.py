"""The acceptance gate: every release-blocking check, runnable as a library.

Each criterion fills a _Check with its expectations, a human-readable
summary and the facts it found (listings, counts); ``run_criterion``
stamps the id and title from ``CRITERIA`` onto the CriterionResult.  The
pytest suite asserts them and the command line only prints them.  All
arithmetic is exact (integers and rationals), so there are no tolerances
anywhere.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from . import bounds as bnd
from .certify import Mode, overlap, triangle_common_count, triangle_missing_count, verify
from .compose import compose_8341
from .cover import a_f, chi_fb
from .families import (
    SetProperty,
    check_forest_lemmas,
    check_missing_triangle_lemma,
    enumerate_sets,
    lemma_case_sets,
)
from .gadgets import (
    W_HAT_POSITIVE_FACES,
    BuildTrace,
    GadgetGraph,
    Op1,
    Op2,
    apply_trace_step,
    build_from_trace,
    g_hat_k3,
    g_sequence,
    k3_minus,
    k4_minus,
    u_hat,
    w1_underlying,
    w_double_prime,
    w_hat,
    w_prime,
)
from .sgraph import (
    SignedGraph,
    all_triangles,
    is_acyclic,
    is_balanced,
    negative_cycle_witness,
    parse_graph,
    serialize_graph,
    switch,
    triangle_sign,
)
from .tables import (
    w_coloring_172_85,
    w_coloring_83_41_uv13,
    w_coloring_83_41_uv14,
    w_forest_52_25,
)


@dataclass
class CriterionResult:
    cid: str
    title: str
    ok: bool
    details: str
    facts: dict[str, object] = field(default_factory=dict)


class _Check:
    """Collects assertion-style facts and their failures, plus named facts
    (listings, counts) that the command line prints as they are."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.facts: dict[str, object] = {}

    def expect(self, fact: bool, label: str) -> None:
        if not fact:
            self.failures.append(label)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def result(self, cid: str, title: str) -> CriterionResult:
        ok = not self.failures
        details = "; ".join(self.notes) if ok else "FAILED: " + "; ".join(self.failures)
        return CriterionResult(cid, title, ok, details, self.facts)


LEMMA_TEN_SETS = (
    frozenset({"u", "v", "x1", "x2", "x4"}),
    frozenset({"u", "v", "x1", "x3", "x4"}),
    frozenset({"u", "v", "w", "x1", "x4"}),
    frozenset({"u", "v", "w", "x2"}),
    frozenset({"u", "v", "w", "x3"}),
    frozenset({"u", "v", "w", "x5"}),
    frozenset({"u", "v", "x1", "x3"}),
    frozenset({"u", "v", "x2", "x5"}),
    frozenset({"u", "v", "x2", "x4"}),
    frozenset({"u", "v", "x3", "x5"}),
)


def criterion_lemma_3_1(seed: int = 0) -> _Check:
    """Balanced-set case analysis on the core gadget and its completion."""
    c = _Check()
    wh = w_hat()
    listing = lemma_case_sets(wh, W_HAT_POSITIVE_FACES)
    c.facts["sets"] = [list(s) for s in listing]
    got = {frozenset(s) for s in listing}
    c.expect(got == set(LEMMA_TEN_SETS), f"case listing differs: {sorted(map(sorted, got))}")
    plain = enumerate_sets(
        wh.graph, SetProperty.BALANCED, maximal_only=True, must_contain=("u", "v")
    )
    c.expect(
        {frozenset(s) for s in plain.sets} <= got,
        "strictly maximal sets must be among the ten",
    )
    ok, witness = check_missing_triangle_lemma(w_prime())
    c.expect(ok, f"a balanced set hits all 7 marked triangles: {witness}")
    c.note(f"ten-set listing reproduced; {len(plain.sets)} strictly maximal; completion lemma holds")
    return c


def criterion_table_1(seed: int = 0) -> _Check:
    """The (172, 85) certificate with its overlap and triangle audits."""
    c = _Check()
    wh = w_hat()
    cert = w_coloring_172_85()
    rep = verify(wh.graph, cert)
    c.expect(rep.ok, f"verify failed: {rep.violations[:2]}")
    c.expect(cert.total_rep == 172, f"total rep {cert.total_rep}")
    c.expect(
        all(cov == 85 for _, cov in rep.per_vertex_coverage),
        "coverage must be 85 everywhere",
    )
    ov = overlap(cert, "u", "v")
    m = bnd.m_upper_bound(bnd.BoundParams(172, 85))
    c.expect(ov == 28 == 7 * m, f"overlap(u,v) = {ov}, 7(2p-4q) = {7 * m}")
    for t in wh.marked_triangles:
        miss = triangle_missing_count(cert, t)
        c.expect(miss <= 4, f"negative triangle {t} missing {miss} > 4")
    for t in W_HAT_POSITIVE_FACES:
        com = triangle_common_count(cert, t)
        c.expect(com <= 4, f"positive triangle {t} full-count {com} > 4")
    c.note("verified; overlap(u,v)=28; negative audits <= 4 missing; positive audits <= 4 common")
    return c


def criterion_tables_2_3(seed: int = 0) -> _Check:
    """The two (83, 41) certificates and their per-edge overlaps."""
    c = _Check()
    wh = w_hat()
    for cert, uv in ((w_coloring_83_41_uv13(), 13), (w_coloring_83_41_uv14(), 14)):
        rep = verify(wh.graph, cert)
        c.expect(rep.ok, f"verify failed for uv={uv}: {rep.violations[:2]}")
        c.expect(overlap(cert, "u", "v") == uv, f"overlap(u,v) != {uv}")
        for a, b, _ in wh.graph.edges:
            if {a, b} == {"u", "v"}:
                continue
            got = overlap(cert, a, b)
            c.expect(got == 14, f"uv={uv}: edge ({a},{b}) overlap {got} != 14")
    c.note("both verified; overlap(u,v) = 13 resp. 14; all other edges exactly 14")
    return c


def criterion_table_5(seed: int = 0) -> _Check:
    """The (52, 25) forest certificate on the unsigned core graph."""
    c = _Check()
    wh = w_hat()
    cert = w_forest_52_25()
    c.expect(cert.mode is Mode.FOREST, "mode must be forest")
    rep = verify(wh.graph, cert)
    c.expect(rep.ok, f"verify failed: {rep.violations[:2]}")
    c.expect(len(cert.classes) == 20, f"{len(cert.classes)} classes")
    for other in ("v", "z", "x1", "t"):
        got = overlap(cert, "u", other)
        c.expect(got == 10, f"overlap(u,{other}) = {got} != 10")
    c.note("verified; all 20 classes induce forests; the four u-overlaps equal 10")
    return c


def criterion_forest_lemmas(seed: int = 0) -> _Check:
    """Full subset scan of the 10-vertex core graph for forest facts."""
    c = _Check()
    rep = check_forest_lemmas(w_hat())
    c.facts.update({
        "max-forest-order": rep.max_order,
        "max-with-terminals": rep.max_order_with_terminals,
        "maximum-forests-with-u": rep.top_sets_with_u,
        "hitting-two-hubs": rep.top_sets_with_u_hitting_hubs,
    })
    c.expect(rep.max_order == 5, f"max forest order {rep.max_order}")
    c.expect(rep.max_order_with_terminals == 4, f"max with u,v {rep.max_order_with_terminals}")
    c.expect(rep.hubs_ok, "an order-5 forest with u misses two of z, t, x1")
    c.note(
        f"max order 5; with terminals 4; all {rep.top_sets_with_u} "
        "maximum forests containing u hit two hubs"
    )
    return c


def _independent_cover_check(g: SignedGraph, prop: SetProperty, result) -> bool:
    """Re-verify an LP result from scratch, outside the solver module.

    Primal feasibility (every class has the property, every vertex is
    covered), dual feasibility by a scan of every subset of the host, and
    equal values together prove optimality.  The subset scan is exponential,
    so hosts stay tiny (at most 5 vertices here).
    """
    has_property = is_balanced if prop is SetProperty.BALANCED else is_acyclic
    weights = dict(result.primal)
    duals = dict(result.dual)
    if any(w < 0 for w in weights.values()) or any(y < 0 for y in duals.values()):
        return False
    for v in g.vertices:
        if sum(w for s, w in weights.items() if v in s) < 1:
            return False
    if not all(has_property(g, s) for s in weights):
        return False
    for size in range(1, len(g.vertices) + 1):
        for s in combinations(g.vertices, size):
            if has_property(g, s) and sum(duals.get(v, 0) for v in s) > 1:
                return False
    return sum(weights.values()) == result.optimum == sum(duals.values())


def criterion_exact_lp(seed: int = 0) -> _Check:
    """Exact covering optima with re-verified strong-duality certificates."""
    c = _Check()
    cases = [
        ("chi_fb(K3-)", chi_fb(k3_minus().graph), Fraction(3, 2), SetProperty.BALANCED, k3_minus().graph),
        ("chi_fb(K4-)", chi_fb(k4_minus().graph), Fraction(2), SetProperty.BALANCED, k4_minus().graph),
    ]
    c4 = SignedGraph(
        ("a", "b", "c", "d"),
        (("a", "b", -1), ("b", "c", -1), ("c", "d", -1), ("a", "d", -1)),
    )
    cases.append(("a_f(C4)", a_f(c4), Fraction(4, 3), SetProperty.ACYCLIC, c4))
    path = SignedGraph(
        ("a", "b", "c", "d", "e"),
        (("a", "b", 1), ("b", "c", -1), ("c", "d", 1), ("d", "e", -1)),
    )
    star = SignedGraph(
        ("hub", "s1", "s2", "s3"),
        (("hub", "s1", -1), ("hub", "s2", -1), ("hub", "s3", 1)),
    )
    cases.append(("a_f(path)", a_f(path), Fraction(1), SetProperty.ACYCLIC, path))
    cases.append(("a_f(star)", a_f(star), Fraction(1), SetProperty.ACYCLIC, star))
    for label, res, want, prop, host in cases:
        c.expect(res.optimum == want, f"{label} = {res.optimum}, want {want}")
        c.expect(
            _independent_cover_check(host, prop, res),
            f"{label}: certificate re-verification failed",
        )
    c.note("3/2, 2, 4/3, 1, 1 with independently re-verified certificates")
    return c


def random_trace(rng: random.Random, depth: int) -> BuildTrace:
    """A valid trace of the given depth: negative faces and existing edges
    are sampled from the graph built so far."""
    g = k3_minus()
    steps: list[Op1 | Op2] = []
    for idx in range(1, depth + 1):
        if rng.random() < 0.5:
            faces = [t for t, s in all_triangles(g.graph) if s == -1]
            step: Op1 | Op2 = Op1(rng.choice(faces))
        else:
            a, b, _ = rng.choice(g.graph.edges)
            if rng.random() < 0.5:
                a, b = b, a
            step = Op2((a, b))
        g, _ = apply_trace_step(g, step, idx)
        steps.append(step)
    return BuildTrace("K3_MINUS", tuple(steps))


def _composed_ok(c: _Check, trace: BuildTrace, label: str) -> None:
    g = build_from_trace(trace)
    cert = compose_8341(trace)
    c.expect(cert.p == 83 and cert.q == 41, f"{label}: wrong palette")
    rep = verify(g.graph, cert)
    c.expect(rep.ok, f"{label}: verify failed: {rep.violations[:2]}")
    c.expect(
        all(cov == 41 for _, cov in rep.per_vertex_coverage),
        f"{label}: coverage not exactly 41",
    )
    for a, b, _ in g.graph.edges:
        got = overlap(cert, a, b)
        if got not in (13, 14):
            c.expect(False, f"{label}: edge ({a},{b}) overlap {got}")
            break


def criterion_composer(seed: int = 0) -> _Check:
    """The inductive (83, 41)-coloring composer across trace shapes."""
    c = _Check()
    _composed_ok(c, BuildTrace("K3_MINUS"), "empty")
    _composed_ok(c, BuildTrace("K3_MINUS", (Op1(("u1", "u2", "u3")),)), "one apex")

    steps: list[Op1 | Op2] = [Op2((a, b)) for a, b, _ in k3_minus().graph.edges]
    partial = build_from_trace(BuildTrace("K3_MINUS", tuple(steps)))
    steps.extend(Op1(t) for t in partial.marked_triangles)
    _composed_ok(c, BuildTrace("K3_MINUS", tuple(steps)), "triangle-of-gadgets")

    rng = random.Random(seed)
    for k in range(100):
        trace = random_trace(rng, rng.randint(0, 5))
        _composed_ok(c, trace, f"random[{k}]")
        if c.failures:
            break
    c.note("empty, one-apex, gadget-triangle and 100 random traces verified")
    return c


def criterion_bounds(seed: int = 0) -> _Check:
    """Thresholds, the missing-color recurrence, and the ratio dichotomy."""
    c = _Check()
    c.expect(bnd.threshold_83_41() == Fraction(83, 41), "83/41 threshold")
    c.expect(bnd.threshold_172_85() == Fraction(172, 85), "172/85 threshold")
    c.expect(bnd.threshold_52_25() == Fraction(52, 25), "52/25 threshold")
    c.expect(bnd.first_infeasible_index(bnd.BoundParams(2, 1)) == 1, "index(2,1)")
    c.expect(bnd.first_infeasible_index(bnd.BoundParams(83, 41)) is None, "index(83,41)")
    boundary = Fraction(83, 41)
    for q in range(1, 101):
        for p in range(2 * q, (5 * q + 1) // 2 + 1):
            bp = bnd.BoundParams(p, q)
            finite = bnd.first_infeasible_index(bp) is not None
            if finite != (Fraction(p, q) < boundary):
                c.expect(False, f"dichotomy broken at ({p},{q})")
    c.note("thresholds derived; dichotomy at 83/41 over the full q <= 100 scan")
    return c


def criterion_constructions(seed: int = 0) -> _Check:
    """Vertex counts, marked-triangle signs, and simplicity of every builder."""
    c = _Check()
    builds: list[tuple[str, GadgetGraph, int]] = [
        ("w_hat", w_hat(), 10),
        ("w_prime", w_prime(), 16),
        ("w_double_prime", w_double_prime(), 23),
        ("g_hat_k3", g_hat_k3(), 66),
        ("g_sequence(1)", g_sequence(1), 130),
        ("w1", w1_underlying(), 34),
        ("u_hat", u_hat(), 88),
    ]
    for name, g, count in builds:
        c.expect(
            len(g.graph.vertices) == count,
            f"{name} has {len(g.graph.vertices)} vertices, want {count}",
        )
        for t in g.marked_triangles:
            c.expect(
                triangle_sign(g.graph, t) == -1, f"{name}: marked {t} not negative"
            )
        pairs = {(a, b) for a, b, _ in g.graph.edges}
        c.expect(len(pairs) == len(g.graph.edges), f"{name} has parallel edges")
    c.expect(len(u_hat().marked_triangles) == 42, "u_hat must mark 42 triangles")
    c.note("counts 10/16/23/66/130/34, 42 marked on the K4 assembly, all simple")
    return c


def face_sign_audit(builders: dict[str, Callable[[], GadgetGraph]]) -> CriterionResult:
    """Every marked triangle of every named builder is negative, and both
    positive faces of w_hat are positive; ``facts["audits"]`` holds the
    counts and signs."""
    c = _Check()
    audits: dict[str, dict[str, int]] = {}
    for name, builder in builders.items():
        g = builder()
        bad = [t for t in g.marked_triangles if triangle_sign(g.graph, t) != -1]
        audits[name] = {"marked": len(g.marked_triangles), "non-negative": len(bad)}
        c.expect(not bad, f"{name}: marked {bad} not negative")
    wh = w_hat()
    for t in W_HAT_POSITIVE_FACES:
        sign = triangle_sign(wh.graph, t)
        audits[f"positive {','.join(t)}"] = {"sign": sign}
        c.expect(sign == 1, f"face {t} has sign {sign}")
    c.facts["audits"] = audits
    return c.result("triangle-signs", "face-sign audit")


def balance_oracle(g: SignedGraph, members: Iterable[str]) -> bool:
    """Independent balance test: enumerate every simple cycle of the
    induced subgraph and multiply its signs."""
    inside = [v for v in g.vertices if v in set(members)]
    for size in range(3, len(inside) + 1):
        for combo in combinations(inside, size):
            rest = list(combo[1:])
            # all cyclic orders starting at combo[0], up to reflection
            def orders(prefix, remaining):
                if not remaining:
                    yield prefix
                    return
                for i, v in enumerate(remaining):
                    yield from orders(prefix + [v], remaining[:i] + remaining[i + 1:])

            seen = set()
            for perm in orders([combo[0]], rest):
                key = min(tuple(perm), tuple([perm[0]] + perm[:0:-1]))
                if key in seen:
                    continue
                seen.add(key)
                sign = 1
                good = True
                for i, v in enumerate(perm):
                    w = perm[(i + 1) % len(perm)]
                    if not g.has_edge(v, w):
                        good = False
                        break
                    sign *= g.sign(v, w)
                if good and sign == -1:
                    return False
    return True


def random_signed_graph(rng: random.Random) -> SignedGraph:
    n = rng.randint(1, 8)
    names = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                edges.append((names[i], names[j], rng.choice((1, -1))))
    return SignedGraph(names, tuple(edges))


def criterion_properties(seed: int = 0) -> _Check:
    """Randomized property corpus: heredity, switching invariance, witness
    soundness, serialization round trips, and oracle equivalence."""
    c = _Check()
    rng = random.Random(seed)
    graphs = 500
    for k in range(graphs):
        g = random_signed_graph(rng)
        if parse_graph(serialize_graph(g)) != g:
            c.expect(False, f"round trip failed on graph {k}")
            break
        members = tuple(v for v in g.vertices if rng.random() < 0.7)
        fast = is_balanced(g, members)
        slow = balance_oracle(g, members)
        if fast != slow:
            c.expect(False, f"oracle disagrees on graph {k}: {members}")
            break
        witness = negative_cycle_witness(g, members)
        if (witness is None) != fast:
            c.expect(False, f"witness presence contradicts balance on graph {k}")
            break
        if witness is not None:
            sign = 1
            sound = True
            cyc = witness.vertices
            inside = set(members)
            for i, v in enumerate(cyc):
                w = cyc[(i + 1) % len(cyc)]
                if v not in inside or not g.has_edge(v, w):
                    sound = False
                    break
                sign *= g.sign(v, w)
            if not (sound and sign == -1 and len(set(cyc)) == len(cyc) >= 3):
                c.expect(False, f"unsound witness on graph {k}: {witness}")
                break
        if fast:
            sub = tuple(v for v in members if rng.random() < 0.6)
            if not is_balanced(g, sub):
                c.expect(False, f"heredity broken on graph {k}")
                break
        cut = tuple(v for v in g.vertices if rng.random() < 0.5)
        if is_balanced(switch(g, cut), members) != fast:
            c.expect(False, f"switching invariance broken on graph {k}")
            break
    c.note(f"{graphs} random graphs: oracle equality, witnesses, heredity, switching, round trips")
    return c


CRITERIA: dict[str, tuple[str, Callable[[int], _Check]]] = {
    "lemma-3.1": ("balanced-set case analysis", criterion_lemma_3_1),
    "table-1": ("(172,85) certificate", criterion_table_1),
    "tables-2-3": ("(83,41) certificates", criterion_tables_2_3),
    "table-5": ("(52,25) forest certificate", criterion_table_5),
    "forest-lemmas": ("forest facts by brute force", criterion_forest_lemmas),
    "exact-lp": ("exact covering LP values", criterion_exact_lp),
    "composer": ("inductive (83,41) colorings", criterion_composer),
    "bounds": ("inequality-chain arithmetic", criterion_bounds),
    "constructions": ("construction audits", criterion_constructions),
    "properties": ("randomized property suites", criterion_properties),
}


def run_criterion(cid: str, seed: int = 0) -> CriterionResult:
    if cid not in CRITERIA:
        raise KeyError(f"unknown criterion {cid!r}; known: {', '.join(CRITERIA)}")
    title, fn = CRITERIA[cid]
    return fn(seed).result(cid, title)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(cid, seed) for cid in CRITERIA]
