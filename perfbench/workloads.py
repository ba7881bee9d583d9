"""Seeded inputs, timed operations and answer gates of the fracbal benchmark.

Each workload is a list of operations.  An operation has a timed part
(``run``), which calls only public functions of ``fracbal`` through the
package namespace so that the tracer can wrap them, and an untimed gate
(``check``) that compares the answer with a seed-independent reference and
re-checks every certificate the operation produced.

Seeds.  Seed 0 keeps every vertex name.  Any other seed renames the vertices
of every gadget to fresh random names while keeping their declaration
order, so optima, set counts and digests (computed over canonical names)
are unchanged and so is the amount of work.  Declaration order is kept on
purpose: permuting it moves the dense simplex pivot path and the pricing
search order, which changed run times by up to 15x from seed to seed on a
2-vCPU virtual machine (the capped ``w1`` column-generation run took 7 s in
canonical order and 48 to 104 s in three shuffled orders), and no
run-to-run bound could hold.  The
benchmark's tests check separately that a shuffled declaration order gives
the same answers.  On ``trace-pipeline`` the seed draws the build trace;
every pair of steps holds one apex insertion and one edge substitution in
seeded order, so graph sizes at each depth do not depend on the seed.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of ``fracbal``.
"""
from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fracbal as fb  # noqa: E402
from fracbal.certify import Mode  # noqa: E402
from fracbal.families import SetProperty  # noqa: E402
from fracbal import gadgets  # noqa: E402
from fracbal.gadgets import GadgetGraph, Op1, Op2  # noqa: E402
from fracbal.sgraph import SignedGraph, canonical_set  # noqa: E402

if Path(fb.__file__).resolve().parent != SRC / "fracbal":
    raise ImportError(f"fracbal imported from {fb.__file__}, not from {SRC}")

BALANCED = SetProperty.BALANCED
ACYCLIC = SetProperty.ACYCLIC
PROBE_BUDGET_S = 1.0


@dataclass
class Op:
    """One timed operation and its gate.

    ``check`` returns the answer as a short seed-independent string plus a
    list of failed certificate checks.  ``size`` places the operation on the
    workload's scaling sweep; ``largest`` marks the largest instance.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]
    size: int | None = None
    largest: bool = False


# Answers every seed must reproduce.  Set digests are sha256 prefixes over
# the sorted sets, each written as its sorted canonical vertex names.
REFERENCE = {
    "chi_fb(K3-)": "3/2",
    "chi_fb(K4-)": "2",
    "a_f(C4)": "4/3",
    "a_f(path)": "1",
    "a_f(star)": "1",
    "chi_fb(w_hat)": "11/6",
    "a_f(w_hat)": "2",
    "chi_fb(w_prime)": "11/6",
    "colgen(K4-, balanced)": "2",
    "colgen(w_hat, balanced)": "11/6",
    "colgen(w_hat, acyclic)": "2",
    "colgen(w_prime, balanced)": "11/6",
    "colgen(w_hat, balanced, 2 iterations)": "capped",
    "colgen(w1, balanced, 2 iterations)": "capped",
    "maximal balanced(w_hat)": "42 sets 6e8edee74eb49d83",
    "maximal balanced(w_prime)": "244 sets 1dc7cb9d4cf9d4cd",
    "maximal balanced(w_double_prime)": "3501 sets e53757904fc9f236",
    "all balanced(w_hat)": "379 sets 0292001a775cc44b",
    "all acyclic(w_hat)": "320 sets 09a7435364364ff3",
    "all balanced(w_prime)": "13729 sets f6fb6449b32b0ca3",
    "all acyclic(w_prime)": "9810 sets 07ad71617ef58189",
    "lemma(w_prime)": "holds",
    "lemma(w_double_prime)": "holds",
}


# ---------------------------------------------------------------- inputs


def _plain(vertices: Iterable[str], edges) -> GadgetGraph:
    return GadgetGraph(SignedGraph(tuple(vertices), tuple(edges)))


def c4() -> GadgetGraph:
    return _plain("abcd", (("a", "b", -1), ("b", "c", -1), ("c", "d", -1), ("a", "d", -1)))


def path5() -> GadgetGraph:
    return _plain("abcde", (("a", "b", 1), ("b", "c", -1), ("c", "d", 1), ("d", "e", -1)))


def star() -> GadgetGraph:
    return _plain(
        ("hub", "s1", "s2", "s3"),
        (("hub", "s1", -1), ("hub", "s2", -1), ("hub", "s3", 1)),
    )


@dataclass(frozen=True)
class Instance:
    """A gadget under seeded names; ``canonical`` maps each name back."""

    gadget: GadgetGraph
    canonical: dict[str, str]

    @property
    def graph(self) -> SignedGraph:
        return self.gadget.graph


def relabel(g: GadgetGraph, rng: random.Random | None) -> Instance:
    """Rename every vertex to a fresh random name, keeping declaration order.

    ``rng=None`` (seed 0) keeps the names.
    """
    names = g.graph.vertices
    if rng is None:
        return Instance(g, {v: v for v in names})
    fresh = [f"r{k}" for k in rng.sample(range(10_000, 100_000), len(names))]
    to = dict(zip(names, fresh))
    graph = SignedGraph(tuple(fresh), tuple((to[a], to[b], s) for a, b, s in g.graph.edges))
    marked = tuple(canonical_set(graph, (to[v] for v in t)) for t in g.marked_triangles)
    terminals = {role: to[v] for role, v in g.terminals.items()}
    return Instance(GadgetGraph(graph, terminals, marked), dict(zip(fresh, names)))


def shuffle_order(g: GadgetGraph, rng: random.Random) -> GadgetGraph:
    """The same gadget with its vertex declaration order shuffled."""
    order = list(g.graph.vertices)
    rng.shuffle(order)
    graph = SignedGraph(tuple(order), g.graph.edges)
    marked = tuple(canonical_set(graph, t) for t in g.marked_triangles)
    return GadgetGraph(graph, dict(g.terminals), marked)


def set_digest(sets: Iterable[Iterable[str]], canonical: dict[str, str]) -> str:
    """Order-independent digest of a set family under canonical names."""
    rows = sorted(",".join(sorted(canonical[v] for v in s)) for s in sets)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def seeded_trace(seed: int, depth: int) -> fb.BuildTrace:
    """A valid build trace from the all-negative triangle.

    Faces and edges are sampled from the graph built so far, as
    ``acceptance.random_trace`` does; each pair of steps is one apex
    insertion and one edge substitution in seeded order.
    """
    rng = random.Random(seed)
    g = fb.k3_minus()
    steps: list[Op1 | Op2] = []
    kinds: tuple = ()
    for idx in range(1, depth + 1):
        if idx % 2:
            kinds = tuple(rng.sample((Op1, Op2), 2))
        if kinds[(idx - 1) % 2] is Op1:
            faces = [t for t, sign in fb.all_triangles(g.graph) if sign == -1]
            step: Op1 | Op2 = Op1(rng.choice(faces))
        else:
            a, b, _ = rng.choice(g.graph.edges)
            if rng.random() < 0.5:
                a, b = b, a
            step = Op2((a, b))
        g, _ = gadgets.apply_trace_step(g, step, idx)
        steps.append(step)
    return fb.BuildTrace("K3_MINUS", tuple(steps))


# ----------------------------------------------------------------- gates


def _certificate_errors(graph: SignedGraph, cert: fb.Certificate, optimum: Fraction) -> list[str]:
    errors = []
    if Fraction(cert.p, cert.q) != optimum:
        errors.append(f"certificate ratio {cert.p}/{cert.q} != {optimum}")
    report = fb.verify(graph, cert)
    if not report.ok:
        errors.append(f"certificate rejected: {report.violations[:1]}")
    return errors


def _lp_op(name: str, inst: Instance, prop: SetProperty, size: int | None = None,
           largest: bool = False) -> Op:
    solve = fb.chi_fb if prop is BALANCED else fb.a_f
    mode = Mode.BALANCED if prop is BALANCED else Mode.FOREST

    def run():
        res = solve(inst.graph)
        return res, fb.lp_to_certificate(res, mode)

    def check(out):
        res, cert = out
        return str(res.optimum), _certificate_errors(inst.graph, cert, res.optimum)

    return Op(name, run, check, size, largest)


def _master_errors(inst: Instance, res, mode: Mode) -> list[str]:
    cert = fb.lp_to_certificate(res.result, mode)
    return _certificate_errors(inst.graph, cert, res.result.optimum)


def _colgen_op(name: str, inst: Instance, prop: SetProperty, max_iterations: int | None = None,
               time_budget: float | None = None, size: int | None = None,
               largest: bool = False) -> Op:
    mode = Mode.BALANCED if prop is BALANCED else Mode.FOREST

    def run():
        return fb.column_generation(inst.graph, prop, max_iterations=max_iterations,
                                    time_budget=time_budget)

    def check(res):
        if res.result is None:
            return "no master", ["column generation returned no master result"]
        errors = _master_errors(inst, res, mode)
        if res.completed:
            if not res.lower == res.upper == res.result.optimum:
                errors.append(f"completed run with interval [{res.lower}, {res.upper}]")
            return str(res.optimum), errors
        if not 0 < res.lower <= res.upper == res.result.optimum:
            errors.append(f"capped interval [{res.lower}, {res.upper}] is not ordered")
        if max_iterations is not None and res.iterations != max_iterations:
            errors.append(f"capped after {res.iterations} iterations, not {max_iterations}")
        return "capped", errors

    return Op(name, run, check, size, largest)


def _enum_op(name: str, inst: Instance, prop: SetProperty, maximal: bool,
             size: int | None = None, largest: bool = False) -> Op:
    def run():
        return fb.enumerate_sets(inst.graph, prop, maximal_only=maximal)

    def check(fam):
        return f"{len(fam.sets)} sets {set_digest(fam.sets, inst.canonical)}", []

    return Op(name, run, check, size, largest)


def _lemma_op(name: str, inst: Instance) -> Op:
    def run():
        return fb.check_missing_triangle_lemma(inst.gadget)

    def check(out):
        ok, witness = out
        if ok:
            return "holds", []
        return "fails at " + ",".join(sorted(inst.canonical[v] for v in witness)), []

    return Op(name, run, check)


def expected_size(trace: fb.BuildTrace) -> tuple[int, int]:
    """Vertex and edge counts a trace must build: an apex adds one vertex and
    three edges, a w_prime copy 14 vertices and its edges minus the merged one."""
    wp = fb.w_prime().graph
    subs = sum(isinstance(s, Op2) for s in trace.steps)
    applied = len(trace.steps) - subs
    return (3 + applied + subs * (len(wp.vertices) - 2),
            3 + 3 * applied + subs * (len(wp.edges) - 1))


def pipeline_errors(graph: SignedGraph, cert: fb.Certificate, report) -> list[str]:
    """Independent (83, 41) audit: exact coverage 41 and edge overlaps 13 or 14."""
    errors = []
    if not report.ok:
        errors.append(f"verify rejected the coloring: {report.violations[:1]}")
    if (cert.p, cert.q) != (83, 41):
        errors.append(f"palette ({cert.p}, {cert.q}) is not (83, 41)")
    masks = dict.fromkeys(graph.vertices, 0)
    color = 0
    for members, rep in cert.classes:
        block = ((1 << rep) - 1) << color
        color += rep
        for v in members:
            if v not in masks:
                errors.append(f"class holds unknown vertex {v!r}")
                return errors
            masks[v] |= block
    if color > 83:
        errors.append(f"{color} colors used")
    low = [v for v, m in masks.items() if m.bit_count() != 41]
    if low:
        errors.append(f"{len(low)} vertices not covered exactly 41 times, e.g. {low[0]!r}")
    bad = [(a, b) for a, b, _ in graph.edges if (masks[a] & masks[b]).bit_count() not in (13, 14)]
    if bad:
        errors.append(f"{len(bad)} edges with overlap outside {{13, 14}}, e.g. {bad[0]}")
    return errors


def _pipeline_op(trace: fb.BuildTrace, depth: int, largest: bool) -> Op:
    prefix = fb.BuildTrace(trace.base, trace.steps[:depth])
    want = expected_size(prefix)

    def run():
        g = fb.build_from_trace(prefix)
        cert = fb.compose_8341(prefix)
        return g.graph, cert, fb.verify(g.graph, cert)

    def check(out):
        graph, cert, report = out
        got = (len(graph.vertices), len(graph.edges))
        errors = pipeline_errors(graph, cert, report)
        if got != want:
            errors.append(f"built {got[0]} vertices and {got[1]} edges, want {want}")
        return f"{got[0]} vertices {got[1]} edges", errors

    return Op(f"pipeline(depth {depth})", run, check, depth, largest)


def gate(op: Op, out: object) -> tuple[str, list[str]]:
    """The operation's answer and every way in which it is wrong."""
    answer, errors = op.check(out)
    want = REFERENCE.get(op.name)
    if want is not None and answer != want:
        errors = [f"answer {answer!r}, want {want!r}", *errors]
    return answer, errors


# ------------------------------------------------------------- workloads


GADGETS: dict[str, Callable[[], GadgetGraph]] = {
    "K3-": fb.k3_minus, "K4-": fb.k4_minus, "C4": c4, "path": path5, "star": star,
    "w_hat": fb.w_hat, "w_prime": fb.w_prime, "w_double_prime": fb.w_double_prime,
    "w1": fb.w1_underlying,
}
# LP rows of chi_fb: the number of maximal balanced sets
MAXIMAL_BALANCED_SETS = {"K4-": 6, "w_hat": 42, "w_prime": 244}


def _instances(seed: int, names: Iterable[str]) -> dict[str, Instance]:
    rng = random.Random(seed) if seed else None
    return {name: relabel(GADGETS[name](), rng) for name in dict.fromkeys(names)}


def exact_lp(seed: int, small: bool) -> list[Op]:
    # the scaling sweep is chi_fb against the number of maximal balanced sets
    lower, upper = ("K4-", "w_hat") if small else ("w_hat", "w_prime")
    g = _instances(seed, ("K3-", "K4-", "C4", "path", "star", "w_hat", upper))

    def chi(name: str) -> Op:
        sweep = MAXIMAL_BALANCED_SETS[name] if name in (lower, upper) else None
        return _lp_op(f"chi_fb({name})", g[name], BALANCED, size=sweep, largest=name == upper)

    ops = [chi("K3-"), chi("K4-")]
    ops += [_lp_op(f"a_f({name})", g[name], ACYCLIC) for name in ("C4", "path", "star")]
    ops += [chi("w_hat"), _lp_op("a_f(w_hat)", g["w_hat"], ACYCLIC)]
    if not small:
        ops.append(chi("w_prime"))
    return ops


def colgen(seed: int, small: bool) -> list[Op]:
    # the scaling sweep is balanced column generation against vertex count;
    # the capped run stops after two iterations
    lower, upper, capped = ("K4-", "w_hat", "w_hat") if small else ("w_hat", "w_prime", "w1")
    g = _instances(seed, (lower, upper, capped, "w_hat"))
    return [
        _colgen_op(f"colgen({lower}, balanced)", g[lower], BALANCED,
                   size=len(g[lower].graph.vertices)),
        _colgen_op(f"colgen({upper}, balanced)", g[upper], BALANCED,
                   size=len(g[upper].graph.vertices), largest=True),
        _colgen_op("colgen(w_hat, acyclic)", g["w_hat"], ACYCLIC),
        _colgen_op(f"colgen({capped}, balanced, 2 iterations)", g[capped], BALANCED, 2),
    ]


def enumerate_(seed: int, small: bool) -> list[Op]:
    # the scaling sweep is maximal balanced enumeration against vertex count
    lower, upper = ("w_hat", "w_prime") if small else ("w_prime", "w_double_prime")
    g = _instances(seed, (lower, upper))
    return [
        _enum_op(f"maximal balanced({lower})", g[lower], BALANCED, True,
                 size=len(g[lower].graph.vertices)),
        _enum_op(f"maximal balanced({upper})", g[upper], BALANCED, True,
                 size=len(g[upper].graph.vertices), largest=True),
        _enum_op(f"all balanced({lower})", g[lower], BALANCED, False),
        _enum_op(f"all acyclic({lower})", g[lower], ACYCLIC, False),
        _lemma_op(f"lemma({upper})", g[upper]),
    ]


def trace_pipeline(seed: int, small: bool) -> list[Op]:
    depths = (10, 20, 40) if small else (100, 200, 400)
    trace = seeded_trace(seed, depths[-1])
    return [_pipeline_op(trace, d, d == depths[-1]) for d in depths]


BUILD = {
    "exact-lp": exact_lp,
    "colgen": colgen,
    "enumerate": enumerate_,
    "trace-pipeline": trace_pipeline,
}
WORKLOADS = tuple(BUILD)


def build(workload: str, seed: int, small: bool = False) -> list[Op]:
    """Set-up: make the workload's seeded inputs and its operations."""
    return BUILD[workload](seed, small)


def budget_probe(seed: int, small: bool = False) -> Op:
    """``column_generation(w1, balanced, time_budget=1.0)`` (``w_hat`` when
    small); its duration minus the budget is the overshoot.  Its iteration
    count depends on the clock, so it stays out of the end-to-end metrics."""
    name = "w_hat" if small else "w1"
    inst = _instances(seed, (name,))[name]
    label = f"budget probe colgen({name}, balanced, {PROBE_BUDGET_S:g} s)"
    return _colgen_op(label, inst, BALANCED, time_budget=PROBE_BUDGET_S)
