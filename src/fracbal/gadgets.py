"""Gadget constructors and the two graph-surgery operations that combine them.

The building blocks are small planar signed graphs engineered so that the
two terminals u and v are forced to share few colors in any fractional
balanced coloring:

* ``w_hat``          10-vertex wheel-like core with terminals u, v
* ``w_prime``        w_hat with both positive faces completed by a 6-vertex
                     mini gadget (16 vertices, 7 marked negative triangles)
* ``w_double_prime`` w_prime with an apex inside each marked triangle,
                     turning it into an all-negative-K4 block (23 vertices)

Larger graphs are assembled by ``substitute_edge`` (replace an edge by a
gadget copy whose u-v edge is identified with it) and ``glue_triangle``
(identify a negative triangle of a guest with one of the host).  Copies are
switched where needed so that identified edges agree in sign; switching
preserves every cycle sign, so balance properties survive.

Each surgery is implemented once, on a private mutable builder that
freezes into a GadgetGraph.  The public surgery functions thaw, apply one
operation and freeze; trace replay and the constructors keep one builder
throughout, so replaying a trace takes time linear in its length.  A
builder only ever adds, so freezing validates what it added and shares
the rest with the graph it was thawed from: one surgery step costs Python
work in the size of what it adds, plus C-level copies of the parent.  Every
gadget copy, a mini completion's too, is grafted from a plan its guest
compiles once per identified order and switching, so a trace's
substitutions replay one plan of w_prime; only an apex is added by hand.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .sgraph import (
    Edge,
    GraphError,
    SignedGraph,
    _assembled,
    _derived,
    canonical_set,
    load_json,
    triangle_sign,
)


class TraceError(ValueError):
    """A build trace step whose precondition fails; carries the step index."""

    def __init__(self, step: int, message: str) -> None:
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class GadgetGraph:
    """A signed graph plus named terminals and a set of marked triangles.

    Every marked triangle must be a negative 3-clique of the graph; this is
    validated on construction, so holding a GadgetGraph is itself a
    face-sign audit of its marked set.
    """

    graph: SignedGraph
    terminals: Mapping[str, str] = field(default_factory=dict)
    marked_triangles: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        _check_gadget(self.graph, self.terminals, self.marked_triangles)

    def terminal(self, role: str) -> str:
        try:
            return self.terminals[role]
        except KeyError:
            raise GraphError(f"gadget has no terminal {role!r}") from None


def _check_gadget(
    graph: SignedGraph, terminals: Mapping[str, str], marked: Iterable[tuple[str, str, str]]
) -> None:
    for role, v in terminals.items():
        if not graph.has_vertex(v):
            raise GraphError(f"terminal {role}={v!r} not in graph")
    for t in marked:
        if triangle_sign(graph, t) != -1:
            raise GraphError(f"marked triangle {t} is not negative")


def _face(
    g: SignedGraph | _Builder, t: Iterable[str], sign: int, what: str = "triangle"
) -> tuple[str, str, str]:
    """``t`` in canonical order, checked to be a triangle of sign ``sign``."""
    s = canonical_set(g, t)  # type: ignore[arg-type]
    if len(s) != 3:
        raise GraphError(f"expected 3 vertices, got {len(s)}")
    if triangle_sign(g, s) != sign:  # type: ignore[arg-type]
        raise GraphError(f"{what} {s} is not {'negative' if sign < 0 else 'positive'}")
    return s  # type: ignore[return-value]


def _fresh_name(g: _Builder, prefix: str) -> str:
    k = 1
    while f"{prefix}{k}" in g.index:
        k += 1
    return f"{prefix}{k}"


class _Builder:
    """A gadget graph under construction, and the one implementation of
    every surgery.  An operation checks its preconditions before it changes
    anything and costs time in the size of what it adds (a graft that
    identifies a marked triangle also scans the marked list).  The builder
    reads like a SignedGraph, so ``canonical_set`` and ``triangle_sign``
    apply to it and report the same errors.

    A builder never removes or re-signs what it was thawed from, which was
    validated when that graph was built.  So ``freeze`` validates only the
    added edges and marked triangles (and the terminals), with the checks
    and messages of ``SignedGraph`` and ``GadgetGraph``, and builds the
    graph from its parent's (see ``sgraph._derived``).  The thaw copies the
    vertex list and the dicts at C speed but shares the parent's neighbour
    dicts until an operation first adds an edge at one (``_own``).  Every
    operation adds each vertex's new neighbours in canonical order, so no
    neighbour dict needs sorting.  Freezing hands the builder's dicts to
    the graph, so a builder freezes once.  ``_graft`` adds every gadget
    copy, a mini completion's (``_MINI``) too, from a plan memoised on the
    guest graph (``_graft_plan``).  An apex, one vertex, is the one addition
    written by hand: a plan would cost it more than it saves.
    """

    def __init__(self, g: GadgetGraph) -> None:
        self.parent = g
        self.vertices = list(g.graph.vertices)
        self.index = dict(g.graph.index)
        self.adj = dict(g.graph.adj)
        self.terminals = dict(g.terminals)
        self.marked = list(g.marked_triangles)
        self.added: list[Edge] = []

    # they read only ``index`` and ``adj``, which the builder keeps current
    has_vertex = SignedGraph.has_vertex
    has_edge = SignedGraph.has_edge
    sign = SignedGraph.sign

    def freeze(self) -> GadgetGraph:
        parent = self.parent
        graph = _derived(parent.graph, tuple(self.vertices), self.index, self.adj, self.added)
        marked = tuple(self.marked)
        _check_gadget(graph, self.terminals, marked[len(parent.marked_triangles):])
        return _assembled(GadgetGraph, graph=graph, terminals=self.terminals, marked_triangles=marked)

    def _own(self, vs: Iterable[str]) -> None:
        """Give each inherited vertex of ``vs`` its own neighbour dict, so
        that adding edges at it leaves the parent as it was."""
        shared = self.parent.graph.adj
        inherited = len(shared)
        for v in vs:
            if self.index[v] < inherited and self.adj[v] is shared[v]:
                self.adj[v] = dict(shared[v])

    def add_apex(self, t: Iterable[str], apex: str | None) -> str:
        """See ``complete_negative_face``; returns the apex name."""
        tt = _face(self, t, -1)
        if apex is None:
            apex = _fresh_name(self, "n")
        if not isinstance(apex, str):
            raise GraphError(f"apex name must be a string, got {apex!r}")
        if self.has_vertex(apex):
            raise GraphError(f"apex name {apex!r} already in graph")
        t1, t2, t3 = tt
        s2, s3 = self.sign(t1, t2), self.sign(t1, t3)
        self._own(tt)
        self.index[apex] = len(self.vertices)
        self.vertices.append(apex)
        self.adj[apex] = {t1: -1, t2: s2, t3: s3}
        self.adj[t1][apex], self.adj[t2][apex], self.adj[t3][apex] = -1, s2, s3
        self.added += ((t1, apex, -1), (t2, apex, s2), (t3, apex, s3))
        return apex

    def add_mini(self, t: Iterable[str], prime_names: tuple[str, str, str] | None) -> None:
        """See ``complete_positive_face``; grafts ``_MINI`` onto the face."""
        tt = _face(self, t, 1)
        if prime_names is None:
            base = _fresh_name(self, "m")
            prime_names = (base + "a", base + "b", base + "c")
        if not _names(prime_names, 3):
            raise GraphError(f"prime_names must be three vertex names, got {prime_names!r}")
        for name in prime_names:
            if self.has_vertex(name):
                raise GraphError(f"vertex name {name!r} already in graph")
        if len(set(prime_names)) != 3:
            raise GraphError("duplicate vertex name")
        face, primes, sign = _MINI.graph.vertices[:3], _MINI.graph.vertices[3:], self.sign
        switched = {face[i] for i in range(3) if sign(tt[i], tt[i - 1]) != sign(tt[i], tt[i - 2])}
        self._graft(_MINI, dict(zip(face, tt)), switched, dict(zip(primes, prime_names)).__getitem__)

    def substitute(
        self, e: tuple[str, str], gadget: GadgetGraph, suffix: str | int
    ) -> dict[str, str]:
        """See ``substitute_edge``; returns the copy's name mapping."""
        x, y = e
        if not self.has_edge(x, y):
            raise GraphError(f"({x!r}, {y!r}) is not an edge of the host")
        gu = gadget.terminal("u")
        gv = gadget.terminal("v")
        guest = gadget.graph
        if not guest.has_edge(gu, gv):
            raise GraphError("gadget terminals u and v are not adjacent")
        switched = {gv} if guest.sign(gu, gv) != self.sign(x, y) else set()
        return self._graft(gadget, {gu: x, gv: y}, switched, lambda v: f"{v}#{suffix}")

    def glue(
        self, t_host: Iterable[str], guest: GadgetGraph, t_guest: Iterable[str], suffix: str | int
    ) -> None:
        """See ``glue_triangle``."""
        th = _face(self, t_host, -1, "host triangle")
        tg = _face(guest.graph, t_guest, -1, "guest triangle")
        # switching these matches the edges to tg[2], and then the third
        # edge too, since both triangles are negative
        gsign = guest.graph.sign
        switched = {tg[i] for i in (0, 1) if gsign(tg[i], tg[2]) != self.sign(th[i], th[2])}
        self._graft(guest, dict(zip(tg, th)), switched, lambda v: f"{v}#{suffix}")

    def _graft(
        self,
        guest: GadgetGraph,
        identified: Mapping[str, str],
        switched: set[str],
        name: Callable[[str], str],
    ) -> dict[str, str]:
        """Copy ``guest`` switched at ``switched``: ``identified`` vertices
        map to host vertices, each other vertex v to a new one ``name(v)``,
        and an edge between two identified vertices merges with the host's.
        The guest's marked triangles are appended, mapped, but for one on
        identified vertices alone that is marked already.  It runs the
        guest graph's plan for these identified vertices in host order and
        this switching, compiled on first use (``_graft_plan``)."""
        graph = guest.graph
        hosts = tuple(sorted(identified, key=lambda v: self.index[identified[v]]))
        key = (hosts, frozenset(switched))
        if key not in graph._memo:
            graph._memo[key] = _graft_plan(graph, hosts, switched)
        copies, copy_nbrs, host_nbrs, added = graph._memo[key]
        mapping = {v: identified[v] if v in identified else name(v) for v in graph.vertices}
        names = [mapping[v] for v in copies]
        for new in names:
            if new in self.index:
                raise GraphError(f"fresh name {new!r} collides with host")
        self._own(identified.values())
        local = [identified[v] for v in hosts] + names
        first = len(self.vertices)
        self.index.update(zip(names, range(first, first + len(names))))
        self.vertices += names
        for new, pairs in zip(names, copy_nbrs):
            self.adj[new] = {local[i]: s for i, s in pairs}
        for host, pairs in zip(local, host_nbrs):
            self.adj[host].update({local[i]: s for i, s in pairs})
        self.added += [(local[a], local[b], s) for a, b, s in added]
        # sorted into canonical order, which ``freeze`` checks; a triangle whose
        # last vertex predates the copy lies on identified vertices alone
        order = self.index.__getitem__
        for t in guest.marked_triangles:
            mt = tuple(sorted(map(mapping.__getitem__, t), key=order))
            if order(mt[2]) >= first or mt not in self.marked:
                self.marked.append(mt)
        return mapping

    def apply(self, step: Op1 | Op2, idx: int) -> dict[str, str] | str:
        """See ``apply_trace_step``; returns its second value."""
        try:
            if isinstance(step, Op1):
                return self.add_apex(step.face, f"k{idx}")
            return self.substitute(step.edge, _w_prime_template(), idx)
        except GraphError as exc:
            raise TraceError(idx, str(exc)) from exc


def _graft_plan(guest: SignedGraph, hosts: tuple[str, ...], switched: set[str]) -> tuple:
    """What ``_Builder._graft`` adds for ``guest`` with ``hosts`` identified,
    in host order, and switched at ``switched``, over local ids: the hosts
    in that order, then the copies in guest order.  Returns the copies, each
    copy's and each host's new neighbours as (id, sign) pairs in insertion
    order, and the added edges as (id, id, sign)."""
    copies = tuple(v for v in guest.vertices if v not in hosts)
    local = {v: i for i, v in enumerate(hosts + copies)}
    nbrs: list[list[tuple[int, int]]] = [[] for _ in local]
    added = []
    # each copy with its edges to identified vertices, in host order, then
    # the edges between copies: every neighbour dict stays canonical
    edges = [(v, w, guest.adj[w][v]) for w in copies for v in hosts if v in guest.adj[w]]
    edges += [(a, b, s) for a, b, s in guest.edges if a not in hosts and b not in hosts]
    for a, b, s in edges:
        i, j = local[a], local[b]
        s = -s if (a in switched) != (b in switched) else s
        added.append((i, j, s))
        nbrs[i].append((j, s))
        nbrs[j].append((i, s))
    return copies, nbrs[len(hosts):], nbrs[: len(hosts)], added


# the mini gadget on an all-positive face t0 t1 t2: prime p_j misses t_j, sees
# t_{j-1} by +1 and t_{j+1} by -1, and the primes form a marked all-negative
# triangle; ``add_mini`` switches it at each t_i whose face edges differ in sign
_MINI = GadgetGraph(
    SignedGraph(
        ("t0", "t1", "t2", "p0", "p1", "p2"),
        (("t0", "t1", 1), ("t0", "t2", 1), ("t1", "t2", 1), ("p0", "t2", 1), ("p0", "t1", -1),
         ("p1", "t0", 1), ("p1", "t2", -1), ("p2", "t1", 1), ("p2", "t0", -1),
         ("p0", "p1", -1), ("p0", "p2", -1), ("p1", "p2", -1)),
    ),
    {},
    (("p0", "p1", "p2"),),
)


def k3_minus() -> GadgetGraph:
    """All-negative triangle on u1, u2, u3; the triangle is marked."""
    g = SignedGraph(
        ("u1", "u2", "u3"),
        (("u1", "u2", -1), ("u1", "u3", -1), ("u2", "u3", -1)),
    )
    return GadgetGraph(g, {}, (("u1", "u2", "u3"),))


def k4_minus() -> GadgetGraph:
    """All-negative K4 on u1..u4; all four triangles are marked."""
    names = ("u1", "u2", "u3", "u4")
    edges = tuple(
        (names[i], names[j], -1) for i in range(4) for j in range(i + 1, 4)
    )
    g = SignedGraph(names, edges)
    marked = (
        ("u1", "u2", "u3"),
        ("u1", "u2", "u4"),
        ("u1", "u3", "u4"),
        ("u2", "u3", "u4"),
    )
    return GadgetGraph(g, {}, marked)


def complete_negative_face(g: GadgetGraph, t: Iterable[str], apex: str | None = None) -> GadgetGraph:
    """Add an apex inside negative triangle ``t`` so the new K4 block is
    switching equivalent to the all-negative K4.

    Sign choice: the apex edge to the canonically least triangle vertex is
    -1; the other two signs are then forced by requiring every apex
    triangle to be negative.  ``apex`` must be a new name.
    """
    b = _Builder(g)
    b.add_apex(t, apex)
    return b.freeze()


def complete_positive_face(
    g: GadgetGraph,
    t: Iterable[str],
    prime_names: tuple[str, str, str] | None = None,
) -> GadgetGraph:
    """Complete a positive triangle with the 6-vertex mini gadget.

    Three new vertices are added, one "prime" per triangle vertex, where
    prime(t_i) is adjacent to the other two triangle vertices but not to
    t_i, and the primes form an all-negative inner triangle, which is
    appended to the marked set.  The result is the reference completion of
    an all-positive triangle switched to agree with ``t``: with s_i the
    product of the two triangle edges at t_i, edge t_i-prime(t_{i+1}) gets
    sign s_i and edge t_i-prime(t_{i+2}) gets sign -s_i (indices cyclic in
    canonical order).  ``prime_names`` must be three new, distinct names.
    """
    b = _Builder(g)
    b.add_mini(t, prime_names)
    return b.freeze()


_W_HAT_EDGES: tuple[tuple[str, str, int], ...] = (
    ("w", "x1", -1), ("w", "x2", -1), ("w", "x3", -1), ("w", "x4", -1), ("w", "x5", -1),
    ("x1", "x2", -1), ("x2", "x3", -1), ("x3", "x4", -1), ("x4", "x5", -1), ("x1", "x5", -1),
    ("z", "x2", -1), ("z", "x3", -1),
    ("t", "x4", -1), ("t", "x5", -1),
    ("u", "x1", -1), ("u", "x2", 1), ("u", "x5", -1), ("u", "z", -1), ("u", "t", -1),
    ("v", "x3", -1), ("v", "x4", 1), ("v", "z", -1), ("v", "t", -1),
    ("u", "v", -1),
)


def w_hat() -> GadgetGraph:
    """The 10-vertex core gadget with terminals u, v.

    A hub w inside a 5-cycle x1..x5, two extra vertices z, t, and the two
    terminals.  Only u-x2 and v-x4 are positive; the faces u-x1-x2 and
    v-x3-x4 are positive triangles, and the five marked triangles are
    negative.
    """
    g = SignedGraph(("w", "x1", "x2", "x3", "x4", "x5", "z", "t", "u", "v"), _W_HAT_EDGES)
    marked = (
        ("w", "x1", "x2"),
        ("w", "x1", "x5"),
        ("w", "x3", "x4"),
        ("x2", "x3", "z"),
        ("x4", "x5", "t"),
    )
    return GadgetGraph(g, {"u": "u", "v": "v"}, marked)


# the two positive faces of w_hat, completed with mini gadgets in w_prime,
# and the primes of their vertices there (the mini vertex not adjacent to each)
W_HAT_POSITIVE_FACES = (("u", "x1", "x2"), ("v", "x3", "x4"))
W_PRIME_FACE_PRIMES = (("a1", "a2", "a3"), ("b1", "b2", "b3"))


def w_prime() -> GadgetGraph:
    """w_hat with both positive faces completed; 16 vertices, 7 marked triangles."""
    b = _Builder(w_hat())
    # canonical order of (u, x1, x2) is (x1, x2, u); primes in that order
    # are a2 = prime(x1), a3 = prime(x2), a1 = prime(u)
    for face, primes in zip(W_HAT_POSITIVE_FACES, (("a2", "a3", "a1"), ("b2", "b3", "b1"))):
        b.add_mini(face, primes)
    return b.freeze()


@lru_cache(maxsize=None)
def _w_prime_template() -> GadgetGraph:
    """One ``w_prime()`` for every substitution of a trace replay, which
    only reads it; it must never be changed."""
    return w_prime()


def w_double_prime() -> GadgetGraph:
    """w_prime with an apex completing each of the 7 marked triangles; 23 vertices."""
    b = _Builder(w_prime())
    for i, t in enumerate(list(b.marked), start=1):
        b.add_apex(t, f"c{i}")
    return b.freeze()


def substitute_edge(
    g: GadgetGraph,
    e: tuple[str, str],
    gadget: GadgetGraph,
    suffix: str | int = "s",
) -> GadgetGraph:
    """Replace edge ``e = (x, y)`` by a fresh copy of ``gadget``.

    The copy's u terminal is identified with x and its v terminal with y;
    the copy's u-v edge is merged with e.  When the gadget's u-v sign
    differs from the host edge sign, the copy is switched at its v
    terminal first, which preserves all cycle signs inside the copy.
    Non-terminal copy vertices are renamed with ``#<suffix>``; the copy's
    marked triangles are appended.
    """
    b = _Builder(g)
    b.substitute(e, gadget, suffix)
    return b.freeze()


def glue_triangle(
    host: GadgetGraph,
    t_host: Iterable[str],
    guest: GadgetGraph,
    t_guest: Iterable[str],
    suffix: str | int = "g",
) -> GadgetGraph:
    """Identify a negative triangle of ``guest`` with one of ``host``.

    The triangles' vertices are matched in canonical order.  The guest copy
    is switched at a subset of the identified vertices so the three shared
    edge signs agree with the host; both triangles being negative, such a
    subset always exists.  Shared edges are merged, other guest vertices
    are renamed with ``#<suffix>``.
    """
    b = _Builder(host)
    b.glue(t_host, guest, t_guest, suffix)
    return b.freeze()


def _edges_replaced(base: GadgetGraph, gadget: GadgetGraph) -> GadgetGraph:
    """``base`` with its k-th edge replaced by a ``gadget`` copy suffixed k;
    the base's own marked triangles are dropped."""
    b = _Builder(GadgetGraph(base.graph, {}, ()))
    for i, (x, y, _) in enumerate(base.graph.edges, start=1):
        b.substitute((x, y), gadget, i)
    return b.freeze()


def u_hat() -> GadgetGraph:
    """K4 with every edge replaced by a w_prime copy; 88 vertices, 42 marked triangles."""
    return _edges_replaced(k4_minus(), w_prime())


def g_hat_k3() -> GadgetGraph:
    """Triangle with every edge replaced by a w_double_prime copy; 66 vertices."""
    return _edges_replaced(k3_minus(), w_double_prime())


_G_SEQUENCE_MAX_LEVEL = 2  # level 3 would have hundreds of thousands of vertices


def g_sequence(i: int) -> GadgetGraph:
    """The iterated gadget family: level 0 is the all-negative K4, and each
    later level is u_hat with a fresh copy of the previous level glued onto
    every one of its 42 marked triangles.

    Sizes grow geometrically, hence the depth guard.  The guest's outer
    triangle is the lexicographically least triangle of its base K4, which
    is always (u1, u2, u3).
    """
    if i < 0:
        raise GraphError("level must be nonnegative")
    if i > _G_SEQUENCE_MAX_LEVEL:
        raise TraceError(i, f"depth guard exceeded ({i} > {_G_SEQUENCE_MAX_LEVEL})")
    g = k4_minus()
    for _ in range(i):
        b = _Builder(u_hat())
        for k, t in enumerate(b.marked[:42], start=1):
            b.glue(t, g, ("u1", "u2", "u3"), f"g{k}")
        g = b.freeze()
    return g


def w1_underlying() -> GadgetGraph:
    """34-vertex unsigned view (all signs -1) used for arboricity runs.

    Start from the underlying graph of w_hat and replace the three edges
    u-z, u-x1, u-t, each by a distinct all-negative copy of the same graph,
    with the copy's u identified with the host u.
    """
    core = w_hat().graph
    unsigned = SignedGraph(core.vertices, tuple((a, b, -1) for a, b, _ in core.edges))
    gadget = GadgetGraph(unsigned, {"u": "u", "v": "v"}, ())
    b = _Builder(gadget)
    for i, other in enumerate(("z", "x1", "t"), start=1):
        b.substitute(("u", other), gadget, i)
    return b.freeze()


@dataclass(frozen=True)
class Op1:
    """Insert an apex inside a negative facial triangle."""

    face: tuple[str, str, str]


@dataclass(frozen=True)
class Op2:
    """Replace an edge by a fresh w_prime copy (u identified with the first
    endpoint, v with the second)."""

    edge: tuple[str, str]


def _names(value: object, count: int) -> bool:
    """True iff ``value`` is a list or tuple of ``count`` vertex names."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == count
        and all(isinstance(v, str) for v in value)
    )


@dataclass(frozen=True)
class BuildTrace:
    """Recipe for building a graph from an all-negative base triangle or K4."""

    base: str  # "K3_MINUS" or "K4_MINUS"
    steps: tuple[Op1 | Op2, ...] = ()

    def __post_init__(self) -> None:
        if self.base not in ("K3_MINUS", "K4_MINUS"):
            raise GraphError(f"unknown trace base {self.base!r}")

    @classmethod
    def from_json(cls, text: str) -> "BuildTrace":
        obj = load_json(text, GraphError)
        if not isinstance(obj, dict):
            raise GraphError("trace document must be a JSON object")
        raw_steps = obj.get("steps", [])
        if not isinstance(raw_steps, list):
            raise GraphError("'steps' must be a list")
        steps: list[Op1 | Op2] = []
        for k, entry in enumerate(raw_steps, start=1):
            if not isinstance(entry, dict):
                raise TraceError(k, "step entry must be a JSON object")
            op = entry.get("op")
            if op == "inner_k4":
                face = entry.get("face")
                if not _names(face, 3):
                    raise TraceError(k, "inner_k4 needs a 3-vertex face")
                steps.append(Op1(tuple(face)))
            elif op == "substitute_w_prime":
                edge = entry.get("edge")
                if not _names(edge, 2):
                    raise TraceError(k, "substitute_w_prime needs a 2-vertex edge")
                steps.append(Op2(tuple(edge)))
            else:
                raise TraceError(k, f"unknown op {op!r}")
        return cls(obj.get("base", ""), tuple(steps))

    def to_json(self) -> str:
        steps = []
        for s in self.steps:
            if isinstance(s, Op1):
                steps.append({"op": "inner_k4", "face": list(s.face)})
            else:
                steps.append({"op": "substitute_w_prime", "edge": list(s.edge)})
        return json.dumps({"base": self.base, "steps": steps}, indent=2)


def apply_trace_step(
    g: GadgetGraph, step: Op1 | Op2, idx: int
) -> tuple[GadgetGraph, dict[str, str] | str]:
    """Apply one trace step with deterministic naming by step index.

    Returns the new gadget plus the apex name (Op1) or the copy's
    template-to-fresh name mapping (Op2).
    """
    b = _Builder(g)
    info = b.apply(step, idx)
    return b.freeze(), info


def build_from_trace(trace: BuildTrace) -> GadgetGraph:
    """Replay a build trace; step preconditions are reported by index."""
    b = _Builder(k3_minus() if trace.base == "K3_MINUS" else k4_minus())
    for idx, step in enumerate(trace.steps, start=1):
        b.apply(step, idx)
    return b.freeze()
