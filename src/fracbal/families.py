"""Exhaustive and maximal enumeration of balanced / acyclic vertex sets.

Both properties are hereditary (every subset of a good set is good), and so
are the ``avoid`` constraints.  One integer search core serves enumeration
here and, in ``cover``, enumerates the good subsets of each clique-separator
atom as the rows of the pricing DP and runs the pricing walk on hosts with
an atom too large for rows: vertices are indices in canonical order, a set
is a bitmask over them, and the chosen set sits on a rollback parity
union-find.  The walk is an explicit-stack loop over include/exclude
decisions in canonical order, include branch first, which fixes the output
order without a sorting pass; results are identical across runs.

Maximal enumeration needs no test at the leaves.  A vertex that cannot join
the chosen set at its turn never can further down (heredity).  A vertex
excluded while it could still join stays *pending*, stored with its reach:
the vertices next to it or sharing an avoid set with it and, when it touches
two or more chosen components, the vertices next to any of those.  With at
most one such component nothing else can block it: its chosen neighbours
sit in that component at consistent parities (one neighbour if acyclic),
and growing or merging the component never changes the parities inside it.
Only including a vertex of its reach can block a pending vertex, so only
then is it re-tested; once blocked it leaves the list.  A
pending vertex whose reach holds no undecided vertex can never be blocked,
so every set below would extend by it and the branch is cut.  Every leaf
the walk reaches is therefore maximal.

A vertex z whose neighbourhood is a clique (a simplicial vertex, such as an
apex on a triangle) is its own atom of the clique-separator decomposition,
so whether it can join a good set S depends on S ∩ N(z) alone.  A cycle
through z leaves it by two neighbours x and y, which are adjacent; the chord
xy splits the cycle into the triangle z, x, y and a cycle inside S, and the
sign of the whole is the product of the two.  So z can join a balanced S
iff no two chosen neighbours close a negative triangle with it, and a
forest iff at most one neighbour is chosen.  When the last candidates are
pairwise non-adjacent simplicial vertices in no avoid set with another
vertex (the *simplicial tail*), none of them changes whether another can
join, and any one left out while it could join stays unblockable, so below
a complete choice of the earlier candidates the include-first walk reaches
at most one leaf: that choice plus every tail vertex that can join.  A
maximal walk therefore branches only on the earlier candidates and settles
the tail in one step.  The set is maximal iff every pending vertex p is now
blocked, and by the same chord argument a cycle through p that is bad only
with the tail added passes through a joined tail vertex z next to p that
blocks p: p and a chosen neighbour of z close a negative triangle with z,
or (acyclic) z has another chosen neighbour.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .gadgets import GadgetGraph
from .sgraph import GraphError, ParityDSU, SignedGraph, _assembled, canonical_set
from .sgraph import names_of, sets_hold

MAXIMAL_SIZE_GUARD = 24
FULL_SIZE_GUARD = 16


class GuardExceeded(RuntimeError):
    """Instance too large for exhaustive enumeration."""


class SetProperty(Enum):
    BALANCED = "balanced"
    ACYCLIC = "acyclic"


@dataclass(frozen=True)
class SetFamily:
    """Vertex sets with a property, each checked on construction.

    ``nodes`` and ``leaves`` count the search-tree nodes and leaves of the
    enumeration that produced the family (0 for families built by callers);
    equality ignores them.  A node is a state the walk visits: a partial
    choice about to decide its next candidate, or a complete one.  A
    maximal walk settles the whole simplicial tail in the node of a complete
    choice of the other candidates, and that node is a leaf only when it
    yields a set.
    """

    host: SignedGraph
    property: SetProperty
    sets: tuple[tuple[str, ...], ...]
    maximal_only: bool = False
    nodes: int = field(default=0, compare=False)
    leaves: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        # looked up per call, so that a wrapper installed on sgraph sees them
        from .sgraph import is_acyclic, is_balanced

        holds = is_balanced if self.property is SetProperty.BALANCED else is_acyclic
        for s in self.sets:
            if not holds(self.host, s):
                raise GraphError(f"set {s} violates {self.property.value}")

    @classmethod
    def _trusted(
        cls, host: SignedGraph, prop: SetProperty, sets: tuple[tuple[str, ...], ...],
        maximal_only: bool = False, nodes: int = 0, leaves: int = 0,
    ) -> SetFamily:
        """A family of sets that the search core produced, which hold the
        property by construction, built without re-checking them."""
        return _assembled(
            cls, host=host, property=prop, sets=sets, maximal_only=maximal_only,
            nodes=nodes, leaves=leaves,
        )


class _Core:
    """Integer search state over ``g``: the chosen set as a bitmask over a
    rollback parity union-find.

    Vertex i is ``g.vertices[i]``, and ascending bit order is canonical
    order.  ``nbrs`` and ``near`` are the graph's shared index form: per
    vertex, its ``(j, negative)`` pairs and neighbour mask.  ``reach0`` adds
    to that mask the other members of every avoid set containing the vertex.
    Each union-find root carries the union of its members' neighbour masks.
    A walk saves ``(chosen, dsu.mark())`` before a branch and ``restore``s
    it after.  Sets come out as masks, which ``sgraph.names_of`` names.
    """

    def __init__(
        self, g: SignedGraph, prop: SetProperty, avoid: Iterable[Iterable[str]] = ()
    ) -> None:
        n = len(g.vertices)
        idx = g.index
        self.acyclic = prop is SetProperty.ACYCLIC
        self.nbrs, self.near = g._neighbours
        self.dsu = ParityDSU(n, self.near)
        self.reach0 = list(self.near)
        self.partners: list[list[int]] = [[] for _ in range(n)]
        for a in avoid:
            members = {idx.get(v, -1) for v in a}
            if not members or -1 in members:
                continue  # an empty set or a stranger can never be swallowed
            whole = sum(1 << i for i in members)
            for i in members:
                self.partners[i].append(whole & ~(1 << i))
                self.reach0[i] |= whole & ~(1 << i)
        self.chosen = 0

    def scan(self, v: int) -> dict[int, int] | None:
        """The roots of the chosen components next to v, each with v's parity
        relative to it; None when v cannot join the chosen set."""
        chosen = self.chosen
        for others in self.partners[v]:
            if others & chosen == others:
                return None
        parent, parity = self.dsu.parent, self.dsu.parity
        roots: dict[int, int] = {}
        for w, p in self.nbrs[v]:
            if chosen >> w & 1:
                while parent[w] != w:
                    p ^= parity[w]
                    w = parent[w]
                if w in roots:
                    if self.acyclic or roots[w] != p:
                        return None
                else:
                    roots[w] = p
        return roots

    def reach(self, v: int, roots: dict[int, int]) -> int:
        """The vertices whose inclusion can block v, given ``scan(v)``.

        With at most one chosen component next to v, that is ``reach0[v]``:
        v's chosen neighbours then lie in one component at consistent
        parities (acyclic: there is one), and growing or merging that
        component never changes the parities inside it, so only a new
        neighbour of v or a completed avoid set can close a bad cycle
        through v.  With two or more, a merge of two of them can, so the
        neighbour masks of their roots join in."""
        r = self.reach0[v]
        if len(roots) > 1:
            for x in roots:
                r |= self.dsu.mask[x]
        return r

    def attach(self, v: int, roots: dict[int, int]) -> None:
        """Add v, joining it to the components ``scan(v)`` returned."""
        self.chosen |= 1 << v
        self.dsu.join(v, roots)

    def restore(self, chosen: int, mark: int) -> None:
        self.chosen = chosen
        self.dsu.rollback(mark)

    def simplicial_tail(self, cand: list[int]) -> int:
        """The length of the longest suffix of ``cand`` whose vertices are
        pairwise non-adjacent, share no avoid set with another vertex and
        each have a clique as neighbourhood."""
        near, tail = self.near, 0
        for k in range(len(cand) - 1, -1, -1):
            z = cand[k]
            if self.partners[z] or near[z] & tail or any(
                near[z] & ~near[x] != 1 << x for x, _ in self.nbrs[z]
            ):
                return len(cand) - 1 - k
            tail |= 1 << z
        return len(cand)

    def _tail_rules(self, tail: list[int]) -> list[tuple[int, list[tuple[int, int]]]]:
        """Per vertex z of a simplicial tail, its bit and, for each neighbour
        x, the bit of x with the neighbours y of z such that x and y chosen
        together block z: every other neighbour if acyclic, else those that
        close a negative triangle z, x, y."""
        rules = []
        for z in tail:
            pairs = []
            for x, zx in self.nbrs[z]:
                if self.acyclic:
                    bad = self.near[z] & ~(1 << x)
                else:
                    xy = dict(self.nbrs[x])
                    bad = sum(1 << y for y, zy in self.nbrs[z] if y != x and zx ^ zy ^ xy[y])
                pairs.append((1 << x, bad))
            rules.append((1 << z, pairs))
        return rules

    def _settle(self, rules: list[tuple[int, list[tuple[int, int]]]], pending: tuple) -> int | None:
        """The chosen set plus every tail vertex of ``rules`` that can join
        it, or None when that set leaves a pending vertex unblocked.

        A tail vertex joins iff no blocking pair of its neighbours is
        chosen; it then blocks a pending neighbour p iff p with a chosen
        neighbour of it would be such a pair."""
        chosen = self.chosen
        final, blocked = chosen, 0
        for zbit, pairs in rules:
            hit = 0
            for xbit, bad in pairs:
                if bad & chosen:
                    if xbit & chosen:
                        break
                    hit |= xbit
            else:
                final |= zbit
                blocked |= hit
        for p, _ in pending:
            if not blocked >> p & 1:
                return None
        return final

    def walk_sets(self, cand: list[int], maximal: bool) -> tuple[list[int], int, int]:
        """Every good set (every maximal one if ``maximal``) of the chosen set
        plus vertices of ``cand`` (ascending), as masks in include-first
        order, with the numbers of search nodes and leaves visited.

        A maximal walk branches only on the vertices before the simplicial
        tail of ``cand`` and settles the tail in one node per complete
        prefix; that node is a leaf only when it yields a set."""
        m = len(cand)
        undecided = [0] * (m + 1)  # mask of cand[i:]
        for i in range(m - 1, -1, -1):
            undecided[i] = undecided[i + 1] | 1 << cand[i]
        tail = self._tail_rules(cand[m - self.simplicial_tail(cand):]) if maximal else []
        m -= len(tail)
        scan, reach, attach, mark = self.scan, self.reach, self.attach, self.dsu.mark
        out: list[int] = []
        nodes = leaves = 0
        stack: list[tuple[int, tuple, int, int, int]] = []  # exclude branches left
        i, pending, alive = 0, (), True  # pending: (vertex, reach) pairs
        while True:
            if alive:
                nodes += 1
                if i == m:
                    s = self._settle(tail, pending) if tail else self.chosen
                    if s is not None:
                        leaves += 1
                        if s:
                            out.append(s)
                    alive = False
                    continue
                v = cand[i]
                i += 1
                roots = scan(v)
                if roots is None:  # v stays out for good
                    alive = all(rp & undecided[i] for _, rp in pending)
                else:
                    r = reach(v, roots) if maximal else 0
                    stack.append((i, pending, self.chosen, mark(), r))
                    attach(v, roots)
                    if pending:
                        pending, alive = self._retest(pending, v, undecided[i])
                continue
            if not stack:
                return out, nodes, leaves
            i, pending, chosen, at, r = stack.pop()
            self.restore(chosen, at)
            if maximal:  # v was excluded while it could still join
                alive = bool(r & undecided[i]) and all(rp & undecided[i] for _, rp in pending)
                pending += ((cand[i - 1], r),)
            else:
                alive = True

    def _retest(self, pending: tuple, v: int, undec: int) -> tuple[tuple, bool]:
        """The pending vertices after v was included, and whether the branch
        lives on."""
        kept = []
        for p, rp in pending:
            if rp >> v & 1:
                roots = self.scan(p)
                if roots is None:
                    continue  # blocked for good
                rp = self.reach(p, roots)
            if not rp & undec:
                return pending, False
            kept.append((p, rp))
        return tuple(kept), True

    def walk_price(
        self, cand: list[int], weights: list[int], bound: list[int]
    ) -> tuple[int, int, int]:
        """The largest total weight of a good set within ``cand`` (ascending,
        positive integer weights), the first such set in include-first order
        as a mask, and the number of search nodes.  ``bound[i]`` must be at
        least the weight of any good set within ``cand[i:]``."""
        scan, attach, mark = self.scan, self.attach, self.dsu.mark
        best = best_set = nodes = 0
        stack: list[tuple[int, int, int, int]] = []  # exclude branches left
        i = weight = 0
        while True:
            nodes += 1
            if weight + bound[i] > best:
                if i == len(cand):
                    best, best_set = weight, self.chosen
                else:
                    roots = scan(cand[i])
                    if roots is not None:
                        stack.append((i + 1, weight, self.chosen, mark()))
                        attach(cand[i], roots)
                        weight += weights[i]
                    i += 1
                    continue
            if not stack:
                return best, best_set, nodes
            i, weight, chosen, at = stack.pop()
            self.restore(chosen, at)


def enumerate_sets(
    g: SignedGraph,
    prop: SetProperty,
    *,
    maximal_only: bool = False,
    must_contain: Sequence[str] = (),
    forbid: Sequence[str] = (),
    avoid: Sequence[Iterable[str]] = (),
    size_guard: int | None = None,
) -> SetFamily:
    """All nonempty vertex sets with the property, optionally only the
    maximal ones, under containment constraints.

    ``avoid`` lists vertex sets that must not be fully contained; this
    constraint is hereditary like the property itself, so maximality is
    certified within the constrained family.  Maximality is relative to the
    allowed universe (vertices outside ``forbid``).  Raises GuardExceeded
    when the host is too large for exhaustive search.
    """
    guard = size_guard if size_guard is not None else (
        MAXIMAL_SIZE_GUARD if maximal_only else FULL_SIZE_GUARD
    )
    if len(g.vertices) > guard:
        raise GuardExceeded(
            f"{len(g.vertices)} vertices exceeds guard {guard};"
            " consider column generation"
        )
    need = canonical_set(g, must_contain)
    banned = set(canonical_set(g, forbid))
    if banned & set(need):
        raise GraphError("must_contain and forbid overlap")

    core = _Core(g, prop, avoid)
    for v in need:
        roots = core.scan(g.index[v])
        if roots is None:
            return SetFamily._trusted(g, prop, (), maximal_only)
        core.attach(g.index[v], roots)
    cand = [
        i for i, v in enumerate(g.vertices)
        if not core.chosen >> i & 1 and v not in banned
    ]
    masks, nodes, leaves = core.walk_sets(cand, maximal_only)
    sets = tuple(names_of(g, s) for s in masks)
    return SetFamily._trusted(g, prop, sets, maximal_only, nodes, leaves)


def triangles_missed(s: Iterable[str], marked: Sequence[tuple[str, ...]]) -> list[int]:
    """Indices of marked triangles disjoint from s."""
    inside = set(s)
    return [i for i, t in enumerate(marked) if not inside & set(t)]


def lemma_case_sets(
    g: GadgetGraph, positive_faces: Sequence[tuple[str, str, str]]
) -> tuple[tuple[str, ...], ...]:
    """The balanced-set case universe for the missing-triangle argument.

    Two kinds of balanced sets containing both terminals matter: the maximal
    ones outright, and the maximal ones among sets that contain no full
    positive face (a set swallowing a positive face cannot be grown past it,
    yet its face-avoiding subsets branch differently).  The union of the two
    enumerations, in canonical order, is the complete case list.
    """
    u = g.terminal("u")
    v = g.terminal("v")
    plain = enumerate_sets(
        g.graph, SetProperty.BALANCED, maximal_only=True, must_contain=(u, v)
    )
    avoiding = enumerate_sets(
        g.graph,
        SetProperty.BALANCED,
        maximal_only=True,
        must_contain=(u, v),
        avoid=positive_faces,
    )
    union = dict.fromkeys(plain.sets + avoiding.sets)
    return tuple(sorted(union, key=lambda s: tuple(g.graph.index[x] for x in s)))


def check_missing_triangle_lemma(g: GadgetGraph) -> tuple[bool, tuple[str, ...] | None]:
    """Does every maximal balanced set containing both terminals miss at
    least one marked triangle?

    Heredity makes maximal sets sufficient: a counterexample extends to a
    maximal counterexample.  Returns (False, witness set) on failure.
    """
    u = g.terminal("u")
    v = g.terminal("v")
    fam = enumerate_sets(
        g.graph, SetProperty.BALANCED, maximal_only=True, must_contain=(u, v)
    )
    for s in fam.sets:
        if not triangles_missed(s, g.marked_triangles):
            return False, s
    return True, None


@dataclass(frozen=True)
class ForestLemmaReport:
    max_order: int
    max_order_with_terminals: int
    top_sets_with_u: int
    top_sets_with_u_hitting_hubs: int

    @property
    def hubs_ok(self) -> bool:
        return self.top_sets_with_u == self.top_sets_with_u_hitting_hubs


def check_forest_lemmas(g: GadgetGraph) -> ForestLemmaReport:
    """Brute-force acyclic-set facts for the 10-vertex core graph.

    Scans all vertex subsets and reports the maximum induced-forest order,
    the maximum containing both terminals, and whether every maximum-order
    forest containing u includes at least two of the hub vertices z, t, x1.
    """
    graph = g.graph
    n = len(graph.vertices)
    if n > 20:
        raise GuardExceeded(f"{n} vertices is too many for a full subset scan")
    u = g.terminal("u")
    v = g.terminal("v")
    hub_set = {"z", "t", "x1"}
    verts = graph.vertices
    subsets = [tuple(verts[i] for i in range(n) if bits >> i & 1) for bits in range(1 << n)]
    # bit j of vertex i's mask is set iff the vertex is in subsets[j]
    masks = [sum(1 << bits for bits in range(1 << n) if bits >> i & 1) for i in range(n)]
    acyclic_sets = [s for s, ok in zip(subsets, sets_hold(graph, masks, 1 << n, acyclic=True)) if ok]
    max_order = max(map(len, acyclic_sets))
    max_uv = max((len(s) for s in acyclic_sets if u in s and v in s), default=0)
    with_u = [s for s in acyclic_sets if len(s) == max_order and u in s]
    hitting = [s for s in with_u if len(hub_set & set(s)) >= 2]
    return ForestLemmaReport(max_order, max_uv, len(with_u), len(hitting))
