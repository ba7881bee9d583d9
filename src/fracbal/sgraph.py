"""Signed graphs: data model, serialization, switching, and balance testing.

A signed graph is a simple undirected graph with a sign (+1 or -1) on every
edge.  A vertex set is *balanced* when the subgraph it induces contains no
cycle whose edge-sign product is -1.  ``sets_hold`` decides balance (or
acyclicity) for many sets at once, given as class bitmasks in vertex order:
it eliminates the vertices last first, merging each into a neighbour in
every set at once with big-int operations over the sets.  If the sweep
stops at a vertex with too many links, a parity union-find over vertex
indices joins, per set, what is left.  ``peel`` can first drop from each
set, in one more pass, vertices on no cycle of it, which changes no answer.
Only a set that fails is walked again, by a BFS over its induced subgraph,
for an explicit cycle witness.

Vertex declaration order is the canonical order used for all deterministic
output (sorted sets, sorted edge lists, witness extraction).  The layers
that work on vertex masks over indices share one index form per graph,
built on first use and not inherited: the index edges, each vertex's
neighbours and neighbour mask, and the name tables behind
``names_by_key``.  The only union-find here is the one that
``sets_hold`` runs on what its sweep leaves; the search over vertex masks
keeps its own, with rollback, in ``families``.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph input, or an operation on vertices not in the graph."""


@dataclass(frozen=True)
class CycleWitness:
    """A cyclic vertex sequence whose consecutive pairs are edges.

    ``sign`` is the product of the edge signs along the cycle.
    """

    vertices: tuple[str, ...]
    sign: int


@dataclass(frozen=True)
class SignedGraph:
    """Immutable simple signed graph.

    ``vertices`` fixes the canonical order.  Each edge is stored as
    ``(a, b, sign)`` with ``a`` before ``b`` in canonical order, and the
    edge list is sorted; two graphs are equal iff they have the same
    vertex order and the same signed edges.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise GraphError("duplicate vertex name")
        normalized = _normalized_edges(self.edges, index)
        object.__setattr__(self, "edges", tuple(normalized[k] for k in sorted(normalized)))
        object.__setattr__(self, "index", index)

    @cached_property
    def adj(self) -> dict[str, dict[str, int]]:
        """Each vertex's neighbours, with edge signs, in canonical order."""
        nbrs: dict[str, dict[str, int]] = {v: {} for v in self.vertices}
        # the edge list is sorted, so every dict is filled in canonical order
        for a, b, sign in self.edges:
            nbrs[a][b] = sign
            nbrs[b][a] = sign
        return nbrs

    @cached_property
    def _index_edges(self) -> tuple[tuple[int, int, bool], ...]:
        """Each edge as ``(i, j, negative)``, in ``edges`` order."""
        index = self.index
        return tuple((index[a], index[b], sign < 0) for a, b, sign in self.edges)

    @cached_property
    def _neighbours(self) -> tuple[tuple[tuple[tuple[int, bool], ...], ...], tuple[int, ...]]:
        """Per vertex index, its ``(j, negative)`` pairs in ascending j, as
        the sorted edge list yields them, and its neighbour mask; tuples,
        since every reader shares them."""
        n = len(self.vertices)
        nbrs: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
        near = [0] * n
        for i, j, negative in self._index_edges:
            nbrs[i].append((j, negative))
            nbrs[j].append((i, negative))
            near[i] |= 1 << j
            near[j] |= 1 << i
        return tuple(map(tuple, nbrs)), tuple(near)

    @cached_property
    def _name_tables(self) -> list[_NameTable]:
        """The memo behind ``names_by_key``: per byte of a vertex mask, a table
        whose entry r is the names of the bits of the byte that reverses r."""
        return [_NameTable(self.vertices[lo:lo + 8]) for lo in range(0, len(self.vertices), 8)]

    @cached_property
    def _triangles(self) -> tuple[tuple[tuple[str, str, str], int], ...]:
        """The memo behind ``all_triangles``; ``_derived`` hands it on."""
        out = []
        idx = self.index
        for a in self.vertices:
            adj_a = self.adj[a]
            for b, ab in adj_a.items():
                if idx[b] <= idx[a]:
                    continue
                for c, bc in self.adj[b].items():
                    if idx[c] <= idx[b] or c not in adj_a:
                        continue
                    out.append(((a, b, c), ab * bc * adj_a[c]))
        return tuple(out)

    @cached_property
    def _clique_tree(self) -> tuple[Atom, ...]:
        """The memo behind ``clique_tree``."""
        return _atoms(self)

    @cached_property
    def _memo(self) -> dict:
        """Structures that the layers above derive from the graph once,
        each under its own key; never compared, printed or inherited."""
        return {}

    def has_vertex(self, v: str) -> bool:
        return v in self.index

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.adj.get(a, {})

    def sign(self, a: str, b: str) -> int:
        try:
            return self.adj[a][b]
        except KeyError:
            raise GraphError(f"no edge ({a!r}, {b!r})") from None

    def induced_edges(self, members: Iterable[str]) -> Iterator[tuple[str, str, int]]:
        inside = set(members)
        for a, b, sign in self.edges:
            if a in inside and b in inside:
                yield a, b, sign


Edge = tuple[str, str, int]


def _normalized_edges(
    edges: Iterable[Edge], index: dict[str, int], known: dict[str, dict[str, int]] | None = None
) -> dict[int, Edge]:
    """Validate ``edges`` and key each one, its endpoints in canonical
    order, by ``index[a] * n + index[b]``.  ``known`` is the adjacency of
    edges validated before, on the first ``len(known)`` vertices, which
    ``edges`` must not repeat."""
    n = len(index)
    inherited = len(known) if known else 0
    normalized: dict[int, Edge] = {}
    for a, b, sign in edges:
        if a not in index or b not in index:
            raise GraphError(f"unknown vertex in edge ({a!r}, {b!r})")
        if a == b:
            raise GraphError(f"loop at {a!r} is not allowed")
        if sign not in (1, -1):
            raise GraphError(f"edge sign must be +1 or -1, got {sign!r}")
        ia, ib = index[a], index[b]
        if ia > ib:
            a, b, ia, ib = b, a, ib, ia
        key = ia * n + ib
        if key in normalized or (ib < inherited and b in known[a]):  # type: ignore[index]
            raise GraphError(f"duplicate edge ({a!r}, {b!r})")
        normalized[key] = (a, b, sign)
    return normalized


def _merged(old: tuple, new: list, key: Callable[[object], int]) -> tuple:
    """Merge ``new`` into ``old``, both sorted by ``key`` and disjoint: one
    bisection per new item and C-level slices of ``old`` between them."""
    out: list = []
    lo = 0
    for i, item in enumerate(new):
        if lo == len(old):
            out += new[i:]
            break
        at = bisect_left(old, key(item), lo, key=key)
        out += old[lo:at]
        out.append(item)
        lo = at
    else:
        out += old[lo:]
    return tuple(out)


def _assembled(cls: type, **fields: object):
    """An instance of the frozen dataclass ``cls`` holding ``fields``,
    without running its validation."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _derived(
    parent: SignedGraph,
    vertices: tuple[str, ...],
    index: dict[str, int],
    adj: dict[str, dict[str, int]],
    added: Iterable[Edge],
) -> SignedGraph:
    """``parent`` plus the vertices after its own in ``vertices`` and the
    edges ``added``, validating only what was added.

    ``index`` and ``adj`` already describe the whole graph and are handed
    over.  Every neighbour dict must already be in canonical order, and
    ``adj`` may share the parent's dicts of vertices that no added edge
    touches.  If the parent's triangle list is memoised, the graph
    inherits it plus the triangles through the added edges, the only new
    ones.
    """
    normalized = _normalized_edges(added, index, parent.adj)
    n = len(index)
    new = [normalized[k] for k in sorted(normalized)]
    edges = _merged(parent.edges, new, lambda e: index[e[0]] * n + index[e[1]])
    graph = _assembled(SignedGraph, vertices=vertices, edges=edges, index=index, adj=adj)
    inherited = parent.__dict__.get("_triangles")
    if inherited is not None:
        found = set()
        for a, b, _ in new:
            for c in adj[a].keys() & adj[b].keys():
                found.add(tuple(sorted((a, b, c), key=index.__getitem__)))

        def key(t: tuple[str, str, str]) -> int:
            return (index[t[0]] * n + index[t[1]]) * n + index[t[2]]

        fresh = [((a, b, c), adj[a][b] * adj[b][c] * adj[a][c]) for a, b, c in sorted(found, key=key)]
        object.__setattr__(graph, "_triangles", _merged(inherited, fresh, lambda e: key(e[0])))
    return graph


# per byte, the byte with its bits in reverse order
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class _NameTable(dict):
    """The names of one byte of vertex masks, keyed by the bit-reversed
    byte r: bit 7 - j of r stands for the byte's vertex j.  Entry r is the
    entry for r with its lowest bit cleared plus that bit's name, filled on
    first use, so a table never holds more than 256 entries."""

    def __init__(self, names: tuple[str, ...]) -> None:
        super().__init__({0: ()})
        self.names = names

    def __missing__(self, r: int) -> tuple[str, ...]:
        low = r & -r
        entry = self[r ^ low] + (self.names[8 - low.bit_length()],)
        self[r] = entry
        return entry


def include_first_keys(g: SignedGraph, masks: Iterable[int]) -> list[bytes]:
    """The include-first keys of vertex masks of ``g``, sorted into
    include-first order: the order of a walk over the vertices in canonical
    order that takes the include branch first.  A key is its mask as
    bytes, lowest vertices first, with each byte's bits reversed, so vertex
    0 is the key's first bit and include-first order is descending key
    order.  Masks already in that order are one run, sorted in linear
    time."""
    width = (len(g.vertices) + 7) // 8
    keys = [m.to_bytes(width, "little").translate(_REVERSED) for m in masks]
    keys.sort(reverse=True)
    return keys


def names_by_key(g: SignedGraph, keys: list[bytes]) -> list[tuple[str, ...]]:
    """The names of many vertex masks, each given by its include-first key,
    from ``g``'s name tables: one pass over the keys per byte position, in
    which byte k of a key indexes table k.  A single mask is named as a
    batch of one."""
    names = [()] * len(keys)
    for k, table in enumerate(g._name_tables):
        names = [head + table[key[k]] for head, key in zip(names, keys)]
    return names


def canonical_set(g: SignedGraph, members: Iterable[str]) -> tuple[str, ...]:
    """Sort ``members`` by canonical vertex order, rejecting strangers and dups."""
    out = []
    seen = set()
    for v in members:
        if v not in g.index:
            raise GraphError(f"vertex {v!r} not in graph")
        if v in seen:
            raise GraphError(f"duplicate member {v!r}")
        seen.add(v)
        out.append(v)
    out.sort(key=g.index.__getitem__)
    return tuple(out)


# the sweep of ``sets_hold`` stops at the first vertex with more links than
# this, so that no elimination costs more than _WIDTH ** 2 / 2 pair updates
_WIDTH = 8


def sets_hold(g: SignedGraph, masks: list[int], count: int, acyclic: bool) -> list[bool]:
    """For each of ``count`` vertex sets, whether it induces a forest
    (``acyclic``) or no cycle with edge-sign product -1.  Bit j of
    ``masks[i]``, a list in ``g.vertices`` order, is set iff vertex i is in
    set j.

    Every set is settled at once by vertex elimination (Rose, Tarjan and
    Lueker 1976), last vertex first, on big-int masks over the sets.  A
    vertex's links join it to lower vertices: its edges, in the sets that
    hold both ends, and the fill links higher vertices left on it, each
    with the sets in which it is odd.  In each set the vertex merges into
    its highest linked neighbour u, whose fill links (u, x) take over its
    other links x with the parity of the path through it.  That keeps every
    cycle of the set with its sign, or shortens it to two links of one
    pair, which fail the set when their parities differ, or at all when
    ``acyclic``; by Harary's criterion a set that never fails holds.  The
    sweep stops at the first vertex with more than ``_WIDTH`` links; then a
    parity union-find over vertex indices, shared by all sets and reset
    after each, joins per set not yet failed the edges and fill links left
    among the vertices not eliminated.  On every graph the builder makes,
    declared in build order, the sweep runs to the end.  Masks ``peel`` has
    shrunk give the same answers.
    """
    n = len(g.vertices)
    if isinstance(masks, dict) or len(masks) != n:
        raise ValueError(f"masks must be a list of {n} class bitmasks in vertex order")
    if masks and (min(masks) < 0 or max(masks) >> count):
        raise ValueError(f"class bitmasks must lie in [0, 2**{count})")
    below: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for e in g._index_edges:
        below[e[1]].append(e)
    # fill[u][x] is (P, Q), the sets with a fill link from u to a lower x
    # and the sets in which it is odd
    fill: list[dict[int, tuple[int, int]] | None] = [None] * n
    odd = -1 if acyclic else 0  # in a forest, two links of one pair clash at any parity
    bad = 0
    stop = -1
    for v in range(n - 1, -1, -1):
        mv = masks[v] & ~bad if bad else masks[v]  # a failed set needs no more links
        links = fill[v] or {}
        for a, _, negative in below[v]:
            p = masks[a] & mv
            if p:
                q = p if negative else 0
                old = links.get(a)
                if old is not None:
                    bad |= old[0] & p & (odd | old[1] ^ q)
                    p |= old[0]
                    q |= old[1]
                links[a] = p, q
        if len(links) > _WIDTH:
            fill[v] = links
            stop = v
            break
        fill[v] = None
        if len(links) < 2:
            continue
        order = sorted(links.items(), reverse=True)
        seen = 0
        for i, (u, (pu, qu)) in enumerate(order):
            first = pu & ~seen  # the sets in which v merges into u
            seen |= pu
            if not first:
                continue
            to = fill[u]
            if to is None:
                to = fill[u] = {}
            for x, (px, qx) in order[i + 1:]:
                p = first & px
                if p:
                    q = (qu ^ qx) & p
                    old = to.get(x)
                    if old is not None:
                        bad |= old[0] & p & (odd | old[1] ^ q)
                        p |= old[0]
                        q |= old[1]
                    to[x] = p, q
    # bit j of ``bad`` to ``out[j]``; the marker bit at ``count`` keeps its leading zeros
    out = [bit == "0" for bit in reversed(bin(bad | 1 << count)[3:])]
    if stop < 0:
        return out

    def rest():
        """The edges among the vertices below ``stop`` and every fill link
        left, split by parity, each with the sets that hold it."""
        for e in g._index_edges:
            if e[1] < stop:  # ``stop``'s own edges are in its links
                yield e, masks[e[0]] & masks[e[1]]
        for u, links in enumerate(fill[:stop + 1]):
            for x, (p, q) in (links or {}).items():
                yield (x, u, False), p & ~q
                yield (x, u, True), q

    induced: list[list[tuple[int, int, bool]]] = [[] for _ in range(count)]
    for e, both in rest():
        while both:
            low = both & -both
            induced[low.bit_length() - 1].append(e)
            both ^= low
    up = list(range(n))
    parity = [0] * n  # parity of the link to ``up``
    rank = [0] * n
    for j, edges in enumerate(induced):
        if not out[j]:
            continue
        touched = []
        for a, b, pb in edges:
            pa = 0
            while up[a] != a:
                pa ^= parity[a]
                a = up[a]
            while up[b] != b:
                pb ^= parity[b]
                b = up[b]
            if a == b:
                if acyclic or pa != pb:
                    out[j] = False
                    break
                continue
            if rank[a] < rank[b]:
                a, b = b, a
            elif rank[a] == rank[b]:
                rank[a] += 1
                touched.append(a)
            up[b], parity[b] = a, pa ^ pb
            touched.append(b)
        for v in touched:  # a root's parity is never read
            up[v] = v
            rank[v] = 0
    return out


def peel(g: SignedGraph, masks: list[int]) -> list[int]:
    """Class bitmasks as ``sets_hold`` takes them, with vertices on no
    cycle of a set dropped from it.  A vertex with at most one neighbour
    left in a set is on none of its cycles, so dropping it changes no
    balance or forest answer.  One pass over the index edges lists, per
    vertex, the neighbours it shares some set with; then each vertex, last
    first, keeps the sets in which it still has two neighbours, counted
    bit-sliced over the sets.  Each set keeps its 2-core (Seidman 1983)."""
    nbrs: list[list[int]] = [[] for _ in masks]
    for a, b, _ in g._index_edges:
        if masks[a] & masks[b]:
            nbrs[a].append(b)
            nbrs[b].append(a)
    out = list(masks)
    for v in range(len(out) - 1, -1, -1):
        mv = out[v]
        one = two = 0
        for u in nbrs[v]:
            x = out[u] & mv
            two |= one & x
            one |= x
        out[v] = mv & two
    return out


def is_balanced(g: SignedGraph, members: Iterable[str]) -> bool:
    """True iff ``members`` induces no cycle with edge-sign product -1."""
    inside = set(canonical_set(g, members))
    return sets_hold(g, [int(v in inside) for v in g.vertices], 1, acyclic=False)[0]


def is_acyclic(g: SignedGraph, members: Iterable[str]) -> bool:
    """True iff ``members`` induces a forest (signs ignored)."""
    inside = set(canonical_set(g, members))
    return sets_hold(g, [int(v in inside) for v in g.vertices], 1, acyclic=True)[0]


def _bfs_forest(g: SignedGraph, s: tuple[str, ...]):
    """BFS spanning forest of the induced subgraph with parity labels.

    Returns (parent, parity, depth) with deterministic canonical-order
    traversal.
    """
    inside = set(s)
    parent: dict[str, str | None] = {}
    parity: dict[str, int] = {}
    depth: dict[str, int] = {}
    for root in s:
        if root in parent:
            continue
        parent[root] = None
        parity[root] = 0
        depth[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w, sign in g.adj[v].items():
                if w in inside and w not in parent:
                    parent[w] = v
                    parity[w] = parity[v] ^ (1 if sign < 0 else 0)
                    depth[w] = depth[v] + 1
                    queue.append(w)
    return parent, parity, depth


def _fundamental_cycle(parent, depth, a: str, b: str) -> tuple[str, ...]:
    """Vertex cycle through tree paths from a and b up to their meeting point."""
    up_a = [a]
    up_b = [b]
    x, y = a, b
    while depth[x] > depth[y]:
        x = parent[x]
        up_a.append(x)
    while depth[y] > depth[x]:
        y = parent[y]
        up_b.append(y)
    while x != y:
        x = parent[x]
        y = parent[y]
        up_a.append(x)
        up_b.append(y)
    # up_a ends at the meeting vertex; strip it from up_b and reverse
    return tuple(up_a + up_b[-2::-1])


def _first_cycle(
    g: SignedGraph, members: Iterable[str], negative_only: bool
) -> CycleWitness | None:
    """The fundamental cycle of the first non-tree edge of the induced BFS
    forest, in edge order, skipping positive cycles when ``negative_only``."""
    s = canonical_set(g, members)
    parent, parity, depth = _bfs_forest(g, s)
    for a, b, sign in g.induced_edges(s):
        if parent.get(a) == b or parent.get(b) == a:
            continue
        negative = parity[a] ^ parity[b] ^ (1 if sign < 0 else 0)
        if negative or not negative_only:
            return CycleWitness(_fundamental_cycle(parent, depth, a, b), -1 if negative else 1)
    return None


def negative_cycle_witness(g: SignedGraph, members: Iterable[str]) -> CycleWitness | None:
    """Explicit negative cycle inside ``members``, or None when balanced."""
    return _first_cycle(g, members, negative_only=True)


def any_cycle(g: SignedGraph, members: Iterable[str]) -> CycleWitness | None:
    """Any induced cycle (with its sign), or None when the set is a forest."""
    return _first_cycle(g, members, negative_only=False)


def switch(g: SignedGraph, members: Iterable[str]) -> SignedGraph:
    """Negate the sign of every edge with exactly one endpoint in ``members``.

    Involutive, and preserves the sign of every cycle.
    """
    inside = set(canonical_set(g, members))
    edges = tuple(
        (a, b, -sign if (a in inside) != (b in inside) else sign)
        for a, b, sign in g.edges
    )
    return SignedGraph(g.vertices, edges)


def all_triangles(g: SignedGraph) -> list[tuple[tuple[str, str, str], int]]:
    """Every 3-clique with the product of its edge signs, in canonical order.

    The list is computed once per graph and a fresh copy is returned on
    every call.  A graph a builder derives from one whose list is known
    inherits that list plus the triangles through its new edges.
    """
    return list(g._triangles)


@dataclass(frozen=True)
class Atom:
    """One atom of a clique-separator tree, with vertex sets as masks over
    vertex indices: its vertices, the clique it shares with its parent
    atom, and that parent's position in the tree (-1 at the root)."""

    mask: int
    separator: int
    parent: int


def clique_tree(g: SignedGraph) -> tuple[Atom, ...]:
    """The decomposition of ``g`` by its clique minimal separators, as a
    tree of atoms listed children first, the root last.

    The atoms are the maximal connected vertex sets that no clique
    separates, and they are unique (Leimer 1993).  Across a clique
    separator a set is balanced (a forest) iff its part on each side is: a
    cycle that crosses the clique meets it in two adjacent vertices, and
    the chord between them splits the cycle into one on each side whose
    signs multiply to its own.  So a set is good iff its part in every
    atom is.  Computed once per graph, when first asked for.
    """
    return g._clique_tree


def _atoms(g: SignedGraph) -> tuple[Atom, ...]:
    """MCS-M (Berry, Blair, Heggernes and Peyton 2004) numbers the vertices
    for a minimal triangulation H of ``g`` and marks the vertices x whose
    earlier-numbered H-neighbours madj(x) form a minimal separator.  Taking
    those x last-numbered first, each madj(x) that is a clique of ``g``
    splits off x's component with it as an atom (Berry, Pogorelcnik and
    Simonet 2010, after Tarjan 1985); the rest is the root.  An atom hangs
    below the first later atom that holds its separator.  Loops only, no
    recursion."""
    n = len(g.vertices)
    nbrs, near = g._neighbours
    weight = [0] * n
    numbered = [False] * n
    seen = [-1] * n
    madj: list[list[int]] = [[] for _ in range(n)]
    generator = [False] * n
    order = []
    buckets = [list(range(n))]  # by weight; an entry is stale once its vertex moves on
    top, last = 0, -1
    for step in range(n):
        x = buckets[top].pop()
        generator[x] = top <= last
        last = top
        numbered[x] = True
        order.append(x)
        while True:  # until the top bucket ends in a live vertex, or all are numbered
            bucket = buckets[top]
            if bucket and (numbered[bucket[-1]] or weight[bucket[-1]] != top):
                bucket.pop()
            elif not bucket and top:
                top -= 1
            else:
                break
        # every unnumbered y reached from x through vertices lighter than y;
        # none is heavier than ``top``, so paths through level ``top`` raise nothing
        raised = []
        levels: list[list[int]] = [[] for _ in range(last + 1)]
        for y, _ in nbrs[x]:
            if not numbered[y]:
                seen[y] = step
                raised.append(y)
                levels[weight[y]].append(y)
        for j, level in enumerate(levels[:top]):
            while level:
                for y, _ in nbrs[level.pop()]:
                    if numbered[y] or seen[y] == step:
                        continue
                    seen[y] = step
                    if weight[y] > j:
                        raised.append(y)
                        levels[weight[y]].append(y)
                    else:
                        level.append(y)
        for y in raised:
            weight[y] += 1
            madj[y].append(x)
            if weight[y] == len(buckets):
                buckets.append([])
            buckets[weight[y]].append(y)
            top = max(top, weight[y])

    split: list[tuple[list[int], int]] = []  # (vertices, separator mask)
    gone = [False] * n
    for x in reversed(order):
        sep = madj[x]
        clique = sum(1 << s for s in sep)
        if not generator[x] or any(clique & ~near[s] != 1 << s for s in sep):
            continue
        for s in sep:
            gone[s] = True  # fenced off for the search, released below
        comp = [x]
        gone[x] = True
        for v in comp:
            for y, _ in nbrs[v]:
                if not gone[y]:
                    gone[y] = True
                    comp.append(y)
        for s in sep:
            gone[s] = False
        split.append((comp + sep, clique))
    if n:
        split.append(([v for v in range(n) if not gone[v]], 0))

    masks = [sum(1 << v for v in members) for members, _ in split]
    holders: list[list[int]] = [[] for _ in range(n)]
    for k, (members, _) in enumerate(split):
        for v in members:
            holders[v].append(k)
    atoms = []
    for k, (_, clique) in enumerate(split):
        if k == len(split) - 1:
            parent = -1
        elif not clique:
            parent = k + 1
        else:
            some = (clique & -clique).bit_length() - 1
            parent = next(j for j in holders[some] if j > k and masks[j] & clique == clique)
        atoms.append(Atom(masks[k], clique, parent))
    return tuple(atoms)


def triangle_sign(g: SignedGraph, t: Iterable[str]) -> int:
    """Edge-sign product of a 3-clique; GraphError when not a triangle."""
    a, b, c = canonical_set(g, t)
    return g.sign(a, b) * g.sign(b, c) * g.sign(a, c)


def is_k4_minus_equivalent(g: SignedGraph) -> bool:
    """True iff g is K4 with all four triangles negative.

    Cycle signs are switching invariants, and on K4 the four triangle signs
    determine the switching class, so this decides switching equivalence
    with the all-negative K4.
    """
    if len(g.vertices) != 4 or len(g.edges) != 6:
        return False
    return all(sign == -1 for _, sign in all_triangles(g))


def load_json(text: str, error: type[Exception]) -> object:
    """``json.loads``, raising ``error`` on text that is not JSON, nests
    too deeply for the decoder or holds an integer too long to convert."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"malformed JSON: {exc}") from exc


def parse_graph(text: str) -> SignedGraph:
    """Parse the graph JSON schema into a SignedGraph.

    Schema: ``{"vertices": ["u", ...], "edges": [{"a": .., "b": .., "sign": -1}, ...]}``
    """
    obj = load_json(text, GraphError)
    if not isinstance(obj, dict):
        raise GraphError("graph document must be a JSON object")
    vertices = obj.get("vertices")
    raw_edges = obj.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(raw_edges, list):
        raise GraphError("'edges' must be a list")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, dict) or not {"a", "b", "sign"} <= entry.keys():
            raise GraphError(f"edge entry must have keys a, b, sign: {entry!r}")
        a, b, sign = entry["a"], entry["b"], entry["sign"]
        if not isinstance(a, str) or not isinstance(b, str):
            raise GraphError(f"edge endpoints must be vertex names: {entry!r}")
        if type(sign) is not int:  # JSON true and false load as bool, an int subclass
            raise GraphError(f"edge sign must be +1 or -1, got {sign!r}")
        edges.append((a, b, sign))
    return SignedGraph(tuple(vertices), tuple(edges))


def serialize_graph(g: SignedGraph) -> str:
    """Canonical JSON for g; round-trips through parse_graph."""
    obj = {
        "vertices": list(g.vertices),
        "edges": [{"a": a, "b": b, "sign": sign} for a, b, sign in g.edges],
    }
    return json.dumps(obj, indent=2)
