"""Signed graphs: data model, serialization, switching, and balance testing.

A signed graph is a simple undirected graph with a sign (+1 or -1) on every
edge.  A vertex set is *balanced* when the subgraph it induces contains no
cycle whose edge-sign product is -1.  ``sets_hold`` decides balance (or
acyclicity) for many sets at once, given as class bitmasks in vertex order:
one pass over the edge list hands each edge to the sets that hold both its
endpoints, and a parity union-find over vertex indices joins them per set.
Only a set that fails is walked again, by a BFS over its induced subgraph,
for an explicit cycle witness.

Vertex declaration order is the canonical order used for all deterministic
output (sorted sets, sorted edge lists, witness extraction).
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


class ParityDSU:
    """Union-find with sign parity and O(1) rollback.

    No path compression so that ``rollback`` can undo unions in reverse
    order; union by rank keeps finds near-logarithmic, which is plenty for
    the graph sizes handled here.  Every root also carries ``mask``, the
    union of its members' initial masks (0 unless given).
    """

    def __init__(self, n: int, masks: Iterable[int] = ()) -> None:
        self.parent = list(range(n))
        self.parity = [0] * n  # parity of the edge to the parent
        self.rank = [0] * n
        self.mask = list(masks) or [0] * n
        self._trail: list[tuple[int, bool, int]] = []

    def find(self, x: int) -> tuple[int, int]:
        p = 0
        while self.parent[x] != x:
            p ^= self.parity[x]
            x = self.parent[x]
        return x, p

    def union(self, x: int, y: int, negative: bool) -> bool:
        """Join x and y with the given edge parity; False on a parity conflict."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        want = px ^ py ^ (1 if negative else 0)
        if rx == ry:
            return want == 0
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self._link(ry, rx, want)
        return True

    def join(self, v: int, roots: dict[int, int]) -> None:
        """Join the singleton v to every root r of ``roots``, where
        ``roots[r]`` is v's parity relative to r; the caller has checked
        that they do not conflict."""
        if not roots:
            return
        top = max(roots, key=self.rank.__getitem__)
        q = roots[top]
        self._link(v, top, q)
        for r, p in roots.items():
            if r != top:
                self._link(r, top, p ^ q)

    def _link(self, child: int, root: int, parity: int) -> None:
        bumped = self.rank[child] == self.rank[root]
        if bumped:
            self.rank[root] += 1
        self._trail.append((child, bumped, self.mask[root]))
        self.parent[child] = root
        self.parity[child] = parity
        self.mask[root] |= self.mask[child]

    def mark(self) -> int:
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        while len(self._trail) > mark:
            child, bumped, mask = self._trail.pop()
            root = self.parent[child]
            self.parent[child] = child
            self.parity[child] = 0
            self.mask[root] = mask
            if bumped:
                self.rank[root] -= 1


def sets_hold(g: SignedGraph, masks: list[int], count: int, acyclic: bool) -> list[bool]:
    """For each of ``count`` vertex sets, whether it induces a forest
    (``acyclic``) or no cycle with edge-sign product -1.  Bit j of
    ``masks[i]``, a list in ``g.vertices`` order, is set iff vertex i is in
    set j.  One pass over ``g.edges`` hands each edge to the sets holding
    both its endpoints; each set joins its edges in a parity union-find
    over vertex indices, shared by all sets and reset after each, until one
    closes a cycle (``acyclic``) or a negative one; by Harary's criterion,
    none does iff the set holds.  Not ``ParityDSU``, whose rollback
    trail and root masks would double the time."""
    n = len(g.vertices)
    if isinstance(masks, dict) or len(masks) != n:
        raise ValueError(f"masks must be a list of {n} class bitmasks in vertex order")
    index = g.index
    induced: list[list[tuple[int, int, bool]]] = [[] for _ in range(count)]
    for a, b, sign in g.edges:
        ia, ib = index[a], index[b]
        both = masks[ia] & masks[ib]
        e = (ia, ib, sign < 0)
        while both:
            low = both & -both
            induced[low.bit_length() - 1].append(e)
            both ^= low
    up = list(range(n))
    parity = [0] * n  # parity of the link to ``up``
    rank = [0] * n
    out = []
    for edges in induced:
        holds = True
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
                    holds = False
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
        out.append(holds)
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
    """``json.loads``, raising ``error`` on text that is not JSON or nests
    too deeply for the decoder."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
