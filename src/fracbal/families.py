"""Balanced / acyclic vertex sets: exhaustive and maximal enumeration, and
pricing, the search for such a set of largest dual weight.

Both properties are hereditary (every subset of a good set is good).  A
set is good iff its part in every atom of the graph's clique-separator tree
is (``sgraph.clique_tree``), so the good subsets of each atom, its *rows*,
are enumerated once per graph and property into one row store.  Both
searches are one pass over the tree (Arnborg and Proskurowski 1989):
pricing (``_price``) keeps per atom the best row for each part of its
separator, and enumeration joins the rows bottom up, a parent row taking
from each child the partial sets that hold the same part of the separator
they share.  The sets are then put in the include-first
order of a walk over the vertices in canonical order, so results are
identical across runs, and named, in one batched step: each mask becomes
its include-first key once (its bytes with their bits reversed, so that
the order is descending key order), the keys are sorted with no key
function, and the names are read from the sorted keys one byte position
at a time (``sgraph.include_first_keys`` and ``sgraph.names_by_key``).

Maximality is decided atom by atom.  Adding a vertex v to a good set S
changes only its parts in the atoms that hold v, so v is blocked (S plus v
is not good) iff some atom holding v blocks it: the row S ∩ atom plus v is
not a row.  Each row carries the vertices it blocks in this way.  The atoms
holding v form a subtree, and its top is the one atom where v is not in the
separator, so when the join reaches that atom every atom that could block v
has been joined.  A partial join is therefore
keyed by its part of the atom's separator and the separator vertices it
already blocks, and it is dropped as soon as one of the atom's other
vertices is left out unblocked; the sets that reach the root are exactly
the maximal ones.

A host with an atom of more than ``_ATOM_LIMIT`` vertices is enumerated
and priced by a walk of the integer search core over the whole graph
instead.  The core also enumerates each atom's rows over the atom's own
induced subgraph: vertices are indices, a set is a bitmask over them, and
the chosen set sits on the core's own rollback parity union-find.  The
walk is an explicit-stack loop over include/exclude decisions in canonical
order, include branch first, so its sets come out in include-first order
already and the batched step's sort is one linear pass over a single run.

A maximal walk needs no test at the leaves.  A vertex that cannot join the
chosen set at its turn never can further down (heredity).  A vertex
excluded while it could still join stays *pending*, stored with its reach:
the vertices next to it and, when it touches two or more chosen components,
the vertices next to any of those.  With at most one such component nothing
else can block it: its chosen neighbours sit in that component at
consistent parities (one neighbour if acyclic), and growing or merging the
component never changes the parities inside it.  Only including a vertex of
its reach can block a pending vertex, so only then is it re-tested; once
blocked it leaves the list.  A pending vertex whose reach holds no undecided
vertex can never be blocked, so every set below would extend by it and the
branch is cut.  Every leaf
the walk reaches is therefore maximal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .gadgets import GadgetGraph
from .sgraph import GraphError, SignedGraph, _assembled, all_triangles, canonical_set
from .sgraph import clique_tree, include_first_keys, names_by_key, sets_hold

MAXIMAL_SIZE_GUARD = 24
FULL_SIZE_GUARD = 16


class GuardExceeded(RuntimeError):
    """Instance too large for exhaustive enumeration."""


class SetProperty(Enum):
    BALANCED = "balanced"
    ACYCLIC = "acyclic"


def _check_property(prop: object) -> None:
    """Raise TypeError unless ``prop`` is a ``SetProperty``: the search
    tests it by identity, so a string such as "acyclic" would be taken
    for balanced."""
    if not isinstance(prop, SetProperty):
        raise TypeError(f"prop must be a SetProperty, got {prop!r}")


@dataclass(frozen=True)
class SetFamily:
    """Vertex sets with a property, each checked on construction.

    ``nodes`` and ``leaves`` count the work of the enumeration that produced
    the family (0 for families built by callers); equality ignores them.  On
    the separator join, ``nodes`` is the atom rows evaluated (those that meet
    the constraints and leave no vertex unblocked that no child can block)
    and ``leaves`` the sets emitted.  On the walk, a node is a state it
    visits: a partial choice about to decide its next candidate, or a
    complete one, which is a leaf.
    """

    host: SignedGraph
    property: SetProperty
    sets: tuple[tuple[str, ...], ...]
    maximal_only: bool = False
    nodes: int = field(default=0, compare=False)
    leaves: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        _check_property(self.property)
        # every set is read, and a stranger or duplicate refused, before any is tested
        index = self.host.index
        masks = [0] * len(index)
        for j, s in enumerate(self.sets):
            for v in canonical_set(self.host, s):
                masks[index[v]] |= 1 << j
        acyclic = self.property is SetProperty.ACYCLIC
        for s, ok in zip(self.sets, sets_hold(self.host, masks, len(self.sets), acyclic)):
            if not ok:
                raise GraphError(f"set {s} violates {self.property.value}")

    @classmethod
    def _trusted(
        cls, host: SignedGraph, prop: SetProperty, sets: tuple[tuple[str, ...], ...],
        maximal_only: bool = False, nodes: int = 0, leaves: int = 0,
    ) -> SetFamily:
        """A family of sets that the search core produced or grew (the
        enumerated sets, or column generation's singletons and lifted
        priced sets), which hold the property by construction, built
        without re-checking them."""
        return _assembled(
            cls, host=host, property=prop, sets=sets, maximal_only=maximal_only,
            nodes=nodes, leaves=leaves,
        )


class _Core:
    """Integer search state over one vertex-index form: the chosen set as a
    bitmask over a rollback parity union-find.

    ``form`` is ``(nbrs, near)``: per vertex, its ``(j, negative)`` pairs
    and its neighbour mask, as ``SignedGraph._neighbours`` holds them for a
    whole graph and ``_induced_form`` builds them for an atom.  The
    union-find links each vertex to its ``parent`` with the ``parity`` of
    the link, by rank and without path compression, and each root's ``mask``
    is the union of its members' neighbour masks.  Every link goes on
    ``trail`` with what it changed, so a walk saves ``(chosen, len(trail))``
    before a branch and ``restore``s it after.
    Sets come out as masks.
    """

    def __init__(self, form: tuple[tuple, tuple[int, ...]], prop: SetProperty) -> None:
        self.acyclic = prop is SetProperty.ACYCLIC
        self.nbrs, self.near = form
        n = len(self.near)
        self.parent = list(range(n))
        self.parity = [0] * n  # of the link to the parent; a root's is never read
        self.rank = [0] * n
        self.mask = list(self.near)
        self.trail: list[tuple[int, bool, int]] = []  # (child, rank bumped, root's old mask)
        self.chosen = 0

    def scan(self, v: int) -> dict[int, int] | None:
        """The roots of the chosen components next to v, each with v's parity
        relative to it; None when v cannot join the chosen set."""
        chosen, parent, parity = self.chosen, self.parent, self.parity
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

        With at most one chosen component next to v, that is ``near[v]``:
        v's chosen neighbours then lie in one component at consistent
        parities (acyclic: there is one), and growing or merging that
        component never changes the parities inside it, so only a new
        neighbour of v can close a bad cycle through v.  With two or more,
        a merge of two of them can, so the neighbour masks of their roots
        join in."""
        r = self.near[v]
        if len(roots) > 1:
            for x in roots:
                r |= self.mask[x]
        return r

    def attach(self, v: int, roots: dict[int, int]) -> None:
        """Add v, joining it to the components ``scan(v)`` returned: v and
        the other roots link to the root of highest rank, ``top``, each with
        its parity relative to ``top`` (v's is ``roots[top]``)."""
        self.chosen |= 1 << v
        if not roots:
            return
        parent, parity, rank, mask = self.parent, self.parity, self.rank, self.mask
        top = max(roots, key=rank.__getitem__)
        q = roots[top]
        for child, p in roots.items():
            if child == top:
                child = v
            else:
                p ^= q
            bumped = rank[child] == rank[top]
            if bumped:
                rank[top] += 1
            self.trail.append((child, bumped, mask[top]))
            parent[child] = top
            parity[child] = p
            mask[top] |= mask[child]

    def restore(self, chosen: int, mark: int) -> None:
        """Undo the links after the first ``mark`` and set the chosen set."""
        self.chosen = chosen
        trail, parent = self.trail, self.parent
        while len(trail) > mark:
            child, bumped, mask = trail.pop()
            root = parent[child]
            parent[child] = child
            self.mask[root] = mask
            if bumped:
                self.rank[root] -= 1

    def walk_sets(self, cand: list[int], maximal: bool) -> tuple[list[int], int, int]:
        """Every good set (every maximal one if ``maximal``) of the chosen set
        plus vertices of ``cand`` (ascending), as masks in include-first
        order, with the numbers of search nodes and leaves visited."""
        m = len(cand)
        undecided = [0] * (m + 1)  # mask of cand[i:]
        for i in range(m - 1, -1, -1):
            undecided[i] = undecided[i + 1] | 1 << cand[i]
        scan, reach, attach, trail = self.scan, self.reach, self.attach, self.trail
        out: list[int] = []
        nodes = leaves = 0
        stack: list[tuple[int, tuple, int, int, int]] = []  # exclude branches left
        i, pending, alive = 0, (), True  # pending: (vertex, reach) pairs
        while True:
            if alive:
                nodes += 1
                if i == m:
                    leaves += 1
                    if self.chosen:
                        out.append(self.chosen)
                    alive = False
                    continue
                v = cand[i]
                i += 1
                roots = scan(v)
                if roots is None:  # v stays out for good
                    alive = all(rp & undecided[i] for _, rp in pending)
                else:
                    r = reach(v, roots) if maximal else 0
                    stack.append((i, pending, self.chosen, len(trail), r))
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
        scan, attach, trail = self.scan, self.attach, self.trail
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
                        stack.append((i + 1, weight, self.chosen, len(trail)))
                        attach(cand[i], roots)
                        weight += weights[i]
                    i += 1
                    continue
            if not stack:
                return best, best_set, nodes
            i, weight, chosen, at = stack.pop()
            self.restore(chosen, at)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subset_sums(keys: Iterable[int]) -> list[int]:
    """Entry m is the sum of the keys at the set bits of m."""
    sums = [0]
    for k in keys:
        sums += [x + k for x in sums]
    return sums


def _induced_form(g: SignedGraph, members: list[int]) -> tuple[tuple, tuple[int, ...]]:
    """The index form of the subgraph of ``g`` induced by ``members``, in
    which vertex k is ``members[k]``: the ``_Core`` form of an atom."""
    nbrs = g._neighbours[0]
    at = {v: k for k, v in enumerate(members)}
    local = [sorted((at[j], negative) for j, negative in nbrs[v] if j in at) for v in members]
    return tuple(map(tuple, local)), tuple(sum(1 << k for k, _ in row) for row in local)


# Enumeration joins, and pricing reads, the rows of the clique-separator
# tree's atoms only when no atom has more vertices than this, since an atom
# of k vertices has up to 2**k rows; otherwise each walks the whole graph.
_ATOM_LIMIT = 12


class _AtomRows(NamedTuple):
    """An atom's good subsets as rows, grouped by the subset t of the
    separator they hold.  A row's low bits are that subset, its vertices
    in the separator in vertex order, and its high bits are its part in
    ``own``, the atom's other vertices, each counted in no other atom.
    Pricing reads the rows in that local form; enumeration reads ``glob``
    and the atom's masks."""

    own: list[int]
    half: int  # the rows' own bits split into own[:half] and own[half:]
    low: list[int]  # per row, its part in own[:half]
    high: list[int]  # per row, its part in own[half:]
    groups: list[tuple[int, int]]  # the rows holding subset t are [i, j) = groups[t]
    kids: list[tuple[int, list[int]]]  # per child atom, its ``up``
    up: list[int]  # per row of the parent atom, the subset of this atom's separator it holds
    parent: int
    glob: list[int]  # per row, its vertices as a mask over the graph
    mask: int  # the atom's vertices and its separator, as masks over the graph
    separator: int


def _atom_rows(g: SignedGraph, prop: SetProperty) -> list[_AtomRows] | None:
    """The rows of every atom of ``clique_tree(g)`` in tree order, built once
    per graph and property; None when an atom exceeds ``_ATOM_LIMIT``."""
    memo = g._memo
    if (_atom_rows, prop) not in memo:
        memo[_atom_rows, prop] = _rows_by_atom(g, prop)
    return memo[_atom_rows, prop]


def _rows_by_atom(g: SignedGraph, prop: SetProperty) -> list[_AtomRows] | None:
    atoms = clique_tree(g)
    if any(a.mask.bit_count() > _ATOM_LIMIT for a in atoms):
        return None
    kids_of: list[list[int]] = [[] for _ in atoms]
    for c, a in enumerate(atoms[:-1]):
        kids_of[a.parent].append(c)
    plan: list[_AtomRows] = []
    for a, kids_a in zip(atoms, kids_of):
        sep, own = _bits(a.separator), _bits(a.mask & ~a.separator)
        members = sep + own  # local vertex k is members[k]
        core = _Core(_induced_form(g, members), prop)
        buckets: list[list[int]] = [[] for _ in range(1 << len(sep))]
        for r in [0] + core.walk_sets(list(range(len(members))), False)[0]:
            buckets[r & len(buckets) - 1].append(r)
        rows: list[int] = []
        groups = []
        for bucket in buckets:
            groups.append((len(rows), len(rows) + len(bucket)))
            rows += bucket
        kids = []
        for c in kids_a:
            # local row bits of the child's separator, and each of their subsets' index
            where = [1 << members.index(v) for v in _bits(atoms[c].separator)]
            index = dict(zip(_subset_sums(where), range(1 << len(where))))
            up = list(map(index.__getitem__, map(sum(where).__and__, rows)))
            plan[c] = plan[c]._replace(up=up)
            kids.append((c, up))
        half, at = len(own) // 2, len(sep)
        split = len(members) // 2
        lo = _subset_sums(1 << v for v in members[:split])
        hi = _subset_sums(1 << v for v in members[split:])
        plan.append(_AtomRows(
            own, half,
            [r >> at & (1 << half) - 1 for r in rows],
            [r >> at + half for r in rows],
            groups, kids, [], a.parent,
            [lo[r & (1 << split) - 1] | hi[r >> split] for r in rows],
            a.mask, a.separator,
        ))
    return plan


def _blocked(g: SignedGraph, prop: SetProperty, atoms: list[_AtomRows]) -> list[list[int]]:
    """Per atom and row r, the atom's vertices v outside r such that r plus v
    is not a row, as a mask over the graph; built once per graph and
    property, on the first maximal enumeration."""
    memo = g._memo
    if (_blocked, prop) not in memo:
        out = []
        for rows in atoms:
            have = set(rows.glob)
            vs = [1 << v for v in _bits(rows.mask)]
            out.append([
                sum([b for b in vs if not r & b and r | b not in have]) for r in rows.glob
            ])
        memo[_blocked, prop] = out
    return memo[_blocked, prop]


def _join(
    atoms: list[_AtomRows], blocked: list[list[int]] | None, need: int, banned: int
) -> tuple[list[int], int]:
    """Every set, as a mask, that is good in every atom, holds ``need`` and
    misses ``banned``; only the maximal ones among them when ``blocked`` is
    given.  Also the rows evaluated.

    Bottom up, each atom's table maps a part t of its separator, then the
    separator vertices b that the partial set blocks, to the partial sets
    over the atom and the atoms below it.  A row takes from each child the
    entries at its own part of the child's separator; a child's b values
    add to the row's blocked vertices, and each combination of them is
    kept as one tuple of the children's lists until it is known to block
    every own vertex left out, and only then multiplied out."""
    tables: list[dict[int, dict[int, list[int]]]] = []
    nodes = 0
    for a, rows in enumerate(atoms):
        sep = rows.separator
        want = need & rows.mask
        below = [(atoms[c].separator, tables[c]) for c, _ in rows.kids]
        # the own vertices that must end up in the set or blocked
        check = rows.mask & ~sep & ~banned if blocked else 0
        reachable = 0  # the vertices a child can block
        for s, _ in below:
            reachable |= s
        table: dict[int, dict[int, list[int]]] = {}
        for r, bl in zip(rows.glob, blocked[a] if blocked else [0] * len(rows.glob)):
            if r & banned or r & want != want:
                continue
            left = check & ~r & ~bl
            if left & ~reachable:
                continue
            nodes += 1
            # a child entry with one blocked part joins every combination
            # alike, and a single partial set joins every set alike
            fixed, lists, forks = r, [], []
            for s, child in below:
                entries = child.get(r & s)
                if entries is None:
                    break
                if len(entries) > 1:
                    forks.append(entries)
                    continue
                ((b, partial),) = entries.items()
                bl |= b
                if len(partial) > 1:
                    lists.append(partial)
                else:
                    fixed |= partial[0]
            else:
                combos: dict[int, list[tuple]] = {bl: [tuple(lists)]}
                for entries in forks:
                    merged: dict[int, list[tuple]] = {}
                    for b0, terms in combos.items():
                        for b, partial in entries.items():
                            merged.setdefault(b0 | b, []).extend([t + (partial,) for t in terms])
                    combos = merged
                for b, terms in combos.items():
                    if left & ~b:
                        continue
                    out = table.setdefault(r & sep, {}).setdefault(b & sep, [])
                    for t in terms:
                        xs = [fixed]
                        for partial in t:
                            xs = [x | y for x in xs for y in partial]
                        out += xs
        tables.append(table)
    found = tables[-1].get(0, {}).get(0, []) if tables else []
    return [x for x in found if x], nodes


def enumerate_sets(
    g: SignedGraph,
    prop: SetProperty,
    *,
    maximal_only: bool = False,
    must_contain: Sequence[str] = (),
    forbid: Sequence[str] = (),
    size_guard: int | None = None,
) -> SetFamily:
    """All nonempty vertex sets with the property, optionally only the
    maximal ones, under containment constraints.

    Maximality is relative to the allowed universe (vertices outside
    ``forbid``).  Raises GuardExceeded when the host is too large for
    exhaustive search.

    The sets are the atom rows joined over the clique-separator tree, unless
    an atom has more than ``_ATOM_LIMIT`` vertices; then the search core
    walks the whole graph.  Both give the same sets in the same,
    include-first order.
    """
    _check_property(prop)
    masks, nodes, leaves = _masks(g, prop, maximal_only, must_contain, forbid, size_guard)
    sets = tuple(names_by_key(g, include_first_keys(g, masks)))
    return SetFamily._trusted(g, prop, sets, maximal_only, nodes, leaves)


def _masks(
    g: SignedGraph, prop: SetProperty, maximal_only: bool, must_contain: Sequence[str],
    forbid: Sequence[str], size_guard: int | None,
) -> tuple[list[int], int, int]:
    """The sets of ``enumerate_sets`` as masks, with the nodes and leaves of
    the search: in no order from the join, in include-first order from the
    walk."""
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
    need_mask = sum(1 << g.index[v] for v in need)
    banned_mask = sum(1 << g.index[v] for v in banned)

    atoms = _atom_rows(g, prop)
    if atoms is not None:
        blocked = _blocked(g, prop, atoms) if maximal_only else None
        masks, nodes = _join(atoms, blocked, need_mask, banned_mask)
        leaves = len(masks)
    else:
        core = _Core(g._neighbours, prop)
        for v in need:
            roots = core.scan(g.index[v])
            if roots is None:
                return [], 0, 0
            core.attach(g.index[v], roots)
        cand = [i for i in range(len(g.vertices)) if not (need_mask | banned_mask) >> i & 1]
        masks, nodes, leaves = core.walk_sets(cand, maximal_only)
    return masks, nodes, leaves


def _best_rows(atoms: list[_AtomRows], key: list[int]) -> tuple[int, int]:
    """The largest key sum of a set that is good in every atom, and that
    set as a mask.  Bottom up, each atom's table holds, per subset t of its
    separator, the best value of a row holding t: its own vertices' keys
    plus its children's entries; the best rows are then read top down."""
    tables: list[list] = []
    values: list[list[int]] = []
    for own, half, low, high, groups, kids, *_ in atoms:
        lo = _subset_sums(key[v] for v in own[:half])
        hi = _subset_sums(key[v] for v in own[half:])
        vals = list(map(add, map(lo.__getitem__, low), map(hi.__getitem__, high)))
        for c, up in kids:
            vals = list(map(add, vals, map(tables[c].__getitem__, up)))
        # a subset no row holds is not good, so no parent row holds it
        tables.append([max(vals[i:j]) if i < j else None for i, j in groups])
        values.append(vals)
    mask = 0
    pick = [0] * len(atoms)
    for a in range(len(atoms) - 1, -1, -1):
        rows = atoms[a]
        t = 0 if rows.parent < 0 else rows.up[pick[rows.parent]]
        pick[a] = values[a].index(tables[a][t], *rows.groups[t])
        mask |= rows.glob[pick[a]]
    return (tables[-1][0] if atoms else 0), mask


def _price(
    g: SignedGraph, prop: SetProperty, y: dict[str, Fraction | int]
) -> tuple[Fraction, tuple[str, ...], int]:
    """Maximum-dual-weight set with the property, and the work done: the
    rows the DP evaluated, or the nodes the walk visited.

    The weights may be ints or Fractions, and only their ratios matter:
    the positive ones are scaled once by the lcm of their denominators (1
    for ints, so the best weight comes back over 1), every sum adds Python
    ints, and a positive scaling of all weights changes neither the set
    returned nor the work.  Vertices with zero dual never join.
    Among equal-weight maximizers the one returned is the first that an
    include-first walk over the positive-dual vertices in canonical order
    finds, which is the lexicographically least improving column.

    Pricing is a DP over ``clique_tree(g)`` on each atom's rows, those of
    ``_atom_rows`` (``_best_rows``).  The vertex of rank r among the N
    positive-dual ones has the key ``w * 2**N + 2**(N - 1 - r)``, so key
    sums order sets by weight and then lexicographically, and the DP's
    unique best set is the walk's.  A zero-dual vertex has a key below
    minus the sum of all the others.

    When an atom has more than ``_ATOM_LIMIT`` vertices, the search core's
    walk runs over the whole graph instead.  It cuts a branch when the
    weight so far plus a bound on the rest cannot beat the best.  The bound
    is the remaining weight less, for each triangle of a greedy disjoint
    packing that lies in the rest, its lightest vertex: a good set holds at
    most two vertices of a negative triangle (of any triangle when
    acyclic).  Either way the best set comes out as a mask and is named
    once, as a batch of one.
    """
    verts = g.vertices
    cand = [i for i, v in enumerate(verts) if y.get(v, 0).numerator > 0]
    scale = lcm(*(y[verts[i]].denominator for i in cand))
    weights = [y[verts[i]].numerator * (scale // y[verts[i]].denominator) for i in cand]
    atoms = _atom_rows(g, prop)
    if atoms is None:
        best, mask, nodes = _walk_price(g, prop, cand, weights)
    else:
        n = len(cand)
        key = [0] * len(verts)
        for r, (i, w) in enumerate(zip(cand, weights)):
            key[i] = w << n | 1 << (n - 1 - r)
        never = -1 - sum(key)
        best, mask = _best_rows(atoms, [k or never for k in key])
        best, nodes = best >> n, sum(len(a.low) for a in atoms)
    return Fraction(best, scale), names_by_key(g, include_first_keys(g, [mask]))[0], nodes


def _lift(g: SignedGraph, prop: SetProperty, s: tuple[str, ...]) -> tuple[str, ...]:
    """``s``, a set with the property, grown to a maximal one by adding
    every other vertex, in declaration order, that keeps the property.

    When ``s`` is a set of largest dual weight (``_price``), no vertex of
    positive dual can join it, so the grown set has the same dual weight."""
    core = _Core(g._neighbours, prop)
    for i in [g.index[v] for v in s] + list(range(len(g.vertices))):
        if not core.chosen >> i & 1:
            roots = core.scan(i)
            if roots is not None:
                core.attach(i, roots)
    return names_by_key(g, include_first_keys(g, [core.chosen]))[0]


def _walk_price(
    g: SignedGraph, prop: SetProperty, cand: list[int], weights: list[int]
) -> tuple[int, int, int]:
    """``_price`` by one branch-and-bound walk over the whole graph, in
    scaled weights: the best weight, its set as a mask, and the nodes."""
    at = {c: k for k, c in enumerate(cand)}
    # cut[k]: the lightest weight of each packed triangle whose first vertex is cand[k]
    cut = [0] * len(cand)
    packed: set[int] = set()
    for t, sign in reversed(all_triangles(g)):
        ks = [at.get(g.index[v], -1) for v in t]
        if (sign < 0 or prop is SetProperty.ACYCLIC) and -1 not in ks and packed.isdisjoint(ks):
            packed.update(ks)
            cut[min(ks)] += min(weights[k] for k in ks)
    bound = [0] * (len(cand) + 1)
    for k in range(len(cand) - 1, -1, -1):
        bound[k] = bound[k + 1] + weights[k] - cut[k]
    return _Core(g._neighbours, prop).walk_price(cand, weights, bound)


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
    yet its face-avoiding subsets branch differently).  The second kind is
    filtered from all balanced sets containing both terminals (a face naming
    a stranger is ignored): holding no face is hereditary, so a face-free
    set is maximal among them iff no other is it plus one vertex.  The
    union of the two families, in canonical order, is the complete case list.
    """
    graph, idx = g.graph, g.graph.index
    terminals = (g.terminal("u"), g.terminal("v"))
    plain, _, _ = _masks(graph, SetProperty.BALANCED, True, terminals, (), None)
    good, _, _ = _masks(graph, SetProperty.BALANCED, False, terminals, (), MAXIMAL_SIZE_GUARD)
    faces = [sum(1 << idx[x] for x in set(f)) for f in positive_faces if f and set(f) <= idx.keys()]
    free = set(good).difference(*([s for s in good if s & f == f] for f in faces))
    bits = [1 << i for i in range(len(graph.vertices))]
    top = free.difference(*([s ^ b for s in free if s & b] for b in bits))
    names = names_by_key(graph, include_first_keys(graph, top.union(plain)))
    return tuple(sorted(names, key=lambda s: tuple(idx[x] for x in s)))


def check_missing_triangle_lemma(g: GadgetGraph) -> tuple[bool, tuple[str, ...] | None]:
    """Does every maximal balanced set containing both terminals miss at
    least one marked triangle?

    Heredity makes maximal sets sufficient: a counterexample extends to a
    maximal counterexample.  Returns (False, witness set) on failure.
    """
    graph = g.graph
    masks, _, _ = _masks(
        graph, SetProperty.BALANCED, True, (g.terminal("u"), g.terminal("v")), (), None
    )
    marked = [sum(1 << graph.index[x] for x in t) for t in g.marked_triangles]
    failing = [s for s in masks if all(s & t for t in marked)]
    if failing:  # the witness is the first in include-first order
        return False, names_by_key(graph, include_first_keys(graph, failing)[:1])[0]
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
