"""Inductive synthesis of balanced (83, 41)-colorings along a build trace.

Every graph built from the all-negative triangle by the two trace
operations admits a balanced (83, 41)-coloring in which the endpoints of
every edge share either 13 or 14 colors.  This module constructs one by
replaying the trace while carrying the coloring as one 83-bit mask per
vertex (bit i set iff the vertex holds color i; fixture colorings enter
through ``_masks``), so the overlap of two vertices is
``(m[x] & m[y]).bit_count()`` and every pool below is mask algebra.  A
pool's first ``count`` colors are its lowest set bits:

* Base: the all-negative triangle colored with pairwise overlaps
  (14, 14, 14) and 13 exclusive colors per vertex.

* Apex insertion: the new vertex may join exactly the colors held by at
  most one vertex of its face (two face vertices plus the apex would
  close a negative triangle).  A tiny feasibility search picks the face
  overlaps a_i in {13, 14} and the leftover count b = 41 - sum(a_i),
  subject to pool capacities; a solution always exists because the face
  overlaps sum to at least 40.

* Edge substitution: the host coloring restricted to {x, y} and a
  reference coloring of the 10-vertex gadget restricted to {u, v} induce
  the same four membership-pattern group sizes, so the two colorings can
  be matched color by color (template for overlap 13 or 14, matching the
  current overlap of the edge).  Each matched host color absorbs the
  corresponding gadget class; balance survives because the identified
  edge pins the sign of every path between its endpoints on both sides.
  The match is one permutation of the template's color columns, kept as
  byte strings, into host color order; each copy's mask is read from its
  row of the permuted matrix as one binary number.
  The two positive faces of the copy are then completed with a scheme
  from the mini-extension fixture, selected by the induced triangle
  profile.

The trace is replayed on a gadget builder that is never frozen, so it
builds only the names and adjacency read here, not the edge list or the
marked triangles.  The classes come out of one binary text, the masks
laid end to end in name order, one strided column per color, so each
class is sorted as it comes out and only duplicate classes are merged.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, product, repeat
from operator import lt
from typing import Iterator, Sequence

from .certify import Certificate, Mode
from .gadgets import (  # noqa: F401  (perfbench/spans.py wraps compose.apply_trace_step)
    W_HAT_POSITIVE_FACES,
    W_PRIME_FACE_PRIMES,
    BuildTrace,
    Op1,
    _Builder,
    apply_trace_step,
    k3_minus,
    k4_minus,
)
from .tables import (
    k3_base_colorings,
    mini_extension_schemes,
    w_coloring_83_41_uv13,
    w_coloring_83_41_uv14,
)

P, Q = 83, 41
PALETTE = (1 << P) - 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")
_ROW = -(-P // 8) * 8  # bits per mask in whole bytes


class ComposeError(RuntimeError):
    """Induction invariant broken; carries diagnostics for the failing step."""


@dataclass
class _State:
    graph: _Builder
    masks: dict[str, int]  # bit i of masks[v] set iff v holds color i


def _row(mask: int) -> bytes:
    """``mask`` as ``P`` bytes, lowest color first: byte i is 1 iff bit i is set."""
    return format(mask, f"0{P}b").encode().translate(_DIGITS)[::-1]


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return compress(range(P), _row(mask))


def _lowest(pool: int, count: int) -> int:
    """The ``count`` lowest colors of ``pool`` (all of it if it has fewer),
    worked from the shorter end: the lowest bits cleared one at a time, or
    the highest ones when fewer are dropped than kept."""
    size = pool.bit_count()
    if count >= size:
        return pool
    if 2 * count > size:
        for _ in range(size - count):
            pool ^= 1 << (pool.bit_length() - 1)
        return pool
    rest = pool
    for _ in range(count):
        rest &= rest - 1
    return pool ^ rest


def _masks(c: Certificate) -> dict[str, int]:
    """The coloring of a fixture certificate as one mask per vertex: the
    classes take consecutive colors, each as many as its repetition, and
    bit i of ``masks[v]`` is set iff v holds color i."""
    masks: dict[str, int] = {}
    color = 0
    for s, rep in c.classes:
        block = ((1 << rep) - 1) << color
        for v in s:
            masks[v] = masks.get(v, 0) | block
        color += rep
    return masks


def _base_state(base: str) -> _State:
    state = _State(_Builder(k3_minus()), _masks(k3_base_colorings()["14-14-14"]))
    if base == "K4_MINUS":
        state.graph = _Builder(k4_minus())
        _extend_apex(state, ("u1", "u2", "u3"), "u4", step=0)
    return state


def _extend_apex(state: _State, face: Sequence[str], apex: str, step: int) -> None:
    """Assign 41 colors to a new apex adjacent to the three face vertices."""
    f = sorted(face, key=state.graph.index.__getitem__)
    m0, m1, m2 = (state.masks[v] for v in f)
    if m0 & m1 & m2:
        raise ComposeError(
            f"step {step}: face {f} carried by a full class; it cannot be negative"
        )
    pools = (m0 & ~(m1 | m2), m1 & ~(m0 | m2), m2 & ~(m0 | m1), PALETTE & ~(m0 | m1 | m2))
    caps = [pool.bit_count() for pool in pools]
    for a in product((13, 14), repeat=3):
        counts = (*a, Q - sum(a))
        if counts[3] >= 0 and all(c <= cap for c, cap in zip(counts, caps)):
            break
    else:
        raise ComposeError(f"step {step}: no feasible apex profile, pools {(caps[:3], caps[3])}")
    state.masks[apex] = sum(_lowest(pool, c) for pool, c in zip(pools, counts))


_PATTERNS = ("both", "first", "second", "neither")


def _groups(mx: int, my: int) -> tuple[int, int, int, int]:
    """Colors of x and y split by membership pattern, in ``_PATTERNS`` order."""
    return mx & my, mx & ~my, my & ~mx, PALETTE & ~(mx | my)


@cache
def _template(overlap: int) -> tuple[tuple[int, ...], tuple[str, ...], list[bytes]]:
    """The gadget coloring for an edge of ``overlap`` 13 or 14: its terminal
    group sizes, every other vertex, and one column per template position
    (the groups' colors listed in turn) whose r-th byte is the digit 1 iff
    the r-th of those vertices holds that position's color, else 0."""
    t = _masks(w_coloring_83_41_uv13() if overlap == 13 else w_coloring_83_41_uv14())
    groups = _groups(t["u"], t["v"])
    names = tuple(w for w in t if w not in ("u", "v"))
    positions = chain.from_iterable(map(_bits, groups))
    cols = [bytes(b"01"[t[w] >> i & 1] for w in names) for i in positions]
    return tuple(g.bit_count() for g in groups), names, cols


def _extend_substitution(
    state: _State, edge: tuple[str, str], mapping: dict[str, str], step: int
) -> None:
    """Graft a reference gadget coloring onto the fresh copy along ``edge``."""
    mx, my = (state.masks[v] for v in edge)
    a = (mx & my).bit_count()
    if a not in (13, 14):
        raise ComposeError(f"step {step}: edge {edge} has overlap {a}, not 13 or 14")
    sizes, names, cols = _template(a)
    host_groups = _groups(mx, my)
    for p, h, t in zip(_PATTERNS, host_groups, sizes):
        if h.bit_count() != t:
            raise ComposeError(f"step {step}: group {p} mismatch {h.bit_count()} vs {t}")
    # the k-th template color of a group becomes the k-th host color of it:
    # order[k] is the host color of template position k, so the columns put
    # in host color order, highest first, are a matrix whose r-th strided
    # row is the binary text of the r-th vertex's mask
    order = [*chain.from_iterable(map(_bits, host_groups))]
    by_color = sorted(range(P), key=order.__getitem__)
    matrix = b"".join(map(cols.__getitem__, reversed(by_color)))
    masks, width = state.masks, len(names)
    for r, w in enumerate(names):
        masks[mapping[w]] = int(matrix[r::width], 2)

    # each mapped face is in canonical order: its host endpoint is older than
    # every copy, and the copies are added in template order
    for face, primes in zip(W_HAT_POSITIVE_FACES, W_PRIME_FACE_PRIMES):
        _extend_mini(state, [mapping[v] for v in face], [mapping[m] for m in primes], step)


@cache
def _mini_plans() -> dict[tuple[int, int, int], list[tuple]]:
    """Each mini-extension scheme as a plan, keyed by its (triple, pair,
    single) profile: the draws of rotations 0, 1 and 2 in turn, each as
    ``(pool, count, receivers, outer)`` over face positions 0..2.  Pool
    j < 3 holds the colors of positions j and j + 1 alone, pool 3 + j those
    of position j alone; ``receivers`` are the positions whose primes take
    the drawn colors, and ``outer`` the positions the scheme names."""
    offset = {"i": 0, "i+1": 1, "i+2": 2}
    plans: dict = {}
    for scheme in mini_extension_schemes():
        draws = []
        for i in range(3):
            for fam in scheme["families"]:
                outer = tuple((i + offset[tok]) % 3 for tok in fam["outer"])
                if len(outer) == 2:
                    a, b = outer
                    pool = a if (a + 1) % 3 == b else b
                else:
                    pool = 3 + outer[0]
                receivers = tuple((i + offset[tok]) % 3 for tok in fam["primes"])
                draws.append((pool, fam["count"], receivers, outer))
        profile = scheme["profile"]
        plans.setdefault((profile["triple"], profile["pair"], profile["single"]), draws)
    return plans


def _extend_mini(state: _State, o: list[str], primes: list[str], step: int) -> None:
    """Complete the coloring over one positive-face mini gadget: ``o`` is
    the face in canonical order, and ``primes[i]`` is the prime of ``o[i]``,
    the mini vertex not adjacent to it."""
    m0, m1, m2 = (state.masks[v] for v in o)
    pools = [
        m0 & m1 & ~m2, m1 & m2 & ~m0, m2 & m0 & ~m1,
        m0 & ~(m1 | m2), m1 & ~(m2 | m0), m2 & ~(m0 | m1),
    ]
    sizes = [pool.bit_count() for pool in pools]
    triple = (m0 & m1 & m2).bit_count()
    pair_sizes, single_sizes = set(sizes[:3]), set(sizes[3:])
    plan = None
    if len(pair_sizes) == len(single_sizes) == 1:
        plan = _mini_plans().get((triple, sizes[0], sizes[3]))
    if plan is None:
        raise ComposeError(
            f"step {step}: unknown triangle profile "
            f"(triple={triple}, pairs={sorted(pair_sizes)}, "
            f"singles={sorted(single_sizes)})"
        )

    # draws take from the pair and single pools without replacement
    masks = state.masks
    for pool, count, receivers, outer in plan:
        if sizes[pool] < count:
            if pool < 3:
                raise ComposeError(f"step {step}: pair pool exhausted at {[o[x] for x in outer]}")
            raise ComposeError(f"step {step}: single pool exhausted at {o[outer[0]]}")
        sizes[pool] -= count
        chosen = _lowest(pools[pool], count)
        pools[pool] ^= chosen
        for r in receivers:
            masks[primes[r]] = masks.get(primes[r], 0) | chosen


def compose_8341(trace: BuildTrace) -> Certificate:
    """Balanced (83, 41)-coloring of the traced graph with every edge
    overlap in {13, 14}; verify() accepts the result by construction, and
    the caller can re-check it independently."""
    state = _base_state(trace.base)
    for idx, step in enumerate(trace.steps, start=1):
        info = state.graph.apply(step, idx)
        if isinstance(step, Op1):
            _extend_apex(state, step.face, info, idx)  # type: ignore[arg-type]
        else:
            _extend_substitution(state, step.edge, info, idx)  # type: ignore[arg-type]
    return Certificate._merged(P, Q, Mode.BALANCED, ((s, 1) for s in _classes(state.masks)))


def _classes(masks: dict[str, int]) -> Iterator[tuple[str, ...]]:
    """The class of each color that some vertex holds, in color order.

    By name, so every class, a subsequence of the names, comes out sorted:
    the masks laid end to end, each ``_ROW`` bits wide and highest color
    first, are one binary text in which color i is the column that starts
    at digit ``_ROW - 1 - i`` and strides a row."""
    names = sorted(masks)
    if not all(map(lt, names, names[1:])):
        raise ComposeError("vertex names are not strictly increasing")
    rows = map(int.to_bytes, map(masks.__getitem__, names), repeat(_ROW // 8), repeat("big"))
    packed = int.from_bytes(b"".join(rows), "big")
    matrix = format(packed, f"0{_ROW * len(names)}b").encode().translate(_DIGITS)
    classes = (tuple(compress(names, matrix[_ROW - 1 - i :: _ROW])) for i in range(P))
    return filter(None, classes)
