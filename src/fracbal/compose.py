"""Inductive synthesis of balanced (83, 41)-colorings along a build trace.

Every graph built from the all-negative triangle by the two trace
operations admits a balanced (83, 41)-coloring in which the endpoints of
every edge share either 13 or 14 colors.  This module constructs one by
replaying the trace while carrying the coloring as one 83-bit mask per
vertex (bit i set iff the vertex holds color i; fixture colorings enter
as their ``Certificate.masks``), so the overlap of two vertices is
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
  The two positive faces of the copy are then completed with a scheme
  from the mini-extension fixture, selected by the induced triangle
  profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, product
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
    """The ``count`` lowest colors of ``pool`` (all of it if it has fewer)."""
    rest = pool
    for _ in range(count):
        rest &= rest - 1
    return pool ^ rest


def _base_state(base: str) -> _State:
    state = _State(_Builder(k3_minus()), dict(k3_base_colorings()["14-14-14"].masks))
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
def _template(overlap: int) -> tuple[tuple[int, ...], list[tuple[str, tuple[int, ...]]]]:
    """The gadget coloring for an edge of ``overlap`` 13 or 14: its terminal
    group sizes, and every other vertex with the positions of its colors
    when the groups' colors are listed in turn."""
    t = (w_coloring_83_41_uv13() if overlap == 13 else w_coloring_83_41_uv14()).masks
    groups = _groups(t["u"], t["v"])
    order = [*chain.from_iterable(map(_bits, groups))]
    rows = [(w, tuple(map(order.index, _bits(m)))) for w, m in t.items() if w not in ("u", "v")]
    return tuple(g.bit_count() for g in groups), rows


def _extend_substitution(
    state: _State, edge: tuple[str, str], mapping: dict[str, str], step: int
) -> None:
    """Graft a reference gadget coloring onto the fresh copy along ``edge``."""
    mx, my = (state.masks[v] for v in edge)
    a = (mx & my).bit_count()
    if a not in (13, 14):
        raise ComposeError(f"step {step}: edge {edge} has overlap {a}, not 13 or 14")
    sizes, rows = _template(a)
    host_groups = _groups(mx, my)
    for p, h, t in zip(_PATTERNS, host_groups, sizes):
        if h.bit_count() != t:
            raise ComposeError(f"step {step}: group {p} mismatch {h.bit_count()} vs {t}")
    # the k-th template color of a group becomes the k-th host color of it
    host_bit = list(map((1).__lshift__, chain.from_iterable(map(_bits, host_groups))))
    for w, colors in rows:
        state.masks[mapping[w]] = sum(map(host_bit.__getitem__, colors))

    # each mapped face is in canonical order: its host endpoint is older than
    # every copy, and the copies are added in template order
    for face, primes in zip(W_HAT_POSITIVE_FACES, W_PRIME_FACE_PRIMES):
        _extend_mini(state, [mapping[v] for v in face], [mapping[m] for m in primes], step)


def _extend_mini(state: _State, o: list[str], primes: list[str], step: int) -> None:
    """Complete the coloring over one positive-face mini gadget: ``o`` is
    the face in canonical order, and ``primes[i]`` is the prime of ``o[i]``,
    the mini vertex not adjacent to it."""
    prime = dict(zip(o, primes))
    m = [state.masks[v] for v in o]
    triple = m[0] & m[1] & m[2]
    pair_groups = {
        frozenset((o[i], o[(i + 1) % 3])): m[i] & m[(i + 1) % 3] & ~m[(i + 2) % 3]
        for i in range(3)
    }
    single_groups = {
        o[i]: m[i] & ~(m[(i + 1) % 3] | m[(i + 2) % 3]) for i in range(3)
    }

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

    # families draw from the pair and single groups without replacement
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
    # by name, so every class comes out sorted; the columns of the byte rows
    # are the colors, made one at a time
    names, masks = zip(*sorted(state.masks.items()))
    classes = (tuple(compress(names, col)) for col in zip(*map(_row, masks)))
    return Certificate.build(P, Q, Mode.BALANCED, ((s, 1) for s in classes if s))
