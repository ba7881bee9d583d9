"""Certificates for (p, q)-colorings and their verification audits.

A certificate is a weighted list of vertex sets: each class is used as a
color class ``rep`` times, drawing from a palette of p colors, and every
vertex must be covered at least q times.  Classes identify colors only
through multiplicity; duplicate rows for the same set are merged on load.

The audits sum class repetitions, so their memory does not grow with the
palette: the triangle counts over the classes that hold or miss the
triangle, and the overlap and profile audits as popcounts on one cached
view, ``Certificate._class_masks``, which holds for each vertex the
bitmask of the classes that hold it, one popcount per binary digit of the
repetitions.  The verifier is deliberately primitive: it uses only
balance / forest checks and integer counting over the classes, so it
stays independent of whatever produced the certificate (the LP solver or
the inductive composer) and of the cached view.  A failing class is
searched whole for its witness.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from operator import eq, lt
from typing import Iterable, Sequence

from .sgraph import (
    GraphError,
    SignedGraph,
    _assembled,
    any_cycle,
    load_json,
    negative_cycle_witness,
    sets_hold,
)


class CertificateError(ValueError):
    """Structurally invalid certificate."""


class Mode(Enum):
    BALANCED = "balanced"
    FOREST = "forest"


def _check_classes(
    p: int, q: int, classes: Sequence[tuple[tuple[str, ...], int]], *, canonical: bool
) -> None:
    """Raise CertificateError unless ``classes`` meets the invariants of a
    ``Certificate`` over a palette of ``p``.  ``canonical`` classes are
    known to be sorted sets in strictly increasing order, so only their
    emptiness and repetitions are checked."""
    if p < 1 or q < 1:
        raise CertificateError("p and q must be positive")
    total = 0
    prev: tuple[str, ...] | None = None
    for s, rep in classes:
        if not s:
            raise CertificateError("empty color class")
        if not canonical:
            if not all(map(lt, s, s[1:])):
                raise CertificateError(f"class {s} is not a sorted set")
            if prev is not None and s <= prev:
                raise CertificateError("classes not sorted or not merged")
            prev = s
        if rep < 1:
            raise CertificateError(f"class {s} has repetition {rep}")
        total += rep
    if total > p:
        raise CertificateError(f"total repetition {total} exceeds palette {p}")


@dataclass(frozen=True)
class Certificate:
    """A (p, q)-coloring given as color classes with repetition counts.

    Invariants: p, q >= 1; classes are nonempty, lexicographically sorted,
    pairwise distinct, with positive repetitions summing to at most p.
    """

    p: int
    q: int
    mode: Mode
    classes: tuple[tuple[tuple[str, ...], int], ...]

    def __post_init__(self) -> None:
        _check_classes(self.p, self.q, self.classes, canonical=False)

    @classmethod
    def build(
        cls,
        p: int,
        q: int,
        mode: Mode,
        classes: Iterable[tuple[Iterable[str], int]],
    ) -> "Certificate":
        """Canonicalize raw rows: sort each set, merge duplicate sets."""
        return cls._merged(p, q, mode, ((_sorted_set(raw), rep) for raw, rep in classes))

    @classmethod
    def _merged(
        cls, p: int, q: int, mode: Mode, classes: Iterable[tuple[tuple[str, ...], int]]
    ) -> "Certificate":
        """The certificate of classes whose sets are already sorted tuples
        with no repeated vertex: duplicate sets are merged and the classes
        put in order.  Each set was scanned once by whoever sorted it, so
        the constructor's second pass over it is skipped."""
        merged: dict[tuple[str, ...], int] = {}
        for key, rep in classes:
            merged[key] = merged.get(key, 0) + rep
        rows = tuple(sorted(merged.items()))
        _check_classes(p, q, rows, canonical=True)
        return _assembled(cls, p=p, q=q, mode=mode, classes=rows)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        obj = load_json(text, CertificateError)
        try:
            mode = Mode(obj["mode"])
            p, q = obj["p"], obj["q"]
            rows = [(entry["set"], entry["rep"]) for entry in obj["classes"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"bad certificate document: {exc}") from exc
        # type(...) is int, since JSON true and false load as bool, an int subclass
        if any(type(n) is not int for n in (p, q, *(rep for _, rep in rows))):
            raise CertificateError("p, q and every rep must be integers")
        for s, _ in rows:
            if not isinstance(s, list) or not all(isinstance(v, str) for v in s):
                raise CertificateError(f"class set must be a list of vertex names, got {s!r}")
        return cls.build(p, q, mode, rows)

    def to_json(self) -> str:
        obj = {
            "p": self.p,
            "q": self.q,
            "mode": self.mode.value,
            "classes": [{"set": list(s), "rep": rep} for s, rep in self.classes],
        }
        return json.dumps(obj, indent=2)

    @property
    def total_rep(self) -> int:
        return sum(rep for _, rep in self.classes)

    @cached_property
    def _class_masks(self) -> tuple[dict[str, int], list[int]]:
        """For each vertex the bitmask of the classes that hold it, bit j
        for class j (vertices in no class are absent), and the digits of
        ``_digits``.  Their size grows with the number of classes, not with
        the palette."""
        holders: dict[str, int] = {}
        for j, (s, _) in enumerate(self.classes):
            bit = 1 << j
            for v in s:
                holders[v] = holders.get(v, 0) | bit
        return holders, _digits(self.classes)


def _digits(classes: Sequence[tuple[tuple[str, ...], int]]) -> list[int]:
    """Digit k selects the classes whose repetition has bit k set."""
    digits = [0] * max((rep for _, rep in classes), default=0).bit_length()
    for j, (_, rep) in enumerate(classes):
        for k in range(rep.bit_length()):
            if rep >> k & 1:
                digits[k] |= 1 << j
    return digits


def _weight(mask: int, digits: list[int]) -> int:
    """The total repetition of the classes in ``mask``: a popcount per
    binary digit of the repetitions, one when every repetition is 1."""
    return sum((mask & d).bit_count() << k for k, d in enumerate(digits))


def _sorted_set(raw: Iterable[str]) -> tuple[str, ...]:
    """``raw`` as a sorted tuple; a repeated vertex is refused."""
    row = tuple(raw)
    if all(map(lt, row, row[1:])):
        return row
    key = tuple(sorted(row))
    if any(map(eq, key, key[1:])):
        raise CertificateError(f"class {row} repeats a vertex")
    return key


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple[str, ...]
    witness: tuple[str, ...] | None = None
    message: str = ""


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    per_vertex_coverage: tuple[tuple[str, int], ...]
    violations: tuple[Violation, ...]


def verify(g: SignedGraph, c: Certificate) -> VerifyReport:
    """Check a certificate against a host graph.

    Findings rather than exceptions: every class must induce a balanced set
    (BALANCED mode) or a forest (FOREST mode), total repetitions must fit
    the palette, and every vertex must be covered at least q times.  One
    loop over the members finds strangers and builds each vertex's mask of
    the classes that hold it, and one ``sgraph.sets_hold`` call tests
    every class.  A vertex's coverage is a popcount of its mask per binary
    digit of the repetitions: one popcount when every repetition is 1.
    Only a class that fails is searched again, whole, for its cycle
    witness.
    """
    index = g.index
    masks = [0] * len(index)
    strangers: list[list[str]] = []
    for j, (s, _) in enumerate(c.classes):
        bit = 1 << j
        out = []
        for v in s:
            i = index.get(v)
            if i is None:
                out.append(v)
            else:
                masks[i] |= bit
        strangers.append(out)
    digits = _digits(c.classes)
    counts = [_weight(m, digits) for m in masks]
    holds = sets_hold(g, masks, len(c.classes), acyclic=c.mode is Mode.FOREST)
    violations: list[Violation] = []
    for (s, _), out, ok in zip(c.classes, strangers, holds):
        if out:
            violations.append(Violation("unknown-vertex", s, None, f"not in graph: {out}"))
        elif ok:
            pass
        elif c.mode is Mode.BALANCED:
            witness = negative_cycle_witness(g, s)
            violations.append(Violation("unbalanced-class", s, witness.vertices, "induces a negative cycle"))
        else:
            witness = any_cycle(g, s)
            violations.append(Violation("cyclic-class", s, witness.vertices, "induces a cycle"))
    if c.total_rep > c.p:
        violations.append(
            Violation("palette-overflow", (), None,
                      f"{c.total_rep} repetitions for {c.p} colors")
        )
    coverage = tuple(zip(g.vertices, counts))
    for v, cov in coverage:
        if cov < c.q:
            violations.append(
                Violation("undercovered-vertex", (v,), None, f"coverage {cov} < {c.q}")
            )
    return VerifyReport(not violations, coverage, tuple(violations))


def overlap(c: Certificate, x: str, y: str) -> int:
    """Number of common colors of two vertices: the total repetition of the
    classes that hold both."""
    if x == y:
        raise GraphError("overlap needs two distinct vertices")
    holders, digits = c._class_masks
    return _weight(holders.get(x, 0) & holders.get(y, 0), digits)


def triangle_common_count(c: Certificate, t: Sequence[str]) -> int:
    """Number of colors appearing on all three vertices of a triangle."""
    need = set(t)
    if len(need) != 3:
        raise GraphError("expected 3 distinct vertices")
    return sum(rep for s, rep in c.classes if need.issubset(s))


def triangle_missing_count(c: Certificate, t: Sequence[str]) -> int:
    """Number of colors that appear on none of the triangle's vertices.

    Unused palette colors (p minus the total repetition) miss every
    triangle and are counted in.
    """
    need = set(t)
    if len(need) != 3:
        raise GraphError("expected 3 distinct vertices")
    return c.p - sum(rep for s, rep in c.classes if not need.isdisjoint(s))


def triangle_property_audit(c: Certificate, t: Sequence[str], sign: int) -> bool:
    """Strict triangle property for (2k, k)-type colorings.

    Negative triangle: every color must touch it (zero missing colors).
    Positive triangle: no color may appear on all three vertices.
    """
    if sign == -1:
        return triangle_missing_count(c, t) == 0
    if sign == 1:
        return triangle_common_count(c, t) == 0
    raise GraphError("sign must be +1 or -1")


@dataclass(frozen=True)
class OverlapProfile:
    """Pairwise common-color counts and exclusive counts over terminals."""

    pairs: tuple[tuple[tuple[str, str], int], ...]
    singles: tuple[tuple[str, int], ...]

    @property
    def pair_map(self) -> dict[tuple[str, str], int]:
        return dict(self.pairs)

    @property
    def single_map(self) -> dict[str, int]:
        return dict(self.singles)


def profile(c: Certificate, terminals: Sequence[str]) -> OverlapProfile:
    """Overlap profile restricted to a terminal list: for each pair the
    common-color count, and for each terminal the count of colors it holds
    exclusively among the terminals."""
    terms = list(terminals)
    pairs = [((x, y), overlap(c, x, y)) for x, y in combinations(terms, 2)]
    holders, digits = c._class_masks
    singles = []
    for v in terms:
        others = 0
        for w in terms:
            if w != v:
                others |= holders.get(w, 0)
        singles.append((v, _weight(holders.get(v, 0) & ~others, digits)))
    return OverlapProfile(tuple(pairs), tuple(singles))
