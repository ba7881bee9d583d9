"""Exact covering LP over a set family: fractional chromatic-style optima.

The optimum of  min sum w_S  s.t.  every vertex is covered with total
weight >= 1, w >= 0  over the balanced (resp. acyclic) sets of a graph is
its fractional balanced chromatic number (resp. fractional arboricity).
The LP is solved through its packing dual

    max sum y_v   s.t.   y(S) <= 1 for every family set S,  y >= 0,

whose all-slack basis is feasible; the cover weights are read off the
optimal dual multipliers.  Both certificates are re-verified in exact
integer arithmetic (each side scaled by the lcm of its denominators) before
anything is returned, so a returned LpResult is itself a proof of
optimality independent of the pivoting path.

``column_generation`` scales the same LP past full enumeration: a
restricted master over known columns plus the exact pricer of
``families``, which finds a balanced/acyclic set of largest dual weight by
a DP over the graph's clique-separator tree on the same atom rows that
enumeration joins, and stops when that weight is at most 1.  The priced
set is lifted to a maximal good set before it enters, as in Mehrotra and
Trick's column generation for graph colouring (INFORMS J. Computing 1996):
a vertex of positive dual cannot join a set of largest dual weight, so only
zero-dual vertices do, the weight stays the same, and the column dominates
the priced set.  That halves the iterations on the paper's gadgets and
closes chi_fb of ``g_hat_k3`` (87/43) and ``u_hat`` (2).  Each iteration
looks the pricer up as this module's ``_price``, so a wrapper installed
there sees every call.  The master is one ``simplex.Tableau`` kept
across iterations: each priced column is appended as a packing row and the
tableau resumes along the Bland path that a from-scratch solve of all
columns would take, so every master equals ``fractional_cover_optimum``
on the same columns, byte for byte.  Each master's certificates are
re-verified before pricing reads its duals.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Sequence

from .certify import Certificate, Mode
from .families import SetFamily, SetProperty, _lift, _price, enumerate_sets
from .sgraph import SignedGraph
from .simplex import SimplexResult, Tableau, simplex_max


class CoverError(RuntimeError):
    """Uncovered vertex (family bug) or failed certificate re-verification."""


@dataclass(frozen=True)
class LpResult:
    """Exact optimum with primal (cover weights) and dual (vertex weights)
    certificates; invariant: both feasible and equal in value."""

    optimum: Fraction
    primal: tuple[tuple[tuple[str, ...], Fraction], ...]
    dual: tuple[tuple[str, Fraction], ...]


def verify_cover_certificates(
    family: SetFamily,
    optimum: Fraction,
    primal: Sequence[tuple[tuple[str, ...], Fraction]],
    dual: Sequence[tuple[str, Fraction]],
) -> None:
    """Raise CoverError unless primal and dual are feasible with equal value.

    The cover weights and the vertex weights are each scaled by the lcm of
    their denominators, so every sum below adds Python ints.
    """
    weights = {s: w for s, w in primal}
    # a Fraction's sign is its numerator's, read without Fraction comparison
    if any(w.numerator < 0 for w in weights.values()):
        raise CoverError("negative primal weight")
    w_scale = lcm(*(w.denominator for w in weights.values()))
    scaled_w = {s: w.numerator * (w_scale // w.denominator) for s, w in weights.items()}
    coverage = dict.fromkeys(family.host.vertices, 0)
    for s, w in scaled_w.items():
        for v in s:
            coverage[v] += w
    if any(c < w_scale for c in coverage.values()):
        raise CoverError("primal does not cover every vertex")
    y = dict(dual)
    if any(val.numerator < 0 for val in y.values()):
        raise CoverError("negative dual weight")
    y_scale = lcm(*(val.denominator for val in y.values()))
    scaled_y = {v: val.numerator * (y_scale // val.denominator) for v, val in y.items()}
    for s in family.sets:
        if sum([scaled_y.get(v, 0) for v in s]) > y_scale:
            raise CoverError(f"dual violates set constraint for {s}")
    if (
        Fraction(sum(scaled_w.values()), w_scale) != optimum
        or Fraction(sum(scaled_y.values()), y_scale) != optimum
    ):
        raise CoverError("certificate values do not match the optimum")


def fractional_cover_optimum(family: SetFamily) -> LpResult:
    """Exact optimum of the covering LP over ``family`` with certificates.

    A host with no vertices needs no cover: its optimum is 0 with empty
    primal and dual.
    """
    if not family.host.vertices:
        return LpResult(Fraction(0), (), ())
    if not family.sets:
        raise CoverError("empty family")
    covered: set[str] = set()
    for s in family.sets:
        covered.update(s)
    missing = [v for v in family.host.vertices if v not in covered]
    if missing:
        raise CoverError(f"vertex {missing[0]!r} lies in no family set")

    col = {v: j for j, v in enumerate(family.host.vertices)}
    rows = [_indicator(s, col) for s in family.sets]
    res = simplex_max(rows, [1] * len(rows), [1] * len(col))
    return _certified(family, res)


def _indicator(s: tuple[str, ...], col: dict[str, int]) -> list[int]:
    row = [0] * len(col)
    for v in s:
        row[col[v]] = 1
    return row


def _certified(family: SetFamily, res: SimplexResult) -> LpResult:
    """The cover (row duals) and vertex weights (x) of an optimal packing
    LP over ``family``'s rows, re-verified before they are returned."""
    verts = family.host.vertices
    primal = tuple(
        (family.sets[i], res.duals[i])
        for i in range(len(family.sets))
        if res.duals[i] != 0
    )
    dual = tuple((v, res.x[j]) for j, v in enumerate(verts))
    verify_cover_certificates(family, res.value, primal, dual)
    return LpResult(res.value, primal, dual)


def chi_fb(g: SignedGraph, *, size_guard: int | None = None) -> LpResult:
    """Fractional balanced chromatic number, via the LP over maximal
    balanced sets.

    Maximal sets suffice: enlarging a set only improves coverage, so some
    optimal cover uses maximal sets only.
    """
    fam = enumerate_sets(
        g, SetProperty.BALANCED, maximal_only=True, size_guard=size_guard
    )
    return fractional_cover_optimum(fam)


def a_f(g: SignedGraph, *, size_guard: int | None = None) -> LpResult:
    """Fractional arboricity: the same LP over maximal acyclic sets."""
    fam = enumerate_sets(
        g, SetProperty.ACYCLIC, maximal_only=True, size_guard=size_guard
    )
    return fractional_cover_optimum(fam)


def lp_to_certificate(result: LpResult, mode: Mode) -> Certificate:
    """Scale a fractional cover into an integer (p, q) certificate.

    q is the least common multiple of the weight denominators (the smallest
    uniform scaling making every repetition integral); p is the total
    repetition count.
    """
    weights = [(s, w) for s, w in result.primal if w > 0]
    q = reduce(lcm, (w.denominator for _, w in weights), 1)
    classes = [(s, int(w * q)) for s, w in weights]
    p = sum(rep for _, rep in classes)
    return Certificate.build(p, q, mode, classes)


@dataclass(frozen=True)
class ColumnGenResult:
    """Outcome of column generation: exact optimum when completed, or the
    best certified interval when the pricing budget ran out."""

    completed: bool
    lower: Fraction
    upper: Fraction
    result: LpResult | None
    iterations: int
    columns: int
    # the vertex weighting whose total is ``lower``: the final master dual
    # when completed, else y / best_w from the iteration that set ``lower``
    lower_dual: tuple[tuple[str, Fraction], ...]
    # over all pricing calls, the DP rows evaluated (walk nodes when an
    # atom is too large for rows), and the master pivots actually
    # computed; equality ignores both
    price_nodes: int = field(default=0, compare=False)
    master_pivots: int = field(default=0, compare=False)

    @property
    def optimum(self) -> Fraction | None:
        return self.result.optimum if self.completed and self.result else None


def column_generation(
    g: SignedGraph,
    prop: SetProperty,
    *,
    time_budget: float | None = None,
    max_iterations: int | None = None,
) -> ColumnGenResult:
    """Covering optimum by restricted-master simplex plus exact pricing.

    Starts from singleton columns (always feasible on loop-free graphs) and
    adds the maximum-dual-weight violating set, lifted to a maximal good set
    by ``families._lift``, until pricing proves no set has dual weight above
    1.  On budget exhaustion, returns the certified interval [master dual
    value / best pricing weight, master optimum], which always contains the
    true optimum.  Either way ``lower_dual`` is a vertex weighting under
    which every good set weighs at most 1 and whose total is ``lower``.  A
    NaN ``time_budget`` raises ValueError, since no elapsed time would ever
    exceed it, and so does a ``max_iterations`` below 1, since every run
    prices at least once.
    """
    if time_budget is not None and time_budget != time_budget:
        raise ValueError("time_budget must be a number of seconds, not NaN")
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    columns: list[tuple[str, ...]] = [(v,) for v in g.vertices]
    col = {v: j for j, v in enumerate(g.vertices)}
    ones = [1] * len(columns)
    lp = Tableau([_indicator(s, col) for s in columns], ones, ones)
    started = time.monotonic()
    iterations = 0
    lower = Fraction(0)
    nodes = 0
    while True:
        # singletons and lifted priced columns hold the property by construction
        fam = SetFamily._trusted(g, prop, tuple(columns))
        master = _certified(fam, lp.solve())
        best_w, best_s, price_nodes = _price(g, prop, dict(master.dual))
        nodes += price_nodes
        iterations += 1
        if best_w <= 1:
            return ColumnGenResult(
                True, master.optimum, master.optimum, master, iterations, len(columns),
                master.dual, nodes, lp.executed,
            )
        # y / best_w is dual feasible for the full family
        if master.optimum / best_w > lower:
            lower, behind = master.optimum / best_w, (master.dual, best_w)
        out_of_budget = (
            (time_budget is not None and time.monotonic() - started > time_budget)
            or (max_iterations is not None and iterations >= max_iterations)
        )
        if out_of_budget:
            y, w = behind
            return ColumnGenResult(
                False, lower, master.optimum, master, iterations, len(columns),
                tuple((v, val / w) for v, val in y), nodes, lp.executed,
            )
        column = _lift(g, prop, best_s)
        if column in columns:  # pricing stalled; should not happen
            raise CoverError("pricing returned a known column")
        columns.append(column)
        lp.append_row(_indicator(column, col), 1)
