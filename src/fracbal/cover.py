"""Exact covering LP over a set family: fractional chromatic-style optima.

The optimum of  min sum w_S  s.t.  every vertex is covered with total
weight >= 1, w >= 0  over the balanced (resp. acyclic) sets of a graph is
its fractional balanced chromatic number (resp. fractional arboricity).
The LP is solved through its packing dual

    max sum y_v   s.t.   y(S) <= 1 for every family set S,  y >= 0,

whose all-slack basis is feasible; the cover weights are read off the
optimal dual multipliers.  Both certificates are re-verified in exact
integer arithmetic (every weight scaled by the lcm of the denominators)
before anything is returned, so a returned LpResult is itself a proof of
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
on the same columns, byte for byte.

The loop stays in integers.  Every entry of a Bareiss tableau is an integer
over the determinant d of its basis (Bareiss 1968), so each master is read
as numerators over d and checked in integers at scale d before pricing
reads it: the cover covers every vertex d times, the vertex weights sum to
at most d on every column, and both totals are the value's numerator.
The pricer takes the vertex numerators as weights, since only their
ratios matter, and the loop stops when the best weight is at most d.
Fractions are built once, for the result returned, which is re-verified
as ``fractional_cover_optimum``'s is.  Exact LP codes likewise check in
integers and build rationals only at the boundary (Applegate, Cook, Dash
and Espinoza, "Exact solutions to linear programming problems", 2007).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Collection, Mapping, Sequence

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

    The optimum, the cover weights and the vertex weights are scaled by the
    lcm of their denominators and checked by ``_verify_scaled``.  A set that
    the primal lists twice counts with the sum of its weights, as in the
    LP; a vertex that the dual lists twice keeps its last weight, and one it
    omits weighs 0.
    """
    y = dict(dual)
    # ints have a numerator and a denominator too
    scale = lcm(
        optimum.denominator,
        *(w.denominator for _, w in primal),
        *(val.denominator for val in y.values()),
    )
    scaled_y = dict.fromkeys(family.host.vertices, 0)
    for v, val in y.items():
        scaled_y[v] = val.numerator * (scale // val.denominator)
    _verify_scaled(
        dict.fromkeys(family.sets),
        family.host.vertices,
        scale,
        optimum.numerator * (scale // optimum.denominator),
        [(s, w.numerator * (scale // w.denominator)) for s, w in primal],
        scaled_y,
    )


def _verify_scaled(
    sets: Collection[tuple[str, ...]],
    vertices: Sequence[str],
    scale: int,
    value: int,
    primal: Sequence[tuple[tuple[str, ...], int]],
    dual: Mapping[str, int],
) -> None:
    """``verify_cover_certificates`` on numerators over one common
    ``scale``: ``value`` is the optimum's, each primal pair a set and its
    weight's, and ``dual`` maps every host vertex, and any stranger, to its
    weight's.  ``sets`` are the family's, in order and each once, in a
    collection that tests membership in O(1) (a dict, whose keys keep
    their order), and ``vertices`` are the host's.  The checks run in this
    order, and the first that fails
    raises CoverError: primal weights are >= 0 and name family sets, they
    cover every vertex at least ``scale`` times, dual weights are >= 0 and
    name host vertices, they sum to at most ``scale`` on every family set,
    and both totals are ``value``.
    """
    # min, sum and map scan in C; a loop runs only to name what failed
    weights = [w for _, w in primal]
    if min(weights, default=0) < 0:
        raise CoverError("negative primal weight")
    for s, _ in primal:
        if s not in sets:
            raise CoverError(f"primal set {s} is not in the family")
    coverage = dict.fromkeys(vertices, 0)
    for s, w in primal:
        if w:
            for v in s:
                coverage[v] += w
    if min(coverage.values(), default=scale) < scale:
        raise CoverError("primal does not cover every vertex")
    if min(dual.values(), default=0) < 0:
        raise CoverError("negative dual weight")
    if not coverage.keys() >= dual.keys():
        v = next(v for v in dual if v not in coverage)
        raise CoverError(f"dual weight on {v!r}, which is not a host vertex")
    get = dual.__getitem__
    for s in sets:
        if sum(map(get, s)) > scale:
            raise CoverError(f"dual violates set constraint for {s}")
    if sum(weights) != value or sum(dual.values()) != value:
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
    verts = g.vertices
    # the master's columns in row order, as dict keys so that a lookup is O(1)
    columns: dict[tuple[str, ...], None] = dict.fromkeys((v,) for v in verts)
    col = {v: j for j, v in enumerate(verts)}
    ones = [1] * len(columns)
    lp = Tableau([_indicator(s, col) for s in columns], ones, ones)
    started = time.monotonic()
    iterations = 0
    # the best lower bound so far as the fraction value / best, and the
    # vertex numerators x behind it
    lower, behind = (0, 1), None
    nodes = 0
    while True:
        # every weight below is a numerator over the master's determinant d
        opt = lp.optimize()
        d = opt.d
        y = dict(zip(verts, opt.x))
        # row i is column i, so the master's rows are its primal's sets
        _verify_scaled(columns, verts, d, opt.value, list(zip(columns, opt.duals)), y)
        best_w, best_s, price_nodes = _price(g, prop, y)
        # integer weights have scale 1, so the weight comes back over 1
        best = best_w.numerator
        nodes += price_nodes
        iterations += 1
        # x / best is dual feasible for the full family, of value value / best
        if opt.value * lower[1] > lower[0] * best:
            lower, behind = (opt.value, best), opt.x
        completed = best <= d
        if (
            completed
            or (time_budget is not None and time.monotonic() - started > time_budget)
            or (max_iterations is not None and iterations >= max_iterations)
        ):
            # singletons and lifted priced columns hold the property by construction
            fam = SetFamily._trusted(g, prop, tuple(columns))
            master = _certified(fam, opt.result())
            if completed:
                return ColumnGenResult(
                    True, master.optimum, master.optimum, master, iterations, len(columns),
                    master.dual, nodes, lp.executed,
                )
            value, best = lower
            return ColumnGenResult(
                False, Fraction(value, best), master.optimum, master, iterations,
                len(columns), tuple((v, Fraction(x, best)) for v, x in zip(verts, behind)),
                nodes, lp.executed,
            )
        column = _lift(g, prop, best_s)
        if column in columns:  # pricing stalled; should not happen
            raise CoverError("pricing returned a known column")
        columns[column] = None
        lp.append_row(_indicator(column, col), 1)
