"""Exact fraction-free simplex with Bland's anti-cycling rule.

Solves  max c^T x  subject to  A x <= b,  x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed.

The tableau is condensed (Tucker form): one row per basic variable and one
column per nonbasic variable plus the right-hand side, with the objective
as a last row.  Each row and column carries the label of its variable:
structural ``j < n``, slack ``n + i``.  Entries are Python integers over one
common denominator ``d``, the determinant of the current basis, and a pivot
is the integer-preserving update of Edmonds and Bareiss:

    new[i][k] = (t[i][k] * p - t[i][s] * t[r][k]) // d

which always divides exactly; afterwards ``d`` becomes the pivot ``p``.
Rational inputs are scaled once by the lcm of their denominators, which
rescales the slacks and the objective but neither the pivot path nor the
optimal ``x`` and duals.  No floating point enters the computation, which
is what lets the covering optima downstream be exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Sequence


class SimplexError(RuntimeError):
    """Unbounded instance or violated entry preconditions."""


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    x: tuple[Fraction, ...]       # structural variable values
    duals: tuple[Fraction, ...]   # one multiplier per constraint row
    pivots: int                   # Bland pivots taken
    # Largest int.bit_length() of any tableau entry; a property of the
    # integer representation, not of the answer, so equality ignores it.
    max_bits: int = field(default=0, compare=False)


def simplex_max(
    rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
    c: Sequence[Rational],
) -> SimplexResult:
    """Maximize c.x over Ax <= b, x >= 0 (requires b >= 0).

    Bland's rule: entering variable is the least-label nonbasic variable with
    positive reduced cost; the leaving row breaks ratio ties by least basic
    label.  This guarantees termination without perturbation.
    """
    m = len(rows)
    n = len(c)
    if any(len(r) != n for r in rows) or len(b) != m:
        raise SimplexError("inconsistent dimensions")
    if any(bi < 0 for bi in b):
        raise SimplexError("requires nonnegative right-hand sides")

    exact = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(rows, b)]
    exact.append([Fraction(cj) for cj in c] + [Fraction(0)])
    scale = lcm(*(v.denominator for row in exact for v in row))
    # m constraint rows, then the objective row of reduced costs and -value
    t = [[v.numerator * (scale // v.denominator) for v in row] for row in exact]
    basis = [n + i for i in range(m)]
    nonbasic = list(range(n))
    d = 1
    widest = 0
    pivots = 0

    while True:
        widest = max(widest, max(map(max, t)), -min(map(min, t)))
        obj = t[m]
        s = None
        for k in range(n):
            if obj[k] > 0 and (s is None or nonbasic[k] < nonbasic[s]):
                s = k
        if s is None:
            break
        r = None
        for i in range(m):
            coef = t[i][s]
            if coef > 0:
                if r is None:
                    r = i
                    continue
                # t[i][n] / coef against t[r][n] / t[r][s]; both divisors > 0
                lhs = t[i][n] * t[r][s]
                rhs = t[r][n] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            raise SimplexError("unbounded objective")
        prow = t[r]
        p = prow[s]
        for i, row in enumerate(t):
            if i == r:
                continue
            f = row[s]
            if f:
                row = [(v * p - f * w) // d for v, w in zip(row, prow)]
            elif p != d:
                row = [v * p // d for v in row]
            row[s] = -f
            t[i] = row
        prow[s] = d
        d = p
        basis[r], nonbasic[s] = nonbasic[s], basis[r]
        pivots += 1

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(t[i][n], d)
    duals = [Fraction(0)] * m
    for k, var in enumerate(nonbasic):
        if var >= n:
            duals[var - n] = Fraction(-obj[k], d)
    value = Fraction(-obj[n], d * scale)
    return SimplexResult(value, tuple(x), tuple(duals), pivots, widest.bit_length())
