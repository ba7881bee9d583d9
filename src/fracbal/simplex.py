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

``Tableau`` is the one engine and ``solve`` its one pivot loop:
``simplex_max`` builds a tableau and runs Bland's rule to the end, and
column generation keeps a resumable one across its iterations and appends
an integer row per priced column.  An appended row adds a basic slack, not
a column, so the engine can resume instead of solving again.  A resumable
tableau records each pivot of its path as ``(r, s, pivot row, d)`` and
keeps a checkpoint of the whole tableau before every
``_CHECKPOINT_EVERY``-th pivot.  Bland's entering choice reads only the
objective row, which no row that never pivots can change, and the new
slack has the largest label, so it loses every ratio tie.  A from-scratch
solve of all rows therefore takes the recorded path up to the first step
at which the new row's ratio is *strictly* smaller than the pivot row's.
The engine carries the new row through the recorded pivots by the ordinary
Bareiss row update until that step (adding it to each checkpoint it
passes), rebuilds the tableau there from the nearest checkpoint, and
continues with Bland.  The result, pivot count included, is exactly that
of ``simplex_max`` over all rows, and so is the final tableau.

``SimplexResult.max_bits`` is read off that final tableau once, when the
result is built: the bit length of its largest absolute entry, each entry
being a minor of the scaled input.  Nothing along the path accounts widths.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from math import lcm
from numbers import Rational
from typing import Sequence

# Pivots between two full tableau checkpoints: a rewind replays fewer than
# this many pivots, and checkpoint memory falls with it.
_CHECKPOINT_EVERY = 8


class SimplexError(RuntimeError):
    """Unbounded instance or violated entry preconditions."""


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    x: tuple[Fraction, ...]       # structural variable values
    duals: tuple[Fraction, ...]   # one multiplier per constraint row
    pivots: int                   # Bland pivots taken
    # Bit length of the largest absolute entry of the final tableau; a
    # property of the integer representation, not of the answer, so
    # equality ignores it.
    max_bits: int = field(default=0, compare=False)


def _check_rows(rows: Sequence[Sequence[Rational]], b: Sequence[Rational], n: int) -> None:
    if any(len(r) != n for r in rows) or len(b) != len(rows):
        raise SimplexError("inconsistent dimensions")
    if any(bi < 0 for bi in b):
        raise SimplexError("requires nonnegative right-hand sides")


def _eliminate(row: list[int], prow: list[int], s: int, d: int) -> list[int]:
    """The Bareiss update of a non-pivot row for pivot row ``prow`` and
    column ``s`` at denominator ``d``, as a new list."""
    p = prow[s]
    f = row[s]
    if f:
        out = [(v * p - f * w) // d for v, w in zip(row, prow)]
        out[s] = -f
        return out
    if p != d:
        return [v * p // d for v in row]
    return row


def _width(rows: Sequence[list[int]]) -> int:
    """The largest absolute value of an entry of ``rows``, in C-level scans."""
    return max(max(map(max, rows)), -min(map(min, rows)))


class Tableau:
    """Condensed tableau of  max c.x, A x <= b, x >= 0  over integers
    (b >= 0), optionally resumable.

    ``solve`` runs Bland's rule from the current state.  A ``resumable``
    tableau records its path and checkpoints, and ``append_row`` adds one
    constraint and moves the state to where a from-scratch solve of all
    rows leaves the recorded path; a one-shot solve records nothing, as
    the checkpoints would keep a tableau per ``_CHECKPOINT_EVERY`` pivots
    alive.  Rows are never changed in place (a pivot builds new lists), so
    the path records and the checkpoints share them.  ``executed`` counts
    the pivots actually computed, replays included.  A result's
    ``max_bits`` is the width of the tableau it was read from.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        b: Sequence[int],
        c: Sequence[int],
        *,
        resumable: bool = False,
    ):
        self.n = n = len(c)
        m = len(rows)
        # m constraint rows, then the objective row of reduced costs and -value
        self.t = [list(row) + [bi] for row, bi in zip(rows, b)]
        self.t.append(list(c) + [0])
        self.basis = [n + i for i in range(m)]
        self.nonbasic = list(range(n))
        self.d = 1
        self.resumable = resumable
        self.pivots = 0  # length of the current Bland path
        self.path: list[tuple[int, int, list[int], int]] = []
        # before pivot k * _CHECKPOINT_EVERY: (rows, d, basis, nonbasic)
        self.checkpoints: list[tuple[list[list[int]], int, list[int], list[int]]] = []
        self.executed = 0

    def solve(self) -> SimplexResult:
        """Run Bland's rule to the optimum: the least-label nonbasic variable
        with positive reduced cost enters, and the leaving row breaks ratio
        ties by least basic label.  This terminates without perturbation."""
        n = self.n
        while True:
            t = self.t
            m = len(t) - 1
            obj = t[m]
            nonbasic = self.nonbasic
            s = None
            for k in range(n):
                if obj[k] > 0 and (s is None or nonbasic[k] < nonbasic[s]):
                    s = k
            if s is None:
                return self._result()
            basis = self.basis
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
            if self.resumable:
                if self.pivots == _CHECKPOINT_EVERY * len(self.checkpoints):
                    self.checkpoints.append((list(t), self.d, list(basis), list(nonbasic)))
                self.path.append((r, s, t[r], self.d))
            self.pivots += 1
            self._pivot(r, s)

    def append_row(self, row: Sequence[int], rhs: int) -> None:
        """Add the constraint ``row . x <= rhs`` and rewind to the first
        recorded step at which it would win the ratio test, if any."""
        if not self.resumable:
            raise SimplexError("rows can only be appended to a resumable tableau")
        _check_rows([row], [rhs], self.n)
        n = self.n
        m = len(self.t) - 1
        new = list(row) + [rhs]
        for k, (_, s, prow, d) in enumerate(self.path):
            if k % _CHECKPOINT_EVERY == 0:
                rows, _, basis, _ = self.checkpoints[k // _CHECKPOINT_EVERY]
                rows.insert(m, new)
                basis.append(n + m)
            f = new[s]
            # strictly smaller ratio new[n] / f < prow[n] / prow[s]; a tie
            # keeps the recorded row, whose basic label is smaller
            if f > 0 and new[n] * prow[s] < prow[n] * f:
                self._rewind(k)
                return
            new = _eliminate(new, prow, s, d)
        self.t.insert(m, new)
        self.basis.append(n + m)

    def _rewind(self, k: int) -> None:
        """Rebuild the state before pivot ``k`` of the recorded path from the
        nearest checkpoint and drop the records after it."""
        c = k // _CHECKPOINT_EVERY
        rows, self.d, basis, nonbasic = self.checkpoints[c]
        self.t, self.basis, self.nonbasic = list(rows), list(basis), list(nonbasic)
        del self.checkpoints[c + 1:]
        replay = self.path[c * _CHECKPOINT_EVERY:k]
        del self.path[k:]
        self.pivots = k
        for r, s, _, _ in replay:
            self._pivot(r, s)

    def _pivot(self, r: int, s: int) -> None:
        """Pivot on row ``r`` and column ``s``."""
        t, d = self.t, self.d
        prow = t[r]
        for i, row in enumerate(t):
            if i != r:
                t[i] = _eliminate(row, prow, s, d)
        pivot = list(prow)
        pivot[s] = d
        t[r] = pivot
        self.d = prow[s]
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]
        self.executed += 1

    def _result(self) -> SimplexResult:
        t, n, d = self.t, self.n, self.d
        m = len(t) - 1
        obj = t[m]
        x = [Fraction(0)] * n
        for i, var in enumerate(self.basis):
            if var < n:
                x[var] = Fraction(t[i][n], d)
        duals = [Fraction(0)] * m
        for k, var in enumerate(self.nonbasic):
            if var >= n:
                duals[var - n] = Fraction(-obj[k], d)
        return SimplexResult(
            Fraction(-obj[n], d), tuple(x), tuple(duals), self.pivots,
            _width(t).bit_length(),
        )


def simplex_max(
    rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
    c: Sequence[Rational],
) -> SimplexResult:
    """Maximize c.x over Ax <= b, x >= 0 (requires b >= 0) on a fresh
    ``Tableau``, with Bland's rule.  Every entry must be a ``Rational``
    (an int or a Fraction); a float or a Decimal is refused."""
    for v in chain(b, c, *rows):
        if not isinstance(v, Rational):
            raise SimplexError(f"entries must be rational, got {v!r}")
    _check_rows(rows, b, len(c))
    scale = lcm(*(v.denominator for v in chain(b, c, *rows)))

    def scaled(vals: Sequence[Rational]) -> list[int]:
        return [v.numerator * (scale // v.denominator) for v in vals]

    res = Tableau([scaled(row) for row in rows], scaled(b), scaled(c)).solve()
    return replace(res, value=res.value / scale)
