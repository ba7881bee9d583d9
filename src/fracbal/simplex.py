"""Exact fraction-free simplex with Bland's anti-cycling rule.

Solves  max c^T x  subject to  A x <= b,  x >= 0  for the covering LPs of
this package, whose every entry is the int 0 or 1; any other is refused.
As b >= 0, the all-slack basis is feasible and no phase-1 is needed.

The tableau is condensed (Tucker form): one row per basic variable and one
column per nonbasic variable plus the right-hand side, with the objective
as a further row.  Each row and column carries the label of its variable:
structural ``j < n``, slack ``n + i``.  Entries are Python integers over one
common denominator ``d``, the determinant of the current basis, and a pivot
is the integer-preserving update of Edmonds and Bareiss:

    new[i][k] = (t[i][k] * p - t[i][s] * t[r][k]) // d

which always divides exactly; afterwards ``d`` becomes the pivot ``p``.
No floating point enters the computation, which is what lets the covering
optima downstream be exact.

The tableau is held by column, as ``n + 1`` Python ints, the structural
columns and the right-hand side, each of ``m + 1`` signed lanes: the
objective in lane 0 and row ``i`` in lane ``i + 1``.  The covering LPs are
tall, a row per set over a column per vertex, so a pivot on ``(r, s)`` is
``n + 1`` big-int updates:

    c_k = (c_k * p - t[r][k] * (c_s - (d << row r))) // d    (k != s)
    c_s = ((d + p) << row r) - c_s

where ``<< row r`` shifts to the lane of row ``r``: that lane of each
numerator is ``t[r][k] * d``, so the pivot row keeps its entries, and of
the new ``c_s`` is ``d``.  Products are never unpacked: each lane of an
update's numerator is a multiple of ``d``, so the numerator is ``d`` times
the packed quotients, and one exact division yields them whatever carries
the products left between lanes.

Every stored entry, ``d`` included, is plus or minus a minor of at most
``k = n + 1`` columns of ``[A b; c 0]``, so its absolute value is at most a
bound ``H`` on the determinant of a 0/1 matrix of order ``k``,
``H = (k + 1)^((k + 1) / 2) / 2^k``: bordering such a matrix and mapping 0
to 1 and 1 to -1 gives a +-1 matrix of order ``k + 1`` whose determinant
is ``(-2)^k`` times it, and Hadamard's inequality bounds that (Brenner and
Cummings, "The Hadamard maximum determinant problem", 1972).  A lane of
``W = bits(H) + 2`` bits or more holds every entry strictly inside
``(-2^(W-1), 2^(W-1))``, and adding ``2^(W-1)`` to every lane makes them all
nonnegative without carries, so a lane is read with one biased shift and
mask.  Lanes are ``W`` rounded up to 1, 2, 4 or 8 bytes, so the ratio test
decodes the pivot column and the right-hand side in C: with the bias
added, flipping every lane's top bit leaves each lane in two's complement,
and ``to_bytes`` and ``memoryview.cast`` read them as machine integers.
Lanes wider than 8 bytes (n >= 36) decode one at a time with
``int.from_bytes``.  The width is fixed by ``n`` alone, so an appended row
must be 0/1 too.

``Tableau`` is resumable, for the master of column generation, which keeps
one across its iterations and appends a row per priced column.  Its
``optimize`` records each pivot of its path as ``(r, s, pivot row, d)``,
the pivot row being the lane ``r`` entries that the column update decodes
anyway, and keeps a checkpoint of the whole tableau before every
``_CHECKPOINT_EVERY``-th pivot.  Bland's entering choice reads only the
objective, which no row that never pivots can change, and the new slack
has the largest label, so it loses every ratio tie.  A from-scratch solve
of all rows therefore takes the recorded path up to the first step at
which the new row's ratio is *strictly* smaller than the pivot row's.
``append_row`` carries the new row, as ``n + 1`` ints, through the recorded
pivots by the Bareiss row update until that step, adds it as lane
``m + 1`` of every checkpoint it passes, rebuilds the tableau there from
the nearest checkpoint, and continues with Bland; if no step is found, the
row becomes lane ``m + 1`` of the live columns.  The result, pivot count
included, is exactly that of ``simplex_max`` over all rows, and so is the
final tableau.  ``simplex_max`` is the same engine run once with nothing
recorded.

An optimum is read in integers without unpacking the tableau whole: every
entry is an integer over ``d``, so the read (``Optimum``) holds the
numerators of the value and the duals, from the objective lanes, and of
each basic ``x``, from the right-hand side, and ``d`` itself.
``Optimum.result`` builds the Fractions of a ``SimplexResult`` from it.
The result keeps the packed columns and their lanes, fresh ones per
appended row, and ``SimplexResult.max_bits``, the bit length of the
largest absolute entry, is computed from them the first time it is read.
Nothing along the path accounts widths.

Packed by row, the resumable master took the same Bland paths and pivot
counts.  Against it, over 10 alternating ``perfbench`` pairs (seeds
201-210, ``--seconds 10``, 2 shared vCPUs; medians) colgen ``wall_s`` went
21.2 -> 21.5 ms and exact-lp ``wall_s`` 8.98 -> 8.91 ms; the closures of
chi_fb of ``g_hat_k3`` and of ``u_hat`` went 16.6 -> 16.6 s and 7.8 -> 7.6
s (medians of 6 runs a side).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import isqrt
from struct import calcsize
from typing import NamedTuple, Sequence

# Pivots between two full tableau checkpoints: a rewind replays fewer than
# this many pivots, and checkpoint memory falls with it.
_CHECKPOINT_EVERY = 8

# memoryview.cast codes of the signed machine integers of 1, 2, 4 and 8
# bytes; they read little-endian lanes only on a little-endian machine
_CASTS = {calcsize(code): code for code in "bhiq" if sys.byteorder == "little"}


class SimplexError(RuntimeError):
    """Unbounded instance or violated entry preconditions."""


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    x: tuple[Fraction, ...]       # structural variable values
    duals: tuple[Fraction, ...]   # one multiplier per constraint row
    pivots: int                   # Bland pivots taken
    # The final tableau, its packed columns and their lanes: a property of
    # the integer representation, not of the answer, so equality ignores it.
    final: tuple[int, ...] = field(compare=False, repr=False)
    lanes: _ColumnLanes = field(compare=False, repr=False)

    @cached_property
    def max_bits(self) -> int:
        """Bit length of the largest absolute entry of the final tableau."""
        return _width([self.lanes.unpack(x) for x in self.final]).bit_length()


_ZERO = Fraction(0)


class Optimum(NamedTuple):
    """An optimal tableau read in integers: every entry is an integer over
    ``d``, the determinant of the optimal basis, so the value is
    ``value / d``, structural ``j`` is ``x[j] / d`` and the multiplier of
    row ``i`` is ``duals[i] / d``."""

    value: int
    x: list[int]       # numerators of the structural variables
    duals: list[int]   # numerators of the row multipliers
    d: int
    pivots: int        # Bland pivots taken
    final: tuple[int, ...]
    lanes: _ColumnLanes

    def result(self) -> SimplexResult:
        """The same optimum in Fractions."""
        d = self.d
        return SimplexResult(
            Fraction(self.value, d),
            tuple([Fraction(v, d) if v else _ZERO for v in self.x]),
            tuple([Fraction(v, d) if v else _ZERO for v in self.duals]),
            self.pivots, self.final, self.lanes,
        )


def _check_rows(rows: Sequence[Sequence[int]], b: Sequence[int], n: int) -> None:
    if any(len(r) != n for r in rows) or len(b) != len(rows):
        raise SimplexError("inconsistent dimensions")
    # the type test first: a Fraction(1) or a 1.0 would pass the value test,
    # and an unhashable entry would break it; a bool is an int
    if not (
        {int, bool}.issuperset(map(type, chain(b, *rows)))
        and {0, 1}.issuperset(chain(b, *rows))
    ):
        raise SimplexError("every entry must be the int 0 or 1")


def _width(rows: Sequence[list[int]]) -> int:
    """The largest absolute value of an entry of ``rows``, in C-level scans."""
    return max(max(map(max, rows)), -min(map(min, rows)))


def _lane_bits(n: int) -> int:
    """``W = bits(H) + 2`` for the 0/1 determinant bound ``H`` of order
    ``n + 1`` of the module docstring."""
    k = n + 1
    # the largest integer H with H^2 <= (k + 1)^(k + 1) / 4^k
    return isqrt((k + 1) ** (k + 1) >> 2 * k).bit_length() + 2


class _ColumnLanes:
    """The packing of a tableau column of ``m + 1`` entries into one int:
    entry ``i`` is the signed lane of ``size`` bytes at bit ``width * i``,
    with ``width`` the 0/1 determinant bound rounded up to 1, 2, 4 or 8
    bytes, or to whole bytes beyond.  Adding ``bias`` lifts every lane by
    ``half`` into ``[0, 2^width)`` without a carry between lanes, so one
    shift and ``mask`` read any lane."""

    __slots__ = ("size", "width", "mask", "half", "bias", "nbytes", "cast")

    def __init__(self, n: int, m: int):
        bits = _lane_bits(n)
        self.size = size = next((s for s in (1, 2, 4, 8) if 8 * s >= bits), -(-bits // 8))
        self.width = w = 8 * size
        self.mask = (1 << w) - 1
        self.half = 1 << (w - 1)
        self.nbytes = size * (m + 1)
        self.bias = int.from_bytes(bytes([0] * (size - 1) + [128]) * (m + 1), "little")
        self.cast = _CASTS.get(size)

    def pack(self, vals: Sequence[int]) -> int:
        """The column of ``m + 1`` entries, each the int 0 or 1."""
        lanes = bytearray(self.nbytes)
        lanes[:: self.size] = bytes(vals)
        return int.from_bytes(lanes, "little")

    def unpack(self, x: int) -> list[int]:
        """Every lane of ``x``, decoded in C: the bias takes each lane into
        ``[0, 2^width)`` and flipping its top bit into two's complement."""
        raw = ((x + self.bias) ^ self.bias).to_bytes(self.nbytes, "little")
        if self.cast:
            return memoryview(raw).cast(self.cast).tolist()
        size = self.size
        return [
            int.from_bytes(raw[i : i + size], "little", signed=True)
            for i in range(0, self.nbytes, size)
        ]


class Tableau:
    """Condensed tableau of  max c.x, A x <= b, x >= 0  with every entry
    of ``A``, ``b`` and ``c`` the int 0 or 1, packed by column and
    resumable: the master of column generation.

    ``optimize`` runs Bland's rule from the current state, recording its
    path and checkpoints, and returns the optimum read in integers;
    ``solve`` is the same optimum in Fractions.  ``append_row`` adds one
    constraint and moves the state to where a from-scratch solve of all
    rows leaves the recorded path.  ``cols`` holds the columns packed by
    ``lanes``, the structural columns then the right-hand side, and a new
    ``lanes`` is made per appended row, so that a result kept from earlier
    still reads its own columns.  ``executed`` counts the pivots actually
    computed, replays included.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        b: Sequence[int],
        c: Sequence[int],
    ):
        self.n = n = len(c)
        # the matrix [A b; c 0] of the module docstring
        _check_rows([*rows, c], [*b, 0], n)
        m = len(rows)
        self.lanes = lanes = _ColumnLanes(n, m)
        # the structural columns, then the right-hand side
        columns = list(zip(*rows)) or [()] * n
        self.cols = [lanes.pack([cost, *column]) for cost, column in zip(c, columns)]
        self.cols.append(lanes.pack([0, *b]))
        self.basis = [n + i for i in range(m)]
        self.nonbasic = list(range(n))
        self.d = 1
        self.pivots = 0  # length of the current Bland path
        self.path: list[tuple[int, int, list[int], int]] = []
        # before pivot k * _CHECKPOINT_EVERY: (cols, d, basis, nonbasic)
        self.checkpoints: list[tuple[list[int], int, list[int], list[int]]] = []
        self.executed = 0

    def solve(self) -> SimplexResult:
        """``optimize``, with the optimum in Fractions."""
        return self.optimize().result()

    def optimize(self) -> Optimum:
        """Bland's rule to the optimum, each pivot recorded."""
        return self._bland(True)

    def _bland(self, record: bool) -> Optimum:
        """Run Bland's rule to the optimum and read it in integers: the
        least-label nonbasic variable with positive reduced cost, read from
        its lane 0, enters, and the leaving row breaks ratio ties by least
        basic label.  This terminates without perturbation.  ``record``
        keeps the path and the checkpoints that ``append_row`` resumes
        from."""
        n, lanes, cols = self.n, self.lanes, self.cols
        mask, half = lanes.mask, lanes.half
        basis, nonbasic = self.basis, self.nonbasic
        while True:
            entering = [k for k in range(n) if 0 < cols[k] & mask < half]
            if not entering:
                return self._read()
            s = min(entering, key=nonbasic.__getitem__)
            # the ratio test over the lanes of the rows, lane 0 left out
            col = lanes.unpack(cols[s])
            col[0] = 0
            rhs = lanes.unpack(cols[n])
            lane = 0
            for i, coef in enumerate(col):
                if coef > 0:
                    b_i = rhs[i]
                    if not lane:
                        lane, b_r, p = i, b_i, coef
                        continue
                    # b_i / coef against b_r / p; both divisors > 0
                    left, right = b_i * p, b_r * coef
                    if left < right or (left == right and basis[i - 1] < basis[lane - 1]):
                        lane, b_r, p = i, b_i, coef
            if not lane:
                raise SimplexError("unbounded objective")
            r = lane - 1
            if record:
                d = self.d
                if self.pivots == _CHECKPOINT_EVERY * len(self.checkpoints):
                    self.checkpoints.append((list(cols), d, list(basis), list(nonbasic)))
                self.path.append((r, s, self._pivot(r, s, p), d))
            else:
                self._pivot(r, s, p)
            self.pivots += 1

    def _pivot(self, r: int, s: int, p: int) -> list[int]:
        """Pivot on row ``r`` and column ``s``, whose entry is ``p``, and
        return the pivot row, lane ``r`` of every column."""
        cols, d, lanes = self.cols, self.d, self.lanes
        w, mask, half = lanes.width, lanes.mask, lanes.half
        sh = w * (r + 1)
        # lane r from the w + 1 bits z at sh - 1: the lanes below sum to less
        # than 2^(sh - 1) in absolute value, so bit sh - 1 is set exactly when
        # they borrow 1 from lane r, and (z + 2^w + 1) >> 1 adds it back and
        # the bias, without the whole-column add of the biased read
        low, wide, carry = sh - 1, (mask << 1) | 1, (1 << w) + 1
        # lane r of each numerator is t[r][k] * d: the pivot row is kept
        lifted = cols[s] - (d << sh)
        prow = []
        for k, x in enumerate(cols):
            f = (((((x >> low) & wide) + carry) >> 1) & mask) - half
            prow.append(f)
            if f:
                if k != s:
                    cols[k] = (x * p - f * lifted) // d
            elif p != d:
                cols[k] = x * p // d
        cols[s] = (p << sh) - lifted
        self.d = p
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]
        self.executed += 1
        return prow

    def append_row(self, row: Sequence[int], rhs: int) -> None:
        """Add the constraint ``row . x <= rhs`` and rewind to the first
        recorded step at which it would win the ratio test, if any.  An
        entry other than 0 or 1 is refused before anything changes, since
        the lanes could not hold the minors it makes."""
        _check_rows([row], [rhs], self.n)
        n = self.n
        m = len(self.basis)
        self.lanes = lanes = _ColumnLanes(n, m + 1)
        sh = lanes.width * (m + 1)
        new = [*row, rhs]
        for k, (_, s, prow, d) in enumerate(self.path):
            if k % _CHECKPOINT_EVERY == 0:
                cols, _, basis, _ = self.checkpoints[k // _CHECKPOINT_EVERY]
                cols[:] = [x + (v << sh) for x, v in zip(cols, new)]
                basis.append(n + m)
            f, p = new[s], prow[s]
            # strictly smaller ratio new[n] / f < prow[n] / p; a tie keeps
            # the recorded row, whose basic label is smaller
            if f > 0 and new[n] * p < prow[n] * f:
                self._rewind(k)
                return
            # the Bareiss update of _pivot on this one row
            if f:
                new = [(x * p - f * y) // d for x, y in zip(new, prow)]
                new[s] = -f
            elif p != d:
                new = [x * p // d for x in new]
        self.cols = [x + (v << sh) for x, v in zip(self.cols, new)]
        self.basis.append(n + m)

    def _rewind(self, k: int) -> None:
        """Rebuild the state before pivot ``k`` of the recorded path from the
        nearest checkpoint and drop the records after it."""
        c = k // _CHECKPOINT_EVERY
        cols, self.d, basis, nonbasic = self.checkpoints[c]
        self.cols, self.basis, self.nonbasic = list(cols), list(basis), list(nonbasic)
        del self.checkpoints[c + 1:]
        replay = self.path[c * _CHECKPOINT_EVERY:k]
        del self.path[k:]
        self.pivots = k
        for r, s, prow, _ in replay:
            self._pivot(r, s, prow[s])

    def _read(self) -> Optimum:
        """The value and the duals from lane 0 of every column, and each
        basic ``x`` from the right-hand side, the one column unpacked."""
        cols, n, lanes = self.cols, self.n, self.lanes
        mask, half = lanes.mask, lanes.half
        obj = [((x + half) & mask) - half for x in cols]
        rhs = lanes.unpack(cols[n])
        x = [0] * n
        for i, var in enumerate(self.basis):
            if var < n:
                x[var] = rhs[i + 1]
        duals = [0] * len(self.basis)
        for k, var in enumerate(self.nonbasic):
            if var >= n:
                duals[var - n] = -obj[k]
        return Optimum(-obj[n], x, duals, self.d, self.pivots, tuple(cols), lanes)


def simplex_max(
    rows: Sequence[Sequence[int]],
    b: Sequence[int],
    c: Sequence[int],
) -> SimplexResult:
    """Maximize c.x over Ax <= b, x >= 0 with Bland's rule, on a
    ``Tableau`` that records nothing.  Every entry must be the int 0 or 1
    (a bool is one); any other entry, a ``Fraction(1)`` or a 1.0 included,
    is refused."""
    return Tableau(rows, b, c)._bland(False).result()
