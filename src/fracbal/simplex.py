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

The tableau is packed into Python ints of signed lanes, so that one
big-int update and one exact division handle a whole row or column.  Every
stored entry, ``d`` included, is plus or minus a minor of at most
``k = n + 1`` columns of ``[A b; c 0]``, so its absolute value is at most a
bound ``H`` on the determinant of a 0/1 matrix of order ``k``,
``H = (k + 1)^((k + 1) / 2) / 2^k``: bordering such a matrix and mapping 0
to 1 and 1 to -1 gives a +-1 matrix of order ``k + 1`` whose determinant
is ``(-2)^k`` times it, and Hadamard's inequality bounds that (Brenner and
Cummings, "The Hadamard maximum determinant problem", 1972).  A lane of
``W = bits(H) + 2`` bits or more holds every entry strictly inside
``(-2^(W-1), 2^(W-1))``, and adding ``2^(W-1)`` to every lane makes them all
nonnegative without carries, so a lane is read with one biased shift and
mask.  Products are never unpacked: each lane of an update's numerator is
a multiple of ``d``, so the numerator is ``d`` times the packed quotients,
and one exact division yields them whatever carries the products left
between lanes.  The width is fixed when the tableau is built, so an
appended row must be 0/1 too.

The tableau is packed one of two ways, one per use:

* **By column, for a one-shot solve** (``simplex_max``, the covering LPs
  over a whole set family).  Those programs are tall, hundreds of set rows
  over at most 24 vertex columns, so the tableau is held as ``n + 1`` ints,
  the structural columns and the right-hand side, each of ``m + 1`` lanes:
  the objective in lane 0 and row ``i`` in lane ``i + 1``.  A pivot on
  ``(r, s)`` is ``n + 1`` big-int updates instead of ``m + 1``:

      c_k = (c_k * p - t[r][k] * (c_s - (d << lane r))) // d    (k != s)
      c_s = ((d + p) << lane r) - c_s

  where lane ``r`` of each numerator is ``t[r][k] * d``, so the pivot row
  keeps its entries, and lane ``r`` of the new ``c_s`` is ``d``.  Lanes are
  ``W`` rounded up to 1, 2, 4 or 8 bytes, so the ratio test decodes the
  pivot column and the right-hand side in C: with the bias added, flipping
  every lane's top bit leaves each lane in two's complement, and
  ``to_bytes`` and ``memoryview.cast`` read them as machine integers.
  Lanes wider than 8 bytes (n >= 36) decode one at a time with
  ``int.from_bytes``.

* **By row, for the resumable master of column generation** (``Tableau``).
  Each row of ``n + 1`` entries is one int of ``W``-bit lanes, entry ``k``
  at bit ``W * k``, and a pivot updates each row at once:

      new = (x * p - f * (prow + (d << W * s))) // d

  where ``f`` is the row's entry in column ``s``.  An appended row adds a
  basic slack, which is one more int here but one more lane of every
  column in a column packing.  The masters are near-square (16 to 37 rows
  over 16 columns on ``w_prime``), so column packing gains nothing there:
  a resumable column-packed master took the same pivots but ran 3-12 %
  slower on every column generation of the benchmark, and rounding the row
  lanes to bytes alone cost the one-shot solve of chi_fb(``w_prime``)
  about 13 %.  Row lanes therefore stay unrounded.

Column generation keeps one ``Tableau`` across its iterations and appends
a row per priced column, so the engine resumes instead of solving again.
The tableau records each pivot of its path as ``(r, s, packed pivot row,
d)`` and keeps a checkpoint of the whole tableau before every
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

Both packings take the same Bland path to the same tableau.  An optimum
is read from it in integers, without unpacking it whole: every entry is an
integer over ``d``, so the read (``Optimum``) holds the numerators of the
value and the duals, from the objective entries, and of each basic ``x``,
from the right-hand side, and ``d`` itself.  ``Optimum.result`` builds the
Fractions of a ``SimplexResult`` from it.  The result keeps the packed
tableau, and ``SimplexResult.max_bits``, the bit length of the largest
absolute entry, is computed from it the first time it is read.  Nothing
along the path accounts widths.
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
    # The final tableau, its packed rows or columns and their lanes: a
    # property of the integer representation, not of the answer, so
    # equality ignores it.
    final: tuple[int, ...] = field(compare=False, repr=False)
    lanes: _Lanes | _ColumnLanes = field(compare=False, repr=False)

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
    lanes: _Lanes | _ColumnLanes

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


class _Lanes:
    """The packing of a tableau row of ``n + 1`` entries into one int: entry
    ``k`` is the signed lane of ``width`` bits at bit ``shifts[k]``, with
    ``width`` from the 0/1 determinant bound of the module docstring.
    Adding ``bias`` lifts every lane by ``half`` into ``[0, 2^width)``
    without a carry between lanes, so one shift and ``mask`` read any lane.
    """

    __slots__ = ("width", "mask", "half", "bias", "shifts")

    def __init__(self, n: int):
        self.width = w = _lane_bits(n)
        self.mask = (1 << w) - 1
        self.half = 1 << (w - 1)
        self.shifts = [w * j for j in range(n + 1)]
        self.bias = sum(self.half << sh for sh in self.shifts)

    def pack(self, vals: Sequence[int]) -> int:
        return sum(v << sh for v, sh in zip(vals, self.shifts))

    def unpack(self, x: int) -> list[int]:
        u, mask, half = x + self.bias, self.mask, self.half
        return [((u >> sh) & mask) - half for sh in self.shifts]


class _ColumnLanes:
    """The packing of a tableau column of ``m + 1`` entries into one int:
    entry ``i`` is the signed lane of ``size`` bytes at bit ``width * i``,
    with ``width`` the 0/1 determinant bound rounded up to 1, 2, 4 or 8
    bytes, or to whole bytes beyond.  ``bias``, ``half`` and ``mask`` are
    as for ``_Lanes``."""

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
    of ``A``, ``b`` and ``c`` the int 0 or 1, packed by row and resumable:
    the master of column generation.

    ``optimize`` runs Bland's rule from the current state, recording its
    path and checkpoints, and returns the optimum read in integers, the
    objective row unpacked once; ``solve`` is the same optimum in
    Fractions.  ``append_row`` adds one constraint and moves the state to
    where a from-scratch solve of all rows leaves the recorded path.  A
    one-shot solve is ``simplex_max``'s, on a tableau packed by column,
    which records nothing.  ``t`` holds the rows packed by ``lanes``,
    constraint rows then the objective row, and ``rows`` unpacks them.
    Packed rows are ints, so the path records and the checkpoints share
    them.  ``executed`` counts the pivots actually computed, replays
    included.  A read keeps the packed rows it was taken from as a tuple,
    since ``append_row`` inserts into ``t`` in place, and its result's
    ``max_bits`` is their width.
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
        self.lanes = lanes = _Lanes(n)
        # m constraint rows, then the objective row of reduced costs and -value
        self.t = [lanes.pack([*row, bi]) for row, bi in zip(rows, b)]
        self.t.append(lanes.pack([*c, 0]))
        self.basis = [n + i for i in range(m)]
        self.nonbasic = list(range(n))
        self.d = 1
        self.pivots = 0  # length of the current Bland path
        self.path: list[tuple[int, int, int, int]] = []
        # before pivot k * _CHECKPOINT_EVERY: (rows, d, basis, nonbasic)
        self.checkpoints: list[tuple[list[int], int, list[int], list[int]]] = []
        self.executed = 0

    def rows(self) -> list[list[int]]:
        """The tableau unpacked: constraint rows, then the objective row."""
        return [self.lanes.unpack(x) for x in self.t]

    def solve(self) -> SimplexResult:
        """``optimize``, with the optimum in Fractions."""
        return self.optimize().result()

    def optimize(self) -> Optimum:
        """Run Bland's rule to the optimum and read it in integers: the
        least-label nonbasic variable with positive reduced cost enters, and
        the leaving row breaks ratio ties by least basic label.  This
        terminates without perturbation."""
        n = self.n
        lanes = self.lanes
        mask, half, bias, shifts = lanes.mask, lanes.half, lanes.bias, lanes.shifts
        top = shifts[n]
        while True:
            t = self.t
            m = len(t) - 1
            obj = t[m] + bias
            nonbasic = self.nonbasic
            entering = [k for k in range(n) if (obj >> shifts[k]) & mask > half]
            if not entering:
                return self._read()
            s = min(entering, key=nonbasic.__getitem__)
            col = self._column(s)
            basis = self.basis
            r = None
            for i in range(m):
                coef = col[i]
                if coef > 0:
                    b_i = ((t[i] + bias) >> top) - half
                    if r is None:
                        r, b_r = i, b_i
                        continue
                    # b_i / coef against b_r / col[r]; both divisors > 0
                    lhs = b_i * col[r]
                    rhs = b_r * coef
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r, b_r = i, b_i
            if r is None:
                raise SimplexError("unbounded objective")
            if self.pivots == _CHECKPOINT_EVERY * len(self.checkpoints):
                self.checkpoints.append((list(t), self.d, list(basis), list(nonbasic)))
            self.path.append((r, s, t[r], self.d))
            self.pivots += 1
            self._pivot(r, s, col)

    def append_row(self, row: Sequence[int], rhs: int) -> None:
        """Add the constraint ``row . x <= rhs`` and rewind to the first
        recorded step at which it would win the ratio test, if any.  An
        entry other than 0 or 1 is refused before anything changes, since
        the lanes could not hold the minors it makes."""
        _check_rows([row], [rhs], self.n)
        n = self.n
        m = len(self.t) - 1
        lanes = self.lanes
        mask, half, bias, shifts = lanes.mask, lanes.half, lanes.bias, lanes.shifts
        top = shifts[n]
        new = lanes.pack([*row, rhs])
        for k, (_, s, prow, d) in enumerate(self.path):
            if k % _CHECKPOINT_EVERY == 0:
                rows, _, basis, _ = self.checkpoints[k // _CHECKPOINT_EVERY]
                rows.insert(m, new)
                basis.append(n + m)
            sh = shifts[s]
            u, pu = new + bias, prow + bias
            f = ((u >> sh) & mask) - half
            p = ((pu >> sh) & mask) - half
            # strictly smaller ratio new[n] / f < prow[n] / p; a tie keeps
            # the recorded row, whose basic label is smaller
            if f > 0 and ((u >> top) - half) * p < ((pu >> top) - half) * f:
                self._rewind(k)
                return
            # the Bareiss update of _pivot on this one row
            if f:
                new = (new * p - f * (prow + (d << sh))) // d
            elif p != d:
                new = new * p // d
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
            self._pivot(r, s, self._column(s))

    def _column(self, s: int) -> list[int]:
        """Entry ``s`` of every row, objective row last."""
        lanes = self.lanes
        mask, half, bias, sh = lanes.mask, lanes.half, lanes.bias, lanes.shifts[s]
        return [(((x + bias) >> sh) & mask) - half for x in self.t]

    def _pivot(self, r: int, s: int, col: list[int]) -> None:
        """Pivot on row ``r`` and column ``s``, whose entries are ``col``."""
        t, d = self.t, self.d
        prow, p = t[r], col[r]
        sh = self.lanes.shifts[s]
        # the pivot row plus d in column s, so that the numerator's lane s is
        # f * p - f * (p + d) = -f * d and the exact division leaves -f there
        lifted = prow + (d << sh)
        same = p == d
        new = [
            (x * p - f * lifted) // d if f else (x if same else x * p // d)
            for x, f in zip(t, col)
        ]
        new[r] = prow + ((d - p) << sh)
        self.t = new
        self.d = p
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]
        self.executed += 1

    def _read(self) -> Optimum:
        """The value and the duals from the objective row, the one row
        unpacked, and each basic ``x`` from the rhs lane of its row."""
        t, n, lanes = self.t, self.n, self.lanes
        m = len(t) - 1
        obj = lanes.unpack(t[m])
        half, bias, top = lanes.half, lanes.bias, lanes.shifts[n]
        x = [0] * n
        for i, var in enumerate(self.basis):
            if var < n:
                x[var] = ((t[i] + bias) >> top) - half
        duals = [0] * m
        for k, var in enumerate(self.nonbasic):
            if var >= n:
                duals[var - n] = -obj[k]
        return Optimum(-obj[n], x, duals, self.d, self.pivots, tuple(t), lanes)


def simplex_max(
    rows: Sequence[Sequence[int]],
    b: Sequence[int],
    c: Sequence[int],
) -> SimplexResult:
    """Maximize c.x over Ax <= b, x >= 0 with Bland's rule on a tableau
    packed by column, as in the module docstring.  Every entry must be the
    int 0 or 1 (a bool is one); any other entry, a ``Fraction(1)`` or a 1.0
    included, is refused.  The path, the result and ``max_bits`` are those
    of a ``Tableau`` built from the same rows."""
    n = len(c)
    # the matrix [A b; c 0] of the module docstring
    _check_rows([*rows, c], [*b, 0], n)
    m = len(rows)
    lanes = _ColumnLanes(n, m)
    w, mask, half, bias = lanes.width, lanes.mask, lanes.half, lanes.bias
    # the structural columns, then the right-hand side
    columns = list(zip(*rows)) or [()] * n
    cols = [lanes.pack([cost, *column]) for cost, column in zip(c, columns)]
    cols.append(lanes.pack([0, *b]))
    basis = [n + i for i in range(m)]
    nonbasic = list(range(n))
    d = 1
    pivots = 0
    while True:
        # Bland's rule: the least-label column of positive reduced cost,
        # read from its lane 0, enters
        entering = [k for k in range(n) if 0 < cols[k] & mask < half]
        if not entering:
            break
        s = min(entering, key=nonbasic.__getitem__)
        col = lanes.unpack(cols[s])
        rhs = lanes.unpack(cols[n])
        r = None
        for i in range(m):
            coef = col[i + 1]
            if coef > 0:
                b_i = rhs[i + 1]
                if r is None:
                    r, b_r, p = i, b_i, coef
                    continue
                # b_i / coef against b_r / p; both divisors > 0
                left, right = b_i * p, b_r * coef
                if left < right or (left == right and basis[i] < basis[r]):
                    r, b_r, p = i, b_i, coef
        if r is None:
            raise SimplexError("unbounded objective")
        sh = w * (r + 1)
        # lane r of each numerator is t[r][k] * d: the pivot row is kept
        lifted = cols[s] - (d << sh)
        for k, col_k in enumerate(cols):
            if k != s:
                f = (((col_k + bias) >> sh) & mask) - half
                if f:
                    cols[k] = (col_k * p - f * lifted) // d
                elif p != d:
                    cols[k] = col_k * p // d
        cols[s] = ((d + p) << sh) - cols[s]
        d = p
        basis[r], nonbasic[s] = nonbasic[s], basis[r]
        pivots += 1
    obj = [((col_k + half) & mask) - half for col_k in cols]
    rhs = lanes.unpack(cols[n])
    x = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i + 1]
    duals = [0] * m
    for k, var in enumerate(nonbasic):
        if var >= n:
            duals[var - n] = -obj[k]
    return Optimum(-obj[n], x, duals, d, pivots, tuple(cols), lanes).result()
