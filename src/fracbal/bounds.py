"""Exact arithmetic for the inequality chains behind the lower bounds.

Everything here is integer or rational; the three ratio thresholds are
derived by solving their inequality systems rather than returned as
constants, so a transcription slip in any coefficient is caught by the
acceptance fixtures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count


class BoundsError(ValueError):
    """Parameters outside the admissible (p, q) range."""


@dataclass(frozen=True)
class BoundParams:
    """A (p, q) pair with the standing assumption 2q <= p <= ceil(5q/2)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.p < 1:
            raise BoundsError("p and q must be positive")
        if not 2 * self.q <= self.p:
            raise BoundsError(f"require 2q <= p, got p={self.p}, q={self.q}")
        if not 2 * self.p <= 5 * self.q + 1:  # p <= ceil(5q/2)
            raise BoundsError(f"require p <= ceil(5q/2), got p={self.p}, q={self.q}")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.p, self.q)


def m_upper_bound(bp: BoundParams) -> int:
    """Colors that can miss a negative triangle completed to an
    all-negative K4 block: each of the p - l remaining colors appears at
    most twice on the K4, so 4q <= 2(p - l) + l, i.e. l <= 2p - 4q."""
    return 2 * bp.p - 4 * bp.q


def mu_recurrence(bp: BoundParams, i: int) -> Fraction:
    """Iterated missing-color bound: mu_0 = 2p - 4q, mu_{k+1} = p - 3q + 21 mu_k."""
    if i < 0:
        raise BoundsError("index must be nonnegative")
    mu = Fraction(m_upper_bound(bp))
    for _ in range(i):
        mu = Fraction(bp.p - 3 * bp.q) + 21 * mu
    return mu


def mu_bound(bp: BoundParams, i: int) -> Fraction:
    """Closed form of the recurrence: (21^i (41p - 83q) - (p - 3q)) / 20,
    computed without 21^i when 41p = 83q."""
    if i < 0:
        raise BoundsError("index must be nonnegative")
    p, q = bp.p, bp.q
    d = 41 * p - 83 * q
    return Fraction((21**i * d if d else 0) - (p - 3 * q), 20)


def first_infeasible_index(bp: BoundParams) -> int | None:
    """Least iteration depth at which the missing-color bound goes negative.

    None when 41p >= 83q: the closed form is then at least (3q - p)/20 > 0
    for every depth, so the bound never rules the ratio out.
    """
    if 41 * bp.p - 83 * bp.q >= 0:
        return None
    return next(i for i in count() if mu_bound(bp, i) < 0)


def _ratio_at_equality(
    lhs: tuple[Fraction, Fraction], rhs: tuple[Fraction, Fraction]
) -> Fraction:
    """p/q where the linear forms lhs and rhs (coefficients of p and q)
    coincide; requiring lhs <= rhs then pins p/q on one side of it."""
    ap, aq = lhs
    bp_, bq = rhs
    if ap == bp_:
        raise BoundsError("parallel forms have no ratio threshold")
    return Fraction(aq - bq, bp_ - ap)


def threshold_83_41() -> Fraction:
    """Ratio forced by combining the missing-color bounds.

    m <= 2p - 4q and m <= p - 3q + 21m (hence m >= (3q - p)/20) are only
    compatible when (3q - p)/20 <= 2p - 4q, i.e. p/q >= 83/41.
    """
    lower = (Fraction(-1, 20), Fraction(3, 20))   # (3q - p)/20
    upper = (Fraction(2), Fraction(-4))           # 2p - 4q
    return _ratio_at_equality(lower, upper)


def threshold_172_85() -> Fraction:
    """Ratio forced by 7(2p - 4q) >= (4q - p)/6 on the K4-based build."""
    lhs = (Fraction(-1, 6), Fraction(4, 6))       # (4q - p)/6
    rhs = (Fraction(14), Fraction(-28))           # 7(2p - 4q)
    return _ratio_at_equality(lhs, rhs)


def threshold_52_25() -> Fraction:
    """Ratio forced by a <= 5p - 10q together with a >= (22q - 10p)/3."""
    lhs = (Fraction(-10, 3), Fraction(22, 3))     # (22q - 10p)/3
    rhs = (Fraction(5), Fraction(-10))            # 5p - 10q
    return _ratio_at_equality(lhs, rhs)


def arboricity_counting_check(p: int, q: int, a: int, a_uv: int) -> bool:
    """The two exact counting inequalities behind the arboricity bound.

    First: colors shared by an identified edge pair appear on at most two
    further gadget vertices, other terminal colors on at most four, and the
    rest on at most five, while the eight non-terminal vertices need q
    colors each.  Second: the refined version splitting the shared count
    a_uv from the per-edge maximum a.  Both are evaluated exactly.
    """
    if min(p, q) < 1 or min(a, a_uv) < 0:
        raise BoundsError("need positive p, q and nonnegative counts")
    first = 2 * a + 4 * (q - a) + 4 * (q - a) + 5 * (p - 2 * q + a) >= 8 * q
    half = Fraction(3 * a, 2)
    second = (
        2 * a_uv
        + 4 * half
        + 3 * (q - a_uv - half)
        + 4 * (q - a_uv)
        + 5 * (p - 2 * q + a_uv)
        >= 8 * q
    )
    return bool(first and second)
