"""Exact arithmetic on rational angles of the circle R/Z and the doubling map.

Angles are the universal coordinate for external rays; everything downstream
(laminations, puzzle pieces, slices) is built on exact comparisons here, so
this module is deliberately allergic to floats.  It is the one home of the
circle order: ``Angle``'s order on representatives, ``in_arc`` for cyclic
position, and ``arc_length``/``arc_point`` for counterclockwise-arc arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd


class InvalidDenominatorError(ValueError):
    pass


@total_ordering
@dataclass(frozen=True, slots=True)
class Angle:
    """A point of R/Z written as a reduced fraction num/den with 0 <= num < den.

    Angles are ordered by their representatives in [0, 1), compared by
    cross-multiplication, so ``sorted`` cuts the circle at 0 and needs no key.
    Questions about the cyclic order go through ``in_arc`` and ``arc_point``.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise InvalidDenominatorError(f"denominator must be positive, got {self.den}")
        if not (0 <= self.num < self.den) or gcd(self.num, self.den) != 1:
            raise ValueError(f"unnormalized angle {self.num}/{self.den}; use normalize()")

    @property
    def frac(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __lt__(self, other: "Angle") -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __float__(self) -> float:
        return self.num / self.den


def normalize(p: int, q: int) -> Angle:
    """Reduced representative of p/q mod 1. Raises for q = 0 (or negative)."""
    if q == 0:
        raise InvalidDenominatorError("denominator is zero")
    if q < 0:
        p, q = -p, -q
    p %= q
    g = gcd(p, q)
    return Angle(p // g, q // g)


def from_fraction(f: Fraction) -> Angle:
    return normalize(f.numerator, f.denominator)


ZERO = Angle(0, 1)


def double(theta: Angle, n: int = 1) -> Angle:
    """2^n * theta mod 1, exactly."""
    if n < 0:
        raise ValueError("n must be a natural number")
    return normalize(theta.num * pow(2, n, theta.den) if theta.den > 1 else 0, theta.den)


@dataclass(frozen=True)
class OrbitInfo:
    """Eventual periodicity data of an angle under doubling.

    ``orbit`` lists the first preperiod+period iterates; the entry at index
    preperiod+period would close the cycle back onto orbit[preperiod].
    """

    preperiod: int
    period: int
    orbit: tuple[Angle, ...]


def orbit(theta: Angle) -> OrbitInfo:
    """Exact preperiod/period of theta under doubling (rationals always cycle)."""
    seen: dict[Angle, int] = {}
    seq: list[Angle] = []
    cur = theta
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = double(cur)
    pre = seen[cur]
    return OrbitInfo(preperiod=pre, period=len(seq) - pre, orbit=tuple(seq))


class ArcPosition(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


def in_arc(theta: Angle, a: Angle, b: Angle) -> ArcPosition:
    """Position of theta relative to the open counterclockwise arc from a to b.

    Three-valued on purpose: ray angles sit on partition boundaries all the
    time and callers must handle that case explicitly.
    """
    if a == b:
        raise ValueError("arc endpoints must be distinct")
    if theta == a or theta == b:
        return ArcPosition.BOUNDARY
    if a < b:
        inside = a < theta < b
    else:
        inside = a < theta or theta < b
    return ArcPosition.INSIDE if inside else ArcPosition.OUTSIDE


def arc_length(arc: tuple[Angle, Angle]) -> Fraction:
    """(b - a) mod 1: the length of the counterclockwise arc (a, b)."""
    a, b = arc
    den = a.den * b.den
    return Fraction((b.num * a.den - a.num * b.den) % den, den)


def arc_point(a: Angle, b: Angle, t: Fraction) -> Angle:
    """The angle t of the way along the counterclockwise arc from a to b,
    (a + t * ((b - a) mod 1)) mod 1, exactly; t = 1/2 is the arc's midpoint."""
    n = arc_length((a, b))
    d = n.denominator * t.denominator  # a + n * t over the denominator a.den * d
    return normalize(a.num * d + a.den * n.numerator * t.numerator, a.den * d)
