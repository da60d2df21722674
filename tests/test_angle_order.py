"""The exact circle order of ``angles`` against the Fraction arithmetic it
replaced: representative order, arc position, sorting and arc points."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from yoccoz.angles import (
    Angle,
    ArcPosition,
    arc_length,
    arc_point,
    from_fraction,
    in_arc,
    normalize,
)


def oracle_in_arc(theta: Angle, a: Angle, b: Angle) -> ArcPosition:
    """The Fraction-based in_arc that the cross-multiplied one replaced."""
    if a == b:
        raise ValueError("arc endpoints must be distinct")
    if theta == a or theta == b:
        return ArcPosition.BOUNDARY
    ta, tb, tt = a.frac, b.frac, theta.frac
    if ta < tb:
        inside = ta < tt < tb
    else:
        inside = tt > ta or tt < tb
    return ArcPosition.INSIDE if inside else ArcPosition.OUTSIDE


def oracle_sorted(angles) -> list[Angle]:
    return sorted(angles, key=lambda t: t.frac)


def oracle_arc_point(a: Angle, b: Angle, t: Fraction) -> Angle:
    return from_fraction((a.frac + ((b.frac - a.frac) % 1) * t) % 1)


# small denominators make ties and shared arcs common, large ones stress the
# cross-multiplication
denominators = st.one_of(st.integers(1, 40), st.integers(1, 10**12))
angles = denominators.flatmap(lambda den: st.builds(normalize, st.integers(0, den - 1), st.just(den)))
fractions = st.builds(lambda n, i: Fraction(i, n), st.integers(1, 1 << 20),
                      st.integers(0, 1 << 20)).filter(lambda t: t <= 1)


@given(angles, angles)
def test_order_matches_representatives(a, b):
    assert (a < b) is (a.frac < b.frac)
    assert (a <= b) is (a.frac <= b.frac)
    assert (a > b) is (a.frac > b.frac)
    assert (a >= b) is (a.frac >= b.frac)


@given(angles, angles, angles)
def test_in_arc_matches_fraction_oracle(theta, a, b):
    assume(a != b)
    assert in_arc(theta, a, b) is oracle_in_arc(theta, a, b)


@given(st.lists(angles, max_size=30))
def test_sorted_matches_fraction_key(items):
    assert sorted(items) == oracle_sorted(items)


@given(angles, angles, fractions)
def test_arc_point_matches_oracle_and_is_reduced(a, b, t):
    p = arc_point(a, b, t)
    assert p == oracle_arc_point(a, b, t)
    assert 0 <= p.num < p.den and Fraction(p.num, p.den).denominator == p.den
    assert arc_length((a, b)) == (b.frac - a.frac) % 1


@given(angles, angles)
def test_midpoint_lies_inside_its_arc(a, b):
    assume(a != b)
    assert in_arc(arc_point(a, b, Fraction(1, 2)), a, b) is ArcPosition.INSIDE


def test_arc_point_examples():
    third, two_thirds = normalize(1, 3), normalize(2, 3)
    assert arc_point(third, two_thirds, Fraction(1, 2)) == normalize(1, 2)
    assert arc_point(two_thirds, third, Fraction(1, 2)) == normalize(0, 1)  # through 0
    assert arc_point(two_thirds, third, Fraction(1, 4)) == normalize(5, 6)
    assert arc_point(third, two_thirds, 1) == two_thirds


def test_angles_do_not_compare_with_numbers():
    with pytest.raises(TypeError):
        normalize(1, 2) < Fraction(1, 2)
