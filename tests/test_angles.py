import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from yoccoz.angles import (
    Angle,
    ArcPosition,
    InvalidDenominatorError,
    double,
    in_arc,
    normalize,
    orbit,
)

rational_angles = st.builds(
    lambda p, q: normalize(p, q), st.integers(-500, 500), st.integers(1, 500)
)


def test_normalize_examples():
    assert normalize(5, 3) == Angle(2, 3)
    assert normalize(0, 7) == Angle(0, 1)
    assert normalize(6, 4) == Angle(1, 2)


def test_normalize_rejects_zero_denominator():
    with pytest.raises(InvalidDenominatorError):
        normalize(1, 0)


def test_double_examples():
    assert double(normalize(3, 7)) == normalize(6, 7)
    assert double(normalize(6, 7)) == normalize(5, 7)
    assert double(normalize(1, 3), 2) == normalize(1, 3)


@given(rational_angles, st.integers(0, 12), st.integers(0, 12))
def test_double_composes(theta, m, n):
    assert double(double(theta, m), n) == double(theta, m + n)


def test_orbit_examples():
    info = orbit(normalize(1, 3))
    assert (info.preperiod, info.period) == (0, 2)
    info = orbit(normalize(1, 6))
    assert (info.preperiod, info.period) == (1, 2)
    assert [str(a) for a in info.orbit] == ["1/6", "1/3", "2/3"]
    info = orbit(normalize(0, 1))
    assert (info.preperiod, info.period) == (0, 1)


def test_orbit_period_divides_multiplicative_order():
    # brute force over all reduced denominators < 2^10
    for den in range(3, 1 << 10, 2):
        theta = normalize(1, den)
        info = orbit(theta)
        tail = info.orbit[info.preperiod]
        order = 1
        acc = 2 % tail.den
        while acc != 1:
            acc = (2 * acc) % tail.den
            order += 1
        assert order % info.period == 0 and info.period == order


def test_in_arc_examples():
    a, b = normalize(1, 3), normalize(2, 3)
    assert in_arc(normalize(1, 2), a, b) is ArcPosition.INSIDE
    assert in_arc(normalize(0, 1), a, b) is ArcPosition.OUTSIDE
    assert in_arc(a, a, b) is ArcPosition.BOUNDARY


def test_in_arc_wrapping():
    a, b = normalize(2, 3), normalize(1, 3)  # arc through 0
    assert in_arc(normalize(0, 1), a, b) is ArcPosition.INSIDE
    assert in_arc(normalize(1, 2), a, b) is ArcPosition.OUTSIDE


@given(rational_angles, rational_angles, rational_angles, rational_angles)
def test_in_arc_rotation_invariant(theta, a, b, rot):
    if a == b:
        return
    def turn(t):
        return normalize(t.num * rot.den + rot.num * t.den, t.den * rot.den)

    assert in_arc(theta, a, b) is in_arc(turn(theta), turn(a), turn(b))


def test_orbit_eventually_periodic_structure():
    info = orbit(normalize(5, 48))
    assert double(info.orbit[info.preperiod + info.period - 1]) == info.orbit[info.preperiod]
    assert len(set(info.orbit)) == len(info.orbit)


def test_angle_has_slots_and_no_instance_dict():
    assert not hasattr(Angle(1, 3), "__dict__")
    with pytest.raises(ValueError):
        Angle(2, 6)
