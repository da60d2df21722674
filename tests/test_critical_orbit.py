"""Images of the critical piece by orbit index (Lamination.critical_image)
against the Angle route they replaced (tests/critical_orbit_oracle.py):
values and errors alike, and the descendants and renormalization answers
built on them."""

import random
from fractions import Fraction
from math import gcd

import pytest

from yoccoz import puzzle as pz
from yoccoz import renorm as rn
from yoccoz.angles import arc_point, normalize
from yoccoz.errors import Case1DegenerateError, InvalidThetaError, YoccozError
from yoccoz.lamination import build

import critical_orbit_oracle as oracle
from fixtures import AIRPLANE_THETA, CASE3_THETA, MISIUREWICZ_THETA, SATELLITE_THETA
from test_lamination_layers import late_landing, sector


def outcome(call, *args):
    """The answer, or the error's class and message."""
    try:
        return call(*args)
    except YoccozError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("theta", [AIRPLANE_THETA, SATELLITE_THETA, MISIUREWICZ_THETA,
                                   CASE3_THETA], ids=str)
def test_critical_image_matches_same_gap_on_fixtures(theta):
    lam = build(1, 2, theta, 8)
    for m in range(61):
        for j in range(m + 1):
            assert lam.critical_image(m, j) == oracle.image_is_critical(lam, m, j), (m, j)


def test_critical_image_matches_same_gap_on_late_landing():
    """Below entry_step, the level and orbit guards (Case1DegenerateError) and
    the cycle-angle error past it come out as same_gap's."""
    seen = set()
    for q in range(2, 6):
        for p in (p for p in range(1, q) if gcd(p, q) == 1):
            for steps in range(9, 13):
                for theta in late_landing(p, q, steps):
                    lam = build(p, q, theta, 8)
                    assert lam.entry_step == steps
                    for m in range(2 * steps + 3):
                        for j in range(m + 1):
                            got = outcome(lam.critical_image, m, j)
                            assert got == outcome(oracle.image_is_critical, lam, m, j), \
                                (p, q, theta, m, j)
                            seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {True, False, "Case1DegenerateError", "YoccozError"}


def scan_laminations(count, seed=10):
    """Depth-8 laminations of scan-style angles: q = 2..11, a random limb,
    theta_v of period and preperiod up to 12 inside the sector.  Angles that
    land on the cycle after the build depth are kept (their queries fail)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = 2 + len(out) % 10
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        a, b = sector(p, q)
        den = (1 << rng.randrange(13)) * ((1 << rng.randrange(1, 13)) - 1)
        lo, hi = a.num * den // a.den + 1, -(-b.num * den // b.den) - 1
        if hi < lo:
            continue
        try:
            out.append(build(p, q, normalize(rng.randint(lo, hi), den), 8))
        except (Case1DegenerateError, InvalidThetaError):
            continue
    return out


def late_landing_laminations():
    """The traced scan run's late-landing probe angles."""
    for p, q, theta in [(1, 2, Fraction(515, 1536)), (1, 2, Fraction(1025, 3072)),
                        (1, 3, Fraction(513, 3584)), (1, 3, Fraction(1031, 7168))]:
        yield build(p, q, normalize(theta.numerator, theta.denominator), 8)


def test_detect_and_descendants_match_the_angle_route():
    lams = scan_laminations(200) + list(late_landing_laminations())
    errors = 0
    for lam in lams:
        assert outcome(rn.detect, lam, 30) == outcome(oracle.detect, lam, 30), lam.theta_v
        for n in range(4):
            for mine, ref in [(pz.descendant_levels, oracle.descendant_levels),
                              (pz.fraternal_descendants, oracle.fraternal_descendants)]:
                got = outcome(mine, lam, n, 20)
                assert got == outcome(ref, lam, n, 20), (lam.theta_v, n, mine.__name__)
                errors += isinstance(got, tuple) and isinstance(got[0], str)
    assert errors > 0
