"""The reach r_k = k + 1 + l_k of the critical orbit (Lamination.reach) and
the image, descendant and renormalization rules read from it, against the
Angle route (tests/critical_orbit_oracle.py): values and errors alike."""

import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from yoccoz import puzzle as pz
from yoccoz import renorm as rn
from yoccoz.angles import normalize
from yoccoz.errors import Case1DegenerateError, InvalidThetaError, OrbitHitsAlphaError, YoccozError
from yoccoz.lamination import build

import critical_orbit_oracle as oracle
import orbit_record_oracle
from fixtures import AIRPLANE_THETA, CASE3_THETA, MISIUREWICZ_THETA, SATELLITE_THETA
from test_lamination_layers import late_landing, sector

FIXTURES = [AIRPLANE_THETA, SATELLITE_THETA, MISIUREWICZ_THETA, CASE3_THETA]


def outcome(call, *args):
    """The answer, or the error's class and message."""
    try:
        return call(*args)
    except YoccozError as exc:
        return type(exc).__name__, str(exc)


def image_by_reach(lam, m, j):
    """Is f^j(P_m(0)) critical?  The image rule r_{j-1} > m, asked with the
    guards of a gap query at level m - j about c_{j-1}: the level must exist,
    c_{j-1} must be off the cycle, and its gap must exist (m - 1 < entry_step)."""
    if j == 0:
        return True
    lam.guard_level(m - j)
    r = lam.reach(j - 1)
    lam.guard_level(m - 1)
    return r > m


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


@pytest.fixture(scope="module")
def lams():
    """The laminations of this module, built once: the four fixtures, the
    scan-style set with the probe angles, and the sweep of depth-8
    laminations whose critical value first meets the cycle after exactly
    9..12 doublings, over the limbs with q = 2..5."""
    sweep = []
    for q in range(2, 6):
        for p in (p for p in range(1, q) if gcd(p, q) == 1):
            for steps in range(9, 13):
                for theta in late_landing(p, q, steps):
                    lam = build(p, q, theta, 8)
                    assert lam.entry_step == steps
                    sweep.append(lam)
    return SimpleNamespace(fixtures=[build(1, 2, theta, 8) for theta in FIXTURES], sweep=sweep,
                           scan=scan_laminations(200) + list(late_landing_laminations()))


@pytest.mark.parametrize("theta", FIXTURES, ids=str)
def test_critical_image_matches_same_gap_on_fixtures(theta):
    lam = build(1, 2, theta, 8)
    for m in range(61):
        for j in range(m + 1):
            assert image_by_reach(lam, m, j) == oracle.image_is_critical(lam, m, j), (m, j)


def test_old_orbit_guard_fired_exactly_at_vertices(lams):
    """The old guard's clause for c_k = 2^k theta_v (k + level >= entry_step)
    fires, below entry_step, exactly where c_k is a vertex of depth <= level
    (c_k first meets the cycle at step entry_step - k), which is where
    Lamination.orbit refuses it: every k < entry_step, every level < entry_step."""
    late = lams.sweep + [lam for lam in lams.scan if lam.entry_step is not None]
    fired = 0
    for lam in late:
        e = lam.entry_step
        assert len(lam.critical_orbit) == e
        for k, c in enumerate(lam.critical_orbit):
            for level in range(e):
                try:
                    orbit_record_oracle.guard_level(lam, level, c)
                    clause = False
                except Case1DegenerateError:
                    clause = True
                try:
                    lam.orbit(c, level)
                    refused = False
                except OrbitHitsAlphaError:
                    refused = True
                assert clause == lam.is_vertex(c, level) == refused, (lam.theta_v, k, level)
                fired += clause
    assert len(late) > 40 and fired > 0


def test_critical_image_matches_same_gap_on_late_landing(lams):
    """Below entry_step, the level and orbit guards (Case1DegenerateError) and
    the reach's cycle-angle error past it come out as same_gap's."""
    seen = set()
    for lam in lams.sweep:
        steps = lam.entry_step
        for m in range(2 * steps + 3):
            for j in range(m + 1):
                got = outcome(image_by_reach, lam, m, j)
                assert got == outcome(oracle.image_is_critical, lam, m, j), (lam.theta_v, m, j)
                seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {True, False, "Case1DegenerateError", "YoccozError"}


def test_descendant_check_matches_the_angle_route(lams):
    """Every (m, n) with n < 12 and m <= n + 30, past entry_step included.
    At m = entry_step and m - n = 1 the level-m image misses before the
    level-(m + 1) one is asked, so the answer is (False, 0), not the error."""
    edge = set()
    for lam in lams.sweep + lams.fixtures:
        for n in range(12):
            for m in range(n + 1, n + 31):
                got = outcome(pz.descendant_check, lam, m, n)
                assert got == outcome(oracle.descendant_check, lam, m, n), (lam.theta_v, m, n)
                if m == lam.entry_step and m - n == 1:
                    edge.add(got)
    assert (False, 0) in edge


def test_detect_matches_the_angle_route_at_small_budgets(lams):
    """A late-landing lamination is never renormalizable; at a budget whose
    search asks for a level past entry_step, detect raises its error."""
    raised_below_entry = False
    for lam in lams.sweep:
        for budget in range(13):
            got = outcome(rn.detect, lam, budget)
            assert got == outcome(oracle.detect, lam, budget), (lam.theta_v, budget)
            if got == ("Case1DegenerateError", str(Case1DegenerateError(lam.entry_step))):
                raised_below_entry |= budget < lam.entry_step
            else:
                assert not got.renormalizable
    assert raised_below_entry


def test_detect_and_descendants_match_the_angle_route(lams):
    errors = 0
    for lam in lams.scan:
        assert outcome(rn.detect, lam, 30) == outcome(oracle.detect, lam, 30), lam.theta_v
        for n in range(4):
            for mine, ref in [(pz.descendant_levels, oracle.descendant_levels),
                              (pz.fraternal_descendants, oracle.fraternal_descendants)]:
                got = outcome(mine, lam, n, 20)
                assert got == outcome(ref, lam, n, 20), (lam.theta_v, n, mine.__name__)
                errors += isinstance(got, tuple) and isinstance(got[0], str)
    assert errors > 0


def test_descendant_levels_match_the_angle_route(lams):
    """descendant_levels against the oracle's level-by-level search on the
    late-landing sweep and the fixtures, guard errors included."""
    seen = set()
    for lam in lams.sweep + lams.fixtures:
        for n in range(4):
            for budget in (0, 1, 2, 13, 30):
                got = outcome(pz.descendant_levels, lam, n, budget)
                assert got == outcome(oracle.descendant_levels, lam, n, budget), \
                    (lam.theta_v, n, budget)
                seen.add("ok" if isinstance(got, list) else got[0])
    assert seen == {"ok", "Case1DegenerateError"}
