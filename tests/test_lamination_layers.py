"""The integer polygon layers against the Angle-based build they replaced
(tests/lamination_oracle.py), and a guard on the build's Angle count."""

import random
from fractions import Fraction
from math import gcd

import pytest

from yoccoz.angles import Angle, arc_length, arc_point, normalize
from yoccoz.cli import _lam_payload
from yoccoz.errors import Case1DegenerateError, InvalidThetaError, YoccozError
from yoccoz.lamination import alpha_cycle, build

from fixtures import AIRPLANE_THETA, CASE1_THETA, CASE1_THETA_SLOW, CASE3_THETA, \
    MISIUREWICZ_THETA, RABBIT_WAKE_THETA, SATELLITE_THETA
from lamination_oracle import AngleLamination


def sector(p, q):
    cyc = alpha_cycle(p, q)
    return min(((cyc[i], cyc[(i + 1) % q]) for i in range(q)), key=arc_length)


def seeded_theta(rng, p, q, depth=8):
    """An angle strictly inside the critical-value sector whose orbit stays off
    the alpha cycle for depth doublings.  Its orbit is short: the period
    divides lcm(q, ord_m(2)) for an odd m <= 7."""
    a, b = sector(p, q)
    while True:
        s = rng.randrange(2, 12)
        theta = arc_point(a, b, Fraction(rng.randrange(1, 1 << s),
                                         (1 << s) * rng.choice((1, 3, 5, 7))))
        try:
            build(p, q, theta, depth)
        except Case1DegenerateError:
            continue
        return theta


def limbs():
    rng = random.Random(8)
    for q in range(2, 15):
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        for _ in range(2):
            yield p, q, seeded_theta(rng, p, q)


def layer_strings(polygons):
    return [[[str(v) for v in poly.vertices] for poly in layer] for layer in polygons]


def test_integer_layers_match_angle_oracle():
    """Same vertices, same polygon order, same reduced strings, q = 2..14 at depth 8."""
    for p, q, theta in limbs():
        lam, oracle = build(p, q, theta, 8), AngleLamination(p, q, theta, 8)
        want = [[poly.vertices for poly in layer] for layer in oracle.polygons]
        assert lam.polygons == want, (p, q, theta)
        assert _lam_payload(lam)["polygons"] == layer_strings(oracle.polygons), (p, q, theta)
        assert lam.sector == oracle.sector and lam.critical_leaf == oracle.critical_leaf


def nesting_cases():
    """limbs(), the five fixtures, q >= 20, and late-landing laminations built
    short of their entry step."""
    yield from ((p, q, theta, 8) for p, q, theta in limbs())
    for theta in (SATELLITE_THETA, MISIUREWICZ_THETA, AIRPLANE_THETA, CASE3_THETA):
        yield 1, 2, theta, 8
    yield 1, 3, RABBIT_WAKE_THETA, 8
    rng = random.Random(11)
    for q in (20, 33, 64):
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        yield p, q, seeded_theta(rng, p, q, 6), 6
    for p, q in ((1, 2), (1, 5), (2, 7)):
        for steps in (3, 6):
            for theta in late_landing(p, q, steps):
                yield p, q, theta, steps - 1


def test_layer_j_is_the_head_of_layer_j_plus_1():
    """Layer j is the first 2^j polygons of layer j+1, numerators doubled
    (the proof is at Lamination.layers), and the report and `polygons` give
    every layer as a slice of the top layer's own polygon objects."""
    qs, late = set(), 0
    for p, q, theta, depth in nesting_cases():
        lam = build(p, q, theta, depth)
        for j in range(depth):
            assert [tuple(2 * n for n in P) for P in lam.layers[j]] == lam.layers[j + 1][:1 << j], \
                (p, q, theta, j)
        for layers in (_lam_payload(lam)["polygons"], lam.polygons):
            assert [len(layer) for layer in layers] == [1 << j for j in range(depth + 1)]
            assert all(P is layers[-1][i] for layer in layers for i, P in enumerate(layer))
        qs.add(q)
        late += lam.entry_step is not None and lam.entry_step > depth
    assert max(qs) >= 64 and late >= 6


def late_landing(p, q, steps):
    """Angles of the sector that first meet the cycle after exactly `steps` doublings."""
    a, b = sector(p, q)
    full = (1 << q) - 1
    den = full << steps
    cycle = {c.num * (full // c.den) for c in alpha_cycle(p, q)}
    lo, hi = a.num * den // a.den, b.num * den // b.den
    out = []
    for n in range(lo + 1, hi + 1):
        theta = normalize(n, den)
        if theta.den == den and n % full in cycle:
            out.append(theta)
    return out[:3]


def outcome(make):
    try:
        make()
    except (Case1DegenerateError, InvalidThetaError) as exc:
        return type(exc).__name__, getattr(exc, "step", None), str(exc)
    return "ok", None, ""


def test_build_errors_match_angle_oracle():
    """Late landing before the build depth or outside the sector at any depth
    (Case1DegenerateError with its step) and other angles outside the sector
    (InvalidThetaError) fail alike."""
    cases = [(1, 2, CASE1_THETA, d) for d in range(4)]
    cases += [(1, 2, CASE1_THETA_SLOW, d) for d in range(4)]
    cases += [(1, 2, normalize(1, 12), d) for d in range(4)]  # outside, lands after 2
    cases += [(1, 2, normalize(1, 1536), d) for d in (1, 8)]  # outside, lands after 9
    rng = random.Random(9)
    for q in range(2, 15):
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        for steps in (1, 3, 5):
            for theta in late_landing(p, q, steps):
                cases += [(p, q, theta, d) for d in (steps - 1, steps, 8)]
        a, _ = sector(p, q)
        full = (1 << q) - 1
        cases.append((p, q, normalize(3 * a.num * (full // a.den) - 1, 3 * full), 3))  # just outside
    seen = set()
    for p, q, theta, depth in cases:
        got = outcome(lambda: build(p, q, theta, depth))
        assert got == outcome(lambda: AngleLamination(p, q, theta, depth)), (p, q, theta, depth)
        seen.add(got[0])
    assert seen == {"ok", "Case1DegenerateError", "InvalidThetaError"}


@pytest.mark.parametrize("pq,theta", [((1, 2), CASE3_THETA), ((1, 2), MISIUREWICZ_THETA),
                                      ((1, 3), RABBIT_WAKE_THETA)])
def test_pullback_queries_match_angle_oracle(pq, theta):
    """polygons_inside and vertex_class, within and beyond the build depth."""
    lam, oracle = build(*pq, theta, 4), AngleLamination(*pq, theta, 6)
    rng = random.Random(10)
    probes = [lam.critical_leaf[0]]
    while len(probes) < 8:
        den = rng.randrange(5, 10**5) | 1
        t = normalize(rng.randrange(1, den), den)
        if not lam.is_vertex(t, 40):
            probes.append(t)
    for t in probes:
        for level in range(0, 7):
            try:
                want = oracle.polygons_inside(lam, level, t)
            except YoccozError:
                continue
            den = lam.layer_den(level + 1)
            got = [tuple(normalize(n, den) for n in verts) for verts in lam.polygons_inside(level, t)]
            assert got == want, (t, level)
    for depth, layer in enumerate(oracle.polygons):
        for poly in rng.sample(layer, min(4, len(layer))):
            v = rng.choice(poly.vertices)
            try:
                want = oracle.vertex_class(lam, v)
            except YoccozError:
                continue
            assert lam.vertex_class(v) == want == poly.vertices, (depth, v)
    assert lam.vertex_class(normalize(5, 11)) is None


def test_build_makes_no_angle_per_vertex(monkeypatch):
    """build(p, q, theta_v, 8) and its `lamination` payload construct O(q + P)
    Angles (cycle, critical orbit, leaf), not one per vertex: q (2^9 - 1) here."""
    created = []
    original = Angle.__post_init__

    def counted(self):
        created.append(1)
        original(self)

    for p, q, theta in limbs():
        orbit = len(build(p, q, theta, 8).critical_orbit)
        bound = 2 * (q + orbit) + 8
        assert bound < q * ((1 << 9) - 1) // 4, "the guard would not see per-vertex Angles"
        monkeypatch.setattr(Angle, "__post_init__", counted)
        created.clear()
        _lam_payload(build(p, q, theta, 8))
        monkeypatch.setattr(Angle, "__post_init__", original)
        assert len(created) <= bound, (p, q, theta, len(created), bound)
