"""One orbit record per query angle (Lamination.orbit) against the walks it
replaced (tests/orbit_record_oracle.py): leaf levels, tau, residual
membership and the certify sampler, values and errors alike."""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from yoccoz import cli
from yoccoz import tiling as tl
from yoccoz.angles import arc_point, normalize
from yoccoz.errors import Case1DegenerateError, OrbitHitsAlphaError, YoccozError
from yoccoz.lamination import alpha_cycle, build
from yoccoz.puzzle import CRITICAL, critical_piece, tau, tau_sequence

import orbit_record_oracle as oracle
from fixtures import (AIRPLANE_THETA, CASE1_THETA, CASE1_THETA_SLOW, CASE3_L, CASE3_P,
                      CASE3_THETA, MISIUREWICZ_THETA, RESIDUAL_ANGLES, SATELLITE_THETA)
from test_lamination_layers import late_landing

LEVELS = (0, 1, 5, 16, 41, 200, 400)
LONG_ORBIT = normalize(4003, 8009)  # a critical orbit of 4004 points
LONG_PROBE = normalize(12345, 98303)


def outcome(call, *args):
    """The answer, or the error's class and message."""
    try:
        return call(*args)
    except (YoccozError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def record_or_refusal(lam, theta, n):
    """The orbit record, or the message of its vertex refusal."""
    try:
        return lam.orbit(theta, n)
    except OrbitHitsAlphaError as exc:
        return str(exc)


def refusal(theta, n):
    return f"the orbit of {theta} meets the alpha cycle within {n} steps"


def refused_first(call, lam, level, u, w):
    """call's outcome (the old path's pair walk) behind separation's vertex
    refusal: past the level guard, a vertex of depth <= level, u first, raises
    OrbitHitsAlphaError.  The old walk answered such a pair when it split
    before the vertex met the cycle, named the cycle angle when the vertex met
    it first, and refused a critical-orbit point c_k as Case1DegenerateError."""
    if lam.entry_step is None or level < lam.entry_step:
        for t in (u, w):
            if oracle.is_vertex(lam, t, level):
                return "OrbitHitsAlphaError", refusal(t, level)
    return outcome(call, lam, level, u, w)


def probes(lam, count, seed):
    """The leaf end, theta_v, and random angles with odd and even denominators."""
    rng = random.Random(seed)
    out = [lam.critical_leaf[0], lam.theta_v]
    while len(out) < count:
        den = rng.randrange(5, 10**6) << rng.randrange(3)
        num = rng.randrange(1, den)
        if gcd(num, den) == 1:
            out.append(normalize(num, den))
    return out


def assert_record_matches(lam, theta, n):
    rec = record_or_refusal(lam, theta, n)
    if oracle.is_vertex(lam, theta, n):
        assert rec == refusal(theta, n)
    else:
        pos, to_value = oracle.orbit_levels(lam, theta, n)
        assert (rec.pos, rec.to_value) == (pos, to_value), (theta, n)
        assert rec.leaf == oracle.orbit_leaf_levels(lam, theta, n), (theta, n)
    assert outcome(tau_sequence, lam, theta, n) == \
        outcome(oracle.tau_sequence, lam, theta, n), (theta, n)


@pytest.mark.parametrize("theta_v", [AIRPLANE_THETA, SATELLITE_THETA, MISIUREWICZ_THETA,
                                     CASE3_THETA], ids=str)
def test_leaf_levels_and_tau_match_on_fixtures(theta_v):
    lam = build(1, 2, theta_v, 8)
    for theta in probes(lam, 12, seed=11):
        for n in LEVELS:
            assert_record_matches(lam, theta, n)


def test_leaf_levels_and_tau_match_on_late_landing():
    """The last orbit point's successor is a cycle angle: the sentinel slot."""
    for p, q in ((1, 2), (1, 3), (2, 5)):
        for theta_v in late_landing(p, q, 9)[:2]:
            lam = build(p, q, theta_v, 8)
            for theta in probes(lam, 6, seed=15):
                for n in LEVELS[:5]:
                    assert_record_matches(lam, theta, n)


def test_tau_sequence_is_tau_at_every_level_on_late_landing():
    """tau_sequence to n_max is [tau(n) for n in start..n_max] whenever every
    tau(n) returns, and raises otherwise: past entry_step it raises
    Case1DegenerateError, whichever level its pointer reads."""
    lams = [build(p, q, t, 8) for p, q in ((1, 2), (1, 3)) for t in late_landing(p, q, 9)[:2]]
    lams.append(build(1, 2, normalize(919, 1536), 8))
    seen = set()
    for lam in lams:
        for theta in probes(lam, 6, seed=19) + [normalize(65, 553)]:
            for n_max in range(lam.entry_step + 4):
                for start in sorted({0, n_max // 2, n_max}):
                    taus = [outcome(tau, lam, n, theta) for n in range(start, n_max + 1)]
                    got = outcome(tau_sequence, lam, theta, n_max, start)
                    if all(isinstance(t, int) for t in taus):
                        assert got == taus, (lam.theta_v, theta, n_max, start)
                    else:
                        assert isinstance(got, tuple), (lam.theta_v, theta, n_max, start)
                    seen.add(got[0] if isinstance(got, tuple) else "ok")
    assert seen == {"ok", "Case1DegenerateError", "OrbitHitsAlphaError"}
    lam = build(1, 2, normalize(919, 1536), 8)
    assert lam.entry_step == 9
    with pytest.raises(Case1DegenerateError):
        tau_sequence(lam, normalize(65, 553), 10)


def test_leaf_levels_and_tau_match_on_long_orbit():
    lam = build(1, 2, LONG_ORBIT, 0)
    assert len(lam.critical_orbit) == 4004
    for theta in (LONG_PROBE, lam.theta_v):
        for n in LEVELS:
            assert_record_matches(lam, theta, n)


def test_long_orbit_tau_pinned():
    """The backward pass visits only the orbit slots in the sector of each
    orbit point, fewer than (n + 1) P row cells."""
    lam = build(1, 2, LONG_ORBIT, 0)
    assert tau_sequence(lam, LONG_PROBE, 200) == [
        0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 1, 2, 1, 2, 3, 4, 1, 2, 1, 2, 1, 2, 1, 2, 3, 1, 2,
        3, 4, 1, 2, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 1, 2, 1, 2, 3, 1, 2, 3, 4, 5, 1, 2, 1, 2, 1,
        2, 1, 2, 3, 1, 2, 1, 2, 1, 2, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 1,
        2, 1, 2, 1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2, 1, 2,
        1, 2, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 1, 2, 1, 2, 1, 2,
        3, 1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2, 1, 2, 1, 2, 1, 2, 3,
        4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 1, 2, 3, 4, 5, 6, 7, 1, 2, 1]
    rec = lam.orbit(LONG_PROBE, 200)
    assert rec.cells == 447528 < 201 * 4004


def test_same_gap_and_entry_step_match():
    """The pair walk over one denominator per angle, and the first-repeat rule
    of the vertex walk, against the reduced-pair walks: values and the
    vertex and late-landing errors alike (refused_first)."""
    seen = set()
    lams = [build(1, 2, t, 8) for t in (AIRPLANE_THETA, MISIUREWICZ_THETA, CASE3_THETA)]
    lams += [build(p, q, t, 8) for p, q in ((1, 2), (1, 3)) for t in late_landing(p, q, 9)[:1]]
    for lam in lams:
        points = probes(lam, 10, seed=16)
        points += [lam.cycle[0], normalize(lam.cycle[0].num, 2 * lam.cycle[0].den)]
        points += list(lam.critical_orbit[:3])
        for u in points:
            assert lam.vertex_entry_step(u) == oracle.cycle_entry_step(u, frozenset(lam.cycle)), u
            for w in points:
                for level in (0, 3, 12):
                    got = outcome(lam.same_gap, level, u, w)
                    assert got == refused_first(oracle.same_gap, lam, level, u, w), (u, w, level)
                    seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {True, False, "OrbitHitsAlphaError", "Case1DegenerateError"}


def test_classify_case_matches_entry_walk():
    """classify_case takes the entry step from the lamination's walk, or from
    the Case1DegenerateError of its depth-1 build, and agrees with the
    Angle-by-Angle walk: the fixtures, late landing in seven limbs, and angles
    outside the sector that land after one, two or nine doublings or never.
    Outside the sector a landing is case 1 whatever the build depth."""
    for depth in (1, 2):
        with pytest.raises(Case1DegenerateError) as err:
            build(1, 2, normalize(1, 12), depth)
        assert err.value.step == 2
    cases = [(1, 2, t) for t in (CASE1_THETA, CASE1_THETA_SLOW, AIRPLANE_THETA, CASE3_THETA,
                                 MISIUREWICZ_THETA, SATELLITE_THETA,
                                 normalize(1, 12), normalize(1, 1536))]
    for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 7), (1, 8)):
        cases += [(p, q, t) for steps in (1, 2, 3, 5, 9) for t in late_landing(p, q, steps)]
        cases += [(p, q, normalize(c.num, 2 * c.den)) for c in alpha_cycle(p, q)]  # one doubling
        cases += [(p, q, normalize(k, 2 * q + 1 + 2 * k)) for k in range(1, 6)]
    seen = set()
    for p, q, theta in cases:
        for depth in (1, 5, 12):
            got = outcome(tl.classify_case, p, q, theta, depth)
            assert got == outcome(oracle.classify_case, p, q, theta, depth), (p, q, theta)
            seen.add(got.kind if isinstance(got, tl.CaseTag) else got[0])
        try:
            lam = build(p, q, theta, 6)
        except YoccozError:
            continue
        for depth in (1, 5, 12):
            assert tl.classify_case(p, q, theta, depth, lam) == \
                oracle.classify_case(p, q, theta, depth, lam), (p, q, theta)
    assert seen == {"TrivialCase1", "Recurrent", "PresumedNonRecurrent", "InvalidThetaError"}


@pytest.mark.parametrize("theta_v", ["1/6", "5/12", "1/12", "7/24", "13/48", "919/1536",
                                     "1/1536"])
def test_tile_case1_path_matches_entry_walk(theta_v, tmp_path):
    """`tile --p/--q/--theta-v` reports case 1 with the Angle walk's entry
    step at lamination depths 1, 2 and 8, inside the sector (5/12, 919/1536)
    or out of it (1/6, 1/12, 7/24, 13/48, 1/1536).  The step comes from the
    build's Case1DegenerateError, or from the lamination when a landing inside
    the sector comes past the build depth (919/1536, after 9 doublings)."""
    num, den = map(int, theta_v.split("/"))
    want = oracle.classify_case(1, 2, normalize(num, den), 1)
    for depth in (1, 2, 8):
        config = tmp_path / f"depth{depth}.cfg"
        config.write_text(f"lamination_depth={depth}\n")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--config", str(config), "tile", "--p", "1", "--q", "2",
                             "--theta-v", theta_v, "--level", "3"])
        assert code == 0, (depth, buf.getvalue())
        report = json.loads(buf.getvalue())
        assert (report["case"], report["L"]) == (want.kind, want.evidence_depth), depth


def test_record_answers_lower_levels():
    """The capped values at n answer every level m <= n."""
    lam = build(1, 2, CASE3_THETA, 8)
    for theta in probes(lam, 8, seed=13):
        if oracle.is_vertex(lam, theta, 60):
            continue
        rec = lam.orbit(theta, 60)
        for m in (0, 7, 30, 59):
            low = lam.orbit(theta, m)
            assert low.to_value == [min(v, m + 1 - k) for k, v in enumerate(rec.to_value[:m + 2])]
            assert low.leaf == [min(v, m + 1 - k) for k, v in enumerate(rec.leaf[:m + 1])]


def test_record_rejects_negative_levels():
    lam = build(1, 2, CASE3_THETA, 8)
    with pytest.raises(ValueError, match="level must be >= 0"):
        lam.orbit(RESIDUAL_ANGLES[0], -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        tau_sequence(lam, RESIDUAL_ANGLES[0], -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        tau_sequence(lam, CRITICAL, -1)


def piece_samples(lam, p, count, seed):
    """Angles drawn as certify draws them, from the level-p critical piece,
    plus angles outside it."""
    rng = random.Random(seed)
    arcs = critical_piece(lam, min(p, (lam.entry_step or p + 1) - 1)).boundary
    out = [CRITICAL] + probes(lam, count // 4, seed)
    while len(out) < count:
        a, b = arcs[rng.randrange(len(arcs))]
        out.append(arc_point(a, b, Fraction(rng.randrange(1, 1 << 16), 1 << 16)))
    return out


def test_residual_member_matches_on_case3():
    lam = build(1, 2, CASE3_THETA, 8)
    seen = set()
    for theta in RESIDUAL_ANGLES + piece_samples(lam, CASE3_P, 40, seed=14):
        for depth in range(CASE3_P, 46):
            got = outcome(tl.residual_member, lam, theta, CASE3_P, CASE3_L, depth)
            assert got == outcome(oracle.residual_member, lam, theta, CASE3_P, CASE3_L, depth), \
                (theta, depth)
            seen.add(got if isinstance(got, tl.ResidualStatus) else got[0])
    assert seen == set(tl.ResidualStatus) | {"ValueError"}


def test_residual_member_matches_on_late_landing():
    """Levels at and past entry_step raise Case1DegenerateError in both."""
    seen = set()
    for q in range(2, 5):
        for p in (p for p in range(1, q) if gcd(p, q) == 1):
            for steps in (9, 11):
                for theta_v in late_landing(p, q, steps)[:2]:
                    lam = build(p, q, theta_v, 8)
                    for level in (3, 6, steps - 1, steps):
                        for theta in piece_samples(lam, level, 8, seed=level):
                            for depth in (level, level + 2, steps + 1):
                                got = outcome(tl.residual_member, lam, theta, level,
                                              level - 1, depth)
                                want = outcome(oracle.residual_member, lam, theta, level,
                                               level - 1, depth)
                                assert got == want, (theta_v, theta, level, depth)
                                seen.add(got if isinstance(got, tl.ResidualStatus) else got[0])
    assert {"Case1DegenerateError", "ValueError"} <= seen


def test_residual_member_refuses_depths_below_p():
    lam = build(1, 2, CASE3_THETA, 8)
    with pytest.raises(ValueError, match="p = 15"):
        tl.residual_member(lam, RESIDUAL_ANGLES[0], CASE3_P, CASE3_L, CASE3_P - 1)


@pytest.mark.parametrize("seed", range(20))
def test_residual_samples_match(seed, monkeypatch):
    """Two depths per seed, 13 apart, so the 20 seeds cover depths 16..41
    (the whole grid takes about 40 s, the oracle two thirds of it)."""
    lam = build(1, 2, CASE3_THETA, 8)
    for depth in (16 + seed, 16 + (seed + 13) % 26):
        got = cli._residual_samples(lam, CASE3_P, CASE3_L, depth, 1, seed)
        with monkeypatch.context() as m:
            m.setattr(tl, "residual_member", oracle.residual_member)
            want = cli._residual_samples(lam, CASE3_P, CASE3_L, depth, 1, seed)
        assert got == want, depth


# ----------------------------------------------- the vertex test in closed form


@pytest.fixture(scope="module")
def entry_lams():
    """The five laminations of the record tests above, and one (q = 4) whose
    critical value lands on the cycle after nine doublings."""
    lams = [build(1, 2, t, 8) for t in (AIRPLANE_THETA, SATELLITE_THETA, MISIUREWICZ_THETA,
                                        CASE3_THETA)]
    return lams + [build(1, 2, LONG_ORBIT, 0), build(1, 4, late_landing(1, 4, 9)[0], 8)]


@st.composite
def entry_angles(draw, lams):
    """(kind, lamination, a, angle num/(2^a b)) with b odd and, by kind,
    num mod b a cycle point (a vertex from depth a), b dividing 2^q - 1, or
    b not dividing it."""
    lam = draw(st.sampled_from(lams))
    full = (1 << lam.q) - 1
    a = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(["cycle", "divides", "other"]))
    if kind == "cycle":
        c = draw(st.sampled_from(lam._cycle_nums))
        b = full // gcd(c, full)
        r = c * b // full  # c / (2^q - 1) = r / b, reduced
    else:
        divisors = [d for d in range(1, full + 1) if full % d == 0]
        odd = st.integers(1, 2000).map(lambda k: 2 * k + 1).filter(lambda d: full % d)
        b = draw(st.sampled_from(divisors) if kind == "divides" else odd)
        r = draw(st.integers(0, b - 1))
    num = r + b * draw(st.integers(0, (1 << a) - 1))
    if a and num % 2 == 0:
        num += b
    return kind, lam, a, normalize(num, b << a)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_vertex_entry_closed_form_matches_the_walks(entry_lams, data):
    """vertex_entry_step and is_vertex against the walks they replaced; around
    the entry step, the record (refused exactly when vertex_entry_step <= n)
    and tau_sequence's outcome against the reduced-pair oracle too."""
    kind, lam, a, theta = data.draw(entry_angles(entry_lams))
    e = lam.vertex_entry_step(theta)
    assert e == oracle.vertex_entry_walk(lam, theta), theta
    if kind == "cycle":
        assert e == a, theta
    levels = {0, 3} | (set() if e is None else {e - 1, e, e + 1})
    for n in sorted(n for n in levels if n >= 0):
        assert lam.is_vertex(theta, n) == oracle.is_vertex_walk(lam, theta, n), (theta, n)
        rec = record_or_refusal(lam, theta, n)
        hit, pos = oracle.orbit_hit_walk(lam, theta, n)
        assert hit == (e if e is not None and e <= n else None), (theta, n)
        if hit is None:
            assert rec.pos == pos, (theta, n)
        else:
            assert rec == refusal(theta, n), (theta, n)
        assert outcome(tau_sequence, lam, theta, n) == \
            outcome(oracle.tau_sequence, lam, theta, n), (theta, n)


def test_vertex_entry_closed_form_on_small_denominators(entry_lams):
    """Every angle num/(2^a b) with a <= 3 and odd b < 4 (2^q - 1): b below,
    at and above 2^q - 1, dividing it or not, where a b that does not divide
    2^q - 1 can still give (num mod b) ((2^q - 1) // b) a cycle numerator."""
    for lam in entry_lams:
        full = (1 << lam.q) - 1
        for den in {b << a for b in range(1, 4 * full, 2) for a in range(4)}:
            for num in range(den):
                theta = normalize(num, den)
                assert lam.vertex_entry_step(theta) == oracle.vertex_entry_walk(lam, theta), theta


def test_vertex_draws_walk_no_point(monkeypatch):
    """The certify sampler's draws k/2^16 along the level-15 piece: a vertex
    draw (denominator 3 2^a, a <= 40) costs no orbit step through
    residual_member, is_vertex or vertex_entry_step; the other draws walk."""
    lam = build(1, 2, CASE3_THETA, 8)
    draws = piece_samples(lam, CASE3_P, 120, seed=22)[31:]  # the arc draws alone
    walk, steps = type(lam)._points, []

    def counted(self, num, den):
        for point in walk(self, num, den):
            steps.append(num)
            yield point

    monkeypatch.setattr(type(lam), "_points", counted)
    vertices = [t for t in draws if lam.is_vertex(t, 40)]
    assert len(vertices) > 20 and not steps
    for theta in vertices:
        assert tl.residual_member(lam, theta, CASE3_P, CASE3_L, 40) is \
            tl.ResidualStatus.ORBIT_HITS_ALPHA
        assert lam.vertex_entry_step(theta) == (theta.den & -theta.den).bit_length() - 1 <= 40
    assert not steps
    for theta in draws:
        if theta not in vertices:
            tl.residual_member(lam, theta, CASE3_P, CASE3_L, 40)
    assert len(steps) == 41 * (len(draws) - len(vertices))


# ------------------------------------------ the meeting step from the denominator


def test_separation_reads_the_meeting_step_from_the_denominator(entry_lams):
    """separation and same_gap against the reduced-pair walk, which tests at
    every step whether the pair has met, errors included.  The pairs are
    w = u + k/2^s (k odd), whose orbits meet at step s, with s below, at and
    above the walk's cap level + 1, and pairs of two unrelated angles; u and
    w are cycle preimages (vertices from some depth on) or random angles, so
    either or both can reach a cycle angle before or at the step where the
    pair splits or meets.  separation refuses such a vertex up front
    (refused_first), whichever outcome the old walk gave it."""
    rng = random.Random(26)
    seen, changed = set(), set()
    for lam in entry_lams:

        def draw():
            a = rng.randrange(8)
            if rng.random() < 0.5:  # 2^a of it is a cycle angle
                c = rng.choice(lam.cycle)
                return normalize(c.num + c.den * rng.randrange(1 << a), c.den << a)
            den = rng.randrange(3, 4000, 2) << a
            return normalize(rng.randrange(den), den)

        for _ in range(400):
            u, level = draw(), rng.randrange(12)
            if rng.random() < 0.7:
                meet = rng.randrange(1, 15)
                k = 2 * rng.randrange(1 << (meet - 1)) + 1
                w = normalize((u.num << meet) + k * u.den, u.den << meet)
            else:
                w, meet = draw(), None
            for x, y in ((u, w), (w, u)):
                got = outcome(lam.separation, level, x, y)
                assert got == refused_first(oracle.separation, lam, level, x, y), (x, y, level)
                assert outcome(lam.same_gap, level, x, y) == \
                    refused_first(oracle.same_gap, lam, level, x, y), (x, y, level)
                old = outcome(oracle.separation, lam, level, x, y)
                if got != old:  # a vertex the old walk answered, named or refused as c_k
                    changed.add("value" if isinstance(old, int) else old[0])
                kind = "value" if isinstance(got, int) else got[0]
                seen.add((kind, None if meet is None else (meet > level + 1) - (meet < level + 1)))
    kinds = ("value", "OrbitHitsAlphaError", "Case1DegenerateError")
    assert seen == {(kind, m) for kind in kinds for m in (None, -1, 0, 1)}, seen
    assert changed == {"value", "YoccozError", "Case1DegenerateError"}, changed
