"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances are pinned here, not configurable."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from yoccoz.angles import arc_length, double, from_fraction, normalize
from yoccoz.errors import Case1DegenerateError, InvalidThetaError, OrbitHitsAlphaError
from yoccoz.lamination import alpha_cycle, build, check_unlinked
from yoccoz import geometry as g
from yoccoz import puzzle as pz
from yoccoz import qcmodel as qc
from yoccoz import renorm as rn
from yoccoz import sobolev as sb
from yoccoz import tiling as tl

from fixtures import (
    CASE1_THETA,
    CASE3_FRATERNAL,
    CASE3_L,
    CASE3_N,
    CASE3_P,
    CASE3_THETA,
    MISIUREWICZ_THETA,
    SATELLITE_THETA,
)
from test_lamination import brute_force_alpha_cycle
from recursion_oracle import RecursionOracle


def test_acceptance_01_alpha_cycle_oracle():
    import time
    from math import gcd

    t0 = time.time()
    checked = 0
    for q in range(2, 11):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            assert alpha_cycle(p, q) == brute_force_alpha_cycle(p, q), (p, q)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS - alpha_cycle == brute force for {checked} coprime p/q, "
          f"q <= 10, in {elapsed:.2f}s")


def _random_valid_lamination(rng, depth):
    limbs = [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 5)]
    while True:
        p, q = limbs[rng.randrange(len(limbs))]
        cyc = alpha_cycle(p, q)
        arcs = sorted(
            ((cyc[i], cyc[(i + 1) % q]) for i in range(q)),
            key=lambda ab: (ab[1].frac - ab[0].frac) % 1,
        )
        a, d = arcs[0]
        span = (d.frac - a.frac) % 1
        theta = from_fraction((a.frac + span * Fraction(rng.randrange(1, 1 << 13), 1 << 13)) % 1)
        try:
            return (p, q), theta, build(p, q, theta, depth)
        except (Case1DegenerateError, InvalidThetaError):
            continue


def test_acceptance_02_lamination_invariants():
    import time

    t0 = time.time()
    rng = random.Random(20)
    for trial in range(10):
        (p, q), theta, lam = _random_valid_lamination(rng, 10)
        for j, layer in enumerate(lam.polygons):
            assert len(layer) == 1 << j, (p, q, theta, j)
            assert all(len(poly) == q for poly in layer)
        fams = [poly for layer in lam.polygons for poly in layer]
        assert check_unlinked(fams) is None, (p, q, theta)
        for j in range(1, 11):
            parents = {poly for poly in lam.polygons[j - 1]}
            for poly in lam.polygons[j]:
                img = tuple(sorted({double(v) for v in poly}, key=lambda t: t.frac))
                assert img in parents
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2: PASS - 10 random laminations at depth 10: 2^j counts, "
          f"unlinked, forward-consistent, in {elapsed:.1f}s")


def test_acceptance_03_tau_oracle_and_taulike():
    lam = build(1, 2, CASE3_THETA, 8)
    oracle = RecursionOracle(lam)
    rng = random.Random(3)
    done = violations = 0
    while done < 200:
        den = rng.randrange(5, 10**6) | 1
        theta = normalize(rng.randrange(1, den), den)
        try:
            seq = pz.tau_sequence(lam, theta, 40)
        except OrbitHitsAlphaError:
            continue
        direct = [oracle.tau_direct(n, theta) for n in range(41)]
        assert seq == direct, theta
        violations += sum(1 for i in range(40) if seq[i + 1] > seq[i] + 1)
        done += 1
    assert violations == 0
    print(f"\nACCEPTANCE 3: PASS - incremental tau == direct scan for 200 angles to "
          f"depth 40; taulike violations: {violations}")


def _random_rad_sequence(rng, max_len=200):
    n = rng.randrange(3, max_len + 1)
    vals = [rng.randrange(-1, 7)]
    for _ in range(n - 1):
        lo = -1 if rng.random() < 0.3 else max(-1, vals[-1] - rng.randrange(0, 4))
        vals.append(rng.randrange(lo, vals[-1] + 2))
    return vals


def test_acceptance_04_rise_and_drop_lemmas():
    rng = random.Random(4)
    ivt_checked = 0
    for _ in range(10_000):
        vals = _random_rad_sequence(rng)
        n = len(vals)
        rises = {}
        for i in range(n - 1):
            if vals[i + 1] == vals[i] + 1:
                rises.setdefault(vals[i], []).append(i)
        # sampled (k, l) hypothesis instances, plus the extremal pair
        pairs = [(vals.index(min(vals)), max(range(n), key=lambda i: vals[i]))]
        for _ in range(20):
            k = rng.randrange(n)
            l = rng.randrange(k, n)
            pairs.append((k, l))
        for k, l in pairs:
            if k > l:
                continue
            for m in range(max(vals[k], -1), vals[l]):
                found = any(k <= i < l for i in rises.get(m, ()))
                assert found, (vals[: l + 1], k, l, m)
                ivt_checked += 1

    # bounded-case extraction vs an independent brute scan
    compared = 0
    for _ in range(300):
        vals = _random_rad_sequence(rng, 80)
        rep = pz.rad_analyze(pz.TauSequence(0, tuple(vals)))
        drops = {}
        for i in range(len(vals) - 1):
            if vals[i + 1] <= vals[i]:
                drops.setdefault((vals[i], vals[i + 1]), []).append(i)
        if not drops:
            assert rep.repeated_drop is None
            continue
        best = max(drops.items(), key=lambda kv: (len(kv[1]), kv[0]))
        assert rep.repeated_drop == best[0]
        assert rep.drop_times == best[1]
        r, s = best[0]
        times = best[1]
        for m in range(s, r):
            expect = []
            for t0, t1 in zip(times, times[1:]):
                hit = next(
                    (i for i in range(t0 + 1, t1) if vals[i] == m and vals[i + 1] == m + 1),
                    None,
                )
                if hit is not None:
                    expect.append(hit)
            assert rep.rise_witnesses.get(m, []) == expect
        compared += 1
    assert compared > 100
    print(f"\nACCEPTANCE 4: PASS - IVT held on {ivt_checked} sampled hypothesis instances "
          f"over 10^4 sequences; bounded-case extraction matched brute force on {compared}")


def test_acceptance_05_tiling_trichotomy():
    # case 1: the trivial decomposition
    case = tl.classify_case(1, 2, CASE1_THETA, 8)
    triv = tl.trivial_tiling(case, level=8)
    assert case.kind == "TrivialCase1" and triv.tiles == []

    # case 3 fixture
    lam = build(1, 2, CASE3_THETA, 8)
    tiling = tl.tile(lam, CASE3_P, max_tile_level=CASE3_P + 6)
    piece = tiling.piece
    assert (tiling.base_level, tiling.fraternal, tiling.L) == (CASE3_N, CASE3_FRATERNAL, CASE3_L)

    for i, a in enumerate(tiling.tiles):
        assert tl.univalent_to_level(lam, a, tiling.L)
        parent = pz.piece_of(lam, a.level - 1, a.probe)
        assert not tl.univalent_to_level(lam, parent, tiling.L)
        for b in tiling.tiles[i + 1:]:
            lo, hi = (a, b) if a.level <= b.level else (b, a)
            assert not lam.same_gap(lo.level, lo.probe, hi.probe)

    rng = random.Random(5)
    outcomes = {"tiled": 0, "boundary": 0, "residual": 0}
    arcs = piece.boundary
    samples = 0
    while samples < 150:
        a, b = arcs[rng.randrange(len(arcs))]
        t = from_fraction(
            (a.frac + arc_length((a, b)) * Fraction(rng.randrange(1, 1 << 20), 1 << 20)) % 1
        )
        if lam.is_vertex(t, 30):
            outcomes["boundary"] += 1
            samples += 1
            continue
        if not lam.same_gap(CASE3_P, t, lam.critical_leaf[0]):
            continue
        samples += 1
        status = tl.residual_member(lam, t, CASE3_P, tiling.L, 30)
        if status is tl.ResidualStatus.ORBIT_HITS_ALPHA:
            outcomes["boundary"] += 1
        elif status is tl.ResidualStatus.IN_R_TO_DEPTH:
            outcomes["residual"] += 1
        else:
            taus = pz.tau_sequence(lam, t, 30, start=CASE3_P)
            n_star = next(CASE3_P + i for i, v in enumerate(taus) if v <= tiling.L)
            sub = pz.piece_of(lam, n_star, t)
            assert tl.univalent_to_level(lam, sub, tiling.L)
            outcomes["tiled"] += 1
    assert sum(outcomes.values()) == samples  # no fourth category
    print(f"\nACCEPTANCE 5: PASS - trivial case-1 decomposition; case-3 tiles disjoint "
          f"and maximal; trichotomy on {samples} samples to depth 30: {outcomes}")


def test_acceptance_06_certificate_soundness():
    lam = build(1, 2, CASE3_THETA, 8)
    thetas = [pz.CRITICAL, normalize(368, 511), normalize(19237, 87381)]
    cert40 = tl.build_certificate(lam, CASE3_N, CASE3_FRATERNAL, thetas, depth=40)
    rep40 = tl.verify_certificate(lam, cert40)
    assert rep40.ok, rep40.violations

    cert20 = tl.build_certificate(lam, CASE3_N, CASE3_FRATERNAL, thetas, depth=20)
    grew = 0
    for e20, e40 in zip(cert20.entries, cert40.entries):
        c20 = {a.cls: 0 for a in e40.annuli}
        c40 = dict(c20)
        for a in e20.annuli:
            c20[a.cls] += 1
        for a in e40.annuli:
            c40[a.cls] += 1
        assert all(c40[k] >= c20[k] for k in c40)  # per-class monotone
        assert len(e40.annuli) > len(e20.annuli)  # growing
        grew += len(e40.annuli) - len(e20.annuli)

    corrupted = tl.build_certificate(lam, CASE3_N, CASE3_FRATERNAL, thetas, depth=40)
    corrupted.entries[0].annuli.append(corrupted.entries[0].annuli[-1])
    bad = tl.verify_certificate(lam, corrupted)
    assert not bad.ok and bad.violations
    print(f"\nACCEPTANCE 6: PASS - certificates verified at depths 20/40 "
          f"(+{grew} annuli across entries), corrupted certificate rejected with witness")


def test_acceptance_07_diamond_bound():
    n = 512
    target = (3 + math.sqrt(5)) / 2
    worst = 0.0
    for i in range(-n, n + 1):
        x = i / n
        width = 1 - abs(x)
        if width == 0:
            worst = max(worst, qc.shear_dilatation(1.0))  # tip: edge limit s = 1
            continue
        m = max(int(width * n), 1)
        for j in range(-m, m + 1):
            y = width * j / m
            s = abs(y / (1 + x)) if x <= 0 else abs(y / (1 - x))
            k = qc.shear_dilatation(min(s, 1.0)) if s <= 1 + 1e-12 else math.inf
            worst = max(worst, k)
    assert worst <= 3.0 + 1e-9
    assert abs(worst - target) < 1e-6
    print(f"\nACCEPTANCE 7: PASS - max rho dilatation {worst:.12f} == (3+sqrt5)/2 "
          f"on a {2 * n + 1}-line diamond grid, bound 3 respected")


def test_acceptance_08_slit_band():
    for depth in range(1, 7):
        model = qc.strip_model(depth)
        assert all(s.ratio <= Fraction(3, 5) for s in model.slits)  # exact
        lo = min(s.im_lo for s in model.slits)
        hi = max(s.im_hi for s in model.slits)
        assert lo >= math.pi / 5 - 1e-9
        assert hi <= 4 * math.pi / 5 + 1e-9
    print("\nACCEPTANCE 8: PASS - all slit images inside [pi/5, 4pi/5] for depths "
          "1..6 (exact ratio check + 1e-9 float check)")


def test_acceptance_09_pl_self_similarity():
    a3, a6 = qc.phi_atlas(3), qc.phi_atlas(6)
    s3 = sorted(set(round(v, 12) for v in a3.dilatations()))
    s6 = sorted(set(round(v, 12) for v in a6.dilatations()))
    assert s3 == s6
    assert abs(a3.max_dilatation() - a6.max_dilatation()) < 1e-12

    rng = random.Random(9)
    atlas = qc.phi_atlas(4)
    cells = atlas.cells
    checked = 0
    while checked < 1000:
        cell = cells[rng.randrange(len(cells))]
        i = rng.randrange(3)
        a, b = cell.source[i], cell.source[(i + 1) % 3]
        t = Fraction(rng.randrange(1, 32), 32)
        p = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
        owners = [c for c in cells if c.contains(p)]
        if len(owners) < 2:
            continue
        base = owners[0].map(p)
        assert all(c.map(p) == base for c in owners[1:])  # exact rationals
        checked += 1

    deep = qc.PhiModel(12)
    x = Fraction(1, 4)
    X, _ = deep.evaluate((x, Fraction(2, 3**12)))
    assert abs((X + 1) / 2 - Fraction(1, 3)) < Fraction(1, 1000)
    print(f"\nACCEPTANCE 9: PASS - phi dilatation multiset identical at depths 3/6 "
          f"(max {a6.max_dilatation():.9f}); {checked} shared-edge samples exact; "
          f"Cantor limit at 1/4 within 1e-3 at depth 12")


def test_acceptance_10_sobolev_cross_validation():
    import time

    t0 = time.time()
    v = sb.halfplane_norm(lambda t: 1 / (1 + t * t))
    assert abs(v - math.pi / 4) / (math.pi / 4) < 0.02

    T, h = 60.0, 0.05
    xs = np.arange(-T, T + h / 2, h)
    ys = np.arange(0, T + h / 2, h)
    X, Y = np.meshgrid(xs, ys)
    U = (-1 / ((X + 1j * Y) + 1j)).imag
    e = sb.dirichlet_norm(sb.GridFunction(h=h, origin=(-T, 0), values=U))
    assert abs(v - e) / e < 0.03

    const = sb.kernel_constant()
    assert abs(const - 1.0) < 1e-6

    rep = sb.verify_slitbounds(qc.strip_model(3), trials=20, seed=0)
    assert rep.trials == 20 and rep.violations == 0
    assert rep.max_squeeze <= 5.0 + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 10: PASS - halfplane pi/4 rel err {abs(v/(math.pi/4)-1):.4f}, "
          f"extension agreement {abs(v/e-1):.4f}, kernel constant err {abs(const-1):.2e}, "
          f"0 violations over 20 trials (max ratio^2 {rep.max_ratio:.3f} <= {rep.b_proof_sq}), "
          f"max squeeze {rep.max_squeeze:.3f} <= 5, in {elapsed:.0f}s")


def test_acceptance_11_ray_tracer_and_modulus():
    rng = random.Random(11)
    for _ in range(5):
        den = rng.randrange(3, 5000) | 1
        theta = normalize(rng.randrange(1, den), den)
        ray = g.trace_ray(0, theta, pot_lo=1e-3)
        for z, t in ray.points:
            ang = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1
            err = min(abs(ang - float(theta.frac)), 1 - abs(ang - float(theta.frac)))
            assert err < 1e-9

    worst = 0.0
    for c in (-1, 0.282 + 0.53j):
        for _ in range(10):
            den = rng.randrange(3, 3000) | 1
            theta = normalize(rng.randrange(1, den), den)
            z1 = g.ray_point(c, theta, 0.015)
            z2 = g.ray_point(c, double(theta), 0.03)
            worst = max(worst, abs(z1 * z1 + c - z2))
    assert worst < 1e-6

    h = 1 / 256
    cases = [(1.0, math.e, 1.0), (1.0, math.sqrt(math.e), 0.5), (0.5, 0.5 * math.e, 1.0)]
    errs = []
    for r, R, lg in cases:
        m = g.modulus_estimate(g.round_annulus_mask(r, R, h))
        target = lg / (2 * math.pi)
        errs.append(abs(m - target) / target)
        assert errs[-1] < 0.05, (r, R, m)
    print(f"\nACCEPTANCE 11: PASS - c=0 rays radial < 1e-9; functional equation max err "
          f"{worst:.2e} over 20 random angles x 2 parameters; modulus rel errs "
          f"{['%.4f' % e for e in errs]} at h=1/256")


def test_acceptance_12_renorm_and_tune():
    sat = rn.detect(build(1, 2, SATELLITE_THETA, 6), 20)
    assert sat.renormalizable and sat.period == 2 and sat.kind == "satellite"

    neg = rn.detect(build(1, 2, MISIUREWICZ_THETA, 6), 30)
    assert not neg.renormalizable

    assert rn.tune("0", "1", rn.BinaryExpansion("", "101")) == rn.BinaryExpansion("", "101")
    assert rn.tune("01", "10", rn.BinaryExpansion("", "1")).to_angle() == normalize(2, 3)
    assert rn.tune("01", "10", normalize(1, 7)).to_angle() == normalize(22, 63)

    lam_hat = build(1, 3, normalize(3, 14), 5)
    tuned = rn.tune("01", "10", rn.angle_to_expansion(normalize(3, 14))).to_angle()
    lam_tuned = build(1, 2, tuned, 10)
    t1, t2 = normalize(1, 14), normalize(9, 14)
    assert rn.tuned_pair_compatible(lam_hat, lam_tuned, "01", "10", t1, t2)
    assert not rn.tuned_pair_compatible(lam_hat, lam_tuned, "01", "10", t1, normalize(2, 7))
    print("\nACCEPTANCE 12: PASS - satellite fixture period 2 detected; Misiurewicz "
          "fixture negative to budget 30; tune digitwise-exact; tuned ray pair "
          "compatible, mismatched pair rejected")
