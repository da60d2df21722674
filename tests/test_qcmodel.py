import math
import random
from fractions import Fraction

import pytest

from yoccoz.angles import normalize
from yoccoz.errors import ModelViolationError, OutsideDomainError
from yoccoz.lamination import build
from yoccoz import plgeom
from yoccoz.plgeom import AffineMap
from yoccoz import qcmodel as qc

import strip_oracle
from fixtures import MISIUREWICZ_THETA


# ------------------------------------------------------------------ squares


def test_notched_depth0():
    ns = qc.build_notched(0)
    (sq,) = ns.all_squares()
    assert (sq.x0, sq.y0, sq.side) == (Fraction(1, 3), Fraction(-1, 6), Fraction(1, 3))


def test_notched_real_slice_is_middle_thirds():
    for d in range(0, 5):
        iv = qc.build_notched(d).real_slice_intervals()
        assert len(iv) == 1 << (d + 1)
        assert all(b - a == Fraction(1, 3 ** (d + 1)) for a, b in iv)
        assert iv[0][0] == 0 and iv[-1][1] == 1


def test_slitted_depth1():
    ss = qc.build_slitted(1)
    slits = {(s.alpha, s.level): s.half_height for s in ss}
    assert slits[(Fraction(0), 0)] == Fraction(3, 5)
    assert slits[(Fraction(1, 2), 1)] == Fraction(3, 10)
    assert slits[(Fraction(-1, 2), 1)] == Fraction(3, 10)
    assert len(ss) == 3


def test_slit_count_and_angle_fact():
    """|y/(1 +- x)| <= 3/5 at the slit endpoints, exactly."""
    ss = qc.build_slitted(7)
    assert len(ss) == (1 << 8) - 1  # 1 + 2 + 4 + ... + 128
    three_fifths = Fraction(3, 5)
    assert all(s.half_height <= three_fifths * (1 + s.alpha)
               and s.half_height <= three_fifths * (1 - s.alpha) for s in ss)


def test_slit_levels_are_minimal():
    """Each slit's p / 2^level is reduced, so level is the least k with
    alpha = p / 2^k; the slits run level by level, left to right."""
    ss = qc.build_slitted(9)
    assert all(s.p % 2 == 1 or (s.p, s.level) == (0, 0) for s in ss)
    assert all(s.alpha.denominator == 1 << s.level for s in ss)
    assert [(s.level, s.alpha) for s in ss] == sorted((s.level, s.alpha) for s in ss)
    assert len({s.alpha for s in ss}) == len(ss)


def test_slit_bound_is_checked_before_any_slit_is_built(monkeypatch):
    def no_slit(*args):
        raise AssertionError("a slit was built past the bound")

    monkeypatch.setattr(qc, "Slit", no_slit)
    with pytest.raises(ValueError, match=r"depth 19 has 1048575 slits, over the bound of "
                                         r"524287 slits \(depth 18\)"):
        qc.build_slitted(19)
    with pytest.raises(ValueError, match=r"has 2\^1000000001 - 1 slits"):
        qc.build_slitted(10**9)
    monkeypatch.undo()
    monkeypatch.setattr(qc, "MAX_SLITS", 7)
    assert len(qc.build_slitted(2)) == 7
    with pytest.raises(ValueError, match="15 slits, over the bound of 7 slits"):
        qc.build_slitted(3)


# ---------------------------------------------------------------- block map


def test_block_corners_and_opening():
    blk = qc.block_map(3, 1, 1, 2, 20, 5, 10, 1)
    ev = blk.evaluate
    assert ev((0, 0)) == (0, 0)
    assert ev((3, 0)) == (20, 0)
    assert ev((3, 1)) == (20, 5)
    assert ev((0, 1)) == (0, 5)
    # A's midpoint opens onto the slit tip
    assert ev((Fraction(3, 2), 0)) == (10, 1)


def test_block_injective_sampling():
    blk = qc.block_map(3, 1, 1, 2, 20, 5, 10, 1)
    random.seed(0)
    inputs = set()
    while len(inputs) < 10_000:
        inputs.add((Fraction(random.randrange(1, 3000), 1000), Fraction(random.randrange(1, 1000), 1000)))
    seen = []
    for p in inputs:
        cell = blk.locate(p)
        if cell is not None:
            seen.append(cell.map(p))
    pts = sorted(seen)
    assert all(a != b for a, b in zip(pts, pts[1:]))


def test_block_dilatation_similarity_invariant():
    random.seed(1)
    base = sorted(qc.block_map(3, 1, 1, 2, 20, 5, 10, 1).dilatations())
    for _ in range(5):
        s = Fraction(random.randrange(1, 40), random.randrange(1, 40))
        blk = qc.block_map(3 * s, s, s, 2 * s, 20 * s, 5 * s, 10 * s, s)
        vals = sorted(blk.dilatations())
        assert max(abs(a - b) for a, b in zip(base, vals)) < 1e-12


def test_dilatation_is_scale_free():
    """A power-of-two scaling of the linear part leaves each block cell's
    dilatation float unchanged, also where the entries leave the float range
    (the linear parts of phi's deep levels do)."""
    for cell in qc.block_map(3, 1, 1, 2, 20, 5, 10, 1).cells:
        m = cell.map
        for k in (-3000, -40, 40, 3000):
            s = Fraction(2) ** k
            scaled = AffineMap(m.a * s, m.b * s, m.c * s, m.d * s, m.tx, m.ty)
            assert scaled.dilatation() == m.dilatation()


def test_block_invalid_geometry():
    with pytest.raises(ValueError):
        qc.block_map(3, 1, 0, 2, 20, 5, 10, 1)  # marked interval hits the corner
    with pytest.raises(ValueError):
        qc.block_map(3, 1, 1, 2, 20, 5, 10, 4)  # slit reaches past the apex height


# --------------------------------------------------------------- phi atlas


def test_phi_dilatation_multiset_depth_independent():
    d3 = qc.phi_atlas(3)
    d6 = qc.phi_atlas(6)
    s3 = sorted(set(round(v, 12) for v in d3.dilatations()))
    s6 = sorted(set(round(v, 12) for v in d6.dilatations()))
    assert s3 == s6
    assert abs(d3.max_dilatation() - d6.max_dilatation()) < 1e-12
    # every block contributes the same 9 values
    assert len(d6) == 9 * 2 * (2**7 - 1)


def test_phi_continuity_across_shared_edges():
    atlas = qc.phi_atlas(4)
    random.seed(2)
    worst = Fraction(0)
    checked = 0
    cells = atlas.cells
    while checked < 1000:
        cell = cells[random.randrange(len(cells))]
        a, b = cell.source[random.randrange(3)], cell.source[(random.randrange(2) + 1) % 3]
        t = Fraction(random.randrange(1, 16), 16)
        p = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
        owners = [c for c in cells if c.contains(p)]
        if len(owners) < 2:
            continue
        vals = [c.map(p) for c in owners]
        for v in vals[1:]:
            worst = max(worst, abs(v[0] - vals[0][0]), abs(v[1] - vals[0][1]))
        checked += 1
    assert worst == 0  # exact rational agreement on shared edges


def test_phi_boundary_cantor_limit():
    atlas = qc.PhiModel(12)
    x = Fraction(1, 4)  # ternary .020202...
    for n in (6, 10, 11):
        y = Fraction(2, 3 ** (n + 1))
        X, _ = atlas.evaluate((x, y))
        assert abs((X + 1) / 2 - Fraction(1, 3)) < Fraction(1, 1000)


def test_phi_model_dilatations_match_atlas():
    for d in range(1, 8):
        atlas, model = qc.phi_atlas(d), qc.PhiModel(d)
        assert model.cell_count == len(atlas) == 18 * (2 ** (d + 1) - 1)
        assert set(model.dilatations()) == set(atlas.dilatations())  # exact floats
        assert model.max_dilatation() == atlas.max_dilatation()


def _block0_dilatations(depth):
    """Oracle: block 0 of every level and half conjugated cell by cell, as
    PhiModel.dilatations did before it read the level scale."""
    return [plgeom.conjugate_cell(c, *qc._phi_block(n, 0, lower)).map.dilatation()
            for n in range(depth + 1) for lower in (False, True) for c in qc.BLOCK_CELLS]


def test_phi_model_dilatations_equal_the_block_conjugation():
    """Exact floats, in order, at every depth up to 64.  They vary with the
    level in the last bits, so no single level's 9 values would do."""
    oracle = _block0_dilatations(64)
    for d in range(1, 65):
        assert qc.PhiModel(d).dilatations() == oracle[:18 * (d + 1)]


def test_phi_model_dilatations_build_no_cell(monkeypatch):
    calls = []
    for module in (plgeom, qc):
        for name in ("make_cell", "conjugate_cell"):
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=f, **k: calls.append(1) or f(*a, **k))
    assert len(qc.PhiModel(12).dilatations()) == 18 * 13
    assert calls == []
    _block0_dilatations(1)  # the counters see the conjugation
    assert len(calls) == 2 * 18 * 2


def _outcome(evaluate, p):
    try:
        return evaluate(p)
    except OutsideDomainError:
        return "outside"


def test_phi_model_evaluate_matches_atlas():
    """Every cell vertex, points on every cell edge, notch interiors, points
    beyond the deepest row and outside S, at depths 1..5: the model gives the
    atlas's exact value or raises where the atlas raises."""
    rng = random.Random(4)
    total = outside = 0
    for d in range(1, 6):
        atlas, model = qc.phi_atlas(d), qc.PhiModel(d)
        pts = set()
        for cell in atlas.cells:
            for k in range(3):
                a, b = cell.source[k], cell.source[(k + 1) % 3]
                pts.add(a)
                t = Fraction(rng.randrange(1, 16), 16)
                pts.add((a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t))
        for sq in qc.build_notched(d).all_squares():  # inside a notch, and on its rim
            pts.add((sq.x0 + sq.side / 2, sq.y0 + sq.side * Fraction(rng.randrange(1, 8), 8)))
            pts.add((sq.x0 + sq.side * Fraction(rng.randrange(0, 9), 8), sq.y1))
        for _ in range(80):
            pts.add((Fraction(rng.randrange(-9, 3 ** (d + 2) + 9), 3 ** (d + 1)),
                     Fraction(rng.randrange(-3 ** (d + 2) - 9, 3 ** (d + 2) + 9), 2 * 3 ** (d + 2))))
        for p in sorted(pts):
            expect = _outcome(atlas.evaluate, p)
            assert _outcome(model.evaluate, p) == expect, (d, p)
            outside += expect == "outside"
        total += len(pts)
    assert total >= 2000 and outside >= 200


def test_phi_outside_domain():
    atlas = qc.phi_atlas(3)
    with pytest.raises(OutsideDomainError):
        atlas.evaluate((Fraction(1, 2), Fraction(0)))  # inside the central notch


def test_phi_against_psi_boundary():
    psi = qc.PsiExtension()
    # psi equals phi's boundary values on all four sides of S
    for k in range(1, 9):
        y = 0.5 * 3.0**-k
        assert abs(psi(0, y)[0] + 1) < 1e-12
        assert abs(psi(0, y)[1] - qc.v32(y)) < 1e-12
        assert abs(psi(1.0, -y)[0] - 1) < 1e-12
        assert abs(psi(1.0, -y)[1] - qc.v32(-y)) < 1e-12
    for x in (0.0, 0.25, 0.7, 1.0):
        assert abs(psi(x, 0.5)[0] - (2 * x - 1)) < 1e-12
        assert abs(psi(x, 0.5)[1] - 1) < 1e-12
        assert abs(psi(x, -0.5)[1] + 1) < 1e-12


def test_psi_homeomorphism_sampling():
    psi = qc.PsiExtension()
    n = 48
    grid = [[psi(i / n, j / n - 0.5) for i in range(n + 1)] for j in range(n + 1)]
    for j in range(n):
        for i in range(n):
            (x0, y0), (x1, y1) = grid[j][i], grid[j][i + 1]
            (x2, y2), (x3, y3) = grid[j + 1][i + 1], grid[j + 1][i]
            area = 0.5 * ((x1 - x0) * (y3 - y0) - (x3 - x0) * (y1 - y0)) + 0.5 * (
                (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
            )
            assert area > 0


def test_psi_dilatation_stable():
    r1 = qc.psi_dilatation_report(1)
    r2 = qc.psi_dilatation_report(3)
    assert r1["max_dilatation"] < math.inf
    assert abs(r2["max_dilatation"] - r1["max_dilatation"]) / r1["max_dilatation"] < 0.05


def _old_ba_pair(y, t):
    """The side-map average pair as it was before the averages were folded."""
    if t <= 1e-14:
        return qc._v32_reflected(y), 0.0
    u = v = 0.0
    for s, w in qc._GAUSS:
        fp = qc._v32_reflected(y + s * t)
        fm = qc._v32_reflected(y - s * t)
        u += w * (fp + fm)
        v += w * (fp - fm)
    return u / 2, v / 2


def _old_scalar_ba_pair(q, x, spread):
    """The scalar average pair as it was before the averages were folded."""
    if spread <= 1e-15:
        return q(min(max(x, 0.0), 1.0)), 0.0

    def qr(s):
        if s < 0:
            return -qr(-s)
        if s > 1:
            return 2.0 - qr(2.0 - s)
        return q(s)

    u = v = 0.0
    for s, w in qc._GAUSS:
        fp, fm = qr(x + s * spread), qr(x - s * spread)
        u += w * (fp + fm)
        v += w * (fp - fm)
    return u / 2, v / 2


def test_folded_ba_average_is_bitwise_unchanged(monkeypatch):
    """psi and the lemma square extension give the same floats through the
    one folded average as through the two averages it replaced."""
    rng = random.Random(11)
    # 200 points: the four sides (the small-t fallback), the band edges, the interior
    pts = [(rng.choice([0.0, 1.0, 0.25, 0.75, 1e-16, rng.random()]), rng.random())
           for _ in range(200)]
    q = lambda s: s * s * (3 - 2 * s) * 0.5 + 0.5 * s

    def outputs():
        psi, square = qc.PsiExtension(), qc._lemma_square_extension(q)
        return [(psi(x, y - 0.5), square(x, y), square(y, x)) for x, y in pts]

    new = outputs()
    monkeypatch.setattr(qc, "_v32_pair", _old_ba_pair)
    monkeypatch.setattr(qc, "_unit_pair", lambda q: lambda x, s: _old_scalar_ba_pair(q, x, s))
    assert outputs() == new


# ------------------------------------------------------- diamond and strip


def test_square_to_diamond_fixes_hull():
    sd = qc.square_to_diamond()
    for s in qc.build_slitted(4):
        for frac in (Fraction(0), Fraction(1, 2), Fraction(1)):
            p = (s.alpha, s.half_height * frac)
            assert sd.evaluate(p) == p
            p = (s.alpha, -s.half_height * frac)
            assert sd.evaluate(p) == p


def test_square_to_diamond_is_pl_homeomorphism():
    sd = qc.square_to_diamond()
    assert sd.evaluate((1, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert sd.evaluate((-1, -1)) == (-Fraction(1, 2), -Fraction(1, 2))
    assert all(c.map.det > 0 for c in sd.cells)


def test_rho_formulas():
    dts = qc.DiamondToStrip()
    assert dts(0, 0.25) == (0.0, 0.25)
    u, v = dts(-0.5, 0)
    assert abs(u + math.log(2)) < 1e-15 and v == 0
    with pytest.raises(OutsideDomainError):
        dts(0.8, 0.5)


def test_shear_dilatation_bounds():
    assert qc.shear_dilatation(0) == 1
    assert abs(qc.shear_dilatation(1) - (3 + math.sqrt(5)) / 2) < 1e-12
    assert all(qc.shear_dilatation(s / 100) <= 3 for s in range(101))


def test_strip_model_band_and_verticality():
    for d in (3, 6):
        model = qc.strip_model(d)
        lo = min(s.im_lo for s in model.slits)
        hi = max(s.im_hi for s in model.slits)
        assert lo >= math.pi / 5 - 1e-9
        assert hi <= 4 * math.pi / 5 + 1e-9
    # slit images are vertical by construction: each is stored as one u value;
    # check the exact ratio bound that keeps them in the band
    assert all(s.ratio <= Fraction(3, 5) for s in qc.strip_model(5).slits)


def test_strip_model_raises_where_the_band_fails(monkeypatch):
    """A slit at the edge x = 1 (2^k - |p| = 0) has no band ratio: strip_model
    raises, so a model it returns always keeps the band (`qc strip`'s band_ok)."""
    monkeypatch.setattr(qc, "build_slitted", lambda depth: [qc.Slit(0, 0), qc.Slit(1, 0)])
    with pytest.raises(ModelViolationError, match="escapes the pi/5..4pi/5 band"):
        qc.strip_model(0)


def test_strip_model_symmetry_and_closure():
    model = qc.strip_model(5)
    mid = math.pi / 2
    for s in model.slits:
        assert abs((s.im_hi - mid) - (mid - s.im_lo)) < 1e-12
    assert model.closure_ratio < math.inf


def test_strip_model_equals_the_pairwise_oracle():
    """Each slit's two dyadic neighbours give the same gaps, and so the same
    closure float, as a pass over every older slit."""
    for d in range(11):
        assert qc.strip_model(d) == strip_oracle.strip_model(d)


# ------------------------------------------------------------------ slices


def test_slice_embedding_report():
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    slc = lam.slice_data()
    rep = qc.slice_embedding(slc, c=-1, depth=3)
    assert rep.q1_monotone
    assert rep.q1_at_zero == pytest.approx(float(slc.A.frac), abs=1e-12)
    assert max(rep.corner_errors) < 1e-9
    assert rep.max_dilatation < math.inf
    rel = abs(rep.refined_max_dilatation - rep.max_dilatation) / rep.max_dilatation
    assert rel < 0.10
    assert rep.min_offboundary_potential > 0
