import math
import random

import numpy as np
import pytest

from yoccoz.angles import double, normalize
from yoccoz.errors import InvalidRegionError, NotConnectedError, YoccozError
from yoccoz import geometry as g

from fixtures import MISIUREWICZ_THETA, SATELLITE_THETA
from network_oracle import network_modulus


def test_fixed_points_examples():
    fp = g.fixed_points(0)
    assert fp["beta"] == 1 and fp["alpha"] == 0
    assert fp["multiplier_beta"] == 2 and fp["multiplier_alpha"] == 0
    assert fp["class_beta"] == "repelling" and fp["class_alpha"] == "attracting"

    fp = g.fixed_points(-1)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(fp["beta"] - phi) < 1e-14
    assert abs(fp["alpha"] - (1 - phi)) < 1e-14

    with pytest.raises(YoccozError):
        g.fixed_points(0.25)


def test_escaping_parameter_rejected():
    with pytest.raises(NotConnectedError):
        g.trace_ray(1.0 + 0j, normalize(1, 3))


def test_c0_rays_radial():
    for num, den in ((1, 3), (2, 7), (5, 11)):
        ray = g.trace_ray(0, normalize(num, den), pot_lo=1e-4)
        for z, t in ray.points:
            ang = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1
            assert abs(ang - num / den) < 1e-9
            assert abs(abs(z) - math.exp(t)) < 1e-9 * math.exp(t)


def test_potentials_strictly_decreasing_and_residuals():
    ray = g.trace_ray(-1, normalize(1, 7), pot_lo=1e-3)
    pots = [t for _, t in ray.points]
    assert all(a > b for a, b in zip(pots, pots[1:]))
    assert all(r < math.inf for r in ray.residuals)


def test_functional_equation():
    random.seed(3)
    for c in (-1, 0.282 + 0.53j):
        for _ in range(6):
            den = random.randrange(3, 2000) | 1
            theta = normalize(random.randrange(1, den), den)
            z1 = g.ray_point(c, theta, 0.02)
            z2 = g.ray_point(c, double(theta), 0.04)
            assert abs(z1 * z1 + c - z2) < 1e-6


def test_ray_zero_lands_at_beta():
    for c in (-1, 0.282 + 0.53j):
        z = g.ray_point(c, normalize(0, 1), 1e-4)
        assert abs(z - g.fixed_points(c)["beta"]) < 1e-3


def test_ray_conjugation_symmetry():
    """For real c the trace of theta is the conjugate of the trace of 1-theta."""
    c = -1.2
    for num, den in ((1, 5), (3, 11)):
        r1 = g.trace_ray(c, normalize(num, den), pot_lo=1e-3)
        r2 = g.trace_ray(c, normalize(den - num, den), pot_lo=1e-3)
        for (z1, t1), (z2, t2) in zip(r1.points, r2.points):
            assert abs(z1 - z2.conjugate()) < 1e-8


def test_piece_curve_winding_and_diameters():
    from yoccoz.lamination import build

    lam = build(1, 2, MISIUREWICZ_THETA, 4)
    c = -1
    from yoccoz.puzzle import piece_of

    piece = piece_of(lam, 0, MISIUREWICZ_THETA)
    curve = g.piece_curve(c, piece, potential=1.0, samples_per_arc=12)
    # interior sample: the critical value c = -1 lies in the sector piece?
    # use the landing area of theta_v instead: a point on the ray at low potential
    z0 = g.ray_point(c, MISIUREWICZ_THETA, 0.05)
    assert g.winding_number(curve, z0) == 1

    stats0 = g.piece_diameters(c, lam, 0)
    stats3 = g.piece_diameters(c, lam, 3)
    assert stats0["max"] > stats3["max"]
    assert stats3["count"] == len(
        __import__("yoccoz.puzzle", fromlist=["enumerate_pieces"]).enumerate_pieces(lam, 3)
    )


def test_piece_curves_nest():
    from yoccoz.lamination import build
    from yoccoz.puzzle import piece_of

    lam = build(1, 2, SATELLITE_THETA, 4)
    c = -1
    theta = normalize(7, 15)
    inner = g.piece_curve(c, piece_of(lam, 2, theta), potential=0.25, samples_per_arc=8)
    outer = g.piece_curve(c, piece_of(lam, 1, theta), potential=0.5, samples_per_arc=8)
    z0 = g.ray_point(c, theta, 0.05)
    assert g.winding_number(inner, z0) == 1
    assert g.winding_number(outer, z0) == 1
    for z in inner[:: max(1, len(inner) // 24)]:
        assert g.winding_number(outer, z) == 1


def test_modulus_round_annuli():
    target = 1 / (2 * math.pi)
    m = g.modulus_estimate(g.round_annulus_mask(1.0, math.e, 1 / 64))
    assert abs(m - target) / target < 0.05
    m2 = g.modulus_estimate(g.round_annulus_mask(1.0, math.e**2, 1 / 64))
    assert abs(m2 - 2 * target) / (2 * target) < 0.05


@pytest.mark.parametrize("h", [1 / 32, 1 / 48, 1 / 64], ids=["1/32", "1/48", "1/64"])
def test_modulus_matches_network_oracle(h):
    mask = g.round_annulus_mask(1.0, math.e, h)
    want = network_modulus(mask)
    assert abs(g.modulus_estimate(mask) - want) <= 1e-12 * want


def notched_disk_mask(r: float, R: float, h: float) -> g.GridMask:
    """The annulus r < |z| < R inside the disk |z| <= R + 2h, less a slot
    |y| < 4h, x > (r + R) / 2 cut in from the rim: the box corners and the
    slot are outside, so edges and degrees must count inside nodes only."""
    n = int(math.ceil(2 * (R + 3 * h) / h)) + 1
    xs = np.linspace(-(R + 3 * h), R + 3 * h, n)
    X, Y = np.meshgrid(xs, xs)
    rad = np.hypot(X, Y)
    inside = (rad <= R + 2 * h) & ~((np.abs(Y) < 4 * h) & (X > (r + R) / 2))
    return g.GridMask(origin=(xs[0], xs[0]), h=h, inside=inside,
                      inner=rad <= r, outer=inside & (rad >= R))


@pytest.mark.parametrize("h", [1 / 32, 1 / 48], ids=["1/32", "1/48"])
def test_modulus_matches_network_oracle_on_notched_disk(h):
    mask = notched_disk_mask(1.0, math.e, h)
    assert not mask.inside.all()
    want = network_modulus(mask)
    assert abs(g.modulus_estimate(mask) - want) <= 1e-12 * want


def test_modulus_is_one_cg_solve(monkeypatch):
    import scipy.sparse.linalg as spla

    def refuse(*args, **kwargs):
        raise AssertionError("spsolve called")

    calls = []
    cg = spla.cg

    def counted(*args, **kwargs):
        calls.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(spla, "spsolve", refuse)
    monkeypatch.setattr(spla, "cg", counted)
    g.modulus_estimate(g.round_annulus_mask(1.0, math.e, 1 / 16))
    assert len(calls) == 1


def cg_calls(monkeypatch):
    """Record each cg call's iteration count and preconditioner."""
    import scipy.sparse.linalg as spla

    calls = []
    cg = spla.cg

    def counted(A, b, **kwargs):
        calls.append({"iterations": 0, "M": kwargs["M"], "n": A.shape[0]})

        def count(xk):
            calls[-1]["iterations"] += 1

        return cg(A, b, callback=count, **kwargs)

    monkeypatch.setattr(spla, "cg", counted)
    return calls


@pytest.mark.parametrize("make", [g.round_annulus_mask, notched_disk_mask],
                         ids=["round", "notched"])
def test_modulus_cg_iterations_do_not_grow_with_the_mesh(monkeypatch, make):
    """The V-cycle keeps CG at a handful of iterations while the unknowns
    grow 16-fold."""
    calls = cg_calls(monkeypatch)
    for h in (1 / 32, 1 / 64, 1 / 128):
        g.modulus_estimate(make(1.0, math.e, h))
    assert calls[-1]["n"] > 12 * calls[0]["n"]
    assert len(calls) == 3 and all(c["iterations"] <= 12 for c in calls), calls


@pytest.mark.parametrize("make", [g.round_annulus_mask, notched_disk_mask],
                         ids=["round", "notched"])
def test_modulus_v_cycle_is_symmetric(monkeypatch, make):
    """CG needs a symmetric preconditioner: x . M(y) = y . M(x)."""
    calls = cg_calls(monkeypatch)
    g.modulus_estimate(make(1.0, math.e, 1 / 48))
    (call,) = calls
    rng = np.random.default_rng(7)
    for _ in range(4):
        x, y = rng.normal(size=(2, call["n"]))
        a, b = x @ call["M"].matvec(y), y @ call["M"].matvec(x)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_modulus_grotzsch_superadditive():
    """Concentric union's modulus is at least the sum of the pieces'."""
    h = 1 / 96
    whole = g.modulus_estimate(g.round_annulus_mask(1.0, 4.0, h))
    part1 = g.modulus_estimate(g.round_annulus_mask(1.0, 2.0, h))
    part2 = g.modulus_estimate(g.round_annulus_mask(2.0, 4.0, h))
    assert whole >= part1 + part2 - 0.01 * whole


def test_modulus_invalid_regions():
    mask = g.round_annulus_mask(1.0, math.e, 1 / 32)
    mask.inner |= mask.outer  # overlapping electrodes
    with pytest.raises(InvalidRegionError):
        g.modulus_estimate(mask)

    touching = g.round_annulus_mask(1.0, 1.02, 1 / 16)  # electrodes touch
    with pytest.raises(InvalidRegionError):
        g.modulus_estimate(touching)

    with pytest.raises(InvalidRegionError):
        g.round_annulus_mask(2.0, 1.0, 1 / 16)

    with pytest.raises(InvalidRegionError):
        g.round_annulus_mask(1.0, math.inf, 1 / 16)

    for h in (0, 0.0, -1 / 16, math.nan, math.inf):
        with pytest.raises(InvalidRegionError, match="grid step"):
            g.round_annulus_mask(1.0, 2.0, h)

    good = g.round_annulus_mask(1.0, math.e, 1 / 16)
    for bad in (
        dict(inner=good.inner[:-1]),  # shapes differ
        dict(inside=good.inside.astype(int)),  # not boolean
        dict(outer=good.outer.astype(float)),
        dict(inside=good.inside.ravel(), inner=good.inner.ravel(), outer=good.outer.ravel()),
    ):
        mask = g.GridMask(**{**vars(good), **bad})
        with pytest.raises(InvalidRegionError, match="2-D boolean arrays of one shape"):
            g.modulus_estimate(mask)
