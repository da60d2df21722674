"""Ray fans against the one-ray-at-a-time tracer they replace, and figures
against the one-piece-at-a-time drawing they replace: every point, residual,
error and rendered byte must be the same."""

import math
import random

import pytest

from yoccoz import geometry as g
from yoccoz import qcmodel as qc
from yoccoz.angles import normalize
from yoccoz.config import Config
from yoccoz.errors import NotConnectedError, TraceFailedError, YoccozError
from yoccoz.lamination import build
from yoccoz.render import render_puzzle

import ray_oracle
import render_oracle
from fixtures import MISIUREWICZ_THETA, RABBIT_WAKE_THETA, SATELLITE_THETA

CS = (-1 + 0j, 0j, -0.122561 + 0.744862j, 0.282 + 0.53j)
POT = math.log(100.0) / 2  # render's level-1 potential at the default start radius
WINDOWS = ((None, 1e-4), (POT, 1e-3), (POT * 1.0000001, POT), (None, 0.05))


def seeded_angles(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.randrange(2, 1000)
        out.append(normalize(rng.randrange(den), den))
    return out


def oracle_fan(c, thetas, pot_hi=None, pot_lo=1e-4, cfg=Config()):
    floors = [pot_lo] * len(thetas) if isinstance(pot_lo, (int, float)) else pot_lo
    return [ray_oracle.trace_ray(c, theta, pot_hi, lo, cfg=cfg) for theta, lo in zip(thetas, floors)]


def assert_same_rays(fan, oracle):
    assert len(fan) == len(oracle)
    for a, b in zip(fan, oracle):
        assert a.theta == b.theta
        assert a.points == b.points
        assert a.residuals == b.residuals


@pytest.mark.parametrize("seed,c", enumerate(CS))
def test_fans_equal_the_oracle_in_every_window(seed, c):
    thetas = seeded_angles(seed, 40)
    for pot_hi, pot_lo in WINDOWS:
        fan = g.trace_rays(c, thetas, pot_hi=pot_hi, pot_lo=pot_lo)
        assert_same_rays(fan, oracle_fan(c, thetas, pot_hi, pot_lo))


def test_per_ray_floors_equal_the_oracle():
    thetas = seeded_angles(7, 40)
    floors = tuple(0.002 * (1 + k) for k in range(len(thetas)))
    fan = g.trace_rays(-1, thetas, pot_lo=floors)
    assert_same_rays(fan, oracle_fan(-1, thetas, pot_lo=floors))


def test_single_ray_is_a_fan_of_one():
    theta = normalize(2, 7)
    for pot_hi, pot_lo in WINDOWS:
        assert_same_rays([g.trace_ray(-1, theta, pot_hi, pot_lo)],
                         [ray_oracle.trace_ray(-1, theta, pot_hi, pot_lo)])
    assert g.ray_point(-1, theta, 0.02) == ray_oracle.trace_ray(-1, theta, pot_lo=0.02).points[-1][0]


def test_subdivision_path_equals_the_oracle(monkeypatch):
    """At newton_cap = 4 most continuation steps fall back to subdivision."""
    cfg = Config(newton_cap=4)
    thetas = seeded_angles(4, 12)
    c = 0.282 + 0.53j
    calls = []
    subdivide = g._subdivide
    monkeypatch.setattr(g, "_subdivide", lambda *args: calls.append(1) or subdivide(*args))
    fan = g.trace_rays(c, thetas, pot_lo=1e-3, cfg=cfg)
    assert len(calls) > 100 * len(thetas)
    assert_same_rays(fan, oracle_fan(c, thetas, pot_lo=1e-3, cfg=cfg))


def test_newton_cap_too_small_fails_in_both():
    cfg = Config(newton_cap=3)
    thetas = seeded_angles(3, 4)
    with pytest.raises(TraceFailedError):
        g.trace_rays(-1, thetas, pot_lo=1e-3, cfg=cfg)
    with pytest.raises(TraceFailedError):
        oracle_fan(-1, thetas, pot_lo=1e-3, cfg=cfg)


def test_disconnected_fan_fails_before_any_newton_step(monkeypatch):
    def newton(*args):
        raise AssertionError("Newton step taken for a disconnected c")

    monkeypatch.setattr(g, "_newton_target", newton)
    with pytest.raises(NotConnectedError):
        g.trace_rays(1 + 0j, seeded_angles(1, 40))


def test_bad_window_names_both_potentials():
    with pytest.raises(YoccozError, match=r"pot_hi = 0\.5 and pot_lo = 0\.7"):
        g.trace_rays(-1, [normalize(1, 3)], pot_hi=0.5, pot_lo=0.7)
    with pytest.raises(YoccozError, match=r"pot_lo = 0\b"):
        g.trace_rays(-1, [normalize(1, 3)], pot_lo=[0.0])
    with pytest.raises(YoccozError, match=r"pot_hi = 4\.60517 and pot_lo = 10"):
        g.trace_ray(-1, normalize(1, 3), pot_lo=10.0)


FIXTURES = pytest.mark.parametrize("theta_v,q", [(SATELLITE_THETA, 2), (RABBIT_WAKE_THETA, 3)],
                                   ids=["half", "rabbit"])


@FIXTURES
@pytest.mark.parametrize("c", [-1 + 0j, 0.282 + 0.53j])
def test_render_is_byte_identical_to_the_oracle(monkeypatch, theta_v, q, c):
    lam = build(1, q, theta_v, 6)
    for annulus in (None, 0):
        new = render_puzzle(c, lam, 1, highlight_annulus=annulus)
        fans = []
        with monkeypatch.context() as m:
            m.setattr(g, "trace_rays", lambda *a, **k: fans.append(1) or oracle_fan(*a, **k))
            old = render_puzzle(c, lam, 1, highlight_annulus=annulus)
        assert new == old
        assert len(fans) == 3  # the ring, the arc samples, the bounding rays: all via the oracle


@FIXTURES
@pytest.mark.parametrize("c", [-1 + 0j, 0.282 + 0.53j])
def test_render_is_byte_identical_to_the_per_piece_oracle(theta_v, q, c):
    lam = build(1, q, theta_v, 6)
    for level in (0, 1, 2):
        for annulus in (None, 0):
            assert (render_puzzle(c, lam, level, highlight_annulus=annulus)
                    == render_oracle.render_puzzle(c, lam, level, highlight_annulus=annulus))


@FIXTURES
def test_piece_diameters_equal_the_per_piece_oracle(theta_v, q):
    lam = build(1, q, theta_v, 6)
    for level in (0, 2):
        assert g.piece_diameters(-1, lam, level) == render_oracle.piece_diameters(-1, lam, level)


def _render_work(monkeypatch, render, lam, level):
    """The (theta, pot_hi, pot_lo) windows traced and the connectedness checks
    run while drawing one figure."""
    windows, checks = [], []
    continue_ray, check_connected = g._continue_ray, g.check_connected
    with monkeypatch.context() as m:
        m.setattr(g, "_continue_ray", lambda c, theta, hi, lo, cfg:
                  windows.append((theta, hi, lo)) or continue_ray(c, theta, hi, lo, cfg))
        m.setattr(g, "check_connected", lambda c: checks.append(c) or check_connected(c))
        render(-1, lam, level, highlight_annulus=0)
    return windows, len(checks)


@FIXTURES
def test_render_traces_each_window_once(monkeypatch, theta_v, q):
    """The equipotential ring, the arc samples and the bounding rays (alpha
    cycle and annulus outlines included) are three fans, whatever the level."""
    lam = build(1, q, theta_v, 6)
    for level in (0, 1, 2):
        windows, checks = _render_work(monkeypatch, render_puzzle, lam, level)
        assert len(windows) == len(set(windows)) and checks == 3
    windows, checks = _render_work(monkeypatch, render_oracle.render_puzzle, lam, 1)
    assert len(windows) > len(set(windows)) and checks > 3  # what the counts guard against


def test_slice_embedding_rows_equal_the_oracle(monkeypatch):
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    slc = lam.slice_data()
    new = qc.slice_embedding(slc, lam, c=-1, depth=2, mesh=(12, 4))
    monkeypatch.setattr(g, "trace_rays", oracle_fan)
    assert qc.slice_embedding(slc, lam, c=-1, depth=2, mesh=(12, 4)) == new
