"""Ray fans against the one-ray-at-a-time tracer they replace, and figures
against the one-piece-at-a-time drawing they replace: every point, residual,
error and rendered byte must be the same.  Fans of WIDE rays take the
lockstep path, narrower ones go ray by ray; both must match the oracle."""

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
WIDE = g.LOCKSTEP_MIN_RAYS


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


def spy_lockstep(monkeypatch):
    """One entry per fan traced in lockstep: False when it fell back to
    tracing ray by ray."""
    outcomes = []
    continue_fan = g._continue_fan

    def spy(*args):
        fan = continue_fan(*args)
        outcomes.append(fan is not None)
        return fan

    monkeypatch.setattr(g, "_continue_fan", spy)
    return outcomes


def assert_same_rays(fan, oracle):
    assert len(fan) == len(oracle)
    for a, b in zip(fan, oracle):
        assert a.theta == b.theta
        assert a.points == b.points
        assert a.residuals == b.residuals


@pytest.mark.parametrize("seed,c", enumerate(CS))
def test_fans_equal_the_oracle_in_every_window(monkeypatch, seed, c):
    lockstep = spy_lockstep(monkeypatch)
    for count in (40, WIDE):
        thetas = seeded_angles(seed, count)
        for pot_hi, pot_lo in WINDOWS:
            fan = g.trace_rays(c, thetas, pot_hi=pot_hi, pot_lo=pot_lo)
            assert_same_rays(fan, oracle_fan(c, thetas, pot_hi, pot_lo))
    assert lockstep == [True] * len(WINDOWS)  # the wide fans, none retraced ray by ray


def test_per_ray_floors_equal_the_oracle(monkeypatch):
    """Distinct floors go ray by ray at any width; one floor given per ray is
    one floor."""
    lockstep = spy_lockstep(monkeypatch)
    thetas = seeded_angles(7, WIDE)
    floors = tuple(0.002 * (1 + k) for k in range(len(thetas)))
    fan = g.trace_rays(-1, thetas, pot_lo=floors)
    assert_same_rays(fan, oracle_fan(-1, thetas, pot_lo=floors))
    assert lockstep == []
    points = g.ray_points(-1, thetas, [0.02] * len(thetas))
    assert points == [ray.points[-1][0] for ray in oracle_fan(-1, thetas, pot_lo=0.02)]
    assert lockstep == [True]


def test_single_ray_is_a_fan_of_one():
    theta = normalize(2, 7)
    for pot_hi, pot_lo in WINDOWS:
        assert_same_rays([g.trace_ray(-1, theta, pot_hi, pot_lo)],
                         [ray_oracle.trace_ray(-1, theta, pot_hi, pot_lo)])
    assert g.ray_point(-1, theta, 0.02) == ray_oracle.trace_ray(-1, theta, pot_lo=0.02).points[-1][0]


def test_subdivision_path_equals_the_oracle(monkeypatch):
    """At newton_cap = 4 most continuation steps fall back to subdivision; in
    a wide fan the failed rays subdivide ray by ray and rejoin the fan."""
    cfg = Config(newton_cap=4)
    c = 0.282 + 0.53j
    lockstep = spy_lockstep(monkeypatch)
    calls = []
    subdivide = g._subdivide
    monkeypatch.setattr(g, "_subdivide", lambda *args: calls.append(1) or subdivide(*args))
    for count, pot_lo in ((12, 1e-3), (WIDE, 0.05)):
        thetas = seeded_angles(4, count)
        calls.clear()
        fan = g.trace_rays(c, thetas, pot_lo=pot_lo, cfg=cfg)
        assert len(calls) > 100 * len(thetas)
        assert_same_rays(fan, oracle_fan(c, thetas, pot_lo=pot_lo, cfg=cfg))
    assert lockstep == [True]  # the wide fan, not retraced ray by ray


def test_newton_cap_too_small_fails_in_both(monkeypatch):
    """A wide fan that fails is retraced ray by ray and raises the error of
    the first failing ray, as the oracle does."""
    cfg = Config(newton_cap=3)
    lockstep = spy_lockstep(monkeypatch)
    for count in (4, WIDE):
        thetas = seeded_angles(3, count)
        with pytest.raises(TraceFailedError) as fan_error:
            g.trace_rays(-1, thetas, pot_lo=1e-3, cfg=cfg)
        with pytest.raises(TraceFailedError) as oracle_error:
            oracle_fan(-1, thetas, pot_lo=1e-3, cfg=cfg)
        assert str(fan_error.value) == str(oracle_error.value)
    assert lockstep == [False]


def test_disconnected_fan_fails_before_any_newton_step(monkeypatch):
    def newton(*args):
        raise AssertionError("Newton step taken for a disconnected c")

    monkeypatch.setattr(g, "_newton_target", newton)
    monkeypatch.setattr(g, "_newton_fan", newton)
    for count in (40, WIDE):
        with pytest.raises(NotConnectedError):
            g.trace_rays(1 + 0j, seeded_angles(1, count))


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
    continue_ray, continue_fan = g._continue_ray, g._continue_fan
    check_connected = g.check_connected
    with monkeypatch.context() as m:
        m.setattr(g, "_continue_ray", lambda c, theta, hi, lo, cfg:
                  windows.append((theta, hi, lo)) or continue_ray(c, theta, hi, lo, cfg))
        m.setattr(g, "_continue_fan", lambda c, thetas, hi, lo, cfg:
                  windows.extend((theta, hi, lo) for theta in thetas)
                  or continue_fan(c, thetas, hi, lo, cfg))
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
        assert sum(hi == lo * 1.0000001 for _, hi, lo in windows) == 256  # the ring
    windows, checks = _render_work(monkeypatch, render_oracle.render_puzzle, lam, 1)
    assert len(windows) > len(set(windows)) and checks > 3  # what the counts guard against


def test_slice_embedding_rows_equal_the_oracle(monkeypatch):
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    slc = lam.slice_data()
    new = qc.slice_embedding(slc, c=-1, depth=2, mesh=(12, 4))
    monkeypatch.setattr(g, "trace_rays", oracle_fan)
    assert qc.slice_embedding(slc, c=-1, depth=2, mesh=(12, 4)) == new
