"""The ray tracer as it was before rays were traced in fans: one
connectedness check per ray, and the Newton step with numpy's isfinite and a
`Fraction` per target angle.  Kept as the oracle that fans must match bit for
bit in every point and residual.  It holds its own copies of the fixed
tracing constants (Newton tolerance 1e-13, 6 subdivisions, escape radius 1e3
within 2000 iterations), so a change to those in `geometry` shows up here."""

from __future__ import annotations

import math

import numpy as np

from yoccoz.angles import Angle, double
from yoccoz.config import Config
from yoccoz.errors import NotConnectedError, TraceFailedError
from yoccoz.geometry import TWO_PI, RayPolyline


def check_connected(c: complex):
    z = 0j
    for _ in range(2000):
        z = z * z + c
        if abs(z) > 1e3:
            raise NotConnectedError(f"critical orbit escapes for c = {c}")


def _newton_target(c: complex, theta: Angle, t: float, z0: complex, cfg: Config):
    """Solve f^n(z) = exp(2^n (t + 2 pi i theta)) by Newton from z0.

    n is chosen so the target modulus sits in [R0, R0^2); the angle 2^n theta
    is reduced exactly before going to floats, which is what keeps deep rays
    honest.
    """
    logR = math.log(cfg.start_radius)
    n = max(0, math.ceil(math.log2(logR / t))) if t < logR else 0
    r = math.exp((2**n) * t)
    ang = double(theta, n)
    w = r * complex(math.cos(TWO_PI * float(ang.frac)), math.sin(TWO_PI * float(ang.frac)))
    z = z0
    eps = 2.3e-16
    for _ in range(cfg.newton_cap):
        val, der = z, complex(1.0)
        for _ in range(n):
            der = 2 * val * der
            val = val * val + c
        if not (np.isfinite(val.real) and np.isfinite(val.imag)):
            return None, math.inf
        res = val - w
        # achievable residual floor in doubles: rounding amplified by the
        # expansion |der| along the orbit and by the 2^n squarings of w
        floor = eps * (8 * abs(der) * max(abs(z), 1.0) + 8 * (2.0**n) * abs(w))
        if abs(res) <= max(1e-13 * max(abs(w), 1.0), floor):
            return z, abs(res)
        if der == 0:
            return None, math.inf
        z = z - res / der
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            return None, math.inf
    return None, math.inf


def trace_ray(
    c: complex,
    theta: Angle,
    pot_hi: float | None = None,
    pot_lo: float = 1e-4,
    steps_per_halving: int | None = None,
    cfg: Config = Config(),
) -> RayPolyline:
    """Trace R(theta) down dyadic potential levels by Newton continuation."""
    check_connected(c)
    if pot_hi is None:
        pot_hi = math.log(cfg.start_radius)
    if not (pot_hi > pot_lo > 0):
        raise ValueError("need pot_hi > pot_lo > 0")
    steps = steps_per_halving or cfg.steps_per_halving

    # always seed the continuation far out, where Boettcher ~ identity; the
    # polyline keeps only the requested potential range
    t = max(pot_hi, math.log(cfg.start_radius))
    z = cmath_exp_ray(theta, t)
    z, res = _must(_newton_target(c, theta, t, z, cfg), t)
    points, residuals = [(z, t)], [res]
    shrink = 2.0 ** (-1.0 / steps)
    while t > pot_lo * (1 + 1e-12):
        t_next = max(t * shrink, pot_lo)
        if t > pot_hi * (1 + 1e-12):
            t_next = max(t_next, min(t, pot_hi))
        znew, res = _newton_target(c, theta, t_next, z, cfg)
        if znew is None:
            znew, res = _subdivide(c, theta, t, t_next, z, cfg, 6)
        z, t = znew, t_next
        points.append((z, t))
        residuals.append(res)
    kept = [(p, r) for (p, r) in zip(points, residuals) if p[1] <= pot_hi * (1 + 1e-12)]
    if not kept:
        kept = [(points[-1], residuals[-1])]
    return RayPolyline(c=c, theta=theta, points=[p for p, _ in kept],
                       residuals=[r for _, r in kept])


def _must(pair, t):
    z, res = pair
    if z is None:
        raise TraceFailedError(t)
    return z, res


def _subdivide(c, theta, t_from, t_to, z, cfg, budget):
    if budget == 0:
        raise TraceFailedError(t_to)
    t_mid = math.sqrt(t_from * t_to)
    zm, _ = _newton_target(c, theta, t_mid, z, cfg)
    if zm is None:
        zm, _ = _subdivide(c, theta, t_from, t_mid, z, cfg, budget - 1)
    zt, res = _newton_target(c, theta, t_to, zm, cfg)
    if zt is None:
        return _subdivide(c, theta, t_mid, t_to, zm, cfg, budget - 1)
    return zt, res


def cmath_exp_ray(theta: Angle, t: float) -> complex:
    """Boettcher-plane seed phi ~ identity far out."""
    r = math.exp(t)
    a = TWO_PI * float(theta.frac)
    return r * complex(math.cos(a), math.sin(a))
