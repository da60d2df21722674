"""Floating-point dynamical plane: Boettcher potential, external ray tracing
by Newton continuation, puzzle-piece curves, and discrete modulus estimation
(one Jacobi-preconditioned CG solve on the grid's edge-node incidence matrix).

The paper carries no numerics; every tolerance here is an engineering choice
and is recorded in reports.  Convention: the round annulus r < |z| < R has
modulus log(R/r) / (2 pi), and the potential of z is log |phi^{-1}(z)|.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .angles import Angle, arc_point
from .config import Config
from .errors import (
    InvalidRegionError,
    NotConnectedError,
    TraceFailedError,
    YoccozError,
)

TWO_PI = 2.0 * math.pi
# fixed tracing constants; the settable ones (start_radius, steps_per_halving,
# newton_cap) come from the run Config
NEWTON_TOL = 1e-13  # relative Newton residual target
MAX_SUBDIVIDE = 6  # halvings of a failed continuation step
ESCAPE_RADIUS = 1e3  # the critical orbit of a connected c never leaves this disk
ESCAPE_ITERS = 2000  # ... within this many iterations
RAY_FLOOR = 1e-3  # the potential that drawn rays (piece boundaries, alpha rays) stop at


@dataclass
class RayPolyline:
    c: complex
    theta: Angle
    points: list[tuple[complex, float]]  # (z, potential), potentials decreasing
    residuals: list[float] = field(default_factory=list)


def fixed_points(c: complex):
    """alpha/beta fixed points of z^2 + c with their multipliers.

    beta is the landing point of the zero ray: the root with Re(2z) >= 1
    (principal branch of the square root), alpha the other one.
    """
    if c == 0.25:
        raise YoccozError("c = 1/4: alpha = beta (parabolic degenerate)")
    s = complex(np.sqrt(complex(1 - 4 * c)))
    beta = (1 + s) / 2
    alpha = (1 - s) / 2
    if (2 * beta).real < 1:  # enforce the documented branch
        alpha, beta = beta, alpha

    def klass(m):
        am = abs(m)
        if abs(am - 1) < 1e-12:
            return "indifferent"
        return "repelling" if am > 1 else "attracting"

    return {
        "alpha": alpha,
        "beta": beta,
        "multiplier_alpha": 2 * alpha,
        "multiplier_beta": 2 * beta,
        "class_alpha": klass(2 * alpha),
        "class_beta": klass(2 * beta),
    }


def check_connected(c: complex):
    z = 0j
    for _ in range(ESCAPE_ITERS):
        z = z * z + c
        if abs(z) > ESCAPE_RADIUS:
            raise NotConnectedError(f"critical orbit escapes for c = {c}")


def _newton_target(c: complex, theta: Angle, t: float, z0: complex, cfg: Config):
    """Solve f^n(z) = exp(2^n (t + 2 pi i theta)) by Newton from z0.

    n is chosen so the target modulus sits in [R0, R0^2); the angle 2^n theta
    is reduced exactly, as the integer 2^n num mod den, before the one
    correctly rounded division to a float, which is what keeps deep rays
    honest.
    """
    logR = math.log(cfg.start_radius)
    n = max(0, math.ceil(math.log2(logR / t))) if t < logR else 0
    r = math.exp((2**n) * t)
    a = TWO_PI * (theta.num * pow(2, n, theta.den) % theta.den / theta.den)
    w = r * complex(math.cos(a), math.sin(a))
    tol = NEWTON_TOL * max(abs(w), 1.0)
    w_floor = 8 * (2.0**n) * abs(w)
    z = z0
    eps = 2.3e-16
    for _ in range(cfg.newton_cap):
        val, der = z, complex(1.0)
        for _ in range(n):
            der = 2 * val * der
            val = val * val + c
        if not cmath.isfinite(val):
            return None, math.inf
        res = val - w
        # achievable residual floor in doubles: rounding amplified by the
        # expansion |der| along the orbit and by the 2^n squarings of w
        floor = eps * (8 * abs(der) * max(abs(z), 1.0) + w_floor)
        if abs(res) <= max(tol, floor):
            return z, abs(res)
        if der == 0:
            return None, math.inf
        z = z - res / der
        if not cmath.isfinite(z):
            return None, math.inf
    return None, math.inf


def check_window(pot_hi: float, pot_lo: float) -> None:
    """Refuse a ray window unless pot_hi > pot_lo > 0."""
    if not (pot_hi > pot_lo > 0):
        raise YoccozError(f"a ray window needs pot_hi > pot_lo > 0, "
                          f"got pot_hi = {pot_hi:g} and pot_lo = {pot_lo:g}")


def trace_rays(
    c: complex,
    thetas: Sequence[Angle],
    pot_hi: float | None = None,
    pot_lo: float | Sequence[float] = 1e-4,
    cfg: Config = Config(),
) -> list[RayPolyline]:
    """Trace a fan of rays R(theta) of one c down dyadic potential levels by
    Newton continuation, checking once that c is connected.

    The fan shares pot_hi; pot_lo is one floor for every ray or a sequence
    with one floor per ray.
    """
    if pot_hi is None:
        pot_hi = math.log(cfg.start_radius)
    floors = [pot_lo] * len(thetas) if isinstance(pot_lo, (int, float)) else pot_lo
    for lo in floors:
        check_window(pot_hi, lo)
    check_connected(c)
    return [_continue_ray(c, theta, pot_hi, lo, cfg)
            for theta, lo in zip(thetas, floors, strict=True)]


def trace_ray(
    c: complex,
    theta: Angle,
    pot_hi: float | None = None,
    pot_lo: float = 1e-4,
    cfg: Config = Config(),
) -> RayPolyline:
    """Trace R(theta) down dyadic potential levels by Newton continuation."""
    return trace_rays(c, [theta], pot_hi, pot_lo, cfg)[0]


def _continue_ray(c, theta, pot_hi, pot_lo, cfg) -> RayPolyline:
    # always seed the continuation far out, where Boettcher ~ identity; the
    # polyline keeps only the requested potential range
    t = max(pot_hi, math.log(cfg.start_radius))
    z = cmath_exp_ray(theta, t)
    z, res = _must(_newton_target(c, theta, t, z, cfg), t)
    points, residuals = [(z, t)], [res]
    shrink = 2.0 ** (-1.0 / cfg.steps_per_halving)
    while t > pot_lo * (1 + 1e-12):
        t_next = max(t * shrink, pot_lo)
        if t > pot_hi * (1 + 1e-12):
            t_next = max(t_next, min(t, pot_hi))
        znew, res = _newton_target(c, theta, t_next, z, cfg)
        if znew is None:
            znew, res = _subdivide(c, theta, t, t_next, z, cfg, MAX_SUBDIVIDE)
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
    a = TWO_PI * (theta.num / theta.den)
    return r * complex(math.cos(a), math.sin(a))


def ray_points(c: complex, thetas: Sequence[Angle], ts: Sequence[float],
               cfg: Config = Config()) -> list[complex]:
    """The points of the rays R(theta) at exact potentials t, one per ray,
    traced from scratch as one fan."""
    out = []
    for ray, t in zip(trace_rays(c, thetas, pot_lo=ts, cfg=cfg), ts):
        z, pot = ray.points[-1]
        if abs(pot - t) > 1e-12 * t:
            raise TraceFailedError(t, "did not land on the requested potential")
        out.append(z)
    return out


def ray_point(c: complex, theta: Angle, t: float, cfg: Config = Config()) -> complex:
    """The point of R(theta) at an exact potential t (traced from scratch)."""
    return ray_points(c, [theta], [t], cfg)[0]


# ------------------------------------------------------------ piece curves


def piece_curves(c, pieces, potential: float, samples_per_arc: int = 8,
                 cfg: Config = Config(), rays: Sequence[Angle] = ()
                 ) -> tuple[list[list[complex]], list[RayPolyline]]:
    """Closed ccw polylines around puzzle pieces: equipotential arcs over the
    trace arcs joined by the bounding ray pairs (rays truncated at RAY_FLOOR and
    closed across the landing point).

    Neighbouring pieces share arc samples and bounding rays, so the distinct
    arc samples of all pieces are traced as one fan and the distinct bounding
    rays, together with the extra angles ``rays``, as another.  Returns the
    curves and the polylines of ``rays``."""
    arcs_of = [piece.boundary for piece in pieces]
    # samples_per_arc + 1 equally spaced angles from a to b (ccw) on each arc
    samples_of = [[[arc_point(a, b, Fraction(i, samples_per_arc))
                    for i in range(samples_per_arc + 1)] for a, b in arcs] for arcs in arcs_of]
    # arc i ends on b_i and the next arc starts on a_{i+1}
    ends_of = [[(b, arcs[(i + 1) % len(arcs)][0]) for i, (_, b) in enumerate(arcs)]
               for arcs in arcs_of]
    samples = list(dict.fromkeys(t for arcs in samples_of for arc in arcs for t in arc))
    bounding = list(dict.fromkeys([t for ends in ends_of for pair in ends for t in pair]
                                  + list(rays)))
    sample_at = dict(zip(samples, ray_points(c, samples, [potential] * len(samples), cfg)))
    ray_at = dict(zip(bounding, trace_rays(c, bounding, pot_hi=potential, pot_lo=RAY_FLOOR,
                                           cfg=cfg)))
    curves = []
    for arcs, ends in zip(samples_of, ends_of):
        pts: list[complex] = []
        for arc, (end, start) in zip(arcs, ends):
            pts.extend(sample_at[t] for t in arc)
            pts.extend(z for z, _ in ray_at[end].points)
            pts.extend(z for z, _ in reversed(ray_at[start].points))
        pts.append(pts[0])
        curves.append(pts)
    return curves, [ray_at[theta] for theta in rays]


def piece_curve(c, piece, potential: float, samples_per_arc: int = 8,
                cfg: Config = Config()) -> list[complex]:
    """The closed ccw polyline around one puzzle piece (see piece_curves)."""
    return piece_curves(c, [piece], potential, samples_per_arc, cfg)[0][0]


def winding_number(curve: list[complex], z0: complex) -> int:
    total = 0.0
    for p, q in zip(curve, curve[1:]):
        di = math.atan2((q - z0).imag, (q - z0).real) - math.atan2((p - z0).imag, (p - z0).real)
        if di > math.pi:
            di -= TWO_PI
        elif di < -math.pi:
            di += TWO_PI
        total += di
    return round(total / TWO_PI)


def curve_diameter(curve: list[complex]) -> float:
    zs = np.array(curve, dtype=complex)
    d = np.abs(zs[:, None] - zs[None, :])
    return float(d.max())


def piece_diameters(c, lam, level: int, cfg: Config = Config()):
    """Max/median Euclidean diameter over all pieces of one level, drawn at
    potential min(2, 0.4 log start_radius) / 2^level."""
    from .puzzle import enumerate_pieces

    pieces = enumerate_pieces(lam, level)
    if not pieces:
        raise YoccozError(f"no pieces at level {level}")
    pot = min(2.0, 0.4 * math.log(cfg.start_radius)) * 2.0 ** (-level)
    diams = [curve_diameter(curve) for curve in piece_curves(c, pieces, pot, cfg=cfg)[0]]
    arr = np.array(diams)
    return {"level": level, "count": len(diams), "max": float(arr.max()),
            "median": float(np.median(arr)), "potential": pot}


# ---------------------------------------------------------------- modulus


@dataclass
class GridMask:
    """Node-based annular region: occupancy plus inner/outer electrode labels."""

    origin: tuple[float, float]
    h: float
    inside: np.ndarray  # bool (ny, nx)
    inner: np.ndarray
    outer: np.ndarray

    def validate(self):
        if self.inner.sum() == 0 or self.outer.sum() == 0:
            raise InvalidRegionError("empty electrode")
        if (self.inner & self.outer).any():
            raise InvalidRegionError("electrodes overlap")
        if not ((self.inner | self.outer) <= self.inside).all():
            raise InvalidRegionError("electrodes poke outside the region")
        free = self.inside & ~self.inner & ~self.outer
        if free.sum() == 0:
            raise InvalidRegionError("no conducting region between electrodes")
        inner, outer = self.inner, self.outer
        touch = (
            (inner[:, :-1] & outer[:, 1:]).any()
            or (inner[:, 1:] & outer[:, :-1]).any()
            or (inner[:-1, :] & outer[1:, :]).any()
            or (inner[1:, :] & outer[:-1, :]).any()
        )
        if touch:
            raise InvalidRegionError("electrodes touch: degenerate annulus")


def round_annulus_mask(r: float, R: float, h: float) -> GridMask:
    if not (0 < r < R):
        raise InvalidRegionError("need 0 < r < R")
    pad = 2 * h
    n = int(math.ceil(2 * (R + pad) / h)) + 1
    xs = np.linspace(-(R + pad), R + pad, n)
    X, Y = np.meshgrid(xs, xs)
    rad = np.hypot(X, Y)
    inside = np.ones_like(rad, dtype=bool)
    inner = rad <= r
    outer = rad >= R
    return GridMask(origin=(xs[0], xs[0]), h=h, inside=inside, inner=inner, outer=outer)


def modulus_estimate(mask: GridMask) -> float:
    """Discrete extremal length via the grid resistor network: solve the
    two-electrode Laplace problem and return 1 / energy (round annulus
    convention log(R/r)/2pi).

    G is the edge-node incidence matrix of the 4-neighbour graph on the
    inside nodes.  With u = 0 on inner and 1 on outer, the free nodes solve
    G_f^T G_f u_f = -G_f^T G u by Jacobi-preconditioned CG, and the energy is
    |G u|^2."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    mask.validate()
    inside = mask.inside
    node = np.arange(inside.size).reshape(inside.shape)
    across = inside[:, :-1] & inside[:, 1:]
    down = inside[:-1, :] & inside[1:, :]
    ends = np.stack([np.concatenate([node[:, :-1][across], node[:-1, :][down]]),
                     np.concatenate([node[:, 1:][across], node[1:, :][down]])], axis=1)
    m = len(ends)
    G = sp.csr_matrix((np.tile([-1.0, 1.0], m), ends.ravel(), np.arange(0, 2 * m + 1, 2)),
                      shape=(m, inside.size))
    free = (inside & ~mask.inner & ~mask.outer).ravel()
    u = mask.outer.ravel().astype(float)
    G_f = G[:, free]
    A = (G_f.T @ G_f).tocsr()
    u_f, info = spla.cg(A, -(G_f.T @ (G @ u)), rtol=1e-10, maxiter=10_000,
                        M=sp.diags(1.0 / A.diagonal()))
    if info != 0:
        raise YoccozError(f"conjugate gradient did not converge (info={info})")
    u[free] = u_f
    grad = G @ u
    energy = float(grad @ grad)
    if energy <= 0:
        raise InvalidRegionError("zero energy: electrodes disconnected?")
    return 1.0 / energy
