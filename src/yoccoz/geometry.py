"""Floating-point dynamical plane: Boettcher potential, external ray tracing
by Newton continuation, puzzle-piece curves, and discrete modulus estimation
(one CG solve on the grid's edge-node incidence matrix, preconditioned by a
Galerkin multigrid V-cycle).

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
_EPS = 2.3e-16  # the rounding unit in the Newton residual floor
# The least fan traced in lockstep (_continue_fan); narrower fans go ray by
# ray.  Ray-by-ray time over lockstep time on a 2-core x86 box, fans of
# angles k/4093 at c = -1 and 0.282+0.53i: at 64 rays 1.05-1.19x in the
# windows above the level-1 potential but 0.81-0.95x down to 1e-3 and 1e-4,
# where each Newton iteration takes up to 16 squarings; at 96 rays 1.13-1.61x
# in every window; at 256 rays (the render ring) 2.3-3.0x.
LOCKSTEP_MIN_RAYS = 96


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


def _target_level(t: float, cfg: Config) -> tuple[int, float]:
    """The iterate n whose target modulus r = exp(2^n t) sits in [R0, R0^2)."""
    logR = math.log(cfg.start_radius)
    n = math.ceil(math.log2(logR / t)) if t < logR else 0
    return n, math.exp((2**n) * t)


def _target_angle(theta: Angle, n: int) -> float:
    """The argument of the target: 2^n theta reduced exactly, as the integer
    2^n num mod den, before the one correctly rounded division to a float,
    which is what keeps deep rays honest."""
    return TWO_PI * (theta.num * pow(2, n, theta.den) % theta.den / theta.den)


def _newton_target(c: complex, theta: Angle, t: float, z0: complex, cfg: Config):
    """Solve f^n(z) = exp(2^n (t + 2 pi i theta)) by Newton from z0, with n
    and the angle from _target_level and _target_angle."""
    n, r = _target_level(t, cfg)
    a = _target_angle(theta, n)
    w = r * complex(math.cos(a), math.sin(a))
    aw = abs(w)
    tol = NEWTON_TOL * (aw if aw > 1.0 else 1.0)
    w_floor = 8 * (2.0**n) * aw
    isfinite, squarings = cmath.isfinite, range(n)
    z = z0
    for _ in range(cfg.newton_cap):
        val, der = z, 1 + 0j
        for _ in squarings:
            der = (2 + 0j) * val * der  # the 2 of 2 * val, promoted once
            val = val * val + c
        if not isfinite(val):
            return None, math.inf
        res = val - w
        ares = abs(res)
        if ares <= tol:
            return z, ares
        # achievable residual floor in doubles: rounding amplified by the
        # expansion |der| along the orbit and by the 2^n squarings of w
        az = abs(z)
        if ares <= _EPS * (8 * abs(der) * (az if az > 1.0 else 1.0) + w_floor):
            return z, ares
        if der == 0:
            return None, math.inf
        z = z - res / der
        if not isfinite(z):
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
    with one floor per ray.  A fan of LOCKSTEP_MIN_RAYS or more rays with one
    floor walks its potentials in lockstep (_continue_fan), any other ray by
    ray (_continue_ray); both give the same floats.
    """
    if pot_hi is None:
        pot_hi = math.log(cfg.start_radius)
    floors = [pot_lo] * len(thetas) if isinstance(pot_lo, (int, float)) else pot_lo
    for lo in floors:
        check_window(pot_hi, lo)
    check_connected(c)
    if (len(thetas) >= LOCKSTEP_MIN_RAYS and len(floors) == len(thetas)
            and len(set(floors)) == 1):
        fan = _continue_fan(c, thetas, pot_hi, floors[0], cfg)
        if fan is not None:
            return fan
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


def _schedule(pot_hi: float, pot_lo: float, cfg: Config) -> tuple[list[float], int]:
    """The potentials a continuation visits, and the index of the first one
    its polyline keeps.

    It always seeds far out, where Boettcher ~ identity, steps down by the
    factor 2^(-1/steps_per_halving), lands on pot_hi and stops on pot_lo; the
    polyline keeps only the requested potential range."""
    t = max(pot_hi, math.log(cfg.start_radius))
    ts = [t]
    shrink = 2.0 ** (-1.0 / cfg.steps_per_halving)
    hi, lo = pot_hi * (1 + 1e-12), pot_lo * (1 + 1e-12)
    while t > lo:
        t_next = max(t * shrink, pot_lo)
        if t > hi:
            t_next = max(t_next, min(t, pot_hi))
        t = t_next
        ts.append(t)
    return ts, next((i for i, t in enumerate(ts) if t <= hi), len(ts) - 1)


def _continue_ray(c, theta, pot_hi, pot_lo, cfg) -> RayPolyline:
    ts, kept = _schedule(pot_hi, pot_lo, cfg)
    z, res = _must(_newton_target(c, theta, ts[0], cmath_exp_ray(theta, ts[0]), cfg), ts[0])
    points, residuals = [(z, ts[0])], [res]
    for t_prev, t in zip(ts, ts[1:]):
        znew, res = _newton_target(c, theta, t, z, cfg)
        if znew is None:
            znew, res = _subdivide(c, theta, t_prev, t, z, cfg, MAX_SUBDIVIDE)
        z = znew
        points.append((z, t))
        residuals.append(res)
    return RayPolyline(c=c, theta=theta, points=points[kept:], residuals=residuals[kept:])


def _continue_fan(c, thetas, pot_hi, pot_lo, cfg) -> list[RayPolyline] | None:
    """_continue_ray for every ray of a fan with one floor: the rays walk the
    one schedule together, one _newton_fan per potential.  A ray whose
    lockstep Newton fails takes the scalar _subdivide from the same point and
    rejoins the fan.

    None when a ray's trace fails or a modulus the scalar step takes is not
    finite: the caller then retraces the fan ray by ray, which raises the
    error of the first failing ray."""
    ts, kept = _schedule(pot_hi, pot_lo, cfg)
    angles: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def targets(t):
        """n and the targets w = r * complex(cos a, sin a) at potential t; the
        promoted r keeps its 0.0 cross terms."""
        n, r = _target_level(t, cfg)
        if n not in angles:
            a = [_target_angle(theta, n) for theta in thetas]
            angles[n] = np.array([math.cos(x) for x in a]), np.array([math.sin(x) for x in a])
        cos_a, sin_a = angles[n]
        return n, r * cos_a - 0.0 * sin_a, r * sin_a + 0.0 * cos_a

    # the seeds cmath_exp_ray(theta, ts[0]) are the first targets (n = 0), float for float
    _, wr, wi = targets(ts[0])
    z = np.empty(len(thetas), dtype=complex)
    z.real, z.imag = wr, wi
    cc, steps = complex(c), []
    for i, t in enumerate(ts):
        step = _newton_fan(cc, *targets(t), z, cfg)
        if step is None:
            return None
        znew, res, failed = step
        for k in np.flatnonzero(failed).tolist():
            if i == 0:
                return None
            try:
                znew[k], res[k] = _subdivide(c, thetas[k], ts[i - 1], t, complex(z[k]), cfg,
                                             MAX_SUBDIVIDE)
            except (TraceFailedError, ArithmeticError):
                return None
        z = znew
        steps.append((z, res))
    tk = ts[kept:]
    paths = zip(*(z.tolist() for z, _ in steps[kept:]))
    residuals = zip(*(res.tolist() for _, res in steps[kept:]))
    return [RayPolyline(c=c, theta=theta, points=list(zip(path, tk)), residuals=list(rs))
            for theta, path, rs in zip(thetas, paths, residuals)]


def _newton_fan(c: complex, n: int, wr: np.ndarray, wi: np.ndarray, z0: np.ndarray,
                cfg: Config):
    """_newton_target for every ray of a fan at one potential, towards the
    targets wr + i wi: each numpy Newton iteration advances every unconverged
    ray, and a ray that converges or fails is frozen.

    The floats are the scalar step's bit for bit: this is CPython's complex
    arithmetic written out on float64 arrays.  A real operand promoted to
    complex keeps its 0.0 cross terms, products take the textbook formula,
    the quotient is _Py_c_quot's Smith branch chosen per element, and abs is
    hypot.  Returns the points, the residuals and the mask of failed rays,
    or None when a modulus is not finite, where the scalar abs may raise."""
    aw = np.hypot(wr, wi)
    tol = NEWTON_TOL * np.maximum(aw, 1.0)
    w_floor = 8 * (2.0**n) * aw
    cr, ci = c.real, c.imag
    z_out, res_out = z0.copy(), np.full(len(z0), math.inf)
    failed = np.zeros(len(z0), dtype=bool)
    live = np.arange(len(z0))
    zr, zi = z0.real.copy(), z0.imag.copy()
    # numpy scalars: at n = 0 the quotient's dr / di divides by 0.0 in the
    # branch np.where discards, which a Python float would raise on
    one, zero = np.float64(1.0), np.float64(0.0)
    with np.errstate(all="ignore"):
        for _ in range(cfg.newton_cap):
            vr, vi, dr, di = zr, zi, one, zero
            for _ in range(n):
                tr, ti = 2.0 * vr - 0.0 * vi, 2.0 * vi + 0.0 * vr
                dr, di = tr * dr - ti * di, tr * di + ti * dr
                p = vr * vi  # = vi * vr: IEEE products commute
                vr, vi = vr * vr - vi * vi + cr, p + p + ci
            finite = np.isfinite(vr) & np.isfinite(vi)
            resr, resi = vr - wr, vi - wi
            ares = np.hypot(resr, resi)
            floor = _EPS * (8 * np.hypot(dr, di) * np.maximum(np.hypot(zr, zi), 1.0) + w_floor)
            # a ray with a finite val and an infinite or NaN modulus: retrace
            # ray by ray (a finite ray always has a finite ares + floor)
            sane = np.isfinite(ares + floor)
            if np.count_nonzero(sane) != np.count_nonzero(finite):
                return None
            done = sane & ((ares <= tol) | (ares <= floor))
            # res / der by Smith's rule, dividing through by the larger part of der
            wide = np.abs(dr) >= np.abs(di)
            ratio = np.where(wide, di / dr, dr / di)
            denom = np.where(wide, dr + di * ratio, dr * ratio + di)
            qr = np.where(wide, resr + resi * ratio, resr * ratio + resi) / denom
            qi = np.where(wide, resi - resr * ratio, resi * ratio - resr) / denom
            zr_next, zi_next = zr - qr, zi - qi
            go = sane & ~done & ((dr != 0) | (di != 0))
            go &= np.isfinite(zr_next) & np.isfinite(zi_next)
            if np.count_nonzero(done):
                at = live[done]
                z_out.real[at], z_out.imag[at], res_out[at] = zr[done], zi[done], ares[done]
            if np.count_nonzero(go) < len(live):
                failed[live[~(go | done)]] = True
                live, wr, wi, tol, w_floor = live[go], wr[go], wi[go], tol[go], w_floor[go]
                zr_next, zi_next = zr_next[go], zi_next[go]
                if not len(live):
                    break
            zr, zi = zr_next, zi_next
    failed[live] = True
    return z_out, res_out, failed


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
        arrays = (self.inside, self.inner, self.outer)
        if not all(isinstance(a, np.ndarray) and a.dtype == bool and a.ndim == 2
                   and a.shape == self.inside.shape for a in arrays):
            raise InvalidRegionError("inside, inner and outer must be 2-D boolean arrays "
                                     "of one shape")
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
    if not (0 < r < R < math.inf):
        raise InvalidRegionError("need 0 < r < R < inf")
    if not (0 < h < math.inf):
        raise InvalidRegionError(f"need a finite grid step h > 0, got {h}")
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
    A u_f = -G_f^T G u, A = G_f^T G_f, by one CG solve preconditioned with a
    Galerkin V-cycle (`_v_cycle`), and the energy is |G u|^2."""
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
    b = -(G_f.T @ (G @ u))
    del G_f  # the hierarchy is built next: keep the peak memory down at fine h
    ys, xs = np.divmod(np.flatnonzero(free), inside.shape[1])
    u_f, info = spla.cg(A, b, rtol=1e-10, maxiter=10_000, M=_v_cycle(A, ys, xs))
    if info != 0:
        raise YoccozError(f"conjugate gradient did not converge (info={info})")
    u[free] = u_f
    grad = G @ u
    energy = float(grad @ grad)
    if energy <= 0:
        raise InvalidRegionError("zero energy: electrodes disconnected?")
    return 1.0 / energy


# The V-cycle (Briggs, Henson & McCormick, A Multigrid Tutorial, 2nd ed.,
# ch. 3-5): coarsen until at most COARSE_UNKNOWNS remain, which one splu
# solves.  The splu is set-up cost at every solve: on a 2-core x86 box it
# took 9.8 ms at 3,156 coarsest unknowns and 0.7 ms at 276, against about
# 11 ms for a whole 12k-unknown solve.  SWEEPS damped-Jacobi sweeps (weight
# OMEGA) go before and after each coarse correction; equal counts keep the
# cycle symmetric, as CG needs.
COARSE_UNKNOWNS = 300
SWEEPS = 2
OMEGA = 0.8


def _prolongation(ys: np.ndarray, xs: np.ndarray):
    """Bilinear interpolation onto unknowns at grid points (ys, xs) from the
    grid of every other point.  A point with even coordinates sits on a
    coarse node; one odd coordinate puts it halfway between two, and two odd
    ones between four, each weighted equally.  Returns P (CSR, one row per
    unknown, columns increasing along each row) and the coordinates, in
    row-major order, of the coarse nodes that some unknown touches: P's
    columns."""
    import scipy.sparse as sp

    oy, ox = ys & 1, xs & 1
    width = (int(xs.max()) >> 1) + 2
    base = (ys >> 1) * width + (xs >> 1)
    up = base + oy * width
    cols = np.stack([base, base + ox, up, up + ox], axis=1).ravel()
    cols = cols[np.stack([np.ones_like(ox), ox, oy, ox & oy], axis=1).ravel().astype(bool)]
    count = (1 + ox) * (1 + oy)
    touched = np.zeros(((int(ys.max()) >> 1) + 2) * width, dtype=bool)
    touched[cols] = True
    column = np.cumsum(touched) - 1
    coarse = np.flatnonzero(touched)
    P = sp.csr_matrix((np.repeat(1.0 / count, count), column[cols],
                       np.concatenate([[0], np.cumsum(count)])), shape=(len(ys), len(coarse)))
    return P, coarse // width, coarse % width


def _v_cycle(A, ys: np.ndarray, xs: np.ndarray):
    """One Galerkin V-cycle for A, whose unknowns sit at grid points (ys, xs),
    as a LinearOperator.  Each level's operator is P^T A P, so masks,
    electrodes and odd grid sizes need no special case.  The cycle is a loop
    over the levels: a closure that called itself would keep every solve's
    hierarchy alive until the cyclic garbage collector ran."""
    import scipy.sparse.linalg as spla

    n = A.shape[0]
    levels = []  # (A, OMEGA / diag A, P) from the finest level down
    while A.shape[0] > COARSE_UNKNOWNS:
        P, ys, xs = _prolongation(ys, xs)
        levels.append((A, OMEGA / A.diagonal(), P))
        A = P.T.tocsr() @ (A @ P)
    coarsest = spla.splu(A.tocsc())

    def cycle(r):
        down = []  # each level's right-hand side and pre-smoothed iterate
        for A, d, P in levels:
            x = d * r
            for _ in range(SWEEPS - 1):
                x += d * (r - A @ x)
            down.append((r, x))
            r = P.T @ (r - A @ x)
        x = coarsest.solve(r)
        for (A, d, P), (r, x0) in zip(reversed(levels), reversed(down)):
            x = x0 + P @ x
            for _ in range(SWEEPS):
                x += d * (r - A @ x)
        return x

    return spla.LinearOperator((n, n), matvec=cycle, dtype=float)
