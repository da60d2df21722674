"""Dirichlet/Sobolev energy numerics on the half-plane and the strip
0 < Im z < pi: the boundary-pair kernels I_ij, the exact discrete harmonic
extension by a DST-I fast Poisson solve, and the numerical verification of
the slit-strip energy bound.

All "norms" returned here are the squared seminorm (the Dirichlet energy
integral), matching the quantities the formulas are stated for.  Windows and
grid spacings are engineering choices recorded in every report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotFiniteEnergyError, YoccozError


@dataclass
class GridFunction:
    h: float
    origin: tuple[float, float]
    values: np.ndarray  # (ny, nx)
    cut_x_edges: np.ndarray | None = None  # bool (ny, nx-1): insulated edges


@dataclass
class BoundaryFn:
    """Sampled boundary data with its limits at the two ends."""

    ts: np.ndarray
    values: np.ndarray
    limit_neg: float
    limit_pos: float

    @classmethod
    def from_callable(cls, g, T: float, n: int):
        ts = np.linspace(-T, T, n)
        vals = np.array([g(t) for t in ts], dtype=float)
        return cls(ts, vals, float(g(-T)), float(g(T)))


def dirichlet_norm(u: GridFunction) -> float:
    """Energy integral of the grid function: squared central differences at
    edge midpoints, with half weights on the window's outermost rows/columns
    so a full rectangle integrates exactly over its own area (h cancels)."""
    v = u.values
    if v.size == 0:
        raise YoccozError("empty grid")
    ny, nx = v.shape
    wx = np.ones((ny, nx - 1))
    wx[0, :] = wx[-1, :] = 0.5
    wy = np.ones((ny - 1, nx))
    wy[:, 0] = wy[:, -1] = 0.5
    if u.cut_x_edges is not None:
        wx *= ~u.cut_x_edges
    return float((np.diff(v, axis=1) ** 2 * wx).sum() + (np.diff(v, axis=0) ** 2 * wy).sum())


# --------------------------------------------------------- boundary kernels


def _r_quadrature(T: float, n_log: int, r_min: float):
    """Log-spaced |r| nodes with trapezoid weights for int F(r) dr, both signs."""
    us = np.linspace(math.log(r_min), math.log(2 * T), n_log)
    rs = np.exp(us)
    w = np.gradient(us) * rs  # dr = r du
    return rs, w


ENERGY_CAP = 1e5  # a refined double integral above this counts as divergent


def _refined(value, message) -> float:
    """value(r_min) at r_min = 1e-6, after checking that refining from 1e-4
    leaves it below ENERGY_CAP and within 5% (plus 1e-9): a double integral
    that keeps growing diverges, and message(v1, v2) says so."""
    v1, v2 = value(1e-4), value(1e-6)
    if v2 > ENERGY_CAP or (v2 - v1) > 0.05 * max(v1, 1e-12) + 1e-9:
        raise NotFiniteEnergyError(message(v1, v2))
    return v2


def halfplane_norm(g) -> float:
    """(1/2pi) double integral of (g(s)-g(t))^2 / (s-t)^2.

    g is evaluated directly (no resampling, so jumps are not smoothed away) at
    1601 points of the window [-40, 40]; the difference quotient is bounded
    for Lipschitz g and the r-integral runs on a 160-node log grid down to
    r_min.  Divergence - a jump in g - is detected by refining r_min and
    watching the value climb.
    """
    T = 40.0
    ts = np.linspace(-T, T, 1601)
    wt = np.gradient(ts)
    geval = np.vectorize(g, otypes=[float])
    gt = geval(ts)
    lim_pos, lim_neg = float(g(T)), float(g(-T))
    if abs(lim_pos - lim_neg) > 1e-6:
        raise NotFiniteEnergyError(
            "limits at +inf and -inf differ: the cross tail diverges logarithmically"
        )

    def value(r_min):
        rs, wr = _r_quadrature(T, 160, r_min)
        total = 0.0
        for sign in (+1.0, -1.0):
            for r, w in zip(sign * rs, wr):
                s = ts + r
                ok = np.abs(s) <= T
                gs = geval(np.clip(s, -T, T))
                total += w * float((((gs - gt) ** 2) * ok / (r * r) * wt).sum())
        # pairs with one variable outside the window, with g frozen at its
        # limit there: integral of (L - g(t))^2/(s-t)^2 over |s| > T in closed
        # form, doubled for the symmetric (t outside) half
        tail = ((lim_pos - gt) ** 2 / (T - ts + 1e-12) + (lim_neg - gt) ** 2 / (T + ts + 1e-12)) * wt
        return (total + 2 * float(tail.sum())) / (2 * math.pi)

    return _refined(value, lambda v1, v2:
                    f"double integral keeps growing under refinement ({v1:.4g} -> {v2:.4g})")


def strip_kernel(i: int, j: int):
    sign = -1.0 if (i + j) % 2 == 0 else 1.0
    return lambda r: (np.exp(r / 2) + sign * np.exp(-r / 2)) ** 2


def _pair_integral(fi: BoundaryFn, fj: BoundaryFn, i: int, j: int, T: float) -> float:
    """I_ij: the (fi, fj) boundary-pair integral under the strip kernel, with
    |r| up to 2T on a 120-node log grid.

    All 240 signed r nodes are one (240, nx) array; each row sums alone and
    the weighted row sums add up in node order, so the value is the float
    the node-by-node loop (tests/sobolev_oracle.py) gives."""
    wt = np.gradient(fj.ts)
    kern = strip_kernel(i, j)

    def value(r_min):
        rs, wr = _r_quadrature(T, 120, r_min)
        r = np.concatenate([rs, -rs])[:, None]
        gs = np.interp(fj.ts + r, fi.ts, fi.values, left=fi.limit_neg, right=fi.limit_pos)
        rows = ((gs - fj.values) ** 2 / kern(r) * wt).sum(axis=1)
        total = 0.0
        for w, row in zip(np.concatenate([wr, wr]), rows):
            total += w * float(row)
        return total

    if (i + j) % 2:
        return value(1e-4)  # bounded kernel, no singularity
    return _refined(value, lambda v1, v2: f"I{i}{j} diverges under refinement")


def strip_Iij(f0: BoundaryFn, f1: BoundaryFn):
    """The four boundary-pair integrals; the harmonic extension's energy is
    sum(I_ij) / (2 pi)."""
    if abs(f0.limit_neg - f1.limit_neg) > 1e-9 or abs(f0.limit_pos - f1.limit_pos) > 1e-9:
        raise YoccozError("boundary components must share their limits at infinity")
    fs, T = (f0, f1), float(f0.ts[-1])
    return tuple(_pair_integral(fs[i], fs[j], i, j, T) for i in (0, 1) for j in (0, 1))


@functools.cache
def kernel_constant() -> float:
    """int ds / (e^{s/2} + e^{-s/2})^2, analytically tanh(s/2)/2 -> 1, by the
    trapezoid rule on 400001 points of [-80, 80].  Cached: every
    verify_slitbounds call reads it."""
    s = np.linspace(-80.0, 80.0, 400_001)
    return float(np.trapezoid(1.0 / (np.exp(s / 2) + np.exp(-s / 2)) ** 2, s))


# ------------------------------------------------------ harmonic extension


def _strip_grid(T: float, ny: int):
    """Spacing and node abscissae of the window [-T, T] x [0, pi] with ny rows;
    the grid must hold at least one interior node."""
    if ny < 3:
        raise YoccozError(f"the strip grid needs ny >= 3 rows, got {ny}")
    h = math.pi / (ny - 1)
    nx = int(round(2 * T / h)) + 1
    if nx < 3:
        raise YoccozError(f"the window T = {T} holds no interior grid column at ny = {ny}")
    return h, np.linspace(-T, T, nx)


def harmonic_extension_strip(f0: BoundaryFn, f1: BoundaryFn, ny: int = 65) -> GridFunction:
    """Exact discrete harmonic extension on the truncated strip: the given
    boundary rows, linear far-field closure at the shared limits on the end
    columns, and the 5-point Laplace equation at every interior node.

    The known boundary values move to the right-hand side of the interior
    system, which DST-I diagonalizes on a rectangle (fast Poisson solve,
    Buzbee-Golub-Nielson 1970): transform, divide by the eigenvalues of the
    5-point Laplacian, transform back."""
    from scipy.fft import dstn, idstn

    T = float(f0.ts[-1])
    h, xs = _strip_grid(T, ny)
    nx = len(xs)
    u = np.zeros((ny, nx))
    bot = np.interp(xs, f0.ts, f0.values)
    top = np.interp(xs, f1.ts, f1.values)
    u[0, :], u[-1, :] = bot, top
    frac = np.linspace(0.0, 1.0, ny)
    u[:, 0] = bot[0] + (top[0] - bot[0]) * frac
    u[:, -1] = bot[-1] + (top[-1] - bot[-1]) * frac

    rhs = np.zeros((ny - 2, nx - 2))
    rhs[0, :] -= u[0, 1:-1]
    rhs[-1, :] -= u[-1, 1:-1]
    rhs[:, 0] -= u[1:-1, 0]
    rhs[:, -1] -= u[1:-1, -1]
    lam_y = 2 * np.cos(math.pi * np.arange(1, ny - 1) / (ny - 1)) - 2
    lam_x = 2 * np.cos(math.pi * np.arange(1, nx - 1) / (nx - 1)) - 2
    u[1:-1, 1:-1] = idstn(dstn(rhs, type=1) / (lam_y[:, None] + lam_x[None, :]), type=1)
    return GridFunction(h=h, origin=(-T, 0.0), values=u)


# --------------------------------------------------------- slit verification


@dataclass
class SlitTrial:
    ratio: float
    extension_energy: float
    energy_below_slits: float
    i00_bound_ok: bool
    squeeze_ratio: float
    star_identity_err: float


@dataclass
class SlitboundsReport:
    trials: int
    violations: int
    b_proof_sq: float
    b_proof_parts: dict
    max_ratio: float
    max_squeeze: float
    details: list[SlitTrial] = field(default_factory=list)
    skipped: int = 0


def _trial_function(slits, xs, ys, rng):
    """Random unit-energy test data: smooth bumps plus components that jump
    across slit segments but stay continuous off them (the lemma's remark is
    exactly about this neither-open-nor-closed continuity)."""
    X, Y = np.meshgrid(xs, ys)
    f = np.zeros_like(X)
    for _ in range(rng.integers(2, 5)):
        cx = rng.uniform(xs[0] * 0.6, xs[-1] * 0.6)
        cy = rng.uniform(0.15, math.pi - 0.15)
        s = rng.uniform(0.3, 1.2)
        f += rng.normal() * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
    usable = [s for s in slits if abs(s.u) < xs[-1] * 0.7 and s.im_hi - s.im_lo > 4 * (ys[1] - ys[0])]
    if usable:
        for k in rng.choice(len(usable), size=min(2, len(usable)), replace=False):
            s = usable[int(k)]
            width = rng.uniform(0.2, 0.8)
            mid = 0.5 * (s.im_lo + s.im_hi)
            half = 0.5 * (s.im_hi - s.im_lo)
            ybump = np.clip(1 - ((Y - mid) / (0.8 * half)) ** 2, 0, None) ** 2
            f += rng.normal() * np.exp(-((X - s.u) / width) ** 2) * ybump * np.sign(X - s.u + 1e-300)
    return f


def _cut_edges(slits, xs, ys):
    cut = np.zeros((len(ys), len(xs) - 1), dtype=bool)
    for s in slits:
        j = int(np.searchsorted(xs, s.u)) - 1
        if 0 <= j < len(xs) - 1:
            rows = (ys >= s.im_lo) & (ys <= s.im_hi)
            cut[rows, j] = True
    return cut


def verify_slitbounds(model, trials: int = 20, seed: int = 0, T: float = 8.0,
                      ny: int = 65) -> SlitboundsReport:
    """For random unit-energy functions continuous off the slits, check that
    the harmonic extension of their boundary trace has energy at most B_proof,
    where B_proof is assembled from the proof chain:

        (1/2pi) I00 <= 25 ||f||^2_below  <= 25 ||f||^2      (5-qc squeeze)
        I01 <= 2 I00 + pi ||f||^2 * int sech-type kernel    (Cauchy-Schwarz)

    giving ||f~||^2 <= (25 + 25 + 4*25 + 1) ||f||^2 = 151 ||f||^2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    h, xs = _strip_grid(T, ny)
    ys = np.linspace(0.0, math.pi, ny)
    cut = _cut_edges(model.slits, xs, ys)
    c_kernel = kernel_constant()
    parts = {"i00_coeff": 25.0, "i11_coeff": 25.0, "i01_via_cs": 4 * 25.0,
             "jump_term": 1.0 * c_kernel, "kernel_constant": c_kernel}
    b_sq = sum(v for k, v in parts.items() if k != "kernel_constant")

    details: list[SlitTrial] = []
    skipped = violations = 0
    below = ys <= math.pi / 5 + 1e-12
    for _ in range(trials):
        f = _trial_function(model.slits, xs, ys, rng)
        gf = GridFunction(h=h, origin=(-T, 0.0), values=f, cut_x_edges=cut)
        e = dirichlet_norm(gf)
        if e < 1e-8:
            skipped += 1
            continue
        f = f / math.sqrt(e)

        f0 = BoundaryFn(xs, f[0, :], float(f[0, 0]), float(f[0, -1]))
        f1 = BoundaryFn(xs, f[-1, :], float(f[-1, 0]), float(f[-1, -1]))
        ext = harmonic_extension_strip(f0, f1, ny=ny)
        e_ext = dirichlet_norm(ext)
        ratio = e_ext  # ||f|| = 1 after normalization

        gf_below = GridFunction(h=h, origin=(-T, 0.0), values=f[below, :], cut_x_edges=None)
        e_below = dirichlet_norm(gf_below)
        i00_val = _i00_of_trace(f0)
        i00_ok = i00_val / (2 * math.pi) <= 25.0 * e_below + 0.05 * 25.0 + 1e-6

        squeeze = _squeeze_ratio(f, xs, ys, e_below)
        star = _star_identity_err(f, cut)

        if ratio > b_sq * (1 + 1e-9):
            violations += 1
        details.append(SlitTrial(ratio=ratio, extension_energy=e_ext,
                                 energy_below_slits=e_below, i00_bound_ok=i00_ok,
                                 squeeze_ratio=squeeze, star_identity_err=star))
    max_ratio = max((d.ratio for d in details), default=0.0)
    max_squeeze = max((d.squeeze_ratio for d in details), default=0.0)
    return SlitboundsReport(trials=len(details), violations=violations, b_proof_sq=b_sq,
                            b_proof_parts=parts, max_ratio=max_ratio,
                            max_squeeze=max_squeeze, details=details, skipped=skipped)


def _i00_of_trace(f0: BoundaryFn) -> float:
    """I00 of the trace alone, the same float as strip_Iij(f0, f0)[0]."""
    return _pair_integral(f0, f0, 0, 0, float(f0.ts[-1]))


def _squeeze_ratio(f: np.ndarray, xs, ys, e_below: float) -> float:
    """||f o v|| / ||f||_below for the 5-qc squeeze v(x+iy) = x + iy/5 (the
    squeeze image is the slit-free substrip below the band, so plain bilinear
    sampling applies); Fact q-q caps this at K = 5."""
    ny, nx = f.shape
    dy = ys[1] - ys[0]
    fi = np.empty_like(f)
    for j, y in enumerate(ys / 5.0):
        k = min(int(y / dy), ny - 2)
        t = (y - ys[k]) / dy
        fi[j, :] = (1 - t) * f[k, :] + t * f[k + 1, :]
    e = dirichlet_norm(GridFunction(h=float(dy), origin=(xs[0], 0), values=fi))
    return math.sqrt(e / max(e_below, 1e-300))


def _star_identity_err(f: np.ndarray, cut: np.ndarray) -> float:
    """f(t+i pi) - f(t) = integral of df/dy across the strip, at node columns
    whose adjacent x-edges are uncut (exact telescoping on the grid)."""
    edge_bad = cut.any(axis=0)
    node_bad = np.r_[False, edge_bad] | np.r_[edge_bad, False]
    cols = np.flatnonzero(~node_bad)
    if len(cols) == 0:
        return math.nan
    integral = np.diff(f[:, cols], axis=0).sum(axis=0)
    return float(np.abs(integral - (f[-1, cols] - f[0, cols])).max())
