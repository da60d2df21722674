import math

import numpy as np
import pytest

from yoccoz.errors import NotFiniteEnergyError, YoccozError
from yoccoz import qcmodel as qc
from yoccoz import sobolev as sb

from sobolev_oracle import cut_edges, pair_integral
from sor_oracle import sor_extension_strip


def grid_from(fn, T, h, y_hi):
    xs = np.arange(-T, T + h / 2, h)
    ys = np.arange(0, y_hi + h / 2, h)
    X, Y = np.meshgrid(xs, ys)
    return sb.GridFunction(h=h, origin=(-T, 0), values=fn(X, Y))


def test_dirichlet_constant_zero():
    u = grid_from(lambda X, Y: 0 * X + 3.7, 1, 1 / 50, 1)
    assert sb.dirichlet_norm(u) == 0


def test_dirichlet_linear_exact():
    n = 161
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs)
    u = sb.GridFunction(h=1 / (n - 1), origin=(0, 0), values=X)
    assert sb.dirichlet_norm(u) == pytest.approx(1.0, abs=1e-6)


def test_dirichlet_halfplane_analytic():
    u = grid_from(lambda X, Y: (-1 / ((X + 1j * Y) + 1j)).imag, 60, 0.05, 60)
    assert sb.dirichlet_norm(u) == pytest.approx(math.pi / 4, rel=0.02)


def test_dirichlet_empty_grid_rejected():
    with pytest.raises(YoccozError):
        sb.dirichlet_norm(sb.GridFunction(h=1, origin=(0, 0), values=np.zeros((0, 0))))


def test_halfplane_norm_constant():
    assert sb.halfplane_norm(lambda t: 2.5) == pytest.approx(0.0, abs=1e-12)


def test_halfplane_norm_analytic():
    v = sb.halfplane_norm(lambda t: 1 / (1 + t * t))
    assert v == pytest.approx(math.pi / 4, rel=0.02)


def test_halfplane_matches_extension_energy():
    v = sb.halfplane_norm(lambda t: 1 / (1 + t * t))
    u = grid_from(lambda X, Y: (-1 / ((X + 1j * Y) + 1j)).imag, 60, 0.05, 60)
    e = sb.dirichlet_norm(u)
    assert v == pytest.approx(e, rel=0.03)


def test_halfplane_step_diverges():
    with pytest.raises(NotFiniteEnergyError):
        sb.halfplane_norm(lambda t: 0.0 if t < 0 else 1.0)


def test_kernel_constant_is_one():
    assert sb.kernel_constant() == pytest.approx(1.0, abs=1e-6)


def test_strip_iij_constant_zero():
    f = sb.BoundaryFn.from_callable(lambda t: 1.0, 20, 801)
    assert sb.strip_Iij(f, f) == (0, 0, 0, 0)


def test_strip_iij_conformal_transport():
    """I00 equals the half-plane kernel integral after the z -> e^z change of
    variables (independent quadratures agree)."""
    g0 = lambda s: math.exp(-s * s / 8)
    f0 = sb.BoundaryFn.from_callable(g0, 25, 2001)
    i00 = sb.strip_Iij(f0, f0)[0]

    T, n_t, n_log = 25.0, 1601, 160
    ts = np.linspace(-T, T, n_t)
    wt = np.gradient(ts)
    gt = np.array([g0(t) for t in ts])
    rs = np.exp(np.linspace(math.log(1e-6), math.log(2 * T), n_log))
    wr = np.gradient(np.log(rs)) * rs
    total = 0.0
    for sign in (1.0, -1.0):
        for r, w in zip(sign * rs, wr):
            gs = np.array([g0(min(max(t + r, -T), T)) for t in ts])
            total += w * float(
                (((gs - gt) ** 2) / (np.exp(r / 2) - np.exp(-r / 2)) ** 2 * wt).sum()
            )
    assert i00 == pytest.approx(total, rel=0.02)


def test_strip_iij_symmetry_and_divergence_guard():
    g = lambda t: math.tanh(t / 2)
    f = sb.BoundaryFn.from_callable(g, 25, 1201)
    i00, i01, i10, i11 = sb.strip_Iij(f, f)
    assert i01 == pytest.approx(i10, rel=1e-12)
    assert i00 == pytest.approx(i11, rel=1e-12)
    mismatched = sb.BoundaryFn.from_callable(g, 25, 1201)
    mismatched = sb.BoundaryFn(mismatched.ts, mismatched.values, -1.0, 0.5)
    with pytest.raises(YoccozError):
        sb.strip_Iij(f, mismatched)


def test_i00_of_trace_is_strip_iij_i00():
    f = sb.BoundaryFn.from_callable(lambda t: math.tanh(t / 2) + 0.3 * math.sin(t), 12, 601)
    assert sb._i00_of_trace(f) == sb.strip_Iij(f, f)[0]


def _seeded_boundary(rng, ts, kind):
    """Boundary data on ts: smooth bumps, rough noise, or noise with a unit
    jump across a gap of 1e-8 at a random abscissa (on which I00 and I11
    diverge under refinement)."""
    if kind == "jump":
        cut = rng.uniform(-2, 2)
        ts = np.sort(np.r_[ts, cut, cut + 1e-8])
    if kind == "smooth":
        v = sum(rng.normal() * np.exp(-((ts - rng.uniform(-3, 3)) / rng.uniform(0.3, 2)) ** 2)
                for _ in range(3))
    else:
        v = 0.3 * rng.normal(size=len(ts))
        if kind == "jump":
            v += ts > cut
    return sb.BoundaryFn(ts, v, float(v[0]), float(v[-1]))


def _pair_outcome(integral, fi, fj, i, j, T):
    try:
        return "value", integral(fi, fj, i, j, T)
    except YoccozError as exc:
        return "error", type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_pair_integral_matches_node_loop_oracle(seed):
    """The batched r-quadrature gives the node-by-node loop's float for all
    four (i, j), and its error where a jump makes the refinement diverge."""
    rng = np.random.default_rng(seed)
    T = rng.choice([4.0, 8.0])
    ts = np.linspace(-T, T, int(rng.integers(101, 330)))
    seen = set()
    for kinds in (("smooth", "smooth"), ("rough", "smooth"), ("jump", "smooth"), ("jump", "jump")):
        fs = [_seeded_boundary(rng, ts, k) for k in kinds]
        for i in (0, 1):
            for j in (0, 1):
                got = _pair_outcome(sb._pair_integral, fs[i], fs[j], i, j, T)
                assert got == _pair_outcome(pair_integral, fs[i], fs[j], i, j, T)
                seen.add(got[0])
    assert seen == {"value", "error"}


def test_harmonic_extension_constant():
    f = sb.BoundaryFn.from_callable(lambda t: 0.7, 8, 201)
    ext = sb.harmonic_extension_strip(f, f, ny=33)
    assert sb.dirichlet_norm(ext) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ext.values, 0.7, atol=1e-8)


def test_harmonic_extension_matches_kernel_formula():
    g = lambda t: math.exp(-((t - 0.4) ** 2))
    h = lambda t: 0.5 * math.exp(-((t + 1.1) ** 2) / 2)
    f0 = sb.BoundaryFn.from_callable(g, 12, 1201)
    f1 = sb.BoundaryFn.from_callable(h, 12, 1201)
    iij = sb.strip_Iij(f0, f1)
    ext = sb.harmonic_extension_strip(f0, f1, ny=49)
    assert sb.dirichlet_norm(ext) == pytest.approx(sum(iij) / (2 * math.pi), rel=0.03)


def test_harmonic_extension_maximum_principle():
    g = lambda t: math.sin(t) * math.exp(-t * t / 9)
    f0 = sb.BoundaryFn.from_callable(g, 10, 801)
    f1 = sb.BoundaryFn.from_callable(lambda t: 0.0, 10, 801)
    ext = sb.harmonic_extension_strip(f0, f1, ny=33)
    assert ext.values.max() <= max(f0.values.max(), 0) + 1e-9
    assert ext.values.min() >= min(f0.values.min(), 0) - 1e-9


def _random_boundary_pair(seed, T=4.0, n=161):
    rng = np.random.default_rng(seed)
    ts = np.linspace(-T, T, n)
    v0, v1 = rng.normal(size=n), rng.normal(size=n)
    return (sb.BoundaryFn(ts, v0, float(v0[0]), float(v0[-1])),
            sb.BoundaryFn(ts, v1, float(v1[0]), float(v1[-1])))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_harmonic_extension_matches_sor_oracle(seed):
    f0, f1 = _random_boundary_pair(seed)
    ext = sb.harmonic_extension_strip(f0, f1, ny=33)
    ref = sor_extension_strip(f0, f1, ny=33)
    assert ext.h == ref.h and ext.origin == ref.origin and ext.values.shape == ref.values.shape
    assert np.abs(ext.values - ref.values).max() <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_harmonic_extension_is_discrete_harmonic(seed):
    f0, f1 = _random_boundary_pair(seed)
    u = sb.harmonic_extension_strip(f0, f1, ny=33).values
    lap = u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4 * u[1:-1, 1:-1]
    assert np.abs(lap).max() <= 1e-12


def test_verify_slitbounds():
    model = qc.strip_model(3)
    rep = sb.verify_slitbounds(model, trials=8, seed=3)
    assert rep.trials == 8 and rep.violations == 0
    assert rep.b_proof_sq == pytest.approx(151.0, abs=0.01)
    assert rep.max_ratio <= rep.b_proof_sq
    assert rep.max_squeeze <= 5.0 + 1e-9
    assert all(d.i00_bound_ok for d in rep.details)
    assert all(d.star_identity_err < 1e-10 for d in rep.details)
    parts = rep.b_proof_parts
    assert parts["i00_coeff"] == 25.0 and parts["i01_via_cs"] == 100.0
    assert parts["kernel_constant"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("depth", [0, 3, 8, 12])
def test_cut_edges_match_the_slit_loop(depth):
    """The one-pass cut matrix against the slit-by-slit loop, on the grid that
    verify_slitbounds uses and on a coarse one with many slits per column and
    many outside the window."""
    slits = qc.strip_model(depth).slits
    for T, ny in ((8.0, 65), (2.0, 9)):
        _, xs = sb._strip_grid(T, ny)
        ys = np.linspace(0.0, math.pi, ny)
        assert np.array_equal(sb._cut_edges(slits, xs, ys), cut_edges(slits, xs, ys)), (T, ny)
