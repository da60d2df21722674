"""Test oracle: red-black SOR relaxation for the strip's harmonic extension.

It iterates the 5-point Laplace update to a fixed update tolerance on the
same grid, boundary rows and end-column closure as
``sobolev.harmonic_extension_strip``, which solves the same system exactly
by a DST-I fast Poisson solve; the tests check that both agree.
"""

import math

import numpy as np

from yoccoz.sobolev import BoundaryFn, GridFunction


def sor_extension_strip(f0: BoundaryFn, f1: BoundaryFn, ny: int = 65,
                        tol: float = 1e-10, max_sweeps: int = 40_000) -> GridFunction:
    T = float(f0.ts[-1])
    h = math.pi / (ny - 1)
    nx = int(round(2 * T / h)) + 1
    xs = np.linspace(-T, T, nx)
    u = np.zeros((ny, nx))
    bot = np.interp(xs, f0.ts, f0.values)
    top = np.interp(xs, f1.ts, f1.values)
    u[0, :], u[-1, :] = bot, top
    frac = np.linspace(0.0, 1.0, ny)
    u[:, 0] = bot[0] + (top[0] - bot[0]) * frac
    u[:, -1] = bot[-1] + (top[-1] - bot[-1]) * frac
    interior = u[1:-1, 1:-1]
    interior[:] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])

    omega = 2.0 / (1.0 + math.sin(math.pi / max(nx, ny)))
    iy, ix = np.meshgrid(np.arange(1, ny - 1), np.arange(1, nx - 1), indexing="ij")
    red = ((iy + ix) % 2 == 0)
    for _ in range(max_sweeps):
        delta = 0.0
        for parity in (red, ~red):
            nbr = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])
            upd = (1 - omega) * u[1:-1, 1:-1] + omega * nbr
            diff = upd - u[1:-1, 1:-1]
            u[1:-1, 1:-1] = np.where(parity, upd, u[1:-1, 1:-1])
            delta = max(delta, float(np.abs(np.where(parity, diff, 0)).max()))
        if delta < tol:
            break
    else:
        raise RuntimeError(f"SOR did not reach {tol} in {max_sweeps} sweeps")
    return GridFunction(h=h, origin=(-T, 0.0), values=u)
