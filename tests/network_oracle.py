"""Test oracle: the grid resistor network assembled node by node and solved
directly by SuperLU.

It builds the free nodes' 5-point system by walking the four neighbour
directions, solves it with ``spsolve``, and sums the squared differences over
horizontal and vertical inside edges.  ``geometry.modulus_estimate`` forms the
same system from the grid's edge-node incidence matrix and solves it by CG
preconditioned with a Galerkin V-cycle (damped-Jacobi smoothing, one
``splu`` on at most 300 coarsest unknowns); the tests check that both give
the same modulus.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from yoccoz.errors import InvalidRegionError
from yoccoz.geometry import GridMask


def network_modulus(mask: GridMask) -> float:
    mask.validate()
    u = solve_network(mask)
    energy = grid_energy(u, mask.inside)
    if energy <= 0:
        raise InvalidRegionError("zero energy: electrodes disconnected?")
    return 1.0 / energy


def solve_network(mask: GridMask) -> np.ndarray:
    inside, inner, outer = mask.inside, mask.inner, mask.outer
    ny, nx = inside.shape
    unknown = inside & ~inner & ~outer
    idx = -np.ones((ny, nx), dtype=np.int64)
    ids = np.flatnonzero(unknown.ravel())
    idx.ravel()[ids] = np.arange(len(ids))
    n = len(ids)

    uy, ux = np.nonzero(unknown)
    rows: list = []
    cols: list = []
    vals: list = []
    rhs = np.zeros(n)
    diag = np.zeros(n)
    me_all = np.arange(n)
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        yy, xx = uy + dy, ux + dx
        ok = (yy >= 0) & (yy < ny) & (xx >= 0) & (xx < nx)
        yin, xin, me = yy[ok], xx[ok], me_all[ok]
        nbr_inside = inside[yin, xin]
        diag[me[nbr_inside]] += 1.0
        sel = nbr_inside & unknown[yin, xin]
        rows.append(me[sel])
        cols.append(idx[yin[sel], xin[sel]])
        vals.append(np.full(int(sel.sum()), -1.0))
        sel_out = nbr_inside & outer[yin, xin]
        rhs[me[sel_out]] += 1.0
    rows.append(me_all)
    cols.append(me_all)
    vals.append(diag)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    u_flat = spla.spsolve(A.tocsc(), rhs)
    u = np.zeros((ny, nx))
    u[outer] = 1.0
    u[uy, ux] = u_flat
    return u


def grid_energy(u: np.ndarray, inside: np.ndarray) -> float:
    ex = inside[:, :-1] & inside[:, 1:]
    ey = inside[:-1, :] & inside[1:, :]
    dx = (u[:, 1:] - u[:, :-1])[ex]
    dy = (u[1:, :] - u[:-1, :])[ey]
    return float((dx**2).sum() + (dy**2).sum())
