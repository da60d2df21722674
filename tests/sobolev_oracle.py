"""Test oracle: the strip pair integral I_ij one signed r node at a time.

For each of the 240 signed nodes of the log r-quadrature it interpolates the
shifted boundary data, sums the kernel-weighted squared differences over the
window and adds the weighted sum to the total.  ``sobolev._pair_integral``
evaluates all nodes as one array and takes the row sums at once; the tests
check that both give the same float and the same divergence error.
"""

import numpy as np

from yoccoz.sobolev import BoundaryFn, _r_quadrature, _refined, strip_kernel


def pair_integral(fi: BoundaryFn, fj: BoundaryFn, i: int, j: int, T: float) -> float:
    wt = np.gradient(fj.ts)
    kern = strip_kernel(i, j)

    def value(r_min):
        rs, wr = _r_quadrature(T, 120, r_min)
        total = 0.0
        for sign in (+1.0, -1.0):
            for r, w in zip(sign * rs, wr):
                gs = np.interp(fj.ts + r, fi.ts, fi.values,
                               left=fi.limit_neg, right=fi.limit_pos)
                total += w * float(((gs - fj.values) ** 2 / kern(r) * wt).sum())
        return total

    if (i + j) % 2:
        return value(1e-4)  # bounded kernel, no singularity
    return _refined(value, lambda v1, v2: f"I{i}{j} diverges under refinement")
