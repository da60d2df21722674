"""Test oracle of the reach form: the critical-orbit queries by Angle.

The j-th image of P_m(0) is asked as a gap query about the angle
c_{j-1} = 2^{j-1} theta_v against the critical leaf, through the reduced-pair
walk of orbit_record_oracle.same_gap, and the descendant and renormalization
searches walk those queries one (m, j) at a time; renormalization returns
walk the orbit as Angles until one repeats.  The library answers all of
them from the reach r_k = k + 1 + l_k of the critical orbit
(Lamination.reach) by the image, descendant and renormalization rules; the
tests check that both agree, errors included.  The walk keeps the old
path's errors: its guard refused c_k where it is a vertex, and it named a
cycle angle that c_k reached before the split.
"""

from yoccoz.angles import double
from yoccoz.errors import NotFoundWithinBudgetError
from yoccoz.renorm import RenormReport

from orbit_record_oracle import same_gap


def image_is_critical(lam, m, j):
    """Is f^j(P_m(0)) the critical piece of level m - j?"""
    return j == 0 or same_gap(lam, m - j, double(lam.theta_v, j - 1), lam.critical_leaf[0])


def descendant_check(lam, m, n):
    if m <= n:
        raise ValueError("need m > n")
    passes = 0
    for j in range(m - n):
        outer_crit = image_is_critical(lam, m, j)
        inner_crit = image_is_critical(lam, m + 1, j)
        if outer_crit:
            if not inner_crit:
                return False, 0
            passes += 1
    if not image_is_critical(lam, m, m - n):
        return False, 0
    if not image_is_critical(lam, m + 1, m - n):
        return False, 0
    return True, 1 << passes


def descendant_levels(lam, n, budget):
    out = []
    for m in range(n + 1, n + budget + 1):
        ok, deg = descendant_check(lam, m, n)
        if ok:
            out.append((m, deg))
    return out


def fraternal_descendants(lam, n, budget):
    levels = [m for m, _ in descendant_levels(lam, n, budget)]
    for i, m1 in enumerate(levels):
        for m2 in levels[i + 1:]:
            if not descendant_check(lam, m2, m1)[0]:
                return m1, m2
    raise NotFoundWithinBudgetError(budget, f"no fraternal descendants of A_{n} within {budget}")


def returns_forever(lam, n, k):
    h = lam.critical_leaf[0]
    seen = set()
    psi = double(lam.theta_v, n - 1)
    while psi not in seen:
        if not same_gap(lam, k + n, psi, h):
            return False
        seen.add(psi)
        psi = double(psi, n)
    return True


def detect(lam, budget):
    for n in range(2, budget + 1):
        for k in range(0, budget + 1):
            if not image_is_critical(lam, k + n, n):
                continue
            if any(image_is_critical(lam, k + n, j) for j in range(1, n)):
                continue
            if not returns_forever(lam, n, k):
                continue
            kind = "satellite" if n == lam.q else "primitive"
            return RenormReport(True, n, k, kind, budget)
    return RenormReport(False, None, None, None, budget)
