"""Test oracle: the memoised pullback recursion for gap queries.

It bottoms out at the alpha polygon and shares its results through a memo
table.  The library answers the same queries from separation levels; the
tests check that both agree.
"""

from yoccoz.angles import ArcPosition, double, in_arc
from yoccoz.errors import OrbitHitsAlphaError, YoccozError
from yoccoz.puzzle import CRITICAL


class RecursionOracle:
    def __init__(self, lam):
        self.lam = lam
        self.memo = {}

    def _sector_index(self, theta):
        srt = list(self.lam.polygons[0][0])
        for i in range(len(srt)):
            if in_arc(theta, srt[i], srt[(i + 1) % len(srt)]) is ArcPosition.INSIDE:
                return i
        raise YoccozError(f"{theta} is a cycle angle")

    def _leaf_side(self, theta):
        return 0 if in_arc(theta, *self.lam.critical_leaf) is ArcPosition.INSIDE else 1

    def same_gap(self, level, u, w):
        """Gaps at level m are preimage components of gaps at level m-1;
        components are the two critical-leaf halves unless the image gap
        holds theta_v."""
        self.lam.guard_level(level)
        if u == w:
            return True
        key = (level, u, w) if u.num * w.den <= w.num * u.den else (level, w, u)
        if key in self.memo:
            return self.memo[key]
        if level == 0:
            res = self._sector_index(u) == self._sector_index(w)
        else:
            du, dw = double(u), double(w)
            if not self.same_gap(level - 1, du, dw):
                res = False
            elif self.same_gap(level - 1, du, self.lam.theta_v):
                res = True
            else:
                res = self._leaf_side(u) == self._leaf_side(w)
        self.memo[key] = res
        return res

    def gap_is_critical(self, level, theta):
        return self.same_gap(level, theta, self.lam.critical_leaf[0])

    def image_is_critical(self, theta, n, j):
        """Is the j-fold image of P_n(theta) the critical piece of level n-j?"""
        if theta == CRITICAL:
            if j == 0:
                return True
            psi = double(self.lam.theta_v, j - 1)
        else:
            psi = double(theta, j)
        return self.gap_is_critical(n - j, psi)

    def tau_direct(self, n, theta):
        """Reference scan: least j with the j-fold image of P_n critical, as n - j."""
        if theta != CRITICAL and self.lam.is_vertex(theta, n):
            raise OrbitHitsAlphaError(f"the orbit of {theta} meets the alpha cycle")
        for j in range(n + 1):
            if self.image_is_critical(theta, n, j):
                return n - j
        return -1
