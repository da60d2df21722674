"""Test oracle: the orbit queries that the one-record-per-angle path replaced.

Each query walked the angle's orbit again, one reduced (num, den) pair per
point, with a divmod per sector test: ``is_vertex`` by testing the pairs
against the cycle, ``same_gap`` by the pair walk plus a backward pass over
every critical-orbit slot at every level, and ``tau_sequence`` by one more
vertex walk and one more walk and pass.  ``cycle_entry_step`` walked one
``Angle`` per point, and ``classify_case`` took its entry step from it.  The
library builds one orbit record per (angle, level) and answers all of them
from it; the tests check that both agree, errors included.

``guard_level`` is the library's guard as it was when it also refused the
critical-orbit points c_k = 2^k theta_v at the levels where they are
vertices, from a (num, den) -> k table, and ``separation`` is the pair walk
as it was when it named the first cycle angle either orbit reached before
the pair split.  The library now refuses every vertex of depth <= level up
front (``Lamination._refuse_vertex``), so its guard reads the level only.

The record's cycle hit, ``is_vertex`` and ``vertex_entry_step`` then walked
the orbit over one denominator until it reached a cycle angle, testing every
point against the cycle (``points``); the library reads them in closed form
from the 2-adic valuation of the denominator.  Those three walks are kept
here as well, with the per-point cycle test that ``Lamination._points`` no
longer makes.
"""

from bisect import bisect_left, bisect_right
from itertools import islice

from yoccoz.angles import Angle, double
from yoccoz.errors import Case1DegenerateError, OrbitHitsAlphaError, YoccozError
from yoccoz.lamination import alpha_cycle, build
from yoccoz.puzzle import CRITICAL
from yoccoz.tiling import CaseTag, ResidualStatus


def _double(num, den):
    if den % 2 == 0:
        den //= 2
        return num % den, den
    return 2 * num % den, den


def position(lam, num, den):
    """(level-0 sector index, critical-leaf side) of the angle num/den."""
    k, rem = divmod(num * ((1 << lam.q) - 1), den)
    nums = lam._cycle_nums
    if rem:
        count = bisect_right(nums, k)
    else:
        count = bisect_left(nums, k)
        if count < len(nums) and nums[count] == k:
            raise YoccozError(f"{Angle(num, den)} is a cycle angle")
    h = lam.critical_leaf[0]
    inside = h.num * den < num * h.den and 2 * num * h.den < (2 * h.num + h.den) * den
    return (count - 1) % lam.q, 0 if inside else 1


def guard_level(lam, level, *angles):
    """Late landing: gaps exist below entry_step only, and the gap of
    c_k = 2^k theta_v only below entry_step - k."""
    if level < 0:
        raise ValueError("level must be >= 0")
    e = lam.entry_step
    if e is None:
        return
    if level >= e:
        raise Case1DegenerateError(e)
    index = {x: k for k, x in enumerate(lam._orbit_pairs)}
    for t in angles:
        k = index.get((t.num, t.den))
        if k is not None and k + level >= e:
            raise Case1DegenerateError(e)


def cycle_entry_step(theta, cycle):
    """Least j >= 0 with 2^j * theta in the cycle, or None if the orbit misses it."""
    seen = set()
    cur, j = theta, 0
    while cur not in seen:
        if cur in cycle:
            return j
        seen.add(cur)
        cur = double(cur)
        j += 1
    return None


def classify_case(p, q, theta_v, depth, lam=None):
    """tiling.classify_case with the entry step from the Angle-by-Angle walk."""
    entry = cycle_entry_step(theta_v, frozenset(alpha_cycle(p, q)))
    if entry is not None:
        return CaseTag("TrivialCase1", entry, f"2^{entry} theta_v lies in the alpha cycle")
    if lam is None:
        lam = build(p, q, theta_v, 1)
    d = max(1, max(lam.critical_leaf_levels))
    if d <= depth:
        return CaseTag("PresumedNonRecurrent", depth, f"no return into the level-{d} critical piece")
    return CaseTag("Recurrent", depth)


def is_vertex(lam, theta, level):
    cycle = {(a.num, a.den) for a in lam.cycle}
    x = (theta.num, theta.den)
    for _ in range(level + 1):
        if x in cycle:
            return True
        x = _double(*x)
    return False


def points(lam, num, den):
    """Lamination._points with its per-point cycle test: (x, position) for
    x = 2^m num mod den, m = 0, 1, ..., the position None at a cycle angle."""
    q, h = lam.q, lam.critical_leaf[0]
    thresholds = [c * den for c in lam._cycle_nums]
    lo, hi = h.num * den // h.den, -(-(2 * h.num + h.den) * den // h.den)
    x = num
    while True:
        v = (x << q) - x
        i = bisect_left(thresholds, v)
        if i < q and thresholds[i] == v:
            yield x, None
        else:
            yield x, ((i - 1) % q, 0 if lo < x and 2 * x < hi else 1)
        x *= 2
        if x >= den:
            x -= den


def orbit_hit_walk(lam, theta, level):
    """Lamination.orbit's forward walk: the least m <= level at which 2^m theta
    is a cycle angle (else None), and the positions of the points before it."""
    pos = []
    for m, (_, where) in zip(range(level + 1), points(lam, theta.num, theta.den)):
        if where is None:
            return m, pos
        pos.append(where)
    return None, pos


def is_vertex_walk(lam, theta, level):
    """Bounded walk: does the orbit meet the cycle within `level` doublings?"""
    walk = islice(points(lam, theta.num, theta.den), level + 1)
    return any(where is None for _, where in walk)


def vertex_entry_walk(lam, theta):
    """The walk to the first cycle angle or the first repeat.  Only the x_m
    with m >= a (den = 2^a b, b odd) are multiples of 2^a, and doubling
    permutes them, so the first point to come back is x_a."""
    a = (theta.den & -theta.den).bit_length() - 1
    for m, (x, where) in enumerate(points(lam, theta.num, theta.den)):
        if where is None:
            return m
        if m == a:
            start = x
        elif m > a and x == start:
            return None


def orbit_levels(lam, theta, n):
    """Positions of 2^m theta (m = 0..n) and min(L(2^m theta, theta_v), n + 1 - m)
    (m = 0..n+1), by one O(n P) backward pass over the whole critical orbit."""
    pos, x = [], (theta.num, theta.den)
    for _ in range(n + 1):
        pos.append(position(lam, *x))
        x = _double(*x)
    orbit_pos, succ = lam._orbit_pos, lam._succ
    row = [0] * len(succ)
    out = [0] * (n + 2)
    for m in range(n, -1, -1):
        cap = n + 1 - m
        s, d = pos[m]
        to_value = row[0]
        new = []
        for (ks, kd), t in zip(orbit_pos, succ):
            if ks != s:
                new.append(0)
                continue
            v = cap if t is None else row[t]
            if kd != d and to_value < v:
                v = to_value
            new.append(min(v + 1, cap))
        row = new
        out[m] = row[0]
    return pos, out


def orbit_leaf_levels(lam, theta, n):
    pos, r = orbit_levels(lam, theta, n)
    return [0 if pos[j][0] != lam._leaf_sector else 1 + r[j + 1] for j in range(n + 1)]


def separation(lam, level, u, w):
    """min(L(u, w), level + 1), testing at every step whether the two reduced
    pairs have met."""
    guard_level(lam, level, u, w)
    cap = level + 1
    flips, stop = [], cap
    x, y = (u.num, u.den), (w.num, w.den)
    for j in range(cap):
        if x == y:
            break
        (su, du), (sw, dw) = position(lam, *x), position(lam, *y)
        if su != sw:
            stop = j
            break
        if du != dw:
            flips.append(j)
        x, y = _double(*x), _double(*y)
    if not flips:
        return stop
    r = orbit_levels(lam, u, level)[1]
    return min(stop, min(j + 1 + r[j + 1] for j in flips))


def same_gap(lam, level, u, w):
    return separation(lam, level, u, w) > level


def tau_sequence(lam, theta, n_max, start=0):
    if theta != CRITICAL and is_vertex(lam, theta, n_max):
        raise OrbitHitsAlphaError(f"the orbit of {theta} meets the alpha cycle within {n_max} steps")
    if start <= n_max:
        lam.guard_level(n_max)
    if theta == CRITICAL:
        return list(range(start, n_max + 1))
    reach = [j + lv for j, lv in enumerate(orbit_leaf_levels(lam, theta, n_max))]
    values = []
    j = 0
    for n in range(start, n_max + 1):
        while j <= n and reach[j] <= n:
            j += 1
        values.append(n - j if j <= n else -1)
    return values


def residual_member(lam, theta, p, L, depth):
    """Four walks per angle: two vertex tests, the gap query and tau's pass."""
    if theta != CRITICAL:
        if is_vertex(lam, theta, depth):
            return ResidualStatus.ORBIT_HITS_ALPHA
        if not same_gap(lam, p, theta, lam.critical_leaf[0]):
            raise ValueError(f"{theta} is not in the level-{p} critical piece")
    taus = tau_sequence(lam, theta, depth, start=p)
    if any(t <= L for t in taus):
        return ResidualStatus.NOT_R
    return ResidualStatus.IN_R_TO_DEPTH
