"""Invariant laminations for the p/q limb: the alpha-ray cycle, its pullbacks,
ray-pair equivalence, and the slice dynamics on the critical-value sector.

Everything is built in integers: every vertex at depth j is a numerator n
over D_j = (2^q - 1) 2^j, whose halves are n and n + D_j over D_{j+1}, so a
layer's cyclic order is integer order and the side of the critical leaf one
comparison with an integer cut.  The level-n gap traces (the boundary arcs of
puzzle pieces) are sorted (start, end) numerator pairs over D_n, pulled back
the same way.  Reduced ``Angle``s appear only at output:
``Lamination.polygons`` builds them on first read, and a piece's boundary
(puzzle.PieceRef) once per piece.

Gap queries at any level come from the separation level L(u, w), the least
level at which u and w lie in different gaps: L = 0 across the sectors of the
alpha polygon, else L = 1 + min(L(2u, 2w), L(2u, theta_v)), the second term
only if the critical leaf separates u and w.  Rational orbits are eventually
periodic, so L(c, theta_v) on the critical-value orbit is one
shortest-path search at build time, and L against any other orbit one
backward pass capped at the query level: no recursion, no memo, any level
(2^40 polygons cannot be stored).  A query angle gets one orbit record
(``Lamination.orbit``).  Over den = 2^a b (b odd) its orbit is periodic from
2^a theta on, so it meets the alpha cycle (a vertex) there or never
(``vertex_entry_step``).  Off the cycle, one forward walk gives the positions
of its orbit, and one backward pass over the critical orbit slots of each
position's sector gives the capped levels, which answer every level up to
the record's.  The images of the critical piece read the reach
r_k = k + 1 + l_k of c_k = 2^k theta_v (``reach``), the critical column of
the Branner-Hubbard tableau: f^j(P_m(0)) is critical iff r_{j-1} > m.
Tests cross-check the queries against the stored lists.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice
from fractions import Fraction

from .angles import Angle, ArcPosition, double, from_fraction, in_arc, normalize, two_adic
from .errors import (
    Case1DegenerateError,
    InvalidThetaError,
    NeedsDeeperLaminationError,
    NotFoundWithinBudgetError,
    YoccozError,
)

MAX_MATERIALIZED_DEPTH = 18
MAX_TRACE_ARCS = 1 << 20  # arcs of one gap trace; 2^20 arcs take about 4.5 s and 270 MB
NEVER = math.inf  # separation level of two angles that no level separates


def alpha_cycle(p: int, q: int) -> list[Angle]:
    """The unique period-q cycle of doubling acting as rotation by p/q.

    Closed form for rotation sets (Goldberg; Bullett-Sentenac): binary digit
    i = 0..q-1 of the least cycle angle is 1 iff (i p mod q) >= q - p.  The
    cycle is that angle's q doublings, sorted.  Doubling an odd denominator
    keeps gcd(num, den), so one gcd reduces the whole cycle.
    """
    from math import gcd

    if q < 2 or not (0 < p < q) or gcd(p, q) != 1:
        raise ValueError(f"need coprime 0 < p < q with q >= 2, got {p}/{q}")
    den = (1 << q) - 1
    num = 0
    for i in range(q):
        num = 2 * num + (i * p % q >= q - p)
    g = gcd(num, den)
    num, den = num // g, den // g
    orbit = []
    for _ in range(q):
        orbit.append(num)
        num = 2 * num % den
    return [Angle(v, den) for v in sorted(orbit)]


Arc = tuple[int, int]  # open ccw arc (start, end): numerators over one D_n


def _inside(arc: Arc, den: int, x: int, d: int) -> bool:
    """x/d lies strictly inside the ccw arc (a, b) over den: its ccw distance
    from a is positive and less than the arc's length, cross-multiplied."""
    a, b = arc
    return 0 < (x * den - a * d) % (den * d) < (b - a) % den * d


def _on_trace(arcs: tuple[Arc, ...], den: int, x: int, d: int) -> bool:
    """x/d lies inside an arc of a sorted trace over den: the last arc that
    starts before it (a d < x den; cyclically, the last arc if none does)."""
    return _inside(arcs[bisect_right(arcs, ((x * den - 1) // d, den)) - 1], den, x, d)


@dataclass
class SliceData:
    """Exact angle data of the univalent slice dynamics in the sector (A, D).

    Cyclic order A < B_k < E < B < C < F < C_k < D; f^{kq} maps the outer
    slice pair back, f^{m+kq} flips it (the two contractions l1, l2).
    """

    A: Angle
    B: Angle
    C: Angle
    D: Angle
    E: Angle
    F: Angle
    B_k: Angle
    C_k: Angle
    n: int
    m: int
    k: int
    q: int


@dataclass(frozen=True, slots=True)
class Orbit:
    """The orbit record of a query angle to ``level`` (Lamination.orbit)."""

    theta: Angle
    hit: int | None  # least m <= level with 2^m theta a cycle angle (a vertex), else None
    pos: list[tuple[int, int]]  # (sector, leaf side) of 2^m theta for m = 0..level; [] on a hit
    to_value: list  # min(L(2^m theta, theta_v), level + 1 - m) for m = 0..level+1; [] on a hit
    leaf: list  # min(L(2^m theta, leaf), level + 1 - m) for m = 0..level; [] on a hit
    cells: int  # row cells the backward pass visited


def _off_cycle(rec: Orbit) -> Orbit:
    """The record, if its orbit misses the alpha cycle up to its level."""
    if rec.hit is not None:
        raise YoccozError(f"{double(rec.theta, rec.hit)} is a cycle angle")
    return rec


class RayPairRelation(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not-equivalent-to-depth"
    UNKNOWN = "unknown"


class Lamination:
    """Pullbacks of the alpha polygon through doubling, split by the critical leaf."""

    def __init__(self, p: int, q: int, theta_v: Angle, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth > MAX_MATERIALIZED_DEPTH:
            raise ValueError(f"refusing to materialize beyond depth {MAX_MATERIALIZED_DEPTH}")
        self.p, self.q = p, q
        self.theta_v = theta_v
        self.depth = depth
        cyc = alpha_cycle(p, q)
        self.cycle = tuple(cyc)
        full = (1 << q) - 1
        nums = self._cycle_nums = [a.num * (full // a.den) for a in cyc]  # sorted, over D_0
        # the level-0 sectors (c_i, c_{i+1}) over D_0, the last wrapping past 0
        self._sectors = [(c, nums[(i + 1) % q]) for i, c in enumerate(nums)]
        num, den = theta_v.num, theta_v.den
        self.critical_leaf = (normalize(num, 2 * den), normalize(num + den, 2 * den))
        self.entry_step = self.vertex_entry_step(theta_v)
        # the critical-value sector is the shortest
        s = min(range(q), key=lambda i: (self._sectors[i][1] - self._sectors[i][0]) % full)
        self.sector = (cyc[s], cyc[(s + 1) % q])
        inside = in_arc(theta_v, *self.sector) is ArcPosition.INSIDE
        # Degeneracy wins over the sector test at any depth (the 1/6 example is
        # case 1); inside the sector a landing past depth still builds, with
        # entry_step recording it.
        if self.entry_step is not None and (self.entry_step <= depth or not inside):
            raise Case1DegenerateError(self.entry_step)
        if not inside:
            raise InvalidThetaError(
                f"theta_v={theta_v} is not strictly inside the critical-value sector "
                f"({self.sector[0]}, {self.sector[1]})"
            )

        # layers[j]: the depth-j polygons as sorted numerators over layer_den(j)
        self.layers: list[list[tuple[int, ...]]] = [[tuple(self._cycle_nums)]]
        for j in range(depth):
            self.layers.append(self._split(self.layers[j], j))

        orbit, self._orbit_pos, last = self._critical_value_orbit()
        self._orbit_pairs = orbit
        self._succ = list(range(1, len(orbit))) + [last]
        to_value = self._critical_values()
        h = self.critical_leaf[0]
        self._leaf_sector = next(self._points(h.num, h.den))[1][0]
        # L(c_k, leaf) = 1 + L(c_{k+1}, theta_v) inside the leaf's sector
        self.critical_leaf_levels = tuple(
            0 if s != self._leaf_sector else 1 + (NEVER if t is None else to_value[t])
            for (s, _), t in zip(self._orbit_pos, self._succ)
        )
        # (sector, side) -> the orbit slots k in that sector, and for each the
        # pair (successor, side differs); a cycle-angle successor is the
        # sentinel slot len(_succ)
        live: dict[tuple[int, int], tuple[list, list]] = {}
        for k, ((s, d), t) in enumerate(zip(self._orbit_pos, self._succ)):
            for side in (0, 1):
                slots, steps = live.setdefault((s, side), ([], []))
                slots.append(k)
                steps.append((len(orbit) if t is None else t, d != side))
        self._live = {key: (tuple(slots), tuple(steps)) for key, (slots, steps) in live.items()}

    # ------------------------------------------------------------------ build

    def _critical_value_orbit(self):
        """The critical-value orbit c_k = 2^k theta_v up to its first repeat or
        its entry step (late landing): reduced (num, den) pairs, their
        positions, and the slot that the last point doubles to (None: a cycle
        angle).  Over D = 2^a b (b odd), c_k is x_k / D reduced by 2^min(k, a),
        periodic iff k >= a, so c_a is the first to come back."""
        D = self.theta_v.den
        a = two_adic(D)
        orbit, pos = [], []
        for k, (x, where) in enumerate(self._points(self.theta_v.num, D)):
            j = min(k, a)
            if k == self.entry_step:
                return orbit, pos, None
            if k > a and (x >> j, D >> j) == orbit[a]:
                return orbit, pos, a
            orbit.append((x >> j, D >> j))
            pos.append(where)

    def _points(self, num: int, den: int):
        """The orbit of num/den under doubling, as (x, position) for its points
        x/den, x = 2^m num mod den, m = 0, 1, ...; the position is (level-0
        sector, leaf side), meaningless at a cycle angle, where the callers
        stop (vertex_entry_step).  Over one denominator a doubling is a shift
        and a subtraction, x/den lies past the cycle angle c/(2^q - 1) iff
        c den < x (2^q - 1), a bisection over thresholds set once, and inside
        the leaf arc (h, h + 1/2) iff lo < x and 2x < hi for the integer
        bounds lo = floor(h den) and hi = ceil((2h + 1) den)."""
        q, h = self.q, self.critical_leaf[0]
        thresholds = [c * den for c in self._cycle_nums]
        lo, hi = h.num * den // h.den, -(-(2 * h.num + h.den) * den // h.den)
        x = num
        while True:
            i = bisect_left(thresholds, (x << q) - x)
            yield x, ((i - 1) % q, 0 if lo < x and 2 * x < hi else 1)
            x *= 2
            if x >= den:
                x -= den

    def layer_den(self, j: int) -> int:
        """D_j = (2^q - 1) 2^j, the common denominator of the depth-j vertices."""
        return ((1 << self.q) - 1) << j

    def _cut(self, j: int) -> tuple[int, int]:
        """divmod(h D_{j+1}, 1) for the leaf end h (see _split)."""
        h = self.critical_leaf[0]
        return divmod(h.num * self.layer_den(j + 1), h.den)

    def _split(self, polys, j: int) -> list[tuple[int, ...]]:
        """Preimages of depth-j polygons (numerators over D_j): for each, the
        polygon inside the critical leaf's arc (h, h + 1/2), then the one
        outside, as numerators over D_{j+1}.  The halves of n are n and n + D_j;
        a low half n lies inside iff n > h D_{j+1}, and of each antipodal pair
        exactly one does, so both polygons come out sorted."""
        den = self.layer_den(j)
        cut, rem = self._cut(j)
        out = []
        for verts in polys:
            k = bisect_right(verts, cut)
            if not rem and k and verts[k - 1] == cut:
                raise Case1DegenerateError(j)  # its halves are the leaf ends
            out.append(verts[k:] + tuple(n + den for n in verts[:k]))
            out.append(verts[:k] + tuple(n + den for n in verts[k:]))
        return out

    @cached_property
    def critical_orbit(self) -> tuple[Angle, ...]:
        """The orbit points c_k as reduced angles, built on first read."""
        return tuple(Angle(*c) for c in self._orbit_pairs)

    @cached_property
    def _orbit_index(self) -> dict[tuple[int, int], int]:
        """(num, den) of c_k -> k, built on the first late-landing guard."""
        return {x: k for k, x in enumerate(self._orbit_pairs)}

    @cached_property
    def polygons(self) -> list[list[tuple[Angle, ...]]]:
        """The layers as vertex tuples of reduced angles (cyclically ordered,
        smallest first), built on first read."""
        return [[tuple(normalize(n, den) for n in verts) for verts in layer]
                for j, layer in enumerate(self.layers) for den in (self.layer_den(j),)]

    def _critical_values(self) -> list:
        """L(c_a, theta_v) for every orbit point c_a, in O(P) memory.  The pair
        (c_{a+t}, c_t) first splits sectors at some t, or never (it meets
        itself, or repeats within P steps); each leaf split before that adds
        the candidate t + 1 + L(c_{a+t+1}, theta_v).  That is a shortest-path
        problem on the orbit.  A cycle-angle successor (late landing) ends the
        walk; guard_level keeps queries off the levels where that matters."""
        pos, succ, n = self._orbit_pos, self._succ, len(self._succ)
        dist = [NEVER] * n
        into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a in range(n):
            i, j = a, 0
            for t in range(n + 1):
                if i == j or i is None:
                    break
                if pos[i][0] != pos[j][0]:
                    dist[a] = t
                    break
                if pos[i][1] != pos[j][1] and succ[i] is not None:
                    into[succ[i]].append((a, t + 1))
                i, j = succ[i], succ[j]
        heap = [(d, a) for a, d in enumerate(dist) if d != NEVER]
        heapify(heap)
        while heap:
            d, b = heappop(heap)
            if d == dist[b]:
                for a, w in into[b]:
                    if d + w < dist[a]:
                        dist[a] = d + w
                        heappush(heap, (d + w, a))
        return dist

    # --------------------------------------------------------------- queries

    def orbit(self, theta: Angle, level: int) -> Orbit:
        """The orbit record of theta to ``level``: its cycle hit from
        vertex_entry_step and, if it meets none by ``level``, one forward walk
        and one backward pass.  Its capped values answer every level m <= level
        too: min(L, m + 1 - k) equals min(min(L, level + 1 - k), m + 1 - k)."""
        if level < 0:
            raise ValueError("level must be >= 0")
        e = self.vertex_entry_step(theta)
        if e is not None and e <= level:
            return Orbit(theta, e, [], [], [], 0)
        pos = [where for _, where in islice(self._points(theta.num, theta.den), level + 1)]
        to_value, cells = self._backward(pos, level)
        leaf = [0 if s != self._leaf_sector else 1 + to_value[m + 1]
                for m, (s, _) in enumerate(pos)]
        return Orbit(theta, None, pos, to_value, leaf, cells)

    def _backward(self, pos, level: int) -> tuple[list, int]:
        """min(L(2^m theta, theta_v), level + 1 - m) for m = 0..level+1, and the
        row cells visited.  The row at m holds min(L(2^m theta, c_k), cap) over
        the orbit slots k; it is zero outside the sector of 2^m theta and follows
        from the row at m + 1, so a step touches only that sector's slots.  The
        sentinel slot holds the cap of the row above: its values never exceed
        it, so v + 1 needs no further cap."""
        live, sentinel, none = self._live, len(self._succ), ((), ())
        row = [0] * (sentinel + 1)
        out = [0] * (level + 2)
        prev: tuple = ()
        cells = 0
        for m in range(level, -1, -1):
            row[sentinel] = level - m
            to_value = row[0]
            slots, steps = live.get(pos[m], none)
            new = [(to_value if differs and to_value < row[t] else row[t]) + 1
                   for t, differs in steps]
            for k in prev:
                row[k] = 0
            for k, v in zip(slots, new):
                row[k] = v
            prev = slots
            out[m] = row[0]
            cells += len(slots)
        return out, cells

    def separation(self, level: int, u: Angle, w: Angle) -> int:
        """min(L(u, w), level + 1) for the separation level L(u, w), the least
        level at which u and w lie in different pieces (neither may be a
        vertex at this level)."""
        self.guard_level(level, u, w)
        cap = level + 1
        # 2^s u = 2^s w iff 2^s (u - w) is an integer: the orbits meet at step
        # s if u - w has denominator 2^s, else never
        d = (u.frac - w.frac).denominator
        meet = two_adic(d) if d & (d - 1) == 0 else cap
        hits = (self.vertex_entry_step(u), self.vertex_entry_step(w))
        # walk the pair's orbits to their first sector split; every leaf
        # split before it adds a candidate j + 1 + L(2^(j+1) u, theta_v)
        flips, stop = [], cap
        pair = zip(range(min(cap, meet)), self._points(u.num, u.den), self._points(w.num, w.den))
        for j, (_, at_u), (_, at_w) in pair:
            if j in hits:
                raise YoccozError(f"{double(u if j == hits[0] else w, j)} is a cycle angle")
            if at_u[0] != at_w[0]:
                stop = j
                break
            if at_u[1] != at_w[1]:
                flips.append(j)
        if not flips:
            return stop
        r = _off_cycle(self.orbit(u, level)).to_value
        return min(stop, min(j + 1 + r[j + 1] for j in flips))

    def vertex_entry_step(self, theta: Angle) -> int | None:
        """Least depth at which theta is a polygon vertex (None: never).  Over
        den = 2^a b (b odd), 2^m theta has an even denominator for m < a and
        2^a theta = (num mod b)/b is periodic, as the cycle is: the orbit
        meets the cycle at step a, if (num mod b)/b = c/(2^q - 1), or never."""
        a = two_adic(theta.den)
        b, full = theta.den >> a, (1 << self.q) - 1
        return a if full % b == 0 and theta.num % b * (full // b) in self._cycle_nums else None

    def is_vertex(self, theta: Angle, level: int) -> bool:
        """theta is a polygon vertex of depth <= level."""
        e = self.vertex_entry_step(theta)
        return e is not None and e <= level

    def guard_level(self, level: int, *angles: Angle):
        """Late landing: theta_v meets the cycle after entry_step doublings, so
        gaps exist below that level only, and the gap of c_k = 2^k theta_v
        only below entry_step - k."""
        if level < 0:
            raise ValueError("level must be >= 0")
        e = self.entry_step
        if e is None:
            return
        if level >= e:
            raise Case1DegenerateError(e)
        for t in angles:
            k = self._orbit_index.get((t.num, t.den))
            if k is not None and k + level >= e:
                raise Case1DegenerateError(e)

    def same_gap(self, level: int, u: Angle, w: Angle) -> bool:
        """True iff no polygon of depth <= level separates u from w on the circle,
        i.e. the separation level L(u, w) exceeds level."""
        return self.separation(level, u, w) > level

    def gap_is_critical(self, level: int, theta: Angle) -> bool:
        """The level gap of theta contains the critical leaf."""
        return self.same_gap(level, theta, self.critical_leaf[0])

    def reach(self, k: int) -> int:
        """r_k = k + 1 + l_k, l_k the leaf level of c_k = 2^k theta_v: the least
        m at which f^{k+1}(P_m(0)) is not the critical piece (inf: none), read
        at c_k's orbit slot.  Late landing: c_k is a cycle angle from
        k = entry_step on; the callers guard the levels (guard_level)."""
        n, s = len(self._succ), self._succ[-1]
        if k >= n and s is None:
            raise YoccozError(f"{double(self.critical_orbit[-1], k + 1 - n)} is a cycle angle")
        return k + 1 + self.critical_leaf_levels[k if k < n else s + (k - s) % (n - s)]

    def _pull_back(self, arcs: tuple[Arc, ...], j: int, side: int | None) -> tuple[Arc, ...]:
        """Preimage arcs over D_{j+1} of a sorted gap trace over D_j, kept on one
        side of the leaf unless the image gap holds theta_v (then the preimage
        is one gap).  The halves of (a, b) are (a, b) and (a + D_j, b + D_j),
        paired crosswise when the arc wraps past 0.  Of the two, the one that
        starts at a lies inside the leaf arc iff a > cut, as in _split; if the
        image gap misses theta_v, no leaf end lies in a preimage arc or at its
        start (a vertex), so the start's side is the arc's side.  The starts
        are sorted, so the kept halves come out sorted as _split's polygons do."""
        den = self.layer_den(j)
        low = [(a, b if a < b else b + den) for a, b in arcs]
        high = [(a + den, b + den if a < b else b) for a, b in arcs]
        if side is None:
            return tuple(low + high)
        k = bisect_right(arcs, (self._cut(j)[0], den))  # the arcs starting at or below the cut
        return tuple(low[k:] + high[:k] if side == 0 else low[:k] + high[k:])

    def trace(self, level: int, theta: Angle) -> tuple[Arc, ...]:
        """Circle trace (boundary arcs) of the level gap containing theta, as
        sorted numerator pairs over D_level: the sector of 2^level theta,
        pulled back along the orbit.  A pullback keeps both halves iff the
        image gap holds theta_v, so the arc count is 2^#{m : r[m+1] >= level - m},
        checked against MAX_TRACE_ARCS before any arc is built."""
        self.guard_level(level, theta)
        rec = self.orbit(theta, level)
        if rec.hit is not None:
            raise YoccozError(f"{theta} is a vertex at depth <= {level}")
        pos, r = rec.pos, rec.to_value
        count = 1 << sum(r[m + 1] >= level - m for m in range(level))
        if count > MAX_TRACE_ARCS:
            raise ValueError(f"the level-{level} trace of {theta} has {count} arcs, over the "
                             f"bound of MAX_TRACE_ARCS = {MAX_TRACE_ARCS} arcs")
        arcs = (self._sectors[pos[level][0]],)
        for m in range(level - 1, -1, -1):
            j = level - m  # the level of the gap of 2^m theta
            arcs = self._pull_back(arcs, j - 1, None if r[m + 1] >= j else pos[m][1])
            x = theta.num * pow(2, m, theta.den) % theta.den
            assert _on_trace(arcs, self.layer_den(j), x, theta.den), \
                "probe fell off its own gap trace"
        return arcs

    def polygons_inside(self, level: int, theta: Angle) -> list[tuple[int, ...]]:
        """Depth-(level+1) polygons whose vertices lie inside the level gap of
        theta, as sorted numerators over D_{level+1}."""
        self.guard_level(level + 1, theta)
        rec = _off_cycle(self.orbit(theta, level))
        pos, r = rec.pos, rec.to_value
        lo, hi = (2 * c for c in self._sectors[pos[level][0]])  # its open sector, over D_1
        polys = [verts for verts in self._split(self.layers[0], 0)
                 if all(lo < n < hi if lo < hi else n > lo or n < hi for n in verts)]
        for m in range(level - 1, -1, -1):
            children = self._split(polys, level - m)  # inside, outside, inside, ...
            polys = children if r[m + 1] >= level - m else children[pos[m][1]::2]
        return polys

    # ----------------------------------------------------------- equivalence

    def vertex_class(self, theta: Angle) -> tuple[Angle, ...] | None:
        """Landing class of an alpha-cycle preimage (None if theta is no vertex).

        The alpha polygon pulled back along the orbit of theta, so it is exact
        at any depth; classes persist once they appear.
        """
        e = self.vertex_entry_step(theta)
        if e is None:
            return None
        self.guard_level(e)
        den = self.layer_den(e)
        n = theta.num * den // theta.den  # exact: 2^e theta is a cycle angle
        cls = self.layers[0][0]
        for j in range(e):  # the depth-(j+1) class holds 2^(e-j-1) theta = n mod D_{j+1}
            t = n % self.layer_den(j + 1)
            cls = next(child for child in self._split([cls], j) if t in child)
        return tuple(normalize(v, den) for v in cls)

    def ray_pair_equiv(self, t1: Angle, t2: Angle) -> RayPairRelation:
        c1 = self.vertex_class(t1)
        c2 = self.vertex_class(t2)
        if c1 is None or c2 is None:
            return RayPairRelation.UNKNOWN
        return RayPairRelation.EQUIVALENT if c1 == c2 else RayPairRelation.NOT_EQUIVALENT

    # ---------------------------------------------------------------- slices

    def slice_data(self) -> SliceData:
        """Locate the separating ray pair (B, C), the return time m, and the
        contraction level k of the slice dynamics inside the sector (A, D),
        searching the levels up to the build depth: (B, C) is the hole between
        two consecutive arcs of the gap next to A that holds theta_v.  That gap
        holds A + 1 / (3 D_n), below any vertex spacing."""
        A, D = self.sector
        a, tv = A.num * (self.layer_den(0) // A.den), self.theta_v  # A over D_0
        found = None
        for n in range(1, self.depth + 1):
            den = self.layer_den(n)
            arcs = self.trace(n, normalize(3 * (a << n) + 1, 3 * den))
            holes = [(b, c) for (_, b), (c, _) in zip(arcs, arcs[1:] + arcs[:1])]
            hole = next((h for h in holes if _inside(h, den, tv.num, tv.den)), None)
            if hole is not None:
                found = (n, normalize(hole[0], den), normalize(hole[1], den))
                break
        if found is None:
            raise NeedsDeeperLaminationError(self.depth)
        n, B, C = found

        m = None
        for cand in range(n, n + self.q):
            if double(B, cand) == D and double(C, cand) == A:
                m = cand
                break
        if m is None:
            raise YoccozError("internal error: no return time m in [n, n+q)")

        fA, fB, fC, fD = A.frac, B.frac, C.frac, D.frac
        for k in range(1, 65):
            s1 = Fraction(1, 1 << (k * self.q))
            s2 = Fraction(1, 1 << (m + k * self.q))
            bk = fA + (fB - fA) * s1
            ck = fD - (fD - fC) * s1
            e = fB - (fD - fC) * s2
            f = fC + (fB - fA) * s2
            if (fB - e) + (bk - fA) < (fB - fA) and (f - fC) + (fD - ck) < (fD - fC):
                data = SliceData(
                    A=A, B=B, C=C, D=D,
                    E=from_fraction(e), F=from_fraction(f),
                    B_k=from_fraction(bk), C_k=from_fraction(ck),
                    n=n, m=m, k=k, q=self.q,
                )
                order = [data.A, data.B_k, data.E, data.B, data.C, data.F, data.C_k, data.D]
                if any(order[i] >= order[i + 1] for i in range(7)):
                    raise YoccozError("internal error: slice order violated")
                return data
        raise NotFoundWithinBudgetError(64, "no contraction level k up to 64")


def build(p: int, q: int, theta_v: Angle, depth: int) -> Lamination:
    """Compute the alpha cycle for the p/q limb and pull its polygon back
    ``depth`` times through angle doubling, splitting along the critical leaf."""
    return Lamination(p, q, theta_v, depth)


def check_unlinked(families) -> tuple | None:
    """Linear-time crossing check of a polygon family (vertex tuples).

    Returns None if pairwise unlinked, else a witness pair.  Identical vertex
    sets (a class persisting over depths) are deduplicated; two distinct
    classes sharing any vertex already count as a violation.  The circle is
    cut at 0, which is never a vertex of an alpha-cycle preimage, and the
    classic bracket discipline runs on the linear order: away from its first
    and last vertex a polygon must sit on top of the stack.
    """
    classes: dict[tuple, int] = {}
    owner: dict[Angle, int] = {}
    for verts in families:
        key = tuple(sorted(verts))
        if key in classes:
            continue
        cid = classes.setdefault(key, len(classes))
        for v in key:
            if v in owner and owner[v] != cid:
                return (key, v)
            owner[v] = cid
    keys = list(classes)
    events = sorted((v, cid) for key, cid in classes.items() for v in key)
    remaining = {cid: len(key) for key, cid in classes.items()}
    stack: list[int] = []
    open_: set[int] = set()
    for v, cid in events:
        if cid not in open_:
            stack.append(cid)
            open_.add(cid)
        elif not stack or stack[-1] != cid:
            return (keys[cid], v)
        remaining[cid] -= 1
        if remaining[cid] == 0:
            stack.pop()
    return None


# ----------------------------------------------------------- slice functions


def _l1(slc: SliceData, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    s = Fraction(1, 1 << (slc.k * slc.q))
    return slc.A.frac + (a - slc.A.frac) * s, slc.D.frac - (slc.D.frac - b) * s


def _l2(slc: SliceData, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    s = Fraction(1, 1 << (slc.m + slc.k * slc.q))
    return slc.B.frac - (slc.D.frac - b) * s, slc.C.frac + (a - slc.A.frac) * s


def apply_slice_word(slc: SliceData, word, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """l_{i1} o ... o l_{ij} applied to the pair (a, b), exactly."""
    for i in reversed(list(word)):
        if i == 1:
            a, b = _l1(slc, a, b)
        elif i == 2:
            a, b = _l2(slc, a, b)
        else:
            raise ValueError("word letters must be 1 or 2")
    return a, b


def cantor_ray_pair(slc: SliceData, word) -> tuple[Angle, Angle]:
    """l_{i1} o ... o l_{ij} applied to the pair (A, D), exactly."""
    a, b = apply_slice_word(slc, word, slc.A.frac, slc.D.frac)
    return from_fraction(a), from_fraction(b)


def cantor_coordinates(word, x: int | Fraction = 0) -> Fraction:
    """Middle-thirds address e_{i1} o ... o e_{ij}(x): at x = 0 the address
    of l_w(A, D) (cantor_ray_pair), at x = 1 that of l_w(B, C)."""
    x = Fraction(x)
    for i in reversed(list(word)):
        if i == 1:
            x = x / 3
        elif i == 2:
            x = 1 - x / 3
        else:
            raise ValueError("word letters must be 1 or 2")
    return x


def _corner_pairs(slc: SliceData, word) -> tuple[Fraction, Fraction]:
    """First coordinates of l_w(A,D) and l_w(B,C): the q1-interval of the word."""
    a1, _ = apply_slice_word(slc, word, slc.A.frac, slc.D.frac)
    a2, _ = apply_slice_word(slc, word, slc.B.frac, slc.C.frac)
    lo, hi = sorted((a1, a2))
    return lo, hi


def bounded_geometry_report(slc: SliceData, depth: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Normalized (left gap : middle gap : right gap) triples of the q1 Cantor
    construction, one per word of length <= depth. Self-similarity of the
    l1/l2 system makes the set of distinct triples finite (two values)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = []
    frontier: list[list[int]] = [[]]
    while frontier:
        w = frontier.pop()
        lo, hi = _corner_pairs(slc, w)
        c1 = _corner_pairs(slc, w + [1])
        c2 = _corner_pairs(slc, w + [2])
        (l1lo, l1hi), (l2lo, l2hi) = sorted([c1, c2])
        total = hi - lo
        out.append(((l1hi - l1lo) / total, (l2lo - l1hi) / total, (l2hi - l2lo) / total))
        if len(w) < depth:
            frontier.extend([w + [1], w + [2]])
    return out
