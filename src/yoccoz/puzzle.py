"""Puzzle pieces as lamination gaps, the tau function, critical annuli and
their descendants, and rise-and-drop sequence analytics.

A piece is identified by its level and circle trace (boundary arcs), kept as
the lamination gives it: sorted numerator pairs over D_n = (2^q - 1) 2^n.  All
predicates reduce to separation levels of the lamination (Lamination.same_gap
and the leaf levels of an orbit record), so they work at any level without
recursion; the "piece of 0" is the gap holding the critical leaf, per the
design decision that every test point here is an angle or the leaf.  A
piece's children are cut from its own trace by the polygons inside it
(sub_pieces), so only a piece asked for by level and angle is pulled back.

The critical annuli A_n(0) = P_n(0) - P_{n+1}(0) read the reach r_k of the
critical orbit (Lamination.reach): f^{k+1}(P_m(0)) is critical iff r_k > m.
So f^{m-n} maps A_m(0) onto A_n(0) as an unramified cover iff no
k <= m - n - 2 has r_k = m + 1 (f^{k+1}(P_m(0)) critical, f^{k+1}(P_{m+1}(0))
not: a ramified cover) and r_{m-n-1} > m + 1; its degree is
2^(1 + #{k <= m - n - 2 : r_k > m}).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .angles import Angle, double, normalize
from .errors import (
    NeedsDeeperLaminationError,
    NotFoundWithinBudgetError,
    NotRiseAndDropError,
    OnBoundaryError,
)
from .lamination import Arc, Lamination, check_orbit_level

CRITICAL = "CRITICAL"  # sentinel query point: the critical leaf


@dataclass(frozen=True)
class PieceRef:
    """A puzzle piece: the gap of the lamination at ``level`` containing ``probe``.

    ``arcs`` is its circle trace, sorted numerator pairs over ``den`` = D_level,
    and equality is by level and arcs.  The probe is a convenience witness for
    membership tests.  ``boundary`` holds the arcs as reduced Angles, built on
    first read for the readers that print or draw.
    """

    level: int
    arcs: tuple[Arc, ...]
    probe: Angle = field(compare=False)
    den: int = field(compare=False)

    @cached_property
    def boundary(self) -> tuple[tuple[Angle, Angle], ...]:
        return tuple((normalize(a, self.den), normalize(b, self.den)) for a, b in self.arcs)

    def __str__(self):
        arcs = ", ".join(f"({a}..{b})" for a, b in self.boundary)
        return f"P_{self.level}[{arcs}]"


def query_angle(lam: Lamination, theta) -> Angle:
    """The angle that stands for theta in gap queries: the leaf end for CRITICAL."""
    return lam.critical_leaf[0] if theta == CRITICAL else theta


def piece_of(lam: Lamination, level: int, theta) -> PieceRef:
    """The level-n gap containing theta (or the critical leaf for CRITICAL)."""
    t = query_angle(lam, theta)
    if lam.is_vertex(t, level):
        raise OnBoundaryError(f"{t} is a polygon vertex at depth <= {level}")
    return PieceRef(level, lam.trace(level, t), t, lam.layer_den(level))


def critical_piece(lam: Lamination, level: int) -> PieceRef:
    """The gap containing the critical leaf chord."""
    return piece_of(lam, level, CRITICAL)


def map_forward(lam: Lamination, piece: PieceRef) -> PieceRef:
    """Image piece under doubling: P_n(theta) -> P_{n-1}(2 theta)."""
    if piece.level == 0:
        raise ValueError("level-0 pieces have no level -1 image")
    return piece_of(lam, piece.level - 1, double(piece.probe))


def is_critical(lam: Lamination, piece: PieceRef) -> bool:
    return lam.gap_is_critical(piece.level, piece.probe)


def sub_pieces(lam: Lamination, piece: PieceRef) -> list[PieceRef]:
    """The level-(n+1) pieces contained in a level-n piece, cut from its trace.

    Each boundary arc, doubled to D_{n+1}, is cut at the vertices of the
    polygons inside the piece (numerators over D_{n+1}), in ccw order from
    its start.  Every run between cuts is a boundary arc of one child, which
    leaves the run's end along a leaf: a polygon side to the polygon's
    preceding vertex, or the parent's boundary leaf to the next arc's start.
    Following the leaves closes each child's runs into a cycle.  The children
    come in the order of their first run, each probed at the midpoint of its
    last run.
    """
    polys = lam.polygons_inside(piece.level, piece.probe)
    link = {v: poly[i - 1] for poly in polys for i, v in enumerate(poly)}
    marks = sorted(link)
    arcs = [(2 * a, 2 * b) for a, b in piece.arcs]
    link.update((b, c) for (_, b), (c, _) in zip(arcs, arcs[1:] + arcs[:1]))
    runs: list[Arc] = []
    for a, b in arcs:
        lo, hi = bisect_right(marks, a), bisect_left(marks, b)
        pts = [a] + (marks[lo:hi] if a < b else marks[lo:] + marks[:hi]) + [b]
        runs += zip(pts, pts[1:])
    starts = {u: i for i, (u, _) in enumerate(runs)}
    den = lam.layer_den(piece.level + 1)
    children, seen = [], set()
    for i in range(len(runs)):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = starts[link[runs[i][1]]]
        if cycle:
            arcs_of = tuple(sorted(runs[k] for k in cycle))
            probe = _midpoint(*runs[max(cycle)], den)
            children.append(PieceRef(piece.level + 1, arcs_of, probe, den))
    return children


def _midpoint(u: int, w: int, den: int) -> Angle:
    """The midpoint of the ccw arc (u, w) over den: (u + w) / 2 den, or
    (u + w + den) / 2 den when the arc wraps."""
    return normalize(u + w if u < w else u + w + den, 2 * den)


def enumerate_pieces(lam: Lamination, level: int) -> list[PieceRef]:
    """All pieces of one level, by recursive subdivision of the level-0 sectors."""
    if level < 0:
        raise ValueError("level must be >= 0")
    cyc = lam.layers[0][0]  # the cycle numerators over D_0
    den = lam.layer_den(0)
    pieces = [piece_of(lam, 0, _midpoint(u, w, den)) for u, w in zip(cyc, cyc[1:] + cyc[:1])]
    for _ in range(level):
        pieces = [s for piece in pieces for s in sub_pieces(lam, piece)]
    return pieces


# ------------------------------------------------------------------ tau


def tau(lam: Lamination, n: int, theta) -> int:
    """tau(n, z) per the unique-m definition; -1 when no image is critical."""
    return tau_sequence(lam, theta, n, start=n)[0]


def tau_sequence(lam: Lamination, theta, n_max: int, start: int = 0) -> list[int]:
    """tau along n = start..n_max in closed form from the leaf levels
    l_j = L(2^j theta, leaf) of theta's orbit record to n_max:
    tau(n) = n - min{j <= n : l_j + j > n}.  A vertex raises
    OrbitHitsAlphaError (Lamination.orbit: piece_of must be defined along the
    orbit), and tau(start) = start iff theta lies in the level-start critical
    piece.

    The least such j never decreases with n, so one pointer walks the orbit
    once.  tau(n) is defined by the level-n pieces, so level n_max must exist
    in a late-landing lamination (guard_level, for CRITICAL too), checked
    after the vertex refusal, in the order tau raises."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    check_orbit_level(n_max)
    rec = None if theta == CRITICAL else lam.orbit(theta, n_max)
    if start <= n_max:
        lam.guard_level(n_max)
    if rec is None:
        return list(range(start, n_max + 1))  # P_n(0) is critical: j = 0
    reach = [j + lv for j, lv in enumerate(rec.leaf)]
    values: list[int] = []
    j = 0
    for n in range(start, n_max + 1):
        while j <= n and reach[j] <= n:
            j += 1
        values.append(n - j if j <= n else -1)
    return values


# ------------------------------------------------------------- annuli


def _degenerate(outer: tuple[Arc, ...], inner: tuple[Arc, ...]) -> bool:
    """The critical pieces share a boundary ray pair: their traces share an
    arc endpoint (the outer numerators over D_n doubled to D_{n+1})."""
    return bool({2 * v for arc in outer for v in arc} & {v for arc in inner for v in arc})


def annulus_degenerate(lam: Lamination, n: int) -> bool:
    """A_n(0) is degenerate iff the critical pieces at n and n+1 share a
    boundary ray pair."""
    return _degenerate(critical_piece(lam, n).arcs, critical_piece(lam, n + 1).arcs)


def first_nondegenerate(lam: Lamination, budget: int) -> int:
    """Least n <= budget with A_n(0) nondegenerate, walking the critical pieces upward."""
    outer = critical_piece(lam, 0).arcs
    for n in range(budget + 1):
        inner = critical_piece(lam, n + 1).arcs
        if not _degenerate(outer, inner):
            return n
        outer = inner
    raise NeedsDeeperLaminationError(budget, f"no nondegenerate critical annulus up to {budget}")


def descendant_check(lam: Lamination, m: int, n: int) -> tuple[bool, int]:
    """Does f^{m-n} map A_m(0) onto A_n(0) as an unramified cover (module
    docstring)?  A late-landing lamination has no pieces past entry_step e: the
    rule reads level-m images (m - 1 < e) and, unless m - n = 1 and the level-m
    image misses, level-(m + 1) ones (m < e)."""
    if m <= n:
        raise ValueError("need m > n")
    if n < 0:
        raise ValueError("level must be >= 0")
    lam.guard_level(m - 1)
    *inner, last = (lam.reach(k) for k in range(m - n))
    if inner or last > m:
        lam.guard_level(m)
    if m + 1 in inner or last <= m + 1:
        return False, 0
    return True, 2 << sum(x > m for x in inner)


def descendant_levels(lam: Lamination, n: int, budget: int) -> list[tuple[int, int]]:
    """(level, degree) of every descendant of A_n(0) with level <= n + budget."""
    if n < 0:
        raise ValueError("level must be >= 0")
    out = []
    for m in range(n + 1, n + budget + 1):
        ok, deg = descendant_check(lam, m, n)
        if ok:
            out.append((m, deg))
    return out


def fraternal_descendants(lam: Lamination, n: int, budget: int) -> tuple[int, int]:
    """Two descendant levels of A_n(0), neither a descendant of the other.  For
    m1 < m2 the rule reduces to the image rule: r_{m2-m1-1} > m2."""
    levels = [m for m, _ in descendant_levels(lam, n, budget)]
    for i, m1 in enumerate(levels):
        for m2 in levels[i + 1:]:
            if lam.reach(m2 - m1 - 1) <= m2:
                return m1, m2
    raise NotFoundWithinBudgetError(budget, f"no fraternal descendants of A_{n} within {budget}")


# ----------------------------------------------------- rise and drop


@dataclass(frozen=True)
class TauSequence:
    start: int
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < -1 for v in self.values):
            raise NotRiseAndDropError("values must be >= -1")
        for i in range(len(self.values) - 1):
            if self.values[i + 1] > self.values[i] + 1:
                raise NotRiseAndDropError(
                    f"a[{i + 1}] = {self.values[i + 1]} > a[{i}] + 1 = {self.values[i] + 1}"
                )


@dataclass
class RadReport:
    rises_past: list[tuple[int, int]]  # (step m, time n): a_n = m, a_{n+1} = m+1
    repeated_drop: tuple[int, int] | None  # most repeated (r, s) with s <= r
    drop_times: list[int]
    rise_witnesses: dict[int, list[int]]  # step m -> times between consecutive repeats
    ivt_witnesses: list[tuple[int, int, int, int]]  # (k, l, m, witness time)


def rad_analyze(seq: TauSequence) -> RadReport:
    """Witness extraction for the rise-and-drop lemmas on a finite prefix:
    every step risen past, the most-repeated drop, and the rises between
    consecutive repeats for each step under that drop."""
    a = seq.values
    rises = [(a[i], i) for i in range(len(a) - 1) if a[i + 1] == a[i] + 1]

    drops: dict[tuple[int, int], list[int]] = {}
    for i in range(len(a) - 1):
        if a[i + 1] <= a[i]:
            drops.setdefault((a[i], a[i + 1]), []).append(i)
    repeated = None
    times: list[int] = []
    if drops:
        repeated, times = max(drops.items(), key=lambda kv: (len(kv[1]), kv[0]))

    witnesses: dict[int, list[int]] = {}
    if repeated is not None and len(times) >= 2:
        r, s = repeated
        for m in range(s, r):
            hits = []
            for t0, t1 in zip(times, times[1:]):
                for i in range(t0 + 1, t1):
                    if a[i] == m and a[i + 1] == m + 1:
                        hits.append(i)
                        break
            witnesses[m] = hits

    # one IVT witness per k: a step rises by at most 1, so the first l > k with
    # a[l] > a[k] has a[l] = a[k] + 1 = a[l - 1] + 1, the rise past a[k] at l - 1
    ivt = []
    for k in range(len(a)):
        l = next((l for l in range(k + 1, len(a)) if a[l] > a[k]), None)
        if l is not None:
            ivt.append((k, l, a[k], l - 1))
    return RadReport(
        rises_past=rises,
        repeated_drop=repeated,
        drop_times=times,
        rise_witnesses=witnesses,
        ivt_witnesses=ivt,
    )
