"""Test oracle: gap traces pulled back as reduced ``Angle`` arcs, as the
library did before its traces became numerator pairs over D_n.

Every pulled-back arc endpoint is halved with ``normalize``, each level is
sorted by the Angle order, the leaf side is a cross-multiplied test per arc,
and the probe check scans every arc.  ``sub_pieces``, ``enumerate_pieces``,
``_degenerate``, ``annulus_degenerate``, ``first_nondegenerate`` and the hole
search of ``slice_data`` read these traces.  They borrow the lamination's
orbit records, guards and build-time orbit data, which the integer traces
did not change.

``sub_pieces`` is also the probe path that the library's children cut from
their parent's trace replaced: the midpoint of every run between cuts is
resolved from level 0, and repeats are dropped by trace.  ``critical_traces``
is the level sweep of the critical gap that ``first_nondegenerate`` read
before it read the critical pieces.  The guard and the vertex refusals are
the library's as they were before ``Lamination.orbit`` refused vertices
(``orbit_record_oracle.guard_level`` and ``is_vertex``).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from yoccoz.angles import (Angle, ArcPosition, arc_length, arc_point, double, from_fraction, in_arc,
                           normalize)
from yoccoz.errors import NeedsDeeperLaminationError, OnBoundaryError, YoccozError
from yoccoz.puzzle import CRITICAL, query_angle

from orbit_record_oracle import guard_level, is_vertex

HALF = Fraction(1, 2)


def arc_contains(arc, theta):
    return in_arc(theta, arc[0], arc[1]) is ArcPosition.INSIDE


def _halves(theta):
    """The two preimages theta/2 and theta/2 + 1/2."""
    return normalize(theta.num, 2 * theta.den), normalize(theta.num + theta.den, 2 * theta.den)


def _preimage_arcs(arc):
    (a0, a1), (b0, b1) = _halves(arc[0]), _halves(arc[1])
    if arc[0].num * arc[1].den < arc[1].num * arc[0].den:
        return (a0, b0), (a1, b1)
    return (a0, b1), (a1, b0)  # the arc wraps past 0


def _sector_arc(lam, index):
    cyc = lam.cycle  # sorted, so consecutive angles bound a sector
    return cyc[index], cyc[(index + 1) % len(cyc)]


def _leaf_side(lam, theta):
    """0 strictly inside the arc (h, h + 1/2) of the critical leaf, else 1."""
    h = lam.critical_leaf[0]
    inside = h.num * theta.den < theta.num * h.den and \
        2 * theta.num * h.den < (2 * h.num + h.den) * theta.den
    return 0 if inside else 1


def _pull_back(lam, arcs, side):
    halves = [h for arc in arcs for h in _preimage_arcs(arc)]
    if side is not None:
        halves = [arc for arc in halves if _leaf_side(lam, arc[0]) == side]
    return tuple(sorted(halves))


def trace(lam, level, theta):
    guard_level(lam, level, theta)
    if is_vertex(lam, theta, level):
        raise YoccozError(f"{theta} is a vertex at depth <= {level}")
    rec = lam.orbit(theta, level)
    pos, r = rec.pos, rec.to_value
    arcs = (_sector_arc(lam, pos[level][0]),)
    for m in range(level - 1, -1, -1):
        arcs = _pull_back(lam, arcs, None if r[m + 1] >= level - m else pos[m][1])
        assert any(arc_contains(a, double(theta, m)) for a in arcs), \
            "probe fell off its own gap trace"
    return arcs


def critical_traces(lam, top):
    h = lam.critical_leaf[0]
    traces = [(_sector_arc(lam, s),) for s, _ in lam._orbit_pos]
    to_value = lam._critical_values()
    yield (_sector_arc(lam, lam._leaf_sector),)
    for level in range(1, top + 1):
        lam.guard_level(level)
        arcs = _pull_back(lam, traces[0], None)  # 2h = theta_v: one gap
        assert any(arc_contains(a, h) for a in arcs), "probe fell off its own gap trace"
        yield arcs
        new = []
        for k, t in enumerate(lam._succ):
            if k + level >= top or t is None or traces[t] is None:
                new.append(None)  # not needed, or a vertex (late landing)
                continue
            keep_both = to_value[t] > level - 1
            arcs = _pull_back(lam, traces[t], None if keep_both else lam._orbit_pos[k][1])
            assert any(arc_contains(a, lam.critical_orbit[k]) for a in arcs), \
                "probe fell off its own gap trace"
            new.append(arcs)
        traces = new


@dataclass(frozen=True)
class PieceRef:
    level: int
    boundary: tuple
    probe: Angle = field(compare=False)


def piece_of(lam, level, theta):
    t = query_angle(lam, theta)
    if is_vertex(lam, t, level):
        raise OnBoundaryError(f"{t} is a polygon vertex at depth <= {level}")
    return PieceRef(level=level, boundary=trace(lam, level, t), probe=t)


def polygons_inside(lam, level, theta):
    """The library's integer polygons as reduced Angles."""
    den = lam.layer_den(level + 1)
    return [tuple(normalize(n, den) for n in verts) for verts in lam.polygons_inside(level, theta)]


def sub_pieces(lam, piece):
    marks = sorted({v for poly in polygons_inside(lam, piece.level, piece.probe) for v in poly})
    probes = []
    for a, b in piece.boundary:
        inside = sorted((v for v in marks if arc_contains((a, b), v)),
                        key=lambda v: arc_length((a, v)))  # ccw from a
        pts = [a] + inside + [b]
        probes += [arc_point(u, w, HALF) for u, w in zip(pts, pts[1:])]
    out = {}
    for t in probes:
        sub = piece_of(lam, piece.level + 1, t)
        out[(sub.level, sub.boundary)] = sub
    return list(out.values())


def enumerate_pieces(lam, level):
    cyc = lam.cycle
    pieces = [piece_of(lam, 0, arc_point(a, b, HALF)) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    for _ in range(level):
        pieces = [s for piece in pieces for s in sub_pieces(lam, piece)]
    return pieces


def _degenerate(outer, inner):
    return bool({v for arc in outer for v in arc} & {v for arc in inner for v in arc})


def annulus_degenerate(lam, n):
    return _degenerate(piece_of(lam, n, CRITICAL).boundary,
                       piece_of(lam, n + 1, CRITICAL).boundary)


def first_nondegenerate(lam, budget=None):
    limit = budget if budget is not None else max(lam.depth - 1, 1)
    traces = critical_traces(lam, limit + 1)
    outer = next(traces)
    for n in range(limit + 1):
        inner = next(traces)
        if not _degenerate(outer, inner):
            return n
        outer = inner
    raise NeedsDeeperLaminationError(limit, f"no nondegenerate critical annulus up to {limit}")


def slice_hole(lam):
    """(n, B, C) of slice_data: the first level whose gap next to A has a hole
    (B, C) holding theta_v."""
    for n in range(1, lam.depth + 1):
        den = 3 * ((1 << lam.q) - 1) * (1 << n)
        arcs = trace(lam, n, from_fraction(lam.sector[0].frac + Fraction(1, den)))
        if any(arc_contains(arc, lam.theta_v) or lam.theta_v in arc for arc in arcs):
            continue
        holes = [(arcs[i][1], arcs[(i + 1) % len(arcs)][0]) for i in range(len(arcs))]
        for b, c in holes:
            if b != c and arc_contains((b, c), lam.theta_v):
                return n, b, c
    raise NeedsDeeperLaminationError(lam.depth)
