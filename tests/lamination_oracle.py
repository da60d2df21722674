"""Test oracle: the Angle-based polygon build that the integer layers replaced.

Every vertex is a reduced ``Angle``; each polygon is split by halving every
vertex with ``normalize`` and sorting each side of the critical leaf.  The
constructor's checks (late landing, then the sector) run in the same order as
the library's, so both raise the same errors.  ``polygons_inside`` and
``vertex_class`` are the matching Angle-based pullbacks; they borrow the
library lamination's guard helpers, which the integer layers did not change,
and the whole-orbit level pass of ``orbit_record_oracle``.
"""

from dataclasses import dataclass

from yoccoz.angles import ArcPosition, Angle, arc_length, double, in_arc, normalize
from yoccoz.errors import Case1DegenerateError, InvalidThetaError
from yoccoz.lamination import alpha_cycle

from orbit_record_oracle import guard_level, orbit_levels


@dataclass(frozen=True)
class Polygon:
    """Vertices of one landing class (cyclically ordered, smallest first)."""

    vertices: tuple[Angle, ...]
    depth: int

    def __contains__(self, theta: Angle) -> bool:
        return theta in self.vertices


def arc_contains(arc, theta):
    return in_arc(theta, arc[0], arc[1]) is ArcPosition.INSIDE


def _double(num, den):
    if den % 2 == 0:
        den //= 2
        return num % den, den
    return 2 * num % den, den


def _halves(theta):
    return normalize(theta.num, 2 * theta.den), normalize(theta.num + theta.den, 2 * theta.den)


class AngleLamination:
    def __init__(self, p, q, theta_v, depth):
        self.p, self.q = p, q
        self.theta_v = theta_v
        self.depth = depth
        cyc = alpha_cycle(p, q)
        self.cycle = tuple(cyc)
        cycle_pairs = frozenset((a.num, a.den) for a in cyc)

        orbit, orbit_index = [], {}
        x = (theta_v.num, theta_v.den)
        while x not in orbit_index and x not in cycle_pairs:
            orbit_index[x] = len(orbit)
            orbit.append(x)
            x = _double(*x)
        entry_step = len(orbit) if x in cycle_pairs else None
        self.sector = self._critical_value_sector()
        inside = in_arc(theta_v, *self.sector) is ArcPosition.INSIDE
        if entry_step is not None and (entry_step <= depth or not inside):
            raise Case1DegenerateError(entry_step)
        if not inside:
            raise InvalidThetaError(
                f"theta_v={theta_v} is not strictly inside the critical-value sector "
                f"({self.sector[0]}, {self.sector[1]})"
            )
        self.critical_leaf = _halves(theta_v)

        self.polygons = [[Polygon(self.cycle, 0)]]
        for j in range(depth):
            self.polygons.append(
                [child for parent in self.polygons[j] for child in self._split(parent, j + 1)]
            )

    def _critical_value_sector(self):
        return min(map(self._sector_arc, range(self.q)), key=arc_length)

    def _sector_arc(self, index):
        cyc = self.cycle
        return cyc[index], cyc[(index + 1) % len(cyc)]

    def _split(self, parent, depth):
        """The two preimage polygons of parent, on either side of the leaf."""
        sides = ([], [])
        for v in parent.vertices:
            for u in _halves(v):
                if u in self.critical_leaf:
                    raise Case1DegenerateError(depth - 1)
                sides[self._leaf_side(u)].append(u)
        return [Polygon(tuple(sorted(side)), depth) for side in sides]

    def _leaf_side(self, theta: Angle) -> int:
        h = self.critical_leaf[0]
        inside = h.num * theta.den < theta.num * h.den and \
            2 * theta.num * h.den < (2 * h.num + h.den) * theta.den
        return 0 if inside else 1

    def polygons_inside(self, lam, level, theta):
        """Depth-(level+1) polygons whose vertices lie inside the level gap of theta."""
        guard_level(lam, level + 1, theta)
        pos, r = orbit_levels(lam, theta, level)
        arc = self._sector_arc(pos[level][0])
        depth1 = self.polygons[1] if self.depth >= 1 else self._split(self.polygons[0][0], 1)
        polys = [poly for poly in depth1 if all(arc_contains(arc, v) for v in poly.vertices)]
        for m in range(level - 1, -1, -1):
            side = None if r[m + 1] >= level - m else pos[m][1]
            polys = [child for poly in polys for child in self._split(poly, 0)
                     if side is None or self._leaf_side(child.vertices[0]) == side]
        return [poly.vertices for poly in polys]

    def vertex_class(self, lam, theta):
        """Landing class of an alpha-cycle preimage (None if theta is no vertex)."""
        e = lam.vertex_entry_step(theta)
        if e is None:
            return None
        lam.guard_level(e)
        cls = self.polygons[0][0]
        for m in range(e - 1, -1, -1):
            t = double(theta, m)
            cls = next(child for child in self._split(cls, 0) if t in child)
        return cls.vertices
