"""Piecewise-affine machinery: triangle cells, affine maps, dilatation.

Cell geometry is kept in exact rationals where the constructions are exact
(notched/slitted squares); dilatation is evaluated in floats at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

Vec = tuple[Fraction, Fraction]


def _f(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(x, y) -> Vec:
    return (_f(x), _f(y))


def cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def singular_value_ratio(t: float, det: float) -> float:
    """The dilatation of a linear map from t = a^2 + b^2 + c^2 + d^2 and its
    determinant: the ratio of its singular values, infinite unless det > 0."""
    if det <= 0:
        return math.inf
    return (t + math.sqrt(max(t * t - 4 * det * det, 0.0))) / (2 * det)


@dataclass(frozen=True)
class AffineMap:
    """z -> M z + t with M = [[a, b], [c, d]] over exact rationals."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    tx: Fraction
    ty: Fraction

    def __call__(self, p: Vec) -> Vec:
        x, y = _f(p[0]), _f(p[1])
        return (self.a * x + self.b * y + self.tx, self.c * x + self.d * y + self.ty)

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def dilatation(self) -> float:
        """Ratio of singular values of the linear part (orientation-preserving).

        The entries are first scaled by a power of two that brings the largest
        near 1.  The ratio is scale-invariant and every float operation below
        commutes exactly with such a scaling, so the result is bit for bit the
        unscaled one wherever that stays finite, and finite at any scale."""
        entries = (self.a, self.b, self.c, self.d)
        e = max((v.numerator.bit_length() - v.denominator.bit_length() for v in entries if v),
                default=0)
        scale = Fraction(2) ** -e
        a, b, c, d = (v * scale for v in entries)
        t = float(a) ** 2 + float(b) ** 2 + float(c) ** 2 + float(d) ** 2
        return singular_value_ratio(t, float(a * d - b * c))


def affine_from_triangles(src: tuple[Vec, Vec, Vec], dst: tuple[Vec, Vec, Vec]) -> AffineMap:
    """The unique affine map sending the source triangle to the target one."""
    (x0, y0), (x1, y1), (x2, y2) = (vec(*p) for p in src)
    (u0, v0), (u1, v1), (u2, v2) = (vec(*p) for p in dst)
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det == 0:
        raise ValueError("degenerate source triangle")
    a = ((u1 - u0) * (y2 - y0) - (u2 - u0) * (y1 - y0)) / det
    b = ((u2 - u0) * (x1 - x0) - (u1 - u0) * (x2 - x0)) / det
    c = ((v1 - v0) * (y2 - y0) - (v2 - v0) * (y1 - y0)) / det
    d = ((v2 - v0) * (x1 - x0) - (v1 - v0) * (x2 - x0)) / det
    return AffineMap(a, b, c, d, u0 - a * x0 - b * y0, v0 - c * x0 - d * y0)


@dataclass(frozen=True)
class Cell:
    source: tuple[Vec, Vec, Vec]
    target: tuple[Vec, Vec, Vec]
    map: AffineMap
    tag: str = ""

    @cached_property
    def _edge_lines(self) -> tuple[tuple[int, int, int], ...]:
        """Integers (A, B, C) per directed edge (a, b): A x + B y + C is
        cross(a, b, (x, y)) times a positive integer."""
        a, b, c = self.source
        lines = []
        for (ax, ay), (bx, by) in ((a, b), (b, c), (c, a)):
            A, B = ay - by, bx - ax
            C = -A * ax - B * ay
            scale = math.lcm(A.denominator, B.denominator, C.denominator)
            lines.append((int(A * scale), int(B * scale), int(C * scale)))
        return tuple(lines)

    def contains(self, p: Vec) -> bool:
        """p lies in the closed triangle: every edge sees it on its left,
        tested on p's numerators over its common denominator."""
        xn, xd, yn, yd = p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator
        x, y, w = xn * yd, yn * xd, xd * yd
        return all(A * x + B * y + C * w >= 0 for A, B, C in self._edge_lines)


def make_cell(src, dst, tag="") -> Cell:
    src = tuple(vec(*p) for p in src)
    dst = tuple(vec(*p) for p in dst)
    if cross(*src) <= 0 or cross(*dst) <= 0:
        raise ValueError(f"cell {tag}: triangles must be positively oriented")
    return Cell(src, dst, affine_from_triangles(src, dst), tag)


class PLAtlas:
    """A piecewise-affine map as a list of (source triangle, target triangle,
    affine map) cells.  Adjacent cells agree on shared edges by construction;
    the test suite samples that contract."""

    def __init__(self, cells: list[Cell], domain_tag: str = ""):
        self.cells = cells
        self.domain_tag = domain_tag

    def __len__(self):
        return len(self.cells)

    def locate(self, p: Vec) -> Cell | None:
        for cell in self.cells:
            if cell.contains(p):
                return cell
        return None

    def evaluate(self, p) -> Vec:
        from .errors import OutsideDomainError

        cell = self.locate(vec(*p))
        if cell is None:
            raise OutsideDomainError(f"{p} is outside the {self.domain_tag} atlas")
        return cell.map(vec(*p))

    def max_dilatation(self) -> float:
        return max(c.map.dilatation() for c in self.cells)

    def dilatations(self) -> list[float]:
        return [c.map.dilatation() for c in self.cells]


def similarity(scale: Fraction, tx, ty, flip_y: bool = False) -> AffineMap:
    """Orientation-preserving similarity x -> s x + t, optionally conjugated
    by a y-flip (used for the lower half of the notched square)."""
    s = _f(scale)
    sy = -s if flip_y else s
    return AffineMap(s, Fraction(0), Fraction(0), sy, _f(tx), _f(ty))


def conjugate_cell(cell: Cell, src_map: AffineMap, dst_map: AffineMap, tag="") -> Cell:
    """Transport a cell through similarities of its source and target."""
    src = tuple(src_map(p) for p in cell.source)
    dst = tuple(dst_map(p) for p in cell.target)
    if src_map.det < 0:  # restore orientation by reversing the vertex order
        src = (src[0], src[2], src[1])
        dst = (dst[0], dst[2], dst[1])
    return make_cell(src, dst, tag)
