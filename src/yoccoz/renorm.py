"""Combinatorial renormalization detection and the tuning substitution on
binary angle expansions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import Angle, from_fraction
from .lamination import Lamination


@dataclass(frozen=True)
class RenormReport:
    """Outcome of the combinatorial renormalization search.

    kind is satellite iff the period equals the alpha-ray count q, primitive
    if it exceeds it.  Returns of the critical orbit are exact for rational
    angles (the orbit is eventually periodic), so `renormalizable=False` is a
    definite answer for periods and levels within the budget.
    """

    renormalizable: bool
    period: int | None
    witness_level: int | None
    kind: str | None
    budget: int


def _returns_forever(lam: Lamination, n: int, k: int) -> bool:
    """f^{tn}(0) in P_{k+n}(0) for all t >= 1: the orbit slot of
    c_{tn-1} = 2^{tn-1} theta_v is eventually periodic in t, so the walk ends
    when a slot repeats."""
    seen = set()
    t = 1
    while (slot := lam.orbit_slot(t * n - 1)) not in seen:
        if not lam.critical_image(k + n + t * n, t * n):
            return False
        seen.add(slot)
        t += 1
    return True


def detect(lam: Lamination, budget: int) -> RenormReport:
    """Search periods n >= 2 then levels k for a degree-two branched cover
    f^n: P_{k+n}(0) -> P_k(0) with the critical orbit returning forever."""
    for n in range(2, budget + 1):
        for k in range(0, budget + 1):
            if not lam.critical_image(k + n, n):
                continue
            if any(lam.critical_image(k + n, j) for j in range(1, n)):
                continue  # a deeper k may shed the extra critical pass
            if not _returns_forever(lam, n, k):
                continue
            kind = "satellite" if n == lam.q else "primitive"
            return RenormReport(True, n, k, kind, budget)
    return RenormReport(False, None, None, None, budget)


# ------------------------------------------------------------------ tuning


@dataclass(frozen=True)
class BinaryExpansion:
    """Eventually periodic binary expansion .prefix(cycle)^infinity of an angle."""

    prefix: str
    cycle: str

    def __post_init__(self):
        if not self.cycle or set(self.prefix + self.cycle) - {"0", "1"}:
            raise ValueError("need nonempty binary cycle and binary digits")

    def __str__(self):
        return f".{self.prefix}({self.cycle})"

    def to_angle(self) -> Angle:
        p, c = len(self.prefix), len(self.cycle)
        head = int(self.prefix, 2) if self.prefix else 0
        body = int(self.cycle, 2)
        val = Fraction(head, 1 << p) + Fraction(body, ((1 << c) - 1) << p)
        return from_fraction(val)


def angle_to_expansion(theta: Angle) -> BinaryExpansion:
    """Canonical expansion by long division (dyadics get the terminating form)."""
    seen: dict[int, int] = {}
    digits: list[str] = []
    x, den = theta.num, theta.den  # the remainder x/den
    while x not in seen:
        seen[x] = len(digits)
        x *= 2
        digits.append("1" if x >= den else "0")
        x %= den
    start = seen[x]
    return BinaryExpansion(prefix="".join(digits[:start]), cycle="".join(digits[start:]))


def tune(a0: str, a1: str, theta: BinaryExpansion | Angle) -> BinaryExpansion:
    """Digitwise substitution E(.d1 d2 ...) = .a_{d1} a_{d2} ...; eventually
    periodic expansions stay eventually periodic."""
    if not a0 or not a1 or set(a0 + a1) - {"0", "1"}:
        raise ValueError("a0, a1 must be nonempty binary strings")
    exp = theta if isinstance(theta, BinaryExpansion) else angle_to_expansion(theta)
    sub = lambda s: "".join(a1 if d == "1" else a0 for d in s)
    return BinaryExpansion(prefix=sub(exp.prefix), cycle=sub(exp.cycle))


def chord_crosses_polygon(t1: Angle, t2: Angle, vertices) -> bool:
    """Chord {t1, t2} links the polygon: vertices on both open sides."""
    from .angles import ArcPosition, in_arc

    before = after = False
    for v in vertices:
        pos = in_arc(v, t1, t2)
        if pos is ArcPosition.INSIDE:
            before = True
        elif pos is ArcPosition.OUTSIDE:
            after = True
    return before and after


def leaf_compatible(lam: Lamination, t1: Angle, t2: Angle, max_depth: int | None = None) -> bool:
    """True iff the chord {t1, t2} crosses no stored polygon of the lamination.

    Co-landing ray pairs cannot cross the lamination, so this is a necessary
    consistency condition for candidate ray pairs.
    """
    depth = lam.depth if max_depth is None else min(max_depth, lam.depth)
    for d in range(depth + 1):
        for poly in lam.polygons[d]:
            if chord_crosses_polygon(t1, t2, poly):
                return False
    return True


def image_polygons(lam_hat: Lamination, a0: str, a1: str) -> list[tuple[Angle, ...]]:
    """E-images of every stored polygon of the source lamination.

    E is cyclic-order preserving for a prefix-free tuning pair, so these are
    the candidate landing classes of the renormalized copy inside the tuned
    map's circle.
    """
    out = []
    for layer in lam_hat.polygons:
        for poly in layer:
            out.append(tuple(tune(a0, a1, v).to_angle() for v in poly))
    return out


def tuned_pair_compatible(
    lam_hat: Lamination,
    lam_tuned: Lamination,
    a0: str,
    a1: str,
    t1: Angle,
    t2: Angle,
) -> bool:
    """Finite-depth compatibility of the pair {E(t1), E(t2)} with the tuned map.

    E-images of hat-map vertex pairs are never alpha-cycle preimages of the
    tuned map (their binary tails are never (01)-periodic), so ray_pair_equiv
    cannot see them; instead the pair must be unlinked both with the tuned
    lamination and with the E-images of the hat lamination's polygons.  A
    mismatched pair crosses an image polygon.
    """
    e1 = tune(a0, a1, t1).to_angle()
    e2 = tune(a0, a1, t2).to_angle()
    if not leaf_compatible(lam_tuned, e1, e2):
        return False
    for img in image_polygons(lam_hat, a0, a1):
        if e1 in img and e2 in img:
            continue
        if chord_crosses_polygon(e1, e2, img):
            return False
    return True
