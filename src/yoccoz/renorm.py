"""Combinatorial renormalization detection and the tuning substitution on
binary angle expansions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import Angle, from_fraction
from .errors import Case1DegenerateError
from .lamination import Lamination


@dataclass(frozen=True)
class RenormReport:
    """Outcome of the combinatorial renormalization search.

    f^n maps P_{k+n}(0) onto P_k(0) as a degree-two cover iff f^n(P_{k+n}(0))
    is critical and no f^j(P_{k+n}(0)), 0 < j < n, is.  By the image rule
    (f^j(P_m(0)) is critical iff the reach r_{j-1} > m, Lamination.reach) the
    latter holds from k0 = max(0, max{r_i : i < n - 1} - n) on.  It
    renormalizes iff f^{tn}(P_{k+n+tn}(0)) is critical for all t >= 1: l > k + n
    at every slot of c_{tn-1}.  A deeper k only raises that bar, so k0 is the
    one candidate.

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


def detect(lam: Lamination, budget: int) -> RenormReport:
    """The least period n in 2..budget whose level k0 (RenormReport) is within
    the budget and renormalizes.  A late-landing lamination never does: c_k is
    a cycle angle from k = entry_step on.  It has no pieces past entry_step,
    and raises Case1DegenerateError where a search over every k <= budget asks
    for one: at k = budget when budget + n > entry_step, or at a k >= k0 whose
    f^n(P_{k+n}(0)) and returns below entry_step are all critical."""
    top, e = 0, lam.entry_step  # top = max{r_i : i < n - 1}
    for n in range(2, budget + 1):
        top = max(top, lam.reach(n - 2))
        k0 = max(0, top - n)
        if e is not None:
            if budget + n > e or any(lam.reach(n - 1) > k + n and _returns(lam, n, k, (e - k) // n)
                                     for k in range(min(k0, budget + 1), budget + 1)):
                raise Case1DegenerateError(e)
        elif k0 <= budget and _returns(lam, n, k0, len(lam.critical_leaf_levels) + 1):
            return RenormReport(True, n, k0, "satellite" if n == lam.q else "primitive", budget)
    return RenormReport(False, None, None, None, budget)


def _returns(lam: Lamination, n: int, k: int, stop: int) -> bool:
    """f^{tn}(P_{k+n+tn}(0)) is critical (l_{tn-1} > k + n) for 0 < t < stop.  The
    slot of c_{tn-1} is periodic in t past the preperiod: the orbit length
    bounds the t that meet every slot."""
    return all(lam.reach(t * n - 1) > k + (t + 1) * n for t in range(1, stop))


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
