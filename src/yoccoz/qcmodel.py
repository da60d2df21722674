"""The explicit quasiconformal model: recursively notched square (S, N),
recursively slitted square (S', V'), the PL map phi between their complements,
the square extension psi, the square -> diamond -> strip maps, and the slice
embedding into the dynamical plane.

Both figures describing the original triangulations are placeholders in the
source; the 9-triangle block scheme and the averaged boundary extension here
are re-derivations that satisfy the stated contracts (continuity, boundary
values, depth-independent dilatation), which is what the tests pin down.

Geometry conventions: S = (0,1) x (-1/2,1/2), S' = (-1,1)^2, strip = 0 < Im < pi.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .config import Config
from .errors import ModelViolationError, OutsideDomainError
from .plgeom import (AffineMap, Cell, PLAtlas, conjugate_cell, make_cell, similarity,
                     singular_value_ratio, vec)

HALF = Fraction(1, 2)
THREE_FIFTHS = Fraction(3, 5)


# ------------------------------------------------------- canonical squares


@dataclass(frozen=True)
class Square:
    x0: Fraction
    y0: Fraction
    side: Fraction

    @property
    def x1(self):
        return self.x0 + self.side

    @property
    def y1(self):
        return self.y0 + self.side


@dataclass
class NotchedSquare:
    """S with the middle-ninth square and its h_l/h_r copies removed.

    squares[k] lists the 2^k word-length-k copies of the central square; the
    real slice of what remains is the middle-thirds construction.
    """

    depth: int
    squares: list[list[Square]]

    def all_squares(self):
        return [s for layer in self.squares for s in layer]

    def real_slice_intervals(self) -> list[tuple[Fraction, Fraction]]:
        """Components of [0,1] minus the open notch intervals."""
        cuts = sorted((s.x0, s.x1) for s in self.all_squares())
        out = []
        x = Fraction(0)
        for a, b in cuts:
            if a > x:
                out.append((x, a))
            x = max(x, b)
        if x < 1:
            out.append((x, Fraction(1)))
        return out


def _h_l(p):
    return (p[0] / 3, p[1] / 3)


def _h_r(p):
    return ((p[0] - 1) / 3 + 1, p[1] / 3)


def build_notched(depth: int) -> NotchedSquare:
    """Exact rational geometry of the notch squares to word length ``depth``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    central = Square(Fraction(1, 3), Fraction(-1, 6), Fraction(1, 3))
    layers = [[central]]
    for _ in range(depth):
        nxt = []
        for sq in layers[-1]:
            for h in (_h_l, _h_r):
                x0, y0 = h((sq.x0, sq.y0))
                nxt.append(Square(x0, y0, sq.side / 3))
        layers.append(nxt)
    return NotchedSquare(depth=depth, squares=layers)


@dataclass(frozen=True, slots=True)
class Slit:
    """The slit x = p / 2^level, |y| <= (3/5) 2^-level, level minimal."""

    p: int  # odd, or 0 at level 0
    level: int

    @property
    def alpha(self) -> Fraction:  # dyadic abscissa in (-1, 1)
        return Fraction(self.p, 1 << self.level)

    @property
    def half_height(self) -> Fraction:
        return THREE_FIFTHS / (1 << self.level)


# Depth 18: `qc strip` takes about 2.6 s and 174 MB there, about twice that at depth 19
MAX_SLITS = (1 << 19) - 1


def build_slitted(depth: int) -> list[Slit]:
    """All slits of dyadic level <= depth, level by level, left to right."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    max_depth = MAX_SLITS.bit_length() - 1
    if depth > max_depth:  # 2^(depth+1) - 1 > MAX_SLITS; a huge count stays unexpanded
        count = (1 << (depth + 1)) - 1 if depth < 64 else f"2^{depth + 1} - 1"
        raise ValueError(f"depth {depth} has {count} slits, over the bound of "
                         f"{MAX_SLITS} slits (depth {max_depth})")
    return [Slit(0, 0)] + [Slit(p, k) for k in range(1, depth + 1)
                           for p in range(-(1 << k) + 1, 1 << k, 2)]


# ------------------------------------------------------------- block map


def block_map(width, height, a_lo, a_hi, t_width, t_height, slit_x, slit_len) -> PLAtlas:
    """PL homeomorphism of a marked rectangle onto a slitted rectangle.

    Source: [0,width]x[0,height] with the marked interval A=[a_lo,a_hi] on the
    bottom side; target: [0,t_width]x[0,t_height] with a vertical slit from
    (slit_x, 0) to (slit_x, slit_len).  The 9-triangle scheme opens A onto the
    two sides of the slit: A's midpoint goes to the slit tip and one interior
    apex sits on each side of the cut, so every target triangle stays on a
    single side.  Similar inputs give similarity-conjugate cells, hence one
    dilatation multiset K_block.
    """
    w, ht = Fraction(width), Fraction(height)
    a1, a2 = Fraction(a_lo), Fraction(a_hi)
    tw, th = Fraction(t_width), Fraction(t_height)
    sx, sl = Fraction(slit_x), Fraction(slit_len)
    if not (0 < a1 < a2 < w and ht > 0):
        raise ValueError("invalid-geometry: marked interval not properly inside the bottom side")
    if not (0 < sx < tw and 0 < sl < th / 2):
        raise ValueError("invalid-geometry: slit must end strictly below the apex height")
    m = (a1 + a2) / 2
    C1, P1, M, P2, C2, C3, C4 = (0, 0), (a1, 0), (m, 0), (a2, 0), (w, 0), (w, ht), (0, ht)
    W1, W2 = (m / 2, ht / 2), ((m + w) / 2, ht / 2)
    C1t, S0, T, C2t, C3t, C4t = (0, 0), (sx, 0), (sx, sl), (tw, 0), (tw, th), (0, th)
    W1t, W2t = (sx / 2, th / 2), ((sx + tw) / 2, th / 2)
    pairs = [
        ((C1, P1, W1), (C1t, S0, W1t), "left-bottom"),
        ((P1, M, W1), (S0, T, W1t), "slit-left"),
        ((M, W2, W1), (T, W2t, W1t), "mid"),
        ((W2, C4, W1), (W2t, C4t, W1t), "upper-mid"),
        ((C4, C1, W1), (C4t, C1t, W1t), "left-side"),
        ((M, P2, W2), (T, S0, W2t), "slit-right"),
        ((P2, C2, W2), (S0, C2t, W2t), "right-bottom"),
        ((C2, C3, W2), (C2t, C3t, W2t), "right-side"),
        ((C3, C4, W2), (C3t, C4t, W2t), "top"),
    ]
    try:
        cells = [make_cell(s, d, tag) for s, d, tag in pairs]
    except ValueError as exc:
        raise ValueError(f"invalid-geometry: {exc}") from exc
    return PLAtlas(cells, domain_tag="block")


# The block instance underlying the phi decomposition: marked 3:1:1
# rectangle onto the 20:5:1 slitted one (both centered).
BLOCK_CELLS: tuple[Cell, ...] = tuple(block_map(3, 1, 1, 2, 20, 5, 10, 1).cells)
BLOCK_DILATATION = max(c.map.dilatation() for c in BLOCK_CELLS)


# ------------------------------------------------------------- phi atlas


def _cantor_left(i: int, n: int) -> Fraction:
    """Left endpoint of the i-th stage-n middle-thirds interval."""
    x = Fraction(0)
    for j in range(1, n + 1):
        if (i >> (n - j)) & 1:
            x += Fraction(2, 3**j)
    return x


def _phi_block(n: int, i: int, lower: bool):
    """The similarity pair (smap, tmap) conjugating the canonical block onto
    block i of strip level n: smap takes [0,3]x[0,1] onto the source block
    [x_i, x_i + 3^-n] x [3^-(n+1)/2, 3^-n/2] (mirrored to y < 0 if lower),
    tmap takes [0,20]x[0,5] onto [2i/2^n - 1, 2(i+1)/2^n - 1] x [2^-(n+1), 2^-n]."""
    src_scale = Fraction(1, 3 ** (n + 1))
    tgt_scale = Fraction(1, 10 * 2**n)
    sy = Fraction(1, 2 * 3 ** (n + 1))
    ty = Fraction(1, 1 << (n + 1))
    smap = similarity(src_scale, _cantor_left(i, n), -sy if lower else sy, flip_y=lower)
    tmap = similarity(tgt_scale, Fraction(2 * i, 1 << n) - 1, -ty if lower else ty, flip_y=lower)
    return smap, tmap


def _check_phi_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be >= 1")


def phi_atlas(depth: int) -> PLAtlas:
    """phi: S - closure(N) -> S' - closure(V') assembled from similarity
    conjugates of the canonical block, one per node of the two binary trees
    (strip levels 0..depth, upper and lower).  Materializes every cell; the
    lazy PhiModel answers the same questions from one block per level."""
    _check_phi_depth(depth)
    cells: list[Cell] = []
    for n in range(depth + 1):
        for i in range(1 << n):
            for lower in (False, True):
                smap, tmap = _phi_block(n, i, lower)
                tag = f"{'low' if lower else 'up'}/n{n}/i{i}"
                cells.extend(conjugate_cell(c, smap, tmap, tag=f"{tag}/{c.tag}")
                             for c in BLOCK_CELLS)
    return PLAtlas(cells, domain_tag="phi")


class PhiModel:
    """phi to strip level ``depth`` without materializing its cells.

    Every cell of phi_atlas(depth) is a conjugate tmap o A o smap^-1 of a
    canonical block cell A by the similarity pair of its block.  Its linear
    part is lambda_n M, M the linear part of A, lambda_n = 3^(n+1)/(10 2^n)
    the ratio of the level-n target and source scales, with the signs of the
    off-diagonal entries flipped in the lower half; a point's level follows
    from |y| and its block from the first n ternary digits of x.
    """

    def __init__(self, depth: int):
        _check_phi_depth(depth)
        self.depth = depth

    @property
    def cell_count(self) -> int:
        """18 (2^(depth+1) - 1): 9 cells per block, 2^n blocks per level and half."""
        return 18 * ((1 << (self.depth + 1)) - 1)

    def dilatations(self) -> list[float]:
        """The cell dilatations of block 0 of every level and half: the same
        floats as phi_atlas(depth).dilatations(), without the multiplicities.

        They come from the scaled linear parts lambda_n M alone.  The lower
        half's sign flips change neither a^2 + b^2 + c^2 + d^2 nor the
        determinant, so its 9 floats repeat the upper half's."""
        out: list[float] = []
        for n in range(self.depth + 1):
            lam = Fraction(3 ** (n + 1), 10 * 2**n)
            level = [AffineMap(lam * m.a, lam * m.b, lam * m.c, lam * m.d, 0, 0).dilatation()
                     for m in (cell.map for cell in BLOCK_CELLS)]
            out += level + level
        return out

    def max_dilatation(self) -> float:
        return max(self.dilatations())

    def _block_of(self, p):
        """(n, i, lower) of a block whose closed source rectangle holds p, or
        None.  On a row boundary |y| = 3^-(n+1)/2 the upper row n is taken:
        its bottom side spans the whole block, so it holds p whenever row
        n + 1 does."""
        x, y = p
        a = abs(y)
        if a == 0 or a > HALF or not 0 <= x <= 1:
            return None
        n = 0
        while 2 * a * 3 ** (n + 1) < 1:  # a < 3^-(n+1)/2: p lies in a deeper row
            n += 1
            if n > self.depth:
                return None
        scaled = x * 3**n
        k = scaled.numerator // scaled.denominator
        # x sits in [k, k+1] 3^-n, and also in [k-1, k] 3^-n when it is that
        # interval's right end; at most one of the two is a Cantor interval
        for k in ((k, k - 1) if scaled == k else (k,)):
            if not 0 <= k < 3**n:
                continue
            i, digits = 0, k
            for j in range(n):
                digits, t = divmod(digits, 3)
                if t == 1:  # a notch of level <= n
                    break
                i |= (t >> 1) << j
            else:
                return n, i, y < 0
        return None

    def evaluate(self, p) -> tuple[Fraction, Fraction]:
        """phi(p) in exact rationals: the value phi_atlas(depth).evaluate(p)
        gives, in O(depth) operations."""
        q = vec(*p)
        block = self._block_of(q)
        if block is None:
            raise OutsideDomainError(f"{p} is outside the phi atlas")
        smap, tmap = _phi_block(*block)
        u = ((q[0] - smap.tx) / smap.a, (q[1] - smap.ty) / smap.d)
        cell = next(c for c in BLOCK_CELLS if c.contains(u))
        return tmap(cell.map(u))


# ----------------------------------------------------------- psi extension


def v32(y: Fraction | float) -> float:
    """The 3-adic -> 2-adic vertical boundary homeomorphism [-1/2,1/2] -> [-1,1]:
    row [3^-(n+1)/2, 3^-n/2] maps linearly onto [2^-(n+1), 2^-n] (odd in y).
    These are phi's values on the vertical sides of S."""
    y = float(y)
    if y == 0:
        return 0.0
    s = math.copysign(1.0, y)
    a = abs(2 * y)  # in (0, 1]
    n = 0
    while a < 3.0 ** -(n + 1) and n < 600:
        n += 1
    lo, hi = 3.0 ** -(n + 1), 3.0**-n
    frac = (a - lo) / (hi - lo)
    return s * (2.0 ** -(n + 1)) * (1 + frac)


_GAUSS = [
    (0.5 * (1 - x), 0.5 * w)
    for x, w in zip(
        [-0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
         -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
         0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
        [0.027152459411754094, 0.06225352393864789, 0.09515851168249278, 0.12462897125553387,
         0.14959598881657673, 0.16915651939500254, 0.18260341504492358, 0.18945061045506849,
         0.18945061045506849, 0.18260341504492358, 0.16915651939500254, 0.14959598881657673,
         0.12462897125553387, 0.09515851168249278, 0.06225352393864789, 0.027152459411754094],
    )
]


def _v32_reflected(y: float) -> float:
    """v32 extended by odd reflection in the endpoints +-1/2 (one window)."""
    if y > 0.5:
        return 2.0 - _v32_reflected(1.0 - y)
    if y < -0.5:
        return -2.0 - _v32_reflected(-1.0 - y)
    return v32(y)


def _ba_pair(f, y: float, t: float, edge, t_min: float):
    """Beurling-Ahlfors average pair of a boundary map at height t over the
    Gauss nodes: u = mean of (f(y+st)+f(y-st))/2, v = mean of (f(y+st)-f(y-st))/2.

    f comes already extended by odd reflection in its interval's endpoints,
    which makes u hit the boundary values there exactly (the integrand
    cancels pointwise).  At t <= t_min the pair is (edge(y), 0).
    """
    if t <= t_min:
        return edge(y), 0.0
    u = v = 0.0
    for s, w in _GAUSS:
        fp, fm = f(y + s * t), f(y - s * t)
        u += w * (fp + fm)
        v += w * (fp - fm)
    return u / 2, v / 2


def _v32_pair(y: float, t: float):
    """The average pair of the side map v32; its odd reflection in +-1/2 makes
    u(+-1/2, t) = +-1, so the extension hits the horizontal edges of S'."""
    return _ba_pair(_v32_reflected, y, t, _v32_reflected, 1e-14)


class PsiExtension:
    """Homeomorphism S -> S' agreeing with phi on the boundary.

    Near each vertical side the map is the Beurling-Ahlfors extension pair of
    the side's 3-adic/2-adic boundary map (quasiconformal with a bound set by
    the quasisymmetry constant of v32); across the middle band the two side
    extensions are joined linearly, and a final PL horizontal shear restores
    the linear parametrization of the top and bottom edges.  Dilatation is
    therefore uniformly bounded, unlike a naive blend of the side maps.
    """

    BAND = 0.25

    def __init__(self):
        b = self.BAND
        # exact top-edge image of the pre-correction map: v32 is linear with
        # slope 3/2 on the outermost rows, so v(1/2, x) = (3/4) x there
        mu_knots = [(-1.0, -1.0), (-1.0 + 0.75 * b, -0.5), (1.0 - 0.75 * b, 0.5), (1.0, 1.0)]
        self._mu_knots = mu_knots

    def _chi_top(self, w: float) -> float:
        ks = self._mu_knots
        for (a, fa), (bb, fb) in zip(ks, ks[1:]):
            if w <= bb or (bb, fb) == ks[-1]:
                return fa + (fb - fa) * (w - a) / (bb - a)
        return w

    def _raw(self, x: float, y: float):
        b = self.BAND
        if x <= b:
            u, v = _v32_pair(y, x)
            return (-1.0 + v, u)
        if x >= 1 - b:
            u, v = _v32_pair(y, 1 - x)
            return (1.0 - v, u)
        u, v = _v32_pair(y, b)  # both side extensions at the band's edge
        s = (x - b) / (1 - 2 * b)
        return ((1 - s) * (-1.0 + v) + s * (1.0 - v), (1 - s) * u + s * u)

    def __call__(self, x, y):
        X, Y = self._raw(float(x), float(y))
        lam = max(0.0, 2.0 * abs(Y) - 1.0)
        return (X + lam * (self._chi_top(X) - X), Y)

    def dilatation_at(self, x, y) -> float | None:
        """Pointwise dilatation by central differences of step at most 1e-6;
        returns None on the measure-zero seams (band joints, chi kink) where
        the difference quotient would mix two smooth pieces."""
        x, y = float(x), float(y)
        b = self.BAND
        h = min(1e-6, x / 2 + 1e-15, (1 - x) / 2 + 1e-15, (y + 0.5) / 2 + 1e-15, (0.5 - y) / 2 + 1e-15)
        if h <= 0:
            return None
        if abs(x - b) < 2 * h or abs(x - (1 - b)) < 2 * h:
            return None
        Y = self(x, y)[1]
        if abs(abs(Y) - 0.5) < 16 * h:
            return None
        fxp, fxm = self(x + h, y), self(x - h, y)
        fyp, fym = self(x, y + h), self(x, y - h)
        a = (fxp[0] - fxm[0]) / (2 * h)
        c = (fxp[1] - fxm[1]) / (2 * h)
        bb = (fyp[0] - fym[0]) / (2 * h)
        d = (fyp[1] - fym[1]) / (2 * h)
        return singular_value_ratio(a * a + bb * bb + c * c + d * d, a * d - bb * c)


def psi_dilatation_report(refine: int = 1) -> dict:
    """Empirical max dilatation of psi over a deterministic grid.

    The construction is asymptotically self-similar under (x, y) -> (x/3, y/3),
    so a log-spaced grid in x near both vertical sides sees every scale; the
    reported max is labeled empirical, per the figure-free re-derivation.
    """
    psi = PsiExtension()
    nx, ny = 18 * refine, 25 * refine
    xs = [10 ** (-4 + 3.7 * i / (nx - 1)) * 0.24 for i in range(nx)]
    xs += [1 - x for x in xs] + [0.5]
    worst = 0.0
    samples = 0
    for x in xs:
        for j in range(ny):
            y = -0.495 + 0.99 * j / (ny - 1)
            d = psi.dilatation_at(x, y)
            if d is not None:
                worst = max(worst, d)
                samples += 1
    return {"max_dilatation": worst, "samples": samples, "refine": refine,
            "note": "empirical maximum over a deterministic sample grid"}


# --------------------------------------------------- diamond and the strip


def square_to_diamond() -> PLAtlas:
    """PL map S' -> the inscribed diamond Q, the identity on the convex hull
    of V' = {|y| <= (3/5)(1 - |x|)} (Fact angle pins that hull down)."""
    A, Bv, C, D = (1, 0), (0, 1), (-1, 0), (0, -1)  # diamond vertices
    Ht, Hb = (0, THREE_FIFTHS), (0, -THREE_FIFTHS)  # hull apexes
    cells = [
        make_cell(((-1, 0), (1, 0), Ht), ((-1, 0), (1, 0), Ht), "hull-upper"),
        make_cell(((1, 0), (-1, 0), Hb), ((1, 0), (-1, 0), Hb), "hull-lower"),
    ]
    up = [
        (((1, 0), (1, 1), Ht), ((1, 0), (HALF, HALF), Ht)),
        (((1, 1), (0, 1), Ht), ((HALF, HALF), (0, 1), Ht)),
        (((0, 1), (-1, 1), Ht), ((0, 1), (-HALF, HALF), Ht)),
        (((-1, 1), (-1, 0), Ht), ((-HALF, HALF), (-1, 0), Ht)),
    ]
    for k, (s, d) in enumerate(up):
        cells.append(make_cell(s, d, f"up{k}"))
        flip = lambda tri: tuple((p[0], -Fraction(p[1])) for p in tri)
        s2, d2 = flip(s), flip(d)
        cells.append(make_cell((s2[0], s2[2], s2[1]), (d2[0], d2[2], d2[1]), f"low{k}"))
    return PLAtlas(cells, domain_tag="square-to-diamond")


def _rho_u(x: float) -> float:
    """The abscissa of rho-+ at x: log(1 + x) for x <= 0, -log(1 - x) after."""
    return math.log1p(x) if x <= 0 else -math.log1p(-x)


class DiamondToStrip:
    """rho-: (x,y) -> (log(1+x), y/(1+x)) on the left half of the diamond and
    rho+: (x,y) -> (-log(1-x), y/(1-x)) on the right, glued along the y-axis.
    Takes vertical segments to vertical segments; dilatation is that of the
    unit shear with parameter s = y/(1 -+ x), so it peaks at (3+sqrt(5))/2 on
    the diamond edges and never exceeds 3."""

    def __call__(self, x, y):
        x, y = float(x), float(y)
        if abs(y) > 1 - abs(x) + 1e-12:
            raise OutsideDomainError(f"({x},{y}) outside the diamond")
        return (_rho_u(x), self.shear(x, y))

    @staticmethod
    def shear(x, y) -> float:
        return y / (1 + x) if x <= 0 else y / (1 - x)


def shear_dilatation(s: float) -> float:
    """Dilatation of the unit shear (x, y) -> (x, y + s x)."""
    return singular_value_ratio(2 + s * s, 1)


@dataclass(slots=True)
class StripSlit:
    u: float  # horizontal position in the strip 0 < Im < pi
    im_lo: float
    im_hi: float
    level: int
    n: int  # 2^level - |p| for the slit at p / 2^level

    @property
    def ratio(self) -> Fraction:
        """Exact |y/(1 -+ x)| at the endpoints (before pi-scaling)."""
        return Fraction(3, 5 * self.n)


@dataclass
class StripModel:
    depth: int
    slits: list[StripSlit]
    closure_ratio: float  # max slit height / distance to older slit (midline echo)


def strip_model(depth: int) -> StripModel:
    """Compose phi, the diamond map, and rho+- with the final similarity onto
    {0 < Im z < pi}; inventory the slit images and check the pi/5..4pi/5 band.

    Slits sit inside the hull where the diamond map is the identity, and rho+-
    keeps them vertical; the image of x = alpha, |y| <= h is the segment at
    u = -+log(1 -+ alpha) with |Im - pi/2| <= (pi/2) h/(1 -+ alpha).  The band
    bound is exactly Fact angle's 3/5, checked on an integer: for
    alpha = p/2^k the ratio h/(1 -+ alpha) is 3/(5 (2^k - |p|)).
    Each slit's closure gap, to the nearest older (lower-level) slit, is read
    at its dyadic neighbours alpha +- 2^-level, which are slits inside (-1, 1)
    (+-1 is the edge): none lies between, and u increases with alpha.  A
    dyadic of level <= 18 is an exact float, so the neighbours' u are the
    floats their own slits get.
    """
    out = []
    worst = 0.0
    for s in build_slitted(depth):
        k = s.level
        n = (1 << k) - abs(s.p)
        if n < 1:
            raise ModelViolationError("slit image escapes the pi/5..4pi/5 band")
        a = s.p / (1 << k)
        u = _rho_u(a)
        half = math.pi / 2 * (3 / (5 * n))
        im_hi = math.pi / 2 + half
        if k:
            step = 2.0 ** -k
            g = min(abs(u - _rho_u(b)) for b in (a - step, a + step) if -1 < b < 1)
            worst = max(worst, (im_hi - math.pi / 2) / g)
        out.append(StripSlit(u=u, im_lo=math.pi / 2 - half, im_hi=im_hi, level=k, n=n))
    return StripModel(depth=depth, slits=out, closure_ratio=worst)


# ---------------------------------------------------------- slice embedding


def _q_knots(slc, depth: int, coord: int):
    """PL knots of q1 (coord 0) or q2 (coord 1): the Cantor-set values of the
    slice contractions, word for word, joined linearly across the gaps."""
    from .lamination import apply_slice_word, cantor_coordinates

    knots = []
    words = [[]]
    for _ in range(depth):
        words = [w + [i] for w in words for i in (1, 2)]
    for w in words:
        p0 = apply_slice_word(slc, w, slc.A.frac, slc.D.frac)
        p1 = apply_slice_word(slc, w, slc.B.frac, slc.C.frac)
        knots.append((cantor_coordinates(w), p0[coord]))
        knots.append((cantor_coordinates(w, 1), p1[coord]))
    knots.sort()
    xs = [float(k[0]) for k in knots]
    ys = [float(k[1]) for k in knots]
    return xs, ys


def slice_q_maps(slc, depth: int = 5):
    """Monotone PL representatives of q1: [0,1] -> [A,B] and q2: [0,1] -> [C,D]
    (q2 orientation-reversing), exact on the depth-limited Cantor data."""
    x1, y1 = _q_knots(slc, depth, 0)
    x2, y2 = _q_knots(slc, depth, 1)

    def interp(xs, ys):
        def f(x):
            x = min(max(x, 0.0), 1.0)
            i = bisect_right(xs, x) - 1
            i = min(max(i, 0), len(xs) - 2)
            if xs[i + 1] == xs[i]:
                return ys[i]
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
            return (1 - t) * ys[i] + t * ys[i + 1]

        return f

    return interp(x1, y1), interp(x2, y2)


def _unit_pair(q):
    """The full average pair (x, spread) -> (u, v) of a scalar increasing map
    q of [0,1] with q(0) = 0 and q(1) = 1: the symmetric average u and the
    conjugate half-difference v (v >= 0 measures the local stretch and
    vanishes on the boundary line)."""

    def reflected(s):
        if s < 0:
            return -reflected(-s)
        if s > 1:
            return 2.0 - reflected(2.0 - s)
        return q(s)

    def edge(s):
        return q(min(max(s, 0.0), 1.0))

    return lambda x, spread: _ba_pair(reflected, x, spread, edge, 1e-15)


def _lemma_square_extension(q):
    """Square extension with the multiple-reflection boundary scheme
    Q(x,0)=(q(x),0), Q(0,y)=(0,q(y)), Q(x,1)=(1-q(1-x),1), Q(1,y)=(1,1-q(1-y)).

    Each side contributes its genuine Beurling-Ahlfors extension pair (so the
    scales of both partial derivatives match the distance to that side); the
    four extensions are glued by weights that hand control to a side as its
    distance vanishes.  The boundary values are hit exactly via the odd
    endpoint reflection in the averages.
    """
    pair = _unit_pair(q)
    top_pair = _unit_pair(lambda s: 1.0 - q(1.0 - s))

    def from_top(x, y):
        u, v = top_pair(x, 1 - y)
        return (u, 1.0 - v)

    def from_left(x, y):
        u, v = pair(y, x)
        return (v, u)

    def from_right(x, y):
        u, v = top_pair(y, 1 - x)
        return (1.0 - v, u)

    def Q(x, y):
        dx0, dx1 = max(x, 0.0), max(1 - x, 0.0)
        dy0, dy1 = max(y, 0.0), max(1 - y, 0.0)
        # inverse-distance control: a side wins as its distance vanishes
        eps = 1e-300
        wb, wt = 1.0 / (dy0 + eps), 1.0 / (dy1 + eps)
        wl, wr = 1.0 / (dx0 + eps), 1.0 / (dx1 + eps)
        tot = wb + wt + wl + wr
        qb, qt = pair(x, y), from_top(x, y)
        ql, qr_ = from_left(x, y), from_right(x, y)
        u = (wb * qb[0] + wt * qt[0] + wl * ql[0] + wr * qr_[0]) / tot
        v = (wb * qb[1] + wt * qt[1] + wl * ql[1] + wr * qr_[1]) / tot
        return (u, v)

    return Q


POT_SCALE = 0.05  # slice_embedding's model-to-potential factor


@dataclass
class SliceEmbeddingReport:
    """Empirical data of the sampled embedding.

    The stable quantity is the interior dilatation (quads whose parameters
    stay 1/8 away from the square's boundary).
    """

    mesh: tuple[int, int]
    q1_monotone: bool
    q1_at_zero: float
    corner_errors: list[float]
    max_dilatation: float  # interior region
    refined_max_dilatation: float  # interior region, doubled mesh
    min_offboundary_potential: float
    points: list[list[complex]]


def slice_embedding(slc, c, depth: int = 3, mesh: tuple[int, int] | None = None,
                    cfg: Config = Config()) -> SliceEmbeddingReport:
    """Sampled embedding of the upper half of the notched-square model into
    the dynamical plane: the Cantor boundary map q1 from the slice dynamics,
    its square extension, then external-ray evaluation phi(e^{2 pi i z}).

    The mesh rows live at positive potential, so every off-boundary sample is
    off the Julia set by construction; the bottom row approaches the Cantor
    set of ray-pair landing points.  A model point (u, v) sits at potential
    max(v, 1e-3) * POT_SCALE.
    """
    from .angles import from_fraction
    from .geometry import ray_point, ray_points

    if mesh is None:
        mesh = (2 * 3**depth, 8)  # resolve the finest PL piece of the q map
    q1raw, _ = slice_q_maps(slc, depth)
    A, B = float(slc.A.frac), float(slc.B.frac)
    qn = lambda x: (q1raw(x) - A) / (B - A)
    ext = _lemma_square_extension(qn)

    def ray_at(u, v):
        """The ray angle and potential of the model point (u, v)."""
        theta = Fraction(A + (B - A) * u).limit_denominator(1 << 24)
        return from_fraction(theta), max(v, 1e-3) * POT_SCALE

    def embed(u, v):
        return ray_point(c, *ray_at(u, v), cfg)

    nx, ny = mesh

    def sample(nx, ny):
        """The mesh in the plane, each row traced as one fan of rays."""
        rows = []
        for j in range(ny + 1):
            thetas, pots = zip(*(ray_at(*ext(i / nx, j / ny)) for i in range(nx + 1)))
            rows.append(ray_points(c, thetas, pots, cfg))
        return rows

    pts = sample(nx, ny)

    def quad_dil(rows):
        """Per-quad distortion from the real Jacobian, orientation-agnostic:
        the (angle, potential) parameter square is a reflected conformal
        chart, so only |det| is meaningful here.  Quads within 1/8 of the
        square's boundary are skipped: the bottom row sits on the clamped
        potential floor next to the Julia set (where the model map is only
        required to degenerate), and the side and top rows hold the edge
        gluing zones of the square extension."""
        margin = 0.125
        worst = 0.0
        NX, NY = len(rows[0]) - 1, len(rows) - 1
        hx, hy = 1.0 / NX, 1.0 / NY
        for j in range(math.ceil(margin * NY), NY):
            if (j + 1) / NY > 1 - margin:
                continue
            for i in range(NX):
                if i / NX < margin or (i + 1) / NX > 1 - margin:
                    continue
                dx = (rows[j][i + 1] - rows[j][i] + rows[j + 1][i + 1] - rows[j + 1][i]) / (2 * hx)
                dy = (rows[j + 1][i] - rows[j][i] + rows[j + 1][i + 1] - rows[j][i + 1]) / (2 * hy)
                a, c = dx.real, dx.imag
                b, d = dy.real, dy.imag
                t = a * a + b * b + c * c + d * d
                worst = max(worst, singular_value_ratio(t, abs(a * d - b * c)))
        return worst

    refined = sample(2 * nx, 2 * ny)
    d1 = quad_dil(pts)
    d2 = quad_dil(refined)

    monotone = all(q1raw((k + 1) / 200) >= q1raw(k / 200) - 1e-15 for k in range(200))
    corners = [
        abs(embed(*ext(0.0, 0.0)[0:2]) - ray_point(c, slc.A, 1e-3 * POT_SCALE, cfg)),
        abs(embed(*ext(1.0, 0.0)[0:2]) - ray_point(c, slc.B, 1e-3 * POT_SCALE, cfg)),
    ]
    return SliceEmbeddingReport(
        mesh=mesh,
        q1_monotone=monotone,
        q1_at_zero=q1raw(0.0),
        corner_errors=corners,
        max_dilatation=d1,
        refined_max_dilatation=d2,
        min_offboundary_potential=1e-3 * POT_SCALE,
        points=pts,
    )
