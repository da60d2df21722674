"""The three-case tiling decomposition, residual-set membership, and the
well-surrounded annulus certificate.

Case tags carry evidence depth: non-recurrence is semi-decidable in general,
and "diverges" is reported finitarily as class-count growth; the artifact
never claims a literal limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, product

from .angles import Angle
from .errors import (
    Case1DegenerateError,
    NotFoundWithinBudgetError,
    OnBoundaryError,
)
from .lamination import Lamination, build
from .puzzle import (
    CRITICAL,
    PieceRef,
    critical_piece,
    descendant_check,
    first_nondegenerate,
    fraternal_descendants,
    query_angle,
    sub_pieces,
    tau,
    tau_sequence,
)


@dataclass(frozen=True)
class CaseTag:
    kind: str  # TrivialCase1 | Recurrent | PresumedNonRecurrent
    evidence_depth: int
    detail: str = ""


def classify_case(p: int, q: int, theta_v: Angle, depth: int, lam: Lamination | None = None) -> CaseTag:
    """Case 1 iff theta_v's orbit meets the alpha cycle (exact for rationals);
    else Recurrent(d) iff the critical orbit re-enters every critical piece up
    to depth d; otherwise PresumedNonRecurrent(d).  The entry step is the
    lamination's (its build walks the orbit of theta_v).  Without ``lam`` it
    builds one at depth 1, so theta_v outside the critical-value sector raises
    InvalidThetaError unless its orbit lands on the alpha cycle."""
    if lam is None:
        try:
            lam = build(p, q, theta_v, 1)
        except Case1DegenerateError as exc:
            return trivial_case(exc.step)
    if lam.entry_step is not None:
        return trivial_case(lam.entry_step)
    d = _orbit_free_level(lam)
    if d <= depth:
        return CaseTag("PresumedNonRecurrent", depth, f"no return into the level-{d} critical piece")
    return CaseTag("Recurrent", depth)


def trivial_case(entry: int) -> CaseTag:
    """Case 1: 2^entry theta_v is a cycle angle."""
    return CaseTag("TrivialCase1", entry, f"2^{entry} theta_v lies in the alpha cycle")


def _orbit_free_level(lam: Lamination) -> int:
    """Least N >= 1 whose critical piece misses the whole critical orbit: the
    level-N piece holds c_k iff its leaf level exceeds N."""
    return max(1, max(lam.critical_leaf_levels))


@dataclass
class Tiling:
    case: CaseTag
    L: int
    piece: PieceRef | None
    tiles: list[PieceRef]
    residual_params: tuple[int, int]  # (p, L)
    unresolved: int  # pieces past the enumeration cap still failing univalence
    max_tile_level: int
    base_level: int | None = None  # N of the first nondegenerate annulus (case 3)
    fraternal: tuple[int, int] | None = None


def trivial_tiling(case: CaseTag, level: int) -> Tiling:
    """Case-1 decomposition: the whole piece is one univalent tile, R empty."""
    return Tiling(
        case=case, L=case.evidence_depth, piece=None, tiles=[],
        residual_params=(level, case.evidence_depth), unresolved=0, max_tile_level=level,
    )


def univalent_to_level(lam: Lamination, piece: PieceRef, L: int) -> bool:
    """f^{level-L} is univalent on the piece: no critical image before level
    L, i.e. tau(level) <= L."""
    return tau(lam, piece.level, piece.probe) <= L


def case2_level(lam: Lamination, budget: int) -> int:
    """Least N whose critical piece misses the whole critical orbit (exact for
    preperiodic angles: the orbit is finite)."""
    N = _orbit_free_level(lam)
    if N <= budget:
        return N
    raise NotFoundWithinBudgetError(budget, "critical orbit meets every critical piece probed")


def case3_level(lam: Lamination, budget: int) -> tuple[int, tuple[int, int], int]:
    """(N, (N1, N2), L): the first nondegenerate critical annulus A_N(0), its
    fraternal descendants, and L = max(N1, N2) + 3."""
    N = first_nondegenerate(lam, budget)
    fraternal = fraternal_descendants(lam, N, budget)
    return N, fraternal, max(fraternal) + 3


def tile(lam: Lamination, level: int, max_tile_level: int, search_budget: int = 24) -> Tiling:
    """Greedy decomposition of the level-n critical piece into maximal
    sub-pieces that map univalently to level L (tau <= L); any other child is
    cut again below max_tile_level and counted as unresolved from it on.  L is
    the orbit-free level in case 2 and max(N1, N2) + 3 in case 3; case 1 is
    the trivial tiling."""
    case = classify_case(lam.p, lam.q, lam.theta_v, depth=min(lam.depth, 10), lam=lam)
    if case.kind == "TrivialCase1":
        return trivial_tiling(case, level)
    piece = critical_piece(lam, level)
    N = fraternal = None
    if case.kind == "PresumedNonRecurrent":
        L = case2_level(lam, search_budget)
    else:
        N, fraternal, L = case3_level(lam, search_budget)
    if level <= L:
        raise ValueError(f"piece level must exceed L={L}")
    tiles = []
    unresolved = 0
    queue = [piece]
    while queue:
        cur = queue.pop()
        for sub in sub_pieces(lam, cur):
            if univalent_to_level(lam, sub, L):
                tiles.append(sub)
            elif sub.level < max_tile_level:
                queue.append(sub)
            else:
                unresolved += 1
    return Tiling(case, L, piece, tiles, (level, L), unresolved, max_tile_level,
                  base_level=N, fraternal=fraternal)


# ------------------------------------------------------------- residual set


class ResidualStatus(enum.Enum):
    IN_R_TO_DEPTH = "inR-to-depth"
    NOT_R = "notR"
    ORBIT_HITS_ALPHA = "orbit-hits-alpha"


def residual_member(lam: Lamination, theta, p: int, L: int, depth: int) -> ResidualStatus:
    """R-membership to evidence depth: notR as soon as tau drops to L.  A
    vertex of depth <= depth is the closed-form refusal that tau_sequence
    would raise; otherwise one tau sequence from p to depth answers
    membership in the level-p critical piece (tau(p) = p) and the drop."""
    if depth < p:
        raise ValueError(f"depth {depth} tests no tau value of the level-{p} piece: "
                         f"it must be >= p = {p}")
    if theta != CRITICAL and lam.is_vertex(theta, depth):
        return ResidualStatus.ORBIT_HITS_ALPHA
    taus = tau_sequence(lam, theta, depth, start=p)
    if taus[0] != p:
        raise ValueError(f"{theta} is not in the level-{p} critical piece")
    if any(t <= L for t in taus):
        return ResidualStatus.NOT_R
    return ResidualStatus.IN_R_TO_DEPTH


@dataclass
class AnnulusRecord:
    n: int
    tau_level: int
    cls: int


@dataclass
class CertificateEntry:
    theta: object  # Angle or CRITICAL
    annuli: list[AnnulusRecord]


@dataclass
class AnnulusCertificate:
    base_level: int
    fraternal: tuple[int, int]
    depth: int
    entries: list[CertificateEntry]


def surrounding_annuli(lam: Lamination, theta, N: int, depth: int, start: int | None = None) -> list[AnnulusRecord]:
    """Annuli A_n(theta) that are conformal copies of descendants of A_N(0):
    tau rises past (m, m+1) at (n, n+1) with A_m(0) a descendant of A_N(0)."""
    lo = N if start is None else start
    taus = tau_sequence(lam, theta, depth, start=lo)
    rises = [(lo + i, m) for i, (m, nxt) in enumerate(zip(taus, taus[1:]))
             if m >= N and nxt == m + 1]
    classes = {m for m in dict.fromkeys(m for _, m in rises)
               if m == N or descendant_check(lam, m, N)[0]}
    return [AnnulusRecord(n=n, tau_level=m, cls=m) for n, m in rises if m in classes]


def build_certificate(lam: Lamination, N: int, fraternal: tuple[int, int], thetas, depth: int) -> AnnulusCertificate:
    entries = [CertificateEntry(t, surrounding_annuli(lam, t, N, depth)) for t in thetas]
    return AnnulusCertificate(base_level=N, fraternal=fraternal, depth=depth, entries=entries)


@dataclass
class CertificateReport:
    ok: bool
    violations: list[str]
    class_counts: dict[str, dict[int, int]]
    warning: str = ""


def verify_certificate(lam: Lamination, cert: AnnulusCertificate) -> CertificateReport:
    """Check the structure the removability argument consumes: same-angle
    annuli strictly nested, cross-angle annuli disjoint (the intersection
    trichotomy), and no annulus closure holding a certified residual angle.
    Both cross-angle checks read s = L(z, w): A_n(z) and A_l(w), n <= l, meet
    iff s = n + 1, and w lies in A_n(z) iff s = n + 1.

    A certified angle other than CRITICAL whose orbit meets the alpha cycle
    within cert.depth doublings is a polygon vertex, on the boundary of the
    pieces its annuli are cut from: it is refused before any separation read."""
    for e in cert.entries:
        if e.theta != CRITICAL and lam.is_vertex(e.theta, cert.depth):
            raise OnBoundaryError(f"certified angle {e.theta} is a polygon vertex "
                                  f"at depth <= {cert.depth}")
    violations: list[str] = []
    counts: dict[str, dict[int, int]] = {}
    for e in cert.entries:
        levels = [a.n for a in e.annuli]
        if len(set(levels)) != len(levels):
            violations.append(f"duplicate annulus level for theta={e.theta}")
        cc: dict[int, int] = {}
        for a in e.annuli:
            cc[a.cls] = cc.get(a.cls, 0) + 1
        counts[str(e.theta)] = cc

    # s = min(L, M + 2) for the pair's top annulus level M decides every n <= M
    seps: dict[tuple[int, int], int] = {}
    for (i, e1), (j, e2) in combinations(enumerate(cert.entries), 2):
        z, w = query_angle(lam, e1.theta), query_angle(lam, e2.theta)
        levels = sorted(a.n for a in e1.annuli + e2.annuli)
        if z == w or not levels:
            continue
        if levels[0] < 0:  # each annulus level is a query level
            raise ValueError("level must be >= 0")
        M = levels[-1]
        if (s := lam.separation(M, z, w)) > M:
            s = lam.separation(M + 1, z, w)
        seps[i, j] = seps[j, i] = s
        for a1, a2 in product(e1.annuli, e2.annuli):
            n, l = sorted((a1.n, a2.n))
            if s != n + 1:
                continue  # disjoint outer pieces, or nested inside the inner piece
            if n == l:
                violations.append(f"annuli A_{a1.n}({e1.theta}) and A_{a2.n}({e2.theta}) intersect")
            else:
                violations.append(f"A_{l} of one angle sits inside A_{n} of the other "
                                  f"({e1.theta} vs {e2.theta})")

    # Lemma burp: no listed annulus closure contains a certified residual angle.
    for (i, e1), (j, e2) in product(enumerate(cert.entries), repeat=2):
        violations += [f"closure of A_{a.n}({e1.theta}) contains certified angle {e2.theta}"
                       for a in e1.annuli if seps.get((i, j)) == a.n + 1]

    warning = "" if any(e.annuli for e in cert.entries) else "empty certificate: vacuous pass"
    return CertificateReport(ok=not violations, violations=violations, class_counts=counts,
                             warning=warning)
