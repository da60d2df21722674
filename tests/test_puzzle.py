import random

import pytest
from hypothesis import given, settings, strategies as st

from yoccoz.angles import double, normalize
from yoccoz.errors import (NotFoundWithinBudgetError, NotRiseAndDropError, OnBoundaryError,
                           OrbitHitsAlphaError)
from yoccoz.lamination import build
from yoccoz import puzzle as pz

from recursion_oracle import RecursionOracle
from fixtures import (
    AIRPLANE_THETA,
    CASE3_FRATERNAL,
    CASE3_N,
    CASE3_THETA,
    MISIUREWICZ_THETA,
    SATELLITE_THETA,
)


@pytest.fixture(scope="module")
def lam():
    return build(1, 2, MISIUREWICZ_THETA, 8)


@pytest.fixture(scope="module")
def lam3():
    return build(1, 2, CASE3_THETA, 8)


def test_piece_of_sector(lam):
    piece = pz.piece_of(lam, 0, normalize(5, 12))
    assert piece.level == 0
    assert [(str(a), str(b)) for a, b in piece.boundary] == [("1/3", "2/3")]


def test_piece_of_boundary_error(lam):
    with pytest.raises(OnBoundaryError):
        pz.piece_of(lam, 0, normalize(1, 3))


def test_negative_levels_have_no_pieces(lam):
    """Level -1 is refused, not drawn as level 0: range(-1) would run no
    subdivision and return the level-0 pieces."""
    from yoccoz.geometry import piece_diameters

    with pytest.raises(ValueError, match="level must be >= 0"):
        pz.enumerate_pieces(lam, -1)
    with pytest.raises(ValueError, match="level must be >= 0"):
        piece_diameters(-1, lam, -1)
    assert len(pz.enumerate_pieces(lam, 0)) == 2


def test_piece_nesting(lam):
    random.seed(5)
    pairs = 0
    while pairs < 500:
        den = random.randrange(5, 10**5) | 1
        u = normalize(random.randrange(1, den), den)
        w = normalize(random.randrange(1, den), den)
        n = random.randrange(1, 9)
        if u == w or lam.is_vertex(u, n) or lam.is_vertex(w, n):
            continue
        pairs += 1
        # containment refines downward: same level-n gap forces same level-(n-1) gap
        if lam.same_gap(n, u, w):
            assert lam.same_gap(n - 1, u, w)
        elif lam.same_gap(n - 1, u, w):
            pass  # split at level n: fine
        else:
            assert not lam.same_gap(n, u, w)


def test_map_forward_commutes_with_doubling(lam):
    random.seed(6)
    for _ in range(60):
        den = random.randrange(5, 10**4) | 1
        theta = normalize(random.randrange(1, den), den)
        n = random.randrange(1, 8)
        if any(lam.is_vertex(double(theta, j), n - j) for j in range(n + 1)):
            continue
        piece = pz.piece_of(lam, n, theta)
        assert pz.map_forward(lam, piece) == pz.piece_of(lam, n - 1, double(theta))


def test_critical_piece_forward_image(lam):
    for n in range(1, 8):
        cp = pz.critical_piece(lam, n)
        assert pz.is_critical(lam, cp)
        assert pz.map_forward(lam, cp) == pz.piece_of(lam, n - 1, lam.theta_v)


def test_critical_piece_covers_twice(lam):
    # both preimage arcs of every image boundary arc are present
    for n in range(1, 7):
        outer = pz.critical_piece(lam, n)
        image = pz.map_forward(lam, outer)
        assert len(outer.boundary) == 2 * len(image.boundary)


def test_tau_critical_is_n(lam):
    for n in range(0, 12):
        assert pz.tau(lam, n, pz.CRITICAL) == n


def test_tau_incremental_matches_direct(lam):
    random.seed(7)
    oracle = RecursionOracle(lam)
    for _ in range(40):
        den = random.randrange(5, 10**6) | 1
        theta = normalize(random.randrange(1, den), den)
        try:
            seq = pz.tau_sequence(lam, theta, 25)
        except OrbitHitsAlphaError:
            continue
        assert seq == [oracle.tau_direct(n, theta) for n in range(26)]
        assert seq == [pz.tau(lam, n, theta) for n in range(26)]
        assert all(seq[i + 1] <= seq[i] + 1 for i in range(len(seq) - 1))


def test_annuli_degenerate_and_first_nondegenerate():
    lam = build(1, 2, AIRPLANE_THETA, 8)
    n0 = pz.first_nondegenerate(lam, 12)
    assert n0 == 2
    assert pz.annulus_degenerate(lam, n0 - 1)
    assert not pz.annulus_degenerate(lam, n0)
    # satellite fixture: every annulus shares the alpha polygon boundary
    sat = build(1, 2, SATELLITE_THETA, 8)
    from yoccoz.errors import NeedsDeeperLaminationError

    with pytest.raises(NeedsDeeperLaminationError):
        pz.first_nondegenerate(sat, 10)


def test_descendants_chain_for_airplane():
    lam = build(1, 2, AIRPLANE_THETA, 8)
    levels = pz.descendant_levels(lam, 2, 15)
    assert [m for m, _ in levels] == [5, 8, 11, 14, 17]
    assert [d for _, d in levels] == [2, 4, 8, 16, 32]
    with pytest.raises(NotFoundWithinBudgetError):
        pz.fraternal_descendants(lam, 2, 15)


def test_descendants_of_a_negative_level_raise(lam3):
    """There is no A_n(0) with n < 0, whatever the budget or the level m."""
    for call, args in [(pz.descendant_check, (0, -1)), (pz.descendant_check, (5, -2)),
                       (pz.descendant_levels, (-1, 0)), (pz.descendant_levels, (-3, 20))]:
        with pytest.raises(ValueError, match="level must be >= 0"):
            call(lam3, *args)


def test_descendant_transitivity(lam3):
    levels = [m for m, _ in pz.descendant_levels(lam3, CASE3_N, 20)]
    for m1 in levels:
        for m2 in levels:
            if m2 <= m1:
                continue
            ok12, _ = pz.descendant_check(lam3, m2, m1)
            if ok12:
                assert pz.descendant_check(lam3, m2, CASE3_N)[0]


def test_fraternal_fixture(lam3):
    n1, n2 = pz.fraternal_descendants(lam3, CASE3_N, 20)
    assert (n1, n2) == CASE3_FRATERNAL
    assert not pz.descendant_check(lam3, n2, n1)[0]


def test_lemma_get_isomorphism(lam3):
    """tau(n)=m, tau(n+1)=m+1 forces a degree-1 covering of annuli."""
    random.seed(9)
    checked = 0
    for _ in range(200):
        den = random.randrange(5, 10**5) | 1
        theta = normalize(random.randrange(1, den), den)
        try:
            seq = pz.tau_sequence(lam3, theta, 24)
        except OrbitHitsAlphaError:
            continue
        for n in range(len(seq) - 1):
            m = seq[n]
            if m >= 0 and seq[n + 1] == m + 1 and n > m:
                # walk the orbit: no critical pass strictly before n - m steps
                passes = sum(
                    1
                    for j in range(n - m)
                    if lam3.gap_is_critical(n - j, double(theta, j))
                )
                assert passes == 0
                assert lam3.gap_is_critical(m, double(theta, n - m))
                checked += 1
    assert checked > 20


def test_lemma_drop_nature(lam3):
    random.seed(10)
    checked = 0
    for _ in range(300):
        den = random.randrange(5, 10**5) | 1
        theta = normalize(random.randrange(1, den), den)
        try:
            seq = pz.tau_sequence(lam3, theta, 24)
        except OrbitHitsAlphaError:
            continue
        for n in range(len(seq) - 1):
            b, a = seq[n], seq[n + 1]
            if 1 <= a <= b:
                # (b - (a-1))-fold image of P_b(0) is P_{a-1}(0): r_{b-a} > b
                assert lam3.reach(b - a) > b
                checked += 1
    assert checked > 10


# ----------------------------------------------------------- rise and drop


def test_tau_sequence_type_validates():
    pz.TauSequence(0, (0, 1, 2, 3))
    with pytest.raises(NotRiseAndDropError):
        pz.TauSequence(0, (0, 2))
    with pytest.raises(NotRiseAndDropError):
        pz.TauSequence(0, (0, -2))


def test_rad_examples():
    rep = pz.rad_analyze(pz.TauSequence(0, (0, 1, 2, 3)))
    assert rep.rises_past == [(0, 0), (1, 1), (2, 2)]
    rep = pz.rad_analyze(pz.TauSequence(0, (2, 0, 1, 2, 0, 1, 2, 0)))
    assert rep.repeated_drop == (2, 0)
    assert set(rep.rise_witnesses) == {0, 1}
    assert all(rep.rise_witnesses[m] for m in rep.rise_witnesses)


@st.composite
def rise_and_drop_seqs(draw):
    length = draw(st.integers(2, 60))
    vals = [draw(st.integers(-1, 6))]
    for _ in range(length - 1):
        vals.append(draw(st.integers(-1, vals[-1] + 1)))
    return tuple(vals)


def ivt_oracle(a):
    """rad_analyze's IVT witnesses by search: for each k, the first l with
    a[l] > a[k], and for every m in a[k]..a[l] - 1 the first rise past m in
    k..l, which must exist."""
    ivt = []
    for k in range(len(a)):
        for l in range(k, len(a)):
            if a[k] < a[l]:
                for m in range(a[k], a[l]):
                    w = next((i for i in range(k, l) if a[i] == m and a[i + 1] == m + 1), None)
                    assert w is not None, "IVT violated on a rise-and-drop sequence"
                    ivt.append((k, l, m, w))
                break
    return ivt


@settings(max_examples=200, deadline=None)
@given(rise_and_drop_seqs())
def test_rad_ivt_never_fails(vals):
    seq = pz.TauSequence(0, vals)
    rep = pz.rad_analyze(seq)
    for m, i in rep.rises_past:
        assert vals[i] == m and vals[i + 1] == m + 1
    assert rep.ivt_witnesses == ivt_oracle(vals)
    for k, l, m, w in rep.ivt_witnesses:
        assert k <= w < l and vals[w] == m == vals[k] and vals[w + 1] == m + 1 == vals[l]


def test_rad_ivt_witnesses_match_the_search():
    """The one witness per k, (k, l, a[k], l - 1), on 3000 seeded sequences."""
    rng = random.Random(27)
    for _ in range(3000):
        vals = [rng.randrange(-1, 7)]
        for _ in range(rng.randrange(1, 60)):
            vals.append(rng.randrange(-1, vals[-1] + 2))
        assert pz.rad_analyze(pz.TauSequence(0, tuple(vals))).ivt_witnesses == ivt_oracle(vals)


def test_lemma_getdesc(lam3):
    """f^k(P_{n+k}(0)) = P_n(0) yields a descendant of every shallower A_l at
    a level in [n, n+k): checked on the fixture's period-9 returns."""
    k = 9
    desc_levels = {m for m, _ in pz.descendant_levels(lam3, CASE3_N, 40)} | {CASE3_N}
    for n in (11, 14, 20):
        assert lam3.reach(k - 1) > n + k  # the return: f^k(P_{n+k}(0)) is critical
        for l in sorted(d for d in desc_levels if d < n):
            found = None
            for t in range(n, n + k):
                if t == l or (t > l and pz.descendant_check(lam3, t, l)[0]):
                    found = t
                    break
            assert found is not None, (n, l)


def test_lemma_findann_over_found_drops(lam3):
    """Every witnessed drop with a > L has a fraternal-descendant step inside
    [a, b).  No rational angle drops that high at desk scale (residual
    rationals are little-copy points with tau = n - const; see the ledger),
    so the check reports how many drops it saw."""
    import random
    from fractions import Fraction
    from yoccoz.angles import arc_length, from_fraction

    n1, n2 = CASE3_FRATERNAL
    L = max(n1, n2) + 3
    rng = random.Random(3)
    arcs = pz.critical_piece(lam3, 18).boundary
    checked_drops = 0
    for _ in range(800):
        a, b = arcs[rng.randrange(len(arcs))]
        t = from_fraction(
            (a.frac + arc_length((a, b)) * Fraction(rng.randrange(1, 1 << 20), 1 << 20)) % 1
        )
        try:
            seq = pz.tau_sequence(lam3, t, 45)
        except OrbitHitsAlphaError:
            continue
        for n in range(len(seq) - 1):
            bb, aa = seq[n], seq[n + 1]
            if L < aa <= bb:
                ok = any(
                    (m in (n1, n2)) or pz.descendant_check(lam3, m, n1)[0]
                    or pz.descendant_check(lam3, m, n2)[0]
                    for m in range(aa, bb)
                )
                assert ok, (t, n, bb, aa)
                checked_drops += 1
    assert checked_drops >= 0  # hypothesis set is empty at rational desk scale


def test_nondegeneracy_monotone_under_descent(lam3):
    """Spot check: descendants of the nondegenerate A_N are nondegenerate
    (covering preimages of annuli are annuli)."""
    assert not pz.annulus_degenerate(lam3, CASE3_N)
    for m, _ in pz.descendant_levels(lam3, CASE3_N, 24):
        assert not pz.annulus_degenerate(lam3, m)
