import copy
import random
from fractions import Fraction

import pytest

from yoccoz.angles import arc_length, from_fraction, normalize
from yoccoz.errors import OnBoundaryError, YoccozError
from yoccoz.lamination import build
from yoccoz import puzzle as pz
from yoccoz import tiling as tl

import certificate_oracle as cert_oracle
import tiling_oracle as oracle
from fixtures import (
    CASE1_THETA,
    CASE3_FRATERNAL,
    CASE3_L,
    CASE3_N,
    CASE3_P,
    CASE3_THETA,
    MISIUREWICZ_THETA,
    RABBIT_WAKE_THETA,
    RESIDUAL_ANGLES,
    SATELLITE_THETA,
)
from test_lamination_layers import late_landing


@pytest.fixture(scope="module")
def lam3():
    return build(1, 2, CASE3_THETA, 8)


@pytest.fixture(scope="module")
def tiling3(lam3):
    return tl.tile(lam3, CASE3_P, max_tile_level=CASE3_P + 6)


def test_classify_cases():
    assert tl.classify_case(1, 2, CASE1_THETA, 5).kind == "TrivialCase1"
    assert tl.classify_case(1, 2, MISIUREWICZ_THETA, 10).kind == "PresumedNonRecurrent"
    assert tl.classify_case(1, 2, CASE3_THETA, 12).kind == "Recurrent"
    assert tl.classify_case(1, 2, SATELLITE_THETA, 12).kind == "Recurrent"
    tag = tl.classify_case(1, 2, CASE3_THETA, 12)
    assert tag.evidence_depth == 12


def test_trivial_tiling():
    case = tl.classify_case(1, 2, CASE1_THETA, 5)
    t = tl.trivial_tiling(case, level=8)
    assert t.case.kind == "TrivialCase1"
    assert t.tiles == [] and t.unresolved == 0


def test_case2_tiling():
    lam = build(1, 2, MISIUREWICZ_THETA, 8)
    L = tl.case2_level(lam, 16)
    t = tl.tile(lam, L + 1, max_tile_level=L + 5)
    assert t.case.kind == "PresumedNonRecurrent"
    assert t.L == L
    # tiles are the level-k pieces inside A_{k-1}(0), none critical, and none
    # maps over the critical piece before reaching level L
    for tile in t.tiles:
        assert not pz.is_critical(lam, tile)
        assert tl.univalent_to_level(lam, tile, L)
        assert lam.same_gap(tile.level - 1, tile.probe, lam.critical_leaf[0])


# case-2 fixtures: 3/8 and 7/16 in the 1/2 limb, 3/14 in the 1/3 limb
CASE2_FIXTURES = [(2, MISIUREWICZ_THETA), (2, normalize(7, 16)), (3, RABBIT_WAKE_THETA)]


@pytest.mark.parametrize("q, theta_v", CASE2_FIXTURES, ids=lambda v: str(v))
def test_case2_tiling_matches_critical_chain_oracle(q, theta_v):
    """In case 2 the greedy descent queues only the critical chain: the same
    tiles in the same order, and one unresolved piece, as the walk down it."""
    lam = build(1, q, theta_v, 8)
    L = tl.case2_level(lam, 24)
    for level in range(L + 1, L + 4):
        for max_level in range(level + 1, level + 4):
            t = tl.tile(lam, level, max_tile_level=max_level)
            assert t.case.kind == "PresumedNonRecurrent" and t.L == L
            assert (t.tiles, t.unresolved) == oracle.case2_tiles(lam, level, max_level)


@pytest.mark.parametrize("q, theta_v", CASE2_FIXTURES, ids=lambda v: str(v))
def test_case2_tiling_at_the_level_cap_cuts_once(q, theta_v):
    """A piece at or past max_tile_level is still cut once: its non-critical
    children are the tiles and its critical child is unresolved."""
    lam = build(1, q, theta_v, 8)
    L = tl.case2_level(lam, 24)
    for level, max_level in ((L + 1, L + 1), (L + 3, L + 1), (L + 2, 0)):
        t = tl.tile(lam, level, max_tile_level=max_level)
        children = pz.sub_pieces(lam, pz.critical_piece(lam, level))
        assert t.tiles == [s for s in children if not pz.is_critical(lam, s)]
        assert t.unresolved == 1


def test_case3_fixture_parameters(lam3, tiling3):
    assert tiling3.case.kind == "Recurrent"
    assert tiling3.base_level == CASE3_N
    assert tiling3.fraternal == CASE3_FRATERNAL
    assert tiling3.L == CASE3_L
    assert tiling3.tiles, "greedy descent found no tiles"


def test_case3_tiles_disjoint_and_maximal(lam3, tiling3):
    tiles = tiling3.tiles
    # pairwise disjoint: no nesting, no shared gap (exhaustive over pairs)
    for i, a in enumerate(tiles):
        for b in tiles[i + 1:]:
            lo, hi = (a, b) if a.level <= b.level else (b, a)
            assert not lam3.same_gap(lo.level, lo.probe, hi.probe)
    # maximality: each tile's parent fails univalence-to-L
    for tile in tiles:
        assert tl.univalent_to_level(lam3, tile, tiling3.L)
        parent = pz.piece_of(lam3, tile.level - 1, tile.probe)
        assert not tl.univalent_to_level(lam3, parent, tiling3.L)


def test_case3_boundary_subpieces_land_in_tiles(lam3, tiling3):
    """Lemma turd1: next to every boundary vertex of the piece there is a
    subpiece mapping univalently to level L, and it is consistent with the
    greedy tile set."""
    piece = tiling3.piece
    checked = 0
    for a, b in piece.boundary:
        for v, sign in ((a, 1), (b, -1)):
            eps = Fraction(sign, 3 * (1 << (CASE3_P + 10)) * 511)
            probe = from_fraction((v.frac + eps) % 1)
            assert lam3.same_gap(CASE3_P, probe, lam3.critical_leaf[0])
            found = None
            for k in range(CASE3_P + 1, CASE3_P + 9):
                sub = pz.piece_of(lam3, k, probe)
                if tl.univalent_to_level(lam3, sub, tiling3.L):
                    found = sub
                    break
            assert found is not None, f"no univalent subpiece next to {v}"
            if found.level <= tiling3.max_tile_level:
                assert any(
                    s.level <= found.level and lam3.same_gap(s.level, s.probe, probe)
                    for s in tiling3.tiles
                )
            checked += 1
    assert checked == 2 * len(piece.boundary)


def test_trichotomy_no_fourth_category(lam3, tiling3):
    random.seed(12)
    arcs = tiling3.piece.boundary
    outcomes = {"tiled": 0, "boundary": 0, "residual": 0}
    samples = 0
    while samples < 120:
        a, b = arcs[random.randrange(len(arcs))]
        t = from_fraction(
            (a.frac + arc_length((a, b)) * Fraction(random.randrange(1, 1 << 20), 1 << 20)) % 1
        )
        if lam3.is_vertex(t, 30):
            outcomes["boundary"] += 1
            samples += 1
            continue
        if not lam3.same_gap(CASE3_P, t, lam3.critical_leaf[0]):
            continue  # sampler noise: not in the piece
        samples += 1
        status = tl.residual_member(lam3, t, CASE3_P, tiling3.L, 30)
        if status is tl.ResidualStatus.ORBIT_HITS_ALPHA:
            outcomes["boundary"] += 1
        elif status is tl.ResidualStatus.IN_R_TO_DEPTH:
            outcomes["residual"] += 1
        else:
            # notR: the angle must sit inside the maximal tile of its drop level
            taus = pz.tau_sequence(lam3, t, 30, start=CASE3_P)
            n_star = next(CASE3_P + i for i, v in enumerate(taus) if v <= tiling3.L)
            tile = pz.piece_of(lam3, n_star, t)
            assert tl.univalent_to_level(lam3, tile, tiling3.L)
            parent = pz.piece_of(lam3, n_star - 1, t)
            assert not tl.univalent_to_level(lam3, parent, tiling3.L)
            if n_star <= tiling3.max_tile_level:
                assert any(
                    tile.level == s.level and lam3.same_gap(s.level, s.probe, t)
                    for s in tiling3.tiles
                )
            outcomes["tiled"] += 1
    assert sum(outcomes.values()) == samples
    assert outcomes["tiled"] > 0


def test_residual_members(lam3):
    assert (
        tl.residual_member(lam3, pz.CRITICAL, CASE3_P, CASE3_L, 45)
        is tl.ResidualStatus.IN_R_TO_DEPTH
    )
    for theta in RESIDUAL_ANGLES:
        assert (
            tl.residual_member(lam3, theta, CASE3_P, CASE3_L, 45)
            is tl.ResidualStatus.IN_R_TO_DEPTH
        )


def test_residual_not_in_any_tile(lam3, tiling3):
    for theta in RESIDUAL_ANGLES:
        for tile in tiling3.tiles:
            assert not lam3.same_gap(tile.level, tile.probe, theta)


def test_surrounding_annuli_monotone_and_growing(lam3):
    for theta in [pz.CRITICAL] + RESIDUAL_ANGLES:
        a20 = tl.surrounding_annuli(lam3, theta, CASE3_N, 20, start=CASE3_P)
        a40 = tl.surrounding_annuli(lam3, theta, CASE3_N, 40, start=CASE3_P)
        assert len(a40) > len(a20)
        assert [(a.n, a.cls) for a in a20] == [(a.n, a.cls) for a in a40[: len(a20)]]


def test_unbounded_tau_classes_sweep(lam3):
    """Finitary Lemma `one': an unbounded-tau residual angle's classes sweep
    every descendant level above its entry scale."""
    desc = [m for m, _ in pz.descendant_levels(lam3, CASE3_N, 50)]
    ann = tl.surrounding_annuli(lam3, RESIDUAL_ANGLES[0], CASE3_N, 55, start=CASE3_P)
    classes = {a.cls for a in ann}
    missed = [m for m in desc if m >= min(classes) and m + 1 <= 55 and m not in classes]
    assert not missed


def test_bounded_tau_class_repetition_synthetic(lam3, monkeypatch):
    """Finitary Lemma `two' on the class-repetition path, driven by a
    synthetic bounded tau sequence (no rational residual angle has bounded
    tau for a renormalizable fixture; see the decisions ledger)."""
    # tail alternates a drop (21 -> 20) with a rise past (20, 21); 20 is a
    # descendant level of A_2 for this fixture
    synthetic = [15, 16, 17, 18, 19, 20, 21]

    def fake_tau_sequence(lam, theta, n_max, start=0):
        reps = synthetic + [20, 21] * n_max
        return reps[: n_max - start + 1]

    checked = []

    def counting(lam, m, n):
        checked.append(m)
        return pz.descendant_check(lam, m, n)

    monkeypatch.setattr(tl, "tau_sequence", fake_tau_sequence)
    monkeypatch.setattr(tl, "descendant_check", counting)
    ann = tl.surrounding_annuli(lam3, pz.CRITICAL, CASE3_N, 60, start=15)
    counts = {}
    for a in ann:
        counts[a.cls] = counts.get(a.cls, 0) + 1
    assert max(counts.values()) > 5  # one class repeats with growing count
    assert checked == list(range(15, 21))  # a level that rises again is checked once


def annuli_outcome(surrounding, lam, theta, N, depth, start):
    """One rise loop's records as tuples, or its error's type and message."""
    try:
        return [(a.n, a.tau_level, a.cls) for a in surrounding(lam, theta, N, depth, start)]
    except (YoccozError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_surrounding_annuli_matches_memo_oracle(lam3):
    """CRITICAL, the residual angles and angles of the level-12, 20 and 26
    critical rings (vertices included) at depths 16-60 from N and from p:
    the records and errors of the memoised loop."""
    rng = random.Random(3)
    ring = rng.sample([from_fraction((a.frac + arc_length((a, b)) * Fraction(m, 40)) % 1)
                       for k in (12, 20, 26) for a, b in pz.critical_piece(lam3, k).boundary
                       for m in range(1, 40)], 12)
    seen = set()
    for theta in [pz.CRITICAL] + RESIDUAL_ANGLES + ring:
        for depth in range(16, 61):
            for start in (None, CASE3_P):
                got = annuli_outcome(tl.surrounding_annuli, lam3, theta, CASE3_N, depth, start)
                assert got == annuli_outcome(cert_oracle.surrounding_annuli, lam3, theta,
                                             CASE3_N, depth, start), (theta, depth, start)
                seen.add(got[0] if isinstance(got, tuple) else bool(got))
    assert seen == {"OrbitHitsAlphaError", True, False}


def test_surrounding_annuli_matches_memo_oracle_on_late_landing():
    """theta_v meets the cycle after 8 doublings: tau and the descendant
    checks raise at the late-landing guard as in the memoised loop."""
    lam = build(1, 2, late_landing(1, 2, 8)[0], 7)
    rng = random.Random(8)
    pool = [pz.CRITICAL] + list(lam.critical_orbit)
    while len(pool) < 16:
        den = rng.randrange(5, 10**4) | 1
        pool.append(normalize(rng.randrange(1, den), den))
    seen = set()
    for theta in pool:
        for N in (0, 1, 2):
            for depth in range(N, 12):
                for start in (None, N + 1):
                    got = annuli_outcome(tl.surrounding_annuli, lam, theta, N, depth, start)
                    assert got == annuli_outcome(cert_oracle.surrounding_annuli, lam, theta,
                                                 N, depth, start), (theta, N, depth, start)
                    seen.add(got[0] if isinstance(got, tuple) else bool(got))
    assert {"Case1DegenerateError", "OrbitHitsAlphaError", True, False} <= seen


def test_residual_member_builds_one_orbit_record(lam3, monkeypatch):
    """One orbit record per angle, member or not, and none for CRITICAL."""
    built = []
    orbit = type(lam3).orbit

    def counting(self, theta, level):
        built.append(theta)
        return orbit(self, theta, level)

    monkeypatch.setattr(type(lam3), "orbit", counting)
    assert tl.residual_member(lam3, pz.CRITICAL, CASE3_P, CASE3_L, 45) is \
        tl.ResidualStatus.IN_R_TO_DEPTH
    assert built == []
    for theta in RESIDUAL_ANGLES:
        built.clear()
        tl.residual_member(lam3, theta, CASE3_P, CASE3_L, 45)
        assert built == [theta]
    built.clear()
    outside = normalize(1, 2)  # the level-0 gap of 1/2 misses the critical leaf
    with pytest.raises(ValueError, match="not in the level-15 critical piece"):
        tl.residual_member(lam3, outside, CASE3_P, CASE3_L, 45)
    assert built == [outside]


def test_surrounding_annuli_checks_each_rise_level_once(lam3, monkeypatch):
    """descendant_check runs once per distinct rise level above N, in the
    order the levels first rise."""
    calls = []

    def counting(lam, m, n):
        calls.append((m, n))
        return pz.descendant_check(lam, m, n)

    monkeypatch.setattr(tl, "descendant_check", counting)
    for theta in [pz.CRITICAL] + RESIDUAL_ANGLES:
        for start in (None, CASE3_P):
            taus = pz.tau_sequence(lam3, theta, 55, start=CASE3_N if start is None else start)
            rises = [m for m, nxt in zip(taus, taus[1:]) if nxt == m + 1 and m > CASE3_N]
            calls.clear()
            tl.surrounding_annuli(lam3, theta, CASE3_N, 55, start=start)
            assert calls == [(m, CASE3_N) for m in dict.fromkeys(rises)]


def test_certificate_roundtrip(lam3):
    from yoccoz.puzzle import fraternal_descendants

    fr = fraternal_descendants(lam3, CASE3_N, 20)
    cert = tl.build_certificate(
        lam3, CASE3_N, fr, [pz.CRITICAL] + RESIDUAL_ANGLES, depth=45
    )
    rep = tl.verify_certificate(lam3, cert)
    assert rep.ok, rep.violations
    assert all(cnt for cnt in rep.class_counts.values())


def test_certificate_detects_corruption(lam3):
    from yoccoz.puzzle import fraternal_descendants

    fr = fraternal_descendants(lam3, CASE3_N, 20)
    cert = tl.build_certificate(lam3, CASE3_N, fr, [pz.CRITICAL, RESIDUAL_ANGLES[0]], depth=40)
    # duplicate annulus level inside one entry
    cert.entries[0].annuli.append(cert.entries[0].annuli[0])
    rep = tl.verify_certificate(lam3, cert)
    assert not rep.ok and any("duplicate" in v for v in rep.violations)

    # a foreign annulus whose ring overlaps A_20(0): pick w inside the level-20
    # critical piece but outside the level-21 one
    cert2 = tl.build_certificate(lam3, CASE3_N, fr, [pz.CRITICAL, RESIDUAL_ANGLES[0]], depth=40)
    h = lam3.critical_leaf[0]
    w = None
    for a, b in pz.critical_piece(lam3, 20).boundary:
        for k in range(1, 40):
            cand = from_fraction((a.frac + arc_length((a, b)) * Fraction(k, 40)) % 1)
            if lam3.is_vertex(cand, 21):
                continue
            if lam3.same_gap(20, cand, h) and not lam3.same_gap(21, cand, h):
                w = cand
                break
        if w:
            break
    assert w is not None
    cert2.entries.append(
        tl.CertificateEntry(theta=w, annuli=[tl.AnnulusRecord(n=20, tau_level=20, cls=20)])
    )
    rep2 = tl.verify_certificate(lam3, cert2)
    assert not rep2.ok and any("intersect" in v or "inside" in v for v in rep2.violations)


def test_empty_certificate_vacuous_pass(lam3):
    cert = tl.AnnulusCertificate(base_level=CASE3_N, fraternal=CASE3_FRATERNAL, depth=10,
                                 entries=[tl.CertificateEntry(pz.CRITICAL, [])])
    rep = tl.verify_certificate(lam3, cert)
    assert rep.ok and rep.warning


def outcome(verify, lam, cert):
    """One verifier's report as comparable values, or its error's type and
    message."""
    try:
        rep = verify(lam, copy.deepcopy(cert))
    except (YoccozError, ValueError) as exc:
        return "error", type(exc).__name__, str(exc)
    return "report", rep.ok, rep.violations, rep.class_counts, rep.warning


def oracle_outcome(lam, cert):
    """The two-walk oracle's outcome under the vertex rule: the first
    non-CRITICAL entry whose orbit meets the alpha cycle within cert.depth
    doublings is refused before any separation read."""
    for e in cert.entries:
        if e.theta != pz.CRITICAL and lam.is_vertex(e.theta, cert.depth):
            return ("error", "OnBoundaryError",
                    f"certified angle {e.theta} is a polygon vertex at depth <= {cert.depth}")
    return outcome(cert_oracle.verify_certificate, lam, cert)


MESSAGE_KINDS = {"duplicate", "intersect", "inside", "closure"}


def test_certificate_matches_two_walk_oracle(lam3):
    """Seeded certificates on the case-3 fixture, CRITICAL plus residual angles
    at depths 16-45, corrupted as in test_certificate_detects_corruption: a
    duplicated annulus, a foreign angle of the level-12, 20 or 26 critical
    ring with its ring-level annulus (vertices included), a repeated entry or
    a negative level.  Separation levels give the two-walk oracle's
    violations in its order, its class counts and its errors."""
    fr = pz.fraternal_descendants(lam3, CASE3_N, 20)
    ring = [(k, from_fraction((a.frac + arc_length((a, b)) * Fraction(m, 40)) % 1))
            for k in (12, 20, 26) for a, b in pz.critical_piece(lam3, k).boundary
            for m in range(1, 40)]
    rng = random.Random(17)
    built: dict = {}
    kinds, errors = set(), 0
    for _ in range(320):
        depth = rng.randrange(16, 46)
        thetas = [pz.CRITICAL] + rng.sample(RESIDUAL_ANGLES, rng.randrange(4))
        key = depth, tuple(map(str, thetas))
        if key not in built:
            built[key] = tl.build_certificate(lam3, CASE3_N, fr, thetas, depth)
        cert = copy.deepcopy(built[key])
        entries = cert.entries
        for _ in range(rng.randrange(4)):
            e, kind = rng.choice(entries), rng.randrange(4)
            if kind == 0 and e.annuli:
                e.annuli.append(rng.choice(e.annuli))
            elif kind == 1:
                k, t = rng.choice(ring)
                entries.insert(rng.randrange(len(entries) + 1),
                               tl.CertificateEntry(t, [tl.AnnulusRecord(k, k, k)]))
            elif kind == 2:
                entries.insert(rng.randrange(len(entries) + 1),
                               tl.CertificateEntry(e.theta, list(e.annuli)))
            elif kind == 3 and e.annuli and rng.random() < 0.2:
                rng.choice(e.annuli).n = -1
        got = outcome(tl.verify_certificate, lam3, cert)
        assert got == oracle_outcome(lam3, cert)
        if got[0] == "report":
            kinds |= {k for v in got[2] for k in MESSAGE_KINDS if k in v}
        errors += got[0] == "error"
    assert kinds == MESSAGE_KINDS
    assert errors


def test_certificate_matches_two_walk_oracle_on_late_landing():
    """theta_v meets the cycle after 8 doublings: annuli at levels around 8
    hit the late-landing guard as in the two-walk oracle, the critical-orbit
    angles are vertices within the certificate depth and are refused, and the
    queries below it give the same violations."""
    lam = build(1, 2, late_landing(1, 2, 8)[0], 7)
    rng = random.Random(5)
    pool = [pz.CRITICAL] + list(lam.critical_orbit)
    while len(pool) < 16:
        den = rng.randrange(5, 10**4) | 1
        t = normalize(rng.randrange(1, den), den)
        if not lam.is_vertex(t, 12):
            pool.append(t)
    seen = set()
    for _ in range(120):
        cert = tl.AnnulusCertificate(CASE3_N, CASE3_FRATERNAL, 10, [
            tl.CertificateEntry(t, [tl.AnnulusRecord(n, n, n)
                                    for n in sorted(rng.sample(range(10), rng.randrange(3)))])
            for t in rng.sample(pool, rng.randrange(1, 5))])
        got = outcome(tl.verify_certificate, lam, cert)
        assert got == oracle_outcome(lam, cert)
        seen.add(got[1] if got[0] == "error" else bool(got[2]))
    assert seen == {"Case1DegenerateError", "OnBoundaryError", True, False}


def test_certificate_reads_two_separations_per_pair_at_most(lam3, monkeypatch):
    """Each pair of the four distinct angles costs at most two separation
    reads, and no same_gap walk is left."""
    fr = pz.fraternal_descendants(lam3, CASE3_N, 20)
    cert = tl.build_certificate(lam3, CASE3_N, fr, [pz.CRITICAL] + RESIDUAL_ANGLES, depth=45)
    reads: dict = {}
    separation = type(lam3).separation

    def counting(self, level, u, w):
        key = frozenset((u, w))
        reads[key] = reads.get(key, 0) + 1
        return separation(self, level, u, w)

    def no_walk(*args):
        raise AssertionError("same_gap called")

    monkeypatch.setattr(type(lam3), "separation", counting)
    monkeypatch.setattr(type(lam3), "same_gap", no_walk)
    assert tl.verify_certificate(lam3, cert).ok
    assert len(reads) == 6 and max(reads.values()) <= 2


@pytest.mark.parametrize("top", [41, 44])
def test_certificate_refuses_a_vertex_angle_at_any_annulus_level(lam3, top):
    """The ring angle 1155174731/1610612736 is a polygon vertex from level 29.
    Beside CRITICAL and 19237/87381 at certificate depth 43 it is refused
    whether its top annulus is at 41 (a separation read past its vertex level
    used to pass it) or at 44 (where the walk reached its cycle hit)."""
    fr = pz.fraternal_descendants(lam3, CASE3_N, 20)
    cert = tl.build_certificate(lam3, CASE3_N, fr, [pz.CRITICAL, normalize(19237, 87381)],
                                depth=43)
    ring = normalize(1155174731, 1610612736)
    assert lam3.is_vertex(ring, 29) and not lam3.is_vertex(ring, 28)
    cert.entries.append(tl.CertificateEntry(ring, [tl.AnnulusRecord(n, n, n)
                                                   for n in (26, 38, top)]))
    with pytest.raises(YoccozError, match=f"certified angle {ring} is a polygon vertex"):
        tl.verify_certificate(lam3, cert)


def test_certificate_refuses_a_vertex_angle_from_its_entry_step(lam3):
    """The ring angle enters the alpha cycle at step 29: a certificate of depth
    29 refuses it, and the same entries at depth 28 are verified."""
    ring = normalize(1155174731, 1610612736)
    assert lam3.vertex_entry_step(ring) == 29
    fr = pz.fraternal_descendants(lam3, CASE3_N, 20)
    cert = tl.build_certificate(lam3, CASE3_N, fr, [pz.CRITICAL, ring], depth=28)
    assert cert.entries[1].annuli
    report = tl.verify_certificate(lam3, copy.deepcopy(cert))
    assert report.ok and not report.warning
    cert.depth = 29
    with pytest.raises(OnBoundaryError, match=f"certified angle {ring} is a polygon vertex "
                                              "at depth <= 29"):
        tl.verify_certificate(lam3, cert)
