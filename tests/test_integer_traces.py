"""Gap traces as numerator pairs over D_n against the Angle pull-back they
replaced (tests/trace_oracle.py): traces, pieces, annuli and slice holes,
after conversion to reduced Angles, and a guard on the Angle count."""

import random
from math import gcd

import pytest

from yoccoz import lamination
from yoccoz import puzzle as pz
from yoccoz.angles import Angle, normalize
from yoccoz.errors import Case1DegenerateError, InvalidThetaError, YoccozError
from yoccoz.lamination import Lamination, build

import trace_oracle as oracle
from fixtures import (AIRPLANE_THETA, CASE3_THETA, MISIUREWICZ_THETA, RABBIT_WAKE_THETA,
                      SATELLITE_THETA)
from test_lamination_layers import late_landing, sector


def as_angles(arcs, den):
    return tuple((normalize(a, den), normalize(b, den)) for a, b in arcs)


def same_pieces(got, want):
    """Same pieces in the same order, probes included (they steer later queries)."""
    assert [(p.level, p.boundary, p.probe) for p in got] == \
        [(p.level, p.boundary, p.probe) for p in want]


def outcome(call, *args):
    try:
        return call(*args)
    except YoccozError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def lam3():
    return build(1, 2, CASE3_THETA, 8)


# highest level compared per fixture: the satellite's critical trace doubles
# every two levels (2^20 arcs at level 40), the airplane's about every three
TOPS = [(CASE3_THETA, 60), (AIRPLANE_THETA, 40), (SATELLITE_THETA, 24), (MISIUREWICZ_THETA, 40)]


@pytest.mark.parametrize("theta,top", TOPS)
def test_critical_trace_matches_angle_pull_back(theta, top):
    lam = build(1, 2, theta, 8)
    h = lam.critical_leaf[0]
    for level in range(top + 1):
        got = lam.trace(level, h)
        assert list(got) == sorted(got)
        assert as_angles(got, lam.layer_den(level)) == oracle.trace(lam, level, h), level


def test_traces_of_other_angles_match(lam3):
    """Off the critical gap the pull-back keeps one side of the leaf; a vertex
    is refused by its orbit record (OrbitHitsAlphaError) where the oracle, as
    the library did, raises YoccozError naming its depth."""
    seen = set()
    for den in (48, 511, 1021, 4093, 3 << 10, 98303):
        for num in range(1, den, den // 7):
            t = normalize(num, den)
            for level in (0, 3, 9, 17):
                got = outcome(lambda: as_angles(lam3.trace(level, t), lam3.layer_den(level)))
                want = outcome(oracle.trace, lam3, level, t)
                if want == ("YoccozError", f"{t} is a vertex at depth <= {level}"):
                    want = ("OrbitHitsAlphaError",
                            f"the orbit of {t} meets the alpha cycle within {level} steps")
                assert got == want, (t, level)
                seen.add(isinstance(got[0], str))
    assert seen == {False, True}  # some probes are vertices


@pytest.mark.parametrize("pq,theta", [((1, 2), SATELLITE_THETA), ((1, 3), RABBIT_WAKE_THETA),
                                      ((1, 2), CASE3_THETA)])
def test_enumerate_pieces_match(pq, theta):
    """The half (2/5), rabbit and case-3 fixtures, levels 0-4, wrapping arcs included."""
    lam = build(*pq, theta, 6)
    for level in range(5):
        same_pieces(pz.enumerate_pieces(lam, level), oracle.enumerate_pieces(lam, level))


@pytest.mark.parametrize("level", [18, 20])
def test_sub_pieces_of_critical_piece_match(lam3, level):
    piece = pz.critical_piece(lam3, level)
    want = oracle.piece_of(lam3, level, pz.CRITICAL)
    assert (piece.level, piece.boundary, piece.probe) == (want.level, want.boundary, want.probe)
    same_pieces(pz.sub_pieces(lam3, piece), oracle.sub_pieces(lam3, want))


PARTITION_FIXTURES = [((1, 2), SATELLITE_THETA), ((1, 3), RABBIT_WAKE_THETA),
                      ((1, 2), CASE3_THETA), ((1, 2), AIRPLANE_THETA),
                      ((1, 2), MISIUREWICZ_THETA), ((2, 5), normalize(151, 512))]


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("pq,theta", PARTITION_FIXTURES)
def test_enumerate_pieces_partition_the_circle(pq, theta, level):
    """The pieces of a level are distinct and their arcs tile the circle:
    the arc lengths (b - a) mod D_n sum to D_n exactly."""
    lam = build(*pq, theta, 8)
    pieces = pz.enumerate_pieces(lam, level)
    den = lam.layer_den(level)
    assert len(set(pieces)) == len(pieces)
    assert sum((b - a) % den for piece in pieces for a, b in piece.arcs) == den


def test_sub_pieces_cut_the_parent_trace(lam3, monkeypatch):
    """The 257 children of the level-60 critical piece come from its own
    trace: no trace, and one orbit record (that of polygons_inside)."""
    piece = pz.critical_piece(lam3, 60)
    calls = {"trace": 0, "orbit": 0}
    for name in calls:
        original = getattr(Lamination, name)

        def counted(self, *args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Lamination, name, counted)
    children = pz.sub_pieces(lam3, piece)
    assert len(children) == 257
    assert calls == {"trace": 0, "orbit": 1}


def test_piece_equality_is_by_level_and_arcs(lam3):
    a = pz.piece_of(lam3, 12, normalize(368, 511))
    b = pz.piece_of(lam3, 12, normalize(19237, 87381))
    assert a.arcs == b.arcs and a.probe != b.probe
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != pz.piece_of(lam3, 13, normalize(368, 511))


@pytest.mark.parametrize("pq,theta", [((1, 2), MISIUREWICZ_THETA), ((1, 2), SATELLITE_THETA),
                                      ((1, 2), AIRPLANE_THETA), ((1, 2), CASE3_THETA),
                                      ((1, 3), RABBIT_WAKE_THETA)])
def test_slice_holes_match(pq, theta):
    """The separating pair (B, C) and its level n, or the same error."""
    def hole(lam):
        s = lam.slice_data()
        return s.n, s.B, s.C

    lam = build(*pq, theta, 8)
    assert outcome(hole, lam) == outcome(oracle.slice_hole, lam)


def test_slice_level_is_one_separation_level():
    """slice_data reads its level n as L(A + 1/(3 D_depth), theta_v): the same
    (n, B, C), or NeedsDeeperLaminationError, as the level-by-level hole search
    on seeded builds over q = 2..7 and depths 1..9."""
    rng = random.Random(28)
    kinds = set()
    for _ in range(160):
        q = rng.randrange(2, 8)
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        a, b = sector(p, q)
        den = (1 << rng.randrange(6)) * rng.randrange(3, 2000, 2)
        num = rng.randrange(a.num * den // a.den + 1, -(-b.num * den // b.den))
        try:
            lam = build(p, q, normalize(num, den), rng.randrange(1, 10))
        except (Case1DegenerateError, InvalidThetaError):
            continue

        def hole():
            s = lam.slice_data()
            return s.n, s.B, s.C

        got = outcome(hole)
        assert got == outcome(oracle.slice_hole, lam), (p, q, lam.theta_v, lam.depth)
        kinds.add(type(got[0]).__name__)
    assert kinds == {"int", "str"}  # found, and NeedsDeeperLaminationError


@pytest.mark.parametrize("pq,theta", [((1, 2), MISIUREWICZ_THETA), ((1, 2), SATELLITE_THETA),
                                      ((1, 2), AIRPLANE_THETA), ((1, 2), CASE3_THETA),
                                      ((1, 3), RABBIT_WAKE_THETA)])
def test_annuli_match(pq, theta):
    lam = build(*pq, theta, 8)
    for budget in (lam.depth - 1, 5, 20):
        assert outcome(pz.first_nondegenerate, lam, budget) == \
            outcome(oracle.first_nondegenerate, lam, budget)
    for n in range(21):
        assert pz.annulus_degenerate(lam, n) == oracle.annulus_degenerate(lam, n), n


@pytest.mark.parametrize("q", range(2, 6))
def test_first_nondegenerate_matches_on_late_landing(q):
    """theta_v meets the cycle after 9..12 doublings, past the build depth:
    the same level, or the same error."""
    for steps in range(9, 13):
        for theta in late_landing(1, q, steps):
            lam = build(1, q, theta, 8)
            for budget in (lam.depth - 1, 5, 20):
                assert outcome(pz.first_nondegenerate, lam, budget) == \
                    outcome(oracle.first_nondegenerate, lam, budget), (theta, budget)


def test_critical_piece_makes_no_angle_per_pulled_back_arc(lam3, monkeypatch):
    """critical_piece(lam, 60) and its boundary construct two Angles per arc of
    the answer; the Angle pull-back built four per arc of every level."""
    created = []
    original = Angle.__post_init__

    def counted(self):
        created.append(1)
        original(self)

    monkeypatch.setattr(Angle, "__post_init__", counted)
    piece = pz.critical_piece(lam3, 60)
    assert not created, "the trace itself builds no Angle"
    arcs = len(piece.boundary)
    assert arcs == 256 and len(created) == 2 * arcs
    created.clear()
    oracle.trace(lam3, 60, lam3.critical_leaf[0])
    assert len(created) > 10 * 2 * arcs, "the guard would not see per-arc Angles"


def test_trace_counts_its_arcs_before_building_one(lam3, monkeypatch):
    """The arc count 2^#{m < n : r[m+1] >= n - m} read from the orbit record
    equals the trace's length on the critical piece; past MAX_TRACE_ARCS the
    trace raises before it pulls back any arc."""
    theta = lam3.critical_leaf[0]
    for n in range(0, 121, 4):
        r = lam3.orbit(theta, n).to_value
        assert len(lam3.trace(n, theta)) == 1 << sum(r[m + 1] >= n - m for m in range(n)), n
    monkeypatch.setattr(Lamination, "_pull_back", lambda *args: pytest.fail("built an arc"))
    with pytest.raises(ValueError, match=r"has 8388608 arcs, over the bound of "
                                         r"MAX_TRACE_ARCS = 1048576"):
        lam3.trace(200, theta)


def test_polygons_inside_counts_its_polygons_before_any_pull_back(lam3, monkeypatch):
    """The count (depth-1 polygons in the sector) << the both-halves steps,
    which the bound reads, equals len(polygons_inside) on the critical piece
    at levels 0..131 (2^16 polygons at 131, the bound itself); past
    MAX_POLYGONS polygons_inside raises before it pulls back a polygon."""
    theta = lam3.critical_leaf[0]

    def counted(n):
        with monkeypatch.context() as m:
            m.setattr(lamination, "MAX_POLYGONS", -1)
            with pytest.raises(ValueError, match=f"the level-{n} gap of {theta} holds") as exc:
                lam3.polygons_inside(n, theta)
        return int(str(exc.value).split(" holds ")[1].split()[0])

    for n in range(132):
        assert counted(n) == len(lam3.polygons_inside(n, theta)), n
    assert counted(131) == lamination.MAX_POLYGONS
    split = Lamination._split

    def depth_one_only(self, polys, j):
        assert j == 0, "pulled back a polygon"
        return split(self, polys, j)

    monkeypatch.setattr(Lamination, "_split", depth_one_only)
    for n, count in ((140, 1 << 17), (174, 1 << 20)):
        with pytest.raises(ValueError, match=f"the level-{n} gap of {theta} holds {count} "
                                             f"polygons, over the bound of MAX_POLYGONS = 65536"):
            lam3.polygons_inside(n, theta)
