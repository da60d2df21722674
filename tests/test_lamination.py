import random
from fractions import Fraction

import pytest

from yoccoz.angles import double, from_fraction, normalize
from yoccoz.errors import Case1DegenerateError, InvalidThetaError, NeedsDeeperLaminationError
from yoccoz.lamination import (
    RayPairRelation,
    alpha_cycle,
    apply_slice_word,
    bounded_geometry_report,
    build,
    cantor_coordinates,
    cantor_ray_pair,
    check_unlinked,
)

from recursion_oracle import RecursionOracle
from fixtures import (
    CASE1_THETA,
    CASE1_THETA_SLOW,
    CASE3_THETA,
    MISIUREWICZ_THETA,
    RABBIT_WAKE_THETA,
    SATELLITE_THETA,
)


def brute_force_alpha_cycle(p, q):
    """Independent oracle: enumerate every doubling cycle with denominator
    2^q - 1 and pick the one advancing the circular order by p."""
    den = (1 << q) - 1
    cycles = []
    seen = set()
    for k in range(1, den):
        if k in seen:
            continue
        orb = [k]
        cur = 2 * k % den
        while cur != k:
            orb.append(cur)
            cur = 2 * cur % den
        seen.update(orb)
        if len(orb) == q:
            cycles.append(sorted(orb))
    for cyc in cycles:
        pos = {v: i for i, v in enumerate(cyc)}
        if all(pos[2 * cyc[i] % den] == (i + p) % q for i in range(q)):
            return [normalize(v, den) for v in cyc]
    raise AssertionError("no cycle found")


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (1, 2, ["1/3", "2/3"]),
        (1, 3, ["1/7", "2/7", "4/7"]),
        (2, 3, ["3/7", "5/7", "6/7"]),
    ],
)
def test_alpha_cycle_examples(p, q, expected):
    assert [str(a) for a in alpha_cycle(p, q)] == expected


def test_alpha_cycle_matches_oracle_small():
    from math import gcd

    for q in range(2, 13):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert alpha_cycle(p, q) == brute_force_alpha_cycle(p, q)


def test_alpha_cycle_large_q():
    """The closed form needs no 2^q table."""
    cyc = alpha_cycle(1, 64)
    assert len(cyc) == 64 and len(set(cyc)) == 64
    assert double(cyc[0]) == cyc[1]  # rotation by 1/64 advances one position


def test_build_depth1_polygons():
    lam = build(1, 2, SATELLITE_THETA, 1)
    layers = [[tuple(str(v) for v in poly) for poly in layer] for layer in lam.polygons]
    assert layers[0] == [("1/3", "2/3")]
    assert sorted(layers[1]) == [("1/3", "2/3"), ("1/6", "5/6")]


def test_build_counts_all_qgons():
    lam = build(1, 2, MISIUREWICZ_THETA, 8)
    for j, layer in enumerate(lam.polygons):
        assert len(layer) == 1 << j
        assert all(len(p) == 2 for p in layer)
    lam3 = build(1, 3, RABBIT_WAKE_THETA, 6)
    for j, layer in enumerate(lam3.polygons):
        assert len(layer) == 1 << j
        assert all(len(p) == 3 for p in layer)


def test_build_case1_degenerate():
    for theta, step, max_depth in ((CASE1_THETA, 1, 1), (CASE1_THETA_SLOW, 2, 2)):
        with pytest.raises(Case1DegenerateError) as err:
            build(1, 2, theta, max_depth)
        assert err.value.step == step
    # the slow one sits inside the sector, so shallow builds still work
    build(1, 2, CASE1_THETA_SLOW, 1)


def test_build_rejects_theta_outside_sector():
    with pytest.raises(InvalidThetaError):
        build(1, 2, normalize(1, 5), 3)  # valid orbit but outside (1/3, 2/3)


def test_forward_consistency():
    lam = build(1, 2, MISIUREWICZ_THETA, 7)
    for j in range(1, lam.depth + 1):
        parents = {p for p in lam.polygons[j - 1]}
        for poly in lam.polygons[j]:
            image = tuple(sorted({double(v) for v in poly}, key=lambda a: a.frac))
            assert image in parents


def quadratic_unlinked(families):
    fams = [tuple(sorted(f, key=lambda a: a.frac)) for f in families]
    for i in range(len(fams)):
        for j in range(i + 1, len(fams)):
            a, b = set(fams[i]), set(fams[j])
            if a == b:
                continue
            merged = sorted(a | b, key=lambda t: t.frac)
            pattern = ["a" if v in a else "b" for v in merged]
            blocks = 1 + sum(1 for x, y in zip(pattern, pattern[1:]) if x != y)
            if pattern[0] == pattern[-1] and blocks > 1:
                blocks -= 1
            if blocks > 2:
                return (fams[i], fams[j])
    return None


def test_unlinked_checker_against_quadratic():
    random.seed(4)
    lam = build(1, 2, MISIUREWICZ_THETA, 5)
    fams = [p for layer in lam.polygons for p in layer]
    assert check_unlinked(fams) is None
    assert quadratic_unlinked(fams) is None
    # a deliberately crossing family must be caught by both
    bad = fams + [(normalize(1, 5), normalize(1, 2))]
    assert check_unlinked(bad) is not None
    assert quadratic_unlinked(bad) is not None


def test_lazy_queries_match_materialized():
    lam = build(1, 2, MISIUREWICZ_THETA, 7)
    random.seed(11)
    h = lam.critical_leaf[0]
    for _ in range(200):
        den = random.randrange(5, 4000) | 1
        u = normalize(random.randrange(1, den), den)
        w = normalize(random.randrange(1, den), den)
        level = random.randrange(0, lam.depth + 1)
        if lam.is_vertex(u, level) or lam.is_vertex(w, level):
            continue
        # reference: scan every stored polygon of depth <= level
        def side(t):
            sides = []
            for d in range(level + 1):
                for poly in lam.polygons[d]:
                    vs = list(poly)
                    from yoccoz.angles import ArcPosition, in_arc

                    k = next(
                        i
                        for i in range(len(vs))
                        if in_arc(t, vs[i], vs[(i + 1) % len(vs)]) is ArcPosition.INSIDE
                    )
                    sides.append(k)
            return sides

        assert lam.same_gap(level, u, w) == (side(u) == side(w))


@pytest.mark.parametrize("pq,theta", [((1, 2), CASE3_THETA), ((1, 2), MISIUREWICZ_THETA),
                                      ((1, 3), RABBIT_WAKE_THETA)])
def test_separation_levels_match_recursion_oracle(pq, theta):
    """same_gap agrees with the memoised pullback recursion on random pairs,
    the leaf and the critical-orbit points, at levels up to 60."""
    lam = build(*pq, theta, 6)
    oracle = RecursionOracle(lam)
    rng = random.Random(31)
    special = [lam.critical_leaf[0]] + list(lam.critical_orbit)

    def pick():
        if rng.random() < 0.3:
            return rng.choice(special)
        den = rng.randrange(5, 10**5) | 1
        return normalize(rng.randrange(1, den), den)

    queries = 0
    while queries < 1000:
        u, w, level = pick(), pick(), rng.randrange(0, 61)
        if lam.is_vertex(u, level) or lam.is_vertex(w, level):
            continue
        assert lam.same_gap(level, u, w) == oracle.same_gap(level, u, w), (level, u, w)
        queries += 1
    for a in special:
        for b in special:
            for level in range(0, 61, 7):
                assert lam.same_gap(level, a, b) == oracle.same_gap(level, a, b)


@pytest.mark.parametrize("pq,theta", [((1, 2), CASE3_THETA), ((1, 2), MISIUREWICZ_THETA),
                                      ((1, 3), RABBIT_WAKE_THETA)])
def test_separation_caps_and_decides_same_gap(pq, theta):
    """separation(k, u, w) = min(separation(K, u, w), k + 1) for every k <= K,
    and same_gap(k, u, w) is separation(k, u, w) > k, on seeded pairs that
    share up to 60 leading binary digits, so their separation levels run from
    0 past the cap."""
    lam = build(*pq, theta, 6)
    rng = random.Random(47)
    special = [lam.critical_leaf[0]] + list(lam.critical_orbit)
    K, tops, pairs = 40, set(), 0
    while pairs < 100 or len(tops) < 12 or K + 1 not in tops:
        if rng.random() < 0.3:
            u = rng.choice(special)
        else:
            den = rng.randrange(5, 10**5) | 1
            u = normalize(rng.randrange(1, den), den)
        shift = Fraction(rng.randrange(1, 1024), 1 << rng.randrange(10, 70))
        w = from_fraction((u.frac + shift) % 1)
        if lam.is_vertex(u, K + 1) or lam.is_vertex(w, K + 1):
            continue
        top = lam.separation(K, u, w)
        for k in range(K + 1):
            s = lam.separation(k, u, w)
            assert s == min(top, k + 1), (k, u, w)
            assert lam.same_gap(k, u, w) == (s > k), (k, u, w)
        tops.add(top)
        pairs += 1


@pytest.mark.parametrize("pq,theta", [((1, 2), CASE3_THETA), ((1, 2), MISIUREWICZ_THETA),
                                      ((1, 3), RABBIT_WAKE_THETA)])
def test_tau_closed_form_matches_recursion_oracle(pq, theta):
    from yoccoz import puzzle as pz

    lam = build(*pq, theta, 6)
    oracle = RecursionOracle(lam)
    rng = random.Random(32)
    done = 0
    while done < 12:
        den = rng.randrange(5, 10**6) | 1
        t = normalize(rng.randrange(1, den), den)
        if lam.is_vertex(t, 60):
            continue
        assert pz.tau_sequence(lam, t, 60) == [oracle.tau_direct(n, t) for n in range(61)], t
        done += 1
    assert pz.tau_sequence(lam, pz.CRITICAL, 60) == list(range(61))


def test_long_critical_orbit():
    """A 4004-point critical orbit builds and answers in O(P) memory (a
    table over its P^2 pairs would take more than 100 MB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        lam = build(1, 2, normalize(4003, 8009), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lam.critical_orbit) == 4004
    assert peak < 32 * 2**20
    oracle = RecursionOracle(lam)
    rng = random.Random(33)
    special = [lam.critical_leaf[0]] + list(lam.critical_orbit[:50])
    for _ in range(200):
        u, w, level = rng.choice(special), rng.choice(special), rng.randrange(0, 20)
        assert lam.same_gap(level, u, w) == oracle.same_gap(level, u, w), (level, u, w)


def test_queries_leave_the_lamination_unchanged():
    """No memo: answering queries adds no state to the lamination."""
    lam = build(1, 2, CASE3_THETA, 6)

    def state():
        return {k: len(v) if hasattr(v, "__len__") else v for k, v in vars(lam).items()}

    before = state()
    h = lam.critical_leaf[0]
    for level in (3, 12, 30):
        lam.same_gap(10 * level, normalize(368, 511), h)
        lam.trace(level, h)
        lam.polygons_inside(level, h)
    lam.vertex_class(normalize(1, 3 * (1 << 9)))
    assert state() == before


def test_ray_pair_equiv():
    lam = build(1, 2, SATELLITE_THETA, 4)
    assert lam.ray_pair_equiv(normalize(1, 3), normalize(2, 3)) is RayPairRelation.EQUIVALENT
    assert lam.ray_pair_equiv(normalize(1, 6), normalize(5, 6)) is RayPairRelation.EQUIVALENT
    assert lam.ray_pair_equiv(normalize(1, 3), normalize(1, 6)) is RayPairRelation.NOT_EQUIVALENT
    assert lam.ray_pair_equiv(normalize(1, 5), normalize(2, 5)) is RayPairRelation.UNKNOWN
    # lazy classes reach far beyond the materialized depth
    deep = normalize(1, 3 * (1 << 9))
    assert lam.vertex_entry_step(deep) == 9
    cls = lam.vertex_class(deep)
    assert deep in cls and len(cls) == 2


def test_slice_data_frozen_values():
    """Hand-computed slice for theta_v = 3/8 (see the fixture provenance)."""
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    sd = lam.slice_data()
    assert (str(sd.A), str(sd.B), str(sd.C), str(sd.D)) == ("1/3", "17/48", "19/48", "2/3")
    assert (sd.n, sd.m, sd.k, sd.q) == (4, 4, 1, 2)
    assert str(sd.B_k) == "65/192"
    assert str(sd.C_k) == "115/192"
    assert str(sd.E) == "1075/3072"
    assert str(sd.F) == "1217/3072"


def test_slice_order_and_pullback_scaling():
    for theta, pq in ((MISIUREWICZ_THETA, (1, 2)), (RABBIT_WAKE_THETA, (1, 3))):
        lam = build(*pq, theta, 8)
        sd = lam.slice_data()
        chain = [sd.A, sd.B_k, sd.E, sd.B, sd.C, sd.F, sd.C_k, sd.D]
        assert all(chain[i].frac < chain[i + 1].frac for i in range(7))
        # paper scaling: B_k - A = (B - A) 2^{-kq}
        assert sd.B_k.frac - sd.A.frac == (sd.B.frac - sd.A.frac) / (1 << sd.k * sd.q)
        assert sd.D.frac - sd.C_k.frac == (sd.D.frac - sd.C.frac) / (1 << sd.k * sd.q)
        # return relation: 2^m B = D, 2^m C = A
        assert double(sd.B, sd.m) == sd.D and double(sd.C, sd.m) == sd.A


def test_slice_needs_depth():
    lam = build(1, 2, MISIUREWICZ_THETA, 2)
    with pytest.raises(NeedsDeeperLaminationError):
        lam.slice_data()


def test_cantor_ray_pair_words():
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    sd = lam.slice_data()
    assert cantor_ray_pair(sd, []) == (sd.A, sd.D)
    assert cantor_ray_pair(sd, [1]) == (sd.A, sd.D)
    assert cantor_ray_pair(sd, [2]) == (sd.B, sd.C)
    a, b = cantor_ray_pair(sd, [2, 2])
    assert (a, b) == (sd.E, sd.F)


def test_cantor_pairs_are_ray_pairs():
    """Cross-validation of the pullback lemmas: every word's pair lands in a
    single polygon class of the lamination (lazy classes, any depth)."""
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    sd = lam.slice_data()
    words = [[]]
    for _ in range(4):
        words = [w + [i] for w in words for i in (1, 2)]
    for w in words:
        a, b = cantor_ray_pair(sd, w)
        assert lam.ray_pair_equiv(a, b) is RayPairRelation.EQUIVALENT, w


def test_cantor_coordinates():
    assert cantor_coordinates([]) == 0
    assert cantor_coordinates([2]) == 1
    assert cantor_coordinates([2, 1]) == 1
    assert cantor_coordinates([1, 2]) == Fraction(1, 3)
    assert cantor_coordinates([1], 1) == Fraction(1, 3)
    assert cantor_coordinates([2], 1) == Fraction(2, 3)
    assert cantor_coordinates([2, 1], 1) == Fraction(8, 9)


def test_slice_words_reject_letters_other_than_1_and_2():
    sd = build(1, 2, MISIUREWICZ_THETA, 6).slice_data()
    for word in ([3], [1, 0], [2, 2, "1"]):
        with pytest.raises(ValueError, match="1 or 2"):
            apply_slice_word(sd, word, sd.A.frac, sd.D.frac)
        with pytest.raises(ValueError, match="1 or 2"):
            cantor_coordinates(word)
    assert apply_slice_word(sd, [2], sd.A.frac, sd.D.frac) == (sd.B.frac, sd.C.frac)


def test_bounded_geometry_two_ratio_triples():
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    sd = lam.slice_data()
    r1 = bounded_geometry_report(sd, 1)
    r5 = bounded_geometry_report(sd, 5)
    assert len(set(r5)) == 2
    assert set(r1) == set(r5)
    assert all(x > 0 and y > 0 and z > 0 for (x, y, z) in r5)


def test_lamination_size_is_checked_before_the_cycle_is_built(monkeypatch):
    """q (2^(depth+1) - 1) vertices of q + depth + 64 counted bits each, refused
    past MAX_LAMINATION_BITS before alpha_cycle or any layer runs."""
    from yoccoz import lamination

    def no_cycle(*args):
        raise AssertionError("the alpha cycle was built past the bound")

    monkeypatch.setattr(lamination, "alpha_cycle", no_cycle)
    with pytest.raises(ValueError, match=r"the depth-17 lamination of q = 20 has 5242860 "
                                         r"vertices, 529528860 bits counted, over the bound "
                                         r"of MAX_LAMINATION_BITS = 268435456 bits"):
        build(1, 20, normalize(1, 1044480), 17)
    with pytest.raises(ValueError, match=r"q = 100000 has 100000 vertices"):
        build(1, 100000, normalize(1, 3), 0)
    monkeypatch.undo()
    # at the bound itself the build goes ahead
    monkeypatch.setattr(lamination, "MAX_LAMINATION_BITS", 2 * 7 * (2 + 2 + 64))
    assert len(build(1, 2, MISIUREWICZ_THETA, 2).layers) == 3
    with pytest.raises(ValueError, match="over the bound"):
        build(1, 2, MISIUREWICZ_THETA, 3)
