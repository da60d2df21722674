import random

import pytest
from hypothesis import given, settings, strategies as st

from yoccoz.angles import normalize
from yoccoz.lamination import RayPairRelation, build
from yoccoz import renorm as rn

from fixtures import (
    AIRPLANE_THETA,
    CASE3_THETA,
    MISIUREWICZ_THETA,
    RABBIT_PAIR_CROSS,
    RABBIT_PAIR_EQUIV,
    RABBIT_WAKE_THETA,
    SATELLITE_THETA,
    TUNE_A0,
    TUNE_A1,
)


def test_detect_satellite():
    lam = build(1, 2, SATELLITE_THETA, 6)
    rep = rn.detect(lam, 20)
    assert rep.renormalizable and rep.period == 2 and rep.kind == "satellite"


def test_detect_primitive_airplane():
    lam = build(1, 2, AIRPLANE_THETA, 6)
    rep = rn.detect(lam, 20)
    assert rep.renormalizable and rep.period == 3 and rep.kind == "primitive"


def test_detect_negative_on_misiurewicz():
    lam = build(1, 2, MISIUREWICZ_THETA, 6)
    rep = rn.detect(lam, 25)
    assert not rep.renormalizable and rep.budget == 25


def test_detect_budget_monotone_stability():
    """A positive report never flips back to negative with more budget."""
    lam = build(1, 2, SATELLITE_THETA, 6)
    small = rn.detect(lam, 6)
    big = rn.detect(lam, 24)
    assert small.renormalizable and big.renormalizable
    assert small.period == big.period
    # 222/511 is period-9 renormalizable: invisible at budget 8, found at 12
    lam9 = build(1, 2, CASE3_THETA, 8)
    assert not rn.detect(lam9, 8).renormalizable
    rep9 = rn.detect(lam9, 12)
    assert rep9.renormalizable and rep9.period == 9 and rep9.kind == "primitive"


# ------------------------------------------------------------------ tuning


def test_expansion_roundtrip():
    for num, den in ((1, 7), (9, 14), (3, 8), (22, 63), (0, 1)):
        theta = normalize(num, den)
        assert rn.angle_to_expansion(theta).to_angle() == theta


@given(st.integers(1, 5000).flatmap(lambda den: st.tuples(st.integers(0, den - 1), st.just(den))))
def test_expansion_matches_fraction_long_division(pair):
    """Integer remainders give the digits of the Fraction long division."""
    theta = normalize(*pair)
    seen, digits, x = {}, [], theta.frac
    while x not in seen:
        seen[x] = len(digits)
        x *= 2
        digits.append("1" if x >= 1 else "0")
        x %= 1
    start = seen[x]
    exp = rn.angle_to_expansion(theta)
    assert (exp.prefix, exp.cycle) == ("".join(digits[:start]), "".join(digits[start:]))


def test_tune_identity_substitution():
    exp = rn.BinaryExpansion("", "101")
    assert rn.tune("0", "1", exp) == exp


def test_tune_geometric_example():
    out = rn.tune("01", "10", rn.BinaryExpansion("", "1"))
    assert str(out) == ".(10)"
    assert out.to_angle() == normalize(2, 3)


def test_tune_digitwise_hand_cases():
    assert rn.tune("01", "10", normalize(1, 7)).to_angle() == normalize(22, 63)
    assert rn.tune("01", "10", normalize(2, 7)).to_angle() == normalize(25, 63)
    assert rn.tune("01", "10", normalize(4, 7)).to_angle() == normalize(37, 63)
    # E(0) and E(1/2-tail) land on the tuned alpha pair
    assert rn.tune("01", "10", rn.BinaryExpansion("", "0")).to_angle() == normalize(1, 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5000), st.integers(2, 5001))
def test_tune_monotone_injective(num, den):
    if num >= den:
        return
    e = lambda t: rn.tune(TUNE_A0, TUNE_A1, rn.angle_to_expansion(t)).to_angle()
    t1 = normalize(num, den)
    t2 = normalize(num + 1, den + 1)
    if t1 == t2:
        return
    lo, hi = (t1, t2) if t1.frac < t2.frac else (t2, t1)
    assert e(lo).frac < e(hi).frac


@pytest.fixture(scope="module")
def tuned_pair_setup():
    lam_hat = build(1, 3, RABBIT_WAKE_THETA, 5)
    tuned_theta = rn.tune(TUNE_A0, TUNE_A1, rn.angle_to_expansion(RABBIT_WAKE_THETA)).to_angle()
    assert tuned_theta == normalize(89, 252)
    lam_tuned = build(1, 2, tuned_theta, 10)
    return lam_hat, lam_tuned


def test_tuned_pairs_compatibility(tuned_pair_setup):
    """Ray-pair transport: an equivalent hat-pair stays compatible with the
    tuned lamination and the image polygons; a crossing pair is caught."""
    lam_hat, lam_tuned = tuned_pair_setup
    t1, t2 = RABBIT_PAIR_EQUIV
    assert lam_hat.ray_pair_equiv(t1, t2) is RayPairRelation.EQUIVALENT
    assert rn.tuned_pair_compatible(lam_hat, lam_tuned, TUNE_A0, TUNE_A1, t1, t2)

    u1, u2 = RABBIT_PAIR_CROSS
    assert not rn.tuned_pair_compatible(lam_hat, lam_tuned, TUNE_A0, TUNE_A1, u1, u2)


def test_image_polygons_unlinked_with_tuned_lamination(tuned_pair_setup):
    lam_hat, lam_tuned = tuned_pair_setup
    for img in rn.image_polygons(lam_hat, TUNE_A0, TUNE_A1):
        for layer in lam_tuned.polygons:
            for poly in layer:
                for i in range(len(img)):
                    for j in range(i + 1, len(img)):
                        assert not rn.chord_crosses_polygon(img[i], img[j], poly)
