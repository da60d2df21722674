"""The `lamination` report: its polygon layers are written by nested joins,
and the whole text must equal `json.dumps(indent=2, sort_keys=True)`; a
`--lam` file is checked by its data, not its bytes; reports print angles at
any q."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yoccoz import cli
from yoccoz.angles import arc_length, arc_point, normalize
from yoccoz.config import Config
from yoccoz.lamination import alpha_cycle, build

from fixtures import (AIRPLANE_THETA, CASE3_THETA, MISIUREWICZ_THETA, RABBIT_WAKE_THETA,
                      SATELLITE_THETA)


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def critical_value_sector(p, q):
    """The shortest arc of the alpha cycle, which holds the critical value."""
    cycle = alpha_cycle(p, q)
    return min(zip(cycle, cycle[1:] + cycle[:1]), key=arc_length)


vertex = st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 10**12), st.integers(1, 10**12))
polygon = st.lists(vertex, min_size=1, max_size=5)
top_layers = st.integers(0, 5).flatmap(
    lambda depth: st.tuples(st.lists(polygon, min_size=1 << depth, max_size=1 << depth),
                            st.just(depth)))


@settings(max_examples=300, deadline=None)
@given(top_layers)
def test_polygons_block_matches_json_dumps(case):
    """Layer j is the first 2^j polygons of a random top layer, depth 0 included."""
    top, depth = case
    layers = [top[:1 << j] for j in range(depth + 1)]
    assert cli._polygons_json(top, depth) == json.dumps(layers, indent=2).replace("\n", "\n  ")


# the five fixture laminations, and the q = 14 depth-8 one (7154 vertices)
# that is the largest report a `scan` job writes
REPORTS = [(1, 2, str(SATELLITE_THETA), 6), (1, 2, str(MISIUREWICZ_THETA), 6),
           (1, 2, str(AIRPLANE_THETA), 6), (1, 2, str(CASE3_THETA), 8),
           (1, 3, str(RABBIT_WAKE_THETA), 6),
           (1, 14, str(arc_point(*critical_value_sector(1, 14), Fraction(1, 3))), 8)]


@pytest.mark.parametrize("p,q,theta_v,depth", REPORTS)
def test_lamination_report_text_matches_json_dumps(tmp_path, p, q, theta_v, depth):
    lam = build(p, q, normalize(*map(int, theta_v.split("/"))), depth)
    want = json.dumps(cli._report(Config(), **cli._lam_payload(lam)), indent=2,
                      sort_keys=True) + "\n"
    argv = ["lamination", "--p", str(p), "--q", str(q), "--theta-v", theta_v,
            "--depth", str(depth)]
    assert run_cli(argv) == (0, want)
    path = tmp_path / "lam.json"
    assert run_cli(argv + ["--out", str(path)]) == (0, f"{path}\n")
    assert path.read_text() == want


@pytest.mark.parametrize("p,q,theta_v,depth", REPORTS + [
    (1, 2200, str(arc_point(*critical_value_sector(1, 2200), Fraction(1, 2))), 2)])
def test_vertex_strings_equal_the_per_vertex_expression(p, q, theta_v, depth):
    """Each reduced denominator is formatted once per report, into the same
    strings as reducing and formatting every vertex on its own."""
    lam = build(p, q, normalize(*map(int, theta_v.split("/"))), depth)
    den = lam.layer_den(depth)
    want = [[f"{n // (g := gcd(n, den))}/{den // g}" for n in verts] for verts in lam.layers[-1]]
    assert cli._lam_payload(lam)["polygons"][-1] == want


def test_compactly_redumped_lamination_file_loads(tmp_path):
    """`_load_lam` compares the parsed data with the rebuild, not the bytes."""
    path = str(tmp_path / "lam.json")
    code, _ = run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "2/5", "--depth",
                       "6", "--out", path])
    assert code == 0
    with open(path) as fh:
        data = json.load(fh)
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, out = run_cli(["tau", "--lam", path, "--theta", "7/15", "--n", "4"])
    assert code == 0, out


def test_reports_print_angles_past_the_int_string_limit():
    """With the limit at 640 digits, a 2200-bit angle (663 digits) is parsed
    from the command line and printed in the report; the caller's limit is
    restored afterwards."""
    a, b = critical_value_sector(1, 2200)
    theta_v = str(arc_point(a, b, Fraction(1, 2)))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(["lamination", "--p", "1", "--q", "2200", "--theta-v", theta_v,
                             "--depth", "1"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 0, out[:200]
    report = json.loads(out)
    assert [normalize(*map(int, s.split("/"))) for s in report["sector"]] == [a, b]
