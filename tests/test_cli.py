import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from yoccoz import qcmodel as qc
from yoccoz.cli import main
from yoccoz.config import Config


def run_cli(args, tmp_path):
    """In-process invocation, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture()
def lam_json(tmp_path):
    path = str(tmp_path / "lam.json")
    code, _ = run_cli(
        ["lamination", "--p", "1", "--q", "2", "--theta-v", "2/5", "--depth", "6",
         "--out", path],
        tmp_path,
    )
    assert code == 0
    return path


def test_lamination_counts(lam_json):
    data = json.loads(Path(lam_json).read_text())
    assert len(data["polygons"]) == 7
    for j, layer in enumerate(data["polygons"]):
        assert len(layer) == 1 << j
    assert data["theta_v"] == "2/5"
    assert data["config"]["seed"] == 0
    assert data["version"]


def test_lamination_case1_exits_1(tmp_path):
    code, out = run_cli(
        ["lamination", "--p", "1", "--q", "2", "--theta-v", "1/6", "--depth", "3"], tmp_path
    )
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "Case1DegenerateError" and err["step"] == 1


@pytest.mark.parametrize("edit", ["polygon", "swap", "truncate", "sector"])
def test_edited_lamination_file_exits_1(tmp_path, lam_json, edit):
    """A stored lamination is checked key for key against the rebuild, the
    sector and critical leaf included. The rebuild's layer j is the head of
    its top layer, yet every stored layer is read: the polygon edits leave
    the top layer intact."""
    import contextlib
    import io

    data = json.loads(Path(lam_json).read_text())
    layers, top = data["polygons"], json.dumps(data["polygons"][-1])
    if edit == "polygon":  # one vertex string of layer 3
        poly = layers[3][2]
        poly[0] = "1/5" if poly[0] != "1/5" else "1/7"
    elif edit == "swap":  # two polygons of layer 2
        layers[2][1], layers[2][2] = layers[2][2], layers[2][1]
    elif edit == "truncate":  # layer 1 cut to its first polygon
        del layers[1][1:]
    else:
        data["sector"] = data["sector"][::-1]
    assert json.dumps(layers[-1]) == top
    with open(lam_json, "w") as fh:
        json.dump(data, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["tau", "--lam", lam_json, "--theta", "7/15", "--n", "4"], tmp_path)
    assert code == 1 and err.getvalue() == ""
    report = json.loads(out)
    assert report["error"] == "YoccozError"
    assert "stored lamination disagrees with the rebuild" in report["message"]


@pytest.mark.parametrize("text,message", [
    ("[]", "a lamination file is an object"),
    ('{"q": 2}', "a lamination file is an object"),
    ('{"p": 1, "q": 2, "theta_v": "2/5", "depth": "3"}', "a lamination file is an object"),
    ('{"p": 1, "q": 2, "theta_v": "2/5", "depth": true}', "a lamination file is an object"),
    ('{"p": 1, "q": 2, "theta_v": "2/x", "depth": 3}', "cannot be rebuilt"),
    ('{"p": 2, "q": 4, "theta_v": "2/5", "depth": 3}', "cannot be rebuilt"),
    ('{"p": 1, "q": 2, "theta_v": "2/5", "depth": 3}', "disagrees with the rebuild"),
    ('{"p": 1, ', "not a JSON lamination file"),
])
def test_malformed_lamination_file_exits_1(tmp_path, text, message):
    """The file's shape is checked before the rebuild: no traceback, exit 1
    with a JSON YoccozError and nothing on stderr."""
    import contextlib
    import io

    path = tmp_path / "bad.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["tau", "--lam", str(path), "--theta", "7/15", "--n", "4"],
                            tmp_path)
    assert code == 1 and err.getvalue() == ""
    report = json.loads(out)
    assert report["error"] == "YoccozError" and message in report["message"]


def test_late_landing_exits_with_case1(tmp_path):
    """theta_v meets the alpha cycle after 9 doublings, beyond the depth-8
    lamination: queries that would need that level say so."""
    lam = str(tmp_path / "late.json")
    code, _ = run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "919/1536",
                       "--depth", "8", "--out", lam], tmp_path)
    assert code == 0
    for args in (["descendants", "--lam", lam], ["renorm", "--lam", lam],
                 ["tau", "--lam", lam, "--theta", "CRITICAL", "--n", "9"]):
        code, out = run_cli(args, tmp_path)
        assert code == 1
        assert json.loads(out) == {"error": "Case1DegenerateError", "step": 9,
                                   "message": "theta_v hits the alpha-cycle after 9 doublings"}
    code, out = run_cli(["tau", "--lam", lam, "--theta", "CRITICAL", "--n", "8"], tmp_path)
    assert code == 0 and json.loads(out)["tau"] == list(range(9))


@pytest.mark.parametrize("args", [["descendants", "--level", "5000", "--budget", "2"],
                                  ["tau", "--theta", "368/511", "--n", "5000"]])
def test_deep_levels_at_default_recursion_limit(tmp_path, args):
    lam = str(tmp_path / "lam9.json")
    assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                    "--depth", "8", "--out", lam], tmp_path)[0] == 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out = run_cli(args[:1] + ["--lam", lam] + args[1:], tmp_path)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    rep = json.loads(out)
    if args[0] == "tau":
        assert len(rep["tau"]) == 5001 and rep["tau"][:10] == list(range(10))
    else:
        assert rep["base_level"] == 5000


def test_missing_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["lamination", "--p", "1", "--q", "2", "--depth", "3"], tmp_path)
    assert exc.value.code == 2


def test_tau_command(lam_json, tmp_path):
    code, out = run_cli(["tau", "--lam", lam_json, "--theta", "CRITICAL", "--n", "9"], tmp_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["tau"] == list(range(10))


def test_tile_case1_trivial(tmp_path):
    out_path = str(tmp_path / "tiling.json")
    code, _ = run_cli(
        ["tile", "--p", "1", "--q", "2", "--theta-v", "1/6", "--level", "8",
         "--out", out_path],
        tmp_path,
    )
    assert code == 0
    rep = json.loads(Path(out_path).read_text())
    assert rep["case"] == "TrivialCase1"
    assert rep["tiles"] == [{"level": 8, "whole_piece": True}]


def test_tile_case3(tmp_path):
    lam = str(tmp_path / "lam9.json")
    assert run_cli(
        ["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511", "--depth", "8",
         "--out", lam],
        tmp_path,
    )[0] == 0
    out_path = str(tmp_path / "tiling.json")
    code, _ = run_cli(
        ["tile", "--lam", lam, "--level", "15", "--max-tile-level", "19", "--out", out_path],
        tmp_path,
    )
    assert code == 0
    rep = json.loads(Path(out_path).read_text())
    assert rep["case"] == "Recurrent" and rep["L"] == 14
    assert rep["tiles"] and all(t["level"] <= 19 for t in rep["tiles"])


def test_tile_evidence_depth_is_the_cli_one(tmp_path):
    """Library and CLI classify a lamination at the same evidence depth."""
    from yoccoz.angles import normalize
    from yoccoz.lamination import build
    from yoccoz.tiling import tile

    lam = str(tmp_path / "lam12.json")
    assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                    "--depth", "12", "--out", lam], tmp_path)[0] == 0
    code, out = run_cli(["tile", "--lam", lam, "--level", "15", "--max-tile-level", "16"],
                        tmp_path)
    assert code == 0
    t = tile(build(1, 2, normalize(222, 511), 12), 15, max_tile_level=16)
    assert t.case.evidence_depth == json.loads(out)["evidence"] == 10


def test_tile_max_tile_level_zero_is_used(tmp_path):
    """A given --max-tile-level 0 is not the config's 24: the level-5 piece
    of 3/8 is cut once."""
    code, out = run_cli(["tile", "--p", "1", "--q", "2", "--theta-v", "3/8", "--level", "5",
                         "--max-tile-level", "0"], tmp_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["max_tile_level"] == 0 and rep["unresolved"] == 1
    assert rep["tiles"] and all(t["level"] == 6 for t in rep["tiles"])


def test_renorm_budget_zero_is_used(lam_json, tmp_path):
    """A given --budget 0 is not the config's 30: no period is searched."""
    code, out = run_cli(["renorm", "--lam", lam_json, "--budget", "0"], tmp_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["budget"] == 0 and not rep["renormalizable"]


def test_renorm_and_tune(lam_json, tmp_path):
    code, out = run_cli(["renorm", "--lam", lam_json, "--budget", "16"], tmp_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["renormalizable"] and rep["period"] == 2 and rep["kind"] == "satellite"

    code, out = run_cli(["tune", "--a0", "01", "--a1", "10", "--theta", "1/7"], tmp_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["angle"] == "22/63"


def test_trace_cache_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(tmp_path / "cache"))
    args = ["trace", "--c=-1,0", "--theta", "1/3"]
    code1, out1 = run_cli(args, tmp_path)
    code2, out2 = run_cli(args, tmp_path)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-stable, second run from the cache
    assert (tmp_path / "cache").exists()


def test_trace_cache_file_name_is_pinned(tmp_path, monkeypatch):
    """The key is c, theta, start_radius, steps_per_halving, newton_cap, the
    four fixed tracing constants and pot_lo, in that order: cache files
    written by earlier versions with the same settings stay hits."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(cache))
    assert run_cli(["trace", "--c=-1,0", "--theta", "1/3"], tmp_path)[0] == 0
    assert [p.name for p in cache.iterdir()] == ["ef18e9e2b956efa40d4eeee9.json"]


def test_trace_cache_keys_on_trace_config(tmp_path, monkeypatch):
    """A run with newton_cap=1 fails the same way whether or not the cache
    holds the default-config ray."""
    cfgfile = tmp_path / "cap1.cfg"
    cfgfile.write_text("newton_cap = 1\n")
    args = ["--config", str(cfgfile), "--seed", "7", "trace", "--c=-1,0", "--theta", "1/3"]
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(tmp_path / "cold"))
    cold = run_cli(args, tmp_path)
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(tmp_path / "warm"))
    assert run_cli(["trace", "--c=-1,0", "--theta", "1/3"], tmp_path)[0] == 0
    warm = run_cli(args, tmp_path)
    assert cold == warm
    assert cold[0] == 1 and json.loads(cold[1])["error"] == "TraceFailedError"


def test_trace_cache_hit_echoes_current_config(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(cache))
    ray = ["trace", "--c=-1,0", "--theta", "1/3"]
    assert run_cli(ray, tmp_path)[0] == 0
    files = sorted(p.name for p in cache.iterdir())
    code, out = run_cli(["--seed", "7"] + ray, tmp_path)
    assert code == 0 and json.loads(out)["config"]["seed"] == 7
    assert sorted(p.name for p in cache.iterdir()) == files  # a hit, no temp file left
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(tmp_path / "fresh"))
    assert run_cli(["--seed", "7"] + ray, tmp_path) == (0, out)


def test_trace_cache_recovers_from_a_corrupt_file(tmp_path, monkeypatch):
    """A truncated or ill-shaped cache file is a miss, and so is one of
    another c or theta, with a residual count other than its point count, or
    a point that is not three finite floats: the ray is traced again and a
    valid file written over it."""
    ray = ["trace", "--c=-1,0", "--theta", "1/3"]
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(tmp_path / "cold"))
    cold = run_cli(ray, tmp_path)
    assert cold[0] == 0
    cache = tmp_path / "cache"
    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(cache))
    assert run_cli(ray, tmp_path) == cold
    (path,) = cache.iterdir()
    good = path.read_text()
    ray_of = json.loads(good)
    others = ({"c": "0,0"}, {"theta": "1/7"}, {"points": [[1, 2]]},
              {"c": "0,0", "theta": "1/7", "points": [[1, 2]]},
              {"residuals": ray_of["residuals"][1:]}, {"points": ray_of["points"][:-1]},
              {"points": [[1.0, 2.0]] + ray_of["points"][1:]},
              {"points": [["1", 2.0, 3.0]] + ray_of["points"][1:]},
              {"points": [[True, 2.0, 3.0]] + ray_of["points"][1:]},
              {"points": [[float("nan"), 2.0, 3.0]] + ray_of["points"][1:]},
              {"points": [[1.0, float("inf"), 3.0]] + ray_of["points"][1:]},
              {"points": [None] + ray_of["points"][1:]})
    for bad in (good[:100], json.dumps({"c": "-1,0", "theta": "1/3"}), "[]", "",
                *(json.dumps({**ray_of, **other}) for other in others)):
        path.write_text(bad)
        assert run_cli(ray, tmp_path) == cold
        assert [p.name for p in cache.iterdir()] == [path.name]
        assert json.loads(path.read_text()) == json.loads(good)


def test_degenerate_strip_grid_exits_1(tmp_path):
    cfgfile = tmp_path / "grid.cfg"
    for line in ("grid_ny = 1", "grid_ny = 2", "strip_window = 0.01"):
        cfgfile.write_text(line + "\n")
        code, out = run_cli(["--config", str(cfgfile), "sobolev", "verify", "--trials", "1"],
                            tmp_path)
        assert code == 1 and json.loads(out)["error"] == "YoccozError"


def test_bad_ray_window_exits_1_naming_both_potentials(tmp_path, monkeypatch):
    """pot_lo = 10 lies above the log start_radius every ray starts from."""
    import contextlib
    import io

    monkeypatch.setenv("YOCCOZ_CACHE_DIR", str(tmp_path / "cache"))
    cfgfile = tmp_path / "high.cfg"
    cfgfile.write_text("pot_lo = 10\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["--config", str(cfgfile), "trace", "--c=-1,0", "--theta", "1/3"],
                            tmp_path)
    assert code == 1 and err.getvalue() == ""
    report = json.loads(out)
    assert report["error"] == "YoccozError"
    assert "pot_hi = 4.60517 and pot_lo = 10" in report["message"]
    assert not (tmp_path / "deep.svg").exists()


def test_qc_and_sobolev_commands(tmp_path):
    code, out = run_cli(["qc", "phi", "--depth", "3"], tmp_path)
    assert code == 0 and json.loads(out)["cells"] == 270
    code, out = run_cli(["qc", "phi", "--depth", "1000"], tmp_path)
    assert code == 0 and json.loads(out)["cells"] == 18 * (2**1001 - 1)

    code, out = run_cli(["qc", "diamond", "--grid", "64"], tmp_path)
    rep = json.loads(out)
    assert code == 0 and rep["max_dilatation"] <= 3.0

    code, out = run_cli(["qc", "strip", "--depth", "4"], tmp_path)
    rep = json.loads(out)
    assert code == 0 and rep["band_ok"]
    assert rep["band"][0] >= math.pi / 5 - 1e-9 and rep["band"][1] <= 4 * math.pi / 5 + 1e-9

    code, out = run_cli(["sobolev", "verify", "--depth", "2", "--trials", "2"], tmp_path)
    rep = json.loads(out)
    assert code == 0 and rep["violations"] == 0


# A child that caps its own address space, then runs the CLI: a build that
# outgrows the cap ends in that child with a MemoryError, not in the runner.
_CAPPED_CLI = """
import resource, sys
cap = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from yoccoz.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args", [["qc", "strip"], ["sobolev", "verify"]])
def test_depth_past_the_slit_bound_exits_1(args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *args, "--depth", "40"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    err = json.loads(proc.stdout)
    assert err["error"] == "ValueError"
    assert "2199023255551 slits" in err["message"] and "524287" in err["message"]


def test_trace_past_the_arc_bound_exits_1(tmp_path):
    """`tile --level 200` on 222/511: the critical piece's trace would hold
    2^23 arcs, and the count is refused before any arc is built."""
    lam = str(tmp_path / "lam9.json")
    assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                    "--depth", "8", "--out", lam], tmp_path)[0] == 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "tile", "--lam", lam,
                           "--level", "200"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    err = json.loads(proc.stdout)
    assert err["error"] == "ValueError"
    assert "8388608 arcs" in err["message"] and "MAX_TRACE_ARCS = 1048576" in err["message"]


@pytest.mark.parametrize("level,count", [(140, 1 << 17), (174, 1 << 20)])
def test_polygons_past_the_bound_exit_1(tmp_path, level, count):
    """`tile --level 140` and `174` on 222/511: the critical piece holds 2^17
    and 2^20 polygons, refused before any is pulled back (level 174 ended in a
    MemoryError inside sub_pieces, level 160 took 93 s and 885 MB).  At 174
    the refusal comes after tile has built the piece's 2^20-arc trace, so it
    needs between 280 and 300 MB of address space: the 512 MB cap leaves about
    200 MB of headroom."""
    lam = str(tmp_path / "lam9.json")
    assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                    "--depth", "8", "--out", lam], tmp_path)[0] == 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "tile", "--lam", lam,
                           "--level", str(level)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "ValueError",
        "message": f"the level-{level} gap of 111/511 holds {count} polygons, over the bound "
                   f"of MAX_POLYGONS = 65536 polygons"}


@pytest.mark.parametrize("args", [["tau", "--theta", "368/511", "--n", "100000000"],
                                  ["tau", "--theta", "CRITICAL", "--n", "100000000"],
                                  ["tile", "--level", "100000000"]])
def test_orbit_past_the_level_bound_exits_1(tmp_path, args):
    """An orbit record, and tau's CRITICAL list, hold O(level) Python lists:
    on 222/511 each of these ended in a MemoryError under the cap, and is now
    refused before any list is built."""
    lam = str(tmp_path / "lam9.json")
    assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                    "--depth", "8", "--out", lam], tmp_path)[0] == 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, args[0], "--lam", lam, *args[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "ValueError",
        "message": "level 100000000 is over the bound of MAX_ORBIT_LEVEL = 1048576 levels "
                   "of one orbit"}


@pytest.mark.parametrize("q,theta_v,depth,vertices,bits", [
    (20, "1/1044480", 18, 10485740, 1069545480),
    (1000000, "1/3", 0, 1000000, 1000064000000)])
def test_lamination_past_the_size_bound_exits_1(q, theta_v, depth, vertices, bits):
    """`lamination` at q = 20, depth 18 ended in a MemoryError inside
    _polygons_json under a 1 GB cap; at q = 10^6 the alpha cycle alone would
    hold 10^6 numerators of 10^6 bits.  Both are refused before either is built."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "lamination", "--p", "1",
                           "--q", str(q), "--theta-v", theta_v, "--depth", str(depth)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "ValueError",
        "message": f"the depth-{depth} lamination of q = {q} has {vertices} vertices, {bits} "
                   f"bits counted, over the bound of MAX_LAMINATION_BITS = 268435456 bits"}


def test_large_q_below_the_size_bound_builds_its_cycle(tmp_path):
    """q = 16000 at depth 0 is inside the bound: the build reaches the sector
    test, which refuses theta_v = 1/3."""
    code, out = run_cli(["lamination", "--p", "1", "--q", "16000", "--theta-v", "1/3",
                         "--depth", "0"], tmp_path)
    assert code == 1 and json.loads(out)["error"] == "InvalidThetaError"


def diamond_oracle(n):
    """`qc diamond`'s grid search: every point of every column, the first
    maximum of the shear dilatation kept."""
    worst, where = 0.0, None
    for i in range(-n + 1, n):  # diamond tips excluded: zero-size fibers
        x = i / n
        m = int((1 - abs(x)) * n)
        for j in range(-m, m + 1):
            y = (1 - abs(x)) * (j / m) if m else 0.0
            k = qc.shear_dilatation(abs(qc.DiamondToStrip.shear(x, y)))
            if k > worst:
                worst, where = k, (x, y)
    return worst, where


@pytest.mark.parametrize("grids", [range(1, 121), (256, 512)], ids=["1-120", "256,512"])
def test_qc_diamond_matches_the_grid_search(tmp_path, grids):
    """The report reads the first grid point of shear -1 (j = -m in the first
    column with m >= 1); the search over the whole grid finds the same float
    maximum at the same point."""
    for n in grids:
        code, out = run_cli(["qc", "diamond", "--grid", str(n)], tmp_path)
        rep = json.loads(out)
        worst, where = diamond_oracle(n)
        assert code == 0 and (rep["max_dilatation"], tuple(rep["at"])) == (worst, where), n


def test_qc_phi_deep_depth_from_one_block_per_level(tmp_path):
    """At depth 64 the atlas would hold about 6.6e20 cells; the report counts
    them in closed form and takes dilatations from one block per level.  The
    largest float differs from depth 3's in its last digit (the level-14
    block rounds up), as it would in the atlas, hence the 1e-12 tolerance."""
    import time

    shallow = json.loads(run_cli(["qc", "phi", "--depth", "3"], tmp_path)[1])
    t0 = time.perf_counter()
    code, out = run_cli(["qc", "phi", "--depth", "64"], tmp_path)
    assert code == 0 and time.perf_counter() - t0 < 2.0
    deep = json.loads(out)
    assert deep["cells"] == 18 * (2**65 - 1)
    assert deep["distinct_dilatations"] == shallow["distinct_dilatations"]
    assert abs(deep["max_dilatation"] - shallow["max_dilatation"]) < 1e-12

    code, out = run_cli(["qc", "phi", "--depth", "0"], tmp_path)
    assert code == 1 and json.loads(out)["error"] == "ValueError"


def test_certify_command(tmp_path):
    lam = str(tmp_path / "lam9.json")
    run_cli(
        ["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511", "--depth", "8",
         "--out", lam],
        tmp_path,
    )
    code, out = run_cli(["certify", "--lam", lam, "--samples", "2", "--depth", "34"], tmp_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["base_level"] == 2


@pytest.mark.parametrize("args", [
    ["qc", "diamond", "--grid", "0"], ["qc", "diamond", "--grid", "-4"],
    ["sobolev", "verify", "--trials", "0"], ["sobolev", "verify", "--trials", "-2"],
    ["certify", "--samples", "0"], ["certify", "--samples", "-3"],
])
def test_count_flags_below_one_exit_1(tmp_path, args):
    """A count below 1 would report on nothing: no diamond grid point, no
    trial, or CRITICAL certified alone."""
    if args[0] == "certify":
        lam = str(tmp_path / "lam9.json")
        assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                        "--depth", "8", "--out", lam], tmp_path)[0] == 0
        args = args[:1] + ["--lam", lam] + args[1:]
    code, out = run_cli(args, tmp_path)
    flag = args[-2].lstrip("-")
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": f"{flag} must be >= 1"}


@pytest.mark.parametrize("args", [["descendants", "--level", "3", "--budget", "-2"],
                                  ["descendants", "--budget", "-2"],
                                  ["descendants", "--budget", "-2", "--level", "-1"],
                                  ["renorm", "--budget", "-3"]])
def test_negative_budget_exits_1(tmp_path, args):
    """A negative budget searches nothing: without the check descendants
    listed none and renorm called a period-9 renormalizable lamination not
    renormalizable."""
    lam = str(tmp_path / "lam9.json")
    assert run_cli(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                    "--depth", "8", "--out", lam], tmp_path)[0] == 0
    code, out = run_cli(args[:1] + ["--lam", lam] + args[1:], tmp_path)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": "budget must be >= 0"}


@pytest.mark.parametrize("budget", ["0", "1", "20"])
@pytest.mark.parametrize("level", ["-1", "-7"])
def test_descendants_negative_level_exits_1(tmp_path, lam_json, level, budget):
    """A critical annulus A_n(0) has n >= 0: at budget 0 a negative level was
    reported as the base level of an empty descendant list."""
    code, out = run_cli(["descendants", "--lam", lam_json, "--level", level,
                         "--budget", budget], tmp_path)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": "level must be >= 0"}


def test_render_negative_level_exits_1(tmp_path, lam_json):
    """The level is refused before any ray is traced, so before a
    disconnected c (1, 0) is found."""
    out_path = tmp_path / "fig.svg"
    for c in ("-1,0", "1,0"):
        code, out = run_cli(["render", "--lam", lam_json, f"--c={c}", "--level", "-1",
                             "--out", str(out_path)], tmp_path)
        assert code == 1
        assert json.loads(out) == {"error": "ValueError", "message": "level must be >= 0"}
        assert not out_path.exists()


@pytest.mark.parametrize("c, level, pot", [("-1,0", "13", "0.000562155"),
                                         ("1,0", "13", "0.000562155"),
                                         ("-1,0", "14", "0.000281077")])
def test_render_level_below_the_ray_floor_exits_1(tmp_path, lam_json, c, level, pot):
    """At the default start radius 100, level 13 draws at a potential below
    the floor its rays stop at: the level is refused by name before any piece
    is enumerated or any ray traced, so before a disconnected c (1, 0) is
    found."""
    out_path = tmp_path / "fig.svg"
    code, out = run_cli(["render", "--lam", lam_json, f"--c={c}", "--level", level,
                         "--out", str(out_path)], tmp_path)
    assert code == 1
    assert json.loads(out) == {
        "error": "YoccozError",
        "message": f"level {level} draws at potential {pot}, at or below the ray floor "
                   f"RAY_FLOOR = 0.001"}
    assert not out_path.exists()


def test_render_writes_svg(tmp_path, lam_json):
    out_path = str(tmp_path / "fig.svg")
    code, _ = run_cli(
        ["render", "--lam", lam_json, "--c=-1,0", "--level", "2", "--out", out_path],
        tmp_path,
    )
    assert code == 0
    svg = Path(out_path).read_text()
    assert svg.startswith("<svg") and 'id="rays"' in svg and 'id="pieces"' in svg


@pytest.mark.parametrize("c", ["-1,0", "0.282,0.53"])
@pytest.mark.parametrize("q, theta_v", [(2, "2/5"), (3, "3/14")])
def test_render_level_0_draws_the_q_sectors(tmp_path, q, theta_v, c):
    """Level 0 is drawn at the level-1 potential, below the top of every ray
    window: one piece per sector of the alpha polygon."""
    lam_path, out_path = str(tmp_path / "lam.json"), str(tmp_path / "fig.svg")
    assert run_cli(["lamination", "--p", "1", "--q", str(q), "--theta-v", theta_v,
                    "--depth", "6", "--out", lam_path], tmp_path)[0] == 0
    code, out = run_cli(["render", "--lam", lam_path, f"--c={c}", "--level", "0",
                         "--out", out_path], tmp_path)
    assert code == 0 and out == out_path + "\n"
    pieces = Path(out_path).read_text().split('<g id="pieces">')[1].split("</g>")[0]
    assert pieces.count("<polygon") == q


# Longer than every report below, so a rewrite that kept the old tail shows.
STALE = "x" * 100_000


@pytest.mark.parametrize("args, flag", [
    (["lamination", "--p", "1", "--q", "3", "--theta-v", "3/14", "--depth", "4"], "--out"),
    (["qc", "phi", "--depth", "2"], "--report"),
])
def test_out_over_a_longer_file_holds_exactly_the_report(tmp_path, args, flag):
    """The file is rewritten in place and its old tail cut: afterwards it holds
    exactly what the command prints without the flag."""
    path = tmp_path / "old.json"
    path.write_text(STALE)
    code, plain = run_cli(args, tmp_path)
    assert code == 0
    assert run_cli(args + [flag, str(path)], tmp_path) == (0, f"{path}\n")
    assert path.read_text() == plain


def test_render_over_a_longer_file_holds_exactly_the_svg(tmp_path, lam_json):
    args = ["render", "--lam", lam_json, "--c=-1,0", "--level", "1", "--out"]
    fresh, old = tmp_path / "fresh.svg", tmp_path / "old.svg"
    old.write_text(STALE)
    assert run_cli(args + [str(fresh)], tmp_path) == (0, f"{fresh}\n")
    assert run_cli(args + [str(old)], tmp_path) == (0, f"{old}\n")
    assert old.read_bytes() == fresh.read_bytes()


def test_out_creates_a_new_file_with_the_umask_mode(tmp_path):
    path = tmp_path / "new.json"
    mask = os.umask(0o027)
    try:
        code, _ = run_cli(["tune", "--a0", "0", "--a1", "1", "--theta", "1/3",
                           "--out", str(path)], tmp_path)
    finally:
        os.umask(mask)
    assert code == 0 and path.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_out_is_never_opened_with_o_trunc(tmp_path, lam_json, monkeypatch):
    """On ext4 a truncate-to-zero rewrite starts writeback at close, and the
    next truncate of the same file waits for it: `--out` and `--report` go
    through one os.open without O_TRUNC."""
    out, real_open, flags = str(tmp_path / "out.txt"), os.open, []

    def spy(path, flag, *rest, **kw):
        if str(path) == out:
            flags.append(flag)
        return real_open(path, flag, *rest, **kw)

    monkeypatch.setattr(os, "open", spy)
    for args in (["lamination", "--p", "1", "--q", "2", "--theta-v", "2/5", "--depth", "2",
                  "--out", out],
                 ["render", "--lam", lam_json, "--c=-1,0", "--level", "0", "--out", out],
                 ["qc", "phi", "--depth", "1", "--report", out]):
        flags.clear()
        assert run_cli(args, tmp_path)[0] == 0
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC, args


def test_out_to_a_pipe_prints_the_report_then_the_path():
    """`--out /dev/stdout` read through a pipe: a pipe has no tail to cut (it
    cannot seek), so the report comes out whole, then the path, and exit 0."""
    cmd = [sys.executable, "-m", "yoccoz.cli", "tune", "--a0", "0", "--a1", "1",
           "--theta", "1/3"]
    plain = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    piped = subprocess.run(cmd + ["--out", "/dev/stdout"], capture_output=True, text=True,
                           timeout=60)
    assert plain.returncode == 0 and piped.returncode == 0, piped.stderr
    assert piped.stdout == plain.stdout + "/dev/stdout\n"


def test_config_file_and_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("renorm_budget = 12\n# comment\n")
    code, out = run_cli(["--config", str(cfgfile), "tune", "--a0", "0", "--a1", "1",
                         "--theta", "1/3"], tmp_path)
    assert code == 0
    assert json.loads(out)["config"]["renorm_budget"] == 12

    cfgfile.write_text("not_a_key = 5\n")
    code, out = run_cli(["--config", str(cfgfile), "tune", "--a0", "0", "--a1", "1",
                         "--theta", "1/3"], tmp_path)
    assert code == 1
    assert "unknown config key" in json.loads(out)["message"]


FLOAT_KEYS = [f.name for f in fields(Config) if isinstance(getattr(Config(), f.name), float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_floats(tmp_path, key, value):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    code, out = run_cli(["--config", str(cfgfile), "tune", "--a0", "0", "--a1", "1",
                         "--theta", "1/3"], tmp_path)
    err = json.loads(out)
    assert code == 1 and err["error"] == "ValueError" and key in err["message"]


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "yoccoz.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("lamination", "tau", "descendants", "tile", "certify", "renorm",
                 "tune", "trace", "render", "qc", "sobolev"):
        assert name in proc.stdout


def test_model_report_script_runs(tmp_path):
    """scripts/model_report.py at a small size: it calls the qcmodel, sobolev
    and render functions by their keyword parameters, so it fails if one it
    uses is removed."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "model_report.py"),
                           "--depth", "2", "--trials", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["slit_energy"]["trials"] == 1 and report["slit_energy"]["violations"] == 0
    assert (tmp_path / "model_squares.svg").read_text().startswith("<svg")
