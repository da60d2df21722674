"""The yoccoz command line: lamination, tau, descendants, tile, certify,
renorm, tune, trace, render, qc {phi,diamond,strip}, sobolev verify.

Exit codes: 0 success, 1 computation error (JSON error object on stdout),
2 usage error.  Reports embed the config, package version, and the evidence
depths/budgets they were computed with, and are byte-stable for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from math import gcd, isfinite

from . import __version__
from .angles import Angle, normalize
from .config import Config, load_config
from .errors import Case1DegenerateError, YoccozError


def _angle(text: str) -> Angle:
    if "/" in text:
        num, den = text.split("/", 1)
        return normalize(int(num), int(den))
    return normalize(int(text), 1)


def _complex(text: str) -> complex:
    re, im = (float(t) for t in text.split(","))
    return complex(re, im)


def _emit(report: dict, out: str | None):
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


def _write(text: str, out: str | None):
    """Rewrite `out` in place: no O_TRUNC at open, the old tail cut after the
    write. On ext4 (auto_da_alloc) a truncate-to-zero rewrite starts writeback
    at close, and the next truncate of that file waits for it."""
    if out:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if fh.seekable():  # a pipe or /dev/stdout has no tail to cut
                fh.truncate()
        print(out)
    else:
        sys.stdout.write(text)


def _report(cfg: Config, **payload) -> dict:
    return {"version": __version__, "config": asdict(cfg), **payload}


_LAM_KEYS = {"p": int, "q": int, "depth": int, "theta_v": str}


def _load_lam(path: str):
    """Rebuild a stored lamination and check that the file holds exactly what
    `lamination` would write for it."""
    from .lamination import build

    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise YoccozError(f"{path}: not a JSON lamination file: {exc}") from None
    if not isinstance(data, dict) or any(type(data.get(k)) is not t for k, t in _LAM_KEYS.items()):
        raise YoccozError(f"{path}: a lamination file is an object with integer p, q and "
                          "depth and a string theta_v")
    try:
        lam = build(data["p"], data["q"], _angle(data["theta_v"]), data["depth"])
    except ValueError as exc:
        raise YoccozError(f"{path}: stored lamination cannot be rebuilt: {exc}") from None
    if any(data.get(key) != value for key, value in _lam_payload(lam).items()):
        raise YoccozError(f"{path}: stored lamination disagrees with the rebuild")
    return lam


def _lam_payload(lam) -> dict:
    den = lam.layer_den(lam.depth)
    reduced = cache(lambda g: str(den // g))  # q-bit decimals, one per distinct gcd g
    top = [[f"{n // (g := gcd(n, den))}/{reduced(g)}" for n in verts] for verts in lam.layers[-1]]
    return {
        "p": lam.p,
        "q": lam.q,
        "theta_v": str(lam.theta_v),
        "depth": lam.depth,
        "sector": [str(lam.sector[0]), str(lam.sector[1])],
        "critical_leaf": [str(lam.critical_leaf[0]), str(lam.critical_leaf[1])],
        # layer j is the first 2^j polygons of the top layer (Lamination.layers)
        "polygons": [top[:1 << j] for j in range(lam.depth + 1)],
    }


# The `polygons` key of a lamination report as `json.dumps(indent=2)` writes
# it. A newline and two spaces precede only top-level keys: no string value
# holds a raw newline, so the key occurs once.
_POLYGONS_KEY = '\n  "polygons": '


def _polygons_json(top, depth: int) -> str:
    """The polygon layers, layer j the first 2^j polygons of `top`, as
    `json.dumps(indent=2)` writes them at key depth 1. A vertex string holds
    only digits and "/", so none needs escaping; each polygon is joined once."""
    blocks = ['[\n        "' + '",\n        "'.join(verts) + '"\n      ]' for verts in top]
    return "[\n    " + ",\n    ".join(
        "[\n      " + ",\n      ".join(blocks[:1 << j]) + "\n    ]" for j in range(depth + 1)
    ) + "\n  ]"


# ---------------------------------------------------------------- commands


def cmd_lamination(args, cfg):
    from .lamination import build

    lam = build(args.p, args.q, args.theta_v, args.depth)
    payload = _lam_payload(lam)
    polygons = payload.pop("polygons")
    text = json.dumps(_report(cfg, polygons="", **payload), indent=2, sort_keys=True) + "\n"
    placeholder = _POLYGONS_KEY + '""'
    assert text.count(placeholder) == 1
    _write(text.replace(placeholder, _POLYGONS_KEY + _polygons_json(polygons[-1], lam.depth)),
           args.out)


def cmd_tau(args, cfg):
    from .puzzle import CRITICAL, tau_sequence

    lam = _load_lam(args.lam)
    theta = CRITICAL if args.theta == "CRITICAL" else _angle(args.theta)
    values = tau_sequence(lam, theta, args.n)
    _emit(_report(cfg, theta=str(theta), n=args.n, tau=values), args.out)


def cmd_descendants(args, cfg):
    from .errors import NotFoundWithinBudgetError
    from .puzzle import descendant_levels, first_nondegenerate, fraternal_descendants

    lam = _load_lam(args.lam)
    if args.budget < 0:
        raise ValueError("budget must be >= 0")
    if args.level is not None and args.level < 0:
        raise ValueError("level must be >= 0")
    level = args.level if args.level is not None else first_nondegenerate(lam, args.budget)
    levels = descendant_levels(lam, level, args.budget)
    payload = {"base_level": level, "budget": args.budget,
               "descendants": [{"level": m, "degree": d} for m, d in levels]}
    try:
        payload["fraternal"] = list(fraternal_descendants(lam, level, args.budget))
    except NotFoundWithinBudgetError as exc:
        payload["fraternal"] = None
        payload["fraternal_error"] = str(exc)
    _emit(_report(cfg, **payload), args.out)


def cmd_tile(args, cfg):
    from .lamination import build
    from .tiling import tile, trivial_case, trivial_tiling

    def emit_trivial(t):
        _emit(_report(cfg, case=t.case.kind, evidence=t.case.evidence_depth, L=t.L,
                      tiles=[{"level": args.level, "whole_piece": True}], residual=[]), args.out)

    if args.lam:
        lam = _load_lam(args.lam)
    else:
        if args.p is None or args.q is None or args.theta_v is None:
            raise ValueError("tile needs either --lam or all of --p/--q/--theta-v")
        try:
            lam = build(args.p, args.q, args.theta_v, cfg.lamination_depth)
        except Case1DegenerateError as exc:  # its step is the entry step
            return emit_trivial(trivial_tiling(trivial_case(exc.step), args.level))
    max_tile_level = cfg.max_tile_level if args.max_tile_level is None else args.max_tile_level
    t = tile(lam, args.level, max_tile_level, search_budget=cfg.search_budget)
    if t.case.kind == "TrivialCase1":
        return emit_trivial(t)
    _emit(_report(cfg, case=t.case.kind, evidence=t.case.evidence_depth, L=t.L,
                  base_level=t.base_level, fraternal=t.fraternal,
                  residual_params=list(t.residual_params), unresolved=t.unresolved,
                  max_tile_level=t.max_tile_level,
                  tiles=[{"level": s.level,
                          "boundary": [[str(a), str(b)] for a, b in s.boundary]}
                         for s in t.tiles]), args.out)


def cmd_certify(args, cfg):
    from .puzzle import CRITICAL
    from .tiling import build_certificate, case3_level, verify_certificate

    lam = _load_lam(args.lam)
    if args.depth < 0:
        raise ValueError("depth must be >= 0")
    N, fr, L = case3_level(lam, cfg.search_budget)
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    thetas = [CRITICAL]
    if args.samples > 1:
        p = L + 1
        if args.depth < p:  # residual_member refuses it, and _residual_samples swallows that
            raise ValueError(f"certify --depth {args.depth} tests no residual sample: "
                             f"it must be >= p = {p}, the level of the sampled piece")
        thetas += _residual_samples(lam, p, L, args.depth, args.samples - 1, cfg.seed)
    cert = build_certificate(lam, N, fr, thetas, args.depth)
    rep = verify_certificate(lam, cert)
    _emit(_report(cfg, base_level=N, fraternal=list(fr), depth=args.depth,
                  entries=[{"theta": str(e.theta),
                            "annuli": [{"n": a.n, "tau_level": a.tau_level, "class": a.cls}
                                       for a in e.annuli]} for e in cert.entries],
                  ok=rep.ok, violations=rep.violations, class_counts=rep.class_counts,
                  warning=rep.warning), args.out)


def _residual_samples(lam, p, L, depth, count, seed):
    import random

    from .angles import arc_point
    from .puzzle import critical_piece
    from .tiling import ResidualStatus, residual_member

    rng = random.Random(seed)
    arcs = critical_piece(lam, p).boundary
    out = []
    for _ in range(400 * count):
        if len(out) >= count:
            break
        a, b = arcs[rng.randrange(len(arcs))]
        t = arc_point(a, b, Fraction(rng.randrange(1, 1 << 16), 1 << 16))
        try:
            if residual_member(lam, t, p, L, depth) is ResidualStatus.IN_R_TO_DEPTH:
                out.append(t)
        except (YoccozError, ValueError):
            continue
    return out


def cmd_renorm(args, cfg):
    from .renorm import detect

    lam = _load_lam(args.lam)
    budget = cfg.renorm_budget if args.budget is None else args.budget
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rep = detect(lam, budget)
    _emit(_report(cfg, renormalizable=rep.renormalizable, period=rep.period,
                  witness_level=rep.witness_level, kind=rep.kind, budget=rep.budget), args.out)


def cmd_tune(args, cfg):
    from .renorm import angle_to_expansion, tune

    theta = _angle(args.theta)
    exp = tune(args.a0, args.a1, angle_to_expansion(theta))
    _emit(_report(cfg, a0=args.a0, a1=args.a1, theta=str(theta),
                  expansion=str(exp), angle=str(exp.to_angle())), args.out)


def _write_json_atomic(path: str, obj) -> None:
    """Write through a temp file in the same directory and os.replace it into
    place, so no reader ever sees a partly written cache file."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_RAY_KEYS = {"c", "theta", "points", "residuals"}


def _read_cached_ray(path: str, c: str, theta: str) -> dict | None:
    """The cached ray R(theta) of c, or None on a miss: no file, or one that
    is not JSON or not that ray, with one residual per point of three finite
    floats (the ray is then traced again and written over it)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (isinstance(payload, dict) and payload.keys() == _RAY_KEYS
            and payload["c"] == c and payload["theta"] == theta):
        return None
    points, residuals = payload["points"], payload["residuals"]
    if (isinstance(points, list) and isinstance(residuals, list)
            and len(points) == len(residuals)
            and all(isinstance(p, list) and len(p) == 3
                    and all(type(x) is float and isfinite(x) for x in p) for p in points)):
        return payload
    return None


def cmd_trace(args, cfg):
    """The cache holds the ray, keyed on everything that shapes it; the report
    around it is rebuilt from the current run's config on every hit."""
    from .geometry import ESCAPE_ITERS, ESCAPE_RADIUS, MAX_SUBDIVIDE, NEWTON_TOL, trace_ray

    key = "|".join(str(v) for v in (args.c, args.theta, cfg.start_radius, cfg.steps_per_halving,
                                    cfg.newton_cap, NEWTON_TOL, MAX_SUBDIVIDE, ESCAPE_RADIUS,
                                    ESCAPE_ITERS, cfg.pot_lo))
    cache_dir = cfg.resolved_cache_dir()
    cache_file = os.path.join(cache_dir, hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
    payload = _read_cached_ray(cache_file, args.c, args.theta)
    if payload is None:
        ray = trace_ray(_complex(args.c), _angle(args.theta), pot_lo=cfg.pot_lo, cfg=cfg)
        payload = {"c": args.c, "theta": args.theta,
                   "points": [[z.real, z.imag, t] for z, t in ray.points],
                   "residuals": ray.residuals}
        _write_json_atomic(cache_file, payload)
    _emit(_report(cfg, **payload), args.out)


def cmd_render(args, cfg):
    from .render import render_puzzle

    lam = _load_lam(args.lam)
    svg = render_puzzle(_complex(args.c), lam, args.level, highlight_annulus=args.annulus, cfg=cfg)
    _write(svg, args.out or "yoccoz.svg")


def cmd_qc(args, cfg):
    from . import qcmodel as qc

    if args.what == "phi":
        model = qc.PhiModel(args.depth)
        dil = model.dilatations()
        _emit(_report(cfg, depth=args.depth, cells=model.cell_count, max_dilatation=max(dil),
                      distinct_dilatations=sorted(set(round(d, 12) for d in dil))), args.out)
    elif args.what == "diamond":
        n = args.grid
        if n < 1:
            raise ValueError("grid must be >= 1")
        # column x = i/n holds the points y = (1 - |x|) j/m, |j| <= m = int((1 - |x|) n),
        # of shear s = j/m; the dilatation grows with |s|, so the grid's first
        # maximum is j = -m (s = -1) in the first column with m >= 1
        for i in range(-n + 1, n):  # diamond tips excluded: zero-size fibers
            x = i / n
            if int((1 - abs(x)) * n):
                break
        y = -(1 - abs(x))
        worst = qc.shear_dilatation(abs(qc.DiamondToStrip.shear(x, y)))
        _emit(_report(cfg, grid=n, max_dilatation=worst, at=(x, y), bound=3.0), args.out)
    else:  # strip
        model = qc.strip_model(args.depth)  # raises where the band fails
        import math

        _emit(_report(cfg, depth=args.depth, slits=len(model.slits),
                      band=[min(s.im_lo for s in model.slits), max(s.im_hi for s in model.slits)],
                      band_target=[math.pi / 5, 4 * math.pi / 5], band_ok=True,
                      closure_ratio=model.closure_ratio), args.out)


def cmd_sobolev(args, cfg):
    from . import qcmodel as qc
    from .sobolev import verify_slitbounds

    model = qc.strip_model(args.depth)
    rep = verify_slitbounds(model, trials=args.trials, seed=cfg.seed,
                            T=cfg.strip_window, ny=cfg.grid_ny)
    _emit(_report(cfg, depth=args.depth, trials=rep.trials, skipped=rep.skipped,
                  violations=rep.violations, b_proof_sq=rep.b_proof_sq,
                  b_proof_parts=rep.b_proof_parts, max_ratio_sq=rep.max_ratio,
                  max_squeeze=rep.max_squeeze), args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="yoccoz", description=__doc__)
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--seed", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lamination", help="build the alpha-cycle pullback lamination")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta-v", dest="theta_v", type=_angle, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lamination)

    p = sub.add_parser("tau", help="tau sequence of an angle (or CRITICAL)")
    p.add_argument("--lam", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("descendants", help="descendants of a critical annulus")
    p.add_argument("--lam", required=True)
    p.add_argument("--level", type=int)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_descendants)

    p = sub.add_parser("tile", help="greedy tiling of a critical piece")
    p.add_argument("--lam", help="lamination JSON (or give --p/--q/--theta-v)")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--theta-v", dest="theta_v", type=_angle)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-tile-level", dest="max_tile_level", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tile)

    p = sub.add_parser("certify", help="surrounding-annuli certificate")
    p.add_argument("--lam", required=True)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("renorm", help="combinatorial renormalization detector")
    p.add_argument("--lam", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_renorm)

    p = sub.add_parser("tune", help="tuning substitution on binary expansions")
    p.add_argument("--a0", required=True)
    p.add_argument("--a1", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("trace", help="trace one external ray")
    p.add_argument("--c", required=True, help="RE,IM")
    p.add_argument("--theta", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("render", help="SVG of the puzzle at one level")
    p.add_argument("--lam", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--annulus", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("qc", help="quasiconformal model reports")
    p.add_argument("what", choices=["phi", "diamond", "strip"])
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--report", dest="out")
    p.set_defaults(fn=cmd_qc)

    p = sub.add_parser("sobolev", help="slit-strip energy verification")
    p.add_argument("what", choices=["verify"])
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sobolev)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, for callers that run `main` many times (the
    benchmark, the tests): building it takes milliseconds."""
    return build_parser()


def main(argv=None) -> int:
    # A q-bit angle has about 0.3·q decimal digits: lift CPython's limit on
    # integer-string conversion (4300 digits by default) for this run only.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        overrides = {"seed": args.seed} if args.seed is not None else {}
        cfg = load_config(args.config, overrides)
        args.fn(args, cfg)
        return 0
    except (YoccozError, ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Case1DegenerateError):
            error["step"] = exc.step
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
