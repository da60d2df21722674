"""Answer checks for every step kind.

``check`` returns the list of invariant violations of one step's report; the
invariants hold for any seed.  ``answer`` extracts the mathematical fields of
a report (no config echo, no raw bytes), which is what the seed-0 reference
file stores, so a report key added later does not break the comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET

# distinct per-cell dilatations of the depth-3 phi atlas; every depth shares
# them because the cells are similarity conjugates of one canonical block
PHI_DILATATIONS = [1.333333333333, 2.222222222222, 2.61803398875, 6.85410196625]
SVG_LAYERS = ("equipotentials", "rays", "pieces")
MODULUS_REL_TOL = 0.05
SQUEEZE_BOUND = 5.0
FLOAT_REL_TOL = 1e-6  # reference comparison of float fields (BLAS/libm may differ)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _power_of_two(d) -> bool:
    return isinstance(d, int) and d >= 1 and d & (d - 1) == 0


def svg_summary(text: str) -> dict:
    """Layer name -> element count of a rendered SVG (raises if it does not parse)."""
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != ns + "svg":
        raise ValueError(f"root element is {root.tag}")
    return {g.get("id"): len(list(g)) for g in root.iter(ns + "g")}


def check(kind: str, rep: dict, step_info: dict) -> list[str]:
    """Violations of the invariants of one successful step (empty: correct)."""
    bad = []
    if kind == "lamination":
        layers = rep["polygons"]
        if len(layers) != rep["depth"] + 1:
            bad.append("wrong number of polygon layers")
        for j, layer in enumerate(layers):
            if len(layer) != 1 << j or sum(len(p) for p in layer) != rep["q"] << j:
                bad.append(f"layer {j} has {len(layer)} polygons")
                break
    elif kind == "descendants":
        levels = [d["level"] for d in rep["descendants"]]
        if any(not _power_of_two(d["degree"]) for d in rep["descendants"]):
            bad.append("a descendant degree is not a power of two")
        if levels != sorted(set(levels)) or any(
                not rep["base_level"] < m <= rep["base_level"] + rep["budget"] for m in levels):
            bad.append("descendant levels out of order or range")
        if rep.get("fraternal") and not set(rep["fraternal"]) <= set(levels):
            bad.append("fraternal pair is not a pair of descendant levels")
    elif kind == "renorm":
        if rep["renormalizable"]:
            q = step_info["q"]
            if (rep["kind"] == "satellite") != (rep["period"] == q):
                bad.append(f"kind {rep['kind']} with period {rep['period']} in a q={q} limb")
        elif rep["period"] is not None:
            bad.append("non-renormalizable report carries a period")
    elif kind == "tau":
        tau = rep["tau"]
        if len(tau) != rep["n"] + 1:
            bad.append("tau sequence has the wrong length")
        if any(v < -1 or v > n for n, v in enumerate(tau)):
            bad.append("tau value out of [-1, n]")
        if any(b > a + 1 for a, b in zip(tau, tau[1:])):
            bad.append("tau is not rise-and-drop")
        if tau[:step_info["piece_level"] + 1] != list(range(step_info["piece_level"] + 1)):
            bad.append("angle is not in the critical piece it was drawn from")
    elif kind == "certify":
        if not rep["ok"] or rep["violations"]:
            bad.append(f"certificate not ok: {rep['violations'][:2]}")
    elif kind == "trace":
        pots = [p[2] for p in rep["points"]]
        if len(pots) < 2 or any(b >= a for a, b in zip(pots, pots[1:])):
            bad.append("ray potentials do not decrease")
        if not all(math.isfinite(r) for r in rep["residuals"]):
            bad.append("non-finite ray residual")
    elif kind == "render":
        layers = rep["layers"]
        if any(layers.get(name, 0) == 0 for name in SVG_LAYERS):
            bad.append(f"svg layers {layers}")
    elif kind == "sobolev":
        if rep["violations"] != 0 or rep["max_squeeze"] > SQUEEZE_BOUND:
            bad.append(f"violations {rep['violations']}, squeeze {rep['max_squeeze']}")
    elif kind == "phi":
        d = rep["depth"]
        if rep["cells"] != 18 * ((1 << (d + 1)) - 1):
            bad.append(f"{rep['cells']} cells at depth {d}")
        if rep["distinct_dilatations"] != PHI_DILATATIONS:
            bad.append("dilatation set differs from the depth-3 set")
    elif kind == "strip":
        lo, hi = rep["band"]
        if not rep["band_ok"] or lo < math.pi / 5 - 1e-9 or hi > 4 * math.pi / 5 + 1e-9:
            bad.append(f"slit band {rep['band']}")
    elif kind == "diamond":
        if rep["max_dilatation"] > rep["bound"]:
            bad.append(f"diamond dilatation {rep['max_dilatation']}")
    elif kind == "modulus":
        exact = math.log(rep["R"] / rep["r"]) / (2 * math.pi)
        if not abs(rep["value"] - exact) <= MODULUS_REL_TOL * exact:
            bad.append(f"modulus {rep['value']} vs {exact}")
    else:
        raise KeyError(kind)
    return bad


def answer(kind: str, rep: dict) -> dict:
    """The mathematical fields of a report (or of an exit-1 error object)."""
    if "error" in rep:
        return {"error": rep["error"], **({"step": rep["step"]} if "step" in rep else {})}
    if kind == "lamination":
        return {"sector": rep["sector"], "critical_leaf": rep["critical_leaf"],
                "polygons": _digest(rep["polygons"])}
    if kind == "descendants":
        return {k: rep.get(k) for k in ("base_level", "descendants", "fraternal")}
    if kind == "renorm":
        return {k: rep[k] for k in ("renormalizable", "period", "witness_level", "kind")}
    if kind == "tau":
        return {"theta": rep["theta"], "tau": rep["tau"]}
    if kind == "certify":
        return {k: rep[k] for k in ("base_level", "fraternal", "entries", "ok", "violations")}
    if kind == "trace":
        pts = rep["points"]
        return {"points": len(pts), "first": pts[0], "last": pts[-1],
                "max_residual": max(rep["residuals"])}
    if kind == "render":
        return {"layers": rep["layers"]}
    if kind == "sobolev":
        return {k: rep[k] for k in ("trials", "skipped", "violations", "b_proof_sq",
                                    "max_ratio_sq", "max_squeeze")}
    if kind == "phi":
        return {k: rep[k] for k in ("cells", "max_dilatation", "distinct_dilatations")}
    if kind == "strip":
        return {k: rep[k] for k in ("slits", "band", "band_ok", "closure_ratio")}
    if kind == "diamond":
        return {k: rep[k] for k in ("max_dilatation", "at")}
    if kind == "modulus":
        return {"value": rep["value"]}
    raise KeyError(kind)


def same_answer(a, b) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_answer(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_answer(x, y) for x, y in zip(a, b))
    return a == b
