#!/usr/bin/env python3
"""One-shot report over the quasiconformal model maps: block dilatation, the
lazy phi model across depths, the diamond shear bound, the strip slit band, the
square-extension dilatation, and a short slit-energy verification run.
Writes model_squares.svg next to the JSON-ish console output.

    python scripts/model_report.py [--depth 4] [--trials 5]
"""

import argparse
import json
import math
import sys

sys.path.insert(0, "src")

from yoccoz import qcmodel as qc
from yoccoz import sobolev as sb
from yoccoz.render import render_model_squares


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--trials", type=int, default=5)
    args = ap.parse_args()

    out = {}
    out["block_dilatation"] = qc.BLOCK_DILATATION
    a_lo, a_hi = qc.PhiModel(3), qc.PhiModel(args.depth + 3)
    out["phi"] = {
        "cells": [a_lo.cell_count, a_hi.cell_count],
        "max_dilatation": [a_lo.max_dilatation(), a_hi.max_dilatation()],
        "distinct_values": sorted(set(round(v, 12) for v in a_hi.dilatations())),
    }
    out["diamond"] = {
        "shear_bound": 3.0,
        "max_at_edge": qc.shear_dilatation(1.0),
        "expected": (3 + math.sqrt(5)) / 2,
    }
    model = qc.strip_model(args.depth)
    out["strip"] = {
        "slits": len(model.slits),
        "band": [min(s.im_lo for s in model.slits), max(s.im_hi for s in model.slits)],
        "target": [math.pi / 5, 4 * math.pi / 5],
        "closure_ratio": model.closure_ratio,
    }
    out["psi"] = qc.psi_dilatation_report(1)
    rep = sb.verify_slitbounds(model, trials=args.trials, seed=0)
    out["slit_energy"] = {
        "trials": rep.trials,
        "violations": rep.violations,
        "b_proof_sq": rep.b_proof_sq,
        "max_ratio_sq": rep.max_ratio,
        "max_squeeze": rep.max_squeeze,
    }
    with open("model_squares.svg", "w") as fh:
        fh.write(render_model_squares(args.depth))
    out["svg"] = "model_squares.svg"
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
