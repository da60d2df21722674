#!/usr/bin/env python3
"""Check that the per-layer work counts repeat exactly for one seed.

    python3 perfbench/repeat_counts.py --workload deep --seed 1

Runs two traced runs and compares every metric that is not a time or a
throughput.  Exit 0 when all of them are equal, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
TIMED_UNITS = {"s", "1/s"}
TIMED_NAMES = {"bench.self_s_coverage"}  # a ratio of times


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--trace", "1"],
                         capture_output=True, text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    a, b = (traced_metrics(args.workload, args.seed) for _ in range(2))
    counts = [k for k, v in a.items() if v["unit"] not in TIMED_UNITS and k not in TIMED_NAMES]
    differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
    for k in differ:
        print(f"{k}: {a[k]['value']} != {b[k]['value']}")
    print(f"{args.workload} seed {args.seed}: {len(counts) - len(differ)} of {len(counts)} "
          f"counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
