#!/usr/bin/env python3
"""One SHA-256 over a benchmark workload's set-up fixture laminations and its
seed-0 traced prefix: every step's exit code, stdout and ``--out`` file, to
check that a change keeps the command line's output byte-identical.  Run from
the repository root:

    python3 scripts/prefix_digest.py scan

The jobs are perfbench/run.py's own (its ``setup`` and ``run_job``), the
first ``run.TRACE_JOBS[workload]`` of seed ``run.DEFAULT_SEED``, run in a
fresh temporary work directory; the directory's path, which the ``--out``
echo prints, is masked before hashing.  Only perfbench/ is read, nothing in
it written.
"""

import argparse
import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import run  # noqa: E402  perfbench/run.py

MASK = b"<work>"


def _out_path(argv) -> str | None:
    return argv[argv.index("--out") + 1] if argv and "--out" in argv else None


def digest(workload: str) -> str:
    workdir = tempfile.mkdtemp(prefix="prefix-digest-")
    h = hashlib.sha256()

    def put(data: bytes):
        data = data.replace(workdir.encode(), MASK)
        h.update(len(data).to_bytes(8, "big") + data)

    try:
        work, stream = run.setup(workload, run.DEFAULT_SEED, workdir)
        # the fixture files (case3.json, half.json, rabbit.json) that set-up
        # writes through `lamination --out`, read before any job runs
        for name in sorted(run.workloads.FIXTURES[workload]):
            with open(work[name], "rb") as fh:
                put(fh.read())
        for i in range(run.TRACE_JOBS[workload]):
            job = stream[i]
            # a job writes at most one --out file, and a later job may
            # overwrite it, so each job's files are read right after it
            for step, r in zip(job.steps, run.run_job(job).steps):
                put(f"{step.kind} {r.code} {r.error}".encode())
                put(r.out.encode())
                out = _out_path(step.argv)
                if out is not None and os.path.isfile(out):
                    with open(out, "rb") as fh:
                        put(fh.read())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(run.TRACE_JOBS))
    args = ap.parse_args(argv)
    print(f"{args.workload} seed {run.DEFAULT_SEED} jobs {run.TRACE_JOBS[args.workload]} "
          f"{digest(args.workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
