#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``yoccoz`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

One process replays a seeded stream of jobs (closed loop, one client, no
threads) through ``yoccoz.cli.main(argv)`` for ``--seconds`` seconds, checks
every answer, and prints a run record, one line per metric (name, value,
unit) and, as the last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` replays a fixed number of jobs twice, once
plain and once with every layer wrapped, and reports the per-layer metrics.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # pinned before numpy can load a BLAS
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

import oracle
import workloads
from tracer import TARGETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 10  # fresh set-up processes per run, half before and half after the timed phase
TAIL_BEYOND = 10  # job_s.tail: the latency with exactly this many jobs beyond it
# Machine-speed normalisation.  On a shared host the speed of one fixed piece
# of Python swings by up to 30% between windows of a few seconds, and the
# swings last long enough that a 35 s run does not average them out.  So a
# short fixed integer loop is timed after every job (and around every set-up
# process), and each wall time is multiplied by the loop's speed around it
# over REF_RATE: timings are "reference seconds", equal to wall seconds when
# the host runs the loop at REF_RATE.  The loop does not touch the package,
# so a change to the program moves the timings exactly as it moves the wall
# times at a fixed machine speed.  The raw wall times stay in the run record.
CALIB_S = 0.03  # length of one speed sample
REF_RATE = 6000.0  # loop iterations per second, about its median on a busy 2-core x86 KVM guest
# A traced run replays this fixed job prefix, so its counts repeat exactly.
# Each is a whole number of the workload's stratum blocks (workloads.py):
# scan one q x angle-size block, deep two level blocks, numeric two blocks of
# its 12 size combinations.  A 35 s timed run completes about 115 scan, 56 deep
# and 28 numeric jobs on a 2-core x86 KVM guest; the prefixes are smaller
# because a traced run replays them twice.  Set-up generates this prefix; a
# timed run extends the stream lazily beyond it.
TRACE_JOBS = {"scan": 52, "deep": 40, "numeric": 24}
REFERENCE_JOBS = {"scan": 40, "deep": 6, "numeric": 4}
# Known defects kept out of the timed streams, measured by the traced run
PROBE_LEVELS = (25, 4096)  # deep: descendants --level search range
PROBE_LIMBS = ((1, 2), (1, 3), (2, 5), (1, 4))  # scan: limbs of the late-landing angles
PROBE_STEPS = range(9, 13)  # ... which first meet the alpha cycle after 9..12 doublings
MODULES = {  # what each workload's commands import, lazily imported ones too
    "scan": ("yoccoz.cli", "yoccoz.lamination", "yoccoz.puzzle", "yoccoz.renorm"),
    "deep": ("yoccoz.cli", "yoccoz.lamination", "yoccoz.puzzle", "yoccoz.tiling"),
    "numeric": ("yoccoz.cli", "yoccoz.lamination", "yoccoz.puzzle", "yoccoz.geometry",
                "yoccoz.render", "yoccoz.sobolev", "yoccoz.plgeom", "yoccoz.qcmodel",
                "scipy.sparse.linalg"),
}


# ------------------------------------------------------------------ set-up


def setup(workload: str, seed: int, workdir: str):
    """Imports, fixture laminations written through the CLI, a fresh trace
    cache directory, and the job list: everything before the first job."""
    import importlib

    for name in MODULES[workload]:
        importlib.import_module(name)
    from yoccoz import cli

    work = {"scan_lam": os.path.join(workdir, "scan.json"),
            "svg": os.path.join(workdir, "render.svg")}
    for name, (p, q, theta_v, depth) in workloads.FIXTURES[workload].items():
        path = os.path.join(workdir, f"{name}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["lamination", "--p", str(p), "--q", str(q), "--theta-v", theta_v,
                             "--depth", str(depth), "--out", path])
        if code != 0:
            raise RuntimeError(f"fixture {name} could not be written (exit {code})")
        work[name] = path
    fresh_cache(workdir)
    return work, workloads.JobStream(workload, seed, work, TRACE_JOBS[workload])


def _calib_loop() -> int:
    x = 1
    for i in range(2000):
        x = (x * 5 + i) % 1000003
    return x


def machine_speed() -> float:
    """Speed of the calibration loop over CALIB_S seconds, as a share of REF_RATE."""
    n = 0
    t0 = time.perf_counter()
    while True:
        _calib_loop()
        n += 1
        t = time.perf_counter() - t0
        if t >= CALIB_S:
            return n / t / REF_RATE


def fresh_cache(workdir: str):
    os.environ["YOCCOZ_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-", dir=workdir)


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(wall time, machine speed) of fresh processes that start, set up and
    exit; the speed is sampled just before and just after each process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(repeats):
        before = machine_speed()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - t0
        out.append((wall, (before + machine_speed()) / 2))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return out


# ------------------------------------------------------------------- jobs


@dataclass
class StepResult:
    kind: str
    code: object = None  # exit code, or None when the step raised
    error: str = ""  # exception class (raised) or JSON error class (exit 1)
    out: str = ""
    cache_hit: bool | None = None


@dataclass
class JobResult:
    index: int
    latency: float  # wall seconds
    steps: list = field(default_factory=list)
    failed: bool = False
    incorrect: bool = False
    reasons: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    speed: float = 1.0  # machine speed around the job (timed runs only)


def run_step(step) -> StepResult:
    res = StepResult(step.kind)
    if step.call is not None:  # the modulus: a library call, no subcommand exists
        from yoccoz import geometry

        c = step.call
        try:
            value = geometry.modulus_estimate(geometry.round_annulus_mask(c["r"], c["R"], c["h"]))
            res.code, res.out = 0, json.dumps({**c, "value": value})
        except Exception as exc:  # recorded as a failed step; the run goes on
            res.error = type(exc).__name__
        return res
    from yoccoz import cli

    cache = os.environ["YOCCOZ_CACHE_DIR"] if step.kind == "trace" else None
    before = len(os.listdir(cache)) if cache and os.path.isdir(cache) else 0
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            res.code = cli.main(step.argv)
    except SystemExit as exc:  # argparse usage errors
        res.code, res.error = exc.code, "SystemExit"
    except Exception as exc:  # RecursionError, MemoryError, ...: a failed step
        res.error = type(exc).__name__
    res.out = buf.getvalue()
    if cache:
        res.cache_hit = (len(os.listdir(cache)) if os.path.isdir(cache) else 0) == before
    return res


def run_job(job) -> JobResult:
    t0 = time.perf_counter()
    results = []
    for step in job.steps:
        r = run_step(step)
        results.append(r)
        if step.stop_if_error and r.code != 0:
            break
    return JobResult(job.index, time.perf_counter() - t0, results)


class Checker:
    """Applies the oracle, the allowed exit-1 outcomes and the seed-0 reference."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.trace_answers: dict[int, dict] = {}
        self.mismatches = 0

    def check(self, job, result: JobResult):
        """Mark the job failed or incorrect, and keep its step answers."""
        out = []
        info = {"q": job.sizes.get("q"), "piece_level": workloads.DEEP_PIECE_LEVEL}
        for step, r in zip(job.steps, result.steps):
            try:
                ans, failures, bad = self._step(job, step, r, info)
            except Exception as exc:  # output the oracle cannot read; the run goes on
                ans, failures, bad = None, [], [f"unreadable output ({exc!r:.200})"]
            result.reasons.extend(f"{step.kind}: {m}" for m in failures + bad)
            result.incorrect |= bool(bad)
            out.append({"kind": step.kind, "answer": ans})
        ref = self.reference.get(str(job.index))
        if ref is not None and not oracle.same_answer(out, ref):
            result.incorrect = True
            self.mismatches += 1
            result.reasons.append("answers differ from the seed-0 reference")
        result.failed = bool(result.reasons)
        result.answers = out

    def _step(self, job, step, r: StepResult, info):
        """(answer, failures, oracle violations) of one step."""
        if r.code is None or r.error == "SystemExit":
            return None, [r.error], []
        if r.code == 1:
            ans = oracle.answer(step.kind, json.loads(r.out))
            ok = ans.get("error") in step.allowed
            return ans, [] if ok else [f"exit 1 with {ans.get('error')}"], []
        if r.code != 0:
            return None, [f"exit {r.code}"], []
        rep = self._report(step, r)
        bad = oracle.check(step.kind, rep, info)
        ans = oracle.answer(step.kind, rep)
        if step.kind == "trace":
            if step.replay_of is None:
                self.trace_answers[job.index] = ans
            elif step.replay_of in self.trace_answers and not oracle.same_answer(
                    ans, self.trace_answers[step.replay_of]):
                bad.append("cached ray differs from the traced one")
        return ans, [], bad

    @staticmethod
    def _report(step, r: StepResult) -> dict:
        if step.argv is None or "--out" not in step.argv:
            return json.loads(r.out)
        with open(step.argv[step.argv.index("--out") + 1]) as fh:
            text = fh.read()
        return {"layers": oracle.svg_summary(text)} if step.kind == "render" else json.loads(text)


def replay(stream, checker: Checker, deadline: float | None = None, count: int | None = None,
           on_job=None, sample_speed: bool = False):
    """Closed loop over the stream: until the deadline, or for `count` jobs.
    With `sample_speed`, the machine speed is sampled before the first job and
    after every job, and each job gets the mean of the samples around it."""
    results = []
    i = 0
    t0 = time.perf_counter()
    speed = machine_speed() if sample_speed else 1.0
    while (count is None or i < count) and (deadline is None or time.perf_counter() < deadline):
        job = stream[i]
        r = on_job(job) if on_job else run_job(job)
        if sample_speed:
            after = machine_speed()
            r.speed, speed = (speed + after) / 2, after
        checker.check(job, r)
        results.append(r)
        i += 1
    return results, time.perf_counter() - t0


# ----------------------------------------------------------------- metrics


def load_reference(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {})


def latency_summary(results) -> dict:
    """Median and tail of the jobs' reference-second latencies; a failed job
    counts as +inf.  The tail is the latency with exactly TAIL_BEYOND jobs
    beyond it (the maximum if no more than TAIL_BEYOND jobs ran), i.e. the
    100 (n - TAIL_BEYOND) / n percentile."""
    lat = sorted(math.inf if r.failed else r.latency * r.speed for r in results)
    n = len(lat)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {"p50": statistics.median(lat), "tail": lat[k],
            "tail_percentile": 100.0 * (k + 1) / n, "tail_jobs_beyond": n - 1 - k, "jobs": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float, work, stream) -> tuple[dict, dict]:
    # set-up samples on both sides of the timed phase, so that a drift in the
    # machine's speed during the run moves setup_s as it moves the job timings
    setups = measure_setup(workload, seed, SETUP_REPEATS // 2)
    checker = Checker(load_reference(workload, seed))
    results, elapsed = replay(stream, checker, deadline=time.perf_counter() + seconds,
                              sample_speed=True)
    setups += measure_setup(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    ok = sum(not r.failed for r in results)
    lat = latency_summary(results)
    busy = sum(r.latency * r.speed for r in results)  # reference seconds inside jobs
    metrics = {
        "setup_s": (statistics.median(wall * speed for wall, speed in setups), "s"),
        "jobs_per_s": (ok / busy, "1/s"),
        "job_s.p50": (lat["p50"], "s"),
        "job_s.tail": (lat["tail"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_frac": (ok / len(results), "ratio"),
    }
    speeds = [r.speed for r in results]
    record = {"setup_runs_wall_s": [w for w, _ in setups],
              "setup_runs_speed": [v for _, v in setups],
              "timed_s": elapsed, "jobs_wall_s": sum(r.latency for r in results),
              "wall_jobs_per_s": ok / elapsed, "latency": lat,
              "machine_speed": {"median": statistics.median(speeds), "min": min(speeds),
                                "max": max(speeds)} if speeds else {},
              "reference_mismatches": checker.mismatches,
              "job_latencies_wall_s": [round(r.latency, 6) for r in results]}
    return metrics, {"results": results, "record": record}


def _result_hooks(extra) -> dict:
    """Work counts read off a traced call's arguments or result, by span name."""
    from yoccoz.tiling import ResidualStatus

    def count(key, of):
        extra.setdefault(key, 0)  # reported as 0 where the layer is unused

        def hook(args, result):
            extra[key] += of(args, result)
        return hook

    def unknowns(args, result):
        m = args[0]
        return int((m.inside & ~m.inner & ~m.outer).sum())

    return {
        "tiling.residual_member": count(
            "tiling.residual_member.hits", lambda a, r: r is ResidualStatus.IN_R_TO_DEPTH),
        "geometry.trace_ray": count("geometry.trace_ray.points", lambda a, r: len(r.points)),
        "geometry.modulus_estimate": count("geometry.modulus_estimate.unknowns", unknowns),
        "render.render_puzzle": count("render.svg_bytes", lambda a, r: len(r)),
        "sobolev.harmonic_extension_strip": count(
            "sobolev.harmonic_extension_strip.grid_nodes", lambda a, r: r.values.size),
        "qcmodel.phi_atlas": count("qcmodel.phi_atlas.cells", lambda a, r: len(r)),
    }


def probe_level_reach(lam: str) -> int:
    """Highest `descendants --level` in PROBE_LEVELS that answers (exit 0),
    by bisection; the top of the range when every level answers."""
    def answers(level: int) -> bool:
        argv = ["descendants", "--lam", lam, "--level", str(level), "--budget", "4"]
        return run_step(workloads.Step("descendants", argv)).code == 0

    lo, hi = PROBE_LEVELS
    if not answers(lo):
        return 0
    if answers(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if answers(mid) else (lo, mid)
    return lo


def probe_late_landing(lam: str) -> list:
    """Scan jobs on angles whose orbit meets the alpha cycle only after more
    doublings than the lamination depth; the failed ones, with their reasons."""
    checker, failed = Checker({}), []
    for p, q in PROBE_LIMBS:
        for theta in workloads.late_landing_angles(p, q, PROBE_STEPS):
            job = workloads.Job(-1, {"q": q}, workloads.scan_steps(p, q, theta, lam))
            r = run_job(job)
            checker.check(job, r)
            if r.failed:
                failed.append({"p": p, "q": q, "theta_v": str(theta), "reasons": r.reasons})
    return failed


def probes(workload: str, work) -> tuple[dict, dict]:
    """The known-defect probes of this workload (0 where it has none)."""
    reach = probe_level_reach(work["case3"]) if workload == "deep" else 0
    late = probe_late_landing(work["scan_lam"]) if workload == "scan" else []
    metrics = {"bench.probe.descendants_level_reach": reach,
               "bench.probe.late_landing_failed_jobs": len(late)}
    record = {"probe_levels": PROBE_LEVELS, "late_landing_jobs": len(PROBE_LIMBS) * len(
        PROBE_STEPS) if workload == "scan" else 0, "late_landing_failures": late[:4]}
    return metrics, record


def per_layer(workload: str, seed: int, work, stream) -> tuple[dict, dict]:
    """The same fixed job prefix, plain then traced, each with a fresh cache."""
    count = TRACE_JOBS[workload]
    workdir = os.path.dirname(work["svg"])
    fresh_cache(workdir)
    reference = load_reference(workload, seed)
    plain, plain_s = replay(stream, Checker(reference), count=count)

    tracer = Tracer()
    cache = {"hits": 0, "misses": 0}

    def traced_job(job):
        r = tracer.run("bench.job", run_job, job)
        for s in r.steps:
            if s.cache_hit is not None:
                cache["hits" if s.cache_hit else "misses"] += 1
        return r

    probe_metrics, probe_record = probes(workload, work)  # at the default recursion limit

    fresh_cache(workdir)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(2 * limit)  # each wrapped recursion level costs two frames
    hooks = _result_hooks(tracer.extra)
    tracer.install(hooks)
    try:
        checker = Checker(reference)
        traced, traced_s = replay(stream, checker, count=count, on_job=traced_job)
    finally:
        tracer.uninstall()
        sys.setrecursionlimit(limit)
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans", f"{workload}-seed{seed}.tsv.gz")
    tracer.write_spans(spans_path)

    calls, queries, self_s, extra = tracer.calls, tracer.queries, tracer.self_s, tracer.extra
    wall = tracer.total_s["bench.job"]
    covered = sum(self_s[name] for name, _, _, _ in TARGETS)
    metrics = {}
    for name, _, _, kind in TARGETS:
        metrics[f"{name}.calls"] = calls[name]
        if kind != "count":
            metrics[f"{name}.self_s"] = self_s[name]
        if kind == "recursive":
            metrics[f"{name}.queries"] = queries[name]
            metrics[f"{name}.calls_per_query"] = (calls[name] / queries[name]
                                                  if queries[name] else 0.0)
    metrics.update(sorted(extra.items()))
    res_calls = calls["tiling.residual_member"]
    metrics.update({
        "tiling.residual_member.hit_ratio": extra["tiling.residual_member.hits"] / res_calls
        if res_calls else 0.0,
        "cli.trace_cache.hits": cache["hits"],
        "cli.trace_cache.misses": cache["misses"],
        "bench.job.self_s": self_s["bench.job"],
        "bench.self_s_coverage": covered / wall if wall else 0.0,
        "bench.plain_jobs_per_s": count / plain_s,
        "bench.traced_jobs_per_s": count / traced_s,
        **probe_metrics,
    })
    record = {"trace_jobs": count, "plain_s": plain_s, "traced_s": traced_s,
              "overhead": traced_s / plain_s, "spans": len(tracer.span_name),
              "spans_file": os.path.relpath(spans_path, ROOT),
              "job_wall_s": wall, "job_self_s_covered": covered, **probe_record}
    return metrics, {"results": traced, "record": record}


# -------------------------------------------------------------------- main


def run_record(args, sizes: list, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, one client, one process",
        "job_sizes_first": sizes[:3],
        "job_size_ranges": _size_ranges(sizes), **extra,
    }


def _size_ranges(sizes: list) -> dict:
    out = {}
    for key in sizes[0] if sizes else ():
        vals = [s[key] for s in sizes]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            out[key] = [min(vals), max(vals)]
    return out


def write_reference():
    """Answers of the first jobs of every workload at the default seed."""
    ref = {}
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            _, stream = setup(workload, DEFAULT_SEED, workdir)
            results, _ = replay(stream, Checker({}), count=REFERENCE_JOBS[workload])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [r.reasons for r in results if r.incorrect]
        if bad:
            raise RuntimeError(f"{workload}: reference answers fail the oracle: {bad[:2]}")
        ref[workload] = {str(r.index): r.answers for r in results}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="length of the timed phase; a traced run replays a fixed job count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"rewrite {os.path.basename(REFERENCE)} from the default seed and exit")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "yoccoz", "__init__.py")):
        print(f"perfbench: no yoccoz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        work, stream = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        setup_in_process = time.perf_counter() - t0
        if args.trace:
            values, run = per_layer(args.workload, args.seed, work, stream)
            metrics = {k: (v, _unit(k)) for k, v in values.items()}
        else:
            metrics, run = end_to_end(args.workload, args.seed, args.seconds, work, stream)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = run["results"]
    failed = [r for r in results if r.failed]
    record = run_record(args, [stream[r.index].sizes for r in results],
                        {"setup_in_process_s": setup_in_process, **run["record"]})
    record["failures"] = [{"job": r.index, "reasons": r.reasons[:3]} for r in failed[:20]]
    print(json.dumps(record, indent=1, sort_keys=True, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'jobs':48s} {len(results):>16d} ({len(failed)} failed)")
    correct = not any(r.incorrect for r in results)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("jobs_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "coverage", "calls_per_query")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
