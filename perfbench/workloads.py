"""Seeded job streams for the three workloads.

A job is a short list of steps; each step is one ``yoccoz`` command line (or,
for the modulus, the one library call that has no subcommand).  Job ``i`` of
a workload is a pure function of ``(workload, seed, i)``, so a stream can be
extended lazily and two runs with one seed see the same inputs.

The size parameters that set a job's cost are drawn by stratified sampling:
every block of ``B`` consecutive jobs takes each of ``B`` equal strata of the
range once, in a seeded order.  Any run of a few blocks therefore holds the
same mix of sizes whatever the seed, while the angles, parameters and sample
seeds inside the strata still change with it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("scan", "deep", "numeric")

# exit-1 outcomes a scan job may legitimately end in (checked, not failed)
SCAN_ALLOWED = frozenset({"Case1DegenerateError", "InvalidThetaError",
                          "NotFoundWithinBudgetError", "NeedsDeeperLaminationError"})
SCAN_SIZES = 4  # angle-size strata per q

# deep: the case-3 fixture of the test suite (recurrent, fraternal (5, 11))
DEEP_THETA_V = "222/511"
# boundary arcs of its level-15 critical piece, where the tau angles are drawn
DEEP_PIECE_ARCS = tuple(
    (Fraction(a, 98304), Fraction(a + 2, 98304))
    for a in (21353, 21365, 21641, 21653, 70505, 70517, 70793, 70805)
)
DEEP_PIECE_LEVEL = 15
TAU_N = (200, 400)  # tau --n
# descendants --level.  Levels from about 975 up raise RecursionError at
# CPython's default recursion limit of 1000; the benchmark contract wants
# workloads on which no operation fails, so the range stops 50 levels short of
# that and the traced run measures the highest answered level instead
# (bench.probe.descendants_level_reach in run.py).
DESC_LEVEL = (25, 925)
CERT_SHALLOW = 16  # certify --depth 16..19: residual sampling succeeds within a few attempts
CERT_DEFAULT = (32, 41)  # ... exhausts its 400 attempts, as the default certify does
# A deep job's sizes follow one stratum s of DEEP_COMBOS per block: level
# stratum s, tau --n stratum s % 10, the default certify regime when s % 4 == 0
# (one job in four) and shallow depth 16 + s // 5 otherwise.  Every block then
# holds the same size mix whatever the seed; drawn independently, the seed
# changed which levels met the slow certify regime and moved job_s.p50.
DEEP_COMBOS = 20

# numeric
TRACE_PARAMS = ("-1,0", "0,0", "-0.122561,0.744862", "0.282,0.53")
RENDER_CASES = (("half", "-1,0"), ("half", "0.282,0.53"),
                ("rabbit", "-1,0"), ("rabbit", "0.282,0.53"))
SOBOLEV_DEPTHS = (3, 4, 5)
PHI_DEPTHS = (4, 5, 6)
STRIP_DEPTHS = (3, 4, 5, 6)
DIAMOND_GRIDS = (16, 24, 32, 48)
MODULUS_H = 1.0 / 48
MODULUS_R = (0.45, 0.7)  # inner radius r; outer radius R = r + (0.45 .. 0.75), so at
# least 21 grid cells lie across the annulus (at 14 the first-order
# discretization error of the h = 1/48 estimate reaches the 5% the oracle allows)
MODULUS_GAP = (0.45, 0.75)
HIT_LOOKBACK = 8  # the cache-hit trace replays one of the last 8 jobs' rays
# A numeric job's sizes come from one of NUMERIC_COMBOS fixed combinations,
# each taken once per block of that many jobs: every block then holds the same
# multiset of job costs whatever the seed, and only their order moves.
NUMERIC_COMBOS = 12  # lcm of the 4, 3, 3, 4 and 4 choices below; each is used equally

# fixture laminations written in set-up: name -> (p, q, theta_v, depth)
FIXTURES = {
    "deep": {"case3": (1, 2, DEEP_THETA_V, 8)},
    "numeric": {"half": (1, 2, "2/5", 6), "rabbit": (1, 3, "3/14", 6)},
    "scan": {},
}


@dataclass
class Step:
    """One command of a job.

    ``kind`` names the oracle check; ``argv`` is the CLI argument list (None
    for the modulus library call, whose arguments sit in ``call``).
    ``allowed`` lists the exit-1 error classes that are valid outcomes;
    ``stop_if_error`` marks a step whose output file the later steps read.
    """

    kind: str
    argv: list | None = None
    allowed: frozenset = frozenset()
    stop_if_error: bool = False
    call: dict | None = None
    replay_of: int | None = None  # cache-hit trace: the job whose ray it replays


@dataclass
class Job:
    index: int
    sizes: dict
    steps: list = field(default_factory=list)


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _stratum(workload: str, seed: int, name: str, index: int, strata: int) -> int:
    """Stratum of job ``index`` for one size parameter (0 .. strata-1)."""
    block, pos = divmod(index, strata)
    order = list(range(strata))
    _rng(workload, seed, name, "block", block).shuffle(order)
    return order[pos]


def _stratified_int(workload, seed, name, index, lo, hi, strata, rng) -> int:
    """Integer in [lo, hi) from the job's stratum of ``strata`` equal parts."""
    return _in_stratum(lo, hi, _stratum(workload, seed, name, index, strata), strata, rng)


def _in_stratum(lo, hi, s, strata, rng) -> int:
    """Integer in stratum ``s`` of ``strata`` equal parts of [lo, hi)."""
    a = lo + (hi - lo) * s // strata
    b = lo + (hi - lo) * (s + 1) // strata
    return rng.randrange(a, max(b, a + 1))


# ------------------------------------------------------------------ scan


def rotation_cycle(p: int, q: int) -> list[Fraction]:
    """The rotation-p/q cycle of doubling, sorted (closed form: digit i of the
    least angle is 1 iff (i p mod q)/q >= 1 - p/q)."""
    den = (1 << q) - 1
    num = 0
    for i in range(1, q + 1):
        num = 2 * num + int(Fraction(i * p % q, q) >= 1 - Fraction(p, q))
    out = set()
    for _ in range(q):
        out.add(Fraction(num, den))
        num = 2 * num % den
    return sorted(out)


def critical_value_sector(p: int, q: int) -> tuple[Fraction, Fraction]:
    """The shortest arc between consecutive cycle angles (never wraps past 0)."""
    cyc = rotation_cycle(p, q)
    arcs = [(cyc[i], cyc[i + 1]) for i in range(len(cyc) - 1)]
    return min(arcs, key=lambda ab: ab[1] - ab[0])


@functools.lru_cache(maxsize=None)
def _theta_ranges(p: int, q: int) -> tuple:
    """(denominator, least and greatest numerator) of the angles strictly
    inside the sector, for every period and preperiod up to 12, sorted by
    denominator."""
    a, b = critical_value_sector(p, q)
    out = []
    for per in range(1, 13):
        for pre in range(0, 13):
            den = (1 << pre) * ((1 << per) - 1)
            lo, hi = math.floor(a * den) + 1, math.ceil(b * den) - 1
            if hi >= lo:
                out.append((den, lo, hi))
    return tuple(sorted(out))


def lands_on_cycle(theta: Fraction, cycle) -> bool:
    """Whether some doubling of the rational angle ``theta`` is a cycle angle."""
    seen = set()
    while theta not in seen:
        if theta in cycle:
            return True
        seen.add(theta)
        theta = 2 * theta % 1
    return False


def _scan_theta(p: int, q: int, size: int, rng: random.Random) -> Fraction:
    """A rational angle strictly inside the sector whose orbit never meets
    the alpha cycle.  The (period, preperiod) pair is uniform within quarter
    ``size`` of the feasible pairs sorted by denominator: longer expansions
    make every command slower."""
    ranges = _theta_ranges(p, q)
    part = ranges[len(ranges) * size // SCAN_SIZES:len(ranges) * (size + 1) // SCAN_SIZES]
    cycle = frozenset(rotation_cycle(p, q))
    while True:
        den, lo, hi = part[rng.randrange(len(part))]
        theta = Fraction(rng.randint(lo, hi), den)
        if not lands_on_cycle(theta, cycle):
            return theta


def late_landing_angles(p: int, q: int, steps: range) -> list[Fraction]:
    """For each n in ``steps``, the least angle of the sector that first meets
    the alpha cycle after exactly n doublings.  The scan stream leaves such
    angles out; the traced scan run probes them (run.py)."""
    cycle = rotation_cycle(p, q)
    a, b = critical_value_sector(p, q)
    out = []
    for n in steps:
        found = [t for c in cycle for k in range(1 << n)
                 if a < (t := (c + k) / Fraction(1 << n)) < b and (1 << (n - 1)) * t % 1 not in cycle]
        out.append(min(found))
    return out


def scan_steps(p: int, q: int, theta: Fraction, lam: str) -> list:
    """lamination, descendants and renorm of one angle theta_v."""
    return [
        Step("lamination", ["lamination", "--p", str(p), "--q", str(q), "--theta-v",
                            f"{theta.numerator}/{theta.denominator}", "--depth", "8",
                            "--out", lam], SCAN_ALLOWED, stop_if_error=True),
        Step("descendants", ["descendants", "--lam", lam, "--budget", "20"], SCAN_ALLOWED),
        Step("renorm", ["renorm", "--lam", lam, "--budget", "30"], SCAN_ALLOWED),
    ]


def scan_job(seed: int, index: int, work: dict) -> Job:
    rng = _rng("scan", seed, index)
    # q = 2 .. 14 crossed with the quarter of angle sizes, one cell per job
    cell = _stratum("scan", seed, "cell", index, 13 * SCAN_SIZES)
    q, size = 2 + cell // SCAN_SIZES, cell % SCAN_SIZES
    p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
    theta = _scan_theta(p, q, size, rng)
    return Job(index, {"p": p, "q": q, "theta_v": str(theta), "depth": 8,
                       "descendants_budget": 20, "renorm_budget": 30},
               scan_steps(p, q, theta, work["scan_lam"]))


# ------------------------------------------------------------------ deep


def _deep_theta(rng: random.Random) -> Fraction:
    """A non-vertex angle inside the level-15 critical piece: an odd
    denominator prime to 3 keeps its orbit off every preimage of the alpha
    cycle {1/3, 2/3}."""
    a, b = DEEP_PIECE_ARCS[rng.randrange(len(DEEP_PIECE_ARCS))]
    while True:
        den = rng.randrange(1 << 24, 1 << 25) | 1
        if den % 3:
            theta = Fraction(rng.randrange(math.ceil(a * den), math.floor(b * den)), den)
            if a < theta < b:
                return theta


def deep_job(seed: int, index: int, work: dict) -> Job:
    rng = _rng("deep", seed, index)
    theta = _deep_theta(rng)
    s = _stratum("deep", seed, "combo", index, DEEP_COMBOS)
    n = _in_stratum(*TAU_N, s % 10, 10, rng)
    level = _in_stratum(*DESC_LEVEL, s, DEEP_COMBOS, rng)
    if s % 4 == 0:
        nth = index // DEEP_COMBOS * (DEEP_COMBOS // 4) + s // 4  # among default-regime jobs
        depth = _stratified_int("deep", seed, "depth_default", nth, *CERT_DEFAULT, 9, rng)
    else:
        depth = CERT_SHALLOW + s // 5
    cert_seed = rng.randrange(1 << 20)
    lam = work["case3"]
    steps = [
        Step("tau", ["tau", "--lam", lam, "--theta", f"{theta.numerator}/{theta.denominator}",
                     "--n", str(n)]),
        Step("descendants", ["descendants", "--lam", lam, "--level", str(level),
                             "--budget", "4"]),
        Step("certify", ["--seed", str(cert_seed), "certify", "--lam", lam,
                         "--samples", "2", "--depth", str(depth)]),
    ]
    return Job(index, {"theta": str(theta), "tau_n": n, "level": level,
                       "certify_depth": depth, "certify_seed": cert_seed}, steps)


# --------------------------------------------------------------- numeric


def _fresh_ray(seed: int, index: int) -> list:
    """Trace argv of job ``index``: its theta's denominator is unique to the
    job, so the ray misses the cache when first traced."""
    rng = _rng("numeric", seed, index, "ray")
    den = 1001 + 2 * index
    num = rng.randrange(1, den)
    while math.gcd(num, den) != 1:
        num = rng.randrange(1, den)
    return ["trace", f"--c={rng.choice(TRACE_PARAMS)}", "--theta", f"{num}/{den}"]


def numeric_job(seed: int, index: int, work: dict) -> Job:
    rng = _rng("numeric", seed, index)
    replay = index - 1 - rng.randrange(min(index, HIT_LOOKBACK)) if index else index
    k = _stratum("numeric", seed, "combo", index, NUMERIC_COMBOS)
    fixture, c_render = RENDER_CASES[k % 4]
    sob = SOBOLEV_DEPTHS[k % 3]
    phi = PHI_DEPTHS[k // 4]
    strip = STRIP_DEPTHS[k // 3]
    grid = DIAMOND_GRIDS[(k + k // 4) % 4]
    r = rng.uniform(*MODULUS_R)
    R = r + rng.uniform(*MODULUS_GAP)
    sob_seed = rng.randrange(1 << 20)
    ray = _fresh_ray(seed, index)
    steps = [
        Step("trace", ray),
        Step("trace", _fresh_ray(seed, replay), replay_of=replay),
        Step("render", ["render", "--lam", work[fixture], f"--c={c_render}", "--level", "1",
                        "--out", work["svg"]]),
        Step("sobolev", ["--seed", str(sob_seed), "sobolev", "verify", "--trials", "1",
                         "--depth", str(sob)]),
        Step("phi", ["qc", "phi", "--depth", str(phi)]),
        Step("strip", ["qc", "strip", "--depth", str(strip)]),
        Step("diamond", ["qc", "diamond", "--grid", str(grid)]),
        Step("modulus", call={"r": r, "R": R, "h": MODULUS_H}),
    ]
    return Job(index, {"trace": " ".join(ray[1:]), "replay_of": replay,
                       "render_fixture": fixture, "render_c": c_render, "render_level": 1,
                       "sobolev_depth": sob, "phi_depth": phi, "strip_depth": strip,
                       "diamond_grid": grid, "modulus_r": r, "modulus_R": R,
                       "modulus_h": MODULUS_H}, steps)


MAKERS = {"scan": scan_job, "deep": deep_job, "numeric": numeric_job}


class JobStream:
    """The job list of one workload and seed, extended on demand."""

    def __init__(self, workload: str, seed: int, work: dict, prefetch: int):
        self.make = MAKERS[workload]
        self.seed = seed
        self.work = work
        self.jobs: list[Job] = []
        self[prefetch - 1]

    def __getitem__(self, i: int) -> Job:
        while len(self.jobs) <= i:
            self.jobs.append(self.make(self.seed, len(self.jobs), self.work))
        return self.jobs[i]
