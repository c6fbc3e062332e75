"""Seeded job lists for the four workloads.

A job is one or two `cycleavg` CLI commands.  The program sees only the
argv and the spec files written here; everything it is checked against
(`expect`) stays with the benchmark.  Each pass runs the same list, so
a run's mix of jobs does not depend on how long it lasts.  Every list
is stratified (a fixed number of jobs per spec or per field count) so
that seeds change the inputs but not the kind of work.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("pipeline", "averaging", "sample", "classify")

#: `classify --scan 3`: 3^3 coefficient triples x 4^6 exponent choices.
CLASSIFY_COUNTS = {"P1": 10904, "P2": 20956, "P3": 73380, "P4": 4416,
                   "P5": 336, "P6": 600}

#: Quarter-turn moment of the signed square root, B(5/4, 1/2) / 2.
_SQRT_MOMENT = 0.5 * math.gamma(1.25) * math.gamma(0.5) / math.gamma(1.75)


@dataclass
class Job:
    argv: list
    expect: dict
    chain: str | None = None          # spec path for a chained `roots`

    def plan(self) -> dict:
        return {"argv": self.argv, "chain": self.chain}


# ---------------------------------------------------------------------------
# Spec JSON (the package's wire format)
# ---------------------------------------------------------------------------

def _frac(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def term(c, px, py, sx, sy) -> dict:
    return {"c": float(c), "px": _frac(px), "py": _frac(py), "sx": sx, "sy": sy}


def hfield(alpha, f=(), g=()) -> dict:
    return {"alpha": _frac(alpha), "f": list(f), "g": list(g)}


def spec(fields, b, epsilon=0.01, orientation="ccw") -> dict:
    return {"orientation": orientation, "epsilon": float(epsilon),
            "b": [float(v) for v in b], "fields": list(fields)}


def odd_damping(m: int, b) -> dict:
    """Odd-damping oscillator with m monomials, in ccw form."""
    return spec([hfield(2 * d + 1, f=[term(1.0, 2 * d + 1, 0, True, False)])
                 for d in range(m - 2)], b)


def _diagonal(alpha, c) -> dict:
    return hfield(alpha, f=[term(c, alpha, 0, True, False)],
                  g=[term(c, 0, alpha, False, True)])


VDP = odd_damping(4, (1.0, -1.0))
EXAMPLE1 = spec([hfield(0, f=[term(1.0, 0, 0, False, False)],
                        g=[term(1.0, 0, 0, False, False)]),
                 _diagonal(Fraction(1, 2), 1.0),
                 _diagonal(1, -1.0)], (1.0, 1.0, 1.0))
EXAMPLE2 = spec([hfield(0, f=[term(1.0, 0, 0, False, False)],
                        g=[term(1.0, 0, 0, False, False)]),
                 hfield(Fraction(1, 3), f=[term(1.0, Fraction(1, 3), 0, True, False)]),
                 hfield(Fraction(1, 2), g=[term(1.0, 0, Fraction(1, 2), False, True)]),
                 hfield(1, f=[term(0.5, 1, 0, True, False)],
                        g=[term(0.5, 0, 1, False, True)])],
                (1.0, 1.0, 1.0, 1.0), epsilon=0.005)
VDP_ROOT = 2.0 / math.sqrt(3.0)
EXAMPLE1_ROOT = (4.0 * _SQRT_MOMENT / math.pi) ** 2

# Specs whose b already put the averaged roots at example2's (1, 4) and
# lienard6's (0.8, 1.3, 1.8), for single-radius samples.
EXAMPLE2_TUNED = dict(EXAMPLE2, b=[1.0, 8.36037, -10.50887, 2.0])
LIENARD6_TUNED = odd_damping(6, (7.00877, -23.01547, 17.824, -3.65714))


def _write(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def pipeline_jobs(rng: random.Random, workdir: str) -> list[Job]:
    """Three jobs per preset system, each with its own jittered eps and targets.

    Only vdp runs several eps (and so the continuation check); the others
    run one, which keeps a pass near 35 s.  With two jobs per system the
    median moved by 12-18% (IQR over median) between runs on a shared host.
    """
    def eps_list(base, hi=1.1):
        return [e * rng.uniform(0.9, hi) for e in base]

    def targets(base, hi=1.03):
        return [t * rng.uniform(0.97, hi) for t in base]

    cases = []
    for _ in range(3):
        cases.append(("vdp", VDP, None, eps_list([0.024, 0.012, 0.006]),
                      [VDP_ROOT]))
        cases.append(("example1", EXAMPLE1, None, eps_list([0.01]),
                      [EXAMPLE1_ROOT]))
        tg = targets([1.1, 3.7])
        cases.append(("example2", EXAMPLE2, tg, eps_list([0.01]), tg))
        # At eps 0.005 the angular speed fails just beyond r = 1.85, so
        # lienard targets and eps are only ever lowered: lienard7 with
        # targets (0.803, 1.165, 1.459, 1.836) loses its outer cycle there.
        for m in (5, 6, 7):
            tg = targets([0.8 + i / (m - 4) for i in range(m - 3)], hi=1.0)
            b = [(-1.0) ** d for d in range(m - 2)]
            cases.append((f"lienard{m}", odd_damping(m, b), tg,
                          eps_list([0.005], hi=1.0), tg))
    rng.shuffle(cases)
    jobs = []
    for name, obj, tg, eps, roots in cases:
        path = _write(workdir, f"pipeline_{name}.json", obj)
        argv = ["pipeline", "--spec", path, "--eps", *map(_num, eps)]
        if tg is not None:
            argv += ["--targets", *map(_num, tg)]
        jobs.append(Job(argv, {"roots": roots, "eps": eps}))
    return jobs


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------

DEGREES = tuple(Fraction(v) for v in ("1/3", "1/2", "2/3", "3/4", "1", "5/4",
                                      "4/3", "3/2", "5/3", "2", "5/2", "3"))
#: Seed of the fixed degrees and splits of the timed averaging specs.
AVERAGING_DESIGN = "averaging-design"


def random_field(rng: random.Random, alpha: Fraction,
                 design: random.Random) -> dict:
    """A degree-alpha field whose angular integral is bounded away from 0.

    One f term carrying sgn(x) and one g term carrying sgn(y), with a
    split of the degree between x and y drawn from `design`: every radial
    contribution has the sign of its coefficient, and both coefficients
    share a sign.
    """
    sign = rng.choice((-1.0, 1.0))

    def split():
        q = Fraction(design.randint(0, 3), 4) * alpha
        return alpha - q, q

    (px, py), (qy, qx) = split(), split()
    f = term(sign * rng.uniform(0.5, 1.5), px, py, True, False)
    g = term(sign * rng.uniform(0.5, 1.5), qx, qy, False, True)
    return hfield(alpha, f=[f], g=[g])


def random_targets(rng: random.Random, count: int, lo: float = 0.3,
                   hi: float = 30.0, min_ratio: float = 1.6) -> list[float]:
    """Log-uniform targets in [lo, hi], consecutive ratios >= min_ratio."""
    span = math.log(hi / lo) - (count - 1) * math.log(min_ratio)
    cuts = sorted(rng.uniform(0.0, span) for _ in range(count))
    return [lo * math.exp(c + i * math.log(min_ratio)) for i, c in enumerate(cuts)]


#: Largest |c_j| t^e_j allowed in a timed job's h.  `roots` bisects to an
#: absolute |h| <= 1e-9, which rounding defeats from terms near 1e6 on
#: (it refuses about a fifth of inputs with terms in 1e6..1e7 and most in
#: 1e7..1e8).  Timed jobs must not fail, so the traced probe measures
#: that refusal instead.
MAX_TERM_SCALE = 1e5


def term_scale(alphas, targets) -> float:
    """Largest |c_j| t^e_j of the h with exactly these roots, top coefficient +-1."""
    e = [float(a) for a in alphas]
    top = (-1.0) ** len(targets)
    mat = np.array([[t ** x for x in e[:-1]] for t in targets])
    rhs = np.array([-top * t ** e[-1] for t in targets])
    coeffs = list(np.linalg.solve(mat, rhs)) + [top]
    return max(abs(c) * max(t ** x for t in targets) for c, x in zip(coeffs, e))


def averaging_job(rng: random.Random, workdir: str, tag: str, nfields: int,
                  targets=None, alphas=None, scale=(0.0, MAX_TERM_SCALE),
                  hi: float = 30.0, design: random.Random | None = None) -> Job:
    """Degrees and their x/y splits come from `design` (default `rng`).
    Targets, unless given, are drawn up to `hi` until h's term scale lies
    in `scale`."""
    design = design or rng
    if alphas is None:
        alphas = sorted(design.sample(DEGREES, nfields))
    fields = [random_field(rng, a, design) for a in alphas]
    orientation = "cw" if rng.random() < 0.3 else "ccw"
    obj = spec(fields, [rng.uniform(0.5, 2.0) for _ in fields],
               orientation=orientation)
    while targets is None:
        targets = random_targets(rng, nfields - 1, hi=hi)
        if not scale[0] <= term_scale(alphas, targets) <= scale[1]:
            targets = None
    path = _write(workdir, f"avg_{tag}.json", obj)
    argv = ["synthesize", "--spec", path, "--targets", *map(_num, targets)]
    return Job(argv, {"targets": targets},
               chain=os.path.join(workdir, f"avg_{tag}_tuned.json"))


def averaging_jobs(rng: random.Random, workdir: str) -> list[Job]:
    """16 specs for each field count 2..5; n fields get n - 1 targets.

    Degrees and splits, which set a job's quadrature cost, are the same
    for every seed (AVERAGING_DESIGN); the seed draws coefficients,
    signs, orientation, b and targets.  With degrees drawn from the seed
    too, the median job's cost moved by 9-12% (IQR over median) between
    seeds.
    """
    design = random.Random(AVERAGING_DESIGN)
    jobs = [averaging_job(rng, workdir, f"{n}_{i}", n, design=design)
            for n in (2, 3, 4, 5) for i in range(16)]
    rng.shuffle(jobs)
    return jobs


#: Exponents of the badly scaled probe inputs (five fields, four targets).
SCALED_ALPHAS = tuple(Fraction(v) for v in ("1/3", "1/2", "2/3", "3/4", "3"))
#: Term scale of the badly scaled probe inputs: well-posed (synthesis
#: verifies them) but beyond what `roots`' absolute tolerance resolves.
SCALED_TERMS = (1e6, 1e8)


def averaging_probe(rng: random.Random, workdir: str) -> list[Job]:
    """Inputs behind known root-finding defects, run only when traced.

    Two near-double target pairs (ratio 1.001), two single targets beyond
    DEFAULT_BRACKET's upper end 1e3, and four target sets whose h has a
    term between 1e6 and 1e8 (SCALED_TERMS), which `roots` often refuses
    because it bisects to an absolute |h| <= 1e-9.  Each should give
    every target back or be refused with a typed error.
    """
    jobs = []
    for i in range(2):
        t = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        jobs.append(averaging_job(rng, workdir, f"near{i}", 3, [t, 1.001 * t]))
    for i in range(2):
        jobs.append(averaging_job(rng, workdir, f"far{i}", 2,
                                  [rng.uniform(1500.0, 5000.0)]))
    for i in range(4):
        jobs.append(averaging_job(rng, workdir, f"scaled{i}", len(SCALED_ALPHAS),
                                  alphas=SCALED_ALPHAS, scale=SCALED_TERMS,
                                  hi=60.0))
    return jobs


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

# (name, spec, radius range): ranges sit inside each spec's validation
# bracket (0.3 min root, 3 max root) where every eps in SAMPLE_EPS keeps
# the orbit inside the guard window.
SAMPLE_SPECS = (
    ("vdp", VDP, (0.4, 3.0)),
    ("example1", EXAMPLE1, (0.4, 3.4)),
    ("example2", EXAMPLE2_TUNED, (0.35, 10.0)),
    ("lienard6", LIENARD6_TUNED, (0.3, 3.0)),
)
SAMPLE_EPS = (0.005, 0.02)


def sample_jobs(rng: random.Random, workdir: str) -> list[Job]:
    """Three single-radius revolutions per spec."""
    jobs = []
    for name, obj, (lo, hi) in SAMPLE_SPECS:
        path = _write(workdir, f"sample_{name}.json", obj)
        for _ in range(3):
            eps = rng.uniform(*SAMPLE_EPS)
            r0 = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            argv = ["simulate", "--spec", path, "--eps", _num(eps),
                    "--r0", _num(r0)]
            jobs.append(Job(argv, {"spec": obj, "eps": eps, "r0": r0}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def classify_jobs(rng: random.Random, workdir: str) -> list[Job]:
    """The exhaustive scan has no free input; the seed cannot change it."""
    return [Job(["classify", "--scan", "3"], {"counts": CLASSIFY_COUNTS})]


BUILDERS = {"pipeline": pipeline_jobs, "averaging": averaging_jobs,
            "sample": sample_jobs, "classify": classify_jobs}

#: One cheap untimed job per workload that touches its layers first.
WARMUP = {
    "pipeline": ["simulate", "--preset", "vdp", "--r0", "1.0"],
    "averaging": ["roots", "--preset", "example2"],
    "sample": ["simulate", "--preset", "vdp", "--r0", "1.0"],
    "classify": ["classify", "--system",
                 '{"a": 1, "p": 1, "q": 0, "b": -1, "i": 0, "j": 2, '
                 '"c": 1, "k": 1, "l": 1}'],
}


def build(workload: str, seed: int, workdir: str) -> tuple[list[Job], list[Job]]:
    """(jobs, probe) for one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](rng, workdir)
    probe = averaging_probe(rng, workdir) if workload == "averaging" else []
    return jobs, probe
