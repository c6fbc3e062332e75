"""Poincare return map of the perturbed center in polar form.

Dividing the radial by the angular velocity gives, while the angular
speed stays positive,

    dr/dtheta = eps * sum_j b_j F_j(theta) r^a_j
                / (1 + eps * sum_j b_j G_j(theta) r^(a_j - 1)),

with (F_j, G_j) the radial/transverse circle profiles of field j.  The
quotient is kept exact (no small-eps truncation).  One revolution of a
fixed-step explicit Runge-Kutta integration yields the return map P;
its fixed points are the periodic orbits crossing the positive x-axis.
Every revolution runs the stages of one tableau (_A, _B, _C): Dormand
and Prince's 12-stage method of order p = 8 (DOP853).

The signed fractional powers of the fields lose smoothness on the axes,
where a uniform mesh drops to order ~2.5.  A spec with such a term
therefore runs on a quadrant-graded mesh: each quadrant k is crossed as
theta = (pi/2)(k + sigma(u)), u in [0, 1], with the quintic
sigma(u) = u^3 (10 - 15u + 6u^2), whose first two derivatives vanish at
both ends, and the radial profile carries the factor sigma'(u)
(Sidi's endpoint transformation, 1993).  Each step stays inside one
quadrant, so no stage straddles an axis.  Near an axis a power
|sin|^e becomes u^(3e) times sigma' ~ u^2, smooth only where 3e is an
integer, so such a term bounds the mesh's order q by 3e + 3 (4.5 for a
square root).  Specs made only of ordinary monomials keep the uniform
mesh, of order q = p.  The tables are built per quadrant, the unit of
every mesh (`_tables`): in quadrant k crossed in n steps, row m holds,
for each of the 12 stages in order, F_j and then G_j of every field at
the stage angle, so a stage at c = 1 repeats the next row's first
values; bound, it is led by its own step h = 2 pi / (4 n).  A
lone-radius revolution runs on a per-quadrant mesh (n_0, n_1, n_2, n_3)
through one entry, `_run_mesh`, which chains the rows of each (n_k, k)
into one kernel call that fetches a quadrant's rows only once it
reaches them.  A kernel that stops is located and worded there
(`_failure`).  Every
revolution's mesh is chosen by one rule (`_revolve`): start on the
uniform mesh of a start count and, while the Richardson estimate
|P_N - P_N/2| / (2^q - 1) exceeds the caller's target, double every
quadrant's count, each level serving as the next one's half pass, up to
MAX_STEPS / 4 per quadrant.
A pass that leaves the guard window or loses angular speed in quadrant k
doubles quadrants 0..k only: the orbit of a stiff radius may fall onto
its cycle within one quadrant, and the quadrants after the failure never
ran.  A Newton cell of the fixed-point search starts at BASE_STEPS, a
scan node it settles at twice the scan's count (`_settle_scan`), and a
lone revolution (`return_map`) at REVOLUTION_STEPS, so that most radii
need no second level and its cost depends little on its radius.  A run
of scan nodes that the coarse scan loses is not settled node by node:
P is increasing, so two settled nodes u < v whose values, widened by
their error, put P(r_v) below r_u or P(r_u) above r_v show that no
cycle lies between them, and only the runs' ends and the middles of the
stretches that no such bound covers are settled.  An
explicit `steps` is the lowest count each may start from; only
`scan_return_map` runs an exact count.  A Newton cell first closes in
on its cycle with value revolutions on the uniform mesh of half its
first count (`_approach`), the mesh of that level's half pass, so its
last one serves as the half pass where the value kernel chooses the
cell's mesh, and one secant step on that mesh leaves most cells one
tangent revolution.

A lone radius runs in one of two kernels generated per exponent pattern
(`_kernel`, keyed by `_pattern`): the value kernel, and the tangent
kernel that also carries dP/dr0 for Newton.  Each is one revolution
written out as straight-line Python, one block per stage of the tableau,
and compiled once per process; it unpacks a row into locals as its step
starts.  The pattern classes each field's exponent as 0, 1 or any other,
and only the others cost a power: r ** 0.0 == 1.0 and r ** 1.0 == r
exactly, so a field of exponent 0 reads its row values as they are and
one of exponent 1 multiplies them by r, with the same bits.  The
generated source holds field indices, those classes and the tableau's
weights only; the exponents, the rows (bound once per search, step
count and quadrant to h and e_j = eps * b_j, `_search_tables`) and the
guard window are its arguments, the rows its only per-step input, so no
spec data is compiled.  Below BASE_STEPS a turn the bound rows are
tuples; from it on their doubles stay packed, a quarter of the memory,
and each row is unpacked from the buffer as its step starts.  A scan's
radii run together in a third kernel, a few numpy calls per stage on
the same rows past h viewed as (n, 12, 2, nf) per quadrant, written
into work arrays allocated once per call, with the failures read once
per step and each failed row parked on a live row's radius
(`_integrate_batch`).
"""

from __future__ import annotations

import logging
import math
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import (
    AngularMonotonicityError,
    ContinuationError,
    CycleAvgError,
    GuardBoundError,
    SpecError,
)
from .fields import PerturbationSpec, angular_components, normalize_ccw, with_epsilon
from .roots import check_bracket

log = logging.getLogger(__name__)

GUARD = (1e-4, 1e4)
#: First resolution of a Newton cell whose step count is chosen.
BASE_STEPS = 128
#: First resolution of a lone revolution whose step count is chosen.
REVOLUTION_STEPS = 256
#: Largest step count the error estimate may choose.
MAX_STEPS = 2 ** 16
#: Default largest |P(r*) - r*| a fixed point may have to be certified.
RESIDUAL_TOL = 1e-10
#: Radii in the log-spaced scan of a fixed-point search.
SCAN_POINTS = 200
#: Unit roundoff of a double.
_ROUNDOFF = 2.0 ** -53

_STATUS_OK = 0
_STATUS_SPEED = 1
_STATUS_GUARD = 2
_STATUS_NAMES = {_STATUS_SPEED: "angular_speed", _STATUS_GUARD: "guard"}


@dataclass(frozen=True)
class ReturnMapSample:
    """One evaluation P(r0) = r1 with integration diagnostics."""

    r0: float
    r1: float
    min_theta_speed: float
    steps: int                     # over the turn's mesh, all quadrants
    error_estimate: float


def sample_to_json(sample: ReturnMapSample) -> dict:
    """The sample's fields plus its one derived key, `displacement`."""
    return {**vars(sample), "displacement": sample.r1 - sample.r0}


@dataclass(frozen=True)
class LimitCycleCertificate:
    """A certified fixed point of the return map at one epsilon."""

    r_star: float
    residual: float
    map_derivative: float
    hyperbolic: bool
    epsilon: float


def simulation_bracket(predicted) -> tuple[float, float]:
    """Default search bracket: (0.3 min, 3 max) of the predicted radii,
    or (0.5, 2.0) without any."""
    if not predicted:
        return (0.5, 2.0)
    return (0.3 * min(predicted), 3.0 * max(predicted))


class ContinuationRow(NamedTuple):
    epsilon: float
    r_star: float
    gap: float


#: The stages of every revolution: Dormand and Prince's 12-stage
#: eighth-order weights (DOP853; Hairer, Norsett and Wanner, Solving
#: Ordinary Differential Equations I, II.5), without the embedded
#: estimators and dense output, which a fixed-step revolution does not use.
#: Stage i evaluates the right-hand side at angle (step + _C[i]) h and at
#: x_i = r + h sum_j _A[i][j] k_j; the step adds h sum_i _B[i] k_i.
_ORDER = 8
_A = ((),
      (0.05260015195876773,),
      (0.0197250569845379, 0.0591751709536137),
      (0.02958758547680685, 0.0, 0.08876275643042054),
      (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
      (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
      (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
       -0.017578125),
      (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
       -0.015319437748624402, 0.008273789163814023),
      (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
       27.59209969944671, 20.154067550477894, -43.48988418106996),
      (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
       21.230051448181193, 15.279233632882423, -33.28821096898486,
       -0.020331201708508627),
      (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
       -8.149787010746927, -18.52006565999696, 22.739487099350505,
       2.4936055526796523, -3.0467644718982196),
      (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
       -17.9589318631188, 27.94888452941996, -2.8589982771350235,
       -8.87285693353063, 12.360567175794303, 0.6433927460157636))
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)


class _Tables(NamedTuple):
    thetas: np.ndarray             # at 12 m + i, the angle of stage i of step m
    rows: object                   # (n, 12, 2, nf): F_j, then G_j, per stage;
                                   # bound, h and then these, tuples or packed


def _ordinary(term) -> bool:
    """An ordinary monomial: integer exponents, signed exactly when odd."""
    return all(e.denominator == 1 and signed == bool(e.numerator % 2)
               for e, signed in ((term.x_exp, term.x_signed),
                                 (term.y_exp, term.y_signed)))


@lru_cache(maxsize=256)
def _tables(fields, n: int, k: int) -> _Tables:
    # Quadrant k in n steps, row m every stage of step m in tableau order:
    # at (k n + m + c_i) 2 pi / (4 n), or graded at (pi/2)(k + sigma((m + c_i) / n)).
    step = np.arange(n)[:, None]
    frac = np.asarray(_C)
    if all(_ordinary(t) for f in fields for t in f.f_terms + f.g_terms):
        thetas = (k * n + step + frac) * (2.0 * math.pi / (4 * n))
        weight = 1.0
    else:
        u = (step + frac) / n
        thetas = 0.5 * math.pi * (k + u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u))
        weight = 30.0 * u * u * (1.0 - u) ** 2
    rows = np.empty((n, len(_C), 2, len(fields)))
    for j, field in enumerate(fields):
        fr, ft = angular_components(field, thetas)
        np.multiply(fr, weight, out=rows[:, :, 0, j])
        rows[:, :, 1, j] = ft
    return _Tables(thetas.ravel(), rows)


class _Fields(tuple):
    """A spec's fields hashed once, for `_tables`: their Fractions hash slowly."""
    def __init__(self, fields):
        self.hash = super().__hash__()

    def __hash__(self):
        return self.hash


class _Search(NamedTuple):
    bound: object                  # (n, k) -> `_tables(fields, n, k)`, rows bound
    rows: object                   # (n, k) -> those rows as a kernel reads them
    alphas: tuple[float, ...]
    pattern: str                   # the kernels' key (`_pattern`)
    richardson: float              # 2^q - 1, with q the mesh's order


def _search_tables(spec: PerturbationSpec) -> _Search:
    """The spec's `_tables` as the kernels read them, led by h = 2 pi / (4 n)
    and scaled by e_j = eps * b_j, each (n, k) bound once for as long as the
    caller (one search) keeps the lookup, and only once a revolution reaches it."""
    fields = _Fields(spec.fields)
    alphas = tuple(float(f.alpha) for f in fields)
    # |sin|^e is u^(3e + 2) next to an axis; 3e is an integer at denominator 1 or 3
    order = min([_ORDER] + [float(3 * e + 3) for f in fields for t in f.f_terms + f.g_terms
                            for e in (t.x_exp, t.y_exp) if 3 % e.denominator])
    # e_j at every place of field j in a row: 12 stages of F_j, then G_j
    e = np.tile(np.array([spec.epsilon * bj for bj in spec.b], dtype=float), 2 * len(_C))
    width = 1 + e.size
    unpack = struct.Struct(f"{width}d").iter_unpack

    @lru_cache(maxsize=None)
    def bound(n: int, k: int) -> _Tables:
        # Python floats: scalar arithmetic on numpy scalars is ~2x slower.
        # Below BASE_STEPS a turn (scans, settled nodes) rows are tuples; from
        # it on the doubles stay packed in a quarter of the memory.
        tabs = _tables(fields, n, k)
        packed = array("d", [0.0]) * (n * width)
        rows = np.frombuffer(packed).reshape(n, width)
        rows[:, 0] = 2.0 * math.pi / (4 * n)
        with np.errstate(over="ignore"):  # an infinite row fails the guard
            np.multiply(tabs.rows.reshape(n, -1), e, out=rows[:, 1:])
        if 4 * n < BASE_STEPS:
            return _Tables(tabs.thetas, tuple(map(tuple, rows.tolist())))
        return _Tables(tabs.thetas, packed)

    def rows(n: int, k: int):
        rows = bound(n, k).rows
        return rows if 4 * n < BASE_STEPS else unpack(rows)

    return _Search(bound, rows, alphas, _pattern(alphas), 2.0 ** order - 1.0)


def _check_steps(steps):
    if steps is None:
        return
    if (isinstance(steps, bool) or not isinstance(steps, int)
            or not 8 <= steps <= MAX_STEPS or steps % 8):
        raise ValueError(
            f"steps must be an int multiple of 8 (axis-angle panel alignment at "
            f"both resolutions) up to {MAX_STEPS}, got {steps!r}"
        )


class _Stop(Exception):
    """A generated kernel's exit at stage i of row n, args (n, i, x, den):
    the stage radius x left the guard window (den None) or den <= 0."""


def _failure(r: float, theta, quadrant: int, den=None):
    """The error of a revolution that failed in `quadrant`, tagged with it:
    r left the guard window near the stage angle theta (at the turn's end
    if theta is None), or the angular speed den <= 0 there.  It is raised
    as returned, never held in a local, which would tie the exception, its
    traceback and every frame on it into a cycle that keeps a whole
    search's tables alive until the collector runs."""
    lo, hi = GUARD
    if den is not None:
        exc = AngularMonotonicityError(
            f"angular speed {den:.3e} <= 0 at theta={theta:.6g}, r={r:.6g}")
    elif theta is None:
        exc = GuardBoundError(f"final radius {r:.6g} left the window ({lo:g}, {hi:g})")
    else:
        exc = GuardBoundError(
            f"radius {r:.6g} left the window ({lo:g}, {hi:g}) near theta={theta:.6g}")
    exc.quadrant = quadrant
    return exc


def _weighted(weights, names) -> str:
    """sum_j w_j * name_j in index order, zero weights left out."""
    return " + ".join(f"{w!r} * {x}" for w, x in zip(weights, names) if w)


def _pattern(alphas) -> str:
    """The kernels' key: per field "0" or "1" for an exponent of that
    value, "a" for any other."""
    return "".join("0" if a == 0.0 else "1" if a == 1.0 else "a" for a in alphas)


@lru_cache(maxsize=64)
def _kernel(pattern: str, tangent: bool):
    """kernel(r0, lo, hi, rows, a_0, a_1, ...): one step of the tableau
    per bound row (`_search_tables`), the rows its only per-step input,
    for fields whose exponents follow `pattern` (`_pattern`), the row
    unpacked as its step starts into its step h and f{i}_{j}, g{i}_{j},
    the e_j F_j and e_j G_j of stage i, of num / den with
    num = sum f_j r^a_j and den = 1 + sum g_j r^a_j / r, each sum in field
    order from its first term (0.0 with no fields); every stage
    combination sums its nonzero weights in stage order.  Returns
    (r1, min speed), the least speed from inf, or with `tangent` (r1, s1),
    s = dr/dr0 from 1.0.  A failure raises _Stop(n, i, x, den) at stage i
    of row n (den None for the guard), which `_run_mesh` words.

    The tangent kernel also evaluates df/dr at each stage,
    df/dr = (sum a_j t_j / r - f sum (a_j - 1) u_j / r^2) / den, so s
    follows the variational equation s' = (df/dr) s through the same
    stages, l_i = (df/dr)_i (s + h sum_j a_ij l_j).  Differentiating the
    stages by r0 gives exactly these, so s1 is the exact derivative of the
    discrete map r0 -> r1, and r1 is bit-identical to the value kernel's.

    Only an "a" field computes r ** a_j: a "0" field reads f_j and g_j
    as they are and a "1" field multiplies them by r, since r ** 0.0 ==
    1.0, f * 1.0 == f and r ** 1.0 == r hold exactly.  In df/dr, a_j t_j
    is t_j at a_j = 1 and (a_j - 1) u_j is -u_j at a_j = 0, both exact;
    the terms 0 * t_j (a_j = 0) and 0 * u_j (a_j = 1) are left out.  For
    finite rows they are +-0, which leaves a sum unchanged but for the
    sign of a zero sum, and such a zero reaches s only added to a
    nonzero value, so every result is that of r ** a_j throughout.
    """
    fields, stages = range(len(pattern)), range(len(_B))
    general = [j for j in fields if pattern[j] == "a"]

    def power(j, value):
        """value r^a_j as field j's class computes it."""
        return {"0": value, "1": f"{value} * x"}.get(pattern[j], f"{value} * p{j}")

    def total(terms):
        return "(" + (" + ".join(term for term in terms if term) or "0.0") + ")"

    def stage(i, row):
        t = [power(j, f"f{i}_{j}") for j in fields]
        u = [power(j, f"g{i}_{j}") for j in fields]
        ks = _weighted(row, (f"k{j}" for j in range(i)))
        ls = _weighted(row, (f"l{j}" for j in range(i)))
        yield f"x = r + h * ({ks})" if ks else "x = r"
        yield f"if not lo < x < hi: raise _Stop(n, {i}, x, None)"
        yield from (f"p{j} = x ** a{j}" for j in general)
        if tangent:                 # products named, as df/dr uses each term again
            for j in fields:
                if pattern[j] != "0":
                    yield f"t{j} = {t[j]}; u{j} = {u[j]}"
                    t[j], u[j] = f"t{j}", f"u{j}"
        yield f"den = 1.0 + {total(u)} / x"
        yield f"if den <= 0.0: raise _Stop(n, {i}, x, den)"
        yield f"k{i} = {total(t)} / den"
        if tangent:                 # a_j t_j and (a_j - 1) u_j, with 0 * t or u left out
            dnum = ({"0": "", "1": t[j]}.get(pattern[j], f"a{j} * {t[j]}") for j in fields)
            dden = ({"0": f"-{u[j]}", "1": ""}.get(pattern[j], f"m{j} * {u[j]}")
                    for j in fields)
            yield (f"l{i} = (({total(dnum)} / x - k{i} * {total(dden)} / (x * x)) / den) * "
                   + (f"(s + h * ({ls}))" if ls else "s"))
        else:
            yield "if den < least: least = den"

    row = ", ".join(["h"] + [f"{fg}{i}_{j}" for i in stages for fg in "fg" for j in fields])
    source = "\n".join([
        f"def kernel(r, lo, hi, rows{''.join(f', a{j}' for j in fields)}):",
        "    s = 1.0" if tangent else "    least = inf",
        *(f"    m{j} = a{j} - 1.0" for j in general if tangent),
        f"    for n, [{row}] in enumerate(rows):",
        *("        " + line for i in stages for line in stage(i, _A[i])),
        f"        r += h * ({_weighted(_B, (f'k{i}' for i in stages))})",
        (f"        s += h * ({_weighted(_B, (f'l{i}' for i in stages))})"
         if tangent else ""),
        "    return r, s" if tangent else "    return r, least"])
    namespace = {"_Stop": _Stop, "inf": math.inf}
    exec(compile(source, f"<flow kernel {pattern!r} tangent={tangent}>", "exec"), namespace)
    return namespace["kernel"]


def _run_mesh(tangent: bool, tables: _Search, mesh, r0: float) -> tuple[float, float]:
    """One revolution of r0 on the per-quadrant mesh (n_0, n_1, n_2, n_3)
    in one call of the value kernel, or with `tangent` the tangent kernel,
    on the rows `tables.rows(n_k, k)` of a search's lookup
    (`_search_tables`), chained and each fetched once the kernel reaches
    it.  Returns (r1, min speed), or (r1, s1).  The one entry of every
    lone-radius revolution, and the one place that types, words and
    locates its failure (`_failure`): a stop at step n lies in the first
    quadrant q whose running sum of counts exceeds n, at row n - sum(mesh[:q])."""
    try:
        r, second = _kernel(tables.pattern, tangent)(
            float(r0), *GUARD, chain.from_iterable(map(tables.rows, mesh, range(4))),
            *tables.alphas)
    except _Stop as stop:
        n, i, x, den = stop.args
        ends = list(accumulate(mesh))
        q = bisect_right(ends, n)
        thetas = tables.bound(mesh[q], q).thetas
        raise _failure(x, thetas[len(_C) * (n - ends[q] + mesh[q]) + i], q, den) from None
    if not GUARD[0] < r < GUARD[1]:
        raise _failure(r, None, 3)
    return r, second


def _uniform(steps: int) -> tuple[int, ...]:
    """The mesh of `steps` steps in all, steps / 4 per quadrant."""
    return (steps // 4,) * 4


def _integrate_batch(tables: _Search, n: int, r0: np.ndarray):
    """One revolution of a batch of start radii on the uniform mesh of n steps
    per quadrant of a search's lookup `tables`, each fetched once reached.

    Returns (r1, status).  A row that leaves the guard window or loses
    angular speed is tagged with its first failure (at one stage a guard
    exit wins over a lost speed) and carries NaN.  Each stage keeps its
    radii and angular speeds, and the failures are read once per step.
    A failed row is parked at the end of its step on the radius of the
    first live row, so no stage sees the NaN, infinite or negative radii
    on which the power is slow; the cumulative `alive` mask keeps its
    later failures from overwriting the first.  Parking moves no live
    value: a row's values do not depend on the others', though they may
    on its column (SIMD, BLAS), so no row changes column.  Every stage
    writes into work arrays allocated once per call.
    """
    def weights(quadrant):
        # step m's row past its h as (12, 2, nf): each stage's e_j F_j and
        # e_j G_j, so one product gives num and den
        rows = np.asarray(tables.bound(n, quadrant).rows, dtype=float).reshape(n, -1)
        return rows[:, 1:].reshape(n, len(_B), 2, len(tables.alphas))

    alphas = np.asarray(tables.alphas)[:, None]
    h = 2.0 * math.pi / (4 * n)
    lo, hi = GUARD

    r = np.array(r0, dtype=float, copy=True)
    status = np.zeros(r.shape, dtype=int)
    alive = np.ones(r.shape, dtype=bool)
    new = np.empty_like(alive)
    dead = live = None                      # once a row fails: ~alive, first live row
    k, x, den = (np.empty((len(_B),) + r.shape) for _ in range(3))
    powers = np.empty(alphas.shape[:1] + r.shape)
    num_dacc = np.empty((2,) + r.shape)
    acc = np.empty(r.shape)
    in_window, fails = (np.empty(x.shape, dtype=bool) for _ in range(2))
    rows = [np.asarray(row) for row in _A]
    b = np.asarray(_B)

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for step in chain.from_iterable(map(weights, range(4))):
            np.copyto(x[0], r)
            for i, (row, w) in enumerate(zip(rows, step)):
                if i:                       # x_i = r + h (row @ k[:i])
                    np.matmul(row, k[:i], out=acc)
                    acc *= h
                    np.add(r, acc, out=x[i])
                np.power(x[i], alphas, out=powers)
                np.matmul(w, powers, out=num_dacc)
                np.divide(num_dacc[1], x[i], out=den[i])
                den[i] += 1.0
                np.divide(num_dacc[0], den[i], out=k[i])
            np.matmul(b, k, out=acc)
            acc *= h
            r += acc
            np.greater(x, lo, out=in_window)
            np.less(x, hi, out=fails)
            in_window &= fails
            np.greater(den, 0.0, out=fails)
            fails &= in_window
            np.logical_not(fails, out=fails)
            np.any(fails, axis=0, out=new)
            new &= alive
            if new.any():
                # at each row's first failing stage: _STATUS_GUARD outside
                # the window, else _STATUS_SPEED (one less)
                first = np.take_along_axis(in_window, fails.argmax(axis=0)[None], 0)[0]
                np.copyto(status, _STATUS_GUARD - first, where=new)
                alive &= ~new
                if not alive.any():
                    break
                dead, live = ~alive, alive.argmax()
            if dead is not None:
                np.copyto(r, r[live], where=dead)
        np.copyto(status, _STATUS_GUARD, where=alive & ~((r > lo) & (r < hi)))
    return np.where(status == _STATUS_OK, r, np.nan), status


def _refined(mesh, q: int, finer):
    """`mesh` with the step count of each quadrant 0..q replaced by
    finer(count): a level that failed in quadrant q runs again finer up to
    its failure, since the quadrants after it never ran."""
    return tuple(map(finer, mesh[:q + 1])) + mesh[q + 1:]


def _revolve(tables, tangent: bool, r0: float, start: int, tol: float,
             half: float | None = None):
    """One revolution of r0 by `_run_mesh(tangent, tables, mesh, r0)`, on a
    mesh chosen by accuracy: `tables` is a search's lookup
    (`_search_tables`), `mesh` the steps per quadrant and the pair's first
    item P(r0).  It runs on the uniform mesh of `start` steps and, while
    the Richardson estimate |P - half| / (2^q - 1) is not within tol (a
    NaN is not), on the mesh with every quadrant's count doubled, until
    quadrant 0 reaches MAX_STEPS / 4; each level's P is the next level's
    half pass, so every pair is a true halving.  The first half pass is
    `half`, the value P(r0) on the uniform mesh of start // 2 steps that
    a caller has already run, or else a value revolution on that mesh.
    A pass that fails (guard or angular speed) in quadrant k doubles the
    counts of quadrants 0..k only, up to MAX_STEPS / 4, and raises once
    quadrant k is there: the quadrants up to k then run as the uniform
    MAX_STEPS mesh does, so it fails as that mesh fails.  A failed half
    pass leaves the estimate NaN, and a failed pass leaves the next level
    no half pass.  Returns (mesh, pair, estimate) of the last level.
    """
    cap = MAX_STEPS // 4
    mesh = _uniform(start)
    while True:
        try:
            out = _run_mesh(tangent, tables, mesh, r0)
        except (GuardBoundError, AngularMonotonicityError) as exc:
            if mesh[exc.quadrant] >= cap:
                raise
            mesh = _refined(mesh, exc.quadrant, lambda n: min(2 * n, cap))
            half = math.nan
            continue
        if half is None:
            try:
                half, _ = _run_mesh(False, tables, _uniform(start // 2), r0)
            except (GuardBoundError, AngularMonotonicityError):
                half = math.nan
        estimate = abs(out[0] - half) / tables.richardson
        if mesh[0] >= cap or estimate <= tol:
            return mesh, out, estimate
        mesh, half = tuple(2 * n for n in mesh), out[0]


def return_map(spec: PerturbationSpec, r0: float,
               steps: int | None = None) -> ReturnMapSample:
    """P(r0) after one revolution, with a step-halving error estimate.

    Fixed steps of the tableau (panels aligned with the axis angles) plus
    a half-resolution pass; the Richardson estimate |P_full - P_half| /
    (2^q - 1), q the mesh's order, is attached to the sample.  The count
    starts at REVOLUTION_STEPS, or at `steps` if that is more, and doubles
    while the estimate exceeds RESIDUAL_TOL or a pass fails (`_revolve`),
    so a stiff radius raises only if it fails at MAX_STEPS.
    """
    _check_steps(steps)
    spec = normalize_ccw(spec)
    if not 0 < r0 < math.inf:
        raise ValueError(f"start radius must be positive and finite, got {r0}")
    if not GUARD[0] < r0 < GUARD[1]:
        # the first stage of any count would leave at theta 0
        raise _failure(r0, 0.0, 0)
    mesh, (r1, min_den), estimate = _revolve(
        _search_tables(spec), False, r0, max(REVOLUTION_STEPS, steps or 0),
        RESIDUAL_TOL)
    return ReturnMapSample(r0=float(r0), r1=r1, min_theta_speed=min_den,
                           steps=sum(mesh), error_estimate=estimate)


def scan_return_map(spec: PerturbationSpec, bracket, scan_points: int = SCAN_POINTS,
                    steps: int = BASE_STEPS, tables=None):
    """Evaluate the return map on a log-spaced grid at exactly `steps` steps;
    returns the raw (r0, r1, status), with no error estimate or settling;
    `tables` is the search's lookup (`_search_tables`), if it has one."""
    _check_steps(steps)
    spec = normalize_ccw(spec)
    lo, hi = check_bracket(bracket)
    grid = np.logspace(math.log10(lo), math.log10(hi), scan_points)
    if tables is None:
        tables = _search_tables(spec)
    r1, status = _integrate_batch(tables, steps // 4, grid)
    return grid, r1, status


def _sign_change_cells(grid: np.ndarray, disp: np.ndarray, ok: np.ndarray):
    """Yield (a, b, g(a), g(b)) for each cell to refine, by increasing radius.

    A cell is a pair of adjacent OK nodes whose displacements have strictly
    opposite signs.  An OK node whose displacement is exactly zero is a
    degenerate cell of its own (a == b), so it is certified once, unless
    an OK neighbour is zero too: there the map is the identity, a band of
    fixed points rather than an isolated cycle.
    """
    n = len(grid)

    def zero(k: int) -> bool:
        return 0 <= k < n and bool(ok[k]) and disp[k] == 0.0

    for i in range(n):
        if not ok[i]:
            continue
        da = float(disp[i])
        if da == 0.0:
            if not (zero(i - 1) or zero(i + 1)):
                yield float(grid[i]), float(grid[i]), 0.0, 0.0
        elif i + 1 < n and ok[i + 1]:
            db = float(disp[i + 1])
            if db != 0.0 and (da > 0.0) != (db > 0.0):
                yield float(grid[i]), float(grid[i + 1]), da, db


def _newton_in_cell(pmap, a: float, b: float, ga: float, gb: float,
                    x: float | None = None, rel: float = 1e-12):
    """Safeguarded Newton on g(r) = P(r) - r inside a sign-change cell [a, b].

    `pmap(r)` returns (P(r), P'(r)), or (P(r), None) for a map without a
    tangent, whose slope is then the secant through the last two points,
    or the cell's chord on the first step.  Starts at `x`, by default the
    secant point of the endpoint values, keeps the bracket, and bisects
    whenever a step leaves it or is not finite.  Stops once the next step
    is at most rel r, with a tangent at most max(rel r / max(1, |P' - 1|),
    4 u r), u the unit roundoff: the residual is about |P' - 1| |r - r*|,
    so a strongly repelling cell steps on until its residual is as small
    as an ordinary cell's.  Returns (r, P(r), P'(r)) of the last evaluated
    point, P' 1 + the secant slope without a tangent.  A degenerate cell
    (a == b, a zero-displacement node) is evaluated once.
    """
    chord = (gb - ga) / (b - a) if a < b else math.nan
    if x is None:
        x = (a * gb - b * ga) / (gb - ga) if a < b else a
    if not a <= x <= b:
        x = 0.5 * (a + b)
    last = None
    for _ in range(100):
        p, dp = pmap(x)
        g = p - x
        if (g > 0.0) == (ga > 0.0):
            a, ga = x, g
        else:
            b, gb = x, g
        if dp is None:
            slope = chord if last is None else (g - last[1]) / (x - last[0])
            close = rel * x
        else:
            slope = dp - 1.0
            close = max(rel * x / max(1.0, abs(slope)), 4.0 * _ROUNDOFF * x)
        evaluated = (x, p, 1.0 + slope if dp is None else dp)
        last = x, g
        x_new = x - g / slope if slope != 0.0 else math.nan
        if not a <= x_new <= b:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= close:
            break
        x = x_new
    return evaluated


def _approach(tables, start: int, tol: float, a: float, b: float, ga: float, gb: float):
    """Newton's start in the sign-change cell [a, b] and the cell's mesh:
    `_newton_in_cell` on the value kernel over the uniform mesh of
    start // 2 steps, stopped once a step is at most 1e-8 r; at its last
    radius `_revolve` chooses the mesh on the value kernel, its last value
    the first half pass, and one secant step with its last slope moves to
    the root on that mesh.  Returns (None, None) for a degenerate cell
    (a == b) or if a half-count revolution fails (guard or angular speed):
    the cell then starts at the secant point of (a, b)."""
    if a == b:
        return None, None
    half_mesh = _uniform(start // 2)

    def pmap(r: float):
        return _run_mesh(False, tables, half_mesh, r)[0], None

    try:
        x, half, secant = _newton_in_cell(pmap, a, b, ga, gb, rel=1e-8)
    except (GuardBoundError, AngularMonotonicityError):
        return None, None
    mesh, (p, _), _ = _revolve(tables, False, x, start, tol, half)
    slope = secant - 1.0
    return (x - (p - x) / slope if slope != 0.0 else math.nan), mesh


def _settle_scan(tables, grid: np.ndarray, r1: np.ndarray, status: np.ndarray,
                 r1_half: np.ndarray, start: int, tol: float):
    """Finer values and statuses wherever a coarse scan may be wrong.

    `r1`, `status` come from a coarse scan of `grid` and `r1_half` from
    the same scan at half its steps.  Two kinds of node are integrated
    again with the value kernel: an OK node whose displacement
    |r1 - r0| does not exceed its own coarse-versus-half difference (a
    failed half pass gives no difference, so the node is settled too),
    and a failed node next to an OK one.

    Each such node runs `_revolve`'s rule from the uniform mesh of `start`
    steps, each level's value the next one's half pass and the coarse
    value the first, with REVOLUTION_STEPS / 4 steps per quadrant, the
    first level of a lone revolution, as its cap: every quadrant doubles
    until the Richardson estimate is within `tol` (a displacement that
    small is a fixed point to the search's accuracy), the sign is trusted
    by the same rule, or quadrant 0 reaches the cap, and a level that
    fails in quadrant k doubles quadrants 0..k only.  A node that fails in
    a quadrant at the cap stays failed, as the uniform REVOLUTION_STEPS
    mesh fails it, and an OK one keeps its value.  A level after a failed
    one has no half pass to be trusted by, so a failed quadrant of n steps
    with 4n >= REVOLUTION_STEPS / 4 goes straight to the cap.

    The rest of a run of coarse failures is covered with the monotone
    return map instead of being settled node by node.  P is increasing,
    so between settled OK nodes u < v, P(r_v) + e_v < r_u puts P(r) below
    r on all of [r_u, r_v] and P(r_u) - e_u > r_v puts it above: that
    stretch holds no cycle.  Here e is |P - half| at the level the node
    stopped on; a value accepted at the cap after a failed level has no
    half pass, so it first runs one more level with every quadrant
    doubled.  A run that reaches the scan's end has its far end settled
    once its border is OK.  Each stretch of unsettled nodes between
    settled ones is then covered if both ends are OK and their bounds
    allow it, left if both failed, and else split at its middle node,
    which is settled, its two halves treated alike (on an explicit stack,
    so no closure refers to itself and keeps the search's lookup alive).
    So each run fills from its OK ends toward the nodes that fail at the
    cap, and the nodes past that frontier stay failed, as settling
    outward from each OK end up to its first failure leaves them.  A
    covered node gets status OK and as r1 its bound, P(r_v) + e_v or
    P(r_u) - e_u: trusted for its sign and its status, not its value.
    Its orbit lies between the two bounding orbits, so it stays inside
    the guard window, but its angular speed is not checked.  Returns new
    (r1, status).
    """
    cap = REVOLUTION_STEPS // 4

    def finer(n):
        # a failed level leaves the next one no half pass to trust it by
        return cap if 4 * n >= cap else 2 * n

    def settle(i):
        """Settle node i in place; an OK one keeps (P, |P - half|, mesh)
        of the level it stopped on in `bars`."""
        r0, half = float(grid[i]), float(r1[i])
        mesh = _uniform(start)
        while True:
            try:
                r = _run_mesh(False, tables, mesh, r0)[0]
            except (GuardBoundError, AngularMonotonicityError) as exc:
                if mesh[exc.quadrant] >= cap:
                    r1[i], status[i] = math.nan, (
                        _STATUS_GUARD if isinstance(exc, GuardBoundError) else _STATUS_SPEED)
                    return
                mesh, half = _refined(mesh, exc.quadrant, finer), math.nan
                continue
            if mesh[0] >= cap or (
                    abs(r - half) / tables.richardson <= tol
                    or abs(r - r0) > abs(r - half)):
                r1[i], status[i] = r, _STATUS_OK
                bars[i] = r, abs(r - half), mesh
                return
            mesh, half = tuple(2 * n for n in mesh), r

    def bar(i):
        """(P, e) of the settled OK node i, running the level after its
        last one if that had no half pass."""
        p, e, mesh = bars[i]
        if math.isnan(e) and mesh is not None:
            try:
                q = _run_mesh(False, tables, tuple(2 * n for n in mesh), float(grid[i]))[0]
            except (GuardBoundError, AngularMonotonicityError):
                q = math.nan
            p, e = q, abs(q - p)
            bars[i] = p, e, None
        return p, e

    def cover(u, v):
        """Cover the nodes between settled OK nodes u < v, if their bars
        show P - r of one sign over [r_u, r_v]."""
        p, e = bar(v)
        bound = p + e
        if not bound < grid[u]:
            p, e = bar(u)
            bound = p - e
            if not bound > grid[v]:
                return False
        r1[u + 1:v], status[u + 1:v] = bound, _STATUS_OK
        return True

    r1, status, bars = r1.copy(), status.copy(), {}
    n = len(grid)
    ok = status == _STATUS_OK
    with np.errstate(invalid="ignore"):
        trusted = np.abs(r1 - grid) > np.abs(r1 - r1_half)
    borders = ~ok & (np.r_[False, ok[:-1]] | np.r_[ok[1:], False])
    for i in np.flatnonzero((ok & ~trusted) | borders).tolist():
        settle(i)
    edges = np.flatnonzero(np.diff(np.r_[0, ~ok, 0]))
    for first, last in zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()):
        # a run at the scan's end has one border: its far end next
        if first == 0 < last and status[last] == _STATUS_OK:
            settle(first)
        if first < last == n - 1 and status[first] == _STATUS_OK:
            settle(last)
        stack = [(first, last)]
        while stack:
            u, v = stack.pop()
            good = (status[u] == _STATUS_OK, status[v] == _STATUS_OK)
            if v - u < 2 or not any(good) or (all(good) and cover(u, v)):
                continue
            m = (u + v) // 2
            settle(m)
            stack += [(u, m), (m, v)]
    return r1, status


def find_fixed_points(spec: PerturbationSpec, bracket, tol: float = RESIDUAL_TOL,
                      steps: int | None = None, *,
                      on_scan=None) -> list[LimitCycleCertificate]:
    """Certified fixed points of the return map inside the bracket.

    Scans a log-spaced grid of `SCAN_POINTS` radii for sign changes of
    P(r) - r and refines each cell by safeguarded Newton on the
    variational equation (`_newton_in_cell`), in the scan cell's own
    bracket, on the mesh and from the start its approach chooses
    (`_approach`), or from the secant point of the cell if that approach
    fails or the cell is degenerate.
    The scan only has to place the sign changes, so it runs at about
    N / 16, with N = `steps` or BASE_STEPS, and a pass at half that to
    estimate each node's error; nodes whose sign or status that
    resolution cannot be trusted with are integrated again, and the
    rest of a run of failed nodes is covered by the monotone map where
    it can be (`_settle_scan`).  `on_scan`, if given, receives the
    settled scan as (grid, r1, status), whose r1 is trusted for the sign
    of r1 - r0 and for its status, not for its value: a node may stop as
    soon as its sign is trusted, and a covered node carries the bound on
    P that gives its sign, not its own value.  A covered radius's orbit
    lies between the two bounding orbits, so it stays inside the guard
    window, but its angular speed is not checked.

    Each cell's mesh is chosen once by `_revolve` from BASE_STEPS (or
    from `steps` if that is more) against `tol`, at the approach's last
    radius, or else at Newton's start on the tangent kernel.  The coarse
    scan and the approach move only Newton's start point: the
    certificate's residual and map derivative come from the last Newton
    revolution, and the derivative is the exact derivative of the
    discrete map.  Failing scan nodes are summarized in one warning per
    scan; failing cells (guard exits, lost angular monotonicity, residual
    above tol) are logged and skipped, and a non-finite r*, residual or
    P' raises CycleAvgError; an empty list is a legitimate outcome.  With
    every b_j zero the map is the identity, which has no isolated fixed
    point, so nothing is integrated.
    """
    if spec.epsilon == 0.0:
        raise SpecError("fixed-point search requires epsilon != 0")
    if isinstance(tol, bool) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _check_steps(steps)
    check_bracket(bracket)
    if all(bj == 0.0 for bj in spec.b):
        return []
    spec = normalize_ccw(spec)
    tables = _search_tables(spec)
    # a multiple of 8 near N / 16, so its half pass keeps the axis-angle
    # alignment too
    coarse = max(8, (steps or BASE_STEPS) // 128 * 8)
    grid, r1, status = scan_return_map(spec, bracket, SCAN_POINTS, coarse, tables)
    r1_half, _ = _integrate_batch(tables, coarse // 8, grid)
    # settled nodes start at twice the scan's count and cells at
    # BASE_STEPS, or both at `steps` if that is more
    r1, status = _settle_scan(tables, grid, r1, status, r1_half,
                              max(2 * coarse, steps or 0), tol)
    start = max(BASE_STEPS, steps or 0)
    if on_scan is not None:
        on_scan((grid, r1, status))
    failed = {name: int(np.count_nonzero(status == code))
              for code, name in _STATUS_NAMES.items()}
    if any(failed.values()):
        log.warning("scan of %d radii in [%.6g, %.6g]: %d failed (%s)",
                    len(grid), grid[0], grid[-1], sum(failed.values()),
                    ", ".join(f"{name} {count}" for name, count in failed.items()))

    def cell_map(mesh):
        """P and P' for one cell on `mesh`, or if that is None on the
        mesh `_revolve` chooses at Newton's first point."""
        def pmap(r: float) -> tuple[float, float]:
            nonlocal mesh
            if mesh is None:
                mesh, first, _ = _revolve(tables, True, r, start, tol)
                return first
            return _run_mesh(True, tables, mesh, r)

        return pmap

    certificates = []
    for a, b, ga, gb in _sign_change_cells(grid, r1 - grid, status == _STATUS_OK):
        try:
            x, mesh = _approach(tables, start, tol, a, b, ga, gb)
            r_star, p, deriv = _newton_in_cell(cell_map(mesh), a, b, ga, gb, x)
        except (GuardBoundError, AngularMonotonicityError) as exc:
            log.warning("cell [%.6g, %.6g]: %s", a, b, exc)
            continue
        residual = abs(p - r_star)
        for name, value in (("r_star", r_star), ("residual", residual),
                            ("map_derivative", deriv)):
            if not math.isfinite(value):
                raise CycleAvgError(f"cell [{a:.6g}, {b:.6g}]: {name} {value!r} "
                                    "is not finite")
        if residual > tol:
            log.warning("cell [%.6g, %.6g]: residual %.3e > tol %.1e, skipped",
                        a, b, residual, tol)
            continue
        certificates.append(LimitCycleCertificate(
            r_star=float(r_star),
            residual=float(residual),
            map_derivative=float(deriv),
            hyperbolic=bool(abs(deriv - 1.0) > 10.0 * tol),
            epsilon=float(spec.epsilon),
        ))
    return certificates


def check_eps_values(eps_values) -> list[float]:
    """The epsilon values as floats: a non-empty list, every value finite
    and positive, strictly decreasing; else ValueError."""
    eps_list = [float(e) for e in eps_values]
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ValueError(f"epsilon values must be finite and positive, got {eps_list}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError(f"epsilon values must strictly decrease, got {eps_list}")
    return eps_list


def sweep(spec: PerturbationSpec, eps_values, bracket, tol: float = RESIDUAL_TOL,
          steps: int | None = None, *, on_scan=None):
    """Certified fixed points at each epsilon, as lazy (eps, certificates).

    The epsilon list is checked here, before any search
    (`check_eps_values`).  The searches run only as the result is
    iterated, so a consumer that stops at the first failing epsilon
    searches no further.
    `on_scan` is passed to each `find_fixed_points`.
    """
    eps_list = check_eps_values(eps_values)
    return ((eps, find_fixed_points(with_epsilon(spec, eps), bracket, tol, steps,
                                    on_scan=on_scan))
            for eps in eps_list)


def run_to_json(eps: float, certs) -> dict:
    """JSON form of one epsilon's search, as the CLI prints it."""
    return {"epsilon": eps, "fixed_points": [dict(vars(c)) for c in certs]}


def continuation_to_json(predicted_root: float, rows) -> dict:
    """JSON form of one tracked root's continuation rows."""
    return {"predicted_root": predicted_root,
            "rows": [row._asdict() for row in rows]}


def continuation_check(spec: PerturbationSpec, eps_values, predicted_root: float,
                       bracket=None, tol: float = RESIDUAL_TOL,
                       steps: int | None = None) -> list[ContinuationRow]:
    """Track the fixed point nearest a predicted radius while eps decreases.

    Searches each epsilon in turn (`sweep`) and checks the rows as
    `continuation_rows` does.
    """
    if not 0 < predicted_root < math.inf:
        raise ValueError("predicted_root must be positive and finite")
    if bracket is None:
        bracket = simulation_bracket([predicted_root])
    return continuation_rows(sweep(spec, eps_values, bracket, tol, steps),
                             predicted_root)


def continuation_rows(runs, predicted_root: float) -> list[ContinuationRow]:
    """Rows of the fixed point nearest a predicted radius, one per epsilon.

    `runs` yields (epsilon, certificates) in strictly decreasing epsilon.
    The nearest fixed point must lie within half the predicted radius, and
    the gap sequence |r* - predicted| must be non-increasing within 20%
    slack (plus a 1e-9 floor for gaps already at integrator noise level).
    """
    rows: list[ContinuationRow] = []
    for eps, certs in runs:
        if not certs:
            raise ContinuationError(f"no fixed point found at eps={eps:g}")
        nearest = min(certs, key=lambda c: abs(c.r_star - predicted_root))
        gap = float(abs(nearest.r_star - predicted_root))
        if gap > 0.5 * predicted_root:
            raise ContinuationError(
                f"nearest fixed point {nearest.r_star:.6g} is {gap:.3g} away from "
                f"predicted {predicted_root:.6g} at eps={eps:g}"
            )
        rows.append(ContinuationRow(eps, nearest.r_star, gap))

    for prev, cur in zip(rows, rows[1:]):
        if cur.gap > 1.2 * prev.gap + 1e-9:
            raise ContinuationError(
                f"gap grew from {prev.gap:.3e} (eps={prev.epsilon:g}) to "
                f"{cur.gap:.3e} (eps={cur.epsilon:g})"
            )
    return rows
