"""Poincare return map of the perturbed center in polar form.

Dividing the radial by the angular velocity gives, while the angular
speed stays positive,

    dr/dtheta = eps * sum_j b_j F_j(theta) r^a_j
                / (1 + eps * sum_j b_j G_j(theta) r^(a_j - 1)),

with (F_j, G_j) the radial/transverse circle profiles of field j.  The
quotient is kept exact (no small-eps truncation).  One revolution of a
fixed-step RK4 integration yields the return map P; its fixed points
are the periodic orbits crossing the positive x-axis.

The signed fractional powers of the fields lose smoothness on the axes,
where uniform RK4 drops to order ~2.5.  A spec with such a term
therefore runs on a quadrant-graded mesh: each quadrant k is crossed as
theta = (pi/2)(k + sigma(u)), u in [0, 1], with the quintic
sigma(u) = u^3 (10 - 15u + 6u^2), whose first two derivatives vanish at
both ends, and the radial profile carries the factor sigma'(u)
(Sidi's endpoint transformation, 1993).  RK4 then observes order 4
again.  Specs made only of ordinary monomials keep the uniform mesh.

Without an explicit `steps` every revolution's count is chosen by one
rule (`_revolve`): run at a start count and, while the Richardson
estimate |P_N - P_N/2| / 15 exceeds the caller's target, double the
count, up to MAX_STEPS; each level serves as the next one's half pass.
A Newton cell of the fixed-point search starts at BASE_STEPS, a scan
node it settles at twice the scan's count, and a lone revolution
(`return_map`) at REVOLUTION_STEPS, so that most radii need no second
level and its cost depends little on its radius.  An explicit `steps`
pins every revolution to that count.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    AngularMonotonicityError,
    ContinuationError,
    GuardBoundError,
    SpecError,
)
from .fields import PerturbationSpec, angular_components, normalize_ccw, with_epsilon
from .roots import check_bracket

log = logging.getLogger(__name__)

GUARD = (1e-4, 1e4)
#: First resolution of a Newton cell whose step count is chosen.
BASE_STEPS = 512
#: First resolution of a lone revolution whose step count is chosen.
REVOLUTION_STEPS = 4096
#: Largest step count the error estimate may choose.
MAX_STEPS = 2 ** 16
#: Default largest |P(r*) - r*| a fixed point may have to be certified.
RESIDUAL_TOL = 1e-10
#: Radii in the log-spaced scan of a fixed-point search.
SCAN_POINTS = 200

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
    steps: int
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


class _Tables(NamedTuple):
    steps: int                     # resolution the grid was built for
    thetas: np.ndarray             # angle of each node, for error messages
    alphas: tuple[float, ...]
    radial: tuple                  # per field, on the half-step grid
    transverse: tuple


def _ordinary(term) -> bool:
    """An ordinary monomial: integer exponents, signed exactly when odd."""
    return all(e.denominator == 1 and signed == bool(e.numerator % 2)
               for e, signed in ((term.x_exp, term.x_signed),
                                 (term.y_exp, term.y_signed)))


@lru_cache(maxsize=64)
def _tables(fields, steps: int) -> _Tables:
    # Half-step grid so every RK4 stage angle is a precomputed node.
    if all(_ordinary(t) for f in fields for t in f.f_terms + f.g_terms):
        thetas = np.linspace(0.0, 2.0 * math.pi, 2 * steps + 1)
        weight = 1.0
    else:
        # steps // 2 half steps per quadrant, so the axes are nodes
        per = steps // 2
        j = np.arange(2 * steps + 1)
        k = np.minimum(j // per, 3)
        u = (j - k * per) / per
        thetas = 0.5 * math.pi * (k + u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u))
        weight = 30.0 * u * u * (1.0 - u) ** 2
    # Python floats: scalar arithmetic on numpy scalars is ~2x slower.
    # Counts above BASE_STEPS other than REVOLUTION_STEPS serve only the
    # few revolutions a stiff orbit chooses, where packed doubles take a
    # quarter of the memory.
    if steps <= BASE_STEPS or steps == REVOLUTION_STEPS:
        def row(values):
            return tuple(np.asarray(values, dtype=float).tolist())
    else:
        def row(values):
            return array("d", np.asarray(values, dtype=float).tobytes())
    radial, transverse = [], []
    for field in fields:
        fr, ft = angular_components(field, thetas)
        radial.append(row(fr * weight))
        transverse.append(row(ft))
    alphas = tuple(float(f.alpha) for f in fields)
    return _Tables(steps, thetas, alphas, tuple(radial), tuple(transverse))


def _check_steps(steps):
    if steps is None:
        return
    if steps < 8 or steps % 8 != 0:
        raise ValueError(
            f"steps must be a multiple of 8 (axis-angle panel alignment at both "
            f"resolutions), got {steps}"
        )


def _integrate_scalar(spec: PerturbationSpec, tabs: _Tables, r0: float,
                      substeps: int) -> tuple[float, float]:
    """RK4 over one revolution with `substeps` steps; returns (r1, min speed)."""
    fields = tuple(zip(tabs.alphas, [spec.epsilon * bj for bj in spec.b],
                       tabs.radial, tabs.transverse))
    stride = tabs.steps // substeps           # table intervals per half step
    h = 2.0 * math.pi / substeps
    lo, hi = GUARD
    min_den = math.inf

    def rhs(idx: int, r: float) -> float:
        nonlocal min_den
        if not lo < r < hi:
            raise GuardBoundError(
                f"radius {r:.6g} left the window ({lo:g}, {hi:g}) near "
                f"theta={tabs.thetas[idx]:.6g}"
            )
        num = dacc = 0.0
        for a, e, fr, tr in fields:
            ra = r ** a
            num += e * fr[idx] * ra
            dacc += e * tr[idx] * ra
        den = 1.0 + dacc / r
        if den <= 0.0:
            raise AngularMonotonicityError(
                f"angular speed {den:.3e} <= 0 at theta="
                f"{tabs.thetas[idx]:.6g}, r={r:.6g}"
            )
        if den < min_den:
            min_den = den
        return num / den

    r = float(r0)
    for base in range(0, 2 * stride * substeps, 2 * stride):
        mid = base + stride
        k1 = rhs(base, r)
        k2 = rhs(mid, r + 0.5 * h * k1)
        k3 = rhs(mid, r + 0.5 * h * k2)
        k4 = rhs(base + 2 * stride, r + h * k3)
        r += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    if not lo < r < hi:
        raise GuardBoundError(f"final radius {r:.6g} left the window ({lo:g}, {hi:g})")
    return r, min_den


def _integrate_tangent(spec: PerturbationSpec, tabs: _Tables, r0: float,
                       substeps: int) -> tuple[float, float]:
    """RK4 over one revolution carrying the tangent s = dr/dr0; returns (r1, s1).

    Each stage also evaluates df/dr, so s follows the variational equation
    s' = (df/dr) s through the same RK4 stages.  Differentiating the RK4
    stages by r0 gives exactly these stages, so s1 is the exact derivative
    of the discrete map r0 -> r1, and r1 is bit-identical to
    `_integrate_scalar`'s.  Raises like `_integrate_scalar`.
    """
    al = tabs.alphas
    fields = tuple(zip(al, [a - 1.0 for a in al],
                       [spec.epsilon * bj for bj in spec.b],
                       tabs.radial, tabs.transverse))
    stride = tabs.steps // substeps
    h = 2.0 * math.pi / substeps
    lo, hi = GUARD

    def rhs(idx: int, r: float) -> tuple[float, float]:
        if not lo < r < hi:
            raise GuardBoundError(
                f"radius {r:.6g} left the window ({lo:g}, {hi:g}) near "
                f"theta={tabs.thetas[idx]:.6g}"
            )
        # f = num / den with num = sum t_j, den = 1 + sum u_j / r, so
        # num' = sum a_j t_j / r and den' = sum (a_j - 1) u_j / r^2.
        num = dacc = dnum = ddacc = 0.0
        for a, am, e, fr, tr in fields:
            ra = r ** a
            t = e * fr[idx] * ra
            u = e * tr[idx] * ra
            num += t
            dacc += u
            dnum += a * t
            ddacc += am * u
        den = 1.0 + dacc / r
        if den <= 0.0:
            raise AngularMonotonicityError(
                f"angular speed {den:.3e} <= 0 at theta="
                f"{tabs.thetas[idx]:.6g}, r={r:.6g}"
            )
        f = num / den
        return f, (dnum / r - f * ddacc / (r * r)) / den

    r = float(r0)
    s = 1.0
    for n in range(substeps):
        base = 2 * stride * n
        k1, d1 = rhs(base, r)
        l1 = d1 * s
        k2, d2 = rhs(base + stride, r + 0.5 * h * k1)
        l2 = d2 * (s + 0.5 * h * l1)
        k3, d3 = rhs(base + stride, r + 0.5 * h * k2)
        l3 = d3 * (s + 0.5 * h * l2)
        k4, d4 = rhs(base + 2 * stride, r + h * k3)
        l4 = d4 * (s + h * l3)
        r += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        s += h * (l1 + 2.0 * l2 + 2.0 * l3 + l4) / 6.0
    if not lo < r < hi:
        raise GuardBoundError(f"final radius {r:.6g} left the window ({lo:g}, {hi:g})")
    return r, s


def _integrate_batch(spec: PerturbationSpec, tabs: _Tables, r0: np.ndarray,
                     substeps: int):
    """Vectorized RK4 over a batch of start radii.

    Returns (r1, status).  A row that leaves the guard window or loses
    angular speed is tagged with its first failure (at one stage a guard
    exit wins over a lost speed) and carries NaN.  Failed rows keep being
    integrated on garbage; the cumulative `alive` mask keeps their later
    failures from overwriting the first.
    """
    nf = len(tabs.alphas)
    nodes = 2 * tabs.steps + 1
    alphas = np.asarray(tabs.alphas)[:, None]
    eb = spec.epsilon * np.asarray(spec.b, dtype=float)[:, None]
    # eps*b folded in once: row idx holds the (2, nf) radial and transverse
    # weights of stage angle idx, so one product gives num and den.
    weights = np.ascontiguousarray(np.stack([
        eb * np.reshape(tabs.radial, (nf, nodes)),
        eb * np.reshape(tabs.transverse, (nf, nodes)),
    ]).transpose(2, 0, 1))
    stride = tabs.steps // substeps
    h = 2.0 * math.pi / substeps
    lo, hi = GUARD

    r = np.array(r0, dtype=float, copy=True)
    status = np.zeros(r.shape, dtype=int)
    alive = np.ones(r.shape, dtype=bool)

    def rhs(idx: int, rr: np.ndarray) -> np.ndarray:
        num, dacc = weights[idx] @ rr ** alphas
        den = 1.0 + dacc / rr
        in_window = (rr > lo) & (rr < hi)
        ok = in_window & (den > 0.0)
        # _STATUS_GUARD outside the window, else _STATUS_SPEED (one less)
        np.copyto(status, _STATUS_GUARD - in_window, where=alive & ~ok)
        np.logical_and(alive, ok, out=alive)
        return num / den

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for n in range(substeps):
            base = 2 * stride * n
            k1 = rhs(base, r)
            k2 = rhs(base + stride, r + 0.5 * h * k1)
            k3 = rhs(base + stride, r + 0.5 * h * k2)
            k4 = rhs(base + 2 * stride, r + h * k3)
            r = r + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not alive.any():    # once per step, not per stage
                break
        np.copyto(status, _STATUS_GUARD, where=alive & ~((r > lo) & (r < hi)))
    return np.where(status == _STATUS_OK, r, np.nan), status


def _revolve(spec: PerturbationSpec, kernel, r0: float, start: int, tol: float,
             steps: int | None = None, *, half: float | None = None, done=None):
    """One revolution of r0 by `kernel`, at `steps` or a count chosen by accuracy.

    `kernel(spec, tables, r0, n)` returns a pair whose first item is P(r0).
    Without `steps` it runs at `start` steps and, while the Richardson
    estimate |P - half| / 15 is not within tol (a NaN is not), at twice the
    last count, up to MAX_STEPS; each level's P is the next level's half
    pass (the tables nest, so it equals a revolution pinned at that
    count).  The first half pass is `half`, or a scalar revolution at half
    the first count.  `done(r0, n, pair, half)`, if given, may stop the
    doubling earlier.  Returns (n, pair, half) of the last level.
    """
    n = steps or start
    tabs = _tables(spec.fields, n)
    out = kernel(spec, tabs, r0, n)
    if half is None:
        half, _ = _integrate_scalar(spec, tabs, r0, n // 2)
    while (steps is None and n < MAX_STEPS and not abs(out[0] - half) / 15.0 <= tol
           and not (done and done(r0, n, out, half))):
        n, half = 2 * n, out[0]
        out = kernel(spec, _tables(spec.fields, n), r0, n)
    return n, out, half


def return_map(spec: PerturbationSpec, r0: float,
               steps: int | None = None) -> ReturnMapSample:
    """P(r0) after one revolution, with a step-halving error estimate.

    Fixed-step RK4 (panels aligned with the axis angles) plus a
    half-resolution pass; the fourth-order Richardson estimate
    |P_full - P_half| / 15 is attached to the sample.  Without `steps`
    the count starts at REVOLUTION_STEPS and doubles while the estimate
    exceeds RESIDUAL_TOL (`_revolve`).
    """
    _check_steps(steps)
    spec = normalize_ccw(spec)
    if not 0 < r0 < math.inf:
        raise ValueError(f"start radius must be positive and finite, got {r0}")
    n, (r1, min_den), half = _revolve(spec, _integrate_scalar, r0,
                                      REVOLUTION_STEPS, RESIDUAL_TOL, steps)
    return ReturnMapSample(r0=float(r0), r1=r1, min_theta_speed=min_den,
                           steps=n, error_estimate=abs(r1 - half) / 15.0)


def scan_return_map(spec: PerturbationSpec, bracket, scan_points: int = SCAN_POINTS,
                    steps: int = BASE_STEPS):
    """Evaluate the return map on a log-spaced grid; returns (r0, r1, status)."""
    _check_steps(steps)
    spec = normalize_ccw(spec)
    lo, hi = check_bracket(bracket)
    grid = np.logspace(math.log10(lo), math.log10(hi), scan_points)
    tabs = _tables(spec.fields, steps)
    r1, status = _integrate_batch(spec, tabs, grid, steps)
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


def _newton_in_cell(pmap, a: float, b: float, ga: float, gb: float):
    """Safeguarded Newton on g(r) = P(r) - r inside a sign-change cell [a, b].

    `pmap(r)` returns (P(r), P'(r)).  Starts at the secant point of the
    endpoint values, keeps the bracket, and bisects whenever a Newton step
    leaves it or is not finite.  Stops once the next step is at most
    1e-12 r and returns (r, g(r), P'(r)) of the last evaluated point.
    A degenerate cell (a == b, a zero-displacement node) is evaluated once.
    """
    x = (a * gb - b * ga) / (gb - ga) if a < b else a
    if not a <= x <= b:
        x = 0.5 * (a + b)
    for _ in range(100):
        p, dp = pmap(x)
        g = p - x
        evaluated = (x, g, dp)
        if (g > 0.0) == (ga > 0.0):
            a, ga = x, g
        else:
            b, gb = x, g
        slope = dp - 1.0
        x_new = x - g / slope if slope != 0.0 else math.nan
        if not a <= x_new <= b:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= 1e-12 * x:
            break
        x = x_new
    return evaluated


def _settle_scan(spec: PerturbationSpec, grid: np.ndarray, r1: np.ndarray,
                 status: np.ndarray, r1_half: np.ndarray, coarse: int, steps,
                 tol: float):
    """Finer values and statuses wherever a coarse scan may be wrong.

    `r1`, `status` come from a scan of `grid` at `coarse` steps and
    `r1_half` from the same scan at half of them.  Two kinds of node are
    integrated again with the scalar kernel:

    - an OK node whose displacement |r1 - r0| does not exceed its own
      coarse-versus-half difference (a failed half pass gives no difference,
      so the node is settled too);
    - a failed node next to an OK one, repeated outward while the settled
      nodes turn out OK, so a band that only the coarse steps lose is
      recovered node by node.

    A pinned `steps` settles each such node at `steps`.  Otherwise it
    runs `_revolve` from 2 * coarse steps with the coarse value as the
    first half pass, against `tol` (a displacement that small is a fixed
    point to the search's accuracy), and stops early once its sign is
    trusted by the same rule; a node that still fails at BASE_STEPS
    stays failed.  Returns new (r1, status) arrays.
    """
    def node(spec, tabs, r0, n):
        try:
            return _integrate_scalar(spec, tabs, r0, n)[0], _STATUS_OK
        except AngularMonotonicityError:
            return math.nan, _STATUS_SPEED
        except GuardBoundError:
            return math.nan, _STATUS_GUARD

    def done(r0, n, out, half):
        r, st = out
        return abs(r - r0) > abs(r - half) if st == _STATUS_OK else n >= BASE_STEPS

    r1, status = r1.copy(), status.copy()
    n = len(grid)
    ok = status == _STATUS_OK
    with np.errstate(invalid="ignore"):
        trusted = np.abs(r1 - grid) > np.abs(r1 - r1_half)
    borders = ~ok & (np.r_[False, ok[:-1]] | np.r_[ok[1:], False])
    pending = np.nonzero((ok & ~trusted) | borders)[0].tolist()
    settled = set()
    while pending:
        i = pending.pop()
        if i in settled:
            continue
        settled.add(i)
        _, (r1[i], status[i]), _ = _revolve(spec, node, float(grid[i]), 2 * coarse,
                                            tol, steps, half=float(r1[i]), done=done)
        if status[i] == _STATUS_OK:
            pending += [j for j in (i - 1, i + 1)
                        if 0 <= j < n and status[j] != _STATUS_OK]
    return r1, status


def find_fixed_points(spec: PerturbationSpec, bracket, tol: float = RESIDUAL_TOL,
                      steps: int | None = None, *,
                      on_scan=None) -> list[LimitCycleCertificate]:
    """Certified fixed points of the return map inside the bracket.

    Scans a log-spaced grid of `SCAN_POINTS` radii for sign changes of
    P(r) - r and refines each cell by safeguarded Newton on the RK4
    variational equation.  The scan only has to place the sign changes,
    so it runs at about N / 8, with N = `steps` or BASE_STEPS, and a pass
    at half that to estimate each node's error; nodes whose sign or
    status that resolution cannot be trusted with are integrated again
    (`_settle_scan`).  `on_scan`, if given, receives the settled scan as
    (grid, r1, status).

    Newton runs at `steps`; without it, each cell's count is chosen once,
    at its secant start point, by `_revolve` from BASE_STEPS against
    `tol`, and that revolution is also Newton's first evaluation.  The
    coarse scan moves only Newton's start point: the certificate's residual and map
    derivative come from the last Newton revolution, and the derivative
    is the exact derivative of the discrete map.  Failing scan nodes are
    summarized in one warning per scan; failing cells (guard exits, lost
    angular monotonicity, residual above tol) are logged and skipped; an
    empty list is a legitimate outcome.  With every b_j zero the map is
    the identity, which has no isolated fixed point, so nothing is
    integrated.
    """
    if spec.epsilon == 0.0:
        raise SpecError("fixed-point search requires epsilon != 0")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    _check_steps(steps)
    check_bracket(bracket)
    if all(bj == 0.0 for bj in spec.b):
        return []
    spec = normalize_ccw(spec)
    # a multiple of 8 near N / 8, so its half pass keeps the axis-angle
    # alignment too
    coarse = max(8, (steps or BASE_STEPS) // 64 * 8)
    grid, r1, status = scan_return_map(spec, bracket, SCAN_POINTS, coarse)
    r1_half, _ = _integrate_batch(spec, _tables(spec.fields, coarse), grid,
                                  coarse // 2)
    r1, status = _settle_scan(spec, grid, r1, status, r1_half, coarse, steps, tol)
    if on_scan is not None:
        on_scan((grid, r1, status))
    failed = {name: int(np.count_nonzero(status == code))
              for code, name in _STATUS_NAMES.items()}
    if any(failed.values()):
        log.warning("scan of %d radii in [%.6g, %.6g]: %d failed (%s)",
                    len(grid), grid[0], grid[-1], sum(failed.values()),
                    ", ".join(f"{name} {count}" for name, count in failed.items()))

    def cell_map():
        """P and P' for one cell, at `steps` or at the count `_revolve`
        chooses at the cell's first point, which is Newton's first."""
        n = steps

        def pmap(r: float) -> tuple[float, float]:
            nonlocal n
            if n is None:
                n, first, _ = _revolve(spec, _integrate_tangent, r, BASE_STEPS, tol)
                return first
            return _integrate_tangent(spec, _tables(spec.fields, n), r, n)

        return pmap

    certificates = []
    for a, b, ga, gb in _sign_change_cells(grid, r1 - grid, status == _STATUS_OK):
        try:
            r_star, g, deriv = _newton_in_cell(cell_map(), a, b, ga, gb)
        except (GuardBoundError, AngularMonotonicityError) as exc:
            log.warning("cell [%.6g, %.6g]: %s", a, b, exc)
            continue
        residual = abs(g)
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


def sweep(spec: PerturbationSpec, eps_values, bracket, tol: float = RESIDUAL_TOL,
          steps: int | None = None, *, on_scan=None):
    """Certified fixed points at each epsilon, as lazy (eps, certificates).

    The epsilon list is checked here, before any search: it must be
    non-empty, every value finite and positive, and the list strictly
    decreasing.  The searches run only as the result is iterated, so a
    consumer that stops at the first failing epsilon searches no further.
    `on_scan` is passed to each `find_fixed_points`.
    """
    eps_list = [float(e) for e in eps_values]
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ValueError(f"epsilon values must be finite and positive, got {eps_list}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError(f"epsilon values must strictly decrease, got {eps_list}")
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
