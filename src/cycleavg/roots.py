"""Positive zeros of generalized polynomials sum c_j z^(e_j).

Power tuples with distinct exponents form an extended Chebyshev system
on (0, inf), so the number of positive zeros never exceeds the number
of sign changes in the coefficient sequence.  The finder pairs a
log-spaced sign scan with bisection and annotates each zero with a
topological degree over its isolating interval, which is the part that
survives as a limit-cycle count under perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import AveragedFunction
from .errors import RootError, SynthesisError

DEFAULT_BRACKET = (1e-6, 1e3)
SCAN_POINTS = 10_000


def check_bracket(bracket) -> tuple[float, float]:
    """(lo, hi) as floats; ValueError unless 0 < lo < hi < inf."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket}")
    return lo, hi


def descartes_bound(h: AveragedFunction) -> int:
    """Sign changes in the coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in h.coefficients if c != 0.0]
    return sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))


@dataclass(frozen=True)
class PositiveRoot:
    z: float
    derivative_sign: int
    interval_degree: int
    bracket: tuple[float, float]


def root_to_json(root: PositiveRoot) -> dict:
    """JSON form of a positive root, as the CLI prints it."""
    return {"z": root.z, "derivative_sign": root.derivative_sign,
            "interval_degree": root.interval_degree}


@dataclass(frozen=True)
class RootReport:
    roots: tuple[PositiveRoot, ...]
    descartes_bound: int
    bracket: tuple[float, float]

    @property
    def count(self) -> int:
        return len(self.roots)


def _bisect_to_zero(h, lo: float, hi: float, abs_tol: float) -> float:
    """Bisect a sign-change cell down to relative machine width.

    The returned point must satisfy |h| <= abs_tol, otherwise the cell is
    declared unresolvable (e.g. a near-tangency the scan misread).
    """
    flo = float(h(lo))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * np.finfo(float).eps * mid:
            break
        fmid = float(h(mid))
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    z = 0.5 * (lo + hi)
    if abs(float(h(z))) > abs_tol:
        raise RootError(
            f"bisection stalled at z={z:.9g} with |h|={abs(float(h(z))):.3e} > "
            f"abs_tol={abs_tol:.1e}"
        )
    return z


def _derivative_sign(h, z: float) -> int:
    step = 1e-6 * z
    diff = float(h(z + step)) - float(h(z - step))
    return 1 if diff > 0 else (-1 if diff < 0 else 0)


def positive_roots(h: AveragedFunction, bracket=DEFAULT_BRACKET,
                   abs_tol: float = 1e-9) -> RootReport:
    """Locate positive zeros of h inside the bracket.

    Log-spaced scan for sign changes, bisection inside each cell, then a
    derivative sign (central difference) and the interval degree of the
    isolating cell for every zero found.  The count is checked against
    the sign-change bound; exceeding it is a numerical contradiction and
    raises rather than returns.
    """
    lo, hi = check_bracket(bracket)
    bound = descartes_bound(h)
    if all(c == 0.0 for c in h.coefficients):
        return RootReport((), bound, (lo, hi))

    zs = np.logspace(math.log10(lo), math.log10(hi), SCAN_POINTS)
    vals = np.asarray(h(zs))
    signs = np.sign(vals)

    roots: list[PositiveRoot] = []
    last_sign = 0
    last_idx = -1
    for idx in range(SCAN_POINTS):
        sign = int(signs[idx])
        if sign == 0:
            # Grid point is an exact zero; degree from the flanking signs.
            nxt = next((int(s) for s in signs[idx + 1:] if s != 0), 0)
            cell = (float(zs[max(idx - 1, 0)]), float(zs[min(idx + 1, SCAN_POINTS - 1)]))
            roots.append(PositiveRoot(float(zs[idx]), _derivative_sign(h, zs[idx]),
                                      (nxt - last_sign) // 2, cell))
            last_sign, last_idx = 0, idx
            continue
        if last_sign != 0 and sign != last_sign:
            a, b = float(zs[last_idx]), float(zs[idx])
            z = _bisect_to_zero(h, a, b, abs_tol)
            deg = (sign - last_sign) // 2
            roots.append(PositiveRoot(z, _derivative_sign(h, z), deg, (a, b)))
        last_sign, last_idx = sign, idx

    if len(roots) > bound:
        raise RootError(
            f"scan found {len(roots)} zeros but the sign-change bound is {bound}"
        )
    return RootReport(tuple(roots), bound, (lo, hi))


def synthesize_coefficients(exponents, targets,
                            cond_limit: float = 1e12) -> tuple[float, ...]:
    """Coefficients giving h exactly the prescribed positive zeros.

    With n+1 exponents and n targets the top coefficient is pinned to
    (-1)**n, so h is negative beyond the largest zero when the count is
    odd (attracting outermost cycle convention), and the remaining
    coefficients solve the n x n generalized Vandermonde system
    h(target_i) = 0.  Entries are assembled in log space and row-scaled
    before solving; a condition estimate above cond_limit aborts, and
    the result is verified by running the root finder back over the
    targets.
    """
    exps = [float(e) for e in exponents]
    tgts = [float(t) for t in targets]
    if len(exps) != len(tgts) + 1:
        raise ValueError(
            f"need exactly one more exponent than targets, got {len(exps)} "
            f"exponents for {len(tgts)} targets"
        )
    if any(e2 <= e1 for e1, e2 in zip(exps, exps[1:])):
        raise ValueError("exponents must strictly increase")
    if not all(0 < t1 < t2 for t1, t2 in zip(tgts, tgts[1:] + [math.inf])):
        raise ValueError(f"targets must be finite, positive and increasing, got {tgts}")

    n = len(tgts)
    top = (-1.0) ** n
    if n == 0:
        return (top,)

    logt = np.log(tgts)
    log_entries = np.outer(logt, exps[:-1])          # n x n
    log_rhs = logt * exps[-1]
    row_peak = np.maximum(log_entries.max(axis=1), log_rhs)
    mat = np.exp(log_entries - row_peak[:, None])
    rhs = -top * np.exp(log_rhs - row_peak)

    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > cond_limit:
        raise SynthesisError(
            f"generalized Vandermonde system too ill-conditioned (cond ~ {cond:.3e})"
        )
    coeffs = np.linalg.solve(mat, rhs)
    result = tuple(float(c) for c in coeffs) + (top,)

    h = AveragedFunction(tuple(exps), result)
    scale = max(
        abs(c) * max(t ** e for t in tgts) for c, e in zip(result, exps)
    )
    report = positive_roots(
        h,
        bracket=(min(tgts) / 10.0, max(tgts) * 10.0),
        abs_tol=1e-9 * scale,
    )
    found = [r.z for r in report.roots]
    ok = len(found) == n and all(
        abs(z - t) <= 1e-9 * t for z, t in zip(found, tgts)
    ) and all(r.interval_degree != 0 for r in report.roots)
    if not ok:
        raise SynthesisError(
            f"verification failed: targets {tgts}, recovered {found}"
        )
    return result
