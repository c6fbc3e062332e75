"""Positive zeros of generalized polynomials sum c_j z^(e_j).

Power tuples with distinct exponents form an extended Chebyshev system
on (0, inf), so the number of positive zeros never exceeds the number
of sign changes in the coefficient sequence.  The Rolle step of that
rule (Jameson, Math. Gazette 90, 2006) isolates the zeros exactly, and
each carries the topological degree of h over the monotone piece that
isolated it, which is what survives as a limit-cycle count under
perturbation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .averaging import AveragedFunction
from .errors import RootError, SynthesisError

DEFAULT_BRACKET = (1e-6, 1e3)


def check_bracket(bracket) -> tuple[float, float]:
    """(lo, hi) as floats; ValueError unless two values with 0 < lo < hi < inf."""
    if len(bracket) != 2:
        raise ValueError(f"bracket must be two values (lo, hi), got {bracket}")
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


@dataclass(frozen=True)
class RootReport:
    roots: tuple[PositiveRoot, ...]
    descartes_bound: int
    bracket: tuple[float, float]

    @property
    def count(self) -> int:
        return len(self.roots)


def _evaluate(terms, z: float) -> float:
    """sum c z^e, or only its sign where the plain sum overflows.

    There the terms are scaled by the largest one in log space, which
    keeps their sum's sign but not its size; the callers need only signs.
    """
    try:
        value = sum(c * z ** e for e, c in terms)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    logs = [math.log(abs(c)) + e * math.log(z) for e, c in terms]
    top = max(logs)
    value = sum(math.copysign(math.exp(v - top), c)
                for v, (_, c) in zip(logs, terms))
    if not math.isfinite(value):
        raise RootError(f"h is not finite at z={z:.9g}")
    return value


def _bisect(terms, a: float, b: float, rising: bool) -> float:
    """Zero of sum c z^e on a monotone piece (a, b), bisected to adjacent floats.

    Positive floats are ordered like their bit patterns, and each probe is
    the pattern in between with the most trailing zero bits.  The probes
    thus form one fixed binary tree, so every piece that holds the band in
    which rounding blurs the sign of the sum ends at the same float: the
    zero does not depend on the bracket.
    """
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    root = a
    while hi - lo > 1:
        shift = (lo ^ (hi - 1)).bit_length() - 1
        mid = (hi - 1) >> shift << shift
        z = struct.unpack("<d", struct.pack("<q", mid))[0]
        value = _evaluate(terms, z)
        if value == 0.0:
            return z
        if (value > 0) == rising:
            hi = mid
        else:
            lo, root = mid, z
    return root


def _odd_zeros(terms, lo: float, hi: float) -> list[PositiveRoot]:
    """Sign changes of sum c z^e on [lo, hi], in increasing order.

    Dividing by z^e0 keeps the zeros and removes a term from the derivative,
    whose own sign changes (found by recursion) cut [lo, hi] into pieces on
    which the function is monotone: a piece holds one zero exactly when its
    endpoint values have strictly opposite signs.
    """
    terms = [(e, c) for e, c in terms if c != 0.0]
    if len(terms) < 2:
        return []
    e0 = terms[0][0]
    terms = [(e - e0, c) for e, c in terms]
    slope = [(e - 1.0, c * e) for e, c in terms[1:]]
    cuts = [lo] + [r.z for r in _odd_zeros(slope, lo, hi)] + [hi]
    values = [_evaluate(terms, z) for z in cuts]
    roots = []
    for a, b, fa, fb in zip(cuts, cuts[1:], values, values[1:]):
        if fa < 0 < fb or fb < 0 < fa:
            degree = 1 if fb > 0 else -1
            roots.append(PositiveRoot(_bisect(terms, a, b, fb > 0), degree,
                                      degree))
    return roots


def positive_roots(h: AveragedFunction, bracket=DEFAULT_BRACKET) -> RootReport:
    """Locate the zeros of h of odd multiplicity inside the bracket.

    Each comes from `_odd_zeros` with its degree over the monotone piece
    that isolated it (+1 or -1, also the derivative sign).  A count above
    the sign-change bound is a numerical contradiction and raises, as
    does a non-finite value of h.
    """
    lo, hi = check_bracket(bracket)
    bound = descartes_bound(h)
    roots = _odd_zeros(zip(h.exponents, h.coefficients), lo, hi)
    if len(roots) > bound:
        raise RootError(
            f"isolated {len(roots)} zeros but the sign-change bound is {bound}"
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
    report = positive_roots(h, bracket=(min(tgts) / 10.0, max(tgts) * 10.0))
    found = [r.z for r in report.roots]
    ok = len(found) == n and all(
        abs(z - t) <= 1e-9 * t for z, t in zip(found, tgts)
    ) and all(r.interval_degree != 0 for r in report.roots)
    if not ok:
        raise SynthesisError(
            f"verification failed: targets {tgts}, recovered {found}"
        )
    return result
