"""First-order averaging of the radial drift around a linear center.

For a ccw spec the radial displacement per revolution is, to first
order in epsilon, 2*pi*epsilon*h(r) where

    h(z) = sum_j (b[j] * I[j] / (2*pi)) * z**alpha[j],

and I[j] integrates the radial component of field j around the unit
circle.  Simple positive zeros of h are the radii that persist as
isolated periodic orbits for small epsilon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CycleAvgError, SpecError
from .fields import HomogeneousField, PerturbationSpec, normalize_ccw


def _quarter_moment(a, b, c=1.0, scale=1.0) -> float:
    """c * M * scale with M = int_0^{pi/2} cos^a sin^b, for a, b >= 0.

    M = B((a+1)/2, (b+1)/2) / 2 is evaluated through log-gamma, which
    stays finite for every degree a spec accepts (math.gamma overflows
    once (a+1)/2 passes ~171).  An M below the smallest normal double
    takes log|c| and log(scale) into its exponent, so that c M scale does
    not underflow with M.
    """
    p, q = 0.5 * (float(a) + 1.0), 0.5 * (float(b) + 1.0)
    log_m = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    m = 0.5 * math.exp(log_m)
    if m >= sys.float_info.min or c == 0.0:
        return c * m * scale
    return math.copysign(
        0.5 * math.exp(log_m + math.log(abs(c)) + math.log(scale)), c)


def _class_sum(members, total) -> float:
    """sum c M(p, total - p) over a class of terms; 0.0 when they cancel.

    Each M is an exact rational multiple rho of the class's largest moment
    M_ref, by M(p + 2, q - 2) = M(p, q) (p + 1) / (q - 1) and, for integers
    with p + q odd, Wallis: M(p + 1, q - 1) / M(p, q) = prod (m - 1) / m,
    m = p + 2, p + 4, ... < q.  With each rho rounded once (or c rho, where
    rho alone would underflow), sum c rho is 0 within its rounding bound
    gamma_n sum |c rho|, n = 2 per term, or the class sums to
    M_ref fsum(c rho): value and verdict share one sum.
    """
    # exponents as integers s in units of 1/d, so q = (t - s) / d
    d = math.lcm(total.denominator, *(p.denominator for _, p, _ in members))
    t, scaled = int(total * d), sorted((int(p * d), c) for c, p, _ in members)
    lo, hi = scaled[0][0], scaled[-1][0]
    if lo + hi > t:     # M(p, q) = M(q, p) grows with |p - q|: start at hi
        scaled, lo = sorted((t - s, c) for s, c in scaled), t - hi
    chains, cr = {0: (lo, 1, 1)}, []    # per parity: s, rho = num / den <= 1
    for s, c in scaled:
        k = (s - lo) // d % 2           # 1 only for integers with t odd
        if k not in chains:             # Wallis
            chains[1] = (lo + 1, math.prod(range(lo + 1, t - lo - 1, 2)),
                         math.prod(range(lo + 2, t - lo, 2)))
        at, num, den = chains[k]        # (p + 1) / (q - 1) per step of 2
        num *= math.prod(range(at + d, s + d, 2 * d))
        den *= math.prod(range(t - at - d, t - s - d, -2 * d))
        chains[k] = s, num, den
        rho = num / den
        if rho >= sys.float_info.min:
            cr.append(c * rho)
        else:                           # round c rho once, not rho to 0
            cn, cd = c.as_integer_ratio()
            cr.append(cn * num / (cd * den))
    scale = 2.0 ** max(0, math.frexp(max(map(abs, cr)))[1] - 1)  # fsum < inf
    cr = [v / scale for v in cr]
    nu, total_cr = len(cr) * math.ulp(1.0), math.fsum(cr)   # nu = n u
    if abs(total_cr) <= nu / (1 - nu) * math.fsum(map(abs, cr)):
        return 0.0
    return _quarter_moment(lo / d, (t - lo) / d, total_cr, scale)


def angular_integral(field: HomogeneousField) -> float:
    """Integral of the field's radial component f cos + g sin over one revolution.

    On each quarter turn an f term c p(x, a, sx) p(y, b, sy) contributes
    +-c |cos|^(a+1) |sin|^b.  The four quadrant signs cancel unless the term
    is odd in x and even in y, leaving 4c M(a+1, b) with M the quarter-turn
    moment; a g term likewise leaves 4c M(a, b+1) when odd in y and even in
    x.  All such M(p, q) have p + q = alpha + 1; a class of exact rational
    multiples holds the terms whose p differ by an even integer, or all
    integer p when alpha + 1 is odd (one class, for monomials).
    `_class_sum` adds a class of two or more terms, exactly 0.0 when it
    cancels.  Assumed: no cancellation across classes is structural.
    """
    terms = ([(t.coeff, t.x_exp + 1, t.y_exp) for t in field.f_terms
              if t.x_signed and not t.y_signed],
             [(t.coeff, t.x_exp, t.y_exp + 1) for t in field.g_terms
              if t.y_signed and not t.x_signed])
    rational = field.alpha.denominator == 1 and field.alpha.numerator % 2 == 0
    classes = {}            # p mod 2 as (num, den), or None for all integers
    for c, p, q in terms[0] + terms[1]:
        key = (None if rational and p.denominator == 1
               else (p.numerator % (2 * p.denominator), p.denominator))
        classes.setdefault(key, []).append((c, p, q))
    grouped = [members for members in classes.values() if len(members) > 1]
    f_part, g_part = (sum(_quarter_moment(p, q, c) for c, p, q in part
                          if not any((c, p, q) in m for m in grouped))
                      for part in terms)
    return 4.0 * (f_part + g_part + sum(_class_sum(m, field.alpha + 1) for m in grouped))


@dataclass(frozen=True)
class AveragedFunction:
    """h(z) = sum_j coefficients[j] * z**exponents[j], for z > 0."""

    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(e) for e in self.exponents))
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))
        if len(self.exponents) != len(self.coefficients):
            raise SpecError("exponents and coefficients must have equal length")
        if any(e2 <= e1 for e1, e2 in zip(self.exponents, self.exponents[1:])):
            raise SpecError("exponents must strictly increase")
        if any(e < 0 for e in self.exponents):
            raise SpecError("exponents must be >= 0")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if not np.all((z > 0) & (z < np.inf)):
            raise ValueError("averaged function is defined for finite z > 0")
        logz = np.log(z)
        acc = np.zeros_like(z)
        for e, c in zip(self.exponents, self.coefficients):
            acc += c * np.exp(e * logz)
        return float(acc) if acc.ndim == 0 else acc


@dataclass(frozen=True)
class Averaged:
    """Angular integrals of a ccw-normalized spec; `keep` (the nonzero
    ones), h and the lower bound follow.  The integrals do not depend on
    b, so a retuned spec reuses them (see pipeline.retune_b)."""

    spec: PerturbationSpec
    integrals: tuple[float, ...]

    def __post_init__(self):
        if self.spec.orientation != "ccw":
            raise SpecError("Averaged expects a ccw-normalized spec; "
                            "use average(spec)")

    @property
    def keep(self) -> tuple[bool, ...]:
        return tuple(v != 0.0 for v in self.integrals)

    @property
    def h(self) -> AveragedFunction:
        """h without the terms whose integral is structurally zero or b == 0.
        A coefficient b_j I_j / 2 pi that overflows raises CycleAvgError
        naming its field, as no root can be isolated with it."""
        terms = [(j, float(f.alpha), bj * ij / (2.0 * math.pi))
                 for j, (f, bj, ij, nz) in enumerate(zip(self.spec.fields, self.spec.b,
                                                         self.integrals, self.keep))
                 if nz and bj != 0.0]
        for j, _, c in terms:
            if not math.isfinite(c):
                raise CycleAvgError(f"the coefficient b_{j} I_{j} / 2 pi of field {j} "
                                    f"in h is not finite ({c})")
        return AveragedFunction(tuple(e for _, e, _ in terms),
                                tuple(c for _, _, c in terms))

    @property
    def lower_bound(self) -> int:
        """Cycles guaranteed realizable by tuning b: (#nonzero I) - 1, >= 0.

        Orientation-independent: the diagonal reflection that normalizes a
        cw spec maps theta -> pi/2 - theta and keeps every integral.
        """
        return max(sum(self.keep) - 1, 0)


def average(spec: PerturbationSpec) -> Averaged:
    """Angular integrals of the ccw-normalized spec.  An integral that
    overflows raises CycleAvgError naming its field, since no root or
    search can use it."""
    work = normalize_ccw(spec)
    integrals = tuple(angular_integral(f) for f in work.fields)
    for j, value in enumerate(integrals):
        if not math.isfinite(value):
            raise CycleAvgError(f"the angular integral of field {j} is not finite ({value})")
    return Averaged(work, integrals)


def integrals_to_json(avg: Averaged) -> dict:
    """The integrals, which of them are nonzero, and the bound they give."""
    return {"integrals": list(avg.integrals), "nonzero": list(avg.keep),
            "lower_bound": avg.lower_bound}
