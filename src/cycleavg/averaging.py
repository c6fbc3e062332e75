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
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousIntegralError, SpecError
from .fields import HomogeneousField, PerturbationSpec, normalize_ccw
from .quadrature import integrate_circle

#: Dead band of the angular integrals: |I| below INTEGRAL_TOL counts as zero,
#: above NONZERO_FACTOR*INTEGRAL_TOL as structurally nonzero; anything in
#: between is refused rather than guessed.
INTEGRAL_TOL = 1e-10
NONZERO_FACTOR = 100.0


def _quarter_moment(a, b) -> float:
    """int_0^{pi/2} cos^a sin^b = B((a+1)/2, (b+1)/2) / 2 for a, b >= 0.

    Evaluated through log-gamma, which stays finite for every degree a
    spec accepts (math.gamma overflows once (a+1)/2 passes ~171).
    """
    p, q = 0.5 * (float(a) + 1.0), 0.5 * (float(b) + 1.0)
    return 0.5 * math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def angular_integral(field: HomogeneousField) -> float:
    """Integral of the field's radial component f cos + g sin over one revolution.

    On each quarter turn an f term c p(x, a, sx) p(y, b, sy) contributes
    +-c |cos|^(a+1) |sin|^b.  The four quadrant signs cancel unless the term
    is odd in x and even in y, leaving 4c M(a+1, b) with M the quarter-turn
    moment; a g term likewise leaves 4c M(a, b+1) when odd in y and even in
    x.  Structurally zero integrals are therefore exactly 0.0.
    """
    f_part = sum(t.coeff * _quarter_moment(t.x_exp + 1, t.y_exp)
                 for t in field.f_terms if t.x_signed and not t.y_signed)
    g_part = sum(t.coeff * _quarter_moment(t.x_exp, t.y_exp + 1)
                 for t in field.g_terms if t.y_signed and not t.x_signed)
    return 4.0 * (f_part + g_part)


def classify_nonzero(values) -> list[bool]:
    """Dead-band classification of angular integrals.

    Raises AmbiguousIntegralError when a value falls between INTEGRAL_TOL
    and NONZERO_FACTOR*INTEGRAL_TOL, where a cancellation between terms that
    leaves rounding noise and a genuinely small integral cannot be told apart.
    """
    flags = []
    for idx, v in enumerate(values):
        mag = abs(v)
        if mag >= NONZERO_FACTOR * INTEGRAL_TOL:
            flags.append(True)
        elif mag < INTEGRAL_TOL:
            flags.append(False)
        else:
            raise AmbiguousIntegralError(
                f"integral {idx} has magnitude {mag:.3e}, inside the dead band "
                f"[{INTEGRAL_TOL:.1e}, {NONZERO_FACTOR * INTEGRAL_TOL:.1e}]"
            )
    return flags


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
        if np.any(z <= 0):
            raise ValueError("averaged function is defined for z > 0")
        logz = np.log(z)
        acc = np.zeros_like(z)
        for e, c in zip(self.exponents, self.coefficients):
            acc += c * np.exp(e * logz)
        return float(acc) if acc.ndim == 0 else acc


def averaged_to_json(h: AveragedFunction) -> dict:
    """JSON form of an averaged function, as the CLI prints it."""
    return {"exponents": list(h.exponents),
            "coefficients": list(h.coefficients)}


@dataclass(frozen=True)
class Averaged:
    """Angular integrals of a ccw-normalized spec and their dead-band flags,
    from which h and the lower bound follow.  The integrals do not depend
    on b, so a retuned spec reuses them (see pipeline.retune_b)."""

    spec: PerturbationSpec
    integrals: tuple[float, ...]
    keep: tuple[bool, ...]

    def __post_init__(self):
        if self.spec.orientation != "ccw":
            raise SpecError("Averaged expects a ccw-normalized spec; "
                            "use average(spec)")

    @property
    def h(self) -> AveragedFunction:
        """h without the terms whose integral is structurally zero or b == 0."""
        terms = [(float(f.alpha), bj * ij / (2.0 * math.pi))
                 for f, bj, ij, nz in zip(self.spec.fields, self.spec.b,
                                          self.integrals, self.keep)
                 if nz and bj != 0.0]
        return AveragedFunction(tuple(e for e, _ in terms),
                                tuple(c for _, c in terms))

    @property
    def lower_bound(self) -> int:
        """Cycles guaranteed realizable by tuning b: (#nonzero I) - 1, >= 0.

        Orientation-independent: the diagonal reflection that normalizes a
        cw spec maps theta -> pi/2 - theta and keeps every integral.
        """
        return max(sum(self.keep) - 1, 0)


def average(spec: PerturbationSpec) -> Averaged:
    """Angular integrals of the ccw-normalized spec and their dead-band flags."""
    work = normalize_ccw(spec)
    integrals = tuple(angular_integral(f) for f in work.fields)
    return Averaged(work, integrals, tuple(classify_nonzero(integrals)))


# ---------------------------------------------------------------------------
# Displacement function on circles of energy k
# ---------------------------------------------------------------------------

def melnikov(h: AveragedFunction, k: float) -> float:
    """First-order displacement rate on the circle x^2 + y^2 = k.

    Equals sqrt(k) * h(sqrt(k)); under the normalization documented in
    melnikov_line_integral the circulation integral is 2*pi times this.
    """
    if k <= 0:
        raise ValueError("energy level k must be positive")
    rk = math.sqrt(k)
    return rk * h(rk)


def melnikov_line_integral(spec: PerturbationSpec, k: float) -> float:
    """Circulation integral of the perturbation along x^2 + y^2 = k.

    Computes the line integral of P dy - Q dx over the circle to absolute
    tolerance 1e-12, where (P, Q) = sum_j b[j] * fields[j].  Requires a
    smooth perturbation (all exponents integer) and a ccw spec.
    Normalization: this equals 2*pi * melnikov(average(spec).h, k); the
    factor 2*pi is the angular period absorbed into the averaged
    coefficients.
    """
    if spec.orientation != "ccw":
        raise SpecError("melnikov_line_integral expects a ccw-normalized spec")
    if k <= 0:
        raise ValueError("energy level k must be positive")
    for field in spec.fields:
        for term in field.f_terms + field.g_terms:
            if term.x_exp.denominator != 1 or term.y_exp.denominator != 1:
                raise SpecError(
                    "line integral requires integer exponents (smooth perturbation)"
                )
    rk = math.sqrt(k)

    def integrand(theta):
        x = rk * np.cos(theta)
        y = rk * np.sin(theta)
        px = np.zeros_like(np.asarray(theta, dtype=float))
        qy = np.zeros_like(px)
        for bj, field in zip(spec.b, spec.fields):
            fv, gv = field.evaluate(x, y)
            px = px + bj * fv
            qy = qy + bj * gv
        return px * rk * np.cos(theta) + qy * rk * np.sin(theta)

    return integrate_circle(integrand, 1e-12)


# ---------------------------------------------------------------------------
# Wronskians of power functions x**beta
# ---------------------------------------------------------------------------

def _require_distinct(exponents):
    exps = [float(e) for e in exponents]
    if len(exps) < 1:
        raise ValueError("need at least one exponent")
    if len(set(exps)) != len(exps):
        raise ValueError(f"exponents must be distinct, got {exps}")
    return exps


def wronskian_closed_form(exponents, x: float) -> float:
    """W(x^e0, ..., x^ek) = x^S * prod_{i<j} (e[j] - e[i]), x > 0.

    S = sum(e) - k(k+1)/2.  Nonzero for distinct exponents, which is what
    makes tuples of power functions an extended Chebyshev system on (0, inf).
    """
    exps = _require_distinct(exponents)
    if x <= 0:
        raise ValueError("closed form requires x > 0")
    k = len(exps) - 1
    s = sum(exps) - k * (k + 1) / 2.0
    prod = 1.0
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            prod *= exps[j] - exps[i]
    return x ** s * prod


def wronskian_numeric(exponents, x: float) -> float:
    """Same Wronskian via the derivative matrix and an LU determinant.

    Row i holds d^i/dx^i x^e = e(e-1)...(e-i+1) x^(e-i); kept separate
    from the closed form so the two serve as mutual oracles.
    """
    exps = _require_distinct(exponents)
    if x <= 0:
        raise ValueError("numeric Wronskian requires x > 0")
    n = len(exps)
    mat = np.empty((n, n))
    for j, e in enumerate(exps):
        fall = 1.0
        for i in range(n):
            mat[i, j] = fall * x ** (e - i)
            fall *= e - i
    return float(np.linalg.det(mat))
