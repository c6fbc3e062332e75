"""Shared oracles: closed forms computed independently of the package,
the reference walk that root isolation must reproduce bit for bit, and
the Newton cell that the fixed-point search's approach must agree with."""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np

from cycleavg import PositiveRoot, RootError


def beta_moment(a: float) -> float:
    """int_0^{pi/2} cos^a = B((a+1)/2, 1/2) / 2, via scipy's Beta function."""
    from scipy.special import beta

    return 0.5 * float(beta(0.5 * (a + 1.0), 0.5))


def wallis_even(n: int) -> float:
    """int_0^{2pi} cos^(2n) = 2*pi * C(2n, n) / 4^n, exact rational scaled."""
    return 2.0 * math.pi * float(Fraction(math.comb(2 * n, n), 4 ** n))


def quad_circle(fn, tol: float = 1e-11) -> float:
    """Reference quadrature over one angular period (scipy, split at axes)."""
    from scipy.integrate import quad

    total = 0.0
    breaks = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi]
    for a, b in zip(breaks[:-1], breaks[1:]):
        val, _ = quad(fn, a, b, epsabs=tol, epsrel=0.0, limit=200)
        total += val
    return total


def line_integral(spec, k: float) -> float:
    """Circulation of P dy - Q dx around x^2 + y^2 = k, (P, Q) = sum_j b[j] fields[j].

    For a ccw spec this is 2*pi * sqrt(k) * h(sqrt(k)): the averaged
    coefficients absorb the angular period 2*pi.  The fixed panel rule is
    exact only for smooth integrands, so every exponent is an integer.
    """
    from cycleavg.quadrature import integrate_circle

    assert all(e.denominator == 1 for field in spec.fields
               for t in field.f_terms + field.g_terms for e in (t.x_exp, t.y_exp))
    rk = math.sqrt(k)

    def integrand(theta):
        x, y = rk * np.cos(theta), rk * np.sin(theta)
        px, qy = np.zeros_like(theta), np.zeros_like(theta)
        for bj, field in zip(spec.b, spec.fields):
            fv, gv = field.evaluate(x, y)
            px, qy = px + bj * fv, qy + bj * gv
        return px * x + qy * y

    return integrate_circle(integrand, int(max(spec.alphas, default=0)))


def wronskian_closed_form(exponents, x: float) -> float:
    """W(x^e0, ..., x^ek) = x^S * prod_{i<j} (e[j] - e[i]), S = sum(e) - k(k+1)/2.

    Nonzero on x > 0 for distinct exponents, which is what makes tuples
    of power functions an extended Chebyshev system on (0, inf).
    """
    exps = [float(e) for e in exponents]
    k = len(exps) - 1
    return x ** (sum(exps) - k * (k + 1) / 2.0) * math.prod(
        ej - ei for ei, ej in itertools.combinations(exps, 2))


def wronskian_numeric(exponents, x: float) -> float:
    """The same Wronskian as an LU determinant of the derivative matrix,
    whose row i holds d^i/dx^i x^e = e(e-1)...(e-i+1) x^(e-i)."""
    n = len(exponents)
    mat = np.empty((n, n))
    for j, e in enumerate(map(float, exponents)):
        fall = 1.0
        for i in range(n):
            mat[i, j] = fall * x ** (e - i)
            fall *= e - i
    return float(np.linalg.det(mat))


def reference_evaluate(terms, z: float) -> float:
    """sum c z^e added term by term, as `sum()` of floats did before Python
    3.12, or only its sign where the plain sum overflows: the terms scaled
    by the largest one in log space."""
    try:
        value = 0.0
        for e, c in terms:
            value += c * z ** e
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


def reference_bisect(terms, a: float, b: float, rising: bool) -> float:
    """The fixed float tree of `roots._bisect`, each probe evaluated by
    `reference_evaluate`."""
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    root = a
    while hi - lo > 1:
        shift = (lo ^ (hi - 1)).bit_length() - 1
        mid = (hi - 1) >> shift << shift
        z = struct.unpack("<d", struct.pack("<q", mid))[0]
        value = reference_evaluate(terms, z)
        if value == 0.0:
            return z
        if (value > 0) == rising:
            hi = mid
        else:
            lo, root = mid, z
    return root


def reference_odd_zeros(terms, lo: float, hi: float) -> list:
    """The Rolle recursion of `roots._odd_zeros` on the reference walk."""
    terms = [(e, c) for e, c in terms if c != 0.0]
    if len(terms) < 2:
        return []
    e0 = terms[0][0]
    terms = [(e - e0, c) for e, c in terms]
    slope = [(e - 1.0, c * e) for e, c in terms[1:]]
    cuts = [lo] + [r.z for r in reference_odd_zeros(slope, lo, hi)] + [hi]
    values = [reference_evaluate(terms, z) for z in cuts]
    roots = []
    for a, b, fa, fb in zip(cuts, cuts[1:], values, values[1:]):
        if fa < 0 < fb or fb < 0 < fa:
            degree = 1 if fb > 0 else -1
            roots.append(PositiveRoot(reference_bisect(terms, a, b, fb > 0),
                                      degree, degree))
    return roots


def reference_newton_in_cell(pmap, a: float, b: float, ga: float, gb: float,
                             x=None, rel=None):
    """The Newton cell without an approach: safeguarded Newton on
    P(r) - r from the secant point of the cell's endpoint values, with
    `pmap(r)` giving (P(r), P'(r)), bisecting whenever a step leaves the
    bracket or is not finite, until a step is at most 1e-12 r.  Returns
    (r, P(r), P'(r)) of the last evaluated point; a degenerate cell
    (a == b) is evaluated once.  `x` and `rel` are ignored."""
    x = (a * gb - b * ga) / (gb - ga) if a < b else a
    if not a <= x <= b:
        x = 0.5 * (a + b)
    for _ in range(100):
        p, dp = pmap(x)
        g = p - x
        evaluated = (x, p, dp)
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
