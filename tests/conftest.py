"""Shared oracles: closed forms computed independently of the package."""

import math
from fractions import Fraction


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
