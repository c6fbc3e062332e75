"""Fixed composite Gauss-Legendre quadrature over one angular period.

No package path runs it: the tests' line-integral oracle integrates with
it, and the benchmark's tracer counts `gauss_panel` calls.  On each
quarter turn the line integrand of an integer-exponent spec is a
trigonometric polynomial whose degree grows with the field degree; its
only kinks, from |x|^n and |y|^n factors, lie on the axes.
Gauss-Legendre converges exponentially on such panels.
"""

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def gauss_panel(fn, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return float(half * np.dot(_WEIGHTS, fn(mid + half * _NODES)))


def integrate_circle(fn, degree: int) -> float:
    """Integrate fn (vectorized over angles) on [0, 2*pi] in 4*(1 + degree // 8)
    equal panels; their count is a multiple of four, so the axes are edges."""
    edges = np.linspace(0.0, 2.0 * np.pi, 4 * (1 + degree // 8) + 1)
    return sum(gauss_panel(fn, a, b) for a, b in zip(edges[:-1], edges[1:]))
