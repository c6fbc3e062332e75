"""Adaptive composite Gauss-Legendre quadrature on panels.

Signed-power integrands are smooth except where a trig factor crosses
zero, i.e. at multiples of pi/2, so the circle is pre-split there and
each panel is refined by halving until the two-half estimate agrees
with the single-panel one.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

AXIS_ANGLES = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi)


def gauss_panel(fn, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return float(half * np.dot(_WEIGHTS, fn(mid + half * _NODES)))


def _refine(fn, a, b, whole, tol, floor, depth):
    mid = 0.5 * (a + b)
    if not a < mid < b:
        return whole
    left = gauss_panel(fn, a, mid)
    right = gauss_panel(fn, mid, b)
    err = abs(left + right - whole)
    if err <= max(tol, floor):
        return left + right
    if depth <= 0:
        raise QuadratureError(
            f"panel [{a:.6g}, {b:.6g}] did not converge (residual {err:.3g} > {tol:.3g})"
        )
    return (_refine(fn, a, mid, left, 0.5 * tol, floor, depth - 1)
            + _refine(fn, mid, b, right, 0.5 * tol, floor, depth - 1))


def integrate_panels(fn, breakpoints, tol: float, max_depth: int = 40) -> float:
    """Integrate fn over consecutive [breakpoints] panels to absolute tol.

    fn must accept a numpy array of abscissae.  The per-level tolerance
    never drops below machine noise on the integrand's L1 scale, so
    requesting a tol finer than the data supports converges to the noise
    floor instead of recursing forever.  Raises QuadratureError if any
    panel fails to converge within max_depth halvings.
    """
    if tol <= 0:
        raise QuadratureError("tolerance must be positive")
    pieces = list(zip(breakpoints[:-1], breakpoints[1:]))
    budget = tol / len(pieces)
    scale = sum(gauss_panel(lambda x: np.abs(fn(x)), a, b) for a, b in pieces)
    floor = 64.0 * np.finfo(float).eps * abs(scale)
    total = 0.0
    for a, b in pieces:
        whole = gauss_panel(fn, a, b)
        total += _refine(fn, a, b, whole, budget, floor, max_depth)
    return total


def integrate_circle(fn, tol: float, max_depth: int = 40) -> float:
    """Integrate over one angular period, pre-split at the axis angles."""
    return integrate_panels(fn, AXIS_ANGLES, tol, max_depth)
