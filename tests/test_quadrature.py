"""Adaptive panel quadrature against polynomials and reference values."""

import math

import numpy as np
import pytest

from conftest import beta_moment, quad_circle
from cycleavg import QuadratureError
from cycleavg.quadrature import gauss_panel, integrate_circle, integrate_panels


def test_gauss_panel_exact_on_polynomials():
    # 15-point Gauss-Legendre integrates degree <= 29 exactly
    for deg in (0, 7, 20, 29):
        exact = (2.0 ** (deg + 1) - 1.0) / (deg + 1)
        assert gauss_panel(lambda x: x ** deg, 1.0, 2.0) == pytest.approx(
            exact, rel=1e-14)


def test_integrate_panels_splits_budget():
    val = integrate_panels(np.sin, (0.0, 1.0, 2.0, 3.0), tol=1e-12)
    assert val == pytest.approx(1.0 - math.cos(3.0), abs=1e-12)


def test_integrate_circle_smooth():
    assert integrate_circle(lambda t: np.cos(t) ** 2, 1e-12) == pytest.approx(
        math.pi, abs=1e-11)
    assert integrate_circle(np.sin, 1e-12) == pytest.approx(0.0, abs=1e-12)


def test_integrate_circle_kink_at_axis():
    # |cos|^(3/2) has axis kinks exactly on panel boundaries
    val = integrate_circle(lambda t: np.abs(np.cos(t)) ** 1.5, 1e-11)
    assert val == pytest.approx(4.0 * beta_moment(1.5), abs=1e-10)
    assert val == pytest.approx(
        quad_circle(lambda t: abs(math.cos(t)) ** 1.5), abs=1e-9)


def test_interior_kink_still_converges():
    val = integrate_circle(lambda t: np.abs(np.cos(t) - 0.5), 1e-10)
    ref = quad_circle(lambda t: abs(math.cos(t) - 0.5))
    assert val == pytest.approx(ref, abs=1e-9)


def test_depth_limit_raises():
    # endpoint singularity defeats plain panel halving within 40 levels
    with pytest.raises(QuadratureError):
        integrate_panels(lambda x: x ** -0.9, (0.0, 1.0), 1e-12)
    with pytest.raises(QuadratureError):
        integrate_panels(np.sin, (0.0, 1.0), tol=-1.0)
