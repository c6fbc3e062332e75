"""Fixed panel quadrature against polynomials and closed-form integrals."""

import math

import numpy as np
import pytest
from conftest import line_integral

from cycleavg import (
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    angular_integral,
    monomial,
)
from cycleavg.quadrature import gauss_panel, integrate_circle


def test_gauss_panel_exact_on_polynomials():
    # 15-point Gauss-Legendre integrates degree <= 29 exactly
    for deg in (0, 7, 20, 29):
        exact = (2.0 ** (deg + 1) - 1.0) / (deg + 1)
        assert gauss_panel(lambda x: x ** deg, 1.0, 2.0) == pytest.approx(
            exact, rel=1e-14)


def test_integrate_circle_smooth():
    assert integrate_circle(lambda t: np.cos(t) ** 2, 1) == pytest.approx(
        math.pi, abs=1e-14)
    assert integrate_circle(np.sin, 0) == pytest.approx(0.0, abs=1e-14)


def _closed_form_error(spec, k):
    """|line integral - closed form| over 2*pi * sum |b c| r^(alpha+1)."""
    r = math.sqrt(k)
    ref = sum(b * angular_integral(f) * r ** float(f.alpha + 1)
              for b, f in zip(spec.b, spec.fields))
    scale = 2.0 * math.pi * sum(
        abs(b * t.coeff) * r ** float(f.alpha + 1)
        for b, f in zip(spec.b, spec.fields) for t in f.f_terms + f.g_terms)
    return abs(line_integral(spec, k) - ref) / scale


def test_axis_kinks_of_unsigned_odd_terms():
    # unsigned odd powers (|x|, |y|, |x|^3, |x|^5) kink the integrand on
    # the axes only, where the panel edges lie
    spec = PerturbationSpec(
        fields=(
            HomogeneousField((SignedPowerTerm(1.5, 1, 1, True, False),),
                             (SignedPowerTerm(-0.7, 1, 1, False, True),), 2),
            HomogeneousField((SignedPowerTerm(0.9, 1, 2, False, False),),
                             (SignedPowerTerm(1.1, 1, 2, False, True),), 3),
            HomogeneousField((monomial(-0.4, 3, 2),
                              SignedPowerTerm(0.6, 3, 2, False, True)),
                             (SignedPowerTerm(0.8, 5, 0, False, False),), 5),
        ),
        b=(1.0, -2.0, 0.5), epsilon=0.01)
    assert all(angular_integral(f) != 0.0 for f in spec.fields)
    for k in (0.5, 1.0, 2.0):
        assert _closed_form_error(spec, k) <= 1e-14


@pytest.mark.parametrize("signed", [True, False], ids=["x99", "abs_x99"])
def test_degree_99_x_power(signed):
    # |cos|^100 is sharply peaked at the x axis
    field = HomogeneousField((SignedPowerTerm(1.0, 99, 0, signed, False),),
                             (), 99)
    spec = PerturbationSpec((field,), (1.0,), 0.01)
    assert _closed_form_error(spec, 0.5) <= 1e-14
