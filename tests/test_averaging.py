"""Angular integrals, the averaged function, and the Wronskian pair."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import beta_moment, quad_circle, wallis_even
from cycleavg import (
    AmbiguousIntegralError,
    AveragedFunction,
    HomogeneousField,
    SignedPowerTerm,
    SpecError,
    angular_components,
    angular_integral,
    average,
    classify_nonzero,
    melnikov,
    melnikov_line_integral,
    normalize_ccw,
    with_b,
    wronskian_closed_form,
    wronskian_numeric,
)
from cycleavg import quadrature
from cycleavg.fields import reflect_diagonal
from cycleavg.presets import (
    catalog,
    constant_field,
    example1,
    example2,
    linear_field,
    signed_root_field,
    vdp,
)
from cycleavg.monomials import lienard_family


def test_linear_field_integral_is_trace_times_pi():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0, size=4)
        val = angular_integral(linear_field(*p))
        assert val == pytest.approx((p[0] + p[3]) * math.pi, abs=1e-10)


def test_constant_field_integral_vanishes():
    assert abs(angular_integral(constant_field(1.0, 1.0))) < 1e-12
    assert abs(angular_integral(constant_field(-2.5, 7.0))) < 1e-12


def test_signed_sqrt_integral_matches_beta_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        q = rng.uniform(-2.0, 2.0, size=4)
        val = angular_integral(signed_root_field(*q))
        assert val == pytest.approx(4.0 * (q[0] + q[3]) * beta_moment(1.5),
                                    abs=1e-8)


def test_signed_sqrt_integral_matches_scipy():
    field = signed_root_field(1.0, 0.5, -0.3, 1.0)

    def integrand(theta):
        radial, _ = angular_components(field, theta)
        return float(radial)

    assert angular_integral(field) == pytest.approx(quad_circle(integrand),
                                                    abs=1e-9)


def test_even_power_integral_matches_wallis():
    # x^(2n) in f integrates cos^(2n+1) (zero); x^(2n-1) integrates cos^(2n)
    from cycleavg import HomogeneousField, monomial, Fraction
    for n in (1, 2, 3, 5):
        field = HomogeneousField((monomial(1.0, 2 * n - 1, 0),), (),
                                 Fraction(2 * n - 1))
        assert angular_integral(field) == pytest.approx(wallis_even(n),
                                                        rel=1e-12)


#: Rational exponents 0..6 with denominators up to 6.
EXPONENTS = st.integers(1, 6).flatmap(
    lambda d: st.integers(0, 6 * d).map(lambda n: Fraction(n, d)))


@st.composite
def signed_power_fields(draw):
    """A field of degree alpha with 0..2 terms in each component; each term
    splits alpha into x and y exponents and carries any valid sign flags."""
    alpha = draw(EXPONENTS)

    def term():
        d = draw(st.integers(1, 6))
        x_exp = Fraction(draw(st.integers(0, math.floor(alpha * d))), d)
        y_exp = alpha - x_exp
        return SignedPowerTerm(draw(st.floats(-3.0, 3.0)), x_exp, y_exp,
                               x_exp > 0 and draw(st.booleans()),
                               y_exp > 0 and draw(st.booleans()))

    f_terms = tuple(term() for _ in range(draw(st.integers(0, 2))))
    g_terms = tuple(term() for _ in range(draw(st.integers(0, 2))))
    return HomogeneousField(f_terms, g_terms, alpha)


def _radial_profile(field):
    """f cos + g sin on the unit circle, evaluated term by term with math."""
    def power(u, e, signed):
        mag = abs(u) ** float(e)
        return math.copysign(mag, u) if signed else mag

    def component(terms, c, s):
        return sum(t.coeff * power(c, t.x_exp, t.x_signed)
                   * power(s, t.y_exp, t.y_signed) for t in terms)

    def radial(theta):
        c, s = math.cos(theta), math.sin(theta)
        return (component(field.f_terms, c, s) * c
                + component(field.g_terms, c, s) * s)

    return radial


# QUADPACK warns when rounding stops it short of 1e-13 on a quarter turn;
# the assertion still bounds the difference by 1e-12.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(signed_power_fields())
def test_angular_integral_matches_scipy_on_random_fields(field):
    reference = quad_circle(_radial_profile(field), tol=1e-13)
    assert angular_integral(field) == pytest.approx(reference, rel=1e-12,
                                                    abs=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(signed_power_fields())
def test_angular_integral_invariant_under_diagonal_reflection(field):
    # normalize_ccw rewrites a cw spec through this reflection
    assert angular_integral(reflect_diagonal(field)) == angular_integral(field)


def test_structural_zeros_are_exact():
    zeros = {}
    for name, make in catalog().items():
        avg = average(make().spec)
        zeros[name] = [v for v, nz in zip(avg.integrals, avg.keep) if not nz]
        assert all(v == 0.0 for v in zeros[name]), name
    for name in ("example1", "example2", "herd", "capillary"):
        assert zeros[name], name


def test_average_runs_no_quadrature(monkeypatch):
    calls = []
    real = quadrature.gauss_panel

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, "gauss_panel", spy)
    average(example2().spec)
    assert calls == []
    # the spy sees the quadrature that the Melnikov line integral runs
    melnikov_line_integral(vdp().spec, 1.0)
    assert calls


def test_degree_400_integral_is_finite_and_exact():
    # sgn(x)|x|^200 |y|^200 integrates 4 int_0^{pi/2} cos^201 sin^200; with
    # u = sin that is 4 sum_j C(100, j) (-1)^j / (201 + 2j), exactly.
    field = HomogeneousField((SignedPowerTerm(1.0, 200, 200, True, False),),
                             (), 400)
    exact = 4 * sum(Fraction((-1) ** j * math.comb(100, j), 201 + 2 * j)
                    for j in range(101))
    val = angular_integral(field)
    assert math.isfinite(val) and val > 0.0
    assert val == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_classify_nonzero_dead_band():
    assert classify_nonzero([0.5, 1e-12, -3.0]) == [True, False, True]
    with pytest.raises(AmbiguousIntegralError):
        classify_nonzero([5e-10])


def test_averaged_function_drops_structural_zeros():
    pre = example1()
    avg = average(pre.spec)
    h = avg.h
    assert h.exponents == (0.5, 1.0)
    assert h.coefficients[0] == pytest.approx(4.0 * beta_moment(1.5) / math.pi,
                                              abs=1e-10)
    assert h.coefficients[1] == pytest.approx(-1.0, abs=1e-12)
    # fields with b == 0 leave h but still count toward the lower bound
    zeroed = average(with_b(pre.spec, (0.0,) * len(pre.spec.b)))
    assert zeroed.h.exponents == () and zeroed.keep == avg.keep
    assert zeroed.lower_bound == avg.lower_bound == 1


def test_averaged_function_requires_ccw():
    from cycleavg import Averaged
    from cycleavg.presets import capillary
    cw = capillary().spec
    ccw = normalize_ccw(cw)
    # the record holds integrals of a ccw spec only; average() normalizes
    with pytest.raises(SpecError):
        Averaged(cw, (0.0,) * len(cw.fields), (False,) * len(cw.fields))
    Averaged(ccw, (0.0,) * len(ccw.fields), (False,) * len(ccw.fields))
    assert average(cw).spec.orientation == "ccw"


def test_lower_bound_orientation_independent():
    from cycleavg.presets import capillary
    cw = capillary().spec
    assert average(cw).lower_bound == average(normalize_ccw(cw)).lower_bound
    assert average(example1().spec).lower_bound == 1


def test_average_orientation_independent():
    from cycleavg.presets import capillary
    cw = capillary().spec
    assert cw.orientation == "cw"
    avg = average(cw)
    assert avg == average(normalize_ccw(cw))
    assert avg.spec.orientation == "ccw"
    # the reflection to ccw form leaves every angular integral unchanged
    raw = [angular_integral(f) for f in cw.fields]
    assert list(avg.integrals) == raw


def test_averaged_function_domain_and_eval():
    h = AveragedFunction((0.5, 1.0), (2.0, -1.0))
    assert h(4.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        h(-1.0)
    with pytest.raises(SpecError):
        AveragedFunction((1.0, 0.5), (1.0, 1.0))
    with pytest.raises(SpecError):
        AveragedFunction((-0.5, 1.0), (1.0, 1.0))


def test_melnikov_scaling_relation():
    h = average(vdp().spec).h
    for k in (0.5, 1.0, 2.0, 4.0):
        assert melnikov(h, k) == pytest.approx(math.sqrt(k) * h(math.sqrt(k)),
                                               rel=1e-14)


def test_melnikov_line_integral_consistency():
    spec = vdp().spec
    h = average(spec).h
    for k in (0.5, 1.0, 2.0):
        line = melnikov_line_integral(spec, k)
        assert line == pytest.approx(2.0 * math.pi * melnikov(h, k), rel=1e-10)


def test_melnikov_line_integral_rejects_fractional_exponents():
    with pytest.raises(SpecError):
        melnikov_line_integral(example1().spec, 1.0)


def test_wronskian_closed_vs_numeric_small():
    assert wronskian_closed_form((2.0,), 3.0) == pytest.approx(9.0)
    # (x^a, x^b): W = (b-a) x^(a+b-1)
    a, b, x = 0.5, 2.0, 1.7
    assert wronskian_closed_form((a, b), x) == pytest.approx(
        (b - a) * x ** (a + b - 1.0), rel=1e-12)
    assert wronskian_numeric((a, b), x) == pytest.approx(
        wronskian_closed_form((a, b), x), rel=1e-12)


def test_wronskian_positive_for_increasing_exponents():
    # nonvanishing Wronskians on (0, inf) are what makes the family ECT
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        exps = np.sort(rng.uniform(0.0, 6.0, size=n))
        if np.any(np.diff(exps) < 1e-3):
            continue
        x = float(rng.uniform(0.3, 3.0))
        assert wronskian_closed_form(tuple(exps), x) > 0.0


def test_wronskian_rejects_duplicates():
    with pytest.raises(ValueError):
        wronskian_closed_form((1.0, 1.0), 2.0)


def test_lienard_family_integrals_all_positive():
    spec = lienard_family(6, (1.0, 1.0, 1.0, 1.0), epsilon=0.01)
    vals = [angular_integral(f) for f in spec.fields]
    assert all(v > 0 for v in vals)
    # the j-th integral is the (2j+2)-nd cosine moment
    for j, v in enumerate(vals):
        assert v == pytest.approx(wallis_even(j + 1), rel=1e-12)
