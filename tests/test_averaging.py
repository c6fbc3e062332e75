"""Angular integrals, the averaged function, and the Wronskian pair."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    beta_moment,
    line_integral,
    quad_circle,
    wallis_even,
    wronskian_closed_form,
    wronskian_numeric,
)
from cycleavg import (
    AveragedFunction,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    SpecError,
    angular_components,
    angular_integral,
    average,
    monomial,
    normalize_ccw,
    with_b,
)
from cycleavg import averaging, quadrature
from cycleavg.fields import reflect_diagonal
from cycleavg.presets import (
    catalog,
    constant_field,
    example1,
    example2,
    lienard,
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
    # the spy sees the quadrature that the line-integral oracle runs:
    # 4 * (1 + degree // 8) panels, for degree 3 and 9
    line_integral(vdp().spec, 1.0)
    assert len(calls) == 4
    line_integral(lienard(7).spec, 1.0)
    assert len(calls) == 4 + 8


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


def test_keep_flags_every_integral_that_is_not_exactly_zero():
    # only an exact 0.0 is a structural zero: 1e-12 and 5e-10 are kept
    from cycleavg import Averaged
    spec = normalize_ccw(example2().spec)
    for integrals, keep in (((0.5, 1e-12, -3.0, 0.0), (True, True, True, False)),
                            ((5e-10, 0.0, 0.0, 0.0), (True, False, False, False))):
        avg = Averaged(spec, integrals)
        assert avg.keep == keep
        assert avg.lower_bound == sum(keep) - 1


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
        Averaged(cw, (0.0,) * len(cw.fields))
    Averaged(ccw, (0.0,) * len(ccw.fields))
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
    for z in (-1.0, 0.0, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError):
            h(z)
    with pytest.raises(SpecError):
        AveragedFunction((1.0, 0.5), (1.0, 1.0))
    with pytest.raises(SpecError):
        AveragedFunction((-0.5, 1.0), (1.0, 1.0))


def test_melnikov_line_integral_consistency():
    spec = vdp().spec
    h = average(spec).h
    for k in (0.5, 1.0, 2.0):
        rk = math.sqrt(k)
        line = line_integral(spec, k)
        assert line == pytest.approx(2.0 * math.pi * rk * h(rk), rel=1e-10)


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


def test_lienard_family_integrals_all_positive():
    spec = lienard_family(6, (1.0, 1.0, 1.0, 1.0), epsilon=0.01)
    vals = [angular_integral(f) for f in spec.fields]
    assert all(v > 0 for v in vals)
    # the j-th integral is the (2j+2)-nd cosine moment
    for j, v in enumerate(vals):
        assert v == pytest.approx(wallis_even(j + 1), rel=1e-12)


# ---------------------------------------------------------------------------
# Structural zeros: the exact rule against exact oracles
# ---------------------------------------------------------------------------

#: Signs of (cos, sin) on the four quarter turns.
QUADRANTS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _oracle(field, moment):
    """(integral, scale) = (sum, sum of |.|) over every term and quarter turn
    of c * sign * M(a, b), M(a, b) = int_0^{pi/2} |cos|^a |sin|^b; the
    signs come from the quadrants themselves, not from a parity rule."""
    total, scale = 0, 0
    for terms, radial in ((field.f_terms, (1, 0)), (field.g_terms, (0, 1))):
        for t in terms:
            c, m = moment.coeff(t.coeff), moment(t.x_exp + radial[0],
                                                 t.y_exp + radial[1])
            scale += 4 * abs(c) * m
            for sc, ss in QUADRANTS:
                sign = (sc ** t.x_signed * ss ** t.y_signed
                        * (sc if radial[0] else ss))
                total += sign * c * m
    return total, scale


class _SympyMoment:
    """Exact: Rational coefficients, half-integer gamma values."""

    def __init__(self):
        import sympy
        self.sp = sympy

    def coeff(self, c):
        return self.sp.Rational(c)

    def __call__(self, a, b):
        R, gamma = self.sp.Rational, self.sp.gamma
        return (gamma(R(a + 1) / 2) * gamma(R(b + 1) / 2)
                / (2 * gamma(R(a + b) / 2 + 1)))


class _MpmathMoment:
    """40 significant digits through mpmath's Beta function."""

    def __init__(self):
        import mpmath
        self.mp = mpmath.mp.clone()
        self.mp.dps = 40

    def coeff(self, c):
        return self.mp.mpf(c)

    def __call__(self, a, b):
        half = self.mp.mpf(1) / 2
        return self.mp.beta((a + 1) * half, (b + 1) * half) / 2


def _hamiltonian_field(rng, alpha, factor):
    """(H_y, -H_x) for a random integer H of degree alpha + 1: divergence
    free, so its integral (the flux through the unit circle) is exactly 0."""
    h = [int(v) for v in rng.integers(-9, 10, size=alpha + 2)]
    f = tuple(monomial(factor * hj * (alpha + 1 - j), j, alpha - j)
              for j, hj in enumerate(h) if hj and j <= alpha)
    g = tuple(monomial(-factor * hj * j, j - 1, alpha + 1 - j)
              for j, hj in enumerate(h) if hj and j >= 1)
    return HomogeneousField(f, g, alpha)


def _minus_its_reflection(field):
    """F - R(F) for the diagonal reflection R, which keeps the integral:
    exactly 0.  A term of F contributes c M(p, q) and its image -c M(q, p),
    so for even alpha (p + q odd) the two lie in opposite parities of p."""
    image = reflect_diagonal(field)

    def minus(terms):
        return tuple(replace(t, coeff=-t.coeff) for t in terms)
    return HomogeneousField(field.f_terms + minus(image.f_terms),
                            field.g_terms + minus(image.g_terms), field.alpha)


def _rational_pair(rng, moment):
    """c1 t(p1) + c2 t(p2), t(p) = sgn(x)|x|^(p - 1) |y|^(q), for a random
    even alpha <= 20 and p1, p2 of opposite parities: every M(p, q) with
    p + q odd is rational, so the integers c1 = num(M(p2) / M(p1)) and
    c2 = -den(M(p2) / M(p1)) make the integral exactly 0."""
    alpha = 2 * int(rng.integers(1, 11))
    p1 = 2 * int(rng.integers(1, alpha // 2 + 1))
    p2 = 2 * int(rng.integers(1, alpha // 2 + 1)) + 1
    ratio = moment(p2, alpha + 1 - p2) / moment(p1, alpha + 1 - p1)
    factor = 2.0 ** int(rng.integers(-60, 61))
    return HomogeneousField(tuple(
        SignedPowerTerm(factor * c, p - 1, alpha + 1 - p, True, False)
        for c, p in ((int(ratio.p), p1), (-int(ratio.q), p2))), (), alpha)


def _random_integer_field(rng, alpha):
    """Terms with random integer exponents, sign flags and coefficients."""
    def term():
        x = int(rng.integers(0, alpha + 1))
        sx = bool(x % 2) if rng.random() < 0.5 else x > 0 and rng.random() < 0.5
        sy = (bool((alpha - x) % 2) if rng.random() < 0.5
              else alpha - x > 0 and rng.random() < 0.5)
        c = float(rng.uniform(-3, 3)) * 10.0 ** int(rng.integers(-8, 9))
        return SignedPowerTerm(c, x, alpha - x, sx, sy)
    return HomogeneousField(tuple(term() for _ in range(rng.integers(0, 5))),
                            tuple(term() for _ in range(rng.integers(0, 5))),
                            alpha)


def _parities(field):
    """The parities of p over the terms that contribute to the integral."""
    return ({int(t.x_exp + 1) % 2 for t in field.f_terms
             if t.x_signed and not t.y_signed}
            | {int(t.x_exp) % 2 for t in field.g_terms
               if t.y_signed and not t.x_signed})


def test_integer_exponent_integrals_against_sympy_exact_values():
    rng = np.random.default_rng(16)
    moment = _SympyMoment()
    zeros = nonzeros = across = 0
    for _ in range(40):
        alpha = int(rng.integers(0, 100))
        factor = (2.0 ** int(rng.integers(-60, 61))
                  * 10 ** int(rng.integers(0, 13)))
        built = _hamiltonian_field(rng, alpha, factor)
        random_field = _random_integer_field(rng, alpha)
        for field in (built, random_field, _minus_its_reflection(random_field),
                      _rational_pair(rng, moment)):
            exact, scale = _oracle(field, moment)
            value = angular_integral(field)
            if exact == 0:
                zeros += 1
                across += field.alpha % 2 == 0 and len(_parities(field)) == 2
                assert value == 0.0, (field, value)
            elif abs(float(exact)) > 1e-12 * float(scale):
                nonzeros += 1
                assert value != 0.0, field
                assert abs(value - float(exact)) <= 1e-12 * float(scale)
    # across: zeros of even degree whose cancelling terms span both parities
    assert zeros >= 120 and nonzeros >= 20 and across >= 40


def test_fractional_exponent_integrals_against_mpmath():
    rng = np.random.default_rng(17)
    moment = _MpmathMoment()
    for _ in range(40):
        den = int(rng.integers(2, 7))
        # a built zero: c1 M(p, q) + c2 M(p + 2, q - 2) = 0 for the integers
        # c1 = (p + 1) D and c2 = -(q - 1) D, with p = x + 1 and q = y >= 2
        x = Fraction(int(rng.integers(1, 6 * den)), den)
        y = Fraction(int(rng.integers(2 * den, 8 * den)), den)
        d = den * 10 ** int(rng.integers(0, 8))
        pair = (SignedPowerTerm(float((x + 2) * d), x, y, True, False),
                SignedPowerTerm(float(-(y - 1) * d), x + 2, y - 2, True, False))
        assert angular_integral(HomogeneousField(pair, (), x + y)) == 0.0
        # plus a term in the other class, or a g term in the same one
        c = float(rng.uniform(-3, 3))
        for field in (
                HomogeneousField(pair + (SignedPowerTerm(c, x + 1, y - 1, True,
                                                         False),), (), x + y),
                HomogeneousField(pair, (SignedPowerTerm(c, x + 1, y - 1, False,
                                                        True),), x + y)):
            ref, scale = _oracle(field, moment)
            value = angular_integral(field)
            if abs(ref) > 1e-12 * scale:
                assert value != 0.0, field
                assert abs(value - float(ref)) <= 1e-12 * float(scale)


def test_cancellation_rule_at_extreme_coefficients_and_degrees():
    def field(*terms):
        return HomogeneousField(tuple(monomial(*t) for t in terms), (),
                                sum(terms[0][1:]))
    # |c rho| sums past the largest float: the test still decides
    assert angular_integral(field((1.7e308, 3, 0), (1.7e308, 1, 2))) == math.inf
    assert angular_integral(field((5e307, 3, 0), (-1.5e308, 1, 2))) == 0.0
    # degree 3001: the moment of x^1501 y^1500 is ~2^-1500 of x^3001's
    value = angular_integral(field((1.0, 1501, 1500), (1.0, 3001, 0)))
    assert 0.0 < value < math.inf


def test_cancellation_across_parities_of_rational_moments():
    # alpha + 1 = 3 is odd: M(3, 0) = 2/3 and M(2, 1) = 1/3 are both
    # rational, so sgn(x) x^2 - 2 sgn(x)|x||y| integrates 4 (2/3 - 2/3) = 0
    for c in (1.0, 1e7, 3e-200):
        field = HomogeneousField((SignedPowerTerm(c, 2, 0, True, False),
                                  SignedPowerTerm(-2 * c, 1, 1, True, False)),
                                 (), 2)
        assert angular_integral(field) == 0.0
        assert angular_integral(reflect_diagonal(field)) == 0.0
    # one more term keeps it: 4 * 1/3 from sgn(x)|x||y|
    field = HomogeneousField((SignedPowerTerm(1.0, 2, 0, True, False),
                              SignedPowerTerm(-1.0, 1, 1, True, False)), (), 2)
    assert angular_integral(field) == pytest.approx(4 / 3, rel=1e-15)


@pytest.mark.parametrize("units", [8, 10])
def test_near_cancelling_class_is_kept_with_its_sign(units):
    # x^3 - (3 + delta) x y^2 integrates -delta pi / 4, a few ulps of the
    # terms but above the rule's bound: kept, negative, and within that
    # bound 4 M(4, 0) gamma_4 sum |c rho| of the exact value
    delta = units * 2.0 ** -51
    field = HomogeneousField((monomial(1.0, 3, 0), monomial(-(3 + delta), 1, 2)),
                             (), 3)
    value, exact = angular_integral(field), -delta * math.pi / 4
    nu = 4 * 2.0 ** -53
    assert value < 0.0
    assert abs(value - exact) <= 4 * (3 * math.pi / 16) * nu / (1 - nu) * 2.0


def test_two_term_class_at_degree_20001_is_fast():
    # x^20001 + sgn(x)|x||y|^20000: 10,000 steps of the ratio recurrence
    import time
    import mpmath
    n = 20001
    field = HomogeneousField((monomial(1.0, n, 0),
                              SignedPowerTerm(1.0, 1, n - 1, True, False)),
                             (), n)
    start = time.perf_counter()
    value = angular_integral(field)
    assert time.perf_counter() - start < 2.0
    exact = 2 * (mpmath.beta((n + 2) / 2, 0.5) + mpmath.beta(1.5, n / 2))
    assert value == pytest.approx(float(exact), rel=1e-10)


@pytest.mark.parametrize("terms", [
    [(1101, 1100, 1e300)],
    [(1101, 1100, -2e250)],
    [(1101, 1100, 1e300), (1099, 1102, -3e300)],
    [(1101, 1100, 1e300), (2201, 0, 1e-300)],
    [(Fraction(2201, 2), 1001, 1e300)],
], ids=["lone", "negative", "class", "far-class", "fractional"])
def test_moment_below_the_smallest_double_keeps_its_term(terms):
    # M(1102, 1100) ~ 1.4e-333 underflows a double, but c M ~ 5.6e-33 does
    # not: c must enter before the moment is exponentiated, and in a class
    # whose largest moment is M(2202, 0), before the ratio ~ 5e-332 rounds
    mp = _MpmathMoment()
    field = HomogeneousField(tuple(SignedPowerTerm(c, x, y, True, False)
                                   for x, y, c in terms), (),
                             terms[0][0] + terms[0][1])
    exact = 4 * sum(mp.coeff(c) * mp(x + 1, y) for x, y, c in terms)
    for f in (field, reflect_diagonal(field)):
        value = angular_integral(f)
        # lgamma near 3000 carries ~1e-12 of relative rounding
        assert value == pytest.approx(float(exact), rel=1e-11, abs=0.0)
    avg = average(PerturbationSpec((vdp().spec.fields[0], field), (1.0, 1.0), 0.01))
    assert avg.keep == (True, True) and avg.lower_bound == 1


def test_moments_above_the_smallest_double_keep_their_bits():
    # the log-coefficient path runs only below the smallest normal double
    for a, b, c in ((1001, 1000, 1e300), (3, 4, -2.5), (Fraction(3, 2), 0, 7.0),
                    (1101, 1100, 0.0)):
        p, q = 0.5 * (float(a) + 1.0), 0.5 * (float(b) + 1.0)
        m = 0.5 * math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
        assert averaging._quarter_moment(a, b, c) == c * m


def _scale_field(field, k):
    """Every coefficient times 10**k, rounded once."""
    def scaled(terms):
        return tuple(replace(t, coeff=t.coeff * 10.0 ** k if k >= 0
                             else t.coeff / 10.0 ** -k) for t in terms)
    return HomogeneousField(scaled(field.f_terms), scaled(field.g_terms),
                            field.alpha)


@st.composite
def specs_and_scalings(draw):
    """vdp's linear field plus a random field of higher degree (a built
    zero, a rational-exponent field or a random integer one); one field
    is scaled by 10**k and its b by 10**-k."""
    kind = draw(st.sampled_from(["hamiltonian", "reflection", "rational",
                                 "integer"]))
    if kind == "rational":
        field = draw(signed_power_fields().filter(lambda f: f.alpha > 1))
    else:
        alpha = draw(st.integers(2, 60))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        field = (_hamiltonian_field(rng, alpha, 1.0) if kind == "hamiltonian"
                 else _random_integer_field(rng, alpha))
        if kind == "reflection":
            field = _minus_its_reflection(field)
    spec = with_b(vdp().spec, (draw(st.floats(0.5, 2.0)),
                               draw(st.floats(-2.0, -0.5))))
    spec = replace(spec, fields=(spec.fields[0], field))
    return spec, draw(st.integers(0, 1)), draw(st.integers(-20, 20))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(specs_and_scalings())
def test_scaling_a_field_against_its_b_changes_nothing(case):
    # the system is the same, so the zero decisions and h must be too
    spec, j, k = case
    fields = list(spec.fields)
    fields[j] = _scale_field(fields[j], k)
    b = list(spec.b)
    b[j] = b[j] / 10.0 ** k if k >= 0 else b[j] * 10.0 ** -k
    scaled = replace(spec, fields=tuple(fields), b=tuple(b))
    avg, avg_scaled = average(spec), average(scaled)
    assert avg_scaled.keep == avg.keep
    assert avg_scaled.lower_bound == avg.lower_bound
    h, h_scaled = avg.h, avg_scaled.h
    assert h_scaled.exponents == h.exponents
    for c, c_scaled in zip(h.coefficients, h_scaled.coefficients):
        assert c_scaled == pytest.approx(c, rel=1e-15, abs=0.0)
