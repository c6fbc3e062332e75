"""Signed power terms, homogeneous fields, and the spec JSON codec."""

import json
import math

import numpy as np
import pytest

from cycleavg import (
    Fraction,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    SpecError,
    angular_components,
    monomial,
    reflect_diagonal,
    spec_from_json,
    spec_to_json,
    swap_orientation,
    term_from_json,
    term_to_json,
    with_b,
    with_epsilon,
)
from cycleavg import presets


def test_eval_term_spec_examples():
    t = SignedPowerTerm(1.0, Fraction(1, 2), Fraction(0), True, False)
    assert t.value(-4.0, 7.0) == -2.0
    t = SignedPowerTerm(3.0, Fraction(2), Fraction(1), False, True)
    assert t.value(2.0, -1.0) == -12.0
    t = SignedPowerTerm(1.0, Fraction(1, 3), Fraction(0), True, False)
    assert t.value(-8.0, 0.0) == pytest.approx(-2.0, abs=1e-14)


def test_eval_term_axis_values():
    t = SignedPowerTerm(2.0, Fraction(1, 2), Fraction(0), True, False)
    assert t.value(0.0, 5.0) == 0.0
    const = SignedPowerTerm(3.5, Fraction(0), Fraction(0), False, False)
    assert const.value(0.0, 0.0) == 3.5
    mixed = SignedPowerTerm(1.0, Fraction(0), Fraction(2), False, False)
    assert mixed.value(0.0, -3.0) == 9.0


def test_term_constructor_rejections():
    with pytest.raises(SpecError):
        SignedPowerTerm(1.0, Fraction(-1, 2), Fraction(0), False, False)
    with pytest.raises(SpecError):
        SignedPowerTerm(1.0, Fraction(0), Fraction(0), True, False)
    with pytest.raises(SpecError):
        SignedPowerTerm(math.inf, Fraction(1), Fraction(0), True, False)
    with pytest.raises(SpecError):
        SignedPowerTerm(1.0, 0.5, Fraction(0), True, False)  # inexact float


@pytest.mark.parametrize("build", [
    lambda: SignedPowerTerm("2"),
    lambda: SignedPowerTerm(True),
    lambda: monomial(True, 1, 0),
], ids=["string", "bool", "monomial_bool"])
def test_term_coefficient_checked_as_on_the_wire(build):
    # term_from_json refuses "2" and true; so does the Python API
    with pytest.raises(SpecError):
        build()


@pytest.mark.parametrize("flags", [
    ("yes", False), (True, 1), (np.True_, False),
], ids=["string", "int", "numpy_bool"])
def test_term_sign_flags_checked_as_on_the_wire(flags):
    # refused at construction, as on the wire, so every term the Python
    # API builds round-trips through JSON
    with pytest.raises(SpecError):
        SignedPowerTerm(1.0, 1, 1, *flags)


def test_term_continuity_across_axes():
    # p(u) -> p(0) at least like delta^min(a,1) for every term shape
    for exp, signed in ((Fraction(1, 2), True), (Fraction(1, 3), True),
                        (Fraction(2), False), (Fraction(3, 2), False)):
        t = SignedPowerTerm(1.0, exp, Fraction(0), signed, False)
        at0 = t.value(0.0, 1.0)
        for delta in (1e-2, 1e-4, 1e-6):
            for s in (+1.0, -1.0):
                jump = abs(t.value(s * delta, 1.0) - at0)
                assert jump <= 2.0 * delta ** min(float(exp), 1.0)


def test_monomial_sign_flags_follow_parity():
    m = monomial(2.0, 3, 2)
    assert m.x_signed and not m.y_signed
    assert m.value(-1.0, -1.0) == -2.0
    assert monomial(1.0, 2, 0).value(-3.0, 0.0) == 9.0


def test_field_degree_invariant_enforced():
    good = monomial(1.0, 2, 1)
    with pytest.raises(SpecError):
        HomogeneousField(f_terms=(good,), g_terms=(), alpha=Fraction(2))
    field = HomogeneousField(f_terms=(good,), g_terms=(), alpha=Fraction(3))
    assert field.evaluate(2.0, 1.0) == (4.0, 0.0)


def test_angular_components_identity_and_rotation():
    ident = HomogeneousField((monomial(1.0, 1, 0),), (monomial(1.0, 0, 1),),
                             Fraction(1))
    fr, ft = angular_components(ident, math.pi / 3)
    assert fr == pytest.approx(1.0, abs=1e-15)
    assert ft == pytest.approx(0.0, abs=1e-15)
    rot = HomogeneousField((monomial(-1.0, 0, 1),), (monomial(1.0, 1, 0),),
                           Fraction(1))
    for theta in (0.0, 0.7, 2.0, 5.5):
        fr, ft = angular_components(rot, theta)
        assert fr == pytest.approx(0.0, abs=1e-15)
        assert ft == pytest.approx(1.0, abs=1e-15)


def test_angular_components_signed_sqrt_at_pi():
    field = HomogeneousField(
        (SignedPowerTerm(1.0, Fraction(1, 2), Fraction(0), True, False),),
        (), Fraction(1, 2))
    fr, _ = angular_components(field, math.pi)
    assert fr == pytest.approx(1.0, abs=1e-12)


def test_angular_components_periodic():
    # offset keeps the samples away from the axis kinks, where the square
    # root would amplify the 2*pi rounding wobble to sqrt(eps)
    field = presets.herd().spec.fields[1]
    for theta in 0.05 + np.linspace(0.0, 2.0 * math.pi, 17):
        a = angular_components(field, theta)
        b = angular_components(field, theta + 2.0 * math.pi)
        assert abs(a[0] - b[0]) <= 1e-13
        assert abs(a[1] - b[1]) <= 1e-13


def homogeneity_residual(field: HomogeneousField, scale: float, x: float, y: float) -> float:
    """Max-norm defect of X(scale*x, scale*y) = scale^alpha * X(x, y); scale > 0."""
    fs, gs = field.evaluate(scale * x, scale * y)
    f1, g1 = field.evaluate(x, y)
    factor = scale ** float(field.alpha)
    return float(max(abs(fs - factor * f1), abs(gs - factor * g1)))


def test_homogeneity_residual_random():
    rng = np.random.default_rng(42)
    fields = [p.spec.fields[i] for p in (presets.example1(), presets.herd(),
                                         presets.sir()) for i in range(2)]
    for field in fields:
        for _ in range(100):
            r = float(rng.uniform(0.1, 10.0))
            x, y = rng.uniform(-2.0, 2.0, size=2)
            fx, gy = field.evaluate(x, y)
            bound = 1e-12 * (1.0 + max(abs(fx), abs(gy)))
            assert homogeneity_residual(field, r, float(x), float(y)) <= bound


def test_swap_orientation_is_involution():
    cw = presets.capillary().spec
    ccw = swap_orientation(cw)
    assert ccw.orientation == "ccw"
    for f_cw, f_ccw in zip(cw.fields, ccw.fields):
        assert reflect_diagonal(f_ccw) == f_cw
    with pytest.raises(SpecError):
        swap_orientation(ccw)


def test_swap_orientation_preserves_values():
    cw = presets.capillary().spec
    ccw = swap_orientation(cw)
    rng = np.random.default_rng(3)
    for f_cw, f_ccw in zip(cw.fields, ccw.fields):
        for _ in range(20):
            x, y = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            assert f_ccw.evaluate(y, x) == tuple(reversed(f_cw.evaluate(x, y)))


def test_spec_validation():
    lin = presets.linear_field(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(SpecError):
        PerturbationSpec(fields=(lin,), b=(1.0, 2.0), epsilon=0.1)
    with pytest.raises(SpecError):
        PerturbationSpec(fields=(lin, lin), b=(1.0, 1.0), epsilon=0.1)
    with pytest.raises(SpecError):
        PerturbationSpec(fields=(lin,), b=(1.0,), epsilon=0.1, orientation="up")


@pytest.mark.parametrize("build", [
    lambda spec: PerturbationSpec(fields=spec.fields, b=("1", False), epsilon=0.01),
    lambda spec: with_epsilon(spec, True),
    lambda spec: with_b(spec, [True, "2"]),
], ids=["spec", "with_epsilon", "with_b"])
def test_spec_numbers_checked_as_on_the_wire(build):
    # the Python API refuses what the JSON codec refuses: bools and strings
    with pytest.raises(SpecError):
        build(presets.vdp().spec)


def test_spec_numbers_accept_numpy_floats():
    spec = presets.vdp().spec
    tuned = with_b(with_epsilon(spec, np.float64(0.02)), np.array([1.0, -2.0]))
    assert tuned.epsilon == 0.02 and tuned.b == (1.0, -2.0)
    assert type(tuned.epsilon) is float
    assert all(type(v) is float for v in tuned.b)


def test_json_round_trip_byte_identical():
    for maker in presets.catalog().values():
        spec = maker().spec
        blob = json.dumps(spec_to_json(spec), sort_keys=True)
        again = json.dumps(spec_to_json(spec_from_json(json.loads(blob))),
                           sort_keys=True)
        assert blob == again


def test_json_exponents_survive_as_exact_rationals():
    t = SignedPowerTerm(1.0, Fraction(1, 3), Fraction(1, 6), True, False)
    back = term_from_json(term_to_json(t))
    assert back.x_exp == Fraction(1, 3) and back.y_exp == Fraction(1, 6)
    assert back == t


def test_json_malformed_rejected():
    with pytest.raises(SpecError):
        term_from_json({"c": 1.0, "px": "1/2", "py": "0"})
    with pytest.raises(SpecError):
        term_from_json({"c": 1.0, "px": "1/2", "py": "0", "sx": 1, "sy": False})
    with pytest.raises(SpecError):
        spec_from_json({"orientation": "ccw", "epsilon": 0.1, "b": []})
    with pytest.raises(SpecError):
        spec_from_json([1, 2, 3])
