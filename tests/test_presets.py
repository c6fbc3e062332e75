"""Shipped presets: decompositions match their closed-form models."""

import math

import numpy as np
import pytest
from conftest import beta_moment

from cycleavg import (
    SQRT_MOMENT,
    Fraction,
    PerturbationSpec,
    Preset,
    average,
    capillary,
    catalog,
    example1,
    example2,
    herd,
    lienard,
    positive_roots,
    sir,
    vdp,
)
from cycleavg import averaging


def full_rhs(spec, x, y):
    """Center plus scaled perturbation, evaluated without the polar form."""
    cx, cy = (-y, x) if spec.orientation == "ccw" else (y, -x)
    for bj, field in zip(spec.b, spec.fields):
        fx, fy = field.evaluate(x, y)
        cx += spec.epsilon * bj * fx
        cy += spec.epsilon * bj * fy
    return cx, cy


def sgn_sqrt(u):
    return math.copysign(math.sqrt(abs(u)), u)


def test_moment_constants_match_beta_oracle():
    assert SQRT_MOMENT == pytest.approx(beta_moment(1.5), abs=1e-15)
    cbrt_moment = averaging._quarter_moment(Fraction(4, 3), 0)
    assert cbrt_moment == pytest.approx(beta_moment(4.0 / 3.0), abs=1e-15)
    assert abs(SQRT_MOMENT - 0.874) < 1e-3
    assert abs(cbrt_moment - 0.911) < 1e-3


def test_example1_recovers_expected_root():
    preset = example1()
    h = average(preset.spec).h
    report = positive_roots(h)
    assert report.count == preset.expected["lower_bound"] == 1
    (want,) = preset.expected["roots"]
    assert want == (4.0 * SQRT_MOMENT / math.pi) ** 2
    assert report.roots[0].z == pytest.approx(want, rel=1e-9)


def test_example1_pointwise():
    spec = example1(epsilon=0.01).spec
    rng = np.random.default_rng(21)
    for x, y in rng.uniform(-2.0, 2.0, size=(30, 2)):
        fx, fy = full_rhs(spec, x, y)
        assert fx == pytest.approx(-y + 0.01 * (1.0 + sgn_sqrt(x) - x), abs=1e-12)
        assert fy == pytest.approx(x + 0.01 * (1.0 + sgn_sqrt(y) - y), abs=1e-12)


def test_example2_structure():
    preset = example2()
    assert tuple(f.alpha for f in preset.spec.fields) == (
        Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    assert preset.expected == {"lower_bound": 2, "targets": (1.0, 4.0)}


def test_vdp_pointwise_and_expected():
    preset = vdp(epsilon=0.02)
    rng = np.random.default_rng(22)
    for x, y in rng.uniform(-2.0, 2.0, size=(30, 2)):
        fx, fy = full_rhs(preset.spec, x, y)
        assert fx == pytest.approx(-y + 0.02 * (x - x ** 3), abs=1e-12)
        assert fy == pytest.approx(x, abs=1e-15)
    assert preset.expected["roots"] == (2.0 / math.sqrt(3.0),)


def test_lienard_defaults_alternate():
    preset = lienard(6)
    assert preset.spec.b == (1.0, -1.0, 1.0, -1.0)
    assert preset.expected == {"monomials": 6, "max_roots": 3}


def test_capillary_pointwise():
    a = 1.3
    spec = capillary(a=a).spec
    assert spec.orientation == "cw"
    rng = np.random.default_rng(23)
    for x, y in rng.uniform(-3.0, 3.0, size=(30, 2)):
        fx, fy = full_rhs(spec, x, y)
        assert fx == pytest.approx(y, abs=1e-15)
        assert fy == pytest.approx(1.0 - a * y - math.sqrt(2.0) * sgn_sqrt(x),
                                   abs=1e-12)


def test_capillary_root_field_value():
    spec = capillary().spec
    assert spec.fields[1].evaluate(2.0, 0.0) == pytest.approx((0.0, -2.0),
                                                                abs=1e-15)


def test_herd_pointwise():
    c = 0.7
    spec = herd(c=c).spec
    rng = np.random.default_rng(24)
    for x, y in rng.uniform(-2.0, 2.0, size=(30, 2)):
        fx, fy = full_rhs(spec, x, y)
        assert fx == pytest.approx(x - x * x - y * sgn_sqrt(x), abs=1e-12)
        assert fy == pytest.approx(c * y * sgn_sqrt(x) - x * y, abs=1e-12)


def test_herd_interaction_field_value():
    spec = herd(c=1.0).spec
    assert spec.fields[1].evaluate(1.0, 1.0) == (-1.0, 1.0)


def test_sir_pointwise():
    beta, gamma = 0.8, 1.1
    spec = sir(beta=beta, gamma=gamma).spec
    rng = np.random.default_rng(25)
    for s, i in rng.uniform(0.05, 4.0, size=(30, 2)):
        fx, fy = full_rhs(spec, s, i)
        mixed = math.sqrt(s * i)
        assert fx == pytest.approx(-beta * mixed, abs=1e-12)
        assert fy == pytest.approx(beta * mixed - gamma * math.sqrt(i), abs=1e-12)
    # signed extension outside the first quadrant
    fx, _ = full_rhs(spec, -1.0, 4.0)
    assert fx == pytest.approx(beta * 2.0, abs=1e-12)


def test_catalog_contents():
    cat = catalog()
    assert set(cat) == {"example1", "example2", "vdp", "lienard5", "lienard6",
                        "lienard7", "capillary", "herd", "sir"}
    for name, make in cat.items():
        preset = make()
        assert isinstance(preset, Preset)
        assert isinstance(preset.spec, PerturbationSpec)
        assert preset.name.startswith(name[:4])
    assert len(cat["lienard5"]().spec.fields) == 3
