"""Cycle-free classifier: case coverage, certificate semantics, families."""

import functools
import hashlib
import json
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleavg import (
    ClassifierError,
    Fraction,
    HomogeneousField,
    MonomialSystem,
    PerturbationSpec,
    SpecError,
    angular_integral,
    average,
    certificate_to_json,
    classify,
    enumerate_systems,
    lienard,
    lienard_family,
    monomial,
    monomial_from_json,
    monomial_to_json,
    return_map,
)
from cycleavg import monomials


def rhs(sys, x, y):
    """Independent evaluation of (dx/dt, dy/dt)."""
    return (sys.a * x ** sys.p * y ** sys.q,
            sys.b * x ** sys.i * y ** sys.j + sys.c * x ** sys.k * y ** sys.l)


def test_exponent_validation():
    with pytest.raises(SpecError):
        MonomialSystem(1.0, -1, 0, 1.0, 0, 0, 1.0, 0, 0)
    with pytest.raises(SpecError):
        MonomialSystem(1.0, 1.5, 0, 1.0, 0, 0, 1.0, 0, 0)
    with pytest.raises(SpecError):
        MonomialSystem(1.0, True, 0, 1.0, 0, 0, 1.0, 0, 0)
    sys = MonomialSystem(1.0, 2.0, 0, 1.0, 0, 0, 1.0, 0, 0)
    assert sys.p == 2 and isinstance(sys.p, int)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x",
                                 10 ** 400, "1.5", True],
                         ids=["nan", "inf", "-inf", "None", "str", "10**400",
                              "numeric-str", "bool"])
@pytest.mark.parametrize("slot", [0, 3, 6])
def test_coefficient_validation(bad, slot):
    args = [1.0, 0, 1, -1.0, 1, 0, 1.0, 2, 1]
    args[slot] = bad
    with pytest.raises(SpecError):
        MonomialSystem(*args)


@pytest.fixture
def validator_calls(monkeypatch):
    """Names passed to the monomials module's two number checks."""
    calls = []
    for name in ("_nonneg_int", "_finite_float"):
        real = getattr(monomials, name)

        def spy(value, what, real=real):
            calls.append(what)
            return real(value, what)

        monkeypatch.setattr(monomials, name, spy)
    return calls


def test_classify_builds_no_system(validator_calls):
    sys = MonomialSystem(1.0, 0, 1, -1.0, 1, 0, 1.0, 2, 1)
    assert len(validator_calls) == 9
    assert classify(sys).case_label == "(ii)-divergence"
    assert len(validator_calls) == 9


def test_scan_validates_its_domain_once(validator_calls):
    systems = list(enumerate_systems(1))
    assert len(systems) == 27 * 64
    assert validator_calls == ["max_exp"] + ["scan coefficient"] * 3
    assert all(type(s) is MonomialSystem for s in systems)
    assert systems[-1] == MonomialSystem(1.0, 1, 1, 1.0, 1, 1, 1.0, 1, 1)


def test_replace_validates():
    sys = MonomialSystem(1.0, 0, 1, -1.0, 1, 0, 1.0, 2, 1)
    assert sys._replace(p=2.0).p == 2 and isinstance(sys._replace(p=2.0).p, int)
    for bad in ({"p": -1}, {"a": math.nan}, {"c": "1"}):
        with pytest.raises(SpecError):
            sys._replace(**bad)


_COEFFICIENTS = st.sampled_from([-2.5, -1.0, 0.0, 1e-200, 1.0, 3.0])
_EXPONENTS = st.integers(0, 6)


@st.composite
def _systems(draw):
    a, b, c = draw(_COEFFICIENTS), draw(_COEFFICIENTS), draw(_COEFFICIENTS)
    p, q, i, j = (draw(_EXPONENTS) for _ in range(4))
    # half the draws repeat the first dy/dt monomial, so merges are common
    k, l = (i, j) if draw(st.booleans()) else (draw(_EXPONENTS), draw(_EXPONENTS))
    return MonomialSystem(a, p, q, b, i, j, c, k, l)


@functools.cache
def _scan_table():
    """The form table a `--scan 2` fills, starting empty."""
    monomials._FORMS.clear()
    for sys in enumerate_systems(2):
        classify(sys)
    return dict(monomials._FORMS)


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_form_table_never_changes_a_certificate(sys):
    # Warm: a scan's forms, then twins with sys's exponents and other
    # coefficient signs and sizes, many of which share sys's form.
    monomials._FORMS.clear()
    monomials._FORMS.update(_scan_table())
    factors = (-1.0, 1e-200, 0.5, 3.0)
    for fa, fb, fc in product(factors, repeat=3):
        classify(sys._replace(a=sys.a * fa, b=sys.b * fb, c=sys.c * fc))
    warm = certificate_to_json(classify(sys))
    monomials._FORMS.clear()
    assert certificate_to_json(classify(sys)) == warm


def test_form_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(monomials, "_FORMS_MAX", 8)
    monomials._FORMS.clear()
    monomials._CERTS.clear()
    systems = list(enumerate_systems(1))
    bounded = []
    for sys in systems:
        bounded.append(certificate_to_json(classify(sys)))
        assert len(monomials._CERTS) <= len(monomials._FORMS) <= 8
    for sys, cert in zip(systems, bounded):
        monomials._FORMS.clear()
        assert certificate_to_json(classify(sys)) == cert


def test_reduce_common_factor():
    cert = classify(MonomialSystem(1.0, 2, 1, 1.0, 3, 2, 1.0, 2, 4))
    trace = cert.reduction_trace
    assert "x^2" in trace and "y^1" in trace
    assert trace.index("x^2") < trace.index("y^1")


# one representative per branch of the case tree
BRANCHES = [
    ((0.0, 0, 0, 1.0, 1, 0, 0.0, 0, 0), "P3", "a=0"),
    ((1.0, 1, 0, 1.0, 2, 0, 1.0, 2, 0), "P3", "bc=0-separable"),
    ((1.0, 1, 1, 1.0, 2, 0, -1.0, 2, 0), "P3", "bc=0-trivial"),
    ((1.0, 0, 2, 3.0, 4, 0, 0.0, 0, 0), "P4", "bc=0-integrable"),
    ((1.0, 1, 1, 2.0, 0, 3, 0.0, 0, 0), "P3", "bc=0-separable"),
    ((1.0, 1, 1, 1.0, 1, 1, 0.0, 0, 0), "P2", "bc=0-line"),
    ((1.0, 0, 0, 0.0, 0, 0, 2.0, 1, 0), "P4", "bc=0-integrable"),
    ((1.0, 0, 0, 1.0, 1, 0, 1.0, 2, 0), "P1", "(i)"),
    ((1.0, 0, 1, 1.0, 1, 0, 1.0, 2, 0), "P4", "(ii)-integrable"),
    ((1.0, 0, 1, 1.0, 1, 0, 1.0, 1, 2), "P1", "(ii)-parity"),
    ((1.0, 0, 2, -1.0, 1, 0, -1.0, 1, 2), "P1", "(ii)-parity"),
    ((1.0, 0, 1, -1.0, 1, 0, 1.0, 3, 2), "P6", "(ii)-reversible"),
    ((1.0, 0, 1, -1.0, 1, 0, 1.0, 1, 1), "P6", "(ii)-reversible"),
    ((1.0, 0, 1, -1.0, 1, 0, 1.0, 2, 1), "P5", "(ii)-divergence"),
    ((1.0, 1, 0, 1.0, 0, 1, 1.0, 0, 2), "P3", "(iii)"),
    ((1.0, 0, 1, 1.0, 0, 0, 1.0, 0, 2), "P3", "(iv)-separable"),
    ((1.0, 0, 1, 1.0, 0, 0, 1.0, 2, 0), "P4", "(iv)-integrable"),
    ((1.0, 1, 1, 1.0, 0, 0, 1.0, 2, 0), "P4", "(iv)-line-integrable"),
    ((1.0, 1, 1, 1.0, 0, 0, 1.0, 1, 1), "P1", "(iv)-nocrit"),
    ((1.0, 1, 1, 1.0, 0, 2, 1.0, 0, 0), "P3", "(v)-separable"),
    ((1.0, 0, 1, 1.0, 0, 1, 1.0, 2, 0), "P1", "(v)-parity"),
    ((1.0, 0, 1, 1.0, 0, 2, -1.0, 1, 0), "P6", "(v)-reversible"),
    ((1.0, 0, 1, 1.0, 0, 3, -1.0, 1, 0), "P5", "(v)-divergence"),
    ((1.0, 1, 1, 1.0, 0, 1, 1.0, 2, 0), "P2", "(v)-line"),
    ((-1.0, 1, 2, 2.0, 3, 1, 1.0, 1, 3), "P1", "(v)-parity"),
]


#: Two-monomial systems in the first reduced form (i >= 1 after the
#: strip): the y-free dy/dt monomial is put first only when q >= 1.
FIRST_FORM = [
    ((1.0, 0, 1, 1.0, 3, 0, 1.0, 2, 1),
     ("order dy/dt monomials by x-power", "swap dy/dt monomials"), "P1", "(ii)-parity"),
    ((1.0, 0, 0, 1.0, 1, 1, 1.0, 2, 0), (), "P1", "(i)"),
]


@pytest.mark.parametrize("args, trace, prop, label", FIRST_FORM)
def test_first_reduced_form_trace(args, trace, prop, label):
    cert = classify(MonomialSystem(*args))
    assert (cert.reduction_trace, cert.property, cert.case_label) == (trace, prop, label)
    assert all(ch.ok for ch in cert.precondition_checks)


def test_first_reduced_form_must_come_complete():
    # normal_form puts the y-free monomial first; the branch only checks
    with pytest.raises(ClassifierError, match="j = 0"):
        monomials._dispatch((1, 0, 1, 1, 1, 1, 1, 2, 0))


@functools.cache
def _cold_scan_3():
    """sha256 of every `--scan 3` certificate's sorted-key JSON, in scan
    order, and the form table that scan leaves, starting empty."""
    monomials._FORMS.clear()
    monomials._CERTS.clear()
    digest = hashlib.sha256()
    for sys in enumerate_systems(3):
        cert = certificate_to_json(classify(sys))
        digest.update(json.dumps(cert, sort_keys=True).encode())
    return digest.hexdigest(), dict(monomials._FORMS), dict(monomials._CERTS)


def test_scan_3_certificates_are_pinned():
    digest, _, _ = _cold_scan_3()
    assert digest == "cd3245c5ab16b082ec49032415ed2934491a6c67a473fea4b1a2ded04ae451da"


def test_random_certificates_are_pinned():
    # Exponents up to 6 reach branches and check names a `--scan 3` never
    # meets; odd n repeats the first dy/dt monomial, so merges occur too.
    rng = random.Random(23)
    coefficients = (-2.5, -1.0, 0.0, 1e-200, 1.0, 3.0)
    digest = hashlib.sha256()
    for n in range(50_000):
        a, b, c = (rng.choice(coefficients) for _ in range(3))
        p, q, i, j = (rng.randint(0, 6) for _ in range(4))
        k, l = (i, j) if n % 2 else (rng.randint(0, 6), rng.randint(0, 6))
        cert = classify(MonomialSystem(a, p, q, b, i, j, c, k, l))
        digest.update(json.dumps(certificate_to_json(cert), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "2b966abdcb947c80770a6d1633eba911f1dfb23e5cf81897bfaa41ba24cfee3d")


def test_form_table_holds_complete_forms():
    _, forms, certs = _cold_scan_3()
    assert (len(forms), len(certs)) == (4009, 24)
    assert all(cert.reduction_trace == () for cert in forms.values())
    for a, p, q, b, i, j, c, k, l in forms:
        if a and b and c and i >= 1 and q >= 1:
            assert j == 0, (a, p, q, b, i, j, c, k, l)


def test_branch_coverage():
    for args, prop, label in BRANCHES:
        cert = classify(MonomialSystem(*args))
        assert (cert.property, cert.case_label) == (prop, label), args
        assert all(ch.ok for ch in cert.precondition_checks)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_certificate_ignores_coefficient_scale(scale):
    # scaling every coefficient by one positive factor rescales time
    for args, _, _ in BRANCHES:
        a, p, q, b, i, j, c, k, l = args
        scaled = (a * scale, p, q, b * scale, i, j, c * scale, k, l)
        assert certificate_to_json(classify(MonomialSystem(*scaled))) \
            == certificate_to_json(classify(MonomialSystem(*args))), args


def test_parity_tests_signs_not_products():
    # a*b underflows to 0 for the scaled system; the sign rule still holds
    unscaled = classify(MonomialSystem(1.0, 0, 1, 1.0, 1, 0, 1.0, 2, 1))
    scaled = classify(MonomialSystem(1e-200, 0, 1, 1e-200, 1, 0, 1.0, 2, 1))
    assert unscaled.case_label == "(ii)-parity"
    assert certificate_to_json(scaled) == certificate_to_json(unscaled)


def test_reduction_trace_recorded():
    cert = classify(MonomialSystem(-1.0, 1, 2, 2.0, 3, 1, 1.0, 1, 3))
    assert cert.reduction_trace == (
        "time reversal t -> -t", "x^1", "y^1",
        "order dy/dt monomials by x-power",
    )
    cert = classify(MonomialSystem(1.0, 1, 0, 1.0, 2, 0, 1.0, 2, 0))
    assert "merge duplicate dy/dt monomials" in cert.reduction_trace


def test_reversible_certificate_has_y_mirror():
    sys = MonomialSystem(1.0, 0, 1, -1.0, 1, 0, 1.0, 3, 2)
    cert = classify(sys)
    assert cert.property == "P6"
    assert any("(x,-y,-t)" in ch.name for ch in cert.precondition_checks)
    rng = np.random.default_rng(11)
    for x, y in rng.uniform(-2.0, 2.0, size=(50, 2)):
        fx, gy = rhs(sys, x, y)
        fm, gm = rhs(sys, x, -y)
        assert fm == -fx and gm == gy


def test_reversible_certificate_has_x_mirror():
    sys = MonomialSystem(1.0, 0, 1, -1.0, 1, 0, 1.0, 1, 1)
    cert = classify(sys)
    assert cert.property == "P6"
    assert any("(-x,y,-t)" in ch.name for ch in cert.precondition_checks)
    rng = np.random.default_rng(12)
    for x, y in rng.uniform(-2.0, 2.0, size=(50, 2)):
        fx, gy = rhs(sys, x, y)
        fm, gm = rhs(sys, -x, y)
        assert fm == fx and gm == -gy


def test_divergence_certificate_single_signed():
    for args in [(1.0, 0, 1, -1.0, 1, 0, 1.0, 2, 1),
                 (1.0, 0, 1, 1.0, 0, 3, -1.0, 1, 0)]:
        sys = MonomialSystem(*args)
        assert classify(sys).property == "P5"
        rng = np.random.default_rng(13)
        pts = rng.uniform(-3.0, 3.0, size=(200, 2))

        def div(x, y):
            acc = 0.0
            if sys.p:
                acc += sys.a * sys.p * x ** (sys.p - 1) * y ** sys.q
            if sys.j:
                acc += sys.b * sys.j * x ** sys.i * y ** (sys.j - 1)
            if sys.l:
                acc += sys.c * sys.l * x ** sys.k * y ** (sys.l - 1)
            return acc

        values = [div(x, y) for x, y in pts]
        assert all(v >= 0.0 for v in values) or all(v <= 0.0 for v in values)
        assert any(v != 0.0 for v in values)


def test_integrable_certificate_conserves_energy():
    # dx/dt = y, dy/dt = x + x^2 conserves y^2/2 - x^2/2 - x^3/3
    sys = MonomialSystem(1.0, 0, 1, 1.0, 1, 0, 1.0, 2, 0)
    assert classify(sys).property == "P4"
    rng = np.random.default_rng(14)
    for x, y in rng.uniform(-2.0, 2.0, size=(50, 2)):
        fx, gy = rhs(sys, x, y)
        d_energy = (-x - x * x) * fx + y * gy
        assert abs(d_energy) <= 1e-12 * (1.0 + abs(x) ** 3 + abs(y) ** 2)


def test_nocrit_certificate_has_no_critical_points():
    sys = MonomialSystem(1.0, 1, 1, 1.0, 0, 0, 1.0, 1, 1)
    assert classify(sys).case_label == "(iv)-nocrit"
    grid = np.linspace(-2.0, 2.0, 41)
    worst = min(max(abs(v) for v in rhs(sys, x, y)) for x in grid for y in grid)
    assert worst > 0.3


def test_reversible_perturbation_closes_every_orbit():
    # (x y, x^2) is odd/even under the y-mirror, so the perturbed center
    # stays reversible and the return map is the identity at any epsilon
    field = HomogeneousField(f_terms=(monomial(1.0, 1, 1),),
                             g_terms=(monomial(1.0, 2, 0),),
                             alpha=Fraction(2))
    assert abs(angular_integral(field)) <= 1e-12
    spec = PerturbationSpec(fields=(field,), b=(1.0,), epsilon=0.2,
                            orientation="ccw")
    for r0 in (0.5, 1.0, 1.3):
        sample = return_map(spec, r0)
        assert abs(sample.r1 - r0) <= 1e-9


def test_vanishing_average_leaves_second_order_displacement():
    # x^2 is even in x, x*y is odd in y: the sum respects neither mirror,
    # so the orbits do drift, but only at second order in epsilon
    field = HomogeneousField(f_terms=(monomial(1.0, 2, 0), monomial(1.0, 1, 1)),
                             g_terms=(), alpha=Fraction(2))
    assert abs(angular_integral(field)) <= 1e-12

    def displacement(eps):
        spec = PerturbationSpec(fields=(field,), b=(1.0,), epsilon=eps,
                                orientation="ccw")
        return return_map(spec, 1.0).r1 - 1.0

    d1, d2 = displacement(0.1), displacement(0.05)
    assert 1e-4 <= abs(d1) <= 0.02  # well below the first-order scale 2*pi*eps
    assert 3.5 <= abs(d1 / d2) <= 4.8  # quadratic in epsilon


def test_exhaustive_scan_small():
    counts = {}
    total = 0
    for sys in enumerate_systems(max_exp=1):
        cert = classify(sys)
        assert all(ch.ok for ch in cert.precondition_checks)
        counts[cert.property] = counts.get(cert.property, 0) + 1
        total += 1
    assert total == 27 * 64
    assert set(counts) <= {"P1", "P2", "P3", "P4", "P5", "P6"}
    assert counts["P3"] > 0 and counts["P1"] > 0


def test_monomial_json_round_trip():
    sys = MonomialSystem(-1.0, 1, 2, 2.0, 3, 1, 1.0, 1, 3)
    assert monomial_from_json(monomial_to_json(sys)) == sys
    with pytest.raises(SpecError):
        monomial_from_json([1, 2, 3])
    with pytest.raises(SpecError):
        monomial_from_json({"a": 1.0, "p": 0})
    for bad in ("x", None, math.nan, math.inf):
        with pytest.raises(SpecError):
            monomial_from_json({"a": 1.0, "p": 0, "q": 0, "b": bad, "i": 0,
                                "j": 0, "c": 0, "k": 0, "l": 0})


def test_certificate_json_shape():
    payload = certificate_to_json(classify(MonomialSystem(
        1.0, 0, 1, -1.0, 1, 0, 1.0, 2, 1)))
    assert payload["property"] == "P5"
    assert payload["case"] == "(ii)-divergence"
    assert isinstance(payload["trace"], list)
    assert all(set(ch) == {"name", "ok"} for ch in payload["checks"])
    json.dumps(payload)  # no stray non-serializable types


def test_lienard_family_structure():
    spec = lienard_family(4, (1.0, -1.0), epsilon=0.02)
    assert spec.orientation == "ccw"
    assert spec.epsilon == 0.02
    assert spec.b == (1.0, -1.0)
    assert tuple(f.alpha for f in spec.fields) == (Fraction(1), Fraction(3))
    for d, field in enumerate(spec.fields):
        assert field.g_terms == ()
        (term,) = field.f_terms
        assert (term.x_exp, term.y_exp) == (Fraction(2 * d + 1), Fraction(0))


def test_lienard_family_validation():
    with pytest.raises(ValueError):
        lienard_family(3, (1.0,))
    with pytest.raises(ValueError):
        lienard_family(5, (1.0, -1.0))
    with pytest.raises(ValueError):
        lienard_family(4.0, (1.0, -1.0))


def test_monomial_count_lower_bound():
    # m monomials realize m - 3 limit cycles: the Lienard family with m
    # monomials has m - 2 nonzero integrals, so b tunes m - 3 simple zeros
    assert [average(lienard(m).spec).lower_bound for m in (4, 5, 6, 7)] \
        == [1, 2, 3, 4]


def test_classifier_error_is_exported():
    assert issubclass(ClassifierError, Exception)
