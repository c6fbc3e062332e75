"""Rolle-recursion root isolation, interval degree, and coefficient synthesis."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cycleavg import (
    AveragedFunction,
    RootError,
    SynthesisError,
    descartes_bound,
    positive_roots,
    synthesize_coefficients,
)
from cycleavg.roots import check_bracket


def test_descartes_bound_counts_sign_changes():
    assert descartes_bound(AveragedFunction((1.0,), (3.0,))) == 0
    assert descartes_bound(AveragedFunction((0.5, 1.0), (2.0, -1.0))) == 1
    assert descartes_bound(AveragedFunction((0.0, 1.0, 2.0), (1.0, -3.0, 1.0))) == 2
    assert descartes_bound(AveragedFunction((0.0, 1.0, 2.0), (1.0, 1.0, 1.0))) == 0


def test_interval_degree_signs():
    h = AveragedFunction((0.5, 1.0), (2.0, -1.0))  # root at z = 4, decreasing
    flipped = AveragedFunction(h.exponents, tuple(-c for c in h.coefficients))
    assert [r.interval_degree for r in positive_roots(h).roots] == [-1]
    assert [r.interval_degree for r in positive_roots(flipped).roots] == [1]
    assert check_bracket((1, 9)) == (1.0, 9.0)
    for bracket in ((-1.0, 2.0), (1.0, math.inf), (2.0, 1.0),
                    (math.nan, 2.0)):
        with pytest.raises(ValueError):
            check_bracket(bracket)


def test_bracket_is_exactly_two_values():
    for bracket in ((0.5, 2.0, 7.0), (0.5,), (), [0.5, 2.0, 7.0]):
        with pytest.raises(ValueError, match="two values"):
            check_bracket(bracket)
    assert check_bracket(np.array([0.5, 2.0])) == (0.5, 2.0)


def test_positive_roots_single():
    h = AveragedFunction((0.5, 1.0), (2.0, -1.0))
    report = positive_roots(h)
    assert report.descartes_bound == 1
    assert report.count == 1
    root = report.roots[0]
    assert root.z == pytest.approx(4.0, rel=1e-9)
    assert root.derivative_sign == -1
    assert root.interval_degree == -1


def test_positive_roots_empty_cases():
    assert positive_roots(AveragedFunction((), ())).count == 0
    assert positive_roots(AveragedFunction((1.0, 2.0), (0.0, 0.0))).count == 0
    assert positive_roots(AveragedFunction((1.0, 3.0), (1.0, 2.0))).count == 0


def test_non_finite_value_raises():
    # a NaN coefficient has no sign, even from scaled terms
    with pytest.raises(RootError, match="not finite"):
        positive_roots(AveragedFunction((0.0, 1.0), (1.0, math.nan)))


@pytest.mark.parametrize("top", [110.0, 200.0])
def test_overflowing_sum_keeps_its_sign(top):
    # z^top overflows a double long before the bracket's end 1e3; the
    # sign then comes from the terms scaled by the largest one
    report = positive_roots(AveragedFunction((0.0, top), (1.0, -1.0)))
    assert [r.z for r in report.roots] == [1.0]
    assert report.roots[0].derivative_sign == -1
    report = positive_roots(AveragedFunction((1.0, top), (1.0, -1.0)))
    assert [r.z for r in report.roots] == [1.0]


def test_positive_roots_known_cubic():
    # z/2 - 3 z^3 / 8: positive root 2/sqrt(3)
    h = AveragedFunction((1.0, 3.0), (0.5, -0.375))
    report = positive_roots(h)
    assert report.count == 1
    assert report.roots[0].z == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-10)


def test_synthesize_round_trip():
    exps = (1.0, 3.0, 5.0)
    coeffs = synthesize_coefficients(exps, (1.0, 2.0))
    assert coeffs[-1] == 1.0  # (-1)^2
    h = AveragedFunction(exps, coeffs)
    found = [r.z for r in positive_roots(h).roots]
    assert found == pytest.approx([1.0, 2.0], rel=1e-9)


def test_synthesize_sign_convention():
    coeffs = synthesize_coefficients((0.5, 1.0), (4.0,))
    assert coeffs[-1] == -1.0  # odd target count: negative leading term
    h = AveragedFunction((0.5, 1.0), coeffs)
    assert h(9.0) < 0  # decays beyond the outermost zero


def test_synthesize_no_targets():
    assert synthesize_coefficients((2.0,), ()) == (1.0,)


def test_synthesize_input_validation():
    with pytest.raises(ValueError):
        synthesize_coefficients((1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        synthesize_coefficients((2.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        synthesize_coefficients((1.0, 2.0), (-1.0,))
    with pytest.raises(ValueError):
        synthesize_coefficients((1.0, 2.0, 3.0), (2.0, 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="targets"):
            synthesize_coefficients((1.0, 2.0), (bad,))


def test_synthesize_clustered_targets_abort():
    # near-coincident targets drive the Vandermonde system singular
    with pytest.raises(SynthesisError):
        synthesize_coefficients((1.0, 1.0 + 1e-13, 2.0), (1.0, 1.0 + 1e-13))


def test_random_ect_descartes_consistency():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        exps = np.sort(rng.uniform(0.0, 5.0, size=n))
        if n > 1 and np.any(np.diff(exps) < 1e-2):
            continue
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        h = AveragedFunction(tuple(exps), tuple(coeffs))
        report = positive_roots(h)
        assert report.count <= report.descartes_bound <= n - 1


def test_roots_are_simple_zeros_with_nonzero_degree():
    coeffs = synthesize_coefficients((0.5, 2.0, 3.5), (0.7, 2.1))
    h = AveragedFunction((0.5, 2.0, 3.5), coeffs)
    for root in positive_roots(h).roots:
        assert root.interval_degree in (-1, 1)
        assert root.derivative_sign == root.interval_degree


def test_near_double_pair_gives_both_roots():
    h = AveragedFunction((0.0, 1.0, 2.0), (1.001, -2.001, 1.0))  # (z-1)(z-1.001)
    report = positive_roots(h)
    assert [r.z for r in report.roots] == pytest.approx([1.0, 1.001], rel=1e-12)
    assert [r.interval_degree for r in report.roots] == [-1, 1]


@st.composite
def exponents_and_targets(draw):
    """2-5 distinct exponents in [0, 5]; one target fewer in [1e-3, 1e2],
    consecutive ratios at least 1.001 and often exactly 1.001."""
    exps = sorted(draw(st.sets(st.floats(0.0, 5.0), min_size=2, max_size=5)))
    n = len(exps) - 1
    logs = sorted(draw(st.lists(st.floats(math.log(1e-3), math.log(1e2 / 1.001 ** 3)),
                                min_size=n, max_size=n)))
    near = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    targets = [math.exp(logs[0])]
    for x, pair in zip(logs[1:], near):
        targets.append(1.001 * targets[-1] if pair else max(math.exp(x), 1.001 * targets[-1]))
    return exps, targets


@settings(max_examples=200, deadline=None)
@given(exponents_and_targets())
@example(((0.0, 1.0, 2.0), [1.0, 1.001]))
@example(((0.5, 1.5, 2.5, 4.0), [0.02, 0.02002, 30.0]))
def test_synthesized_targets_are_all_recovered(case):
    # synthesis verifies its zeros on (min / 10, max * 10); on the default
    # bracket they must come back as well, never fewer
    exps, targets = case
    try:
        coeffs = synthesize_coefficients(exps, targets)
    except SynthesisError:
        return
    found = [r.z for r in positive_roots(AveragedFunction(exps, coeffs)).roots]
    assert len(found) == len(targets)
    assert found == pytest.approx(targets, rel=1e-9, abs=0.0)


def test_badly_scaled_terms_are_recovered():
    # four targets whose h has terms near 1e7 (cf. the bench's SCALED_TERMS)
    exps = (1 / 3, 1 / 2, 2 / 3, 3 / 4, 3.0)
    targets = [0.362, 0.9, 11.2, 59.2]
    h = AveragedFunction(exps, synthesize_coefficients(exps, targets))
    assert max(abs(c) * 59.2 ** e for c, e in zip(h.coefficients, h.exponents)) > 1e6
    report = positive_roots(h)
    assert [r.z for r in report.roots] == pytest.approx(targets, rel=1e-9, abs=0.0)
    assert [r.interval_degree for r in report.roots] == [-1, 1, -1, 1]


def test_zero_does_not_depend_on_the_bracket():
    # zeros 1% apart: rounding blurs the sign of h over ~2e-9 around each
    exps = (2.0, 2.75, 2.8125, 3.0)
    h = AveragedFunction(exps, synthesize_coefficients(exps, (1.0, 1.01, 1.0201)))
    wide = [r.z for r in positive_roots(h).roots]
    assert len(wide) == 3
    for bracket in ((0.1, 10.0), (0.5, 1.5), (0.99, 1.03)):
        assert [r.z for r in positive_roots(h, bracket).roots] == wide
