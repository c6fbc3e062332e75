"""Sign-change root isolation, interval degree, and coefficient synthesis."""

import math

import numpy as np
import pytest

from cycleavg import (
    AveragedFunction,
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
        scale = max(abs(c) * 1e3 ** e for c, e in zip(coeffs, exps))
        report = positive_roots(h, abs_tol=1e-9 * max(scale, 1.0))
        assert report.count <= report.descartes_bound <= n - 1


def test_roots_are_simple_zeros_with_nonzero_degree():
    coeffs = synthesize_coefficients((0.5, 2.0, 3.5), (0.7, 2.1))
    h = AveragedFunction((0.5, 2.0, 3.5), coeffs)
    for root in positive_roots(h).roots:
        assert root.interval_degree in (-1, 1)
        assert root.derivative_sign == root.interval_degree
