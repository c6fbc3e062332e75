"""Acceptance gate: one test per release criterion, timed, one PASS line each."""

import math
import time

import numpy as np
from conftest import (
    beta_moment,
    line_integral,
    wronskian_closed_form,
    wronskian_numeric,
)

from cycleavg import (
    AveragedFunction,
    RootError,
    angular_integral,
    average,
    classify,
    constant_field,
    descartes_bound,
    enumerate_systems,
    example1,
    example2,
    find_fixed_points,
    lienard,
    linear_field,
    monomial,
    positive_roots,
    retune_b,
    signed_root_field,
    vdp,
    with_epsilon,
    Fraction,
    HomogeneousField,
    PerturbationSpec,
)
from cycleavg.cli import _lienard_targets


def _finish(n: int, budget: float, t0: float, message: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {n}: {message} [{elapsed:.2f}s]")


def test_criterion_1_closed_form_integrals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_linear = worst_constant = worst_sqrt = 0.0
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, size=4)
        err = abs(angular_integral(linear_field(*p)) - (p[0] + p[3]) * math.pi)
        worst_linear = max(worst_linear, err)
        s = rng.uniform(-2.0, 2.0, size=2)
        worst_constant = max(worst_constant, abs(angular_integral(
            constant_field(*s))))
        q = rng.uniform(-2.0, 2.0, size=4)
        err = abs(angular_integral(signed_root_field(*q))
                  - 4.0 * (q[0] + q[3]) * beta_moment(1.5))
        worst_sqrt = max(worst_sqrt, err)
    assert worst_linear <= 1e-10
    assert worst_constant <= 1e-10
    assert worst_sqrt <= 1e-8
    _finish(1, 1.0, t0,
            f"angular integrals match closed forms (linear {worst_linear:.1e}, "
            f"constant {worst_constant:.1e}, signed-sqrt {worst_sqrt:.1e})")


def test_criterion_2_wronskian_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        exps = np.sort(rng.uniform(0.0, 6.0, size=n))
        while n > 1 and np.min(np.diff(exps)) < 1e-3:
            exps = np.sort(rng.uniform(0.0, 6.0, size=n))
        x = float(rng.uniform(0.3, 3.0))
        closed = wronskian_closed_form(tuple(exps), x)
        numeric = wronskian_numeric(tuple(exps), x)
        worst = max(worst, abs(closed - numeric) / max(1.0, abs(closed)))
    assert worst <= 1e-8
    _finish(2, 1.0, t0,
            f"power-function Wronskian closed form vs determinant "
            f"(100 draws, worst rel err {worst:.1e})")


def test_criterion_3_example1_one_cycle():
    t0 = time.perf_counter()
    preset = example1()  # epsilon = 0.01
    avg = average(preset.spec)
    assert avg.lower_bound == 1
    h = avg.h
    report = positive_roots(h)
    assert report.count == 1
    z = report.roots[0].z
    assert abs(z - preset.expected["roots"][0]) <= 1e-9
    certs = find_fixed_points(preset.spec, (0.3 * z, 3.0 * z))
    assert len(certs) == 1
    gap = abs(certs[0].r_star - z)
    assert gap <= 0.05 * z
    _finish(3, 10.0, t0,
            f"example1: lower bound 1, root z={z:.5f}, simulated cycle at "
            f"r*={certs[0].r_star:.5f} (gap {gap:.2e} <= {0.05 * z:.2e})")


def test_criterion_4_example2_synthesized_pair():
    t0 = time.perf_counter()
    preset = example2()  # epsilon = 0.005
    targets = preset.expected["targets"]
    avg, _ = retune_b(preset.spec, targets)
    assert sum(avg.keep) == 3
    retuned, h = avg.spec, avg.h
    roots = [r.z for r in positive_roots(h).roots]
    assert len(roots) == 2
    assert all(abs(z - t) <= 1e-8 * t for z, t in zip(roots, targets))
    certs = find_fixed_points(retuned, (0.3, 12.0))
    assert len(certs) == 2
    gaps = [abs(c.r_star - z) / z for c, z in zip(certs, roots)]
    assert all(g <= 0.05 for g in gaps)
    _finish(4, 30.0, t0,
            f"example2: roots synthesized onto {list(targets)}, two simulated "
            f"cycles within {max(gaps) * 100:.2f}% at eps=0.005")


def test_criterion_5_vdp_convergence_in_epsilon():
    t0 = time.perf_counter()
    root = 2.0 / math.sqrt(3.0)
    spec = vdp().spec
    gaps = []
    for eps in (0.02, 0.01, 0.005):
        certs = find_fixed_points(with_epsilon(spec, eps), (0.5, 2.0))
        assert len(certs) == 1
        gap = abs(certs[0].r_star - root)
        assert gap <= 2.0 * eps
        gaps.append(gap)
    assert gaps[0] >= gaps[1] >= gaps[2]
    _finish(5, 20.0, t0,
            f"cubic-damping cycle converges to 2/sqrt(3): gaps "
            f"{[f'{g:.2e}' for g in gaps]} within 2*eps, non-increasing")


def test_criterion_6_lienard_cycle_ladders():
    t0 = time.perf_counter()
    summary = []
    for m in (5, 6, 7):
        preset = lienard(m, epsilon=0.005)
        targets = _lienard_targets(m)
        avg, _ = retune_b(preset.spec, targets)
        retuned = avg.spec
        roots = [r.z for r in positive_roots(avg.h).roots]
        assert len(roots) == m - 3
        certs = find_fixed_points(retuned, (0.4, 2.2))
        assert len(certs) == m - 3
        worst = max(abs(c.r_star - z) / z for c, z in zip(certs, roots))
        assert worst <= 0.05
        summary.append(f"m={m}: {m - 3} cycles (worst gap {worst * 100:.2f}%)")
    _finish(6, 180.0, t0, "odd-damping ladders simulate all predicted cycles; "
            + "; ".join(summary))


def test_criterion_7_root_count_never_exceeds_sign_changes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    violations = 0
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        exps = np.sort(rng.uniform(0.0, 5.0, size=n))
        if n > 1 and np.min(np.diff(exps)) < 1e-2:
            continue
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        coeffs[rng.uniform(size=n) < 0.2] = 0.0
        checked += 1
        h = AveragedFunction(tuple(exps), tuple(coeffs))
        try:
            report = positive_roots(h)
        except RootError:
            violations += 1
            continue
        if not report.count <= report.descartes_bound <= n - 1:
            violations += 1
    assert checked == 500 and violations == 0
    _finish(7, 10.0, t0,
            "500 random averaged functions: root count <= sign changes "
            "<= #terms - 1, zero violations")


def test_criterion_8_line_integral_matches_average():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(10):
        fields, b = [], []
        alphas = np.sort(rng.choice(4, size=int(rng.integers(2, 4)),
                                    replace=False))
        for alpha in alphas:
            px = int(rng.integers(0, alpha + 1))
            fields.append(HomogeneousField(
                f_terms=(monomial(float(rng.uniform(-2, 2)), px, alpha - px),),
                g_terms=(monomial(float(rng.uniform(-2, 2)), alpha - px, px),),
                alpha=Fraction(int(alpha)),
            ))
            b.append(float(rng.uniform(-2, 2)))
        spec = PerturbationSpec(fields=tuple(fields), b=tuple(b),
                                epsilon=0.01, orientation="ccw")
        h = average(spec).h
        for k in (0.5, 1.0, 2.0):
            rk = math.sqrt(k)
            line = line_integral(spec, k)
            expected = 2.0 * math.pi * rk * h(rk)
            scale = 2.0 * math.pi * rk * sum(
                abs(c) * rk ** e for c, e in zip(h.coefficients, h.exponents))
            worst = max(worst, abs(line - expected) / max(1.0, scale))
        assert worst <= 1e-8
    _finish(8, 5.0, t0,
            f"circulation integral = 2*pi*sqrt(k)*h(sqrt(k)) on 10 random "
            f"smooth specs, k in (0.5, 1, 2); worst rel err {worst:.1e}")


def test_criterion_9_exhaustive_classifier_scan():
    t0 = time.perf_counter()
    total = 0
    errors = 0
    counts = {}
    for system in enumerate_systems(3):
        total += 1
        try:
            cert = classify(system)
        except Exception:
            errors += 1
            continue
        if cert.property not in {"P1", "P2", "P3", "P4", "P5", "P6"} \
                or not all(ch.ok for ch in cert.precondition_checks):
            errors += 1
            continue
        counts[cert.property] = counts.get(cert.property, 0) + 1
    assert total == 4 ** 6 * 27
    assert errors == 0
    _finish(9, 60.0, t0,
            f"all {total} monomial systems (exponents <= 3, coefficients in "
            f"{{-1,0,1}}) certified cycle-free; counts {dict(sorted(counts.items()))}")
