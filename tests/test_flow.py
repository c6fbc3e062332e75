"""Return-map integration, fixed-point certificates, continuation."""

import csv
import gc
import json
import logging
import math
import re
import struct
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_newton_in_cell
from cycleavg import cli, flow
from cycleavg import (
    AngularMonotonicityError,
    ContinuationError,
    GuardBoundError,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    SpecError,
    angular_components,
    average,
    capillary,
    catalog,
    constant_field,
    continuation_check,
    example1,
    example2,
    find_fixed_points,
    lienard,
    linear_field,
    normalize_ccw,
    reflect_diagonal,
    retune_b,
    return_map,
    run_pipeline,
    scan_return_map,
    signed_root_field,
    vdp,
    with_b,
    with_epsilon,
)

VDP_ROOT = 2.0 / math.sqrt(3.0)


def test_zero_epsilon_is_identity():
    spec = with_epsilon(vdp().spec, 0.0)
    rng = np.random.default_rng(3)
    for r0 in rng.uniform(0.2, 5.0, size=10):
        sample = return_map(spec, float(r0), steps=64)
        assert abs(sample.r1 - r0) <= 1e-13
        assert sample.error_estimate == 0.0
        assert sample.min_theta_speed == 1.0


def test_step_halving_convergence():
    spec = vdp().spec
    reference = _revolution(spec, 1.0, 1024)
    errs = [abs(_revolution(spec, 1.0, n) - reference) for n in (8, 16, 32)]
    assert errs[0] < 1e-8
    assert errs[2] <= errs[0]
    assert _pinned_estimate(spec, 1.0, 16) < 1e-9


def test_displacement_sign_matches_averaged_function():
    spec = with_epsilon(vdp().spec, 0.005)
    h = average(spec).h
    for r0 in (0.5, 0.9, 1.4, 1.9):
        sample = return_map(spec, r0)
        assert math.copysign(1, sample.r1 - r0) == math.copysign(1, h(r0))


def test_vdp_fixed_point_matches_averaging():
    spec = with_epsilon(vdp().spec, 0.01)
    certs = find_fixed_points(spec, (0.5, 2.0))
    assert len(certs) == 1
    cert = certs[0]
    assert abs(cert.r_star - VDP_ROOT) <= 2.0 * 0.01
    assert cert.residual <= 1e-9
    assert cert.hyperbolic
    assert cert.map_derivative < 1.0  # attracting cycle
    assert cert.epsilon == 0.01


def test_batch_scan_agrees_with_scalar_map():
    spec = vdp().spec
    grid, r1, status = scan_return_map(spec, (0.5, 2.0), scan_points=20)
    assert np.all(status == 0)
    singles = [return_map(spec, float(r)).r1 for r in grid]
    assert np.allclose(r1, singles, rtol=1e-12, atol=1e-13)
    # a scan of no radii is empty
    assert [a.size for a in scan_return_map(spec, (0.5, 2.0), scan_points=0)] == [0, 0, 0]


def test_cw_spec_is_normalized_transparently():
    ccw = vdp().spec
    cw = PerturbationSpec(
        fields=tuple(reflect_diagonal(f) for f in ccw.fields),
        b=ccw.b,
        epsilon=ccw.epsilon,
        orientation="cw",
    )
    assert normalize_ccw(cw) == ccw
    assert return_map(cw, 1.0).r1 == return_map(ccw, 1.0).r1
    certs = find_fixed_points(cw, (0.5, 2.0))
    assert len(certs) == 1
    assert abs(certs[0].r_star - VDP_ROOT) <= 0.02


def test_steps_validation():
    spec = vdp().spec
    for bad in (0, 4, 12, 100):
        with pytest.raises(ValueError):
            return_map(spec, 1.0, steps=bad)
    # whole-number floats and bools are not step counts, and no count may
    # exceed what the error estimate could choose
    for bad in (512.0, 64.0, True, flow.MAX_STEPS + 8):
        with pytest.raises(ValueError, match="steps must be an int"):
            return_map(spec, 1.0, steps=bad)
        with pytest.raises(ValueError, match="steps must be an int"):
            scan_return_map(spec, (0.5, 2.0), steps=bad)
        with pytest.raises(ValueError, match="steps must be an int"):
            find_fixed_points(spec, (0.5, 2.0), steps=bad)
    with pytest.raises(ValueError):
        return_map(spec, -1.0)
    with pytest.raises(ValueError):
        scan_return_map(spec, (2.0, 0.5))


@pytest.mark.parametrize("r0, message", [
    (20000.0, "radius 20000 left the window (0.0001, 10000) near theta=0"),
    (1e-5, "radius 1e-05 left the window (0.0001, 10000) near theta=0"),
])
def test_start_radius_outside_the_guard_integrates_nothing(monkeypatch, capsys,
                                                           r0, message):
    # the first stage of every count would leave the window at theta 0, so
    # no doubling of the count is tried
    runs = _runs(monkeypatch)
    for steps in (None, 64):
        with pytest.raises(GuardBoundError, match=re.escape(message)):
            return_map(vdp().spec, r0, steps)
    assert cli.main(["simulate", "--preset", "vdp", "--r0", repr(r0)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert runs == {False: [], True: []}


def test_guard_escape_raises_scalar_and_tags_batch():
    # pure outward drift dr/dtheta = r blows past the guard within one turn
    spec = PerturbationSpec(fields=(linear_field(1.0, 0.0, 0.0, 1.0),),
                            b=(1.0,), epsilon=1.0, orientation="ccw")
    with pytest.raises(GuardBoundError):
        return_map(spec, 100.0, steps=64)
    _, r1, status = scan_return_map(spec, (50.0, 500.0), scan_points=5, steps=64)
    assert np.all(status == 2)
    assert np.all(np.isnan(r1))


def test_lost_monotonicity_raises_scalar_and_tags_batch():
    # the capillary decomposition at eps = 1 has an equilibrium off the
    # origin, so circles through it lose angular monotonicity
    spec = capillary().spec
    with pytest.raises(AngularMonotonicityError):
        return_map(spec, 1.0, steps=64)
    _, _, status = scan_return_map(spec, (0.8, 1.5), scan_points=6, steps=64)
    assert np.any(status == 1)


def test_fixed_point_search_validation(monkeypatch):
    spec = vdp().spec
    with pytest.raises(SpecError):
        find_fixed_points(with_epsilon(spec, 0.0), (0.5, 2.0))
    # `residual > nan` is False, so a NaN tol would certify every cell;
    # a bad tol is refused before the scan integrates anything
    monkeypatch.setattr(flow, "scan_return_map",
                        lambda *args: pytest.fail("scan ran"))
    for tol in (-1e-9, 0.0, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            find_fixed_points(spec, (0.5, 2.0), tol=tol)


def test_continuation_tracks_predicted_root():
    rows = continuation_check(vdp().spec, (0.02, 0.01, 0.005), VDP_ROOT)
    assert [row.epsilon for row in rows] == [0.02, 0.01, 0.005]
    assert all(row.gap <= 2.0 * row.epsilon for row in rows)
    assert rows[-1].gap <= rows[0].gap


def test_continuation_validation():
    spec = vdp().spec
    with pytest.raises(ValueError):
        continuation_check(spec, (), VDP_ROOT)
    with pytest.raises(ValueError):
        continuation_check(spec, (0.01, 0.02), VDP_ROOT)
    with pytest.raises(ValueError):
        continuation_check(spec, (0.01, -0.005), VDP_ROOT)
    with pytest.raises(ValueError):
        continuation_check(spec, (0.01,), -1.0)
    with pytest.raises(ContinuationError):
        continuation_check(spec, (0.01,), 0.3)  # no cycle near r = 0.3


def _lienard7():
    """`repro lienard --m 7`: four nested cycles, and a scan over (0.4, 2.2)
    that loses both the guard and the angular speed."""
    return retune_b(lienard(7, epsilon=0.005).spec,
                    [0.8 + i / 3.0 for i in range(4)])[0].spec


def test_batch_status_matches_scalar_exceptions():
    spec, steps = _lienard7(), 64
    grid, r1, status = scan_return_map(spec, (0.4, 2.2), steps=steps)
    assert {0, 1, 2} <= set(status.tolist())
    tables, mesh = flow._search_tables(spec), flow._uniform(steps)
    for r0, r1_batch, st in zip(grid, r1, status):
        try:
            single, _ = flow._run_mesh(False, tables, mesh, float(r0))
        except AngularMonotonicityError:
            assert st == 1, r0
        except GuardBoundError:
            assert st == 2, r0
        else:
            assert st == 0, r0
            assert abs(r1_batch - single) <= 1e-12 * single
            assert flow._run_mesh(True, tables, mesh, float(r0))[0] == single
            assert abs(r1_batch - _revolution(spec, float(r0), steps)) <= 1e-12 * single


class _Profiles(NamedTuple):
    """Each field's profiles at every stage angle, as lists [j][n][i]."""
    steps: int
    thetas: list                  # [n][i]: angle of stage i of step n
    alphas: tuple
    radial: list
    transverse: list


def _graded(fields):
    """A fractional power, or a sign flag other than its integer
    exponent's parity, anywhere in the fields."""
    return any(e.denominator > 1 or signed != bool(e.numerator % 2)
               for f in fields for t in f.f_terms + f.g_terms
               for e, signed in ((t.x_exp, t.x_signed), (t.y_exp, t.y_signed)))


@lru_cache(maxsize=16)
def _stage_profiles(fields, steps):
    """Every field's radial and transverse profile at each stage angle of
    each step, by `angular_components` and without the flow tables:
    (n + c_i) h on the uniform mesh, or on a graded spec the quintic image
    pi/2 (k + sigma(u)) of quadrant k, u = (n - k steps/4 + c_i) / (steps/4),
    with the radial profile times sigma'(u)."""
    h, per = 2.0 * math.pi / steps, steps // 4
    stages = [(n, c) for n in range(steps) for c in flow._C]
    if _graded(fields):
        k = np.array([min(n // per, 3) for n, _ in stages])
        u = np.array([(n - min(n // per, 3) * per + c) / per for n, c in stages])
        thetas = 0.5 * math.pi * (k + u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u))
        weight = 30.0 * u * u * (1.0 - u) ** 2
    else:
        thetas, weight = np.array([(n + c) * h for n, c in stages]), 1.0
    comps = [angular_components(f, thetas) for f in fields]

    def by_step(values):
        return np.reshape(values, (steps, len(flow._C))).tolist()

    return _Profiles(steps, by_step(thetas), tuple(float(f.alpha) for f in fields),
                     [by_step(fr * weight) for fr, _ in comps],
                     [by_step(ft) for _, ft in comps])


def _reference_batch(spec, tabs, r0):
    """One revolution of a batch of radii on `_stage_profiles` that folds
    eps * b_j into them itself and tags each row's failure at the stage it
    happens: the reference for the batch kernel, which reads bound rows
    and checks failures once per step."""
    nf = len(tabs.alphas)
    alphas = np.asarray(tabs.alphas)[:, None]
    eb = spec.epsilon * np.asarray(spec.b, dtype=float)[:, None, None]
    shape = (nf, tabs.steps, len(flow._C))
    weights = np.ascontiguousarray(np.stack([
        eb * np.reshape(tabs.radial, shape),
        eb * np.reshape(tabs.transverse, shape),
    ]).transpose(2, 3, 0, 1))
    h = 2.0 * math.pi / tabs.steps
    lo, hi = flow.GUARD
    r = np.array(r0, dtype=float, copy=True)
    status = np.zeros(r.shape, dtype=int)
    alive = np.ones(r.shape, dtype=bool)
    k = np.empty((len(flow._B),) + r.shape)
    rows = [np.asarray(row) for row in flow._A]

    def rhs(w, rr):
        num, dacc = w @ rr ** alphas
        den = 1.0 + dacc / rr
        in_window = (rr > lo) & (rr < hi)
        ok = in_window & (den > 0.0)
        np.copyto(status, np.where(in_window, 1, 2), where=alive & ~ok)
        np.logical_and(alive, ok, out=alive)
        return num / den

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for step in range(tabs.steps):
            for i, row in enumerate(rows):
                k[i] = rhs(weights[step, i], r + h * (row @ k[:i]) if i else r)
            r = r + h * (np.asarray(flow._B) @ k)
        np.copyto(status, 2, where=alive & ~((r > lo) & (r < hi)))
    return np.where(status == 0, r, np.nan), status


def test_batch_kernel_matches_its_per_stage_reference():
    # every preset, lienard7's scan that fails by guard and by angular
    # speed, and a stiff bracket where every row fails; BASE_STEPS reads
    # packed rows, the lower counts tuples
    stiff = with_b(lienard(6).spec, (7.00877, -23.01547, 17.824, -3.65714))
    counts = (flow.BASE_STEPS, 4, 8, 64)
    cases = [(make().spec, (0.3, 5.0), counts) for _, make in sorted(catalog().items())]
    cases += [(_lienard7(), (0.4, 2.2), counts),
              (with_epsilon(stiff, 0.0185), (2.8, 2.9), counts)]
    # the benchmark's scans over (0.24, 5.4), which lose a third of their
    # rows mid-revolution: the reference keeps integrating them, the
    # kernel parks them on a live row
    lienard5 = retune_b(lienard(5, epsilon=0.005).spec, [0.8, 1.8])[0].spec
    cases += [(spec, (0.24, 5.4), (4, 8)) for spec in (lienard5, _lienard7())]
    seen = []
    for spec, (lo, hi), steps_list in cases:
        spec = normalize_ccw(spec)
        grid = np.logspace(math.log10(lo), math.log10(hi), flow.SCAN_POINTS)
        for steps in steps_list:
            new = [a.tolist() for a in
                   flow._integrate_batch(flow._search_tables(spec), steps // 4, grid)]
            ref = [a.tolist() for a in
                   _reference_batch(spec, _stage_profiles(spec.fields, steps), grid)]
            # repr tells -0.0 from 0.0 and compares NaNs; == would do neither
            assert repr(new) == repr(ref), (spec, (lo, hi), steps)
            seen.append(new[1])
    assert set().union(*map(set, seen)) == {0, 1, 2}
    assert set(seen[-6]) == {2}            # the stiff bracket at 8 steps
    # lienard5 at 4 and 8 steps, then lienard7
    assert [sum(st != 0 for st in status) for status in seen[-4:]] == [60, 60, 70, 69]


def _richardson_derivative(spec, r, rel_delta=1e-4):
    """(4 D(d/2) - D(d)) / 3 from central differences of the value-only map."""
    def central(d):
        return (return_map(spec, r + d).r1 - return_map(spec, r - d).r1) / (2.0 * d)

    d = rel_delta * r
    return (4.0 * central(0.5 * d) - central(d)) / 3.0


@pytest.mark.parametrize("case", ["vdp", "lienard7-outer"])
def test_map_derivative_matches_richardson_differences(case):
    if case == "vdp":
        spec, bracket = with_epsilon(vdp().spec, 0.01), (0.5, 2.0)
    else:
        spec, bracket = _lienard7(), (0.4, 2.2)
    cert = find_fixed_points(spec, bracket)[-1]
    assert abs(cert.map_derivative - _richardson_derivative(spec, cert.r_star)) <= 1e-8


class _Run(NamedTuple):
    """One lone-radius revolution that `flow._run_mesh` ran."""
    r0: float
    mesh: tuple
    out: tuple | None             # the pair it returned, None if it failed
    failed: int | None            # the quadrant it failed in, or None


def _runs(monkeypatch):
    """Spy on `flow._run_mesh`, the one entry of every lone-radius
    revolution: each as a `_Run`, listed under its `tangent` (False for
    the value kernel, True for the tangent kernel)."""
    runs = {False: [], True: []}
    real = flow._run_mesh

    def spy(tangent, tables, mesh, r0):
        try:
            out = real(tangent, tables, mesh, r0)
        except (GuardBoundError, AngularMonotonicityError) as exc:
            runs[tangent].append(_Run(r0, mesh, None, exc.quadrant))
            raise
        runs[tangent].append(_Run(r0, mesh, out, None))
        return out

    monkeypatch.setattr(flow, "_run_mesh", spy)
    return runs


def _search_case(case):
    """(spec, targets, bracket) of vdp at eps 0.01, example2 retuned to 1.1
    and 3.7 at eps 0.01, or lienard6 retuned to 0.8, 1.3 and 1.8."""
    if case == "vdp":
        spec, targets = with_epsilon(vdp().spec, 0.01), [VDP_ROOT]
    elif case == "example2":
        targets = [1.1, 3.7]
        spec = with_epsilon(retune_b(example2().spec, targets)[0].spec, 0.01)
    else:
        targets = [0.8, 1.3, 1.8]
        spec = retune_b(lienard(6, epsilon=0.005).spec, targets)[0].spec
    return spec, targets, (0.3 * min(targets), 3.0 * max(targets))


@pytest.mark.parametrize("case", ["vdp", "example2", "lienard6"])
def test_newton_revolutions_per_cell(monkeypatch, case):
    spec, targets, bracket = _search_case(case)
    runs = _runs(monkeypatch)
    certs = find_fixed_points(spec, bracket)
    assert len(certs) == len(targets)
    # value-only revolutions settle scan nodes; each cell adds those of its
    # approach at half the cell's first count, each at a radius of its own,
    # and then one at its first count at the approach's last radius, which
    # chooses the cell's mesh with the approach's last value as its half
    # pass; a secant step on that mesh leaves one tangent revolution, at r*
    grid = set(np.logspace(math.log10(bracket[0]), math.log10(bracket[1]),
                           200).tolist())
    half, first = flow._uniform(flow.BASE_STEPS // 2), flow._uniform(flow.BASE_STEPS)
    value = runs[False]
    off_grid = [i for i, run in enumerate(value) if run.r0 not in grid]
    assert {value[i].mesh for i in off_grid} == {half, first}
    chosen = [i for i in off_grid if value[i].mesh == first]
    assert len(chosen) == len(certs)
    assert all((value[i - 1].r0, value[i - 1].mesh) == (value[i].r0, half) for i in chosen)
    radii = [value[i].r0 for i in off_grid if value[i].mesh == half]
    assert len(set(radii)) == len(radii) > len(certs)
    assert [(run.r0, run.mesh) for run in runs[True]] == [(c.r_star, first) for c in certs]


@pytest.mark.parametrize("case", ["vdp", "example2", "lienard6", "example1"])
def test_certificate_is_the_tangent_revolution_at_r_star(monkeypatch, case):
    # residual and map derivative are, bit for bit, those of one tangent
    # revolution at r* on the cell's mesh, with the search's lookup built
    # anew
    if case == "example1":
        spec, bracket = with_epsilon(example1().spec, 0.01), (0.4, 3.4)
    else:
        spec, _, bracket = _search_case(case)
    tangent = _runs(monkeypatch)[True]
    certs = find_fixed_points(spec, bracket)
    assert certs
    tables = flow._search_tables(normalize_ccw(spec))
    meshes = {run.r0: run.mesh for run in tangent}
    for cert in certs:
        p, dp = flow._run_mesh(True, tables, meshes[cert.r_star], cert.r_star)
        assert (abs(p - cert.r_star), dp) == (cert.residual, cert.map_derivative)


def test_a_search_builds_one_lookup(monkeypatch):
    # the coarse scan binds its rows in the lookup of the search it serves
    calls = []
    real = flow._search_tables

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(flow, "_search_tables", counting)
    spec, targets, bracket = _search_case("example2")
    assert len(find_fixed_points(spec, bracket)) == len(targets)
    assert len(calls) == 1
    calls.clear()
    assert cli.main(["repro", "vdp"]) == 0
    assert len(calls) == 3                 # one search per epsilon
    calls.clear()
    scan_return_map(spec, bracket, steps=64)
    assert len(calls) == 1


def test_a_non_finite_certificate_is_a_typed_error(monkeypatch, capsys):
    # a tangent revolution whose derivative overflows: the search names the
    # cell and the value (exit 1), before any document is printed
    real = flow._run_mesh

    def overflowing(tangent, tables, mesh, r0):
        r1, second = real(tangent, tables, mesh, r0)
        return (r1, math.inf) if tangent else (r1, second)

    monkeypatch.setattr(flow, "_run_mesh", overflowing)
    assert cli.main(["repro", "vdp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: cell \[[0-9.]+, [0-9.]+\]: map_derivative inf is not finite\n",
                        captured.err), captured.err


def _scaled_against_b(spec, j, kappa):
    """Field j's coefficients times kappa and b_j over kappa: the same
    system, so a metamorphic relation of the whole chain."""
    def scaled(terms):
        return tuple(replace(t, coeff=t.coeff * kappa) for t in terms)

    fields, b = list(spec.fields), list(spec.b)
    fields[j] = HomogeneousField(scaled(fields[j].f_terms), scaled(fields[j].g_terms),
                                 fields[j].alpha)
    b[j] /= kappa
    return replace(spec, fields=tuple(fields), b=tuple(b))


@pytest.mark.parametrize("kappa", [1e-2, 1e2])
@pytest.mark.parametrize("case", ["vdp", "example2", "lienard7"])
def test_scaling_a_field_against_its_b_keeps_the_certificates(case, kappa):
    # every field's column e_j F_j, e_j G_j of the rows is the same to
    # rounding, so each search certifies the same cycles
    if case == "lienard7":
        spec, bracket = _lienard7(), (0.4, 2.2)
    elif case == "vdp":
        spec, bracket = with_epsilon(vdp().spec, 0.01), (0.5, 2.0)
    else:
        spec, _, bracket = _search_case("example2")
    base = find_fixed_points(spec, bracket)
    assert base
    for j in range(len(spec.fields)):
        certs = find_fixed_points(_scaled_against_b(spec, j, kappa), bracket)
        assert len(certs) == len(base), j
        for cert, want in zip(certs, base):
            tol = 1e-9 * want.r_star
            assert abs(cert.r_star - want.r_star) <= tol, (j, cert, want)
            assert abs(cert.map_derivative - want.map_derivative) <= tol, (j, cert, want)


def _builds(monkeypatch):
    """Record each (n, k) that `flow._tables` is asked for: quadrant k in n
    steps."""
    asked = []
    real = flow._tables

    def recording(fields, n, k):
        asked.append((n, k))
        return real(fields, n, k)

    monkeypatch.setattr(flow, "_tables", recording)
    return asked


def _quadrants(*counts):
    """(n, k) of every quadrant k of the uniform mesh of each count in turn."""
    return [(count // 4, k) for count in counts for k in range(4)]


@pytest.mark.parametrize("case, counts", [
    ("vdp", _quadrants(8, 4, 64, 128)),
    ("example2", _quadrants(8, 4, 16, 64, 128)),
    # the settled nodes of the stiff band fail in quadrant 0 up to its cap
    # of 64 steps, so no later quadrant is built at 64, and a bound of the
    # monotone cover accepted there runs one more level, (128, 8, 8, 8),
    # for its error; the cells build the later quadrants at 16 steps and
    # every quadrant at 32
    ("lienard6", _quadrants(8, 4, 16, 32) + [(16, 0), (64, 0), (128, 0)]
     + [(16, k) for k in (1, 2, 3)] + _quadrants(128)),
])
def test_search_builds_each_step_count_once(monkeypatch, case, counts):
    # the scan binds its own count; its half pass, the settled nodes and
    # the Newton cells read the one lookup the search keeps
    # (`_search_tables`), so no quadrant of a count is asked for twice, and
    # a quadrant only once a revolution reaches it
    asked = _builds(monkeypatch)
    spec, targets, bracket = _search_case(case)
    assert len(find_fixed_points(spec, bracket)) == len(targets)
    assert asked == counts


def test_repro_vdp_tangent_work_per_cell(monkeypatch, capsys):
    tangent = _runs(monkeypatch)[True]
    assert cli.main(["repro", "vdp"]) == 0
    runs = json.loads(capsys.readouterr().out)["result"]["runs"]
    certs = sum(len(run["fixed_points"]) for run in runs)
    assert certs == 3
    assert sum(sum(run.mesh) for run in tangent) <= flow.BASE_STEPS * certs


#: The `repro` searches: every preset with cycles, lienard 5-7.
REPRO_SEARCHES = [["repro", "vdp"], ["repro", "example1"], ["repro", "example2"],
                  *(["repro", "lienard", "--m", str(m)] for m in (5, 6, 7))]


def _repro_fixed_points(capsys, argv):
    """Each run's certificates of one `repro` search."""
    assert cli.main(argv) == 0
    return [run["fixed_points"] for run in json.loads(capsys.readouterr().out)["result"]["runs"]]


@pytest.mark.parametrize("argv", REPRO_SEARCHES, ids=" ".join)
def test_approach_keeps_the_certificates_of_the_secant_start(monkeypatch, capsys, argv):
    # against Newton from the secant point of each scan cell with no
    # approach (`conftest`): the same counts and hyperbolic flags, r*
    # within 2e-12 r and P' within 1e-9 of its value
    got = _repro_fixed_points(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_approach", lambda *args: (None, None))
        patch.setattr(flow, "_newton_in_cell", reference_newton_in_cell)
        want = _repro_fixed_points(capsys, argv)
    assert [len(run) for run in got] == [len(run) for run in want]
    for cert, ref in zip(chain(*got), chain(*want)):
        assert cert["hyperbolic"] == ref["hyperbolic"], (cert, ref)
        assert abs(cert["r_star"] - ref["r_star"]) <= 2e-12 * ref["r_star"], (cert, ref)
        assert abs(cert["map_derivative"] - ref["map_derivative"]) <= (
            1e-9 * abs(ref["map_derivative"])), (cert, ref)


@pytest.mark.parametrize("case", ["vdp", "example2", "lienard6"])
def test_a_failed_approach_falls_back_to_the_secant_start(monkeypatch, caplog, case):
    # the first value revolution at each radius off the scan grid is an
    # approach's first: each leaves the guard window once, so every cell
    # starts where it would without an approach and certifies the same
    spec, targets, bracket = _search_case(case)
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_approach", lambda *args: (None, None))
        want = find_fixed_points(spec, bracket)
    assert len(want) == len(targets)
    grid = set(np.logspace(math.log10(bracket[0]), math.log10(bracket[1]),
                           200).tolist())
    seen, real = set(), flow._run_mesh

    def leaving(tangent, tables, mesh, r0):
        if not tangent and r0 not in grid | seen:
            seen.add(r0)
            raise flow._failure(1e5, 0.0, 0)
        return real(tangent, tables, mesh, r0)

    monkeypatch.setattr(flow, "_run_mesh", leaving)
    with caplog.at_level(logging.WARNING, logger="cycleavg.flow"):
        assert find_fixed_points(spec, bracket) == want
    assert len(seen) == len(want)
    assert not [rec for rec in caplog.records if rec.getMessage().startswith("cell")]


def _slope_misses(doc, scale=1.0, c=math.inf):
    """The certificates (eps, r*, ratio) of a search document whose
    P' - 1 disagrees with 2 pi eps h'(z*), h' at the predicted root
    nearest r* and h scaled by `scale`: a sign that differs, or a ratio
    (P' - 1) / (2 pi eps h'(z*)) farther than c eps from 1."""
    result = doc["result"]
    terms = list(zip(result["averaged"]["exponents"], result["averaged"]["coefficients"]))
    roots = [root["z"] for root in result["predicted_roots"]]
    misses = []
    for run in result["runs"]:
        eps = run["epsilon"]
        for cert in run["fixed_points"]:
            z = min(roots, key=lambda root: abs(root - cert["r_star"]))
            slope = 2.0 * math.pi * eps * scale * sum(
                co * e * z ** (e - 1.0) for e, co in terms)
            ratio = (cert["map_derivative"] - 1.0) / slope
            if ratio <= 0.0 or abs(ratio - 1.0) > c * eps:
                misses.append((eps, cert["r_star"], ratio))
    return misses


def test_map_derivative_follows_the_averaged_slope(capsys):
    # averaging gives P'(r*) - 1 = 2 pi eps h'(z*) + O(eps^2); on vdp the
    # ratio reads -6.0e-2, -3.1e-2 and -1.6e-2 from 1 at eps 0.02, 0.01
    # and 0.005, within 3.5 eps, and mutants of h that double it or flip
    # its sign are caught
    docs = []
    for argv in REPRO_SEARCHES:
        assert cli.main(argv) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert sum(len(run["fixed_points"]) for doc in docs
               for run in doc["result"]["runs"]) == 17
    assert all(_slope_misses(doc) == [] for doc in docs)
    vdp_doc = docs[0]
    assert _slope_misses(vdp_doc, c=3.5) == []
    assert len(_slope_misses(vdp_doc, scale=2.0, c=3.5)) == 3
    for doc in docs:
        assert len(_slope_misses(doc, scale=-1.0)) == sum(
            len(run["fixed_points"]) for run in doc["result"]["runs"])


def test_zero_displacement_node_is_certified_once(monkeypatch):
    # one attracting and one repelling cycle
    spec = retune_b(lienard(5, epsilon=0.005).spec, (0.8, 1.8))[0].spec
    steps = 512
    stars = [c.r_star for c in find_fixed_points(spec, (0.4, 3.0), steps=steps)]
    assert len(stars) == 2
    # with b = 0 the map is the identity: a band of zeros, no isolated cycle
    assert find_fixed_points(with_b(spec, (0.0,) * 3), (0.4, 3.0), steps=steps) == []
    # a scan with a node exactly on each fixed point, displacement 0.0
    grid = np.array(sorted(stars + [0.5, 1.2, 2.0]))
    r1 = np.array([r if r in stars else return_map(spec, r, steps).r1 for r in grid])
    status = np.zeros(len(grid), dtype=int)
    monkeypatch.setattr(flow, "scan_return_map", lambda *a, **k: (grid, r1, status))
    certs = find_fixed_points(spec, (0.4, 3.0), steps=steps)
    assert [c.r_star for c in certs] == pytest.approx(stars, rel=1e-12)


def test_zero_displacement_node_is_a_cell_of_its_own():
    # the search settles such nodes at full resolution, where the
    # displacement is rarely exactly 0.0, so the cell rule is checked here
    grid = np.array([0.5, 0.8, 1.2, 1.8, 2.0, 2.5, 3.0])
    disp = np.array([0.1, 0.0, -0.1, 0.0, 0.2, 0.0, 0.0])
    ok = np.ones(len(grid), dtype=bool)
    assert list(flow._sign_change_cells(grid, disp, ok)) == [
        (0.8, 0.8, 0.0, 0.0), (1.8, 1.8, 0.0, 0.0)]


def test_pipeline_searches_each_epsilon_once(monkeypatch):
    calls = []
    real = flow.find_fixed_points

    def counting(spec, *args, **kwargs):
        calls.append(spec.epsilon)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(flow, "find_fixed_points", counting)
    out = run_pipeline(vdp().spec, eps_values=(0.02, 0.01, 0.005))
    assert calls == [0.02, 0.01, 0.005]
    (cont,) = out["continuation"]
    assert [(row["epsilon"], row["r_star"]) for row in cont["rows"]] == [
        (run["epsilon"], run["fixed_points"][0]["r_star"]) for run in out["runs"]]


@pytest.mark.parametrize("eps_values", [
    (), (0.01, 0.02), (0.02, 0.02), (0.01, -0.005), (0.02, math.nan),
    (math.inf, 0.01)])
def test_bad_epsilon_list_searches_nothing(monkeypatch, capsys, tmp_path,
                                           eps_values):
    calls = []
    monkeypatch.setattr(flow, "find_fixed_points",
                        lambda spec, *args: calls.append(spec.epsilon))
    csv_dir = tmp_path / "scans"
    with pytest.raises(ValueError):
        run_pipeline(vdp().spec, eps_values=eps_values, csv_dir=str(csv_dir))
    assert not csv_dir.exists()
    with pytest.raises(ValueError):
        continuation_check(vdp().spec, eps_values, VDP_ROOT)
    if eps_values:
        argv = ["simulate", "--preset", "vdp", "--eps",
                *map(repr, eps_values)]
        assert cli.main(argv) == 2
        capsys.readouterr()
    assert calls == []


def _search_cells(monkeypatch, spec, bracket, steps=None):
    """Certificates of a search and the (grid, displacement, ok) of its cells."""
    seen = []
    real = flow._sign_change_cells

    def spy(grid, disp, ok):
        seen.append((grid, disp, ok))
        return real(grid, disp, ok)

    monkeypatch.setattr(flow, "_sign_change_cells", spy)
    certs = find_fixed_points(spec, bracket, steps=steps)
    monkeypatch.setattr(flow, "_sign_change_cells", real)
    (cells,) = seen
    return certs, cells


def _cell_bounds(grid, disp, ok):
    return [(a, b) for a, b, _, _ in flow._sign_change_cells(grid, disp, ok)]


def _assert_full_resolution_cells(cells, spec, bracket, scan_points, steps):
    """The search built its cells from full-resolution statuses and signs."""
    grid, disp, ok = cells
    full_grid, r1, status = scan_return_map(spec, bracket, scan_points, steps)
    full_ok = status == 0
    assert np.array_equal(grid, full_grid)
    assert np.array_equal(ok, full_ok)
    assert np.array_equal(np.sign(disp[ok]), np.sign((r1 - grid)[ok]))
    assert _cell_bounds(grid, disp, ok) == _cell_bounds(grid, r1 - grid, full_ok)


def test_example1_fixed_point_next_to_a_node_is_certified_at_full_resolution(
        monkeypatch):
    # the search scans example1 at BASE_STEPS / 16 = 8 steps, which is
    # off by about 7e-6 near the cycle
    spec, steps, points = example1().spec, flow.REVOLUTION_STEPS, 201
    (cert,) = find_fixed_points(spec, (0.4, 3.4))
    node = cert.r_star * (1.0 - 2e-8)
    bracket = (0.5 * node, 2.0 * node)  # the middle scan node sits at `node`
    coarse_grid, coarse_r1, _ = scan_return_map(spec, bracket, points,
                                                flow.BASE_STEPS // 16)
    mid = points // 2
    assert coarse_grid[mid] == pytest.approx(node, rel=1e-14)
    full_disp = return_map(spec, node, steps).r1 - node
    coarse_disp = coarse_r1[mid] - coarse_grid[mid]
    assert coarse_disp < 0.0 < full_disp  # the coarse sign is wrong

    monkeypatch.setattr(flow, "SCAN_POINTS", points)
    certs, cells = _search_cells(monkeypatch, spec, bracket)
    _assert_full_resolution_cells(cells, spec, bracket, points, steps)
    assert len(certs) == 1
    assert certs[0].r_star == pytest.approx(cert.r_star, rel=1e-12)
    assert certs[0].map_derivative == pytest.approx(cert.map_derivative, rel=1e-9)
    assert certs[0].residual <= 1e-12


def test_lienard6_stiff_band_cells_match_full_resolution(monkeypatch):
    # beyond r ~ 3.6 the coarse scan leaves the guard window where the full
    # resolution does not, and next to that band its values are off by a few %
    spec = retune_b(lienard(6, epsilon=0.005).spec, [0.8, 1.3, 1.8])[0].spec
    bracket, steps = (0.24, 5.4), 2048
    _, _, coarse_status = scan_return_map(spec, bracket, steps=steps // 16)
    full_grid, full_r1, full_status = scan_return_map(spec, bracket, steps=steps)
    assert np.count_nonzero((coarse_status == 2) & (full_status == 0)) >= 5

    certs, cells = _search_cells(monkeypatch, spec, bracket, steps)
    _assert_full_resolution_cells(cells, spec, bracket, flow.SCAN_POINTS, steps)
    assert len(certs) == 3
    # a chosen step count settles failures only up to REVOLUTION_STEPS, and
    # the band beyond r ~ 3.9 needs up to 2048, so it stays failed, but the
    # cells are those of the full scan
    chosen, (grid, disp, ok) = _search_cells(monkeypatch, spec, bracket)
    assert _cell_bounds(grid, disp, ok) == _cell_bounds(
        full_grid, full_r1 - full_grid, full_status == 0)
    assert [c.r_star for c in chosen] == pytest.approx(
        [c.r_star for c in certs], rel=1e-9)


def test_stiff_band_fails_only_where_the_revolution_count_fails():
    # a settled node doubles up to REVOLUTION_STEPS at most, so the band
    # that only coarse steps lose is recovered, its nodes settled or
    # covered by the monotone map, and what stays failed fails at that
    # count too (DOP853 clears this band at 2048)
    spec = retune_b(lienard(6, epsilon=0.005).spec, [0.8, 1.3, 1.8])[0].spec
    bracket = (0.24, 5.4)
    _, _, coarse_status = scan_return_map(spec, bracket, steps=flow.BASE_STEPS // 16)
    grid, r1, status = scan_return_map(spec, bracket, steps=flow.REVOLUTION_STEPS)
    assert np.count_nonzero((coarse_status != 0) & (status == 0)) >= 10
    scans = []
    certs = find_fixed_points(spec, bracket, on_scan=scans.append)
    ((_, settled_r1, settled),) = scans
    assert np.array_equal(settled != 0, status != 0)
    assert _cell_bounds(grid, settled_r1 - grid, settled == 0) == _cell_bounds(
        grid, r1 - grid, status == 0)
    assert len(certs) == 3


def test_coarse_failures_next_to_ok_nodes_are_settled(monkeypatch):
    # a run of coarse failures over the cell of vdp's cycle: the run's ends
    # border OK nodes, and each one that integrates at full resolution lets
    # the settling move further in
    spec, bracket = with_epsilon(vdp().spec, 0.01), (0.5, 2.0)
    (cert,) = find_fixed_points(spec, bracket)
    real = flow.scan_return_map

    def failing(*args):
        grid, r1, status = real(*args)
        k = int(np.searchsorted(grid, cert.r_star))
        r1[k - 2:k + 2], status[k - 2:k + 2] = np.nan, 2
        return grid, r1, status

    monkeypatch.setattr(flow, "scan_return_map", failing)
    certs, cells = _search_cells(monkeypatch, spec, bracket)
    _assert_full_resolution_cells(cells, spec, bracket, 200, flow.REVOLUTION_STEPS)
    assert len(certs) == 1
    assert certs[0].r_star == pytest.approx(cert.r_star, rel=1e-12)


class _Settle(NamedTuple):
    """One `flow._settle_scan` call: its arguments, its (r1, status) and
    the value revolutions it ran."""
    args: tuple
    out: tuple
    runs: list


def _settles(monkeypatch):
    """Spy on `flow._settle_scan` (and on `flow._run_mesh`): each call as a
    `_Settle`."""
    runs, settles = _runs(monkeypatch)[False], []
    real = flow._settle_scan

    def spy(*args):
        runs.clear()
        out = real(*args)
        settles.append(_Settle(args, out, list(runs)))
        return out

    monkeypatch.setattr(flow, "_settle_scan", spy)
    return settles


def _bar(runs, r0):
    """(P, e) of a settled node from its own revolutions: the value of its
    last level and the difference from the level before, both OK."""
    values = [run.out for run in runs if run.r0 == r0]
    assert all(values[-2:]), values
    return values[-1][0], abs(values[-1][0] - values[-2][0])


def _covers(settle):
    """Each stretch (u, v, bound) that a settle covered: its coarse
    failures u < i < v that end OK without a revolution of their own, all
    with r1 the same bound, between settled OK nodes u and v."""
    grid, coarse = settle.args[1], settle.args[3]
    r1, status = settle.out
    ran = {run.r0 for run in settle.runs}
    covered = [i for i in range(len(grid))
               if coarse[i] != 0 and status[i] == 0 and float(grid[i]) not in ran]
    stretches = []
    for i in covered:
        if stretches and stretches[-1][1] == i:
            stretches[-1][1] = i + 1
        else:
            stretches.append([i - 1, i + 1])
    out = []
    for u, v in stretches:
        assert len(set(r1[u + 1:v].tolist())) == 1, (u, v)
        assert status[u] == status[v] == 0 and {float(grid[u]), float(grid[v])} <= ran
        out.append((u, v, float(r1[u + 1])))
    return out


def _vdp_failed_run(monkeypatch, half_width):
    """vdp at eps 0.01 over (0.5, 2.0), whose coarse scan is made to fail
    on the nodes within `half_width` of its cycle's cell."""
    spec, bracket = with_epsilon(vdp().spec, 0.01), (0.5, 2.0)
    (cert,) = find_fixed_points(spec, bracket)
    real = flow.scan_return_map

    def failing(*args):
        grid, r1, status = real(*args)
        k = int(np.searchsorted(grid, cert.r_star))
        r1[k - half_width:k + half_width], status[k - half_width:k + half_width] = np.nan, 2
        return grid, r1, status

    monkeypatch.setattr(flow, "scan_return_map", failing)
    return spec, bracket, cert


@pytest.mark.parametrize("case, covered", [("lienard6", 26), ("vdp", 10)])
def test_failed_runs_are_covered_by_the_monotone_map(monkeypatch, case, covered):
    # P is increasing, so between settled OK nodes u < v a bound
    # P(r_v) + e_v < r_u (or P(r_u) - e_u > r_v), with e = |P - half| of
    # the node's last level, gives every node between them the sign of
    # that bound.  The covered nodes have the signs of their own uniform
    # 1,024-step revolutions and the statuses of the walk that settles
    # them one by one; a bound moved across r_u by more than its e covers
    # nothing, so that stretch's middle node is settled instead.
    if case == "lienard6":
        spec, targets, bracket = _search_case(case)
    else:
        spec, bracket, cert = _vdp_failed_run(monkeypatch, 45)
        targets = [cert.r_star]
    settles = _settles(monkeypatch)
    assert len(find_fixed_points(spec, bracket)) == len(targets)
    ((args, (r1, status), runs),) = settles
    tables, grid = args[0], args[1]
    assert status.tolist() == _reference_settle(*args)[1].tolist()
    covers = _covers(settles[0])
    assert sum(v - u - 1 for u, v, _ in covers) == covered
    for u, v, bound in covers:
        p_u, e_u = _bar(runs, float(grid[u]))
        p_v, e_v = _bar(runs, float(grid[v]))
        assert (bound == p_v + e_v < grid[u]) or (bound == p_u - e_u > grid[v]), (u, v)
        for i in range(u + 1, v):
            try:
                own = flow._run_mesh(False, tables, flow._uniform(1024), float(grid[i]))[0]
            except (GuardBoundError, AngularMonotonicityError):
                continue
            assert np.sign(r1[i] - grid[i]) == np.sign(own - grid[i]), (u, i, v)

    # the first stretch's bounding value moved to 2 e past the other end,
    # or to e / 2 short of it
    u, v, bound = covers[0]
    p_v, e_v = _bar(runs, float(grid[v]))
    end, other, side = (v, u, 1.0) if bound == p_v + e_v else (u, v, -1.0)
    p, e = _bar(runs, float(grid[end]))
    real = flow._run_mesh
    for past in (2.0, -0.5):
        shift = float(grid[other]) + side * past * e - p

        def moved(tangent, lookup, mesh, r0, shift=shift):
            r, second = real(tangent, lookup, mesh, r0)
            return (r + shift, second) if not tangent and r0 == grid[end] else (r, second)

        with monkeypatch.context() as patch:
            patch.setattr(flow, "_run_mesh", moved)
            mutant = _settles(patch)
            assert len(find_fixed_points(spec, bracket)) == len(targets)
        ((args, (_, status), runs),) = mutant
        assert status.tolist() == _reference_settle(*args)[1].tolist()
        assert all(cover[:2] != (u, v) for cover in _covers(mutant[0])), past
        assert float(grid[(u + v) // 2]) in {run.r0 for run in runs}, past


def test_a_search_leaves_no_reference_cycle():
    # the settling fills each run from an explicit stack, so no closure
    # refers to itself and a search's lookup is freed as it returns
    spec, targets, bracket = _search_case("lienard6")
    gc.collect()
    gc.disable()
    try:
        assert len(find_fixed_points(spec, bracket)) == len(targets)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _batched_substeps(monkeypatch):
    calls = []
    real = flow._integrate_batch

    def counting(tables, n, r0):
        calls.append(4 * n)                # the steps of the whole turn
        return real(tables, n, r0)

    monkeypatch.setattr(flow, "_integrate_batch", counting)
    return calls


def test_identity_map_integrates_nothing(monkeypatch):
    # every b_j == 0: dr/dtheta is exactly zero, so no cell can exist
    spec = with_b(vdp().spec, (0.0, 0.0))
    runs = _runs(monkeypatch)
    batch = _batched_substeps(monkeypatch)
    assert find_fixed_points(spec, (0.5, 2.0)) == []
    assert runs == {False: [], True: []} and batch == []
    with pytest.raises(ValueError):
        find_fixed_points(spec, (2.0, 0.5))


def test_rotation_only_map_settles_each_node_once(monkeypatch):
    # no radial component: P(r) = r exactly, so no node's sign is ever
    # trusted; each is settled once, as its estimate 0 is within tol
    spec = PerturbationSpec(fields=(linear_field(0.0, -1.0, 1.0, 0.0),),
                            b=(1.0,), epsilon=0.01, orientation="ccw")
    value = _runs(monkeypatch)[False]
    assert find_fixed_points(spec, (0.5, 2.0)) == []
    assert [run.mesh for run in value] == [flow._uniform(flow.BASE_STEPS // 8)] * (
        flow.SCAN_POINTS)


def test_search_scans_at_a_fraction_of_the_steps(monkeypatch):
    steps = flow.BASE_STEPS
    calls = _batched_substeps(monkeypatch)
    certs = find_fixed_points(with_epsilon(vdp().spec, 0.01), (0.5, 2.0))
    assert len(certs) == 1
    assert calls and sum(calls) <= 3 * steps // 32


def test_csv_holds_the_settled_scan(monkeypatch, tmp_path):
    calls = _batched_substeps(monkeypatch)
    settled = []
    real = flow._settle_scan

    def spy(*args):
        settled.append(real(*args))
        return settled[-1]

    monkeypatch.setattr(flow, "_settle_scan", spy)
    run_pipeline(vdp().spec, eps_values=(0.02, 0.01), csv_dir=str(tmp_path))
    # per eps only the search's coarse scan and its half pass
    coarse = flow.BASE_STEPS // 16
    assert calls == [coarse, coarse // 2] * 2
    for idx, (r1, status) in enumerate(settled):
        with open(tmp_path / f"scan_{idx:02d}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(row[1]) for row in rows] == pytest.approx(
            r1.tolist(), rel=0, abs=0, nan_ok=True)
        assert [int(row[3]) for row in rows] == status.tolist()
        signs = [math.copysign(1.0, float(row[2])) for row in rows if row[3] == "0"]
        grid = np.array([float(row[0]) for row in rows])
        assert signs == np.sign((r1 - grid)[status == 0]).tolist()


def _reference_settle(tables, grid, r1, status, r1_half, start, tol):
    """`_settle_scan` on the uniform ladder, running every level: a node
    that fails doubles its whole count level by level up to
    REVOLUTION_STEPS."""
    def node(n, r0):
        try:
            return flow._run_mesh(False, tables, flow._uniform(n), r0)[0], 0
        except AngularMonotonicityError:
            return math.nan, 1
        except GuardBoundError:
            return math.nan, 2

    def every_level(r0, half):
        n = start
        while True:
            r, st = node(n, r0)
            estimate = abs(r - half) / tables.richardson
            if n >= flow.REVOLUTION_STEPS or (
                    st == 0 and (estimate <= tol or abs(r - r0) > abs(r - half))):
                return r, st
            n, half = 2 * n, r

    r1, status = r1.copy(), status.copy()
    ok = status == 0
    with np.errstate(invalid="ignore"):
        trusted = np.abs(r1 - grid) > np.abs(r1 - r1_half)
    borders = ~ok & (np.r_[False, ok[:-1]] | np.r_[ok[1:], False])
    pending, settled = np.nonzero((ok & ~trusted) | borders)[0].tolist(), set()
    while pending:
        i = pending.pop()
        if i not in settled:
            settled.add(i)
            r1[i], status[i] = every_level(float(grid[i]), float(r1[i]))
            if status[i] == 0:
                pending += [j for j in (i - 1, i + 1)
                            if 0 <= j < len(grid) and status[j] != 0]
    return r1, status


def _next_settle_mesh(mesh, failed):
    """The mesh a settled node runs after `mesh`, which failed in quadrant
    `failed` or, with None, passed untrusted."""
    cap = flow.REVOLUTION_STEPS // 4
    if failed is None:
        return tuple(2 * n for n in mesh)
    return tuple(cap if 4 * n >= cap else 2 * n for n in mesh[:failed + 1]) + mesh[failed + 1:]


@pytest.mark.parametrize("argv, levels", [
    (["pipeline", "--preset", "lienard6", "--targets", "0.8", "1.3", "1.8",
      "--eps", "0.005"], (9424, 1460)),
    (["repro", "lienard", "--m", "7"], (704, 500)),
])
def test_settle_skips_only_the_level_it_cannot_use(monkeypatch, capsys, argv, levels):
    # a level that fails in quadrant q runs again with quadrants 0..q
    # doubled, and a level after a failed one has no half pass to be
    # trusted against, so a quadrant that failed at 16 steps goes straight
    # to REVOLUTION_STEPS / 4; a level that passes untrusted doubles every
    # quadrant.  The settled scan has the statuses and signs of the
    # uniform ladder that runs every level, and the value of every node
    # that never failed.
    runs = _runs(monkeypatch)[False]
    settle, settles = flow._settle_scan, []

    def compared(*args):
        runs.clear()
        new, new_runs = settle(*args), list(runs)
        runs.clear()
        settles.append((args, new, new_runs, _reference_settle(*args), list(runs)))
        return new

    monkeypatch.setattr(flow, "_settle_scan", compared)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert settles
    for args, (r1, status), new_runs, (ref_r1, ref_status), _ in settles:
        grid, start = args[1], args[5]
        assert status.tolist() == ref_status.tolist()
        ok = status == 0
        assert np.sign(r1 - grid)[ok].tolist() == np.sign(ref_r1 - grid)[ok].tolist()
        ladders = {}
        for run in new_runs:
            ladders.setdefault(run.r0, []).append((run.mesh, run.failed))
        for r0, ladder in ladders.items():
            assert ladder[0][0] == flow._uniform(start)
            for (mesh, failed), (later, _) in zip(ladder, ladder[1:]):
                assert later == _next_settle_mesh(mesh, failed), (r0, ladder)
            i = int(np.searchsorted(grid, r0))
            if all(failed is None for _, failed in ladder):
                assert repr(r1[i]) == repr(ref_r1[i]), (r0, ladder)
    # value steps of the settles: (the uniform ladder that runs every
    # level, this one)
    assert tuple(sum(sum(run.mesh) for s in settles for run in s[which])
                 for which in (4, 2)) == levels


def test_failed_scan_nodes_are_summarized_once_per_epsilon(caplog):
    spec = _lienard7()
    eps_values = (0.005, 0.004)
    scans = []
    with caplog.at_level(logging.WARNING, logger="cycleavg.flow"):
        for eps in eps_values:
            find_fixed_points(with_epsilon(spec, eps), (0.5, 2.0), on_scan=scans.append)
    summaries = [r.getMessage() for r in caplog.records
                 if r.name == "cycleavg.flow" and r.getMessage().startswith("scan ")]
    assert len(summaries) == len(eps_values)
    assert len(caplog.records) <= len(eps_values)
    _, _, status = scans[-1]
    assert summaries[-1].endswith(
        f"angular_speed {np.count_nonzero(status == 1)}, "
        f"guard {np.count_nonzero(status == 2)})")
    # the settled scan fails where a full-resolution one does; a failure
    # inside a band keeps the kind the coarse scan gave it
    _, _, full = scan_return_map(with_epsilon(spec, 0.004), (0.5, 2.0))
    assert np.array_equal(status != 0, full != 0)


def _revolution(spec, r0, steps):
    return flow._run_mesh(False, flow._search_tables(normalize_ccw(spec)),
                          flow._uniform(steps), r0)[0]


def _pinned_estimate(spec, r0, steps):
    """The Richardson estimate |P_n - P_n/2| / (2^q - 1) at exactly n = `steps`."""
    richardson = flow._search_tables(normalize_ccw(spec)).richardson
    return abs(_revolution(spec, r0, steps) - _revolution(spec, r0, steps // 2)) / richardson


def _turn(fields, steps):
    """The raw tables of a whole turn of `steps` uniform steps, as
    (thetas, rows): its four quadrants' `flow._tables` in order."""
    quarters = [flow._tables(fields, steps // 4, k) for k in range(4)]
    return (np.concatenate([q.thetas for q in quarters]),
            np.concatenate([q.rows for q in quarters]))


def _bound_turn(tables, steps):
    """The bound rows of a whole turn of `steps` uniform steps, as
    (steps, row width): its four quadrants' rows in order."""
    return np.concatenate([np.reshape(tables.bound(steps // 4, k).rows, (steps // 4, -1))
                           for k in range(4)])


def test_tableau_satisfies_its_order_conditions():
    # each stage's angle is its row sum, and the weights integrate
    # polynomials up to degree p - 1 exactly (Hairer-Norsett-Wanner, II.1)
    a, b, c, p = flow._A, flow._B, flow._C, flow._ORDER
    assert len(a) == len(b) == len(c) and c[0] == 0.0
    assert all(len(row) == i for i, row in enumerate(a))
    assert all(abs(ci - math.fsum(row)) <= 1e-14 for ci, row in zip(c, a))
    for k in range(1, p + 1):
        assert abs(math.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, c)) - 1.0 / k) <= 1e-14
    assert all(0.0 <= ci <= 1.0 for ci in c)  # every stage inside its step


@pytest.mark.parametrize("tangent", [False, True])
def test_generated_kernel_observes_the_tableau_order(tangent):
    # constant rows bound to e give dr/dtheta = e r^2, so one revolution
    # is r0 / (1 - 2 pi e r0) with derivative 1 / (1 - 2 pi e r0)^2
    e, r0 = 0.11, 1.0
    x = 1.0 - 2.0 * math.pi * e * r0
    exact = 1.0 / x ** 2 if tangent else r0 / x
    kernel = flow._kernel("a", tangent)

    def error(n):
        out = kernel(r0, *flow.GUARD, ((2.0 * math.pi / n,) + (e, 0.0) * len(flow._C),) * n,
                     2.0)
        return abs(out[1 if tangent else 0] - exact)

    errs = [error(n) for n in (8, 16, 32)]
    assert errs[-1] > 50 * np.finfo(float).eps * exact  # above the rounding floor
    for coarse, fine in zip(errs, errs[1:]):
        assert abs(math.log2(coarse / fine) - flow._ORDER) <= 0.3


@pytest.mark.parametrize("case, r0", [("example1", 1.2), ("example2", 2.0)])
def test_graded_estimate_matches_the_error(case, r0):
    # a square root on the quintic grading is a u^3.5 term, so the mesh's
    # order is q = 4.5 and the estimate divides by 2^4.5 - 1
    spec = example1().spec if case == "example1" else example2().spec
    assert flow._search_tables(normalize_ccw(spec)).richardson == 2 ** 4.5 - 1
    # from 8 steps (2 per quadrant) to 32 the smooth part of the error
    # leads, falling 2^8.7-2^8.9 per doubling, and the estimate is 9-20x
    # the error; beyond 32 the error reaches the rounding floor
    reference = _revolution(spec, r0, 1024)
    for steps in (16, 32):
        assert abs(_revolution(spec, r0, steps) - reference) <= _pinned_estimate(
            spec, r0, steps)
    p8, p16, p32 = (_revolution(spec, r0, n) for n in (8, 16, 32))
    order = math.log2(abs(p16 - p8) / abs(p32 - p16))
    assert flow._ORDER - 0.3 <= order <= 9.1
    # BASE_STEPS is enough for a Newton cell here; a lone revolution
    # starts higher and needs no second level
    assert _pinned_estimate(spec, r0, flow.BASE_STEPS) <= flow.RESIDUAL_TOL
    chosen = return_map(spec, r0)
    assert chosen.steps == flow.REVOLUTION_STEPS
    assert (chosen.r1, chosen.error_estimate) == (
        _revolution(spec, r0, flow.REVOLUTION_STEPS),
        _pinned_estimate(spec, r0, flow.REVOLUTION_STEPS))


def test_graded_order_is_that_of_the_square_root():
    # on the benchmark's example2 tuned to roots 1 and 4, at eps 0.02, the
    # u^3.5 term leads from 64 steps to the rounding floor, so there the
    # error falls 2^4.5 per doubling and the estimate is the error itself
    spec = with_epsilon(with_b(example2().spec, (1.0, 8.36037, -10.50887, 2.0)), 0.02)
    r0 = 0.35
    reference = _revolution(spec, r0, 4096)
    errors = {n: abs(_revolution(spec, r0, n) - reference) for n in (64, 128, 256)}
    for coarse, fine in ((64, 128), (128, 256)):
        assert abs(math.log2(errors[coarse] / errors[fine]) - 4.5) <= 0.3
    for steps in (128, 256):
        estimate = _pinned_estimate(spec, r0, steps)
        assert 0.5 * errors[steps] <= estimate <= 2.0 * errors[steps]


@pytest.mark.parametrize("case", ["vdp", "lienard7"])
def test_polynomial_specs_keep_the_uniform_mesh(case):
    spec = vdp().spec if case == "vdp" else _lienard7()
    assert not _graded(spec.fields)
    # a search binds field j to e_j = eps * b_j: below BASE_STEPS as a
    # tuple per step, from it on packed, each row h and then e_j times
    # each entry
    e = [spec.epsilon * bj for bj in spec.b]
    for steps, kind in ((flow.BASE_STEPS // 2, tuple), (flow.BASE_STEPS, array)):
        thetas, raw = _turn(spec.fields, steps)
        profiles = _stage_profiles(spec.fields, steps)
        assert raw[:, :, 0].transpose(2, 0, 1).tolist() == profiles.radial
        assert raw[:, :, 1].transpose(2, 0, 1).tolist() == profiles.transverse
        h = 2.0 * math.pi / steps
        assert thetas.tolist() == [(n + c) * h for n in range(steps) for c in flow._C]
        tables = flow._search_tables(spec)
        for k in range(4):
            bound = tables.bound(steps // 4, k)
            assert tables.bound(steps // 4, k) is bound
            assert type(bound.rows) is kind
        scaled = _bound_turn(tables, steps)
        assert scaled[:, 0].tolist() == [h] * steps
        scaled = scaled[:, 1:].reshape(raw.shape)
        for profile, side in ((profiles.radial, 0), (profiles.transverse, 1)):
            assert scaled[:, :, side].transpose(2, 0, 1).tolist() == [
                [[ej * v for v in stage] for stage in field]
                for ej, field in zip(e, profile)]


def _assert_rows_repr_equal(got, want):
    """Row by row by `repr`, so that a failure reports one row: a diff
    of the whole tables' repr takes pytest minutes."""
    assert len(got) == len(want)
    for n, (row, expected) in enumerate(zip(got, want)):
        assert repr(row) == repr(expected), n


@pytest.mark.parametrize("steps", [8, 64, 256])
@pytest.mark.parametrize("case", ["vdp", "lienard7", "example1"])
def test_rows_hold_every_stage_profile_of_their_step(case, steps):
    # row n: for each stage i in tableau order, F_j then G_j of every field
    # at stage angle i of step n, raw in `_tables`, and once bound led by
    # the step h and times e_j
    spec = {"vdp": vdp().spec, "lienard7": _lienard7(),
            "example1": normalize_ccw(example1().spec)}[case]
    assert _graded(spec.fields) == (case == "example1")
    profiles = _stage_profiles(spec.fields, steps)
    e = [spec.epsilon * bj for bj in spec.b]
    thetas, rows = _turn(spec.fields, steps)
    raw, want = [], []
    for n, row in enumerate(rows.tolist()):
        raw.append([v for stage in row for side in stage for v in side])
        want.append([v for i in range(len(flow._C))
                     for profile in (profiles.radial, profiles.transverse)
                     for v in (field[n][i] for field in profile)])
    _assert_rows_repr_equal(raw, want)
    _assert_rows_repr_equal(thetas.reshape(steps, -1).tolist(), profiles.thetas)
    rows = _bound_turn(flow._search_tables(spec), steps).tolist()
    nf, h = len(spec.fields), 2.0 * math.pi / steps
    _assert_rows_repr_equal(rows, [[h] + [e[m % nf] * v for m, v in enumerate(row)]
                                   for row in want])
    # the c = 1 stage of a step repeats the first stage of the next
    assert all(row[-2 * nf:] == later[:2 * nf] for row, later in zip(want, want[1:]))


def test_a_spec_without_fields_gets_empty_rows():
    # bound, each row holds its step h only: tuples below BASE_STEPS,
    # packed from it on, as for any spec
    for steps in (8, 64, 256):
        assert _turn((), steps)[1].shape == (steps, len(flow._C), 2, 0)
        tables = flow._search_tables(PerturbationSpec((), (), 0.01))
        rows = ()
        for k in range(4):
            bound = tables.bound(steps // 4, k)
            rows += bound.rows if steps < flow.BASE_STEPS else tuple(
                struct.iter_unpack("d", bound.rows))
        assert rows == ((2.0 * math.pi / steps,),) * steps


def test_fractional_spec_is_graded_per_quadrant():
    steps = 64
    flat, raw = _turn(example1().spec.fields, steps)
    thetas = flat.reshape(steps, len(flow._C))
    quarter = steps // 4
    axes = [thetas[k * quarter, 0] for k in range(4)] + [thetas[-1, -1]]
    assert axes == [k * math.pi / 2 for k in range(5)]
    # sigma'(u) = 30 u^2 (1 - u)^2 vanishes on the axes
    for n, i in [(k * quarter, 0) for k in range(4)] + [(steps - 1, -1)]:
        assert all(v == 0.0 for v in raw[n, i, 0])
    # every stage angle of a step lies in the step's own quadrant, a stage
    # at c = 1 on its far edge
    for n, row in enumerate(thetas):
        quadrant = n // quarter
        for c, theta in zip(flow._C, row):
            assert quadrant * math.pi / 2 <= theta <= (quadrant + 1) * math.pi / 2
            assert theta < (quadrant + 1) * math.pi / 2 or c == 1.0
    # the grading keeps the order of the stage angles (n + c_i) h
    key = (np.arange(steps)[:, None] + np.asarray(flow._C)).ravel()
    order = np.argsort(key, kind="stable")
    assert np.array_equal(np.diff(flat[order]) > 0.0, np.diff(key[order]) > 0.0)
    assert np.all(np.diff(flat[order]) >= 0.0)


def test_stiff_revolution_chooses_more_steps():
    # the bench's lienard6 sample spec near the edge of its radius range
    spec = with_epsilon(with_b(lienard(6).spec,
                               (7.00877, -23.01547, 17.824, -3.65714)), 0.0185)
    reference = _revolution(spec, 2.87, 8192)
    assert abs(_revolution(spec, 2.87, flow.REVOLUTION_STEPS) - reference) > 1e-6
    sample = return_map(spec, 2.87)
    assert sample.steps > flow.REVOLUTION_STEPS
    assert abs(sample.r1 - reference) <= flow.RESIDUAL_TOL
    assert sample.error_estimate <= flow.RESIDUAL_TOL
    # each doubling reuses the last revolution as its half pass, which
    # the nested tables make the same value an exact count computes
    assert (sample.r1, sample.error_estimate) == (
        _revolution(spec, 2.87, sample.steps), _pinned_estimate(spec, 2.87, sample.steps))


def test_stiff_band_revolution_doubles_past_failed_passes():
    # inside lienard6's stiff band a stage radius leaves the guard window
    # up to 512 steps at r 4.5, so the chosen mesh refines past the
    # failed passes instead of raising
    spec = retune_b(lienard(6, epsilon=0.005).spec, [0.8, 1.3, 1.8])[0].spec
    spec, r0 = normalize_ccw(spec), 4.5
    for steps in (flow.REVOLUTION_STEPS, 2 * flow.REVOLUTION_STEPS):
        with pytest.raises(GuardBoundError):
            _revolution(spec, r0, steps)
    sample = return_map(spec, r0)
    assert sample.steps > 4 * flow.REVOLUTION_STEPS
    assert sample.error_estimate <= flow.RESIDUAL_TOL
    assert abs(sample.r1 - _scipy_revolution(spec, r0)) <= 1e-10 * r0


def test_stiff_cell_doubles_to_the_count_it_needs(monkeypatch):
    # the same stiff radius as a Newton cell's first point: its half pass
    # at 64 steps leaves the guard window, and from 128 steps its error
    # falls ~110x, ~300x and ~1500x per doubling, so the cell meets tol
    # at 1024 steps
    spec = with_epsilon(with_b(lienard(6).spec,
                               (7.00877, -23.01547, 17.824, -3.65714)), 0.0185)
    r0 = 2.87
    monkeypatch.setattr(flow, "_sign_change_cells",
                        lambda grid, disp, ok: iter([(r0, r0, 0.0, 0.0)]))
    revolutions = _runs(monkeypatch)[True]
    find_fixed_points(spec, (2.8, 2.9))
    assert [run.r0 for run in revolutions] == [r0] * len(revolutions)
    *_, half, chosen = revolutions
    assert (half.mesh, chosen.mesh) == (flow._uniform(512), flow._uniform(1024))
    assert abs(chosen.out[0] - half.out[0]) / (2 ** flow._ORDER - 1) <= flow.RESIDUAL_TOL
    assert abs(chosen.out[0] - _revolution(spec, r0, 8192)) <= flow.RESIDUAL_TOL
    pinned = normalize_ccw(spec)
    assert chosen.out == flow._run_mesh(True, flow._search_tables(pinned), flow._uniform(1024), r0)


def test_explicit_steps_are_the_lowest_count(monkeypatch):
    # a count below the rule's start changes nothing, one above it is
    # where the rule starts, and one that misses the target doubles
    spec = example2().spec
    below = return_map(spec, 2.0, steps=64)
    assert below == return_map(spec, 2.0) and below.steps == flow.REVOLUTION_STEPS
    assert return_map(spec, 2.0, steps=512).steps == 512
    stiff = with_epsilon(with_b(lienard(6).spec,
                                (7.00877, -23.01547, 17.824, -3.65714)), 0.0185)
    chosen = return_map(stiff, 2.87)
    assert chosen.steps > 2 * flow.REVOLUTION_STEPS
    assert return_map(stiff, 2.87, steps=2 * flow.REVOLUTION_STEPS) == chosen
    tangent = _runs(monkeypatch)[True]
    find_fixed_points(with_epsilon(vdp().spec, 0.01), (0.5, 2.0), steps=1024)
    assert tangent and {run.mesh for run in tangent} == {flow._uniform(1024)}


def _drift_spec():
    """Pure outward drift dr/dtheta = r: from r 100 it leaves the guard
    window in quadrant 2 at every step count."""
    return PerturbationSpec(fields=(linear_field(1.0, 0.0, 0.0, 1.0),),
                            b=(1.0,), epsilon=1.0, orientation="ccw")


def _outcome(run):
    """run()'s pair, or the type, message and quadrant of its error."""
    try:
        return run()
    except (GuardBoundError, AngularMonotonicityError) as exc:
        return type(exc), str(exc), exc.quadrant


def _kernel_calls(monkeypatch):
    """Record each call of a generated kernel as its kind, True for the
    tangent kernel."""
    calls, real = [], flow._kernel

    def kernel(pattern, tangent):
        compiled = real(pattern, tangent)

        def counted(*args):
            calls.append(tangent)
            return compiled(*args)

        return counted

    monkeypatch.setattr(flow, "_kernel", kernel)
    return calls


@pytest.mark.parametrize("tangent", [False, True])
def test_every_revolution_is_one_kernel_call(monkeypatch, tangent):
    # uniform and mixed meshes, tuple rows below BASE_STEPS and packed
    # ones from it on, finished revolutions and failing ones of the guard
    # (the drift) and of the angular speed (capillary): each is one call
    # of the generated kernel, and a failure names the quadrant whose
    # angles hold the one its message prints
    calls = _kernel_calls(monkeypatch)
    cases = [(vdp().spec, 1.0, {"ok"}), (example1().spec, 1.2, {"ok"}),
             (_drift_spec(), 100.0, {GuardBoundError}),
             (capillary().spec, 1.0, {GuardBoundError, AngularMonotonicityError})]
    meshes = [flow._uniform(64), flow._uniform(256), (64, 16, 2, 2), (2, 2, 16, 64),
              (32, 32, 32, 4)]
    for spec, r0, kinds in cases:
        tables = flow._search_tables(normalize_ccw(spec))
        outcomes = set()
        for mesh in meshes:
            calls.clear()
            outcome = _outcome(lambda: flow._run_mesh(tangent, tables, mesh, r0))
            assert calls == [tangent], (spec, mesh)
            if isinstance(outcome[0], type):
                _, message, quadrant = outcome
                theta = float(re.search(r"theta=([^,\s]+)", message).group(1))
                assert quadrant * math.pi / 2 - 1e-5 <= theta <= (
                    quadrant + 1) * math.pi / 2 + 1e-5, (spec, mesh, message, quadrant)
                outcomes.add(outcome[0])
            else:
                outcomes.add("ok")
        assert outcomes == kinds, spec


def test_repro_revolutions_are_one_kernel_call_each(monkeypatch, capsys):
    # lienard7's settles run the mixed meshes (8, 8, 8, 4), (16, 16, 16, 4)
    # and (64, 64, 64, 4) beside uniform ones (`REPRO_WORK`)
    calls = _kernel_calls(monkeypatch)
    runs = _runs(monkeypatch)
    assert cli.main(["repro", "lienard", "--m", "7"]) == 0
    capsys.readouterr()
    for tangent in (False, True):
        assert calls.count(tangent) == len(runs[tangent]) > 0


def test_the_kernel_honours_each_rows_own_step():
    # rows that step backward, each with h negated and stage i of step n
    # at the angle theta_(n+1) - c_i |h|, run a revolution in reverse:
    # from P(r0) they return r0 within that revolution's estimate, and
    # their dr0/dr1 inverts dP/dr0.  At eps -0.2 vdp's cycle repels, so
    # the backward revolution does not amplify the forward one's error.
    spec, r0 = normalize_ccw(with_epsilon(vdp().spec, -0.2)), 1.0
    tables = flow._search_tables(spec)
    for steps in (16, 32, 64):
        h = 2.0 * math.pi / steps
        forward, slope = flow._run_mesh(True, tables, flow._uniform(steps), r0)
        estimate = _pinned_estimate(spec, r0, steps)
        thetas = np.array([(n + 1 - c) * h for n in reversed(range(steps)) for c in flow._C])
        # at each stage, e_j F_j and then e_j G_j of every field j
        values = np.stack([np.stack(angular_components(field, thetas)) * (spec.epsilon * bj)
                           for field, bj in zip(spec.fields, spec.b)], axis=-1)
        rows = [(-h, *row) for row in values.transpose(1, 0, 2).reshape(steps, -1).tolist()]
        for tangent in (False, True):
            back, second = flow._kernel(flow._pattern(spec.alphas), tangent)(
                forward, *flow.GUARD, rows, *spec.alphas)
            assert abs(back - r0) <= estimate < 1e-3 * abs(forward - r0), (steps, back)
            if tangent:
                assert abs(second * slope - 1.0) <= 10.0 * estimate, (steps, second * slope)


@pytest.mark.parametrize("name, r0", [("vdp", 1.2), ("example1", 0.5), ("example2", 2.0),
                                      ("lienard7", 1.2), ("capillary", 1.0)])
def test_graded_meshes_match_the_stitched_reference(name, r0):
    # quadrant k reads its slice of the rows at 4 n_k steps, packed from
    # BASE_STEPS on and tuples below, each row with its h = 2 pi / (4 n_k),
    # so each kernel matches its reference stitched from those profiles
    # bit for bit, errors included
    spec = normalize_ccw(_lienard7() if name == "lienard7" else catalog()[name]().spec)
    meshes = [(64, 16, 2, 2), (32, 32, 32, 4), (8, 4, 4, 2), (64, 64, 64, 16)]
    kinds = _assert_same_bits(spec, r0, 8, meshes)
    # capillary at r 1.0 fails on every mesh, by both exits
    want = {GuardBoundError, AngularMonotonicityError} if name == "capillary" else {"ok"}
    assert all(k == want for k in kinds.values())


@pytest.mark.parametrize("case, quadrant", [("capillary", 1), ("drift", 2)])
def test_a_failure_at_the_cap_is_the_uniform_caps_failure(monkeypatch, case, quadrant):
    # a revolution that fails in quadrant q at every level refines
    # quadrants 0..q only, until q reaches MAX_STEPS / 4; those quadrants
    # then run as the uniform MAX_STEPS mesh runs them, so it raises that
    # mesh's error, message included, without running the later quadrants
    # at the cap
    spec, r0 = (capillary().spec, 1.0) if case == "capillary" else (_drift_spec(), 100.0)
    cap = flow.MAX_STEPS // 4
    value = _runs(monkeypatch)[False]
    with pytest.raises((GuardBoundError, AngularMonotonicityError)) as chosen:
        return_map(spec, r0)
    last = value[-1].mesh
    assert last[:quadrant + 1] == (cap,) * (quadrant + 1) and max(last[quadrant + 1:]) < cap
    uniform = _outcome(lambda: flow._run_mesh(
        False, flow._search_tables(normalize_ccw(spec)), flow._uniform(flow.MAX_STEPS), r0))
    assert (type(chosen.value), str(chosen.value), chosen.value.quadrant) == uniform
    assert uniform[2] == quadrant


def _overflow_spec():
    """10 x beside -x^3 with b_0 = 1e308: e_0 F_0 overflows the guard
    window within the first step of quadrant 0 at every step count."""
    return PerturbationSpec(
        (HomogeneousField((SignedPowerTerm(10.0, Fraction(1), Fraction(0), True, False),),
                          (), Fraction(1)),
         HomogeneousField((SignedPowerTerm(-1.0, Fraction(3), Fraction(0), True, False),),
                          (), Fraction(3))),
        (1e308, 1.0), 0.01, "ccw")


@pytest.mark.parametrize("case, message, built", [
    ("overflow", "radius 5.04298e+301 left the window (0.0001, 10000) near "
     "theta=5.04298e-06", {0}),
    ("capillary", "angular speed -1.332e-05 <= 0 at theta=1.84673, r=0.662914", {0, 1}),
])
def test_a_failing_revolution_builds_no_later_quadrant(monkeypatch, case, message, built):
    # a kernel reaches quadrant k's rows only after quadrant k - 1, so a
    # revolution that fails in quadrant q at every count builds no table
    # of a later quadrant, and raises the error it raised when whole turns
    # were built
    spec = _overflow_spec() if case == "overflow" else capillary().spec
    asked = _builds(monkeypatch)
    with pytest.raises((GuardBoundError, AngularMonotonicityError)) as info:
        return_map(spec, 1.0)
    assert str(info.value) == message
    assert {k for _, k in asked} == built


@pytest.mark.parametrize("r0, steps, uniform_steps", [
    (4.0, 2560, 4096), (4.5, 3584, 8192), (5.0, 5632, 16384)])
def test_stiff_band_revolution_refines_only_up_to_its_failure(r0, steps, uniform_steps):
    # from the outer band of the retuned lienard6 the orbit falls onto its
    # cycle within quadrant 0, so only the first quadrants fail and refine;
    # the uniform ladder doubled all four to `uniform_steps`
    spec = normalize_ccw(retune_b(lienard(6, epsilon=0.005).spec, [0.8, 1.3, 1.8])[0].spec)
    sample = return_map(spec, r0)
    assert sample.steps == steps < uniform_steps
    assert sample.error_estimate <= flow.RESIDUAL_TOL
    assert abs(sample.r1 - _scipy_revolution(spec, r0)) <= sample.error_estimate + 1e-12 * r0


def test_lienard6_pipeline_value_steps_are_pinned(monkeypatch, capsys):
    # value-kernel steps over the settled scan nodes, the cells'
    # approaches, whose last revolution is each cell's half pass, and the
    # revolutions that choose the cells' meshes: 7,824 on the uniform
    # ladder, 4,464 when the settling walked the stiff band node by node;
    # the monotone map covers 26 of its nodes.  The secant step on each
    # mesh leaves each cell one tangent revolution
    runs = _runs(monkeypatch)
    settles = _settles(monkeypatch)
    assert cli.main(["pipeline", "--preset", "lienard6", "--targets", "0.8", "1.3", "1.8",
                     "--eps", "0.005"]) == 0
    capsys.readouterr()
    value, tangent = runs[False], runs[True]
    assert (len(value), sum(sum(run.mesh) for run in value)) == (52, 2420)
    assert [sum(v - u - 1 for u, v, _ in _covers(settle)) for settle in settles] == [26]
    assert (len(tangent), sum(sum(run.mesh) for run in tangent)) == (3, 384)


#: The benchmark's single-radius specs with their radius ranges: vdp,
#: example1, example2 tuned to roots 1 and 4, lienard6 tuned to 0.8, 1.3
#: and 1.8 (`bench/workloads.py`'s SAMPLE_SPECS).
SAMPLE_SPECS = {
    "vdp": (lambda: vdp().spec, (0.4, 3.0)),
    "example1": (lambda: example1().spec, (0.4, 3.4)),
    "example2": (lambda: with_b(example2().spec, (1.0, 8.36037, -10.50887, 2.0)),
                 (0.35, 10.0)),
    "lienard6": (lambda: with_b(lienard(6).spec, (7.00877, -23.01547, 17.824, -3.65714)),
                 (0.3, 3.0)),
}


def _scipy_revolution(spec, r0):
    """One revolution of the same polar ODE by scipy's adaptive DOP853
    (rtol 1e-13), a quadrant at a time so that no step straddles an axis,
    with the fields evaluated pointwise rather than from angle tables."""
    from scipy.integrate import solve_ivp

    def rhs(theta, state):
        r = state[0]
        x, y = r * math.cos(theta), r * math.sin(theta)
        p = q = 0.0
        for bj, field in zip(spec.b, spec.fields):
            fv, gv = field.evaluate(x, y)
            p, q = p + bj * fv, q + bj * gv
        eps = spec.epsilon
        return [eps * (x * p + y * q) / r / (1.0 + eps * (x * q - y * p) / (r * r))]

    r = r0
    for k in range(4):
        sol = solve_ivp(rhs, (k * math.pi / 2, (k + 1) * math.pi / 2), [r],
                        method="DOP853", rtol=1e-13, atol=1e-15)
        assert sol.success, sol.message
        r = float(sol.y[0, -1])
    return r


@pytest.mark.parametrize("eps", [0.005, 0.02])
@pytest.mark.parametrize("name", sorted(SAMPLE_SPECS))
def test_revolutions_match_scipy_on_the_sample_specs(name, eps):
    make, (lo, hi) = SAMPLE_SPECS[name]
    spec = normalize_ccw(with_epsilon(make(), eps))
    for r0 in (lo, math.sqrt(lo * hi), hi):
        sample = return_map(spec, r0)
        assert abs(sample.r1 - _scipy_revolution(spec, r0)) <= 1e-10 * max(r0, 1.0), (
            r0, sample)


def test_kernel_errors_print_the_graded_angle():
    # capillary's sqrt(2 x) puts it on the graded mesh; the printed angle
    # and radius must be where the angular speed is really lost
    spec = normalize_ccw(capillary().spec)
    with pytest.raises(AngularMonotonicityError) as info:
        _revolution(spec, 1.0, 64)
    match = re.search(r"angular speed (\S+) <= 0 at theta=(\S+), r=(\S+)",
                      str(info.value))
    speed, theta, r = map(float, match.groups())
    x, y = r * math.cos(theta), r * math.sin(theta)
    p = q = 0.0
    for bj, field in zip(spec.b, spec.fields):
        fv, gv = field.evaluate(x, y)
        p, q = p + bj * fv, q + bj * gv
    assert 1.0 + spec.epsilon * (x * q - y * p) / (r * r) == pytest.approx(
        speed, abs=1e-4)
    assert speed < -1e-2


def _first_term_sum(terms):
    """Left to right from the first term, 0.0 for none, as generated."""
    total = None
    for term in terms:
        total = term if total is None else total + term
    return 0.0 if total is None else total


def _reference_revolution(spec, mesh, r0, tangent):
    """One revolution on `_stage_profiles` as a plain loop over the stages
    of the tableau, with a per-stage `rhs` closure and a loop over the
    fields: the reference that the generated kernels must match bit for
    bit.  Quadrant k of `mesh` runs steps k n_k .. (k + 1) n_k - 1 of the
    profiles at 4 n_k steps, with h = 2 pi / (4 n_k), from the r, s and
    least speed the quadrant before it left.  Returns
    (r1, min speed), or with `tangent` (r1, dr1/dr0) carried by
    l_i = (df/dr)_i (s + h sum_j a_ij l_j)."""
    a, b = flow._A, flow._B
    lo, hi = flow.GUARD
    r, s, least = float(r0), 1.0, math.inf
    for quadrant, per in enumerate(mesh):
        tabs = _stage_profiles(spec.fields, 4 * per)
        fields = tuple(zip(tabs.alphas, [al - 1.0 for al in tabs.alphas],
                           [spec.epsilon * bj for bj in spec.b],
                           tabs.radial, tabs.transverse))
        h = 2.0 * math.pi / tabs.steps

        def rhs(step, i, r):
            nonlocal least
            if not lo < r < hi:
                raise GuardBoundError(
                    f"radius {r:.6g} left the window ({lo:g}, {hi:g}) near "
                    f"theta={tabs.thetas[step][i]:.6g}"
                )
            # f = num / den with num = sum t_j, den = 1 + sum u_j / r, so
            # num' = sum a_j t_j / r and den' = sum (a_j - 1) u_j / r^2.
            t = [e * fr[step][i] * r ** al for al, _, e, fr, _ in fields]
            u = [e * tr[step][i] * r ** al for al, _, e, _, tr in fields]
            den = 1.0 + _first_term_sum(u) / r
            if den <= 0.0:
                raise AngularMonotonicityError(
                    f"angular speed {den:.3e} <= 0 at theta="
                    f"{tabs.thetas[step][i]:.6g}, r={r:.6g}"
                )
            least = min(least, den)
            f = _first_term_sum(t) / den
            dnum = _first_term_sum(al * tj for (al, *_), tj in zip(fields, t))
            dden = _first_term_sum(am * uj for (_, am, *_), uj in zip(fields, u))
            return f, (dnum / r - f * dden / (r * r)) / den

        def combined(start, weights, slopes):
            terms = [w * k for w, k in zip(weights, slopes) if w]
            return start + h * _first_term_sum(terms) if terms else start

        for step in range(quadrant * per, (quadrant + 1) * per):
            ks, ls = [], []
            for i, row in enumerate(a):
                k, d = rhs(step, i, combined(r, row, ks))
                ks.append(k)
                ls.append(d * combined(s, row, ls))
            r, s = combined(r, b, ks), combined(s, b, ls)
    if not lo < r < hi:
        raise GuardBoundError(f"final radius {r:.6g} left the window ({lo:g}, {hi:g})")
    return (r, s) if tangent else (r, least)


def _mesh_runner(tangent):
    """`flow._run_mesh` with `tangent`, called as its reference is, with
    (spec, mesh, r0)."""
    def run(spec, mesh, r0):
        return flow._run_mesh(tangent, flow._search_tables(spec), mesh, r0)

    run.__name__ = "tangent" if tangent else "value"
    return run


#: Each generated kernel, run by `_run_mesh`, beside the hand-written form
#: it must match.
KERNELS = tuple((_mesh_runner(tangent), partial(_reference_revolution, tangent=tangent))
                for tangent in (False, True))


def _kernel_outcome(kernel, spec, r0, meshes):
    """The pair `kernel(spec, mesh, r0)` returns on each mesh, or the type
    and message of the error it raised."""
    outcome = []
    for mesh in meshes:
        try:
            outcome.append(kernel(spec, mesh, r0))
        except (GuardBoundError, AngularMonotonicityError) as exc:
            outcome.append((type(exc), str(exc)))
    return outcome


def _assert_same_bits(spec, r0, steps, meshes=()):
    """Each kernel's outcome at `steps`, at its half pass and on `meshes`,
    checked against its reference; returns the kinds of outcome, "ok" or
    the error type, per kernel."""
    meshes = (flow._uniform(steps), flow._uniform(steps // 2), *meshes)
    kinds = {}
    for kernel, reference in KERNELS:
        # the kernel reads bound rows, its reference binds e_j to its own
        # profiles
        new = _kernel_outcome(kernel, spec, r0, meshes)
        ref = _kernel_outcome(reference, spec, r0, meshes)
        # repr tells -0.0 from 0.0 and compares NaNs; == would do neither
        assert repr(new) == repr(ref), (kernel.__name__, spec, r0, steps)
        kinds[kernel] = {out[0] if isinstance(out[0], type) else "ok" for out in new}
    return kinds


def test_kernels_match_their_references_on_every_preset():
    outcomes = {kernel: set() for kernel, _ in KERNELS}
    for name, make in sorted(catalog().items()):
        spec = normalize_ccw(make().spec)
        for steps in (8, 64, 256, 512):
            for r0 in (0.5, 1.2, 3.0):
                for kernel, kinds in _assert_same_bits(spec, r0, steps).items():
                    outcomes[kernel] |= kinds
    # both error exits are compared, not only finished revolutions
    for kinds in outcomes.values():
        assert kinds == {"ok", GuardBoundError, AngularMonotonicityError}


@st.composite
def kernel_specs(draw):
    """One to six fields of increasing degree <= 5 with fractional
    exponents and any valid sign flags (so mostly the graded mesh)."""
    alphas = sorted(draw(st.sets(
        st.builds(Fraction, st.integers(0, 15), st.integers(1, 3)).filter(
            lambda a: a <= 5), min_size=1, max_size=6)))

    def term(alpha):
        d = draw(st.integers(1, 4))
        x_exp = Fraction(draw(st.integers(0, math.floor(alpha * d))), d)
        y_exp = alpha - x_exp
        return SignedPowerTerm(draw(st.floats(-3.0, 3.0)), x_exp, y_exp,
                               x_exp > 0 and draw(st.booleans()),
                               y_exp > 0 and draw(st.booleans()))

    fields = tuple(
        HomogeneousField(tuple(term(a) for _ in range(draw(st.integers(0, 2)))),
                         tuple(term(a) for _ in range(draw(st.integers(0, 2)))),
                         a)
        for a in alphas)
    b = tuple(draw(st.floats(-2.0, 2.0)) for _ in fields)
    return PerturbationSpec(fields, b, draw(st.floats(1e-3, 0.05)), "ccw")


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kernel_specs(), st.floats(0.3, 5.0), st.sampled_from([8, 64, 512]))
def test_kernels_match_their_references_on_random_specs(spec, r0, steps):
    _assert_same_bits(spec, r0, steps)


def test_kernels_match_their_references_with_forty_fields():
    rng = np.random.default_rng(40)
    fields = []
    for j in range(1, 41):
        alpha = Fraction(j, 8)
        x_exp = Fraction(int(rng.integers(0, j + 1)), 8)
        fields.append(HomogeneousField(
            (SignedPowerTerm(float(rng.uniform(-1, 1)), x_exp, alpha - x_exp,
                             x_exp > 0, False),),
            (SignedPowerTerm(float(rng.uniform(-1, 1)), alpha - x_exp, x_exp,
                             False, x_exp > 0),),
            alpha))
    spec = PerturbationSpec(tuple(fields), tuple(rng.uniform(-1, 1, 40) / 40),
                            0.01, "ccw")
    for steps in (8, 64, 512):
        for r0 in (0.5, 1.2):
            kinds = _assert_same_bits(spec, r0, steps)
            assert all(k == {"ok"} for k in kinds.values()), (steps, r0)


def test_a_spec_without_fields_leaves_every_radius_fixed():
    # each generated sum is empty here, and must still read 0.0
    spec = PerturbationSpec((), (), 0.01)
    sample = return_map(spec, 1.0)
    assert (sample.r1, sample.min_theta_speed, sample.error_estimate) == (1.0, 1.0, 0.0)
    assert find_fixed_points(spec, (0.5, 2.0)) == []
    kinds = _assert_same_bits(spec, 1.0, 64)
    assert all(k == {"ok"} for k in kinds.values())


def test_one_compiled_kernel_per_exponent_pattern_and_kind():
    # the generated source holds field indices and each exponent's class
    # only, so every spec with the same pattern shares one kernel of each
    # kind (herd and lienard5 share "1aa")
    flow._kernel.cache_clear()
    used = set()
    for name, make in sorted(catalog().items()):
        spec = normalize_ccw(make().spec)
        for kind, (kernel, _) in zip((False, True), KERNELS):
            _kernel_outcome(kernel, spec, 1.0, [flow._uniform(64)])
            used.add((flow._pattern(spec.alphas), kind))
        for eps in (0.005, 0.02):
            _kernel_outcome(KERNELS[0][0], with_epsilon(spec, eps), 1.0,
                            [flow._uniform(64)])
    assert len(used) == 14
    info = flow._kernel.cache_info()
    assert info.maxsize >= 2 * len(used)   # the catalog never evicts a kernel
    assert info.currsize == info.misses == len(used)


def _kernel_source(monkeypatch, pattern, tangent):
    """The source `flow._kernel` generates for (pattern, tangent)."""
    sources = []
    monkeypatch.setattr(flow, "compile", lambda source, *rest: (
        sources.append(source) or compile(source, *rest)), raising=False)
    flow._kernel.__wrapped__(pattern, tangent)
    return sources[0]


#: Powers x ** a_j per stage of either generated kernel: one per field
#: whose exponent is neither 0 nor 1, where every field took one before.
POWERS_PER_STAGE = {"vdp": 1, "example1": 1, "example2": 2, "lienard5": 2,
                    "lienard6": 3, "lienard7": 4}


@pytest.mark.parametrize("name, powers", sorted(POWERS_PER_STAGE.items()))
def test_powers_per_stage_are_pinned(monkeypatch, name, powers):
    spec = catalog()[name]().spec
    pattern = flow._pattern(spec.alphas)
    for tangent in (False, True):
        source = _kernel_source(monkeypatch, pattern, tangent)
        assert source.count("**") == powers * len(flow._C), (pattern, tangent)


def _no_power_spec(eps):
    """Fields of exponents 0 and 1 only: pattern "01"."""
    return PerturbationSpec((constant_field(1.0, -0.5),
                             linear_field(0.3, -1.0, 0.7, 0.2)), (1.0, 1.0), eps)


def _mixed_pattern_spec(eps):
    """Exponents 0, 1/3, 1, 3/2 and 2: pattern "0a1aa", three general
    exponents, one of them an integer, on the graded mesh."""
    return PerturbationSpec(
        (constant_field(1.0, -0.5),
         signed_root_field(0.4, 0.0, 0.0, 0.6, Fraction(1, 3)),
         linear_field(0.3, -1.0, 0.7, 0.2),
         signed_root_field(-0.2, 0.5, 0.1, -0.3, Fraction(3, 2)),
         signed_root_field(0.1, 0.0, 0.0, -0.4, 2)), (1.0,) * 5, eps)


@pytest.mark.parametrize("make, pattern, powers", [
    (_no_power_spec, "01", 0), (_mixed_pattern_spec, "0a1aa", 3)])
def test_pattern_kernels_match_their_references_at_both_exits(
        monkeypatch, make, pattern, powers):
    # finished revolutions, guard exits (a large radius at eps 2) and lost
    # angular speed (the constant field near r = 0): repr-identical to the
    # reference that computes r ** a_j for every field
    spec = make(0.01)
    assert flow._pattern(spec.alphas) == pattern
    for tangent in (False, True):
        source = _kernel_source(monkeypatch, pattern, tangent)
        assert source.count("**") == powers * len(flow._C)
    outcomes = {kernel: set() for kernel, _ in KERNELS}
    for eps, r0 in ((0.01, 1.0), (0.01, 2e-4), (2.0, 5e3)):
        for steps in (8, 64, 256):
            for kernel, kinds in _assert_same_bits(make(eps), r0, steps).items():
                outcomes[kernel] |= kinds
    for kinds in outcomes.values():
        assert kinds == {"ok", GuardBoundError, AngularMonotonicityError}


def _revolutions(runs, batches):
    """Revolutions per (kernel, mesh) of the lone-radius kernels and per
    (batch, steps) of the batch kernel, from the spies `_runs` and
    `_batched_substeps`."""
    return Counter([("tangent" if tangent else "scalar", run.mesh)
                    for tangent, kind in runs.items() for run in kind]
                   + [("batch", steps) for steps in batches])


#: Revolutions per (kernel, mesh) of each `repro`, and per (batch,
#: steps): deterministic, so a change of speed cannot hide a change of
#: work.  Each certified cell runs one value and one tangent revolution
#: of 128 steps: the first chooses its mesh, the second is its
#: certificate.
REPRO_WORK = [
    (["repro", "vdp"], {("tangent", (32,) * 4): 3, ("scalar", (32,) * 4): 3,
                        ("scalar", (16,) * 4): 9, ("batch", 8): 3, ("batch", 4): 3}),
    (["repro", "example1"], {("tangent", (32,) * 4): 1, ("scalar", (32,) * 4): 1,
                             ("scalar", (4,) * 4): 4, ("scalar", (16,) * 4): 2,
                             ("batch", 8): 1, ("batch", 4): 1}),
    (["repro", "example2"], {("tangent", (32,) * 4): 4, ("scalar", (32,) * 4): 4,
                             ("scalar", (4,) * 4): 105, ("scalar", (16,) * 4): 12,
                             ("batch", 8): 2, ("batch", 4): 2}),
    (["repro", "lienard", "--m", "6"], {("tangent", (32,) * 4): 3, ("scalar", (32,) * 4): 3,
                                        ("scalar", (4,) * 4): 5, ("scalar", (16,) * 4): 8,
                                        ("batch", 8): 1, ("batch", 4): 1}),
    # one settled node (r 1.854) fails in quadrant 2 at every level, so
    # only quadrants 0-2 refine, and it stays failed at (64, 64, 64, 4) as
    # the uniform 256 steps fail it
    (["repro", "lienard", "--m", "7"], {("tangent", (32,) * 4): 4, ("scalar", (32,) * 4): 4,
                                        ("scalar", (4,) * 4): 14,
                                        ("scalar", (8, 8, 8, 4)): 1,
                                        ("scalar", (16, 16, 16, 4)): 1,
                                        ("scalar", (16,) * 4): 13,
                                        ("scalar", (64, 64, 64, 4)): 1,
                                        ("batch", 8): 1, ("batch", 4): 1}),
]


@pytest.mark.parametrize("argv, work", REPRO_WORK,
                         ids=[" ".join(argv) for argv, _ in REPRO_WORK])
def test_repro_work_is_pinned(monkeypatch, capsys, argv, work):
    runs, batches = _runs(monkeypatch), _batched_substeps(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert _revolutions(runs, batches) == work
