"""Return-map integration, fixed-point certificates, continuation."""

import csv
import json
import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    reference = return_map(spec, 1.0, steps=8192).r1
    errs = [abs(return_map(spec, 1.0, steps=n).r1 - reference) for n in (32, 64, 128)]
    assert errs[0] < 1e-8
    assert errs[2] <= errs[0]
    assert return_map(spec, 1.0, steps=64).error_estimate < 1e-9


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
    with pytest.raises(ValueError):
        return_map(spec, -1.0)
    with pytest.raises(ValueError):
        scan_return_map(spec, (2.0, 0.5))


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
    for tol in (-1e-9, 0.0, math.nan, math.inf):
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
    spec, steps = _lienard7(), 256
    grid, r1, status = scan_return_map(spec, (0.4, 2.2), steps=steps)
    assert {0, 1, 2} <= set(status.tolist())
    tabs = flow._tables(spec.fields, steps)
    for r0, r1_batch, st in zip(grid, r1, status):
        try:
            single, _ = flow._integrate_scalar(spec, tabs, float(r0), steps)
        except AngularMonotonicityError:
            assert st == 1, r0
        except GuardBoundError:
            assert st == 2, r0
        else:
            assert st == 0, r0
            assert abs(r1_batch - single) <= 1e-12 * single
            assert flow._integrate_tangent(spec, tabs, float(r0), steps)[0] == single
            assert abs(r1_batch - return_map(spec, float(r0), steps).r1) <= 1e-12 * single


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


def _counting(monkeypatch, name, with_steps=False):
    """Record each call's start radius, or (radius, steps) with_steps."""
    calls = []
    real = getattr(flow, name)

    def wrapper(*args):
        calls.append((args[2], args[3]) if with_steps else args[2])
        return real(*args)

    monkeypatch.setattr(flow, name, wrapper)
    return calls


@pytest.mark.parametrize("case", ["vdp", "example2", "lienard6"])
def test_newton_revolutions_per_cell(monkeypatch, case):
    if case == "vdp":
        spec, targets = with_epsilon(vdp().spec, 0.01), [VDP_ROOT]
    elif case == "example2":
        targets = [1.1, 3.7]
        spec = with_epsilon(retune_b(example2().spec, targets)[0].spec, 0.01)
    else:
        targets = [0.8, 1.3, 1.8]
        spec = retune_b(lienard(6, epsilon=0.005).spec, targets)[0].spec
    bracket = (0.3 * min(targets), 3.0 * max(targets))
    tangent = _counting(monkeypatch, "_integrate_tangent")
    value_only = _counting(monkeypatch, "_integrate_scalar", with_steps=True)
    certs = find_fixed_points(spec, bracket)
    assert len(certs) == len(targets)
    # value-only revolutions settle scan nodes; refinement adds one per
    # cell, the half-resolution pass that chooses the cell's step count
    grid = set(np.logspace(math.log10(bracket[0]), math.log10(bracket[1]),
                           200).tolist())
    off_grid = [n for r, n in value_only if r not in grid]
    assert off_grid == [flow.BASE_STEPS // 2] * len(certs)
    assert len(tangent) <= 4 * len(certs)


def test_repro_vdp_tangent_work_per_cell(monkeypatch, capsys):
    tangent = _counting(monkeypatch, "_integrate_tangent", with_steps=True)
    assert cli.main(["repro", "vdp"]) == 0
    runs = json.loads(capsys.readouterr().out)["result"]["runs"]
    certs = sum(len(run["fixed_points"]) for run in runs)
    assert certs == 3
    assert sum(n for _, n in tangent) <= 4 * flow.BASE_STEPS * certs


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
    # the search scans example1 at BASE_STEPS / 8 = 64 steps, which is
    # off by about 3e-8 near the cycle
    spec, steps, points = example1().spec, 4096, 201
    (cert,) = find_fixed_points(spec, (0.4, 3.4))
    node = cert.r_star * (1.0 - 2e-8)
    bracket = (0.5 * node, 2.0 * node)  # the middle scan node sits at `node`
    coarse_grid, coarse_r1, _ = scan_return_map(spec, bracket, points,
                                                flow.BASE_STEPS // 8)
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
    # beyond r ~ 4.7 the coarse scan leaves the guard window where the full
    # resolution does not, and next to that band its values are off by a few %
    spec = retune_b(lienard(6, epsilon=0.005).spec, [0.8, 1.3, 1.8])[0].spec
    bracket, steps = (0.24, 5.4), 4096
    _, _, coarse_status = scan_return_map(spec, bracket, steps=steps // 8)
    full_grid, full_r1, full_status = scan_return_map(spec, bracket, steps=steps)
    assert np.count_nonzero((coarse_status == 2) & (full_status == 0)) >= 5

    certs, cells = _search_cells(monkeypatch, spec, bracket, steps)
    _assert_full_resolution_cells(cells, spec, bracket, flow.SCAN_POINTS, steps)
    assert len(certs) == 3
    # a chosen step count settles failures only up to BASE_STEPS, so the
    # stiff band stays failed, but the cells are those of the full scan
    chosen, (grid, disp, ok) = _search_cells(monkeypatch, spec, bracket)
    assert _cell_bounds(grid, disp, ok) == _cell_bounds(
        full_grid, full_r1 - full_grid, full_status == 0)
    assert [c.r_star for c in chosen] == pytest.approx(
        [c.r_star for c in certs], rel=1e-9)


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
    _assert_full_resolution_cells(cells, spec, bracket, 200, 4096)
    assert len(certs) == 1
    assert certs[0].r_star == pytest.approx(cert.r_star, rel=1e-12)


def _batched_substeps(monkeypatch):
    calls = []
    real = flow._integrate_batch

    def counting(spec, tabs, r0, substeps):
        calls.append(substeps)
        return real(spec, tabs, r0, substeps)

    monkeypatch.setattr(flow, "_integrate_batch", counting)
    return calls


def test_identity_map_integrates_nothing(monkeypatch):
    # every b_j == 0: dr/dtheta is exactly zero, so no cell can exist
    spec = with_b(vdp().spec, (0.0, 0.0))
    scalar = _counting(monkeypatch, "_integrate_scalar")
    batch = _batched_substeps(monkeypatch)
    assert find_fixed_points(spec, (0.5, 2.0)) == []
    assert scalar == [] and batch == []
    with pytest.raises(ValueError):
        find_fixed_points(spec, (2.0, 0.5))


def test_rotation_only_map_settles_each_node_once(monkeypatch):
    # no radial component: P(r) = r exactly, so no node's sign is ever
    # trusted; each is settled once, as its estimate 0 is within tol
    spec = PerturbationSpec(fields=(linear_field(0.0, -1.0, 1.0, 0.0),),
                            b=(1.0,), epsilon=0.01, orientation="ccw")
    scalar = _counting(monkeypatch, "_integrate_scalar", with_steps=True)
    assert find_fixed_points(spec, (0.5, 2.0)) == []
    assert [n for _, n in scalar] == [flow.BASE_STEPS // 4] * flow.SCAN_POINTS


def test_search_scans_at_a_fraction_of_the_steps(monkeypatch):
    steps = flow.BASE_STEPS
    calls = _batched_substeps(monkeypatch)
    certs = find_fixed_points(with_epsilon(vdp().spec, 0.01), (0.5, 2.0))
    assert len(certs) == 1
    assert calls and sum(calls) <= 3 * steps // 16


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
    coarse = flow.BASE_STEPS // 8
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


def test_failed_scan_nodes_are_summarized_once_per_epsilon(caplog):
    spec = _lienard7()
    eps_values = (0.005, 0.004)
    with caplog.at_level(logging.WARNING, logger="cycleavg.flow"):
        for eps in eps_values:
            find_fixed_points(with_epsilon(spec, eps), (0.5, 2.0))
    summaries = [r.getMessage() for r in caplog.records
                 if r.name == "cycleavg.flow" and r.getMessage().startswith("scan ")]
    assert len(summaries) == len(eps_values)
    assert len(caplog.records) <= len(eps_values)
    _, _, status = scan_return_map(with_epsilon(spec, 0.004), (0.5, 2.0))
    assert summaries[-1].endswith(
        f"angular_speed {np.count_nonzero(status == 1)}, "
        f"guard {np.count_nonzero(status == 2)})")


def _revolution(spec, r0, steps):
    spec = normalize_ccw(spec)
    tabs = flow._tables(spec.fields, steps)
    return flow._integrate_scalar(spec, tabs, r0, steps)[0]


@pytest.mark.parametrize("case, r0", [("example1", 1.2), ("example2", 2.0)])
def test_graded_estimate_matches_the_error(case, r0):
    # the quintic grading restores order 4 across the axes, so the /15
    # Richardson estimate is the error itself, not a guess at it
    spec = example1().spec if case == "example1" else example2().spec
    reference = _revolution(spec, r0, 65536)
    sample = return_map(spec, r0, steps=512)
    error = abs(sample.r1 - reference)
    assert 0.5 * error <= sample.error_estimate <= 2.0 * error
    p256, p512, p1024 = (_revolution(spec, r0, n) for n in (256, 512, 1024))
    order = math.log2(abs(p512 - p256) / abs(p1024 - p512))
    assert 3.8 <= order <= 4.2
    # BASE_STEPS is enough for a Newton cell here; a lone revolution
    # starts higher and needs no second level
    assert sample.error_estimate <= flow.RESIDUAL_TOL
    chosen = return_map(spec, r0)
    assert chosen == return_map(spec, r0, steps=flow.REVOLUTION_STEPS)


def _uniform_tables(fields, steps):
    thetas = np.linspace(0.0, 2.0 * math.pi, 2 * steps + 1)
    comps = [angular_components(f, thetas) for f in fields]
    return ([tuple(fr.tolist()) for fr, _ in comps],
            [tuple(ft.tolist()) for _, ft in comps], thetas)


@pytest.mark.parametrize("case", ["vdp", "lienard7"])
def test_polynomial_specs_keep_the_uniform_mesh(case):
    spec = vdp().spec if case == "vdp" else _lienard7()
    # 1024 steps: beyond BASE_STEPS the rows are packed, with equal values
    for steps in (512, 1024):
        tabs = flow._tables(spec.fields, steps)
        radial, transverse, thetas = _uniform_tables(spec.fields, steps)
        assert [tuple(row) for row in tabs.radial] == radial
        assert [tuple(row) for row in tabs.transverse] == transverse
        assert np.array_equal(tabs.thetas, thetas)


def test_fractional_spec_is_graded_per_quadrant():
    tabs = flow._tables(example1().spec.fields, 64)
    quarter = tabs.thetas[::32].tolist()
    assert quarter == [k * math.pi / 2 for k in range(5)]
    # sigma'(u) = 30 u^2 (1 - u)^2 vanishes on the axes
    assert all(tabs.radial[j][32 * k] == 0.0 for j in range(3) for k in range(5))


def test_stiff_revolution_chooses_more_steps():
    # the bench's lienard6 sample spec near the edge of its radius range
    spec = with_epsilon(with_b(lienard(6).spec,
                               (7.00877, -23.01547, 17.824, -3.65714)), 0.0185)
    reference = _revolution(spec, 2.87, 65536)
    assert abs(return_map(spec, 2.87, steps=512).r1 - reference) > 1e-6
    sample = return_map(spec, 2.87)
    assert sample.steps > flow.REVOLUTION_STEPS
    assert abs(sample.r1 - reference) <= flow.RESIDUAL_TOL
    assert sample.error_estimate <= flow.RESIDUAL_TOL
    # each doubling reuses the last revolution as its half pass, which
    # the nested tables make the same value a pinned count computes
    assert return_map(spec, 2.87, steps=sample.steps) == sample


def test_stiff_cell_doubles_to_the_count_it_needs(monkeypatch):
    # the same stiff radius as a Newton cell's first point: its error falls
    # ~23x per doubling from 512 steps, faster than order 4 predicts, so a
    # count predicted from 512 steps would be 16384 where 8192 meet tol
    spec = with_epsilon(with_b(lienard(6).spec,
                               (7.00877, -23.01547, 17.824, -3.65714)), 0.0185)
    r0 = 2.87
    monkeypatch.setattr(flow, "_sign_change_cells",
                        lambda grid, disp, ok: iter([(r0, r0, 0.0, 0.0)]))
    revolutions = []
    real = flow._integrate_tangent

    def spy(spec, tabs, r, steps):
        revolutions.append((r, steps, real(spec, tabs, r, steps)))
        return revolutions[-1][2]

    monkeypatch.setattr(flow, "_integrate_tangent", spy)
    find_fixed_points(spec, (2.8, 2.9))
    assert [r for r, _, _ in revolutions] == [r0] * len(revolutions)
    *_, (_, half_steps, half), (_, steps, chosen) = revolutions
    assert (half_steps, steps) == (4096, 8192)
    assert abs(chosen[0] - half[0]) / 15.0 <= flow.RESIDUAL_TOL
    assert abs(chosen[0] - _revolution(spec, r0, 65536)) <= flow.RESIDUAL_TOL
    pinned = normalize_ccw(spec)
    assert chosen == real(pinned, flow._tables(pinned.fields, 8192), r0, 8192)


def test_explicit_steps_pin_the_revolution(monkeypatch):
    assert return_map(example2().spec, 2.0, steps=64).steps == 64
    tangent = _counting(monkeypatch, "_integrate_tangent", with_steps=True)
    find_fixed_points(with_epsilon(vdp().spec, 0.01), (0.5, 2.0), steps=1024)
    assert tangent and {n for _, n in tangent} == {1024}


def test_kernel_errors_print_the_graded_angle():
    # capillary's sqrt(2 x) puts it on the graded mesh; the printed angle
    # and radius must be where the angular speed is really lost
    spec = normalize_ccw(capillary().spec)
    with pytest.raises(AngularMonotonicityError) as info:
        return_map(spec, 1.0, steps=64)
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


def _reference_integrate_scalar(spec, tabs, r0, substeps):
    """The value kernel in its index-per-stage form, kept as the reference
    that `flow._integrate_scalar`'s row loop must match bit for bit."""
    nf = len(tabs.alphas)
    al = tabs.alphas
    eb = [spec.epsilon * bj for bj in spec.b]
    stride = tabs.steps // substeps           # table intervals per half step
    h = 2.0 * math.pi / substeps
    lo, hi = flow.GUARD
    min_den = math.inf
    state = [min_den]

    frt, trt = tabs.radial, tabs.transverse

    def rhs(idx: int, r: float) -> float:
        if not lo < r < hi:
            raise GuardBoundError(
                f"radius {r:.6g} left the window ({lo:g}, {hi:g}) near "
                f"theta={tabs.thetas[idx]:.6g}"
            )
        num = 0.0
        dacc = 0.0
        for j in range(nf):
            ra = r ** al[j]
            num += eb[j] * frt[j][idx] * ra
            dacc += eb[j] * trt[j][idx] * ra
        den = 1.0 + dacc / r
        if den <= 0.0:
            raise AngularMonotonicityError(
                f"angular speed {den:.3e} <= 0 at theta="
                f"{tabs.thetas[idx]:.6g}, r={r:.6g}"
            )
        if den < state[0]:
            state[0] = den
        return num / den

    r = float(r0)
    for n in range(substeps):
        base = 2 * stride * n
        k1 = rhs(base, r)
        k2 = rhs(base + stride, r + 0.5 * h * k1)
        k3 = rhs(base + stride, r + 0.5 * h * k2)
        k4 = rhs(base + 2 * stride, r + h * k3)
        r += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    if not lo < r < hi:
        raise GuardBoundError(f"final radius {r:.6g} left the window ({lo:g}, {hi:g})")
    return r, state[0]


def _kernel_outcome(kernel, spec, r0, steps):
    """(r1, min speed) of a revolution at `steps` and of its half pass, or
    the type and message of the error it raised."""
    tabs = flow._tables(spec.fields, steps)
    outcome = []
    for substeps in (steps, steps // 2):
        try:
            outcome.append(kernel(spec, tabs, r0, substeps))
        except (GuardBoundError, AngularMonotonicityError) as exc:
            outcome.append((type(exc), str(exc)))
    return outcome


def _assert_same_bits(spec, r0, steps):
    new = _kernel_outcome(flow._integrate_scalar, spec, r0, steps)
    ref = _kernel_outcome(_reference_integrate_scalar, spec, r0, steps)
    # repr tells -0.0 from 0.0 and compares NaNs; == would do neither
    assert repr(new) == repr(ref), (spec, r0, steps)
    return new


def test_value_kernel_matches_its_reference_on_every_preset():
    outcomes = set()
    for name, make in sorted(catalog().items()):
        spec = normalize_ccw(make().spec)
        for steps in (8, 64, 512, 4096):
            for r0 in (0.5, 1.2, 3.0):
                for result in _assert_same_bits(spec, r0, steps):
                    outcomes.add(result[0] if isinstance(result[0], type)
                                 else "ok")
    # both error exits are compared, not only finished revolutions
    assert outcomes == {"ok", GuardBoundError, AngularMonotonicityError}


@st.composite
def kernel_specs(draw):
    """One to three fields of increasing degree <= 5 with fractional
    exponents and any valid sign flags (so mostly the graded mesh)."""
    alphas = sorted(draw(st.sets(
        st.builds(Fraction, st.integers(0, 15), st.integers(1, 3)).filter(
            lambda a: a <= 5), min_size=1, max_size=3)))

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
def test_value_kernel_matches_its_reference_on_random_specs(spec, r0, steps):
    _assert_same_bits(spec, r0, steps)
