"""Unit tests for the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import time

import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import hfield, spec, term  # noqa: E402


def linear_spec(p: float) -> dict:
    """eps * p * (x, y): radial growth r' = eps p r at unit angular speed."""
    return spec([hfield(1, f=[term(p, 1, 0, True, False)],
                        g=[term(p, 0, 1, False, True)])], [1.0])


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def test_return_map_linear_closed_form():
    pmap = reference.ReturnMap()
    obj = linear_spec(0.8)
    for eps, r0 in ((0.01, 0.7), (0.03, 2.5), (-0.02, 1.3)):
        exact = r0 * math.exp(2.0 * math.pi * eps * 0.8)
        assert pmap(obj, eps, r0) == pytest.approx(exact, rel=1e-12, abs=0)


def test_return_map_caches_per_spec_eps_radius():
    pmap = reference.ReturnMap()
    obj = linear_spec(1.0)
    first = pmap.many([(obj, 0.01, 1.0), (obj, 0.02, 1.0), (obj, 0.01, 1.0)])
    assert pmap.orbits == 2
    assert pmap(obj, 0.01, 1.0) == first[0]
    assert pmap.orbits == 2


def test_vdp_fixed_point_tends_to_averaged_root():
    pmap = reference.ReturnMap()
    gaps = [abs(pmap.fixed_point(workloads.VDP, eps, 0.9, 1.4) - workloads.VDP_ROOT)
            for eps in (0.02, 0.01, 0.005)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.6 * gaps[1] and gaps[2] < 2e-3


def test_brackets_fixed_point():
    pmap = reference.ReturnMap()
    r = pmap.fixed_point(workloads.VDP, 0.01, 0.9, 1.4)
    assert pmap.brackets_fixed_point(workloads.VDP, 0.01, r, 1e-7)
    assert not pmap.brackets_fixed_point(workloads.VDP, 0.01, 1.05 * r, 1e-3)


def test_beta_integrals_match_quadrature():
    obj = spec([hfield("5/4", f=[term(0.7, "15/16", "5/16", True, False),
                                 term(-0.4, "5/4", 0, False, False)],
                       g=[term(1.1, "5/16", "15/16", False, True)]),
                hfield(1, f=[term(2.0, 1, 0, True, False)],
                       g=[term(-0.5, 0, 1, False, True)])], [1.0, 1.0])
    parsed = reference.Spec(dict(obj, b=[1.0, 0.0]))

    def radial(theta):
        c, s = math.cos(theta), math.sin(theta)
        p, q = parsed.perturbation(c, s)
        return p * c + q * s

    bounds = [k * math.pi / 2 for k in range(5)]
    numeric = sum(quad(radial, a, b, epsabs=1e-13, epsrel=1e-13)[0]
                  for a, b in zip(bounds, bounds[1:]))
    closed = reference.angular_integrals(obj)
    assert closed[0] == pytest.approx(numeric, rel=1e-10)
    assert closed[1] == pytest.approx(1.5 * math.pi, rel=1e-14)


def test_vdp_averaged_root_has_zero_residual():
    assert reference.averaged_residual(workloads.VDP, workloads.VDP_ROOT) < 1e-15
    assert reference.averaged_residual(workloads.VDP, 1.0) > 0.1


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children_and_light_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    outer = rec.start("outer")
    inner = rec.start("inner")
    rec.end(inner)
    rec.light("hot", 0.5)
    rec.end(outer)
    spans = rec.to_json()["spans"]
    assert spans[1][3] == 0 and spans[0][3] is None
    assert tracing.self_times(spans) == [7.5, 2.0]
    assert rec.light_calls["hot"] == 1


def test_nested_spans_synthesis_then_root_finding():
    import cycleavg.roots as roots

    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        rec.job = 7
        roots.synthesize_coefficients([0.5, 1.0, 2.0], [1.0, 3.0])
    finally:
        restore()
    spans = rec.to_json()["spans"]
    names = [s[0] for s in spans]
    assert names == ["roots.synthesize_coefficients", "roots.positive_roots"]
    parent, child = spans
    assert child[3] == 0 and child[4] == parent[4] == 7
    assert parent[1] <= child[1] <= child[2] <= parent[2]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx((parent[2] - parent[1]) - (child[2] - child[1]))
    assert roots.synthesize_coefficients.__module__ == "cycleavg.roots"
    assert not hasattr(roots.positive_roots, "__wrapped__")


def test_span_records_typed_error():
    import cycleavg.roots as roots
    from cycleavg.errors import SynthesisError

    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        with pytest.raises(SynthesisError):
            roots.synthesize_coefficients([0.0, 1.0], [1.0], cond_limit=0.5)
    finally:
        restore()
    attrs = rec.to_json()["spans"][0][5]
    assert attrs == {"error": "CycleAvgError", "exc": "SynthesisError"}


# ---------------------------------------------------------------------------
# percentiles, logging, workloads
# ---------------------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.samples_beyond(100, 90) == 10
    assert tracing.tail_defined(100, 90)
    assert not tracing.tail_defined(99, 90)
    assert tracing.tail_defined(1000, 99) and not tracing.tail_defined(999, 99)
    assert tracing.percentile(range(1, 101), 90) == 90
    assert tracing.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_log_counter_keeps_warnings_off_stderr(capsys):
    handler = tracing.attach_log_counter("bench.test.flow")
    log = logging.getLogger("bench.test.flow")
    log.warning("scan cell at r0=%g failed with status %d", 1.0, 2)
    log.info("not counted")
    assert handler.count == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        jobs, probe = workloads.build(workload, seed, str(d))
        files = {p.name: p.read_text() for p in sorted(d.iterdir())}
        argvs = [[a.replace(str(d), "") for a in j.argv] for j in jobs + probe]
        return argvs, files

    assert inputs(3, "a") == inputs(3, "b")
    if workload != "classify":
        assert inputs(3, "c") != inputs(4, "d")


def test_averaging_specs_have_nonzero_integrals(tmp_path):
    jobs, _ = workloads.build("averaging", 11, str(tmp_path))
    for job in jobs:
        with open(job.argv[2], encoding="utf-8") as fh:
            obj = json.load(fh)
        assert len(job.expect["targets"]) == len(obj["fields"]) - 1
        assert min(abs(v) for v in reference.angular_integrals(obj)) > 0.1


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    rec = [0, 0.5, [0], ["{}"], [""], 0.004]
    plain = {"records": [rec], "maxrss_kb": 40000, "wall_s": 0.6}
    traced = dict(plain, cells_skipped=0,
                  trace={"spans": [], "light_calls": {}, "light_s": {}})

    class NoSamples:
        sample_errors = []

    e2e = run.end_to_end(plain, [0.3])
    layers = run.per_layer(plain, traced, [], NoSamples())
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in layers.items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e["job_s.p50"]["value"] == pytest.approx(0.5 * run.CAL_REF_S / 0.004)


def test_escaping_orbit_maps_to_nan_without_spoiling_its_stack():
    pmap = reference.ReturnMap()
    obj = linear_spec(1.0)
    good, bad = pmap.many([(obj, 0.01, 1.0), (obj, 2.0, 9000.0)])
    assert good == pytest.approx(math.exp(2.0 * math.pi * 0.01), rel=1e-12)
    assert math.isnan(bad)


def test_typed_errors_counted_once_at_the_command_span():
    import run

    err = {"error": "CycleAvgError", "exc": "SynthesisError"}
    spans = [["cli.main", 0.0, 3.0, None, 0, {}, 0.0],
             ["cli.cmd_synthesize", 0.5, 2.5, 0, 0, dict(err), 0.0],
             ["pipeline.retune_b", 1.0, 2.0, 1, 0, dict(err), 0.0],
             ["cli.cmd_synthesize", 4.0, 5.0, None, "probe0", dict(err), 0.0]]
    rec = [0, 3.0, [1], [""], ["error: x"], 0.004]
    plain = {"records": [rec]}
    traced = {"records": [rec], "cells_skipped": 0,
              "trace": {"spans": spans, "light_calls": {}, "light_s": {}}}

    class NoSamples:
        sample_errors = []

    layers = run.per_layer(plain, traced, [], NoSamples())
    assert layers["errors.CycleAvgError.count"]["value"] == 1
    assert layers["roots.refusals"]["value"] == 2
    assert layers["pipeline.retune_b.s"]["value"] == 1.0
    assert layers["cli.main.self_s"]["value"] == 1.0


def test_scaled_probe_inputs_lie_in_their_term_band(tmp_path):
    _, probe = workloads.build("averaging", 5, str(tmp_path))
    scaled = [job for job in probe
              if os.path.basename(job.argv[2]).startswith("avg_scaled")]
    assert len(scaled) == 4
    lo, hi = workloads.SCALED_TERMS
    for job in scaled:
        targets = job.expect["targets"]
        assert len(targets) == len(workloads.SCALED_ALPHAS) - 1
        assert lo <= workloads.term_scale(workloads.SCALED_ALPHAS, targets) <= hi


def test_worker_stops_mid_pass_at_its_stop_time(tmp_path):
    import run

    jobs, _ = workloads.build("sample", 1, str(tmp_path))
    plan = {"mode": "run", "trace": False, "seconds": 60,
            "warmup": {"argv": workloads.WARMUP["sample"]},
            "jobs": [job.plan() for job in jobs]}
    result = run.run_worker(str(tmp_path), "cut", plan, time.monotonic())
    assert len(result["records"]) == 1 and result["cut_short"]
    assert result["passes"] == 0
