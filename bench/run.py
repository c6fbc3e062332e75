"""cycleavg benchmark: seeded CLI workloads, checked answers, per-layer spans.

    python3 bench/run.py --workload pipeline|averaging|sample|classify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client (a worker
process, see worker.py) runs whole passes over a seeded job list through
`cycleavg.cli.main(argv)` until S seconds have passed.  Its answers are
then checked against an independent reference (reference.py, scipy),
which never runs alongside the timed jobs.

--trace 0 reports the end-to-end metrics: job_s.p50, jobs_per_s,
setup_s (median of SETUP_SAMPLES fresh interpreters, each importing
cycleavg and running one warm-up job) and peak_rss_mb.  Times are
host-normalized, because a shared host's speed drifts by +-25% over tens
of seconds: each job time is scaled by CAL_REF_S over the time of a
fixed calibration kernel run next to it (see worker.py), and each set-up
time by REF_START_S over the start of a bare interpreter importing numpy
run just before it.  The raw wall-clock job figures are printed
alongside.

--trace 1 runs the same client twice, plain and with spans around every
layer, and reports the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s.
SETUP_SAMPLES = 10
#: Bare interpreter that normalizes each set-up time, and its start time
#: on the host the baseline was taken on.  Import time tracks it across
#: host states better than it tracks the calibration kernel: under a
#: competing load the kernel-normalized set-up time rose 45%, this ratio
#: fell 10%.
REF_START = [sys.executable, "-c", "import numpy"]
REF_START_S = 0.15
#: Calibration kernel time that defines a host-normalized second: the
#: kernel's time on the unloaded 2-vCPU host the baseline was taken on.
CAL_REF_S = 0.0035
#: Percentile reported as job_s.p90 where it has >= 10 samples beyond it.
TAIL = 90
#: Seconds from the start of a run after which the timed jobs stop, even
#: mid-pass, so that a much slower program is still reported within the
#: 180 s a run may take, with time left for the reference checks.
TIMED_BUDGET_S = 140
#: Time a worker has past its stop time to finish its last job and exit.
WORKER_GRACE_S = 20


def run_worker(workdir: str, name: str, plan: dict, stop_at: float) -> dict:
    """Start a worker on `plan`; returns its result with setup_wall_s added.

    The worker starts no timed job after `stop_at` (time.monotonic()).
    setup_wall_s runs from just before the interpreter starts until the
    worker is ready for its first timed job.
    """
    plan_path = os.path.join(workdir, f"{name}.plan.json")
    result_path = os.path.join(workdir, f"{name}.result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(dict(plan, stop_at=stop_at), fh)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             plan_path, result_path], cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(stop_at - t_spawn, 0.0) + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {name} timed out")
    if rc != 0:
        raise RuntimeError(f"worker {name} exited with {rc}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_wall_s"] = result["t_ready"] - t_spawn
    return result


def setup_sample(workdir: str, name: str, plan: dict, stop_at: float) -> float:
    """One host-normalized set-up time, paired with a bare interpreter."""
    t0 = time.monotonic()
    subprocess.run(REF_START, cwd=ROOT, check=True,
                   timeout=max(stop_at - t0, 0.0) + WORKER_GRACE_S)
    ref = time.monotonic() - t0
    result = run_worker(workdir, name, dict(plan, mode="setup"), stop_at)
    return result["setup_wall_s"] * REF_START_S / ref


def check_records(workload, jobs, records, checker):
    """(failed, wrong, reasons) over every job run; one verdict per output."""
    verdicts = {}
    failed = wrong = 0
    reasons = []
    for idx, _secs, rcs, outs, errs, _cal in records:
        key = (idx, tuple(rcs), tuple(outs))
        if key not in verdicts:
            verdicts[key] = checker.check(workload, jobs[idx], rcs, outs)
        reason = verdicts[key]
        if reason is not None:
            failed += 1
            if all(rc == 0 for rc in rcs):
                wrong += 1
            stderr = "".join(errs).strip().splitlines()
            reasons.append(f"job {idx} {jobs[idx].argv[0]}: {reason}"
                           + (f" ({stderr[-1]})" if stderr else ""))
    return failed, wrong, reasons


def job_times(result: dict) -> list[float]:
    """Host-normalized seconds of each job run."""
    return [rec[1] * CAL_REF_S / rec[5] for rec in result["records"]]


def end_to_end(result: dict, setups: list[float]) -> dict:
    times = job_times(result)
    completed = sum(all(rc == 0 for rc in rec[2]) for rec in result["records"])
    return {
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "jobs_per_s": {"value": completed / sum(times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
    }


def per_layer(plain, traced, probe_jobs, checker) -> dict:
    """Per-layer metrics from the traced run's spans (see BENCHMARK.json)."""
    trace = traced["trace"]
    spans = trace["spans"]
    selfs = tracing.self_times(spans)
    njobs = len(traced["records"])
    by_name: dict[str, list[int]] = {}
    errors = {name: 0 for name in tracing.CLI_ERRORS}
    refusals = 0
    for i, rec in enumerate(spans):
        # Probe jobs (string job ids) feed only roots.refusals.
        if isinstance(rec[4], int):
            by_name.setdefault(rec[0], []).append(i)
        # A typed error passes through every span up to the cli.cmd_* one
        # and stops in cli.main, so it is counted there once.
        if rec[0].startswith("cli.cmd_") and "error" in rec[5]:
            refusals += rec[5]["exc"] in ("SynthesisError", "RootError")
            if isinstance(rec[4], int) and rec[5]["error"] in errors:
                errors[rec[5]["error"]] += 1

    def idx(name):
        return by_name.get(name, [])

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_total(name):
        ids = idx(name)
        return ratio(sum(spans[i][2] - spans[i][1] for i in ids), len(ids))

    def mean_self(name):
        ids = idx(name)
        return ratio(sum(selfs[i] for i in ids), len(ids))

    def attr_sum(name, key):
        return sum(spans[i][5].get(key, 0) for i in idx(name))

    def distinct_per_job(name, key):
        return len({(spans[i][4], spans[i][5][key]) for i in idx(name)})

    searches = len(idx("flow.find_fixed_points"))
    integrals = len(idx("averaging.angular_integral"))
    cells = attr_sum("flow.scan_return_map", "cells")
    certs = attr_sum("flow.find_fixed_points", "certificates")
    classify_calls = trace["light_calls"].get("monomials.classify", 0)
    short = 0
    for job, (rcs, outs, _errs) in zip(probe_jobs, traced.get("probe", [])):
        if all(rc == 0 for rc in rcs):
            found = json.loads(outs[-1])["result"]["roots"]
            short += len(found) < len(job.expect["targets"])
    covers = [err <= est for err, est in checker.sample_errors]
    # A client cut short by the time budget ran only part of the job list,
    # so the overhead compares the jobs both clients ran.
    both = {rec[0] for rec in plain["records"]} & {rec[0] for rec in traced["records"]}

    def common_p50(result):
        return statistics.median(t for t, rec in zip(job_times(result), result["records"])
                                 if rec[0] in both)

    plain_p50, traced_p50 = common_p50(plain), common_p50(traced)

    values = {
        "cli.main.self_s": (mean_self("cli.main"), "s"),
        "cli.cmd_classify.self_s": (mean_self("cli.cmd_classify"), "s"),
        "pipeline.run_pipeline.self_s": (mean_self("pipeline.run_pipeline"), "s"),
        "pipeline.search_reuse": (
            ratio(distinct_per_job("flow.find_fixed_points", "key"), searches), "ratio"),
        "pipeline.retune_b.s": (mean_total("pipeline.retune_b"), "s"),
        "averaging.angular_integral.calls": (ratio(integrals, njobs), "count/job"),
        "averaging.angular_integral.s": (mean_total("averaging.angular_integral"), "s"),
        "averaging.integral_reuse": (
            ratio(distinct_per_job("averaging.angular_integral", "field"), integrals),
            "ratio"),
        "quadrature.panels": (
            ratio(trace["light_calls"].get("quadrature.gauss_panel", 0), integrals),
            "count"),
        "roots.positive_roots.s": (mean_total("roots.positive_roots"), "s"),
        "roots.positive_roots.calls": (
            ratio(len(idx("roots.positive_roots")), njobs), "count/job"),
        "roots.synthesize_coefficients.self_s": (
            mean_self("roots.synthesize_coefficients"), "s"),
        "roots.refusals": (refusals, "count"),
        "roots.short_counts": (short, "count"),
        "flow.scan_return_map.s": (mean_total("flow.scan_return_map"), "s"),
        "flow.scan.radii": (
            ratio(attr_sum("flow.scan_return_map", "radii"), njobs), "count/job"),
        "flow.scan.failed.guard": (
            ratio(attr_sum("flow.scan_return_map", "guard"), njobs), "count/job"),
        "flow.scan.failed.speed": (
            ratio(attr_sum("flow.scan_return_map", "speed"), njobs), "count/job"),
        "flow.cells_skipped": (ratio(traced["cells_skipped"], njobs), "count/job"),
        "flow.find_fixed_points.self_s": (mean_self("flow.find_fixed_points"), "s"),
        "flow.refine_s_per_cell": (
            ratio(sum(selfs[i] for i in idx("flow.find_fixed_points")), cells), "s"),
        "flow.continuation_check.self_s": (
            mean_self("flow.continuation_check"), "s"),
        "flow.sign_change_cells": (ratio(cells, njobs), "count/job"),
        "flow.certificates": (ratio(certs, njobs), "count/job"),
        "flow.cert_yield": (ratio(certs, cells), "ratio"),
        "flow.return_map.s": (mean_total("flow.return_map"), "s"),
        "flow.return_map.estimate_covers": (ratio(sum(covers), len(covers)), "ratio"),
        "monomials.classify.us": (
            1e6 * ratio(trace["light_s"].get("monomials.classify", 0.0),
                        classify_calls), "us"),
        "monomials.classify.calls": (
            ratio(classify_calls, len(idx("cli.cmd_classify"))), "count/job"),
        "fields.load_spec.s": (mean_total("fields.load_spec"), "s"),
        "trace_overhead": (ratio(traced_p50, plain_p50) - 1.0, "ratio"),
    }
    for name, count in errors.items():
        values[f"errors.{name}.count"] = (count, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cycleavg", "cli.py")):
        print(f"error: no cycleavg sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    deadline = time.monotonic() + TIMED_BUDGET_S
    jobs, probe = workloads.build(args.workload, args.seed, workdir)
    plan = {"mode": "run", "trace": False, "seconds": args.seconds,
            "warmup": {"argv": workloads.WARMUP[args.workload]},
            "jobs": [job.plan() for job in jobs]}
    setups = []
    if not args.trace:
        setups = [setup_sample(workdir, f"setup{i}", plan, deadline)
                  for i in range(SETUP_SAMPLES)]
    # A traced run replays the client twice: the plain client gets half
    # of the time left.
    plain = run_worker(workdir, "plain", plan, deadline if not args.trace
                       else 0.5 * (time.monotonic() + deadline))
    traced = None
    if args.trace:
        traced = run_worker(workdir, "traced", dict(
            plan, trace=True, probe=[job.plan() for job in probe]), deadline)

    import checks   # scipy and the reference load only after the timed runs
    checker = checks.Checker()
    failed = wrong = attempted = 0
    reasons = []
    for result in filter(None, (plain, traced)):
        firsts = {}
        for rec in result["records"]:
            firsts.setdefault(rec[0], rec[3])
        checker.prefetch(args.workload, jobs,
                         [firsts.get(i) for i in range(len(jobs))])
        f, w, r = check_records(args.workload, jobs, result["records"], checker)
        failed, wrong, attempted = failed + f, wrong + w, attempted + len(result["records"])
        reasons += r

    if args.trace:
        metrics = per_layer(plain, traced, probe, checker)
        if args.workload == "classify" and \
                metrics["monomials.classify.calls"]["value"] != 110592:
            wrong += 1
            reasons.append("classify was not called once per scanned system")
    else:
        metrics = end_to_end(plain, setups)

    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for result in filter(None, (plain, traced)):
        if result["cut_short"]:
            print(f"cut short: the time budget ({TIMED_BUDGET_S} s) ended "
                  f"mid-pass after {len(result['records'])} jobs")
    times = job_times(plain)
    wall = [rec[1] for rec in plain["records"]]
    print(f"workload={args.workload} seed={args.seed} jobs={len(times)} "
          f"distinct={len(jobs)} passes={plain['passes']} "
          f"wall_s={plain['wall_s']:.3f} fail_frac={failed / attempted:.4f}")
    print(f"wall clock: job p50 {statistics.median(wall):.6f} s, "
          f"{len(wall) / plain['wall_s']:.4f} jobs/s, calibration p50 "
          f"{statistics.median(rec[5] for rec in plain['records']):.6f} s")
    if tracing.tail_defined(len(times), TAIL):
        print(f"job_s.p{TAIL} = {tracing.percentile(times, TAIL):.6f} s "
              f"(n={len(times)})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
