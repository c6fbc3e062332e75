"""Job runner: one closed-loop client in a fresh interpreter.

    python3 bench/worker.py PLAN.json RESULT.json

Imports `cycleavg` from the checkout's `src/` (never scipy or the
reference code), runs the plan's untimed warm-up job, then runs whole
passes over the job list through `cycleavg.cli.main(argv)` until the
plan's seconds have elapsed, or stops after the current job once the
plan's `stop_at` (a time.monotonic() value) has passed, so that a slow
program still reports.  Each job's stdout is captured and sent
back with its wall time and the time of a fixed calibration kernel run
right before and after it; spans, when traced, are written at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
#: Calibration time aimed for around each job, as a share of the job's time.
CAL_SHARE = 0.05
#: Job time that sizes the calibration taken before the first job.
SETUP_GUESS_S = 0.3


def calibration_kernel() -> float:
    """A fixed ~3 ms mix of scalar float arithmetic and small numpy ops.

    The host's speed drifts by +-25% over tens of seconds; this kernel,
    which shares no code with the package, drifts with it.
    """
    t0 = time.perf_counter()
    acc, x = 0.0, 1.0001
    for _ in range(20000):
        acc += x ** 1.5 * 0.3 + math.sqrt(acc + 1.0) * 1e-3
    a = np.linspace(0.0, 1.0, 200)
    for _ in range(300):
        a = np.sqrt(a * a + 0.5) * 0.9
    return time.perf_counter() - t0


def calibrate(job_s: float) -> float:
    """Median kernel time over enough repeats to take ~CAL_SHARE of a job."""
    reps = min(max(round(CAL_SHARE * job_s / 0.003), 1), 15)
    return statistics.median(calibration_kernel() for _ in range(reps))


#: Exit code recorded for a job that raised an untyped exception.
CRASHED = -1


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # counted as a failed job
            traceback.print_exc()
            rc = CRASHED
    return rc, out.getvalue(), err.getvalue()


def run_job(cli, job):
    """All commands of one job; a chained `roots` reads the retuned spec."""
    rc, out, err = run_cli(cli, job["argv"])
    rcs, outs, errs = [rc], [out], [err]
    chain = job.get("chain")
    if chain is not None and rc == 0:
        with open(chain, "w", encoding="utf-8") as fh:
            json.dump(json.loads(out)["result"]["spec"], fh)
        rc, out, err = run_cli(cli, ["roots", "--spec", chain])
        rcs.append(rc)
        outs.append(out)
        errs.append(err)
    return rcs, outs, errs


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import cycleavg.cli as cli
    import tracing

    skipped = tracing.attach_log_counter("cycleavg.flow")
    run_job(cli, plan["warmup"])
    t_ready = time.monotonic()
    cal = calibrate(SETUP_GUESS_S)
    result = {"t_ready": t_ready, "cal_ready": cal}
    if plan["mode"] == "run":
        recorder = None
        if plan["trace"]:
            recorder = tracing.Recorder()
            tracing.instrument(recorder)
        skipped.count = 0
        jobs = plan["jobs"]
        records = []
        while records == [] or time.monotonic() < plan["stop_at"]:
            idx = len(records) % len(jobs)
            if idx == 0 and records and time.monotonic() - t_ready >= plan["seconds"]:
                break
            if recorder is not None:
                recorder.job = len(records)
            t0 = time.perf_counter()
            rcs, outs, errs = run_job(cli, jobs[idx])
            secs = time.perf_counter() - t0
            cal_after = calibrate(secs)
            records.append([idx, secs, rcs, outs, errs, 0.5 * (cal + cal_after)])
            cal = cal_after
        result.update(
            wall_s=time.monotonic() - t_ready,
            passes=len(records) // len(jobs),
            cut_short=len(records) % len(jobs) != 0,
            records=records,
            cells_skipped=skipped.count,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if recorder is not None:
            # Light totals cover the timed jobs only; the probe adds spans.
            light = {"light_calls": dict(recorder.light_calls),
                     "light_s": dict(recorder.light_s)}
            probe = []
            for idx, job in enumerate(plan.get("probe", [])):
                recorder.job = f"probe{idx}"
                probe.append(list(run_job(cli, job)))
            result["probe"] = probe
            result["trace"] = dict(recorder.to_json(), **light)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
