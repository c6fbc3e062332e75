"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload sample --seeds 1-10

Runs the benchmark once per seed, one run at a time, for BENCHMARK.json's
run_seconds, and prints each
end-to-end metric's median and its spread: the distance between the
first and third quartiles of the runs (statistics.quantiles, n=4) as a
share of their median, next to a third of the metric's bound from
BENCHMARK.json.  The last line is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({time.monotonic() - t0:.1f} s): " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)

    table = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        table[name] = {"median": med, "spread": (q3 - q1) / med,
                       "bound": bounds[name], "values": vals}
        print(f"{args.workload} {name}: median {med:.6g} spread "
              f"{(q3 - q1) / med:.4f} (a third of the bound: "
              f"{bounds[name] / 3:.4f})")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
