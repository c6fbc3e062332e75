"""Answer checks: each job's stdout against the reference.

`Checker.check` returns None for a correct answer or a one-line reason.
The caller gives identical outputs of a job one verdict, so the
reference runs once per distinct job, never once per pass.
"""

from __future__ import annotations

import json

import reference

#: A predicted root or a synthesized target must match to this relative gap.
ROOT_RTOL = 1e-8
#: |h(z)| / sum |terms| at a predicted root, with reference integrals.
H_RESIDUAL = 1e-8
#: Fixed points must be bracketed by the reference map within this share.
#: The map's RK4 error divided by |P' - 1| (~0.02 at these eps) sets the
#: program's accuracy: example2's cube root gives errors up to ~7e-8.
FIXED_POINT_RTOL = 1e-6
#: A single revolution must match the reference to this share of r0.  With
#: a signed cube root RK4 at 4096 steps is off by up to ~1e-8 (its observed
#: order is below four); whether `error_estimate` covers the true error is
#: measured separately as flow.return_map.estimate_covers.
SAMPLE_RTOL = 1e-7


def _result(text: str) -> dict:
    return json.loads(text)["result"]


def _readable(outs) -> bool:
    try:
        return all(isinstance(_result(o), dict) for o in outs)
    except (ValueError, KeyError, TypeError):
        return False


def _roots_match(found, expected) -> str | None:
    if len(found) != len(expected):
        return f"{len(found)} roots, expected {len(expected)}"
    for z, t in zip(sorted(found), sorted(expected)):
        if abs(z - t) > ROOT_RTOL * t:
            return f"root {z!r} differs from {t!r}"
    return None


class Checker:
    def __init__(self):
        self.pmap = reference.ReturnMap()
        self.sample_errors: list[tuple[float, float]] = []   # (|err|, estimate)

    def prefetch(self, workload: str, jobs, outputs) -> None:
        """Integrate every reference orbit the checks will need, stacked.

        Outputs the checks will refuse anyway are skipped here.
        """
        queries = []
        for job, outs in zip(jobs, outputs):
            if workload == "sample":
                queries.append((job.expect["spec"], job.expect["eps"],
                                job.expect["r0"]))
            elif workload == "pipeline" and outs is not None and _readable(outs):
                res = _result(outs[0])
                try:
                    queries += [(res["spec"], run["epsilon"],
                                 fp["r_star"] * (1.0 + side * FIXED_POINT_RTOL))
                                for run in res["runs"]
                                for fp in run["fixed_points"] for side in (-1, 1)]
                except (KeyError, TypeError):
                    continue
        if queries:
            self.pmap.many(queries)

    def check(self, workload: str, job, rcs, outs) -> str | None:
        if any(rc != 0 for rc in rcs):
            return f"exit codes {rcs}"
        if not _readable(outs):
            return "stdout is not a cycleavg JSON document"
        try:
            return getattr(self, f"_check_{workload}")(job, [_result(o) for o in outs])
        except (KeyError, IndexError, TypeError) as exc:
            return f"result lacks an expected field: {exc!r}"

    def _check_pipeline(self, job, res) -> str | None:
        res = res[0]
        predicted = [r["z"] for r in res["predicted_roots"]]
        bad = _roots_match(predicted, job.expect["roots"])
        if bad:
            return f"predicted {bad}"
        for z in predicted:
            if reference.averaged_residual(res["spec"], z) > H_RESIDUAL:
                return f"reference h does not vanish at predicted root {z!r}"
        eps = [run["epsilon"] for run in res["runs"]]
        if eps != [float(e) for e in job.expect["eps"]]:
            return f"ran eps {eps}, asked for {job.expect['eps']}"
        found = set()
        for run in res["runs"]:
            fps = run["fixed_points"]
            if len(fps) != len(predicted):
                return f"{len(fps)} fixed points at eps={run['epsilon']}"
            for fp in fps:
                if not self.pmap.brackets_fixed_point(
                        res["spec"], run["epsilon"], fp["r_star"], FIXED_POINT_RTOL):
                    return (f"reference map has no fixed point within "
                            f"{FIXED_POINT_RTOL:g} of {fp['r_star']!r}")
                found.add((run["epsilon"], fp["r_star"]))
        for cont in res["continuation"]:
            for row in cont["rows"]:
                if (row["epsilon"], row["r_star"]) not in found:
                    return f"continuation row {row} is not a found fixed point"
        return None

    def _check_averaging(self, job, res) -> str | None:
        synth, roots = res
        targets = job.expect["targets"]
        bad = _roots_match([r["z"] for r in roots["roots"]], targets)
        if bad:
            return bad
        for t in targets:
            if reference.averaged_residual(synth["spec"], t) > H_RESIDUAL:
                return f"reference h does not vanish at target {t!r}"
        return None

    def _check_sample(self, job, res) -> str | None:
        sample = res[0]["sample"]
        exp = job.expect
        ref = self.pmap(exp["spec"], exp["eps"], exp["r0"])
        err = abs(sample["r1"] - ref)
        self.sample_errors.append((err, sample["error_estimate"]))
        if not err <= SAMPLE_RTOL * max(exp["r0"], 1.0):
            return f"r1 {sample['r1']!r} vs reference {ref!r}"
        return None

    def _check_classify(self, job, res) -> str | None:
        scan = res[0]["scan"]
        if scan["total"] != sum(job.expect["counts"].values()):
            return f"scanned {scan['total']} systems"
        if scan["counts"] != job.expect["counts"]:
            return f"counts {scan['counts']}"
        return None
