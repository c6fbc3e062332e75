"""End-to-end chain: integrals -> synthesis -> roots -> simulation.

The report dictionary is JSON-ready and deterministic: no timestamps,
no environment data, floats straight from the computation.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace

from .averaging import Averaged, average, integrals_to_json
from .errors import CountMismatchError, SpecError
from .fields import PerturbationSpec, spec_to_json, with_b
from .flow import (
    RESIDUAL_TOL,
    continuation_rows,
    continuation_to_json,
    run_to_json,
    simulation_bracket,
    sweep,
)
from .roots import check_bracket, positive_roots, synthesize_coefficients


def retune_b(spec: PerturbationSpec, targets) -> tuple[Averaged, tuple]:
    """Choose b so the averaged function has exactly the target roots.

    Synthesizes coefficients over the exponents whose angular integral is
    nonzero (one more exponent than targets) and maps them back through
    b_j = 2*pi*c_j / I_j; fields with structurally zero integrals keep
    their input b, since no choice of b can make them contribute.
    Returns the retuned spec's averaging stage, reusing the input's
    integrals (they do not depend on b), and the coefficients.
    """
    avg = average(spec)
    exponents = [float(f.alpha) for f, nz in zip(avg.spec.fields, avg.keep)
                 if nz]
    targets = tuple(float(t) for t in targets)
    if len(targets) != avg.lower_bound:
        raise SpecError(
            f"need {avg.lower_bound} targets for {len(exponents)} "
            f"nonzero integrals, got {len(targets)}"
        )
    coeffs = synthesize_coefficients(exponents, targets)
    it = iter(coeffs)
    new_b = [2.0 * math.pi * next(it) / ij if nz else bj
             for bj, ij, nz in zip(avg.spec.b, avg.integrals, avg.keep)]
    return replace(avg, spec=with_b(avg.spec, new_b)), coeffs


def _write_scan_csv(path, grid, r1, status):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r0", "r1", "displacement", "status"])
        for a, b, st in zip(grid, r1, status):
            disp = b - a if st == 0 else math.nan
            writer.writerow([repr(float(a)), repr(float(b)), repr(float(disp)),
                             int(st)])


def run_pipeline(spec: PerturbationSpec, targets=None, eps_values=None,
                 bracket=None, tol: float = RESIDUAL_TOL,
                 steps: int | None = None, csv_dir=None) -> dict:
    """Full report for one spec; raises CountMismatchError when the
    simulated fixed-point count disagrees with the averaged prediction.

    With `targets` the coefficients b are first retuned by synthesis.
    `eps_values` (checked by `flow.sweep`) selects the epsilons to
    simulate; the spec's own epsilon is used when omitted.  `bracket`
    bounds the fixed-point search, defaulting to (0.3 min, 3 max) around
    the predicted roots.  With `csv_dir` each epsilon's settled scan
    is written to scan_NN.csv there.
    """
    if targets is not None:
        avg, synthesized = retune_b(spec, targets)
    else:
        avg, synthesized = average(spec), None
    work, h = avg.spec, avg.h
    report = positive_roots(h)
    predicted = [r.z for r in report.roots]

    sim_bracket = (simulation_bracket(predicted) if bracket is None
                   else check_bracket(bracket))
    scans = []
    searches = sweep(work, [work.epsilon] if eps_values is None else eps_values,
                     sim_bracket, tol, steps,
                     on_scan=None if csv_dir is None else scans.append)

    out = {
        "spec": spec_to_json(work),
        **integrals_to_json(avg),
        "synthesized_coefficients": list(synthesized) if synthesized else None,
        "averaged": dict(vars(h)),
        "descartes_bound": report.descartes_bound,
        "predicted_roots": [dict(vars(r)) for r in report.roots],
        "bracket": list(sim_bracket),
        "runs": [],
        "continuation": [],
    }

    if csv_dir is not None:
        os.makedirs(csv_dir, exist_ok=True)

    runs = []
    for idx, (eps, certs) in enumerate(searches):
        if csv_dir is not None:
            _write_scan_csv(os.path.join(csv_dir, f"scan_{idx:02d}.csv"),
                            *scans[idx])
        out["runs"].append(run_to_json(eps, certs))
        if len(certs) != len(predicted):
            raise CountMismatchError(
                f"averaged function predicts {len(predicted)} cycles "
                f"{[round(z, 6) for z in predicted]} but the simulator found "
                f"{len(certs)} fixed points at eps={eps:g} in "
                f"bracket {sim_bracket}"
            )
        runs.append((eps, certs))

    if len(runs) >= 2:
        out["continuation"] = [continuation_to_json(z, continuation_rows(runs, z))
                               for z in predicted]
    return out
