"""Command-line front end.

Every command prints one JSON document: a fixed header (tool name and
version, never timestamps) plus the result payload, serialized with
sorted keys so identical inputs give byte-identical output.

Exit codes: 0 success; 2 malformed input (bad JSON, schema violation,
inconsistent flags, an unreadable --spec: SpecError), an out-of-range or
non-finite numeric argument (ValueError), or a path that cannot be read
or written (OSError: --out, --csv, a --system file); 4 simulated
fixed-point count disagrees with the averaged prediction; 1 any other
computation error.  `simulate`, `pipeline` and `continuation` share one
`--eps` rule (`flow.sweep`), checked before any search.  `--tol` (on
`simulate`, `continuation`, `pipeline` and `repro`) is the fixed-point
residual tolerance and must be finite and positive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter

from . import __version__
from .averaging import average, integrals_to_json
from .errors import CountMismatchError, CycleAvgError, SpecError
from .fields import load_spec, spec_to_json, with_epsilon
from .flow import (
    RESIDUAL_TOL,
    continuation_check,
    continuation_to_json,
    return_map,
    run_to_json,
    sample_to_json,
    simulation_bracket,
    sweep,
)
from .monomials import (
    SCAN_COEFFICIENTS,
    certificate_to_json,
    classify,
    enumerate_systems,
    monomial_from_json,
)
from .pipeline import retune_b, run_pipeline
from .presets import catalog, lienard
from .roots import DEFAULT_BRACKET, positive_roots


def _load_input(args):
    if getattr(args, "preset", None) and getattr(args, "spec", None):
        raise SpecError("give either --preset or --spec, not both")
    if getattr(args, "preset", None):
        makers = catalog()
        if args.preset not in makers:
            raise SpecError(
                f"unknown preset {args.preset!r}; choose from {sorted(makers)}"
            )
        return makers[args.preset]().spec
    if getattr(args, "spec", None):
        return load_spec(args.spec)
    raise SpecError("a system is required: --preset NAME or --spec FILE")


def cmd_integrals(args):
    avg = average(_load_input(args))
    return {"alphas": [f"{a.numerator}/{a.denominator}" for a in avg.spec.alphas],
            **integrals_to_json(avg)}


def cmd_averaged(args):
    avg = average(_load_input(args))
    return {"averaged": dict(vars(avg.h)), "lower_bound": avg.lower_bound}


def cmd_roots(args):
    h = average(_load_input(args)).h
    bracket = tuple(args.bracket) if args.bracket else DEFAULT_BRACKET
    report = positive_roots(h, bracket=bracket)
    return {
        "averaged": dict(vars(h)),
        "descartes_bound": report.descartes_bound,
        "bracket": list(report.bracket),
        "roots": [dict(vars(r)) for r in report.roots],
    }


def cmd_synthesize(args):
    spec = _load_input(args)
    avg, coeffs = retune_b(spec, args.targets)
    return {
        "targets": list(args.targets),
        "synthesized_coefficients": list(coeffs),
        "b": list(avg.spec.b),
        "spec": spec_to_json(avg.spec),
    }


def cmd_simulate(args):
    spec = _load_input(args)
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {args.tol}")
    if args.r0 is not None:
        if args.bracket or (args.eps and len(args.eps) > 1):
            raise SpecError("--r0 samples one radius: it takes no --bracket "
                            "and at most one --eps value")
        eps = args.eps[0] if args.eps else spec.epsilon
        sample = return_map(with_epsilon(spec, eps), args.r0, args.steps)
        return {"sample": sample_to_json(sample)}
    if args.bracket:
        bracket = tuple(args.bracket)
    else:
        report = positive_roots(average(spec).h)
        bracket = simulation_bracket([r.z for r in report.roots])
    runs = sweep(spec, args.eps or [spec.epsilon], bracket, args.tol,
                 steps=args.steps)
    return {"bracket": list(bracket),
            "runs": [run_to_json(eps, certs) for eps, certs in runs]}


def cmd_continuation(args):
    spec = _load_input(args)
    if not args.eps or len(args.eps) < 2:
        raise SpecError("continuation needs --eps with at least two values")
    root = args.root
    if root is None:
        report = positive_roots(average(spec).h)
        if len(report.roots) != 1:
            raise SpecError(
                f"spec predicts {len(report.roots)} roots; pass --root to pick one"
            )
        root = report.roots[0].z
    rows = continuation_check(spec, args.eps, root, bracket=args.bracket,
                              tol=args.tol, steps=args.steps)
    return continuation_to_json(root, rows)


def cmd_classify(args):
    if (args.system is None) == (args.scan is None):
        raise SpecError("give exactly one of --system or --scan")
    if args.system is not None:
        if os.path.exists(args.system):
            with open(args.system, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = args.system
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON system: {exc}") from exc
        cert = classify(monomial_from_json(obj))
        return certificate_to_json(cert)
    # `classify` is looked up per system, so every call goes through the
    # module attribute (a benchmark wraps it there to count the calls).
    counts = Counter(classify(system).property
                     for system in enumerate_systems(args.scan))
    return {"scan": {"max_exp": args.scan,
                     "coefficients": list(SCAN_COEFFICIENTS),
                     "total": sum(counts.values()),
                     "counts": dict(sorted(counts.items()))}}


def _lienard_targets(m: int):
    if m == 4:
        return (2.0 / math.sqrt(3.0),)
    return tuple(0.8 + i * (1.0 / (m - 4)) for i in range(m - 3))


def cmd_repro(args):
    if (args.case == "lienard") != (args.m is not None):
        raise SpecError("repro lienard needs --m, and no other case takes it")
    opts = {"tol": args.tol, "steps": args.steps, "csv_dir": args.csv}
    if args.case == "lienard":
        return run_pipeline(lienard(args.m, epsilon=0.005).spec,
                            targets=_lienard_targets(args.m),
                            eps_values=[0.005], bracket=(0.4, 2.2), **opts)
    preset = catalog()[args.case]()
    eps = {"example1": [preset.spec.epsilon], "example2": [0.01, 0.005],
           "vdp": [0.02, 0.01, 0.005]}[args.case]
    return run_pipeline(preset.spec, targets=preset.expected.get("targets"),
                        eps_values=eps, **opts)


def cmd_pipeline(args):
    return run_pipeline(_load_input(args), targets=args.targets,
                        eps_values=args.eps, bracket=args.bracket,
                        tol=args.tol, steps=args.steps, csv_dir=args.csv)


def _add_input_flags(sub):
    sub.add_argument("--preset", help="named preset from the catalog")
    sub.add_argument("--spec", help="path to a spec JSON file")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use; every caller
    shares it, so none may add to it."""
    parser = argparse.ArgumentParser(
        prog="cycleavg",
        description="First-order averaging toolkit for perturbed planar centers",
    )
    parser.add_argument("--out", help="write the JSON document to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bracket=True, eps=False, steps=False, csv=False):
        if bracket:
            p.add_argument("--bracket", nargs=2, type=float, metavar=("LO", "HI"))
        if eps:
            p.add_argument("--eps", nargs="+", type=float,
                           help="epsilon value(s), strictly decreasing when several")
        if steps:
            p.add_argument("--tol", type=float, default=RESIDUAL_TOL,
                           help="fixed-point residual tolerance")
            p.add_argument("--steps", type=int,
                           help="RK4 steps per revolution (default: chosen from "
                                "the error estimate; N pins it)")
        if csv:
            p.add_argument("--csv", help="directory for return-map scan CSV files")

    p = sub.add_parser("integrals", help="angular integrals and lower bound")
    _add_input_flags(p)

    p = sub.add_parser("averaged", help="averaged function coefficients")
    _add_input_flags(p)

    p = sub.add_parser("roots", help="positive roots of the averaged function")
    _add_input_flags(p)
    common(p)

    p = sub.add_parser("synthesize", help="retune b for prescribed averaged roots")
    _add_input_flags(p)
    p.add_argument("--targets", nargs="+", type=float, required=True)

    p = sub.add_parser("simulate", help="return-map fixed points (or one sample)")
    _add_input_flags(p)
    common(p, eps=True, steps=True)
    p.add_argument("--r0", type=float, help="evaluate the return map at one radius")

    p = sub.add_parser("continuation", help="track a fixed point as eps decreases")
    _add_input_flags(p)
    common(p, eps=True, steps=True)
    p.add_argument("--root", type=float, help="predicted radius to track")

    p = sub.add_parser("classify", help="no-cycle certificate for a monomial system")
    p.add_argument("--system", help="inline JSON or a path to a JSON file")
    p.add_argument("--scan", type=int, help="exhaustively classify exponents 0..N")

    p = sub.add_parser("repro", help="rerun a canonical reproduction case")
    p.add_argument("case", choices=["example1", "example2", "lienard", "vdp"])
    p.add_argument("--m", type=int, help="monomial count for the lienard case")
    common(p, bracket=False, steps=True, csv=True)

    p = sub.add_parser("pipeline", help="integrals -> synthesis -> roots -> simulation")
    _add_input_flags(p)
    common(p, eps=True, steps=True, csv=True)
    p.add_argument("--targets", nargs="+", type=float)

    return parser


def _emit(payload: dict, out_path) -> None:
    document = {
        "header": {"tool": "cycleavg", "version": __version__},
        "result": payload,
    }
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: Exit code per error type, first match wins (see the module docstring).
_EXIT_CODES = ((SpecError, 2), (ValueError, 2), (OSError, 2),
               (CountMismatchError, 4), (CycleAvgError, 1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up by name on every call, so a command replaced on the module
    # (as a tracer wraps them) is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        _emit(command(args), args.out)
    except (CycleAvgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
