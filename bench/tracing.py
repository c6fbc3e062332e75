"""Span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's side: `instrument` replaces the
public functions of the `cycleavg` modules with timing wrappers in every
module namespace that holds them, so callers resolve the wrapper without
any change to the package.  Spans stay in memory and are written once,
when the run ends.

Two functions are called far too often for one span each
(`quadrature.gauss_panel`, `monomials.classify`).  They are timed as
*light* spans: only their call count and total time are kept, and their
time is charged to the enclosing span as covered time, so the parent's
self time stays right.
"""

from __future__ import annotations

import functools
import importlib
import logging
import math
import sys
import time
from collections import defaultdict

# Module -> functions wrapped with one span per call.
SPANS = {
    "cli": ("main", "cmd_integrals", "cmd_averaged", "cmd_roots",
            "cmd_synthesize", "cmd_simulate", "cmd_continuation",
            "cmd_classify", "cmd_repro", "cmd_pipeline"),
    "pipeline": ("run_pipeline", "retune_b"),
    "averaging": ("angular_integral",),
    "roots": ("positive_roots", "synthesize_coefficients"),
    "flow": ("scan_return_map", "find_fixed_points", "continuation_check",
             "return_map"),
    "fields": ("load_spec",),
}
# Module -> functions counted and timed in aggregate only.
LIGHT = {
    "quadrature": ("gauss_panel",),
    "monomials": ("classify",),
}
#: The package whose modules are instrumented.
PACKAGE = "cycleavg"
# The exception classes `cli.main` maps to exit codes, in its order.
CLI_ERRORS = ("SpecError", "QuadratureError", "CountMismatchError",
              "CycleAvgError")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs", "covered")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.attrs = {}
        self.covered = 0.0     # time of light spans directly inside this one

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job,
                self.attrs, self.covered]


class Recorder:
    """In-memory spans (name, start, end, parent, job id) plus light totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = None
        self.light_calls: dict[str, int] = defaultdict(int)
        self.light_s: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def start(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), parent, self.job)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    def light(self, name: str, seconds: float) -> None:
        self.light_calls[name] += 1
        self.light_s[name] += seconds
        if self._open:
            self.spans[self._open[-1]].covered += seconds

    def to_json(self) -> dict:
        return {"spans": [s.to_json() for s in self.spans],
                "light_calls": dict(self.light_calls),
                "light_s": dict(self.light_s)}


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    `spans` are serialized records [name, start, end, parent, job,
    attrs, covered]; `covered` is the light-span time inside the span.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - child[i] - rec[6] for i, rec in enumerate(spans)]


# ---------------------------------------------------------------------------
# Attributes recorded from a call's arguments and result
# ---------------------------------------------------------------------------

def _scan_attrs(result) -> dict:
    grid, r1, status = result
    ok = status == 0
    disp = r1 - grid
    cells = ok[:-1] & ok[1:] & (disp[:-1] != 0.0) & ((disp[:-1] > 0) != (disp[1:] > 0))
    return {"radii": int(len(grid)), "guard": int((status == 2).sum()),
            "speed": int((status == 1).sum()), "cells": int(cells.sum())}


def _search_key(args, kwargs) -> str:
    spec, bracket = args[0], args[1]
    rest = tuple(args[2:]) + tuple(sorted(kwargs.items()))
    return repr((hash(spec), tuple(float(v) for v in bracket), rest))


def _error_class(exc) -> str:
    names = {cls.__name__ for cls in type(exc).__mro__}
    return next((n for n in CLI_ERRORS if n in names), type(exc).__name__)


BEFORE = {
    "flow.find_fixed_points": lambda a, k: {"key": _search_key(a, k)},
    "averaging.angular_integral": lambda a, k: {"field": repr(hash(a[0]))},
}
AFTER = {
    "flow.scan_return_map": _scan_attrs,
    "flow.find_fixed_points": lambda r: {"certificates": len(r)},
}


def _span_wrapper(recorder: Recorder, name: str, fn):
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.start(name)
        if before is not None:
            span.attrs.update(before(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs["error"] = _error_class(exc)
            span.attrs["exc"] = type(exc).__name__
            raise
        finally:
            recorder.end(span)
        if after is not None:
            span.attrs.update(after(result))
        return result

    return wrapper


def _light_wrapper(recorder: Recorder, name: str, fn):
    clock = recorder.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.light(name, clock() - t0)

    return wrapper


def instrument(recorder: Recorder):
    """Wrap the listed functions in every loaded PACKAGE module.

    Returns a callable that puts the original functions back.
    """
    originals = {}
    for table, make in ((SPANS, _span_wrapper), (LIGHT, _light_wrapper)):
        for mod, names in table.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, make(recorder, f"{mod}.{fname}", fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE
                                  or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


class LogCounter(logging.Handler):
    """Counts warnings from a logger and keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def attach_log_counter(logger_name: str) -> LogCounter:
    handler = LogCounter()
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    logger.propagate = False
    return handler


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th one."""
    return n - max(math.ceil(p / 100.0 * n), 1)


#: Samples that must lie beyond a reported tail percentile.
TAIL_MINIMUM = 10


def tail_defined(n: int, p: float) -> bool:
    """A p-th percentile is reported only with TAIL_MINIMUM samples beyond it."""
    return samples_beyond(n, p) >= TAIL_MINIMUM
