"""Independent reference answers for the benchmark's checks.

Nothing here imports `cycleavg`.  Specs are read from their JSON wire
form and evaluated with this module's own code:

* angular integrals in closed form from Beta moments, one per term and
  quadrant: the integral of |cos|^a |sin|^b over a quarter turn is
  B((a+1)/2, (b+1)/2) / 2;
* the return map by scipy `solve_ivp` (DOP853) on the Cartesian system,
  which shares nothing with the package's polar RK4 path.  Several
  orbits are stacked into one system and each orbit's return to the
  positive x-axis is located on the dense output;
* fixed points of that map by bracketing, with every map value cached
  per (spec, eps, r0).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import beta

#: The package's admissible radius window; an orbit leaving it is refused.
GUARD = (1e-4, 1e4)
RTOL = 1e-13
ATOL = 1e-15

# Quadrants as (sign of cos, sign of sin).
_QUADRANTS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _exp(text) -> float:
    return float(Fraction(text))


class Spec:
    """A perturbation spec parsed from its JSON wire form (ccw only)."""

    def __init__(self, obj: dict):
        if obj["orientation"] != "ccw":
            raise ValueError("reference specs must be ccw")
        self.key = json.dumps(obj, sort_keys=True)
        # (component, coefficient, px, py, sx, sy) per term, with b folded in.
        self.terms = [
            (comp, float(bj) * float(t["c"]), _exp(t["px"]), _exp(t["py"]),
             bool(t["sx"]), bool(t["sy"]))
            for bj, f in zip(obj["b"], obj["fields"])
            for comp in ("f", "g") for t in f[comp]
        ]

    def perturbation(self, x, y):
        """(P, Q) = sum_j b_j * field_j at the points (x, y)."""
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        for comp, c, px, py, sx, sy in self.terms:
            v = c * np.abs(x) ** px * np.abs(y) ** py
            if sx:
                v = v * np.sign(x)
            if sy:
                v = v * np.sign(y)
            if comp == "f":
                p = p + v
            else:
                q = q + v
        return p, q


def _term_integral(comp: str, c: float, px: float, py: float,
                   sx: bool, sy: bool) -> float:
    # f terms are weighted by cos, g terms by sin (the radial component).
    a = px + (comp == "f")
    b = py + (comp == "g")
    total = 0
    for sc, ss in _QUADRANTS:
        sign = (sc if sx else 1) * (ss if sy else 1) * (sc if comp == "f" else ss)
        total += sign
    return c * total * 0.5 * beta((a + 1) / 2, (b + 1) / 2)


def angular_integrals(obj: dict) -> list[float]:
    """Integral of each field's radial component over one revolution."""
    return [
        sum(_term_integral(comp, float(t["c"]), _exp(t["px"]), _exp(t["py"]),
                           bool(t["sx"]), bool(t["sy"]))
            for comp in ("f", "g") for t in f[comp])
        for f in obj["fields"]
    ]


def averaged_terms(obj: dict) -> list[tuple[float, float]]:
    """(exponent, coefficient) pairs of h(z) = sum_j b_j I_j / (2 pi) z^alpha_j."""
    integrals = angular_integrals(obj)
    return [(_exp(f["alpha"]), float(bj) * ij / (2.0 * math.pi))
            for f, bj, ij in zip(obj["fields"], obj["b"], integrals)]


def averaged_residual(obj: dict, z: float) -> float:
    """|h(z)| relative to the sum of the magnitudes of its terms."""
    terms = [c * z ** e for e, c in averaged_terms(obj)]
    scale = sum(abs(t) for t in terms)
    return abs(sum(terms)) / scale if scale else math.inf


class ReturnMap:
    """Cached reference return map P(r0) for ccw specs."""

    def __init__(self):
        self._cache: dict[tuple[str, float, float], float] = {}
        self.orbits = 0

    def __call__(self, spec_obj: dict, eps: float, r0: float) -> float:
        return self.many([(spec_obj, eps, r0)])[0]

    def many(self, queries) -> list[float]:
        """P for each (spec_obj, eps, r0); misses are integrated per spec.

        An orbit that leaves GUARD or never returns maps to NaN.
        """
        parsed = {}
        todo: dict[str, list[tuple[float, float]]] = {}
        keys = []
        for spec_obj, eps, r0 in queries:
            spec = Spec(spec_obj)
            parsed.setdefault(spec.key, spec)
            key = (spec.key, float(eps), float(r0))
            keys.append(key)
            if key not in self._cache and key[1:] not in todo.get(spec.key, ()):
                todo.setdefault(spec.key, []).append(key[1:])
        for skey, pairs in todo.items():
            try:
                values = _integrate(parsed[skey], *np.array(pairs).T)
            except ValueError:
                # One bad orbit spoils a stack: integrate alone, NaN if refused.
                values = []
                for eps, r0 in pairs:
                    try:
                        values += _integrate(parsed[skey], np.array([eps]),
                                             np.array([r0]))
                    except ValueError:
                        values.append(math.nan)
            for (eps, r0), r1 in zip(pairs, values):
                self._cache[(skey, eps, r0)] = r1
            self.orbits += len(pairs)
        return [self._cache[k] for k in keys]

    def fixed_point(self, spec_obj: dict, eps: float, lo: float, hi: float,
                    xtol: float = 1e-13) -> float:
        """A fixed point of P bracketed by [lo, hi], by Brent's method."""
        return brentq(lambda r: self(spec_obj, eps, r) - r, lo, hi,
                      xtol=xtol, rtol=4 * np.finfo(float).eps)

    def brackets_fixed_point(self, spec_obj: dict, eps: float, r: float,
                             rel: float) -> bool:
        """True when P(r) - r changes sign across [r (1 - rel), r (1 + rel)]."""
        lo, hi = r * (1.0 - rel), r * (1.0 + rel)
        p_lo, p_hi = self.many([(spec_obj, eps, lo), (spec_obj, eps, hi)])
        return (p_lo - lo) * (p_hi - hi) < 0.0


def _integrate(spec: Spec, eps: np.ndarray, r0: np.ndarray) -> list[float]:
    """First return of each orbit from (r0, 0) to the positive x-axis."""
    n = len(r0)

    def rhs(_t, u):
        x, y = u[:n], u[n:]
        p, q = spec.perturbation(x, y)
        return np.concatenate((-y + eps * p, x + eps * q))

    # The angular speed is 1 + O(eps r^(alpha-1)); a quarter turn of margin
    # covers every orbit the workloads generate, and a miss is an error.
    t_end = 2.5 * math.pi
    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate((r0, np.zeros(n))),
                    method="DOP853", rtol=RTOL, atol=ATOL, dense_output=True)
    if not sol.success:
        raise ValueError(f"reference integration failed: {sol.message}")
    radius = np.hypot(sol.y[:n], sol.y[n:])
    if np.any(radius <= GUARD[0]) or np.any(radius >= GUARD[1]):
        raise ValueError("reference orbit left the guard window")
    out = []
    for i in range(n):
        ys, xs = sol.y[n + i], sol.y[i]
        hits = np.nonzero((sol.t[:-1] > math.pi) & (ys[:-1] < 0.0)
                          & (ys[1:] >= 0.0) & (xs[1:] > 0.0))[0]
        if not len(hits):
            raise ValueError(f"orbit from r0={r0[i]:g} did not return")
        k = hits[0]
        t_star = brentq(lambda t: sol.sol(t)[n + i], sol.t[k], sol.t[k + 1],
                        xtol=1e-15, rtol=4 * np.finfo(float).eps)
        out.append(float(sol.sol(t_star)[i]))
    return out
