"""Cycle-free certification of sparse monomial systems.

Systems (dx/dt, dy/dt) = (a x^p y^q, b x^i y^j + c x^k y^l) never admit
limit cycles; the proof walks a finite case tree after stripping common
monomial factors (which only deletes orbits on the axes).  Each branch
cites one of six obstructions:

    P1  no critical point inside any periodic orbit candidate
    P2  an invariant line through every relevant critical point
    P3  one equation is an autonomous scalar equation
    P4  a first integral (no isolated periodic orbits)
    P5  single-signed divergence off a measure-zero set
    P6  reversibility with respect to an axis mirror

The classifier re-verifies every branch precondition on the concrete
exponents and coefficient signs and records them in the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .errors import ClassifierError, SpecError
from .fields import (
    Fraction,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    _finite_float,
    swap_orientation,
)


def _nonneg_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a non-negative integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SpecError(f"{name} must be a non-negative integer, got {value!r}")
        value = int(value)
    if value < 0:
        raise SpecError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class MonomialSystem:
    """(dx/dt, dy/dt) = (a x^p y^q, b x^i y^j + c x^k y^l).

    The constructor is the one place a system is validated: exponents
    must be non-negative integers and coefficients finite ints or floats,
    else `SpecError`.  Bools and numeric strings are refused for both.
    """

    a: float
    p: int
    q: int
    b: float
    i: int
    j: int
    c: float
    k: int
    l: int

    def __post_init__(self):
        for name in ("p", "q", "i", "j", "k", "l"):
            object.__setattr__(self, name, _nonneg_int(getattr(self, name), name))
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name))


class Check(NamedTuple):
    name: str
    ok: bool


@dataclass(frozen=True)
class NoCycleCertificate:
    property: str
    case_label: str
    reduction_trace: tuple[str, ...]
    precondition_checks: tuple[Check, ...]


def _cert(prop, label, trace, checks):
    bad = [ch.name for ch in checks if not ch.ok]
    if bad:
        raise ClassifierError(f"branch {label} cited with failing checks {bad}")
    return NoCycleCertificate(prop, label, tuple(trace), tuple(checks))


def _classify_single_monomial(a, p, q, b, i, j, trace):
    """dy/dt has a single monomial b x^i y^j (b != 0, a != 0)."""
    if p == 0 and j == 0:
        return _cert("P4", "bc=0-integrable", trace, [
            Check("dx/dt involves only y", p == 0),
            Check("dy/dt involves only x", j == 0),
            Check("separable polynomial first integral", p == 0 and j == 0),
        ])
    if q == 0:
        return _cert("P3", "bc=0-separable", trace, [
            Check("dx/dt involves only x", q == 0),
        ])
    if i == 0:
        return _cert("P3", "bc=0-separable", trace, [
            Check("dy/dt involves only y", i == 0),
        ])
    # q >= 1 and i >= 1 here, and not both p and j vanish, so at least one
    # axis is a line of critical points, is invariant, and catches every
    # critical point an orbit could encircle.
    x_line = p >= 1 and i >= 1
    y_line = q >= 1 and j >= 1
    return _cert("P2", "bc=0-line", trace, [
        Check("critical set confined to the axes", q >= 1),
        Check("some axis is an invariant critical line", x_line or y_line),
        Check("critical points on x=0 covered by an invariant line",
              x_line or (p == 0 and y_line)),
        Check("critical points on y=0 covered by an invariant line",
              y_line or (j == 0 and x_line)),
    ])


def _classify_two_monomials(a, p, q, b, i, j, c, k, l, trace):
    """Reduced system with abc != 0, a > 0, i <= k before relabeling."""
    if i >= 1:
        # First reduced form (p = 0): dx/dt = a y^q.
        if p != 0:
            raise ClassifierError("first reduced form expects p = 0")
        if q == 0:
            return _cert("P1", "(i)", trace, [
                Check("dx/dt = a is never zero", a != 0 and p == 0 and q == 0),
            ])
        if j > 0 and l > 0:
            raise ClassifierError("y-reduction left no y-free monomial in dy/dt")
        if j > 0:
            # Put the y-free monomial first; its x-power stays >= 1.
            b, i, j, c, k, l = c, k, l, b, i, j
            trace = trace + ("swap dy/dt monomials",)
        # Case shape: (a y^q, b x^i + c x^k y^l), q >= 1, i >= 1, j = 0.
        if l == 0:
            return _cert("P4", "(ii)-integrable", trace, [
                Check("dx/dt involves only y", p == 0),
                Check("dy/dt involves only x", j == 0 and l == 0),
            ])
        unique = Check("origin is the only critical point",
                       q >= 1 and i >= 1 and l >= 1)
        if q % 2 == 0 or i % 2 == 0 or (a > 0) == (b > 0):
            return _cert("P1", "(ii)-parity", trace, [
                unique,
                Check("no-encircling-orbit: axis sign parity blocks rotation",
                      q % 2 == 0 or i % 2 == 0 or (a > 0) == (b > 0)),
            ])
        if l % 2 == 0:
            return _cert("P6", "(ii)-reversible", trace, [
                unique,
                Check("dx/dt odd in y", q % 2 == 1),
                Check("dy/dt even in y", j == 0 and l % 2 == 0),
                Check("mirror (x,-y,-t) preserves the system", True),
            ])
        if k % 2 == 1:
            return _cert("P6", "(ii)-reversible", trace, [
                unique,
                Check("dx/dt even in x", p == 0),
                Check("dy/dt odd in x", i % 2 == 1 and k % 2 == 1),
                Check("mirror (-x,y,-t) preserves the system", True),
            ])
        return _cert("P5", "(ii)-divergence", trace, [
            unique,
            Check("div-x-power-even", k % 2 == 0),
            Check("div-y-power-even", (l - 1) % 2 == 0),
            Check(f"div = c*l*x^{k}*y^{l - 1} single-signed off the axes",
                  k % 2 == 0 and (l - 1) % 2 == 0 and c != 0 and l >= 1),
        ])

    # Second reduced form (i = 0): (a x^p y^q, b y^j + c x^k y^l).
    if q == 0:
        return _cert("P3", "(iii)", trace, [
            Check("dx/dt involves only x", q == 0),
        ])
    if j == 0:
        # Case (iv): (a x^p y^q, b + c x^k y^l), q >= 1.
        if k == 0:
            return _cert("P3", "(iv)-separable", trace, [
                Check("dy/dt involves only y", j == 0 and k == 0),
            ])
        if l == 0:
            if p == 0:
                return _cert("P4", "(iv)-integrable", trace, [
                    Check("dx/dt involves only y", p == 0),
                    Check("dy/dt involves only x", j == 0 and l == 0),
                ])
            return _cert("P4", "(iv)-line-integrable", trace, [
                Check("x=0 is invariant", p >= 1),
                Check("variables separate off the line", j == 0 and l == 0),
            ])
        return _cert("P1", "(iv)-nocrit", trace, [
            Check("dx/dt vanishes only on the axes", q >= 1),
            Check("dy/dt = b != 0 on x=0", b != 0 and k >= 1),
            Check("dy/dt = b != 0 on y=0", b != 0 and l >= 1),
        ])
    if l == 0:
        # Case (v): (a x^p y^q, b y^j + c x^k), q >= 1, j >= 1.
        if k == 0:
            return _cert("P3", "(v)-separable", trace, [
                Check("dy/dt involves only y", l == 0 and k == 0),
            ])
        if p == 0:
            # Same shape as case (ii) with the y-free monomial c x^k and
            # the y-carrying monomial b y^j (x-power zero).
            unique = Check("origin is the only critical point",
                           q >= 1 and k >= 1 and j >= 1)
            if q % 2 == 0 or k % 2 == 0 or (a > 0) == (c > 0):
                return _cert("P1", "(v)-parity", trace, [
                    unique,
                    Check("no-encircling-orbit: axis sign parity blocks rotation",
                          q % 2 == 0 or k % 2 == 0 or (a > 0) == (c > 0)),
                ])
            if j % 2 == 0:
                return _cert("P6", "(v)-reversible", trace, [
                    unique,
                    Check("dx/dt odd in y", q % 2 == 1),
                    Check("dy/dt even in y", j % 2 == 0),
                    Check("mirror (x,-y,-t) preserves the system", True),
                ])
            return _cert("P5", "(v)-divergence", trace, [
                unique,
                Check("div-x-power-even", True),
                Check("div-y-power-even", (j - 1) % 2 == 0),
                Check(f"div = b*j*y^{j - 1} single-signed off the axes",
                      (j - 1) % 2 == 0 and b != 0 and j >= 1),
            ])
        return _cert("P2", "(v)-line", trace, [
            Check("x=0 is invariant", p >= 1),
            Check("origin is the only critical point",
                  q >= 1 and j >= 1 and k >= 1),
        ])
    raise ClassifierError("y-reduction left no y-free monomial in dy/dt")


def classify(sys: MonomialSystem) -> NoCycleCertificate:
    """Certify the system cycle-free, citing one obstruction P1..P6.

    Every branch records its precondition checks; a failing check is an
    internal error, never a silently weaker certificate.
    """
    trace: tuple[str, ...] = ()
    if sys.a == 0.0:
        return _cert("P3", "a=0", trace, [
            Check("dx/dt is identically zero", sys.a == 0.0),
        ])
    a, p, q = sys.a, sys.p, sys.q
    b, i, j = sys.b, sys.i, sys.j
    c, k, l = sys.c, sys.k, sys.l
    if b != 0 and c != 0 and (i, j) == (k, l):
        b, c = b + c, 0.0
        trace = trace + ("merge duplicate dy/dt monomials",)
    if b == 0.0 and c == 0.0:
        return _cert("P3", "bc=0-trivial", trace, [
            Check("dy/dt is identically zero", b == 0.0 and c == 0.0),
        ])
    if b == 0.0:
        b, i, j, c, k, l = c, k, l, b, i, j
        trace = trace + ("swap dy/dt monomials",)
    if c == 0.0:
        return _classify_single_monomial(a, p, q, b, i, j, trace)

    if a < 0:
        a, b, c = -a, -b, -c
        trace = trace + ("time reversal t -> -t",)
    # Strip the common factor x^s y^u.  a, b and c are all nonzero here,
    # so the minima see every monomial; dividing by x^s y^u rescales time
    # off the axes and cannot create or destroy periodic orbits there.
    s, u = min(p, i, k), min(q, j, l)
    if s > 0:
        trace = trace + (f"x^{s}",)
    if u > 0:
        trace = trace + (f"y^{u}",)
    p, i, k = p - s, i - s, k - s
    q, j, l = q - u, j - u, l - u
    if i > k:
        b, i, j, c, k, l = c, k, l, b, i, j
        trace = trace + ("order dy/dt monomials by x-power",)
    return _classify_two_monomials(a, p, q, b, i, j, c, k, l, trace)


SCAN_COEFFICIENTS = (-1.0, 0.0, 1.0)


def enumerate_systems(max_exp: int = 3):
    """All systems with exponents 0..max_exp and coefficients in SCAN_COEFFICIENTS."""
    exps = range(max_exp + 1)
    for a, b, c in product(SCAN_COEFFICIENTS, repeat=3):
        for p, q, i, j, k, l in product(exps, repeat=6):
            yield MonomialSystem(a, p, q, b, i, j, c, k, l)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def monomial_to_json(sys: MonomialSystem) -> dict:
    return {"a": sys.a, "p": sys.p, "q": sys.q,
            "b": sys.b, "i": sys.i, "j": sys.j,
            "c": sys.c, "k": sys.k, "l": sys.l}


def monomial_from_json(obj) -> MonomialSystem:
    if not isinstance(obj, dict):
        raise SpecError(f"monomial system must be an object, got {type(obj).__name__}")
    names = ("a", "p", "q", "b", "i", "j", "c", "k", "l")
    missing = set(names) - set(obj)
    if missing:
        raise SpecError(f"monomial system missing keys {sorted(missing)}")
    return MonomialSystem(*(obj[name] for name in names))


def certificate_to_json(cert: NoCycleCertificate) -> dict:
    return {
        "property": cert.property,
        "case": cert.case_label,
        "trace": list(cert.reduction_trace),
        "checks": [{"name": ch.name, "ok": ch.ok} for ch in cert.precondition_checks],
    }


# ---------------------------------------------------------------------------
# Families with many monomials
# ---------------------------------------------------------------------------

def lienard_family(m: int, coefficients, epsilon: float = 0.01) -> PerturbationSpec:
    """Degree-(2m-5) odd-damping oscillator as a ccw perturbation spec.

    The cw system (dx/dt, dy/dt) = (y, -x + sum_d coefficients[d] *
    eps * y^(2d+1)) uses m monomials in total; the diagonal reflection
    normalizes it to ccw form, whose averaged exponents are
    1, 3, ..., 2m-5 with strictly positive angular integrals.  So m - 3
    simple averaged roots are achievable, one fewer than the number of
    odd damping terms.
    """
    if not isinstance(m, int) or m < 4:
        raise ValueError(f"family needs m >= 4 monomials, got {m}")
    coeffs = tuple(float(v) for v in coefficients)
    if len(coeffs) != m - 2:
        raise ValueError(f"need m - 2 = {m - 2} damping coefficients, got {len(coeffs)}")
    fields = tuple(
        HomogeneousField(
            f_terms=(),
            g_terms=(SignedPowerTerm(1.0, Fraction(0), Fraction(2 * d + 1),
                                     False, True),),
            alpha=Fraction(2 * d + 1),
        )
        for d in range(m - 2)
    )
    cw_spec = PerturbationSpec(fields=fields, b=coeffs, epsilon=float(epsilon),
                               orientation="cw")
    return swap_orientation(cw_spec)
