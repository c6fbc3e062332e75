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

`classify` runs in two stages.  `normal_form` is the one reduction: it
merges equal dy/dt monomials, puts a nonzero one first, reverses time
for a < 0, strips x^s y^u, orders by x-power (then, in the first reduced
form, puts the y-free monomial first), and keeps only the coefficients'
signs.  The branch dispatch is a pure function of that form, so it runs
once per distinct form; its certificate, with an empty trace, is kept in
a module-level table and gets the reduction's trace on each call.
Every branch re-verifies its preconditions on the form's exponents and
signs and records them in the certificate; a failing check raises
`ClassifierError` and is never cached.  Case (ii) and case (v) with
p = 0 are one system up to the order of the dy/dt monomials, so they
share one rotation analysis (`_rotation`); each keeps its own label.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from typing import NamedTuple

from .errors import ClassifierError, SpecError
from .fields import (
    Fraction,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    _finite_float,
    _members,
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


class MonomialSystem(namedtuple("MonomialSystem", "a p q b i j c k l")):
    """(dx/dt, dy/dt) = (a x^p y^q, b x^i y^j + c x^k y^l), an immutable tuple.

    The constructor (and `_replace`) is the one public place a system is
    validated: exponents must be non-negative integers and coefficients
    finite ints or floats, else `SpecError`.  Bools and numeric strings
    are refused for both.  `_make` skips the checks; it serves
    `enumerate_systems`, which validates its whole domain once.
    """

    __slots__ = ()

    def __new__(cls, a, p, q, b, i, j, c, k, l):
        return super().__new__(
            cls, _finite_float(a, "a"), _nonneg_int(p, "p"), _nonneg_int(q, "q"),
            _finite_float(b, "b"), _nonneg_int(i, "i"), _nonneg_int(j, "j"),
            _finite_float(c, "c"), _nonneg_int(k, "k"), _nonneg_int(l, "l"))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class Check(NamedTuple):
    name: str
    ok: bool


class NoCycleCertificate(NamedTuple):
    property: str
    case_label: str
    reduction_trace: tuple[str, ...]
    precondition_checks: tuple[Check, ...]


def _cert(prop, label, checks):
    bad = [ch.name for ch in checks if not ch.ok]
    if bad:
        raise ClassifierError(f"branch {label} cited with failing checks {bad}")
    return NoCycleCertificate(prop, label, (), tuple(checks))


def _classify_single_monomial(a, p, q, b, i, j):
    """dy/dt has a single monomial b x^i y^j (b != 0, a != 0)."""
    if p == 0 and j == 0:
        return _cert("P4", "bc=0-integrable", [
            Check("dx/dt involves only y", p == 0),
            Check("dy/dt involves only x", j == 0),
            Check("separable polynomial first integral", p == 0 and j == 0),
        ])
    if q == 0:
        return _cert("P3", "bc=0-separable", [
            Check("dx/dt involves only x", q == 0),
        ])
    if i == 0:
        return _cert("P3", "bc=0-separable", [
            Check("dy/dt involves only y", i == 0),
        ])
    # q >= 1 and i >= 1 here, and not both p and j vanish, so at least one
    # axis is a line of critical points, is invariant, and catches every
    # critical point an orbit could encircle.
    x_line = p >= 1 and i >= 1
    y_line = q >= 1 and j >= 1
    return _cert("P2", "bc=0-line", [
        Check("critical set confined to the axes", q >= 1),
        Check("some axis is an invariant critical line", x_line or y_line),
        Check("critical points on x=0 covered by an invariant line",
              x_line or (p == 0 and y_line)),
        Check("critical points on y=0 covered by an invariant line",
              y_line or (j == 0 and x_line)),
    ])


def _rotation(case, a, p, q, b, i, j, c, k, l, divergence):
    """(a y^q, b x^i + c x^k y^l) with q, i, l >= 1: the rotation analysis
    of case (ii), and of case (v) with p = 0.  `divergence` is how the
    case writes the divergence c*l*x^k*y^(l-1)."""
    unique = Check("origin is the only critical point",
                   q >= 1 and i >= 1 and l >= 1)
    if q % 2 == 0 or i % 2 == 0 or (a > 0) == (b > 0):
        return _cert("P1", f"{case}-parity", [
            unique,
            Check("no-encircling-orbit: axis sign parity blocks rotation",
                  q % 2 == 0 or i % 2 == 0 or (a > 0) == (b > 0)),
        ])
    if l % 2 == 0:
        return _cert("P6", f"{case}-reversible", [
            unique,
            Check("dx/dt odd in y", q % 2 == 1),
            Check("dy/dt even in y", j == 0 and l % 2 == 0),
            Check("mirror (x,-y,-t) preserves the system", True),
        ])
    if k % 2 == 1:
        return _cert("P6", f"{case}-reversible", [
            unique,
            Check("dx/dt even in x", p == 0),
            Check("dy/dt odd in x", i % 2 == 1 and k % 2 == 1),
            Check("mirror (-x,y,-t) preserves the system", True),
        ])
    return _cert("P5", f"{case}-divergence", [
        unique,
        Check("div-x-power-even", k % 2 == 0),
        Check("div-y-power-even", (l - 1) % 2 == 0),
        Check(f"div = {divergence} single-signed off the axes",
              k % 2 == 0 and (l - 1) % 2 == 0 and c != 0 and l >= 1),
    ])


def _classify_two_monomials(a, p, q, b, i, j, c, k, l):
    """Normal form with abc != 0 and a > 0 (see `normal_form`)."""
    if i >= 1:
        # First reduced form (p = 0): dx/dt = a y^q.
        if p != 0:
            raise ClassifierError("first reduced form expects p = 0")
        if q == 0:
            return _cert("P1", "(i)", [
                Check("dx/dt = a is never zero", a != 0 and p == 0 and q == 0),
            ])
        if j != 0:
            raise ClassifierError("first reduced form expects j = 0")
        # Case shape: (a y^q, b x^i + c x^k y^l), q >= 1, i >= 1, j = 0.
        if l == 0:
            return _cert("P4", "(ii)-integrable", [
                Check("dx/dt involves only y", p == 0),
                Check("dy/dt involves only x", j == 0 and l == 0),
            ])
        return _rotation("(ii)", a, p, q, b, i, j, c, k, l,
                         f"c*l*x^{k}*y^{l - 1}")

    # Second reduced form (i = 0): (a x^p y^q, b y^j + c x^k y^l).
    if q == 0:
        return _cert("P3", "(iii)", [
            Check("dx/dt involves only x", q == 0),
        ])
    if j == 0:
        # Case (iv): (a x^p y^q, b + c x^k y^l), q >= 1.
        if k == 0:
            return _cert("P3", "(iv)-separable", [
                Check("dy/dt involves only y", j == 0 and k == 0),
            ])
        if l == 0:
            if p == 0:
                return _cert("P4", "(iv)-integrable", [
                    Check("dx/dt involves only y", p == 0),
                    Check("dy/dt involves only x", j == 0 and l == 0),
                ])
            return _cert("P4", "(iv)-line-integrable", [
                Check("x=0 is invariant", p >= 1),
                Check("variables separate off the line", j == 0 and l == 0),
            ])
        return _cert("P1", "(iv)-nocrit", [
            Check("dx/dt vanishes only on the axes", q >= 1),
            Check("dy/dt = b != 0 on x=0", b != 0 and k >= 1),
            Check("dy/dt = b != 0 on y=0", b != 0 and l >= 1),
        ])
    if l == 0:
        # Case (v): (a x^p y^q, b y^j + c x^k), q >= 1, j >= 1.
        if k == 0:
            return _cert("P3", "(v)-separable", [
                Check("dy/dt involves only y", l == 0 and k == 0),
            ])
        if p == 0:
            # Case (ii) with the dy/dt monomials swapped, under its own label.
            return _rotation("(v)", a, p, q, c, k, l, b, i, j, f"b*j*y^{j - 1}")
        return _cert("P2", "(v)-line", [
            Check("x=0 is invariant", p >= 1),
            Check("origin is the only critical point",
                  q >= 1 and j >= 1 and k >= 1),
        ])
    raise ClassifierError("y-reduction left no y-free monomial in dy/dt")


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


#: The form of every system with a = 0: nothing past dx/dt = 0 is read.
_ZERO_FORM = (0, 0, 0, 0, 0, 0, 0, 0, 0)


def normal_form(sys: MonomialSystem) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The reduced system the certificate depends on, and the steps taken.

    Returns `(form, trace)`.  `form` is (sign a, p, q, sign b, i, j,
    sign c, k, l) of the reduced system, signs in {-1, 0, 1}, with a zero
    monomial's exponents set to 0; `trace` names the reduction steps in
    the order they ran.  a = 0 ends the reduction at `_ZERO_FORM`.  With
    a single nonzero dy/dt monomial the form keeps the sign of a; with two,
    a > 0 after time reversal, the common factor x^s y^u is stripped and
    i <= k, except in the first reduced form (i >= 1, q >= 1), whose
    y-free dy/dt monomial comes first (j = 0).
    """
    a, p, q, b, i, j, c, k, l = sys
    if a == 0:
        return _ZERO_FORM, ()
    trace = ()
    if b != 0 and c != 0 and i == k and j == l:
        b, c = b + c, 0.0
        trace = ("merge duplicate dy/dt monomials",)
    if b == 0:
        if c == 0:
            return (_sign(a), p, q, 0, 0, 0, 0, 0, 0), trace
        b, i, j, c, k, l = c, k, l, b, i, j
        trace = trace + ("swap dy/dt monomials",)
    if c == 0:
        return (_sign(a), p, q, _sign(b), i, j, 0, 0, 0), trace

    if a < 0:
        b, c = -b, -c
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
    if i >= 1 and q >= 1 and j > 0:
        # First reduced form: put the y-free monomial first (the strip
        # left l = 0); its x-power stays >= 1.
        b, i, j, c, k, l = c, k, l, b, i, j
        trace = trace + ("swap dy/dt monomials",)
    return (1, p, q, _sign(b), i, j, _sign(c), k, l), trace


def _dispatch(form) -> NoCycleCertificate:
    """The certificate of a normal form, with an empty trace."""
    a, p, q, b, i, j, c, k, l = form
    if a == 0:
        return _cert("P3", "a=0", [
            Check("dx/dt is identically zero", a == 0),
        ])
    if b == 0:
        return _cert("P3", "bc=0-trivial", [
            Check("dy/dt is identically zero", b == 0 and c == 0),
        ])
    if c == 0:
        return _classify_single_monomial(a, p, q, b, i, j)
    return _classify_two_monomials(a, p, q, b, i, j, c, k, l)


# Normal form -> its certificate, and each distinct certificate interned
# (a `--scan 3` meets 4,009 forms but 24 certificates).  Both hold pure
# functions of their keys, so a warm table cannot change an answer, and
# both are cleared together at _FORMS_MAX forms, far above any scan.
_FORMS: dict[tuple[int, ...], NoCycleCertificate] = {}
_CERTS: dict[NoCycleCertificate, NoCycleCertificate] = {}
_FORMS_MAX = 1 << 16


def classify(sys: MonomialSystem) -> NoCycleCertificate:
    """Certify the system cycle-free, citing one obstruction P1..P6.

    The branch is decided once per normal form and kept; each call pays
    only for `normal_form`.  Every branch records its precondition
    checks; a failing check is an internal error, never a silently
    weaker certificate.
    """
    form, trace = normal_form(sys)
    cert = _FORMS.get(form)
    if cert is None:
        if len(_FORMS) >= _FORMS_MAX:
            _FORMS.clear()
            _CERTS.clear()
        cert = _dispatch(form)
        cert = _FORMS[form] = _CERTS.setdefault(cert, cert)
    if not trace:
        return cert
    return NoCycleCertificate(cert.property, cert.case_label, trace,
                              cert.precondition_checks)


SCAN_COEFFICIENTS = (-1.0, 0.0, 1.0)


def enumerate_systems(max_exp: int = 3):
    """All systems with exponents 0..max_exp and coefficients in SCAN_COEFFICIENTS.

    They come in lexicographic order of (a, p, q, b, i, j, c, k, l).  The
    domain is validated once, here, and each system is built with
    `MonomialSystem._make`, which skips the per-system checks.
    """
    exps = range(_nonneg_int(max_exp, "max_exp") + 1)
    coefficients = [_finite_float(v, "scan coefficient") for v in SCAN_COEFFICIENTS]
    monomial = (coefficients, exps, exps)
    return map(MonomialSystem._make, product(*monomial * 3))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def monomial_to_json(sys: MonomialSystem) -> dict:
    return sys._asdict()


def monomial_from_json(obj) -> MonomialSystem:
    return MonomialSystem(*_members(obj, "monomial system", MonomialSystem._fields))


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
    coeffs = tuple(coefficients)
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
    cw_spec = PerturbationSpec(fields=fields, b=coeffs, epsilon=epsilon,
                               orientation="cw")
    return swap_orientation(cw_spec)
