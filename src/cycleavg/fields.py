"""Planar vector fields built from signed power terms.

A signed power term is c * p(x, ax, sx) * p(y, ay, sy) where
p(u, a, signed) = sgn(u)|u|^a when signed, |u|^a otherwise.  With
rational exponents a >= 0 these terms are continuous on the whole
plane, and an ordinary monomial u^n is recovered exactly by taking
signed = (n odd).  A homogeneous field collects such terms for both
components with a common total degree alpha, and a perturbation spec
is a linear center plus a graded list of homogeneous fields scaled by
a small parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import SpecError


def _as_fraction(value) -> Fraction:
    """Coerce an exponent to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"cannot parse exponent {value!r}") from exc
    if isinstance(value, float) and value.is_integer():
        return Fraction(int(value))
    raise SpecError(f"exponent must be an exact rational, got {value!r}")


def _finite_float(value, name: str) -> float:
    """A finite int or float as a float, else `SpecError`; bools, strings
    and None are refused.  The one number check of both wire formats."""
    # Floats first: a monomial scan's coefficients are floats and skip the
    # bool test.
    if isinstance(value, float) or (isinstance(value, int)
                                    and not isinstance(value, bool)):
        try:
            result = float(value)
        except OverflowError:
            result = math.inf
        if math.isfinite(result):
            return result
    raise SpecError(f"{name} must be a finite real number, got {value!r}")


def _signed_power(u, exponent: float, signed: bool):
    # |u|^a with 0^0 = 1; the signed variant multiplies by sgn(u) and is
    # continuous because exponent 0 is rejected at construction time.
    mag = np.abs(u) ** exponent
    return np.sign(u) * mag if signed else mag


@dataclass(frozen=True)
class SignedPowerTerm:
    """One term c * p(x, x_exp, x_signed) * p(y, y_exp, y_signed)."""

    coeff: float
    x_exp: Fraction = Fraction(0)
    y_exp: Fraction = Fraction(0)
    x_signed: bool = False
    y_signed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x_exp", _as_fraction(self.x_exp))
        object.__setattr__(self, "y_exp", _as_fraction(self.y_exp))
        object.__setattr__(self, "coeff",
                           _finite_float(self.coeff, "term coefficient"))
        for exp, signed, name in (
            (self.x_exp, self.x_signed, "x"),
            (self.y_exp, self.y_signed, "y"),
        ):
            if not isinstance(signed, bool):
                raise SpecError(f"{name} sign flag must be a bool, got {signed!r}")
            if exp < 0:
                raise SpecError(f"{name} exponent must be >= 0, got {exp}")
            if exp == 0 and signed:
                raise SpecError(
                    f"signed {name} factor with exponent 0 is discontinuous at 0"
                )

    @property
    def degree(self) -> Fraction:
        return self.x_exp + self.y_exp

    def value(self, x, y):
        """Evaluate the term; exact at the axes (no NaN there)."""
        return (
            self.coeff
            * _signed_power(x, float(self.x_exp), self.x_signed)
            * _signed_power(y, float(self.y_exp), self.y_signed)
        )


def monomial(coeff: float, x_pow: int, y_pow: int) -> SignedPowerTerm:
    """Ordinary monomial c x^m y^n, represented exactly (signed = odd power)."""
    if x_pow < 0 or y_pow < 0 or x_pow != int(x_pow) or y_pow != int(y_pow):
        raise SpecError("monomial powers must be non-negative integers")
    return SignedPowerTerm(
        coeff,
        Fraction(int(x_pow)),
        Fraction(int(y_pow)),
        x_signed=bool(x_pow % 2),
        y_signed=bool(y_pow % 2),
    )


@dataclass(frozen=True)
class HomogeneousField:
    """A planar field (f, g) whose terms all share total degree alpha."""

    f_terms: tuple[SignedPowerTerm, ...]
    g_terms: tuple[SignedPowerTerm, ...]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "f_terms", tuple(self.f_terms))
        object.__setattr__(self, "g_terms", tuple(self.g_terms))
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        if self.alpha < 0:
            raise SpecError(f"field degree must be >= 0, got {self.alpha}")
        for term in self.f_terms + self.g_terms:
            if term.degree != self.alpha:
                raise SpecError(
                    f"term degree {term.degree} != field degree {self.alpha}"
                )

    def evaluate(self, x, y):
        fx = sum(t.value(x, y) for t in self.f_terms) if self.f_terms else 0.0 * (x + y)
        gy = sum(t.value(x, y) for t in self.g_terms) if self.g_terms else 0.0 * (x + y)
        return fx, gy


def angular_components(field: HomogeneousField, theta):
    """Radial and transverse components of the field on the unit circle.

    Returns (f cos + g sin, g cos - f sin) at (cos theta, sin theta); by
    homogeneity these two profiles determine the field on every circle.
    """
    c, s = np.cos(theta), np.sin(theta)
    fv, gv = field.evaluate(c, s)
    return fv * c + gv * s, gv * c - fv * s


def _swap_term(term: SignedPowerTerm) -> SignedPowerTerm:
    return SignedPowerTerm(
        term.coeff, term.y_exp, term.x_exp, term.y_signed, term.x_signed
    )


def reflect_diagonal(field: HomogeneousField) -> HomogeneousField:
    """Push the field through (x, y) -> (y, x).

    The new first component is the old second one with the variables
    exchanged, and vice versa; an involution on fields.
    """
    return HomogeneousField(
        f_terms=tuple(_swap_term(t) for t in field.g_terms),
        g_terms=tuple(_swap_term(t) for t in field.f_terms),
        alpha=field.alpha,
    )


@dataclass(frozen=True)
class PerturbationSpec:
    """Linear center plus graded homogeneous perturbations.

    Orientation "ccw" means the unperturbed part is (-y, x); "cw" means
    (y, -x).  The perturbation is epsilon * sum_j b[j] * fields[j], with
    field degrees strictly increasing.
    """

    fields: tuple[HomogeneousField, ...]
    b: tuple[float, ...]
    epsilon: float
    orientation: str = "ccw"

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "b", tuple(_finite_float(v, "b entry") for v in self.b))
        object.__setattr__(self, "epsilon", _finite_float(self.epsilon, "epsilon"))
        if self.orientation not in ("ccw", "cw"):
            raise SpecError(f"orientation must be 'ccw' or 'cw', got {self.orientation!r}")
        if len(self.fields) != len(self.b):
            raise SpecError("b must have one entry per field")
        degrees = [f.alpha for f in self.fields]
        if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
            raise SpecError(f"field degrees must strictly increase, got {degrees}")

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return tuple(f.alpha for f in self.fields)


def swap_orientation(spec: PerturbationSpec) -> PerturbationSpec:
    """Rewrite a cw spec in ccw form via the diagonal reflection (x,y)->(y,x).

    The reflection has determinant -1, so it carries the cw center (y, -x)
    to the ccw center (-y, x) without reversing time; orbits map to their
    mirror images and limit-cycle counts are preserved.
    """
    if spec.orientation != "cw":
        raise SpecError("swap_orientation expects a cw spec")
    return PerturbationSpec(
        fields=tuple(reflect_diagonal(f) for f in spec.fields),
        b=spec.b,
        epsilon=spec.epsilon,
        orientation="ccw",
    )


def normalize_ccw(spec: PerturbationSpec) -> PerturbationSpec:
    return spec if spec.orientation == "ccw" else swap_orientation(spec)


def with_epsilon(spec: PerturbationSpec, epsilon: float) -> PerturbationSpec:
    return replace(spec, epsilon=epsilon)


def with_b(spec: PerturbationSpec, b) -> PerturbationSpec:
    return replace(spec, b=tuple(b))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def term_to_json(term: SignedPowerTerm) -> dict:
    return {
        "c": term.coeff,
        "px": _fraction_str(term.x_exp),
        "py": _fraction_str(term.y_exp),
        "sx": term.x_signed,
        "sy": term.y_signed,
    }


def term_from_json(obj) -> SignedPowerTerm:
    if not isinstance(obj, dict):
        raise SpecError(f"term must be an object, got {type(obj).__name__}")
    missing = {"c", "px", "py", "sx", "sy"} - set(obj)
    if missing:
        raise SpecError(f"term missing keys {sorted(missing)}")
    return SignedPowerTerm(obj["c"], obj["px"], obj["py"], obj["sx"], obj["sy"])


def field_to_json(field: HomogeneousField) -> dict:
    return {
        "alpha": _fraction_str(field.alpha),
        "f": [term_to_json(t) for t in field.f_terms],
        "g": [term_to_json(t) for t in field.g_terms],
    }


def field_from_json(obj) -> HomogeneousField:
    if not isinstance(obj, dict):
        raise SpecError(f"field must be an object, got {type(obj).__name__}")
    for key in ("alpha", "f", "g"):
        if key not in obj:
            raise SpecError(f"field missing key {key!r}")
    if not isinstance(obj["f"], list) or not isinstance(obj["g"], list):
        raise SpecError("field term lists must be arrays")
    return HomogeneousField(
        f_terms=tuple(term_from_json(t) for t in obj["f"]),
        g_terms=tuple(term_from_json(t) for t in obj["g"]),
        alpha=_as_fraction(obj["alpha"]),
    )


def spec_to_json(spec: PerturbationSpec) -> dict:
    return {
        "orientation": spec.orientation,
        "epsilon": spec.epsilon,
        "b": list(spec.b),
        "fields": [field_to_json(f) for f in spec.fields],
    }


def spec_from_json(obj) -> PerturbationSpec:
    if not isinstance(obj, dict):
        raise SpecError(f"spec must be an object, got {type(obj).__name__}")
    for key in ("orientation", "epsilon", "b", "fields"):
        if key not in obj:
            raise SpecError(f"spec missing key {key!r}")
    if not isinstance(obj["b"], list) or not isinstance(obj["fields"], list):
        raise SpecError("spec 'b' and 'fields' must be arrays")
    return PerturbationSpec(
        fields=tuple(field_from_json(f) for f in obj["fields"]),
        b=tuple(obj["b"]),
        epsilon=obj["epsilon"],
        orientation=obj["orientation"],
    )


def load_spec(path) -> PerturbationSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc
    return spec_from_json(obj)
