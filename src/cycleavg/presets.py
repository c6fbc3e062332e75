"""Catalog of ready-made perturbation specs.

Two reproduction examples with known averaged-root values, the classic
odd-damping oscillator family, and three modelling systems (capillary
rise, herd predation, square-root SIR) shipped purely as decomposition
demos: those three use epsilon = 1, far outside the small-perturbation
regime, so no limit-cycle claim is attached to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping

from .averaging import _quarter_moment
from .fields import (
    Fraction,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    monomial,
)
from .monomials import lienard_family

#: int_0^{pi/2} cos^{3/2} = B(5/4, 1/2) / 2, the quarter-turn moment of the
#: signed square root; the full-circle integral of sqrt-sgn(cos)*cos is 4x this.
SQRT_MOMENT = _quarter_moment(Fraction(3, 2), 0)

#: Same for the signed cube root: int_0^{pi/2} cos^{4/3} = B(7/6, 1/2) / 2.
CBRT_MOMENT = _quarter_moment(Fraction(4, 3), 0)


def constant_field(s1: float, s2: float) -> HomogeneousField:
    """(s1, s2): homogeneous of degree 0, angular integral always 0."""
    terms_f = (monomial(s1, 0, 0),) if s1 else ()
    terms_g = (monomial(s2, 0, 0),) if s2 else ()
    return HomogeneousField(f_terms=terms_f, g_terms=terms_g, alpha=Fraction(0))


def linear_field(p11: float, p12: float, p21: float, p22: float) -> HomogeneousField:
    """Matrix field (p11 x + p12 y, p21 x + p22 y); angular integral (p11+p22)*pi."""
    return signed_root_field(p11, p12, p21, p22, exponent=1)


def signed_root_field(q11: float, q12: float, q21: float, q22: float,
                      exponent=Fraction(1, 2)) -> HomogeneousField:
    """Matrix applied to (sgn(x)|x|^e, sgn(y)|y|^e) componentwise."""
    e = Fraction(exponent)
    def row(cx, cy):
        terms = []
        if cx:
            terms.append(SignedPowerTerm(cx, e, Fraction(0), True, False))
        if cy:
            terms.append(SignedPowerTerm(cy, Fraction(0), e, False, True))
        return tuple(terms)
    return HomogeneousField(f_terms=row(q11, q12), g_terms=row(q21, q22), alpha=e)


@dataclass(frozen=True)
class Preset:
    name: str
    spec: PerturbationSpec
    expected: Mapping[str, object] = dc_field(default_factory=dict)


def example1(epsilon: float = 0.01) -> Preset:
    """Constant + signed-sqrt + linear perturbation with one averaged root.

    Exponents (0, 1/2, 1).  The constant field has a structurally zero
    angular integral; the diagonal sqrt field contributes 8*SQRT_MOMENT
    and the linear trace -2*pi, so the averaged function is
    (4*SQRT_MOMENT/pi) sqrt(z) - z with simple root (4*SQRT_MOMENT/pi)^2.
    """
    spec = PerturbationSpec(
        fields=(
            constant_field(1.0, 1.0),
            signed_root_field(1.0, 0.0, 0.0, 1.0),
            linear_field(-1.0, 0.0, 0.0, -1.0),
        ),
        b=(1.0, 1.0, 1.0),
        epsilon=epsilon,
        orientation="ccw",
    )
    root = (4.0 * SQRT_MOMENT / math.pi) ** 2
    return Preset(
        name="example1",
        spec=spec,
        expected={"lower_bound": 1, "roots": (root,)},
    )


def example2(epsilon: float = 0.005) -> Preset:
    """Four-field spec with exponents (0, 1/3, 1/2, 1) and lower bound 2.

    The cube-root column acts on x only and the signed-sqrt column on y
    only, so three of the four angular integrals are nonzero.  The
    default coefficients are placeholders: the pipeline retunes them by
    root synthesis (canonical targets z = 1 and z = 4).
    """
    spec = PerturbationSpec(
        fields=(
            constant_field(1.0, 1.0),
            signed_root_field(1.0, 0.0, 0.0, 0.0, exponent=Fraction(1, 3)),
            signed_root_field(0.0, 0.0, 0.0, 1.0),
            linear_field(0.5, 0.0, 0.0, 0.5),
        ),
        b=(1.0, 1.0, 1.0, 1.0),
        epsilon=epsilon,
        orientation="ccw",
    )
    return Preset(
        name="example2",
        spec=spec,
        expected={"lower_bound": 2, "targets": (1.0, 4.0)},
    )


def vdp(epsilon: float = 0.01) -> Preset:
    """Cubic-damping oscillator: m = 4 member of the odd-damping family,
    with averaged function z/2 - 3 z^3/8 and root 2/sqrt(3)."""
    spec = lienard_family(4, (1.0, -1.0), epsilon=epsilon)
    return Preset(
        name="vdp",
        spec=spec,
        expected={"lower_bound": 1, "roots": (2.0 / math.sqrt(3.0),)},
    )


def lienard(m: int, coefficients=None, epsilon: float = 0.01) -> Preset:
    """Odd-damping oscillator with m monomials and up to m - 3 cycles;
    averaged exponents 1, 3, ..., 2m-5, every angular integral positive."""
    if coefficients is None:
        coefficients = tuple((-1.0) ** d for d in range(m - 2))
    spec = lienard_family(m, coefficients, epsilon=epsilon)
    return Preset(
        name=f"lienard-m{m}",
        spec=spec,
        expected={"monomials": m, "max_roots": m - 3},
    )


def capillary(a: float = 1.0, epsilon: float = 1.0) -> Preset:
    """Capillary-rise equation x'' = 1 - a x' - sqrt(2 x), decomposed.

    Written as the cw center (y, -x) plus degree-(0, 1/2, 1) fields; the
    degree-1 field restores +x and adds the -a y damping.  At epsilon = 1
    this is a decomposition exercise, not an averaging statement.
    """
    sqrt2 = math.sqrt(2.0)
    lin = HomogeneousField(
        f_terms=(),
        g_terms=(monomial(1.0, 1, 0), monomial(-a, 0, 1)),
        alpha=Fraction(1),
    )
    spec = PerturbationSpec(
        fields=(
            constant_field(0.0, 1.0),
            HomogeneousField(
                f_terms=(),
                g_terms=(SignedPowerTerm(-sqrt2, Fraction(1, 2), Fraction(0),
                                         True, False),),
                alpha=Fraction(1, 2),
            ),
            lin,
        ),
        b=(1.0, 1.0, 1.0),
        epsilon=epsilon,
        orientation="cw",
    )
    return Preset(name="capillary", spec=spec)


def herd(c: float = 1.0, epsilon: float = 1.0) -> Preset:
    """Herd-predation model (x(1-x) - y sqrt(x), -x y + c y sqrt(x)).

    Decomposed about the ccw center with degree-(1, 3/2, 2) fields; the
    square roots use the odd extension sgn(x)sqrt|x|.  Shipped as a
    decomposition exercise only (epsilon = 1).
    """
    half3 = Fraction(3, 2)
    interaction = HomogeneousField(
        f_terms=(SignedPowerTerm(-1.0, Fraction(1, 2), Fraction(1), True, True),),
        g_terms=(SignedPowerTerm(c, Fraction(1, 2), Fraction(1), True, True),),
        alpha=half3,
    )
    quadratic = HomogeneousField(
        f_terms=(monomial(-1.0, 2, 0),),
        g_terms=(monomial(-1.0, 1, 1),),
        alpha=Fraction(2),
    )
    spec = PerturbationSpec(
        fields=(linear_field(1.0, 1.0, -1.0, 0.0), interaction, quadratic),
        b=(1.0, 1.0, 1.0),
        epsilon=epsilon,
        orientation="ccw",
    )
    return Preset(name="herd", spec=spec)


def sir(beta: float = 1.0, gamma: float = 1.0, epsilon: float = 1.0) -> Preset:
    """Square-root SIR reduced to the (S, I) plane, decomposed.

    (S', I') = (-beta sqrt(S I), beta sqrt(S I) - gamma sqrt(I)).  The
    mixed sqrt(S I) term is homogeneous of degree 1 and shares a field
    with the linear terms that cancel the bookkeeping center.  Shipped
    as a decomposition exercise only (epsilon = 1).
    """
    half = Fraction(1, 2)
    mixed = HomogeneousField(
        f_terms=(monomial(1.0, 0, 1),
                 SignedPowerTerm(-beta, half, half, True, True)),
        g_terms=(monomial(-1.0, 1, 0),
                 SignedPowerTerm(beta, half, half, True, True)),
        alpha=Fraction(1),
    )
    spec = PerturbationSpec(
        fields=(
            HomogeneousField(
                f_terms=(),
                g_terms=(SignedPowerTerm(-gamma, Fraction(0), half, False, True),),
                alpha=half,
            ),
            mixed,
        ),
        b=(1.0, 1.0),
        epsilon=epsilon,
        orientation="ccw",
    )
    return Preset(name="sir", spec=spec)


def catalog() -> dict:
    """Name -> zero-argument preset constructor for the CLI."""
    return {
        "example1": example1,
        "example2": example2,
        "vdp": vdp,
        "lienard5": lambda: lienard(5),
        "lienard6": lambda: lienard(6),
        "lienard7": lambda: lienard(7),
        "capillary": capillary,
        "herd": herd,
        "sir": sir,
    }
