"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input (2), an angular
integral in the dead band (3), predicted-vs-simulated count mismatch (4).
"""


class CycleAvgError(Exception):
    """Base class for all package errors."""


class SpecError(CycleAvgError):
    """Invalid system description: bad schema, exponents, orientation."""


class QuadratureError(CycleAvgError):
    """Adaptive quadrature could not reach the requested tolerance."""


class AmbiguousIntegralError(QuadratureError):
    """An angular integral landed in the dead band between the
    structural-zero threshold and the confident-nonzero threshold."""


class RootError(CycleAvgError):
    """Root scan or bisection failure, or a count exceeding the sign-change bound."""


class SynthesisError(CycleAvgError):
    """Coefficient synthesis failed: ill-conditioned system or verification mismatch."""


class SimulationError(CycleAvgError):
    """Return-map integration failure."""


class AngularMonotonicityError(SimulationError):
    """The angular speed lost positivity, so the radial equation over the
    angle is no longer valid at this radius."""


class GuardBoundError(SimulationError):
    """Trajectory left the admissible radius window."""


class ContinuationError(SimulationError):
    """Fixed-point gaps failed to shrink along a decreasing epsilon sweep."""


class ClassifierError(CycleAvgError):
    """Internal inconsistency in the monomial case tree."""


class CountMismatchError(CycleAvgError):
    """Simulated fixed-point count differs from the predicted root count."""
