"""First-order averaging toolkit for perturbed planar linear centers.

Build perturbations of a linear center from signed-power homogeneous
fields, compute the averaged function from closed-form (Beta moment)
angular integrals, synthesize coefficients realizing prescribed cycle
radii, verify the prediction against a polar-coordinate return map, and
certify small monomial systems cycle-free.
"""

from types import ModuleType as _ModuleType

from .averaging import (
    Averaged,
    AveragedFunction,
    angular_integral,
    average,
)
from .errors import (
    AngularMonotonicityError,
    ClassifierError,
    ContinuationError,
    CountMismatchError,
    CycleAvgError,
    GuardBoundError,
    RootError,
    SimulationError,
    SpecError,
    SynthesisError,
)
from .fields import (
    Fraction,
    HomogeneousField,
    PerturbationSpec,
    SignedPowerTerm,
    angular_components,
    field_from_json,
    field_to_json,
    load_spec,
    monomial,
    normalize_ccw,
    reflect_diagonal,
    spec_from_json,
    spec_to_json,
    swap_orientation,
    term_from_json,
    term_to_json,
    with_b,
    with_epsilon,
)
from .flow import (
    BASE_STEPS,
    GUARD,
    MAX_STEPS,
    REVOLUTION_STEPS,
    ContinuationRow,
    LimitCycleCertificate,
    ReturnMapSample,
    continuation_check,
    find_fixed_points,
    return_map,
    scan_return_map,
)
from .monomials import (
    Check,
    MonomialSystem,
    NoCycleCertificate,
    certificate_to_json,
    classify,
    enumerate_systems,
    lienard_family,
    monomial_from_json,
    monomial_to_json,
)
from .pipeline import retune_b, run_pipeline
from .presets import (
    SQRT_MOMENT,
    Preset,
    capillary,
    catalog,
    constant_field,
    example1,
    example2,
    herd,
    lienard,
    linear_field,
    signed_root_field,
    sir,
    vdp,
)
from .roots import (
    DEFAULT_BRACKET,
    PositiveRoot,
    RootReport,
    descartes_bound,
    positive_roots,
    synthesize_coefficients,
)

__version__ = "0.1.0"

# Every public name bound above, listed once: the imports are the list.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
