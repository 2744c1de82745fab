"""Exact-arithmetic homotopy invariants of combings of 3-manifolds
presented by integral surgery.

Linking matrices in, exact rationals out: first homology and the torsion
linking form, the Gompf invariant / p_1 of combings with its gamma action
and Spin^c classification, image and parity theorems, the framed-cobordism
calculus of the Pontrjagin construction, and the Theta = 6*lambda + p_1/4
combiner.
"""

from types import ModuleType as _ModuleType

from .combing import (
    DEFAULT_BOX,
    CombingSpec,
    EulerClassInfo,
    P1ImageReport,
    P1Value,
    apply_modification,
    combing_equal,
    euler_class,
    gamma,
    gamma_orbit_modulus,
    hf_grading,
    p1,
    p1_image,
    parity_check,
    reference_parallelization,
    spin_c_equal,
    stabilize,
    theta_g,
    validate_combing,
)
from .errors import (
    BadEtaError,
    CapExceededError,
    DimensionMismatchError,
    DomainError,
    EvenCoefficientError,
    InvalidInputError,
    MissingClassesError,
    NonTorsionError,
    NotCharacteristicError,
    NotZSphereError,
    ParseError,
)
from .framed import (
    FramedCobordismClass,
    FramedLinkData,
    add_hopf,
    band_sum,
    cobordism_class,
    framed_cobordant_zsphere,
    pontrjagin_p1,
    total_self_linking,
)
from .linalg import (
    IntMatrix,
    SignatureTriple,
    signature,
)
from .surgery import (
    DEFAULT_CAP,
    EMPTY_PRESENTATION,
    HomologySummary,
    SurgeryPresentation,
    classes_equal,
    homology_summary,
    is_torsion_class,
    linking_form,
    meridian_pairing,
    reduce_class,
)
from .theta import theta_invariant

__version__ = "0.1.0"

# the imports above are the one list of public names; the submodules they
# bind on the package are not among them
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
