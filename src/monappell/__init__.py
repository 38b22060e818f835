"""Exact monogenic Appell-type polynomial sequences over Clifford algebras.

All coefficients are arbitrary-precision rationals, so every identity in
the package is checked by literal equality rather than by tolerance.
"""

from .algebra import AlgebraContext, Multivector, blade_product
from .ck import ck_extend, is_monogenic
from .coefficients import (
    double_factorial,
    fueter_factor,
    lowering_factor,
    restriction_coefficient,
)
from .errors import (
    ArgumentTooSmallError,
    ContextMismatchError,
    DegreeLimitError,
    DependsOnX0Error,
    DimensionTooSmallError,
    EvenDimensionError,
    InvalidInitialTermError,
    MonappellError,
    NonScalarInputError,
    NonVectorInputError,
    NotAxialFormError,
)
from .fueter import (
    axial_embedding,
    fueter_compare,
    fueter_map,
    fueter_order,
    fueter_scale,
)
from .initial_terms import (
    InitialTermSpec,
    builtin_initial_term,
    load_initial_term,
    validate_initial_term,
)
from .operators import (
    cauchy_riemann,
    check_dirac_power_rule,
    check_leibniz_scalar,
    check_leibniz_vector,
    conj_cauchy_riemann,
    dirac,
    laplacian,
    require_initial_term,
)
from .polynomials import (
    CliffordPolynomial,
    first_difference,
    radius_squared,
    vector_power,
    vector_variable,
)
from .report import CheckResult, VerificationReport
from .sequences import (
    AxialPair,
    SequenceSpec,
    axial_decompose,
    generate_sequence,
    sequence_term_ck,
    sequence_term_explicit,
    verify_axial,
    verify_sequence,
)

__version__ = "0.1.0"
