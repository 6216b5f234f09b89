"""Degree complexity of homogeneous ideals over a prime field.

Computes generic initial ideals under the two graded orders, the degree
complexities M(I) and m(I), partial elimination ideals with their
recombination and Hilbert identities, and the closed-form predictions for
smooth surfaces in P^4 lying on a quadric.
"""

from .errors import (
    ConfigurationError,
    ExceptionalCaseError,
    GincomplexError,
    InvariantError,
    NonBorelGinError,
    ParseError,
    RingMismatchError,
    UnstableGinError,
    ZeroPolynomialError,
)
from .field import DEFAULT_PRIME, FieldElement, PrimeField
from .gin import (
    CoordinateChange,
    GinResult,
    SurfaceCheck,
    check_surface,
    degree_complexity,
    gin,
    is_saturated,
    random_change,
    reduced_grevlex,
    saturate_irrelevant,
    unitriangular_change,
    witness_check,
    witness_monomials,
)
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    buchberger,
    hilbert_function_macaulay,
    ideal_quotient,
    ideals_equal,
    intersect,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from .pei import (
    MODE_EQUAL,
    MODE_UPTO,
    PartialEliminationData,
    hilbert_identity_check,
    k1_saturation_check,
    partial_elimination,
    recombine_m,
)
from .poly import (
    EQ,
    GLEX,
    GREVLEX,
    GT,
    LT,
    Ideal,
    MonomialOrder,
    Polynomial,
    apply_linear_change,
    apply_linear_changes,
    compare,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "ExceptionalCaseError", "GincomplexError",
    "InvariantError", "NonBorelGinError", "ParseError", "RingMismatchError",
    "UnstableGinError", "ZeroPolynomialError",
    "DEFAULT_PRIME", "FieldElement", "PrimeField",
    "CoordinateChange", "GinResult", "SurfaceCheck", "check_surface",
    "degree_complexity", "gin", "is_saturated", "random_change",
    "reduced_grevlex", "unitriangular_change", "witness_check",
    "witness_monomials",
    "GroebnerBasis", "MonomialIdeal", "buchberger",
    "hilbert_function_macaulay", "ideal_quotient", "ideals_equal",
    "intersect", "is_groebner_basis", "normal_form", "s_polynomial",
    "saturate_irrelevant",
    "MODE_EQUAL", "MODE_UPTO", "PartialEliminationData",
    "hilbert_identity_check", "k1_saturation_check", "partial_elimination",
    "recombine_m",
    "EQ", "GLEX", "GREVLEX", "GT", "LT", "Ideal", "MonomialOrder",
    "Polynomial", "apply_linear_change", "apply_linear_changes", "compare",
    "__version__",
]
