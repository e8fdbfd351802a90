"""Exact exterior-algebra shifting and intersecting-family verification.

Multivectors over the rationals, canonical subspaces of a graded component,
symbolic one-parameter limits that degenerate self-annihilating subspaces to
shifted monomial families, extremal-bound certificates, linear-factor
analysis, and desk-scale exhaustive oracles.
"""

from .errors import (
    BudgetExceededError,
    FalsificationError,
    GroundMismatchError,
    HomogeneityError,
    IterationLimitError,
    ParseError,
)
from .exterior import (
    LinearMap,
    Multivector,
    apply_linear,
    format_multivector,
    merge_sign,
    parse_multivector,
    wedge,
)
from .families import (
    SetFamily,
    ShiftPair,
    combinatorial_shift,
    enumerate_families,
    family_decompose,
    is_intersecting,
    is_shifted,
    is_star,
)
from .subspace import MonomialOrder, PlueckerVector, Subspace, span
from .limits import (
    TraceStep,
    decreasing_pairs,
    initial_subspace,
    limit_shift,
    pluecker_limit,
    triangular_fixed_point,
)
from .ekr import (
    VerifyReport,
    ekr_bound,
    ekr_pipeline,
    hilton_milner_verify,
    hm_bound,
    self_annihilating,
    shifted_ekr_verify,
)
from .factor import (
    FactorReport,
    common_annihilator,
    complement_pair_space,
    extract_cofactor,
    factor_report,
    linear_factors,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "FalsificationError",
    "GroundMismatchError",
    "HomogeneityError",
    "IterationLimitError",
    "ParseError",
    "LinearMap",
    "Multivector",
    "apply_linear",
    "format_multivector",
    "merge_sign",
    "parse_multivector",
    "wedge",
    "SetFamily",
    "ShiftPair",
    "combinatorial_shift",
    "enumerate_families",
    "family_decompose",
    "is_intersecting",
    "is_shifted",
    "is_star",
    "MonomialOrder",
    "PlueckerVector",
    "Subspace",
    "span",
    "TraceStep",
    "decreasing_pairs",
    "initial_subspace",
    "limit_shift",
    "pluecker_limit",
    "triangular_fixed_point",
    "VerifyReport",
    "ekr_bound",
    "ekr_pipeline",
    "hilton_milner_verify",
    "hm_bound",
    "self_annihilating",
    "shifted_ekr_verify",
    "FactorReport",
    "common_annihilator",
    "complement_pair_space",
    "extract_cofactor",
    "factor_report",
    "linear_factors",
]
