"""Conjectural Serre weight sets for two-dimensional mod-ell local Galois data
over unramified extensions, with exhaustive verification sweeps.

The core objects are `FieldParams` (the prime ell and the residue degree f),
`SerreWeight` (the pair (a mod ell^f - 1, digit vector b)), and the two local
recipes: `niveau_two` data for irreducible restrictions to inertia and
`niveau_one` pairs for reducible ones.  `sweeps` re-proves every counting and
injectivity statement by enumeration; `cli` is the command line surface.
"""

from .errors import (
    BadWeightDigits,
    BudgetExceeded,
    IllegalShape,
    InvalidFactorInput,
    InvalidNiveauTwo,
    NotInLabeledSet,
    ParamError,
    ParamMismatch,
    SerreWeightError,
    WrongExtClass,
)
from .global_weights import (
    DetReport,
    GlobalDatum,
    GlobalWeightSets,
    check_det_compatibility,
    global_weight_set,
    twist_global,
)
from .irreducible import NiveauTwoDatum, niveau_two
from .local_factors import (
    GaloisShape,
    LocalFactorInput,
    classify_local_factor,
    ext_space_dim,
)
from .modarith import FieldParams
from .qtable import RationalShape, RationalShapeKind, all_legal_shapes, weights_over_Q
from .reducible import ExtClass, ReducibleDatum, niveau_one
from .weights import (
    LabeledWeight,
    SerreWeight,
    canonical_weight,
    central_character_exponent,
    det_exponent,
    format_weight_set,
    twist_weight,
    weight_sort_key,
)

__version__ = "0.1.0"

__all__ = [
    "BadWeightDigits",
    "BudgetExceeded",
    "DetReport",
    "ExtClass",
    "FieldParams",
    "GaloisShape",
    "GlobalDatum",
    "GlobalWeightSets",
    "IllegalShape",
    "InvalidFactorInput",
    "InvalidNiveauTwo",
    "LabeledWeight",
    "LocalFactorInput",
    "NiveauTwoDatum",
    "NotInLabeledSet",
    "ParamError",
    "ParamMismatch",
    "RationalShape",
    "RationalShapeKind",
    "ReducibleDatum",
    "SerreWeight",
    "SerreWeightError",
    "WrongExtClass",
    "all_legal_shapes",
    "canonical_weight",
    "central_character_exponent",
    "check_det_compatibility",
    "classify_local_factor",
    "det_exponent",
    "ext_space_dim",
    "format_weight_set",
    "global_weight_set",
    "niveau_two",
    "niveau_one",
    "twist_global",
    "twist_weight",
    "weight_sort_key",
    "weights_over_Q",
    "__version__",
]
