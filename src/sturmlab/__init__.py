"""Exact combinatorics-on-words toolkit for a family of Sturmian fixed points.

For each parameter k >= 1, the substitution 0 -> 0^k 1, 1 -> 0 has a unique
infinite fixed point.  This package generates those words, exposes the
generalized Zeckendorf numeration that indexes them, answers random-access
and shift-mismatch queries in logarithmic time, and certifies the rational
approximation quality of the base-b reals carrying the words as digits —
all with exact integer/rational arithmetic, never floating point, except in
clearly-labeled estimate outputs.
"""

from .access import MismatchVerdict, mismatch, mismatch_positions, symbol_at
from .approximants import (
    ApproximantRecord,
    BoundsCheck,
    SeriesTruncation,
    approximant,
    bound_constants_hold,
    check_error_bounds,
    check_error_bounds_auto,
    default_depth,
    error_bounds,
    fixed_point_series,
    growth_law_holds,
    scaled_error_bounds_hold,
    series_truncation,
    word_value,
)
from .errors import (
    CapExceededError,
    DegenerateSystemError,
    IndecisiveEnclosureError,
    InsufficientPrecisionError,
    MissingCodingError,
    NonSturmianError,
    NonSturmianWarning,
)
from .exponent import (
    ContinuedFraction,
    ExponentEstimate,
    basis_ratio,
    closed_form_exponent,
    continued_fraction,
    empirical_exponent,
    exponent_sandwich,
    exponent_upper_bound,
    ratio_limit_enclosure,
)
from .numeration import (
    Basis,
    basis_value,
    from_digits,
    get_basis,
    is_regular,
    normalize,
    to_digits,
    uniqueness_oracle,
)
from .transforms import (
    AffineDecomposition,
    RotationSumReport,
    ValueRelationReport,
    affine_decompose,
    block_determinism,
    default_pair_coding,
    difference,
    difference_by_binomial,
    floor_golden,
    rotation_sum_relation,
    shift_product,
    value_affine_relation,
)
from .words import (
    GeneralWord,
    Word,
    distinct_factors,
    fixed_point_prefix,
    iterate_word,
    substitute,
    swap_last_two,
    word_identities,
)

__version__ = "0.1.0"

__all__ = [
    "AffineDecomposition",
    "ApproximantRecord",
    "Basis",
    "BoundsCheck",
    "CapExceededError",
    "ContinuedFraction",
    "DegenerateSystemError",
    "ExponentEstimate",
    "GeneralWord",
    "IndecisiveEnclosureError",
    "InsufficientPrecisionError",
    "MismatchVerdict",
    "MissingCodingError",
    "NonSturmianError",
    "NonSturmianWarning",
    "RotationSumReport",
    "SeriesTruncation",
    "ValueRelationReport",
    "Word",
    "affine_decompose",
    "approximant",
    "basis_ratio",
    "basis_value",
    "block_determinism",
    "bound_constants_hold",
    "check_error_bounds",
    "check_error_bounds_auto",
    "closed_form_exponent",
    "continued_fraction",
    "default_depth",
    "default_pair_coding",
    "difference",
    "difference_by_binomial",
    "distinct_factors",
    "empirical_exponent",
    "error_bounds",
    "exponent_sandwich",
    "exponent_upper_bound",
    "fixed_point_prefix",
    "fixed_point_series",
    "floor_golden",
    "from_digits",
    "get_basis",
    "growth_law_holds",
    "is_regular",
    "iterate_word",
    "mismatch",
    "mismatch_positions",
    "normalize",
    "ratio_limit_enclosure",
    "rotation_sum_relation",
    "scaled_error_bounds_hold",
    "series_truncation",
    "shift_product",
    "substitute",
    "swap_last_two",
    "symbol_at",
    "to_digits",
    "uniqueness_oracle",
    "value_affine_relation",
    "word_identities",
    "word_value",
]
