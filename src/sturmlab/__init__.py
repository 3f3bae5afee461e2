"""Exact combinatorics-on-words toolkit for a family of Sturmian fixed points.

For each parameter k >= 1, the substitution 0 -> 0^k 1, 1 -> 0 has a unique
infinite fixed point.  This package generates those words, exposes the
generalized Zeckendorf numeration that indexes them, answers random-access
and shift-mismatch queries in logarithmic time, and certifies the rational
approximation quality of the base-b reals carrying the words as digits —
all with exact integer/rational arithmetic, never floating point, except in
clearly-labeled estimate outputs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A submodule is imported the
# first time one of its names is read from the package, so importing
# ``sturmlab`` (and each CLI request) compiles and runs only what it uses.
_EXPORTS = {
    name: module
    for module, names in {
        "access": ("MismatchVerdict", "mismatch", "symbol_at"),
        "approximants": (
            "ApproximantRecord",
            "BoundsCheck",
            "SeriesTruncation",
            "approximant",
            "bound_constants_hold",
            "check_error_bounds",
            "check_error_bounds_auto",
            "default_depth",
            "error_bounds",
            "fixed_point_series",
            "growth_law_holds",
            "scaled_error_bounds_hold",
            "series_truncation",
            "word_value",
        ),
        "errors": (
            "CapExceededError",
            "IndecisiveEnclosureError",
            "InsufficientPrecisionError",
        ),
        "exponent": (
            "ContinuedFraction",
            "ExponentEstimate",
            "closed_form_exponent",
            "continued_fraction",
            "empirical_exponent",
            "exponent_sandwich",
            "exponent_upper_bound",
        ),
        "numeration": (
            "Basis",
            "from_digits",
            "get_basis",
            "is_regular",
            "normalize",
            "to_digits",
            "uniqueness_oracle",
        ),
        "transforms": (
            "RotationSumReport",
            "ValueRelationReport",
            "block_determinism",
            "difference",
            "difference_by_binomial",
            "floor_golden",
            "rotation_sum_relation",
            "shift_product",
            "value_affine_relation",
        ),
        "words": (
            "distinct_factors",
            "fixed_point_prefix",
            "substitute",
            "to_string",
            "word_identities",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a public name from its submodule on first read (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
