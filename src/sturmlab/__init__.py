"""Exact combinatorics-on-words toolkit for a family of Sturmian fixed points.

For each parameter k >= 1, the substitution 0 -> 0^k 1, 1 -> 0 has a unique
infinite fixed point.  This package generates those words, exposes the
generalized Zeckendorf numeration that indexes them, answers random-access
and shift-mismatch queries in logarithmic time, and certifies the rational
approximation quality of the base-b reals carrying the words as digits —
all with exact integer/rational arithmetic, never floating point, except in
clearly-labeled estimate outputs.
"""

import importlib.util
import sys
import types
from _thread import RLock

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Importing ``sturmlab`` binds
# each submodule here unexecuted (``_Unrun``), and every module reads its
# siblings through these bindings at call time (``numeration.get_basis(k)``),
# so a process, and each CLI request, compiles and runs only what it reads.
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


class _Unrun(types.ModuleType):
    """A bound submodule that its first attribute read runs, under one lock, so
    a read from another thread waits until it has run (``LazyLoader`` takes no
    lock in CPython 3.10, 3.11 and 3.12.1, and such a read fails there)."""

    lock = RLock()
    started: set[str] = set()   # a module's reads of itself while it runs pass

    def __getattribute__(self, attr: str):
        with _Unrun.lock:
            spec = types.ModuleType.__getattribute__(self, "__spec__")
            if type(self) is _Unrun and spec.name not in _Unrun.started:
                _Unrun.started.add(spec.name)
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def _enter(name: str) -> types.ModuleType:
    """``sturmlab.<name>``, entered in ``sys.modules`` now and run on first attribute read."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        sys.modules[full] = importlib.util.module_from_spec(importlib.util.find_spec(full))
        sys.modules[full].__class__ = _Unrun
    return sys.modules[full]


globals().update({module: _enter(module) for module in sorted(set(_EXPORTS.values()))})


def __getattr__(name: str):
    """Resolve a public name through its submodule's binding on first read (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
