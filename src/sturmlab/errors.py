"""Typed errors shared across the toolkit."""


class CapExceededError(RuntimeError):
    """A configured resource cap (word length, depth, enumeration bound) was exceeded."""


class IndecisiveEnclosureError(RuntimeError):
    """An exact enclosure is too wide to decide the requested comparison; raise the depth."""


class InsufficientPrecisionError(RuntimeError):
    """Too few trustworthy continued-fraction convergents survive the truncation filter."""


class NonSturmianError(ValueError):
    """The word does not show the factor structure the operation requires."""


class MissingCodingError(KeyError):
    """A length-2 block occurs in the word but has no code in the supplied coding."""
