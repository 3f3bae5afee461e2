"""Typed errors shared across the toolkit.

Each names a limit of a computation, not bad input: a cap, an enclosure too
wide to decide, too few trusted convergents.  Bad input values, non-binary
words among them, raise plain ``ValueError``.
"""


class CapExceededError(RuntimeError):
    """A configured resource cap (word length, depth, enumeration bound) was exceeded."""


class IndecisiveEnclosureError(RuntimeError):
    """An exact enclosure is too wide to decide the requested comparison; raise the depth."""


class InsufficientPrecisionError(RuntimeError):
    """Too few trustworthy continued-fraction convergents survive the truncation filter."""

