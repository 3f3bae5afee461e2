"""Random access into the fixed point, without materializing prefixes.

The n-th symbol is 1 exactly when the bottom digit of the regular
representation of n equals k.  Shifting an index by a basis value f_n flips
the symbol only for indices whose digits 0..n are worth f_{n+1} - 2 or
f_{n+1} - 1, which gives a direct description of where a prefix and its
shift disagree: per index (``mismatch``) or as the offsets of the mismatch
pairs (``_mismatch_offsets``), which the scaled bound checks sum over.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .errors import CapExceededError
from .numeration import _digit_and_low, get_basis, regular_vectors

POSITION_SCAN_CAP = 50_000_000


def symbol_at(k: int, n: int) -> int:
    """Symbol of the fixed point at index ``n`` (0-based), in O(log n) time."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("index must be >= 0")
    return 1 if _digit_and_low(k, n, 0)[0] == k else 0


class MismatchVerdict(NamedTuple):
    """Whether symbols at i and i + f_n differ, and the sign of (new - old)."""

    differs: bool
    sign: int


# Verdicts are immutable, so every call shares these three.
_SAME = MismatchVerdict(False, 0)
_UP = MismatchVerdict(True, 1)
_DOWN = MismatchVerdict(True, -1)


def mismatch(k: int, i: int, n: int) -> MismatchVerdict:
    """Compare the fixed point at i and i + f_n by digits alone.

    The symbols differ exactly when digits 0..n of i reproduce those of
    f_{n+1} - 2 or f_{n+1} - 1 while the digit of i at position n + 1 stays
    below k.  The sign is (-1)^n on the first pattern and flips on the second.
    Digits 0..n of a regular vector are the regular vector of their value, which
    is below f_{n+1}; as regular vectors are unique, the patterns match exactly
    when that value equals f_{n+1} - 2 or f_{n+1} - 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if i < 0:
        raise ValueError("index must be >= 0")
    digit, low = _digit_and_low(k, i, n + 1)
    if digit == k:
        return _SAME
    fn1 = get_basis(k).value(n + 1)
    if low == fn1 - 2:
        return _UP if n % 2 == 0 else _DOWN
    if low == fn1 - 1:
        return _DOWN if n % 2 == 0 else _UP
    return _SAME


def _mismatch_offsets(k: int, n: int, cutoff: int) -> list[int]:
    """Offsets h with a mismatch pair at f_{n+1}-2+h, f_{n+1}-1+h, for h <= cutoff.

    h ranges over the values of regular digit vectors re-weighted to start
    at basis index n+1, excluding vectors whose bottom digit is k (those
    indices carry a digit k at position n+1 and the shift leaves their
    symbols alone).  A vector's value j never exceeds its h, so walking the
    vectors with j <= cutoff in increasing order reaches every offset.
    """
    basis = get_basis(k)
    weights = [basis.value(n + 1 + i) for i in range(basis.largest_index_leq(cutoff) + 1)]
    out: list[int] = []
    prev_h = -1
    for _j, digits in regular_vectors(k, cutoff + 1):
        h = sum(map(mul, digits, weights))
        if h < prev_h:
            raise AssertionError("offset enumeration lost monotonicity")
        prev_h = h
        if h > cutoff:
            break
        if digits[:1] != (k,):
            out.append(h)
    return out


def mismatch_positions(k: int, n: int, limit: int) -> list[int]:
    """All indices i < limit where the fixed point differs from its f_n-shift.

    Emits the pair f_{n+1}-2+h, f_{n+1}-1+h for each mismatch offset h, so
    the cost follows the number of mismatches rather than ``limit``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > POSITION_SCAN_CAP:
        raise CapExceededError(f"scan limit {limit} exceeds cap {POSITION_SCAN_CAP}")
    start = get_basis(k).value(n + 1) - 2
    out: list[int] = []
    for h in _mismatch_offsets(k, n, limit - 1 - start):
        out.extend(i for i in (start + h, start + 1 + h) if i < limit)
    return out
