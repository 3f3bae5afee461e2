"""Random access into the fixed point, without materializing prefixes.

The n-th symbol is 1 exactly when the bottom digit of the regular
representation of n equals k.  Shifting an index by a basis value f_n flips
the symbol only for indices whose digits 0..n are worth f_{n+1} - 2 or
f_{n+1} - 1, which gives a direct description of where a prefix and its
shift disagree: per index (``mismatch``) or as the offsets of the mismatch
pairs (``_mismatch_offsets``), which the scaled bound checks sum over.

``symbol_at`` splits an index below f_{2L} with one bisect of the basis's
shifted low table (see ``numeration``).  ``mismatch`` keeps its walk down to
f_{n+2}: splitting first was slower on its calls, and would build the low
table for calls that need none.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .numeration import _reduce, get_basis, regular_vectors


def symbol_at(k: int, n: int) -> int:
    """Symbol of the fixed point at index ``n`` (0-based), in O(log n) time."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("index must be >= 0")
    basis = get_basis(k)
    low = basis.low_table()
    if len(low) > k:
        # The table's size is a basis value f_L >= f_1.  Below f_{2L} the
        # entry of ``_high`` found by one bisect carries n's digits from
        # position L up (see ``numeration.to_digits``), so subtracting it
        # leaves the value of digits 0..L-1, bottom digit included (and no
        # digits at all when it is 0).  Above f_{2L} the walk first leaves
        # the value of n's digits below 2L.
        high = basis._high
        if n >= basis._f2L:
            basis._extend_past(n)
            n = _reduce(basis._vals, n, basis._f2L)
        rem = n - high[bisect_right(high, n) - 1]
        return 1 if rem and low[rem][0] == k else 0
    # From k = 4096 up the table holds f_0's entry alone: below f_1 = k + 1
    # the walk leaves the bottom digit itself.
    basis._extend_past(n)
    return 1 if _reduce(basis._vals, n, k + 1) == k else 0


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
    basis = get_basis(k)
    basis._extend_past(i + 2)
    vals = basis._vals   # vals[n] = f_n
    # While i + 2 < f_{n+1}, digits 0..n of i are worth i itself, too little
    # to match, and f_{n+1} need not be built.  Past this test
    # vals[-1] > i + 2 >= f_{n+1}, so f_{n+2} is built too.
    if len(vals) <= n + 1 or i + 2 < vals[n + 1]:
        return _SAME
    fn1 = vals[n + 1]
    digit, low = divmod(_reduce(vals, i, vals[n + 2]), fn1)
    if digit == k:
        return _SAME
    if low == fn1 - 2:
        return _UP if n % 2 == 0 else _DOWN
    if low == fn1 - 1:
        return _DOWN if n % 2 == 0 else _UP
    return _SAME


def _mismatch_offsets(k: int, n: int, cutoff: int) -> list[int]:
    """Offsets h <= cutoff, increasing, with a mismatch pair at f_{n+1}-2+h, f_{n+1}-1+h.

    h ranges over the values of regular digit vectors whose position i
    weighs f_{n+1+i}, the walk ``regular_vectors`` takes from basis index
    n+1, excluding vectors whose bottom digit is k (those indices carry a
    digit k at position n+1 and the shift leaves their symbols alone).  The
    walk values each vector once and extends the basis only until a value
    passes cutoff.
    """
    return [h for h, d in regular_vectors(k, cutoff + 1, n + 1) if d[:1] != (k,)]
