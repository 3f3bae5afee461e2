"""Random access into the fixed point, without materializing prefixes.

The n-th symbol is 1 exactly when the bottom digit of the regular
representation of n equals k.  Shifting an index by a basis value f_n flips
the symbol only for indices whose digits 0..n are worth f_{n+1} - 2 or
f_{n+1} - 1, which gives a direct description of where a prefix and its
shift disagree: per index (``mismatches``) or as the offsets of the mismatch
pairs (``_mismatch_offsets``), which the scaled bound checks sum over.

The range forms ``symbols_at`` and ``mismatches`` are the kernels: each
checks k (and n) and fetches the basis once per call, then answers each
index of an iterable in turn, so a sweep over many indices makes one call.
``symbol_at`` and ``mismatch`` wrap them for one index.  Each kernel splits
an index with ``numeration._window``, the values that share its digits at
positions s and up, and keeps that window while the next index falls
inside it, so a run of consecutive indices pays one split per window.  In
the window an index's digits below s are worth its distance from the
window's base.  ``symbols_at`` keeps windows at s = max(L, 1), where f_L
is the size of the low table, and reads the bottom digit of that distance
from one ``low`` entry; from k = 4096 up L = 0, ``low`` holds f_0's entry
alone, and at s = 1 the distance is below f_1 = k + 1, its own bottom
digit.  ``mismatches`` keeps windows at s = n + 2, and splits the distance
at f_{n+1} into the digit at n + 1 and the value of digits 0..n.  Medians
of ten fresh processes, best of seven runs each (tables built first;
2 vCPUs, CPython 3.11): 100,000 indices below 10^5 at k = 1 take 0.010 s
in one ``symbols_at`` call (0.079 s splitting every index); 10,000
indices below 10^4 at each level n = 0..9 at k = 2 take 0.022 s in ten
``mismatches`` calls (0.080 s).  Through its wrapper a scalar call makes
and runs one generator and does one split: over the indices below 10^5,
``symbol_at`` costs 1.4 us a call and ``mismatch`` (k = 2, level 5)
1.4 us.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .numeration import _window, get_basis, regular_vectors


def symbols_at(k: int, indices: Iterable[int]) -> Iterator[int]:
    """Symbol of the fixed point at each index (0-based), in O(log n) time each.

    Yields one symbol per index, in the order given; indices may repeat and
    need not increase.  k is checked (by ``get_basis``) before any index is read.
    """
    basis = get_basis(k)
    low, padded = basis.tables()
    size = len(low)   # f_L
    # The bottom digit of an index's distance from the window's base: one
    # ``low`` entry, or the distance itself from k = 4096 up (L = 0, s = 1).
    s = max(len(padded[0]), 1)   # max(L, 1)
    base = end = 0   # the window [base, end) of the last split
    for n in indices:
        if not base <= n < end:
            if n < 0:
                raise ValueError("index must be >= 0")
            base, end = _window(basis, n, s)
        rem = n - base
        yield 1 if rem and (low[rem][0] if rem < size else rem) == k else 0


def symbol_at(k: int, n: int) -> int:
    """Symbol of the fixed point at index ``n`` (0-based), in O(log n) time."""
    (symbol,) = symbols_at(k, (n,))
    return symbol


class MismatchVerdict(NamedTuple):
    """Whether symbols at i and i + f_n differ, and the sign of (new - old)."""

    differs: bool
    sign: int


# Verdicts are immutable, so every call shares these three.
_SAME = MismatchVerdict(False, 0)
_UP = MismatchVerdict(True, 1)
_DOWN = MismatchVerdict(True, -1)


def mismatches(k: int, n: int, indices: Iterable[int]) -> Iterator[MismatchVerdict]:
    """Compare the fixed point at i and i + f_n by digits alone, for each index i.

    The symbols differ exactly when digits 0..n of i reproduce those of
    f_{n+1} - 2 or f_{n+1} - 1 while the digit of i at position n + 1 stays
    below k.  The sign is (-1)^n on the first pattern and flips on the second.
    Digits 0..n of a regular vector are the regular vector of their value, which
    is below f_{n+1}; as regular vectors are unique, the patterns match exactly
    when that value equals f_{n+1} - 2 or f_{n+1} - 1.

    Yields one verdict per index, in the order given; indices may repeat and
    need not increase.  n and k are checked before any index is read.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = get_basis(k)
    vals = basis._vals   # vals[n] = f_n
    base = end = fn1 = 0   # the window [base, end) of the last split
    for i in indices:
        if not base <= i < end:
            if i < 0:
                raise ValueError("index must be >= 0")
            if i + 2 >= vals[-1]:
                basis._extend_past(i + 2)
            # While i + 2 < f_{n+1}, digits 0..n of i are worth i itself, too
            # little to match, and f_{n+1} need not be built.  Otherwise the
            # window at n + 2 holds i's digits 0..n+1 as distances from base.
            if len(vals) <= n + 1 or i + 2 < vals[n + 1]:
                yield _SAME
                continue
            base, end = _window(basis, i, n + 2)
            fn1 = vals[n + 1]
        digit, low = divmod(i - base, fn1)
        if digit == k or low < fn1 - 2:
            yield _SAME
        else:
            yield _UP if (low == fn1 - 2) == (n % 2 == 0) else _DOWN


def mismatch(k: int, i: int, n: int) -> MismatchVerdict:
    """Compare the fixed point at i and i + f_n by digits alone (see ``mismatches``)."""
    (verdict,) = mismatches(k, n, (i,))
    return verdict


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
