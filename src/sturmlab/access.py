"""Random access into the fixed point, without materializing prefixes.

The n-th symbol is 1 exactly when the bottom digit of the regular
representation of n equals k.  Shifting an index by a basis value f_n flips
the symbol only for indices whose digits 0..n are worth f_{n+1} - 2 or
f_{n+1} - 1, which gives a direct description of where a prefix and its
shift disagree: per index (``mismatches``) or as the offsets of the mismatch
pairs (``_mismatch_offsets``), which the scaled bound checks read.

The range forms ``symbols_at`` and ``mismatches`` are the kernels.  Each
takes a ``range`` of step 1, checks k (and n) and the start when it is
called, with the scalar's error text, and splits the range once per
``numeration._window`` it meets (``numeration._windows``): the values that
share their digits at positions s and up, where a member's digits below s
are worth its distance from the window's base.  Each window is answered by
one slice of a per-k table, and ``itertools.chain.from_iterable`` joins
the slices, so no Python frame runs per index.
``symbols_at`` keeps windows at s = max(L, 1), where f_L is the size of the
low table, and slices ``bottom``, which ``Basis.tables`` builds from the
low table alone: 1 where a row's bottom digit is k.  From k = 4096 up
L = 0, and at s = 1 a distance below f_1 = k + 1 is its own bottom digit,
so a window is a run of 0s and the 1 at distance k.
``mismatches`` reads only i's digits 0..n+1 for the verdict at i.  For
n + 2 <= L it keeps windows at s = L, where the verdict is the one at i's
distance from the base, and slices V_L, the verdicts at every distance
below f_L, built once per (k, n) by V_{m+1} = V_m^k V_{m-1} (proof at
``_verdict_table``) and kept in ``_verdict_tables``.  For n + 2 > L it
keeps windows at s = n + 1, whose distances are the values of digits 0..n,
and reads each as two runs of V_{n+1} = SAME^{f_{n+1}-2} (first, second):
SAME up to f_{n+1} - 2, then a slice of the pair.  A window whose digit
at n + 1 is k is all SAME and f_n wide, and f_n <= f_{n+1} - 2 (it fails
only at k = 1 with n <= 1, where L = 16), so it is such a slice too.
``symbol_at`` and ``mismatch`` are the kernels over a one-index range.
Neither ``bottom`` nor V_L reads the prefix builder or the
in-order walk, so ``lemma2`` and ``lemma4`` still compare two routes.
Medians of ten fresh processes, best of seven runs each (tables built
first; 2 vCPUs, CPython 3.11): 100,000 indices below 10^5 at k = 1 take
0.0005 s in one ``symbols_at`` call; 10,000 indices below 10^4 at each
level n = 0..9 at k = 2 take 0.0010 s in ten ``mismatches`` calls.
Building one V_L takes 11-59 us at k = 1..3, more than a scalar call, so
it is built once.  Over the indices below 10^5 a ``symbol_at`` call costs
3.2 us (k = 1) and a ``mismatch`` call 3.6 us (k = 2, level 5): a
one-index range pays for the range check and the kernel's generators.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from . import numeration


def symbols_at(k: int, indices: range) -> Iterator[int]:
    """Symbol of the fixed point at each index of a range of step 1, in order:
    a slice of ``bottom`` per window at max(L, 1), or from k = 4096 up
    (L = 0) a run of 0s and the 1 at distance k (see the module docstring).
    """
    basis = numeration.get_basis(k)
    numeration._require_range(indices, "index")
    _low, padded, bottom = basis.tables()
    width = len(padded[0])   # L
    windows = numeration._windows(basis, indices, max(width, 1))
    if width:
        return chain.from_iterable(bottom[lo:hi] for lo, hi, _ in windows)

    def runs() -> Iterator[Iterable[int]]:
        for lo, hi, _ in windows:
            yield repeat(0, min(hi, k) - lo)
            if hi > k:
                yield (1,)

    return chain.from_iterable(runs())


def symbol_at(k: int, n: int) -> int:
    """Symbol of the fixed point at index ``n`` (0-based), in O(log n) time:
    ``symbols_at`` over the one index."""
    return next(symbols_at(k, range(n, n + 1)))


class MismatchVerdict(NamedTuple):
    """Whether symbols at i and i + f_n differ, and the sign of (new - old)."""

    differs: bool
    sign: int


# Verdicts are immutable, so every call and table shares these three.
_SAME = MismatchVerdict(False, 0)
_UP = MismatchVerdict(True, 1)
_DOWN = MismatchVerdict(True, -1)


# The verdicts where digits 0..n are worth f_{n+1} - 2 and f_{n+1} - 1, by n % 2.
_PAIRS = ((_UP, _DOWN), (_DOWN, _UP))

# V_L by (k, n), built on first use; see ``_verdict_table``.
_verdict_tables: dict[tuple[int, int], list[MismatchVerdict]] = {}


def _verdict_table(basis: numeration.Basis, n: int) -> list[MismatchVerdict]:
    """V_L, the verdict at every distance below f_L, for a level n with n + 2 <= L.

    The verdict at i reads only digits 0..n+1 of i.  Below f_{n+1} those
    are i's own, worth i, so V_{n+1} = SAME^{f_{n+1}-2} (first, second).
    A value below f_{n+2} is d f_{n+1} + r with d its digit at n + 1: for
    d < k, r runs over [0, f_{n+1}) with r's verdict; for d = k, every
    verdict is SAME, so V_{n+2} = V_{n+1}^k SAME^{f_n}.  For m >= n + 2
    the values below f_{m+1} split by their digit at m, which the verdict
    does not read: k blocks of f_m, then f_{m-1} values under a digit k,
    so V_{m+1} = V_m^k V_{m-1}.  Built once per (k, n) from the basis
    alone and kept in ``_verdict_tables``.
    """
    table = _verdict_tables.get((basis.k, n))
    if table is None:
        k = basis.k
        prev = [_SAME] * (basis.value(n + 1) - 2) + list(_PAIRS[n % 2])   # V_{n+1}
        table = prev * k + [_SAME] * basis.value(n)   # V_{n+2}
        for m in range(n + 2, len(basis.tables()[1][0])):
            prev, table = table, table * k + prev   # V_{m+1}
        _verdict_tables[basis.k, n] = table
    return table


def mismatches(k: int, n: int, indices: range) -> Iterator[MismatchVerdict]:
    """Compare the fixed point at i and i + f_n by digits alone, for each index
    i of a range of step 1, in order.

    The symbols differ exactly when digits 0..n of i reproduce those of
    f_{n+1} - 2 or f_{n+1} - 1 while the digit of i at position n + 1 stays
    below k.  The sign is (-1)^n on the first pattern and flips on the second.
    Digits 0..n of a regular vector are the regular vector of their value, which
    is below f_{n+1}; as regular vectors are unique, the patterns match exactly
    when that value equals f_{n+1} - 2 or f_{n+1} - 1.

    n, k and the range's start are checked when the kernel is called.
    For n + 2 <= L each window at s = L that the range meets is a slice of
    V_L (see ``_verdict_table``); V_L starts with V_{L-1}, so a window
    whose digit at L is k, f_{L-1} wide, is one too.  For n + 2 > L each
    window at s = n + 1 is a run of SAME below f_{n+1} - 2 and a slice of
    the pair at f_{n+1} - 2 and f_{n+1} - 1, and a window whose digit at
    n + 1 is k lies below f_{n+1} - 2 (see the module docstring).  A range
    whose last index i has i + 2 < f_{n+1} is all SAME, a run per window
    at max(L, 1), and f_{n+1} is not built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = numeration.get_basis(k)
    numeration._require_range(indices, "index")
    width = len(basis.tables()[1][0])   # L
    if basis.largest_index_leq(indices.stop + 1) <= n:   # the last index plus 2 < f_{n+1}
        windows = numeration._windows(basis, indices, max(width, 1))
        return chain.from_iterable(repeat(_SAME, hi - lo) for lo, hi, _ in windows)
    if n + 2 <= width:
        table = _verdict_table(basis, n)
        windows = numeration._windows(basis, indices, width)
        return chain.from_iterable(table[lo:hi] for lo, hi, _ in windows)
    edge = basis.value(n + 1) - 2   # the first mismatch of V_{n+1}
    pair = _PAIRS[n % 2]

    def runs() -> Iterator[Iterable[MismatchVerdict]]:
        for lo, hi, _ in numeration._windows(basis, indices, n + 1):
            yield repeat(_SAME, min(hi, edge) - lo)
            if hi > edge:
                yield pair[max(lo - edge, 0):hi - edge]

    return chain.from_iterable(runs())


def mismatch(k: int, i: int, n: int) -> MismatchVerdict:
    """Compare the fixed point at i and i + f_n by digits alone: ``mismatches``
    over the one index."""
    return next(mismatches(k, n, range(i, i + 1)))


def _mismatch_offsets(k: int, n: int, cutoff: int) -> list[int]:
    """Offsets h <= cutoff, increasing, with a mismatch pair at f_{n+1}-2+h, f_{n+1}-1+h.

    h ranges over the values of regular digit vectors whose position i
    weighs f_{n+1+i}, the walk ``regular_vectors`` takes from basis index
    n+1, excluding vectors whose bottom digit is k (those indices carry a
    digit k at position n+1 and the shift leaves their symbols alone).  The
    walk values each vector once and extends the basis only until a value
    passes cutoff.
    """
    return [h for h, d in numeration.regular_vectors(k, cutoff + 1, n + 1) if d[:1] != (k,)]
