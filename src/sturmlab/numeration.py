"""Positional numeration on the recurrence f_{i+2} = k*f_{i+1} + f_i.

The basis starts f_0 = 1, f_1 = k + 1, and positions 0, 1, 2, ... of a
digit vector weigh f_0, f_1, f_2, ...  A digit vector is *regular* when
every digit lies in 0..k and a digit equal to k forces a zero just below it;
each non-negative integer then has exactly one regular representation, so
``normalize`` regularizes any vector by digitizing its value greedily.
Digit vectors are plain little-endian tuples of ints; this module is the only
one that walks a value's digits, and ``_window`` is its one walk and its
one split rule: the values that share n's digits at positions s and up are
exactly [n - r, n - r + w), where r is the value of n's digits below s and
w is f_s, or f_{s-1} when n's digit at s is k, since a digit k forces a 0
below it.  One greedy walk from n's top position down to s gives r and n's
digits from s up, and ``_window`` hands both on.  The three range kernels,
``digit_vectors`` here and ``symbols_at`` and ``mismatches`` in
``access``, and the scalar ``to_digits`` digitise with it alone.

The range kernels take a ``range`` of step 1, which is what every sweep
passes; k, the start (and n) are checked when a kernel is called, with its
scalar's error text.  ``_windows`` splits the range once per window it
meets, and a kernel answers each window with one slice of a per-k table,
joined in C by ``itertools.chain.from_iterable``, so no Python frame runs
per index.  ``digit_vectors``, the digitising kernel, keeps windows at
position s = max(L, 1), where f_L is the size of the low table: a window
is ``low[a:b]`` when it has no upper digits and
``map(add, padded[a:b], repeat(upper))`` otherwise.  From k = 4096 up
L = 0, and the rows below s = 1 are the one-digit vectors
``zip(range(a, b))``.  ``to_digits`` reads ``low[n]`` below f_L and
otherwise takes the same rule for one value: ``padded[n - base] + upper``
from n's window at L.
Medians of ten fresh processes, best of seven runs each (tables built
first; 2 vCPUs, CPython 3.11): the 100,000 values below 10^5 at k = 1 take
0.010 s in one ``digit_vectors`` call; at k = 5 the 392,229 values from
f_{2L} = 607,771 to 10^6 take 0.025 s, and at k = 4096 the values below
10^5 0.006 s.  A ``to_digits`` call costs 1.44 us over the values below
10^5 at k = 1, against 3.8 us through a one-value ``digit_vectors``
call, so the scalar reads its window and not the kernel.

``regular_vectors``, the in-order walk, goes by blocks: the regular vectors
on the low positions, those below the largest basis value <= 4096, are
walked once, and each vector of the walk over the positions above is
followed by a prefix of that block, joined in C.  The low table is built by
a memoised greedy step, never by the walk, so a round trip between the two
compares independent routes.  Best of seven runs in one process (2 vCPUs,
CPython 3.11): walking the 400,000 vectors below 10^5 at k = 1..4 takes
0.062 s, and building the four low tables 0.005 s.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError

UNIQUENESS_CAP = 5_000_000

# Values below the largest basis value <= this bound are digitised by one
# table lookup; each Basis builds its table on first use.  ``regular_vectors``
# walks the vectors below the same basis value once per call, as its block.
_LOW_TABLE_BOUND = 4096

_basis_cache: dict[int, "Basis"] = {}


class Basis:
    """The recurrence values for one k: a table that the per-index paths
    extend on demand, and any other value by doubling."""

    __slots__ = ("k", "_vals", "_tables")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._vals = [1, k + 1]   # _vals[n] holds f_n
        self._tables: tuple | None = None

    def value(self, n: int) -> int:
        """f_n for n >= 0 (f_0 = 1, f_1 = k + 1), read from the table when it reaches n.

        Past the table, f_n = G_{n+1} + G_n, where [[k, 1], [1, 0]]^n =
        [[G_{n+1}, G_n], [G_n, G_{n-1}]], by doubling; the table is not
        extended, so a level-n value costs no table of all levels below it.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if n < len(self._vals):
            return self._vals[n]
        k = self.k
        g, h = 0, 1   # G_m, G_{m+1}, from m = 0 to m = n bit by bit
        for bit in bin(n)[2:]:
            g, h = g * (2 * h - k * g), h * h + g * g   # m -> 2m
            if bit == "1":
                g, h = h, k * h + g   # m -> m + 1
        return g + h

    def largest_index_leq(self, x: int) -> int:
        """Largest n >= 0 with f_n <= x, or -1 when x < 1; the table is
        extended past x first, the only extension by value."""
        vals = self._vals
        while vals[-1] <= x:
            vals.append(self.k * vals[-1] + vals[-2])
        return bisect_right(vals, x) - 1

    def _extend_to(self, n: int) -> None:
        vals = self._vals
        while len(vals) <= n:
            vals.append(self.k * vals[-1] + vals[-2])

    def tables(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], bytes]:
        """``(low, padded, bottom)``, built once, where f_L is the largest basis
        value <= ``_LOW_TABLE_BOUND``.

        ``low[n]`` is the ``to_digits`` format of n, for every n < f_L.  It is
        built by a memoised greedy step, never from ``regular_vectors``, so
        the table is an independent digitisation and not a copy of the walk:
        with f_top the largest basis value <= n, entry n is the top greedy
        digit of ``divmod(n, f_top)`` placed above the entry of the
        remainder, which is already in the table.  ``padded`` holds the same
        entries padded with zeros to L digits, the rows that sit below
        digits at positions L and up.  ``bottom[n]`` is 1 where the bottom
        digit of ``low[n]`` is k and 0 elsewhere, read from ``low`` alone.
        From k = 4096 up L = 0: ``low`` and ``padded`` hold f_0's entry
        ``()`` alone and ``bottom`` one zero byte.
        """
        if self._tables is None:
            width = self.largest_index_leq(_LOW_TABLE_BOUND)   # L
            vals = self._vals
            low: list[tuple[int, ...]] = [()]
            top = 0   # n's highest position
            for n in range(1, vals[width]):
                if n == vals[top + 1]:
                    top += 1
                digit, rem = divmod(n, vals[top])
                below = low[rem]
                low.append(below + (0,) * (top - len(below)) + (digit,))
            padded = [d + (0,) * (width - len(d)) for d in low]
            bottom = bytes(d[:1] == (self.k,) for d in low)
            self._tables = (low, padded, bottom)
        return self._tables


def get_basis(k: int) -> Basis:
    """Shared per-k basis table."""
    b = _basis_cache.get(k)
    if b is None:
        b = _basis_cache[k] = Basis(k)
    return b


def is_regular(k: int, digits: Sequence[int]) -> bool:
    """True when digits lie in 0..k and a digit k has a 0 below it."""
    below = 0
    for x in digits:
        if x < 0 or x > k or (x == k and below):
            return False
        below = x
    return True


def _window(basis: Basis, n: int, s: int) -> tuple[int, int, tuple[int, ...]]:
    """The values that share n's digits at positions s and up, as ``(base, end,
    upper)``: the interval ``[base, end)`` and those digits.

    The one greedy walk: the basis table is extended past n, and from n's
    top position down to s each step bisects the table for the largest
    basis value f_j <= the remainder and takes ``divmod`` by it, so there
    is one step per nonzero digit (a digit is 0 wherever the remainder is
    below the basis value).  It gives ``upper``, n's digits from s up
    (empty when n < f_s), and the value r of n's digits below s (worth less
    than f_s).  Let base = n - r, the value of n's digits from s up with
    zeros below, and w = f_{s-1} when n's digit at s is k and s >= 1, f_s
    otherwise.  Every x < w has a regular vector on positions 0..s-1, and
    joined below n's digits from s up it keeps the digit rule (a digit k at
    s finds a 0 at s - 1, as x < f_{s-1}), so by uniqueness it is the
    vector of base + x.  Conversely a value with those digits from s up is
    base plus the value of a regular vector on positions 0..s-1 that joins
    them, which is below w.  So the window is exactly [base, base + w), and
    the value of a member's digits below s is its distance from base.

    f_s must already be in the table (s < ``len(basis._vals)``); the walk
    does not extend it to s.  Every caller meets that: the table starts at
    f_1, and ``tables()``, which every caller builds first, extends it past
    f_L, so it holds f_s for every s <= max(L, 1); ``mismatches`` takes
    windows at s = n + 1 only after ``largest_index_leq(stop + 1) > n``,
    which extends it past f_{n+1}.
    """
    vals = basis._vals
    digits = [0] * (basis.largest_index_leq(n) + 1 - s)   # positions s..top
    rem = n
    floor = vals[s]
    while rem >= floor:
        j = bisect_right(vals, rem) - 1
        digits[j - s], rem = divmod(rem, vals[j])
    upper = tuple(digits)
    base = n - rem
    return base, base + (vals[s - 1] if upper[:1] == (basis.k,) and s else vals[s]), upper


def _require_range(values: range, what: str) -> None:
    """Refuse anything but a range of step 1 with a start >= 0; ``what``
    names a member in the message, as the kernel's scalar does."""
    if type(values) is not range or values.step != 1:
        raise TypeError("expected a range of step 1")
    if values.start < 0:
        raise ValueError(f"{what} must be >= 0")


def _windows(basis: Basis, values: range, s: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The ``_window``s at s that a range of step 1 meets, in order, one split each.

    Yields ``(lo, hi, upper)`` for each: the range's members in that window
    are base + lo .. base + hi - 1, so lo and hi are their distances from
    the window's base, which is the value of their digits below s, and
    ``upper`` is their digits from s up.
    """
    n, stop = values.start, values.stop
    while n < stop:
        base, end, upper = _window(basis, n, s)
        end = min(end, stop)
        yield n - base, end - base, upper
        n = end


def digit_vectors(k: int, values: range) -> Iterator[tuple[int, ...]]:
    """The unique regular digit vector of each value of a range of step 1.

    Little-endian, with no trailing zeros; ``()`` for 0; in increasing
    value.  k and the range's start are checked when the kernel is called.
    The range is split into the ``_window``s at position s = max(L, 1),
    where f_L is the size of ``low`` (see ``Basis.tables``), one split per
    window.  The digits of a member from s up are its window's, which
    ``_windows`` hands on; its digits below s are those of its distance
    from the window's base.  For L >= 1 that is one row of the tables: its
    ``low`` entry when there are no upper digits (the window [0, f_L)), its
    ``padded`` entry below them otherwise.  From k = 4096 up (L = 0) a
    distance x below f_1 = k + 1 is the one digit (x,), or ``()`` for the
    value 0.  So each window is answered by one slice of a table or one run
    of a range, with the upper digits joined to each row in C.
    """
    basis = get_basis(k)
    _require_range(values, "value")
    low, padded, _bottom = basis.tables()
    width = len(padded[0])   # L
    s = max(width, 1)

    def rows() -> Iterator[Iterable[tuple[int, ...]]]:
        for lo, hi, upper in _windows(basis, values, s):
            if upper:
                below = padded[lo:hi] if width else zip(range(lo, hi))
                yield map(add, below, repeat(upper))
            elif width:
                yield low[lo:hi]
            else:   # the window [0, k + 1)
                yield chain(low[lo:1], zip(range(max(lo, 1), hi)))

    return chain.from_iterable(rows())


def to_digits(k: int, n: int) -> tuple[int, ...]:
    """The unique regular digit vector of value ``n`` (see ``digit_vectors``).

    Below f_L the ``low`` entry; otherwise ``digit_vectors``' rule for one
    value: n's ``_window`` at L gives the digits from L up, and the
    ``padded`` entry of n's distance from the window's base goes beneath
    them.
    """
    basis = get_basis(k)
    if n < 0:
        raise ValueError("value must be >= 0")
    low, padded, _bottom = basis.tables()
    if n < len(low):
        return low[n]
    base, _end, upper = _window(basis, n, len(padded[0]))
    return padded[n - base] + upper


def from_digits(k: int, digits: Iterable[int]) -> int:
    """Value of a digit vector (digits need not be regular)."""
    seq = tuple(digits)
    if min(seq, default=0) < 0:
        raise ValueError("digits must be non-negative")
    basis = get_basis(k)
    basis._extend_to(len(seq) - 1)
    return sum(map(mul, seq, basis._vals))


def normalize(k: int, digits: Iterable[int]) -> tuple[int, ...]:
    """Regularize a digit vector without changing its value (no trailing zeros).

    Every value has exactly one regular vector, so the regular form of a
    vector is the greedy digitization of its value.  Digits must already
    lie in 0..k.
    """
    d = tuple(digits)
    if min(d, default=0) < 0:
        raise ValueError("digits must be non-negative")
    if max(d, default=0) > k:
        raise ValueError("digits must be <= k; only the adjacency rule is repaired")
    return to_digits(k, from_digits(k, d))


def _walk(k: int, vals: list[int], bound: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(value, digits)`` for every regular vector worth less than
    ``bound`` on the positions that the weights ``vals`` span, in increasing value.

    An iterative depth-first walk pruned only by partial value: each step
    raises the lowest digit that the digit rule and the bound let rise and
    clears the digits below it.  A digit may rise while it is below k and
    the digit above it is not k; clearing leaves a zero under every raised
    digit.  ``vals`` holds weights f_s, f_{s+1}, ... below ``bound``.
    """
    width = len(vals)
    digits: list[int] = []   # no trailing zeros
    value = 0
    while True:
        yield value, tuple(digits)
        low = 0   # value of the digits below position i
        i = 0
        top = len(digits)
        while True:
            if i == width:
                return
            f = vals[i]
            if i < top:
                d = digits[i]
                if d < k and (i + 1 == top or digits[i + 1] != k) and value - low + f < bound:
                    digits[i] = d + 1
                    break
                low += d * f
            elif value - low + f < bound:
                digits.extend([0] * (i - top) + [1])
                break
            i += 1
        digits[:i] = [0] * i
        value += f - low


def regular_vectors(
    k: int, bound: int, start: int = 0
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(value, digits)`` for every regular vector of value below ``bound``,
    where position i weighs f_{start+i}.

    Every vector obeying the digit rule whose value is below ``bound`` is
    reached, since the walk is pruned only by partial value and partial
    values stay below ``bound``.  The regular vectors below a position are
    worth less than its weight for every ``start >= 0``, so regular vectors
    in value order are in lexicographic order, most significant digit
    first, and they come out in increasing value; digits are in
    ``to_digits`` format.  Nothing is yielded when ``bound < 1``.  The
    weights are stepped from f_start and f_{start+1}, so the walk holds
    only the weights below ``bound``.

    The walk is taken in blocks.  Let W be the largest index with
    f_{start+W} <= ``_LOW_TABLE_BOUND``.  The low block, every regular
    vector on positions 0..W-1 (those worth less than f_{start+W}), is
    walked once and kept with its values and its digits padded to W.  The
    high part, positions W and up, is walked vector by vector; a high
    vector (H, h) is followed by every low vector l with H + l < ``bound``,
    a prefix of the block found by one bisect.  The digit rule links only
    neighbouring positions, so (l, h) is regular exactly when both parts are
    and, at the junction, a digit k at position W has a zero below it: when
    h[0] == k the prefix is cut further to the lows below f_{start+W-1}.
    Taking the high vectors in order and the lows of each in order is
    lexicographic order, so the values still increase.  When W <= 0 (from
    k = 4096 up, or when f_start is past ``_LOW_TABLE_BOUND``) there is no
    block, and when ``bound`` is at most f_{start+W} the block is the whole
    walk: both run the walk vector by vector, so no block of k + 1 vectors
    is ever built.
    """
    if bound < 1:
        return
    basis = get_basis(k)
    vals = []
    f, g = basis.value(start), basis.value(start + 1)
    while f < bound:
        vals.append(f)
        f, g = g, k * g + f
    w = basis.largest_index_leq(_LOW_TABLE_BOUND) - start   # W
    if not 0 < w < len(vals):
        yield from _walk(k, vals, bound)
        return
    block = list(_walk(k, vals[:w], vals[w]))
    low_vals = [value for value, _ in block]
    padded = [digits + (0,) * (w - len(digits)) for _, digits in block]
    below_k = bisect_left(low_vals, vals[w - 1])   # the lows with a zero at w - 1
    high = _walk(k, vals[w:], bound)
    next(high)   # the high vector 0: the block itself, unpadded
    yield from block
    for value, digits in high:
        cut = bisect_left(low_vals, bound - value)
        if digits[0] == k:
            cut = min(cut, below_k)
        yield from zip(map(add, islice(low_vals, cut), repeat(value)),
                       map(add, islice(padded, cut), repeat(digits)))


def _require_sweep_bound(bound: int) -> None:
    """Refuse an exhaustive uniqueness sweep outside 1..UNIQUENESS_CAP."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > UNIQUENESS_CAP:
        raise CapExceededError(f"uniqueness sweep bound is capped at {UNIQUENESS_CAP:_}")


def uniqueness_oracle(k: int, bound: int) -> bool:
    """Exhaustively confirm each value below ``bound`` has exactly one regular vector.

    ``regular_vectors`` reaches every vector that obeys the digit rule and
    is worth less than ``bound``; uniqueness holds exactly when their values
    come out as 0, 1, ..., bound - 1.
    """
    _require_sweep_bound(bound)
    expected = 0
    for value, _digits in regular_vectors(k, bound):
        if value != expected:
            return False
        expected += 1
    return expected == bound
