"""Finite words over small integer alphabets, and the substitution 0 -> 0^k 1, 1 -> 0.

A word is an immutable ``bytes`` with one byte per symbol, so slicing,
concatenation, comparison and hashing are those of ``bytes``.  Functions
defined on binary words refuse any other symbol through
:func:`_require_binary`: :func:`substitute` and :func:`distinct_factors`
here, and ``difference``, ``difference_by_binomial``, ``shift_product``,
``block_determinism`` and ``value_affine_relation`` in ``transforms``.
:func:`to_string` renders a word whose symbols are all decimal digits.
The iterates U_m = sigma^m(0) are built by the recurrence
U_{m+1} = U_m^k U_{m-1}, but a prefix of the fixed point is the stream of
the blocks sigma^j(0) = U_j and sigma^j(1) = U_{j-1} of one short U_j
(:func:`_sigma_blocks`).  :func:`fixed_point_prefix` joins that stream;
:func:`word_identities` reads U_{n+2} = x[:f_{n+2}] from it unjoined.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat

from . import numeration
from .errors import CapExceededError

LENGTH_CAP = 100_000_000  # longest word any constructor will build

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # symbol byte -> ASCII digit


def _require_binary(w: bytes, what: str) -> None:
    # Deleting every 0 and 1 byte leaves exactly the bad symbols.
    if w.translate(None, b"\x00\x01"):
        raise ValueError(f"{what} is defined on binary words")


def to_string(w: bytes) -> str:
    """Decimal-digit rendering; only defined for words whose symbols are <= 9."""
    if max(w, default=0) > 9:
        raise ValueError("word has symbols above 9; no digit rendering")
    return w.translate(_DIGITS).decode("ascii")


def substitute(k: int, w: bytes) -> bytes:
    """Apply the morphism 0 -> 0^k 1, 1 -> 0 once to the binary word ``w``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_binary(w, "substitute")
    zeros = w.count(0)
    out_len = zeros * (k + 1) + (len(w) - zeros)
    if out_len > LENGTH_CAP:
        raise CapExceededError(f"image of length {out_len} exceeds cap {LENGTH_CAP}")
    # Route old 1s through a placeholder so the expansion of 0 cannot collide.
    return (
        w.replace(b"\x01", b"\x02")
        .replace(b"\x00", b"\x00" * k + b"\x01")
        .replace(b"\x02", b"\x00")
    )


def _next_iterate(cur: bytes, prev: bytes, k: int) -> bytes:
    """U_{m+1} = U_m^k U_{m-1}, built by one join of its k + 1 pieces."""
    return b"".join(chain(repeat(cur, k), (prev,)))


def _require_level(k: int, n: int) -> None:
    """Refuse a level n whose word U_n, of length f_n, is longer than LENGTH_CAP.

    Compares n with the last level that fits, so f_n itself is never built:
    at large n it has tens of thousands of digits, and the table up to it
    grows with n^2.
    """
    top = numeration.get_basis(k).largest_index_leq(LENGTH_CAP)
    if n > top:
        raise CapExceededError(
            f"word U_{n} at k = {k} is longer than the cap {LENGTH_CAP}; levels up to {top} fit"
        )


def _sigma_blocks(k: int, length: int) -> Iterator[tuple[bytes, int]]:
    """x[:length] as the pieces ``(word, end)``, each standing for ``word[:end]``.

    x = sigma^j(x) for every j, and sigma^j maps 0 to U_j and 1 to U_{j-1},
    so x is the join of one block per symbol of x: U_j for a 0 and U_{j-1}
    for a 1, both prefixes of U_j.  The iterates are built only up to the
    first j with f_{2j} = |sigma^j(U_j)| >= ``length``, about the square
    root of ``length`` symbols, and U_j's own head then names the blocks:
    each piece is ``(U_j, f_j)`` or ``(U_j, f_{j-1})``, and the last is
    cut to the symbols still missing.  The whole blocks are two tuples
    repeated, so the stream costs no object per block.
    """
    if length <= k:
        # The fixed point starts with U_1 = 0^k 1; its first k symbols need
        # no iterate, which at large k would not fit in memory.
        return iter(((bytes(length), length),))
    prev, cur = b"\x00", b"\x00" * k + b"\x01"  # U_0, U_1
    f_odd, f_even = k + 1, k * k + k + 1  # f_{2j-1}, f_{2j} at j = 1
    while f_even < length:
        prev, cur = cur, _next_iterate(cur, prev, k)
        f_odd = k * f_even + f_odd
        f_even = k * f_odd + f_even

    def end(i: int) -> int:
        """Where the first i blocks end: f_j per 0 and f_{j-1} per 1 of U_j[:i]."""
        zeros = cur.count(0, 0, i)
        return zeros * len(cur) + (i - zeros) * len(prev)

    # The blocks that end before ``length`` are whole; the next one is cut.
    whole = bisect_left(range(len(cur)), length, key=end) - 1
    blocks = ((cur, len(cur)), (cur, len(prev)))
    return chain(map(blocks.__getitem__, islice(cur, whole)), ((cur, length - end(whole)),))


def _require_prefix(k: int, length: int) -> None:
    """Refuse the arguments :func:`fixed_point_prefix` refuses, building nothing."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    if length > LENGTH_CAP:
        raise CapExceededError(f"prefix of length {length} exceeds cap {LENGTH_CAP}")


def fixed_point_prefix(k: int, length: int) -> bytes:
    """The first ``length`` symbols of the infinite fixed point x of the morphism.

    One join of the pieces of :func:`_sigma_blocks`, each distinct piece
    read through one ``memoryview`` prefix of its word, so no iterate
    longer than about the square root of ``length`` and no overshoot of
    ``length`` is built.
    """
    _require_prefix(k, length)
    pieces = list(_sigma_blocks(k, length))
    # A whole word is joined as itself, so a one-piece prefix is not copied.
    views = {(word, end): word if end == len(word) else memoryview(word)[:end]
             for word, end in set(pieces)}
    return b"".join(map(views.__getitem__, pieces))


def _pieces_equal(left: Iterable[tuple[bytes, int]], right: list) -> bool:
    """Whether the joins of the left pieces, each a prefix ``word[:end]`` of
    a ``bytes`` word given as ``(word, end)`` with ``end <= len(word)``,
    and of the bytes-like pieces ``right`` are equal, decided without
    joining either side: each overlap of a left and a right piece is one
    ``startswith`` memcmp.  The pieces carry their own lengths: left
    pieces that run short of the right ones or past them compare unequal.
    """
    pieces = iter(left)
    cur, end, pos = b"", 0, 0
    for piece in right:
        view = memoryview(piece)
        while view:
            if pos == end:
                (cur, end), pos = next(pieces, (b"", -1)), 0
                if end < 0:
                    return False
                continue
            m = min(end - pos, len(view))
            if not cur.startswith(view[:m], pos):
                return False
            pos += m
            view = view[m:]
    return pos == end and not any(end for _, end in pieces)


def word_identities(k: int, n: int) -> tuple[bool, bool]:
    """Check two exchange identities on the iterates at index ``n``.

    First: U_{n-1} U_n equals U_n U_{n-1} with the last two symbols of the
    product exchanged (needs n >= 2 so both factors have length >= 1 and the
    product length >= 2).  Second: U_{n+2} equals U_n (U_n^k U_{n-1}*)^k where
    * exchanges the last two symbols (needs n >= 2).

    Each U_m is the first f_m symbols of the fixed point, so U_n is the only
    word built and U_{n-1} is a ``memoryview`` prefix of it.  On the left
    U_{n+2} is the stream of the sigma^j blocks of its f_{n+2} symbols
    (:func:`_sigma_blocks`), matched as it comes and never joined, so
    neither side is built by the recurrence U_{n+2} = U_{n+1}^k U_n; on
    the right U_{n-1}* (|U_{n-1}| >= 2) is three slices of the view of
    U_{n-1}.
    """
    if n < 2:
        raise ValueError("identities are stated for n >= 2")
    # Refuse U_{n+2} by index, though it is never joined.
    _require_level(k, n + 2)
    f = numeration.get_basis(k).value
    un = fixed_point_prefix(k, f(n))
    view = memoryview(un)
    un_1 = view[: f(n - 1)]
    swapped = [un_1[:-2], un_1[-1:], un_1[-2:-1]]
    id1 = _pieces_equal([(un, f(n - 1)), (un, f(n))], [view, *swapped])
    id2 = _pieces_equal(_sigma_blocks(k, f(n + 2)), [view] + ([view] * k + swapped) * k)
    return id1, id2


# Positions packed per pass of the lanes; passes read windows that overlap
# by width - 1 symbols, so memory stays 8 bytes per position of one pass.
_LANE_CHUNK = 1 << 16
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII bit -> symbol byte

# The last word packed, its lane width, and its distinct lanes of that width.
_kept_lanes: tuple[bytes, int, set[int]] = (b"", 0, set())


def _lanes(w: bytes, width: int) -> tuple[int, set[int]]:
    """The distinct lanes of a width of at least ``width``: (that width, the lanes).

    A lane is one native 8-byte word whose bit j is w[i + j] for j below
    the width, lane byte b holding bits 8b..8b+7.  Each lane byte is
    assembled for a whole pass at once from the big-endian integers of its
    eight shifted columns, whose 0/1 bytes OR without carries, then strided
    into a buffer read back as native words into a ``set``.  The distinct
    lanes of the last word packed are kept, keyed by its bytes, since every
    sweep cell builds its own prefix, and are answered again for any width
    up to theirs.  ``w`` must be binary ``bytes``.
    """
    global _kept_lanes
    kept, kept_width, kept_found = _kept_lanes
    if width <= kept_width and w == kept:
        return kept_width, kept_found
    found: set[int] = set()
    positions = len(w) - width + 1
    for start in range(0, max(positions, 0), _LANE_CHUNK):
        count = min(_LANE_CHUNK, positions - start)
        buf = bytearray(8 * count)
        for b in range(width // 8):
            lane_byte = 0
            for t in range(8):
                j = start + 8 * b + t
                lane_byte |= int.from_bytes(w[j : j + count], "big") << t
            buf[b::8] = lane_byte.to_bytes(count, "big")
        found.update(memoryview(buf).cast("Q"))
    _kept_lanes = (w, width, found)
    return width, found


def distinct_factors(w: bytes, m: int) -> set[bytes]:
    """All distinct factors of length ``m`` occurring in the binary word ``w``.

    Past m = 64 they are the slices ``w[i:i+m]``.  Up to 64 the factors at
    positions 0..len(w) - W are the kept or packed lanes of width
    W = 8*ceil(m/8) or wider, each masked to its low m bits, so a shorter m
    on an equal word reuses the lanes of a wider pass
    (``verify --lemma blocks --n 1..8`` packs each word at widths 8 and 16
    only).  Only the distinct masked lanes are decoded, from their bytes in
    native order read little-endian, so the result does not depend on the
    byte order.  The last W - m positions, which no lane of width W
    starts, are slices.
    """
    if m < 0:
        raise ValueError("factor length must be >= 0")
    _require_binary(w, "distinct_factors")
    w = bytes(w)  # the same object for bytes; a bytearray's slices are not keys
    positions = len(w) - m + 1
    if positions <= 0:
        return set()
    if m == 0:
        return {b""}
    if m > 64:
        return {w[i : i + m] for i in range(positions)}
    width, lanes = _lanes(w, -(-m // 8) * 8)
    mask = (1 << m) - 1
    masked = {int.from_bytes(code.to_bytes(8, sys.byteorder), "little") & mask for code in lanes}
    factors = {format(lane, f"0{m}b")[::-1].encode().translate(_BITS) for lane in masked}
    factors.update(w[i : i + m] for i in range(max(len(w) - width + 1, 0), positions))
    return factors
