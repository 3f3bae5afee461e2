"""Finite words over small integer alphabets, and the substitution 0 -> 0^k 1, 1 -> 0.

A word is an immutable ``bytes`` with one byte per symbol, so slicing,
concatenation, comparison and hashing are those of ``bytes``.  Functions
defined on binary words refuse any other symbol through
:func:`_require_binary`: :func:`substitute` and :func:`distinct_factors`
here, and ``difference``, ``difference_by_binomial``, ``shift_product``,
``block_determinism`` and ``value_affine_relation`` in ``transforms``.
:func:`to_string` renders a word whose symbols are all decimal digits.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat

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


def _next_iterate(cur: bytes, prev: bytes, k: int, limit: int) -> bytes:
    """The first ``limit`` symbols of U_{m+1} = U_m^k U_{m-1}, built by one join.

    Pieces past ``limit`` are never copied, and the k copies of ``cur`` are
    iterated, not listed, so the result is the only new allocation of its
    size.
    """
    kept = []
    for piece in chain(repeat(cur, k), (prev,)):
        if limit <= 0:
            break
        kept.append(piece[:limit])
        limit -= len(piece)
    return b"".join(kept)


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


def fixed_point_prefix(k: int, length: int) -> bytes:
    """The first ``length`` symbols of the infinite fixed point of the morphism."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    if length > LENGTH_CAP:
        raise CapExceededError(f"prefix of length {length} exceeds cap {LENGTH_CAP}")
    if length <= k:
        # The fixed point starts with U_1 = 0^k 1; its first k symbols need
        # no iterate, which at large k would not fit in memory.
        return bytes(length)
    prev = b"\x00"
    cur = b"\x00" * k + b"\x01"
    # Truncating an iterate beyond ``length`` is safe: the truncation only
    # ever bites on the final round, after which the loop exits.
    while len(cur) < length:
        prev, cur = cur, _next_iterate(cur, prev, k, length)
    return cur[:length]


def _pieces_equal(left: list[bytes], right: list) -> bool:
    """Whether the joins of the ``bytes`` pieces ``left`` and the bytes-like
    pieces ``right`` are equal, decided without joining either side: each
    overlap of a left and a right piece is one ``startswith`` memcmp."""
    if sum(map(len, left)) != sum(map(len, right)):
        return False
    pieces = iter(left)
    cur, pos = b"", 0
    for piece in right:
        view = memoryview(piece)
        while view:
            if pos == len(cur):
                cur, pos = next(pieces), 0
                continue
            m = min(len(cur) - pos, len(view))
            if not cur.startswith(view[:m], pos):
                return False
            pos += m
            view = view[m:]
    return True


def word_identities(k: int, n: int) -> tuple[bool, bool]:
    """Check two exchange identities on the iterates at index ``n``.

    First: U_{n-1} U_n equals U_n U_{n-1} with the last two symbols of the
    product exchanged (needs n >= 2 so both factors have length >= 1 and the
    product length >= 2).  Second: U_{n+2} equals U_n (U_n^k U_{n-1}*)^k where
    * exchanges the last two symbols (needs n >= 2).

    Each U_m is the first f_m symbols of the fixed point, so only U_{n+1}
    is built and U_n, U_{n-1} are its prefixes.  Both sides of each identity
    are lists of pieces: U_{n+2} is U_{n+1}^k U_n, and U_{n-1}* (|U_{n-1}| >= 2)
    is three ``memoryview`` slices of U_{n-1}.
    """
    if n < 2:
        raise ValueError("identities are stated for n >= 2")
    # Refuse U_{n+2} by index, though it is never joined.
    _require_level(k, n + 2)
    f = numeration.get_basis(k).value
    un1 = fixed_point_prefix(k, f(n + 1))
    un, un_1 = un1[: f(n)], un1[: f(n - 1)]
    view = memoryview(un_1)
    swapped = [view[:-2], view[-1:], view[-2:-1]]
    id1 = _pieces_equal([un_1, un], [un, *swapped])
    id2 = _pieces_equal([un1] * k + [un], [un] + ([un] * k + swapped) * k)
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
