"""Finite words over small integer alphabets, and the substitution 0 -> 0^k 1, 1 -> 0.

Words are immutable, backed by ``bytes`` (one byte per symbol).  The binary
subclass :class:`Word` is the workhorse; :class:`GeneralWord` admits larger
alphabets so that coded products of binary words stay first-class values.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .errors import CapExceededError
from .numeration import get_basis

LENGTH_CAP = 100_000_000  # longest word any constructor will build

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # symbol byte -> ASCII digit

WordLike = Union[str, bytes, bytearray, Iterable[int], "GeneralWord"]


def _coerce_symbols(data: WordLike) -> bytes:
    if isinstance(data, GeneralWord):
        return data._sym
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    if isinstance(data, str):
        try:
            return bytes(int(c) for c in data)
        except ValueError:
            raise ValueError(f"word string must be decimal digits, got {data!r}") from None
    return bytes(data)


class GeneralWord:
    """An immutable word whose symbols are small non-negative integers."""

    __slots__ = ("_sym", "_alpha")

    def __init__(self, data: WordLike = b"", alphabet_size: int | None = None):
        sym = _coerce_symbols(data)
        if len(sym) > LENGTH_CAP:
            raise CapExceededError(
                f"word of length {len(sym)} exceeds cap {LENGTH_CAP}"
            )
        hi = max(sym) if sym else 0
        if alphabet_size is None:
            alphabet_size = hi + 1
        elif hi >= alphabet_size:
            raise ValueError(
                f"symbol {hi} out of range for alphabet of size {alphabet_size}"
            )
        self._sym = sym
        self._alpha = alphabet_size

    @classmethod
    def _wrap(cls, sym: bytes, alphabet_size: int) -> "GeneralWord":
        # Trusted fast path: callers guarantee symbols < alphabet_size.
        if len(sym) > LENGTH_CAP:
            raise CapExceededError(
                f"word of length {len(sym)} exceeds cap {LENGTH_CAP}"
            )
        w = object.__new__(cls)
        w._sym = sym
        w._alpha = alphabet_size
        return w

    @property
    def symbols(self) -> bytes:
        return self._sym

    @property
    def alphabet_size(self) -> int:
        return self._alpha

    def __len__(self) -> int:
        return len(self._sym)

    def __iter__(self) -> Iterator[int]:
        return iter(self._sym)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return type(self)._wrap(self._sym[idx], self._alpha)
        return self._sym[idx]

    def __eq__(self, other) -> bool:
        if isinstance(other, GeneralWord):
            return self._sym == other._sym
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._sym)

    def __add__(self, other: "GeneralWord") -> "GeneralWord":
        if not isinstance(other, GeneralWord):
            return NotImplemented
        return type(self)._wrap(
            self._sym + other._sym, max(self._alpha, other._alpha)
        )

    def __mul__(self, times: int) -> "GeneralWord":
        if not isinstance(times, int):
            return NotImplemented
        if times < 0:
            raise ValueError("repetition count must be non-negative")
        if len(self._sym) * times > LENGTH_CAP:
            raise CapExceededError(
                f"word of length {len(self._sym) * times} exceeds cap {LENGTH_CAP}"
            )
        return type(self)._wrap(self._sym * times, self._alpha)

    __rmul__ = __mul__

    def count(self, symbol: int) -> int:
        """Number of occurrences of ``symbol``."""
        return self._sym.count(symbol)

    def startswith(self, prefix: "GeneralWord") -> bool:
        return self._sym.startswith(prefix._sym)

    def to_string(self) -> str:
        """Decimal-digit rendering; only defined for alphabets of size <= 10."""
        if self._alpha > 10:
            raise ValueError("word has symbols above 9; no digit rendering")
        return self._sym.translate(_DIGITS).decode("ascii")

    def __repr__(self) -> str:
        head = self if len(self._sym) <= 40 else self[:37]
        body = head.to_string() if self._alpha <= 10 else repr(head._sym)
        if head is not self:
            body += "..."
        return f"{type(self).__name__}({body}, len={len(self._sym)})"


class Word(GeneralWord):
    """A word over the binary alphabet {0, 1}."""

    __slots__ = ()

    def __init__(self, data: WordLike = b""):
        super().__init__(data, alphabet_size=2)

    @classmethod
    def _wrap(cls, sym: bytes, alphabet_size: int = 2) -> "GeneralWord":
        if alphabet_size > 2:
            # Mixed-alphabet results outgrow the binary subclass.
            return GeneralWord._wrap(sym, alphabet_size)
        return super()._wrap(sym, 2)


def substitute(k: int, w: Word) -> Word:
    """Apply the morphism 0 -> 0^k 1, 1 -> 0 once to ``w``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sym = w.symbols
    zeros = sym.count(0)
    out_len = zeros * (k + 1) + (len(sym) - zeros)
    if out_len > LENGTH_CAP:
        raise CapExceededError(f"image of length {out_len} exceeds cap {LENGTH_CAP}")
    # Route old 1s through a placeholder so the expansion of 0 cannot collide.
    out = (
        sym.replace(b"\x01", b"\x02")
        .replace(b"\x00", b"\x00" * k + b"\x01")
        .replace(b"\x02", b"\x00")
    )
    return Word._wrap(out)


def _next_iterate(cur: bytes, prev: bytes, k: int, limit: int) -> bytes:
    """The first ``limit`` symbols of U_{m+1} = U_m^k U_{m-1}, built by one join.

    Pieces past ``limit`` are never copied, so the result is the only new
    allocation of its size.
    """
    kept = []
    for piece in [cur] * k + [prev]:
        if limit <= 0:
            break
        kept.append(piece[:limit])
        limit -= len(piece)
    return b"".join(kept)


def _chain(k: int, n: int) -> list[Word]:
    """Words U_0 .. U_n where U_0 = 0, U_1 = 0^k 1, U_{m+1} = U_m^k U_{m-1}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    # |U_n| = f_n, and the iterates only grow, so one check covers them all.
    length = get_basis(k).value(n)
    if length > LENGTH_CAP:
        raise CapExceededError(f"word of length {length} exceeds cap {LENGTH_CAP}")
    chain = [b"\x00"]
    if n >= 1:
        chain.append(b"\x00" * k + b"\x01")
    while len(chain) <= n:
        cur, prev = chain[-1], chain[-2]
        chain.append(_next_iterate(cur, prev, k, len(cur) * k + len(prev)))
    return [Word._wrap(sym) for sym in chain[: n + 1]]


def iterate_word(k: int, n: int) -> Word:
    """The n-th iterate of the morphism applied to the single letter 0."""
    return _chain(k, n)[-1]


def swap_last_two(w: GeneralWord) -> GeneralWord:
    """The word with its final two symbols exchanged."""
    if len(w) < 2:
        raise ValueError("word must have length >= 2")
    sym = w.symbols
    return type(w)._wrap(sym[:-2] + sym[-1:] + sym[-2:-1], w.alphabet_size)


def fixed_point_prefix(k: int, length: int) -> Word:
    """The first ``length`` symbols of the infinite fixed point of the morphism."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    if length > LENGTH_CAP:
        raise CapExceededError(f"prefix of length {length} exceeds cap {LENGTH_CAP}")
    if length == 0:
        return Word._wrap(b"")
    prev = b"\x00"
    cur = b"\x00" * k + b"\x01"
    # Truncating an iterate beyond ``length`` is safe: the truncation only
    # ever bites on the final round, after which the loop exits.
    while len(cur) < length:
        prev, cur = cur, _next_iterate(cur, prev, k, length)
    return Word._wrap(cur[:length])


def word_identities(k: int, n: int) -> tuple[bool, bool]:
    """Check two exchange identities on the iterates at index ``n``.

    First: U_{n-1} U_n equals U_n U_{n-1} with the last two symbols of the
    product exchanged (needs n >= 2 so both factors have length >= 1 and the
    product length >= 2).  Second: U_{n+2} equals U_n (U_n^k U_{n-1}*)^k where
    * exchanges the last two symbols (needs n >= 2).
    """
    if n < 2:
        raise ValueError("identities are stated for n >= 2")
    chain = _chain(k, n + 2)
    un_1, un, un2 = chain[n - 1], chain[n], chain[n + 2]
    id1 = un_1 + un == swap_last_two(un + un_1)
    # Match U_{n+2} piece by piece in place instead of building the right side.
    pieces = [un.symbols] + ([un.symbols] * k + [swap_last_two(un_1).symbols]) * k
    big = un2.symbols
    pos = 0
    for piece in pieces:
        if not big.startswith(piece, pos):
            return id1, False
        pos += len(piece)
    return id1, pos == len(big)


def distinct_factors(w: GeneralWord, m: int) -> set[GeneralWord]:
    """All distinct factors of length ``m`` occurring in ``w``."""
    if m < 0:
        raise ValueError("factor length must be >= 0")
    if m > len(w):
        return set()
    sym = w.symbols
    cls = type(w)
    alpha = w.alphabet_size
    return {
        cls._wrap(sym[i : i + m], alpha) for i in range(len(sym) - m + 1)
    }
