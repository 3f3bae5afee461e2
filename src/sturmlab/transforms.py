"""Exponent-preserving sequence transforms and their certified value identities.

Covers the mod-2 difference operator, the coded pair-with-shift product, the
affine form every pair coding takes on a three-block binary word, and the
golden-rotation power sum whose affine tie to the k=1 value is settled here
by exact enclosures.
"""

from __future__ import annotations

import struct
import sys
import warnings
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .approximants import DEPTH_CAP, SeriesTruncation, series_truncation, word_value
from .errors import (
    CapExceededError,
    DegenerateSystemError,
    IndecisiveEnclosureError,
    MissingCodingError,
    NonSturmianError,
    NonSturmianWarning,
)
from .words import GeneralWord, Word, fixed_point_prefix

PairCoding = dict[tuple[int, int], int]


def difference(u: GeneralWord, order: int = 1) -> Word:
    """Iterated adjacent difference mod 2; order 0 returns the word unchanged."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order >= len(u):
        raise ValueError("order must be smaller than the word length")
    sym = u.symbols
    if max(sym, default=0) > 1:
        raise ValueError("difference is defined on binary words")
    # Symbols are 0/1 bytes, so one XOR of the big-endian integers of the word
    # and its shift takes every adjacent difference at once, with no carries.
    for _ in range(order):
        sym = (
            int.from_bytes(sym[:-1], "big") ^ int.from_bytes(sym[1:], "big")
        ).to_bytes(len(sym) - 1, "big")
    return Word._wrap(sym)


def difference_by_binomial(u: GeneralWord, order: int = 1) -> Word:
    """Same operator evaluated directly: position i sums C(order, j)*u[i+j] mod 2.

    The binomial coefficient is odd exactly when j's bits lie inside order's,
    so each output symbol is an XOR over that fixed index mask.  Serves as an
    independent oracle for :func:`difference`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order >= len(u):
        raise ValueError("order must be smaller than the word length")
    sym = u.symbols
    if max(sym, default=0) > 1:
        raise ValueError("difference is defined on binary words")
    mask = [j for j in range(order + 1) if (j & order) == j]
    out = bytearray(len(sym) - order)
    for i in range(len(out)):
        acc = 0
        for j in mask:
            acc ^= sym[i + j]
        out[i] = acc
    return Word._wrap(bytes(out))


def default_pair_coding() -> PairCoding:
    """The coding (x, y) -> 2x + y, injective on all four binary blocks."""
    return {(x, y): 2 * x + y for x in (0, 1) for y in (0, 1)}


def shift_product(u: GeneralWord, coding: PairCoding | None = None) -> GeneralWord:
    """The coded sequence of adjacent pairs: symbol i = coding[(u_i, u_{i+1})]."""
    if len(u) < 2:
        raise ValueError("word must have length >= 2")
    if coding is None:
        coding = default_pair_coding()
    sym = u.symbols
    codes: dict[tuple[int, int], int] = {}
    for block, code in coding.items():
        if code < 0:
            raise ValueError("codes must be non-negative integers")
        codes[block] = code
    out = bytearray(len(sym) - 1)
    try:
        for i in range(len(out)):
            out[i] = codes[(sym[i], sym[i + 1])]
    except KeyError as exc:
        raise MissingCodingError(f"no code for block {exc.args[0]}") from None
    return GeneralWord._wrap(bytes(out), max(codes.values()) + 1)


class AffineDecomposition(NamedTuple):
    """Coefficients with code(x, y) = a0*x + a1*y + a2 on the observed blocks."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    coding: PairCoding
    blocks_present: tuple[tuple[int, int], ...]

    @property
    def eventually_periodic_capable(self) -> bool:
        """True when the coded product collapses to a constant (a0 = a1 = 0)."""
        return self.a0 == 0 and self.a1 == 0


def _observed_blocks(u: GeneralWord) -> tuple[tuple[int, int], ...]:
    sym = u.symbols
    if len(sym) < 2:
        raise ValueError("need at least two symbols to observe blocks")
    return tuple(sorted({(sym[i], sym[i + 1]) for i in range(len(sym) - 1)}))


def _affine_solution(
    blocks: tuple[tuple[int, int], ...], coding: PairCoding
) -> tuple[Fraction, Fraction, Fraction]:
    """Solve a0*x + a1*y + a2 = code(x, y) over the given blocks.

    Underdetermined systems (fewer than three blocks) set the free
    coefficients to zero; four blocks must already be affinely consistent.
    """
    rows = []
    for block in blocks:
        if block not in coding:
            raise MissingCodingError(f"no code for block {block}")
        x, y = block
        rows.append((Fraction(x), Fraction(y), Fraction(1), Fraction(coding[block])))
    # Gaussian elimination over columns (a0, a1, a2); free columns stay zero.
    solution = [Fraction(0), Fraction(0), Fraction(0)]
    pivots: list[tuple[int, list[Fraction]]] = []
    reduced = [list(r) for r in rows]
    col = 0
    for col in range(3):
        pivot_row = None
        for r in reduced:
            if r[col] != 0 and all(r[c] == 0 for c in range(col)):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        reduced.remove(pivot_row)
        pivot_row = [v / pivot_row[col] for v in pivot_row]
        pivots.append((col, pivot_row))
        reduced = [
            [rv - r[col] * pv for rv, pv in zip(r, pivot_row)] for r in reduced
        ]
    for r in reduced:
        if all(v == 0 for v in r[:3]) and r[3] != 0:
            raise NonSturmianError(
                "no affine form reproduces the coding on the observed blocks"
            )
    for col, row in reversed(pivots):
        acc = row[3]
        for c in range(col + 1, 3):
            acc -= row[c] * solution[c]
        solution[col] = acc
    for x, y, _one, code in rows:
        if solution[0] * x + solution[1] * y + solution[2] != code:
            raise DegenerateSystemError("affine solve failed to reproduce a code")
    return solution[0], solution[1], solution[2]


def affine_decompose(u: GeneralWord, coding: PairCoding) -> AffineDecomposition:
    """Express the pair coding affinely over the three blocks a Sturmian word has.

    Demands exactly three distinct length-2 blocks in the word;
    the three equations then pin (a0, a1, a2) uniquely (any three distinct
    points of the unit square are affinely independent), and the identity
    holds at every position because it holds per block.
    """
    blocks = _observed_blocks(u)
    if len(blocks) != 3:
        raise NonSturmianError(
            f"expected exactly 3 distinct length-2 blocks, found {len(blocks)}"
        )
    a0, a1, a2 = _affine_solution(blocks, coding)
    return AffineDecomposition(
        a0=a0, a1=a1, a2=a2, coding=dict(coding), blocks_present=blocks
    )


class ValueRelationReport(NamedTuple):
    """Certified comparison of the coded product's value against its affine image.

    Writes V(w) for the series sum of w's symbols against 1/b^i.  The claim
    is V(v) = a0*V(u) + a1*b*(V(u) - u_0) + a2*b/(b-1) for v the coded pair
    sequence of u; with finite truncations both sides become intervals, and
    ``consistent`` says they can still be equal.  ``gap_bound`` bounds the
    true two-sided difference regardless.
    """

    a0: Fraction
    a1: Fraction
    a2: Fraction
    b: int
    depth: int
    left: SeriesTruncation
    residual: Fraction
    allowance: tuple[Fraction, Fraction]
    gap_bound: Fraction
    consistent: bool


def value_affine_relation(
    u: GeneralWord, coding: PairCoding, b: int, depth: int
) -> ValueRelationReport:
    """Check the affine law tying the coded pair sequence's value to u's value."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(u) < depth + 1:
        raise ValueError("word must supply depth + 1 symbols")
    head = u[: depth + 1]
    blocks = _observed_blocks(head)
    a0, a1, a2 = _affine_solution(blocks, coding)
    v = shift_product(head, coding)
    # Truncations: u cut at `depth` symbols, v naturally has `depth` symbols.
    su = series_truncation(head[:depth], b, digit_cap=1)
    sv = series_truncation(v, b, digit_cap=max(coding.values()))
    u0 = head[0]
    r0 = a0 * su.value + a1 * b * (su.value - u0) + a2 * Fraction(b, b - 1)
    c = a0 + a1 * b
    c_tail = c * su.tail_bound
    residual = sv.value - r0
    allow_lo = min(Fraction(0), c_tail) - sv.tail_bound
    allow_hi = max(Fraction(0), c_tail)
    gap_bound = abs(residual) + sv.tail_bound + abs(c_tail)
    return ValueRelationReport(
        a0=a0, a1=a1, a2=a2, b=b, depth=depth, left=sv,
        residual=residual, allowance=(allow_lo, allow_hi),
        gap_bound=gap_bound, consistent=allow_lo <= residual <= allow_hi,
    )


# Positions packed per pass of _lane_pairs; passes read windows that overlap
# by `order` symbols, so memory stays a few bytes per position of one pass.
_LANE_CHUNK = 1 << 16
# memoryview format of a native unsigned word, by its size in bytes.
_LANE_FORMATS = {struct.calcsize(code): code for code in "BHILQ"}


def _lane_pairs(sym: bytes, diff: bytes, order: int) -> set[tuple[bytes, int]]:
    """The distinct ``(sym[i:i+order+1], diff[i])`` pairs of a binary word.

    Each position i is packed into a lane: bit j is sym[i + j] for
    j <= order and bit order + 1 is diff[i].  A lane is one word of 1, 2, 4
    or 8 bytes when that holds its bits, else as many 64-bit words as it
    needs (lane bits 64w..64w+63 in word w).  Each lane byte is assembled
    for a whole pass at once from the big-endian integers of its eight
    shifted columns, whose 0/1 bytes OR without carries, then strided into
    a buffer read back as native words; the distinct lanes are collected in
    C and only they are decoded.
    """
    nbytes = -(-(order + 2) // 8)
    size = next((n for n in (1, 2, 4) if n >= nbytes), 8)
    nwords = -(-nbytes // size)
    stride = size * nwords
    little = sys.byteorder == "little"
    positions = len(diff)
    lanes: set = set()   # lane ints, or tuples of lane words
    for start in range(0, positions, _LANE_CHUNK):
        count = min(_LANE_CHUNK, positions - start)
        columns = [sym[start + j : start + j + count] for j in range(order + 1)]
        columns.append(diff[start : start + count])
        buf = bytearray(count * stride)
        for b in range(nbytes):
            lane_byte = 0
            for t, column in enumerate(columns[8 * b : 8 * b + 8]):
                lane_byte |= int.from_bytes(column, "big") << t
            word, at = divmod(b, size)
            offset = word * size + (at if little else size - 1 - at)
            buf[offset::stride] = lane_byte.to_bytes(count, "big")
        words = memoryview(buf).cast(_LANE_FORMATS[size])
        if nwords == 1:
            lanes.update(words)
        else:
            lanes.update(zip(*(words[w::nwords] for w in range(nwords))))
    pairs = set()
    for code in lanes:
        lane = code if nwords == 1 else sum(w << (64 * i) for i, w in enumerate(code))
        block = bytes((lane >> j) & 1 for j in range(order + 1))
        pairs.add((block, lane >> (order + 1)))
    return pairs


def block_determinism(u: GeneralWord, order: int) -> tuple[int, dict[Word, int]]:
    """Map each length-(order+1) block to the difference symbol it forces.

    The order-th difference at position i depends only on the block
    u_i..u_{i+order}, through the parity mask of binomial coefficients.  The
    mask evaluation, an XOR of shifted copies of the whole word, must equal
    the iterated operator at every position; the table is then rebuilt from
    the distinct (block, difference) pairs, and no block may force two
    values.  A Sturmian word shows exactly order+2 blocks (warned otherwise,
    not raised).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(u) <= order:
        raise ValueError("prefix must be longer than the order")
    sym = u.symbols
    if max(sym) > 1:
        raise ValueError("block determinism is defined on binary words")
    diff = difference(u, order).symbols
    width = order + 1
    positions = len(sym) - order
    by_mask = 0
    for j in range(width):
        if (j & order) == j:
            by_mask ^= int.from_bytes(sym[j : j + positions], "big")
    # Bytes of 0/1 XOR without carries: equal integers mean equal symbols
    # at every position.
    if by_mask != int.from_bytes(diff, "big"):
        raise RuntimeError(
            "binomial-mask evaluation disagrees with the iterated operator"
        )
    table: dict[Word, int] = {}
    for block, value in sorted(_lane_pairs(sym, diff, order)):
        if table.setdefault(Word._wrap(block), value) != value:
            raise RuntimeError("one block produced two different difference values")
    count = len(table)
    if count != order + 2:
        warnings.warn(
            f"found {count} blocks of length {order + 1}, not {order + 2}",
            NonSturmianWarning,
            stacklevel=2,
        )
    return count, table


def floor_golden(n: int) -> int:
    """Exact floor(n * (1+sqrt(5))/2) by integer square root."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (n + isqrt(5 * n * n)) // 2


class RotationSumReport(NamedTuple):
    """Which affine pair ties the golden power sum to the k=1 base-b value.

    The sum is (b-1) * sum over n >= 1 of b^(-floor(n*golden)); candidates
    express it as c1 * V + c2 with V the k=1 fixed-point value.  Exactly one
    candidate must survive the interval test for the run to be decisive.
    """

    b: int
    depth: int
    sum_lo: Fraction
    sum_hi: Fraction
    value_lo: Fraction
    value_hi: Fraction
    direct_pair: tuple[Fraction, Fraction]
    shifted_pair: tuple[Fraction, Fraction]
    direct_matches: bool
    shifted_matches: bool
    matching: str  # "direct" or "index_shifted"
    residual_bound: Fraction


def rotation_sum_relation(b: int, depth: int) -> RotationSumReport:
    """Decide which affine pair matches the golden power sum, by enclosures."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if depth < 50:
        raise ValueError("depth must be >= 50")
    if depth > DEPTH_CAP:
        raise CapExceededError(f"depth {depth} exceeds cap {DEPTH_CAP}")
    # Exact truncation of (b-1) * sum b^{-floor(n*golden)} up to exponent `depth`:
    # the exponents are distinct and >= 1, so sum b^(depth-e) is the value of
    # the 0/1 word with a 1 at each position e.
    marks = bytearray(depth + 1)
    n = 1
    while (e := floor_golden(n)) <= depth:
        marks[e] = 1
        n += 1
    acc = word_value(Word._wrap(bytes(marks)), b)
    # Every bound below is an integer numerator over the common denominator
    # (b-1) * b^depth; only the report's fields become Fractions.
    denom = (b - 1) * b**depth
    sum_lo = (b - 1) ** 2 * acc
    # Cut terms have exponents > depth; they sum below (b-1) * b^-depth / (b-1).
    sum_hi = sum_lo + (b - 1)
    # The k=1 value lies in [W / b^(depth-1), that + b / ((b-1) * b^depth)]
    # for W the value of its depth-prefix, as in fixed_point_series.
    value_lo = (b - 1) * b * word_value(fixed_point_prefix(1, depth), b)
    value_hi = value_lo + b

    def match(c1_den: int) -> tuple[bool, int]:
        # The pair c1 = -(b-1)/c1_den, c2 = 1; c1_den divides b, which divides
        # both value numerators, so c1 * value stays on the common denominator.
        lo = denom - (b - 1) * value_hi // c1_den
        hi = denom - (b - 1) * value_lo // c1_den
        overlaps = lo <= sum_hi and sum_lo <= hi
        bound = max(abs(sum_hi - lo), abs(hi - sum_lo))
        return overlaps, bound

    direct_ok, direct_bound = match(1)
    shifted_ok, shifted_bound = match(b)
    if direct_ok == shifted_ok:
        raise IndecisiveEnclosureError(
            "enclosures do not separate the candidate pairs; increase depth"
        )
    return RotationSumReport(
        b=b, depth=depth,
        sum_lo=Fraction(sum_lo, denom), sum_hi=Fraction(sum_hi, denom),
        value_lo=Fraction(value_lo, denom), value_hi=Fraction(value_hi, denom),
        direct_pair=(Fraction(-(b - 1)), Fraction(1)),
        shifted_pair=(Fraction(-(b - 1), b), Fraction(1)),
        direct_matches=direct_ok, shifted_matches=shifted_ok,
        matching="direct" if direct_ok else "index_shifted",
        residual_bound=Fraction(direct_bound if direct_ok else shifted_bound, denom),
    )
