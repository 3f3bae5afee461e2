"""Exponent-preserving sequence transforms and their certified value identities.

Words are ``bytes``, one byte per symbol.  Covers the mod-2 difference
operator, the pair-with-shift product coded by the one coding
(x, y) -> 2x + y, the fixed affine law V(v) = 2*V(u) + b*(V(u) - u_0) tying
the coded product's value to the word's own, the distinct blocks, each
forcing its difference symbol by a whole-word check, and the golden-rotation
power sum whose affine tie to the k=1 value is tested here by exact
enclosures.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from . import approximants, words
from .errors import CapExceededError

if TYPE_CHECKING:
    from fractions import Fraction

    from .approximants import SeriesTruncation


def _require_difference_args(u: bytes, order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")
    if order >= len(u):
        raise ValueError("order must be smaller than the word length")
    words._require_binary(u, "difference")


def difference(u: bytes, order: int = 1) -> bytes:
    """Iterated adjacent difference mod 2; order 0 returns the word unchanged."""
    _require_difference_args(u, order)
    # Mod 2, (1 + x)^(2^j) = 1 + x^(2^j): the order is a product of rounds,
    # one per set bit j, each XORing the word with its 2^j-shift.  Symbols are
    # 0/1 bytes, so a round is one XOR of big-endian integers, with no carries.
    for j in range(order.bit_length()):
        if order >> j & 1:
            s = 1 << j
            u = (
                int.from_bytes(u[:-s], "big") ^ int.from_bytes(u[s:], "big")
            ).to_bytes(len(u) - s, "big")
    return u


def difference_by_binomial(u: bytes, order: int = 1) -> bytes:
    """Same operator evaluated directly: position i sums C(order, j)*u[i+j] mod 2.

    The binomial coefficient is odd exactly when j's bits lie inside order's,
    so each output symbol is an XOR over that fixed index mask, and the whole
    word is the XOR of the mask's shifted slices, read as big-endian integers
    of 0/1 bytes.  Serves as an independent oracle for :func:`difference`.
    """
    _require_difference_args(u, order)
    positions = len(u) - order
    # The slice at j = 0, then j = order, (j - 1) & order, ... while j > 0:
    # each submask of order once, 2^popcount(order) of them, and C(order, j)
    # is odd exactly here.  XOR commutes, so the order of the slices does
    # not matter.
    acc = int.from_bytes(u[:positions], "big")
    j = order
    while j:
        acc ^= int.from_bytes(u[j : j + positions], "big")
        j = (j - 1) & order
    return acc.to_bytes(positions, "big")


def shift_product(u: bytes) -> bytes:
    """The coded sequence of adjacent pairs: symbol i = 2*u_i + u_{i+1}."""
    if len(u) < 2:
        raise ValueError("word must have length >= 2")
    words._require_binary(u, "shift_product")
    # Symbols are 0/1 bytes, so twice the big-endian integer of the word plus
    # that of its shift codes every adjacent pair at once, with no carries.
    return (
        (int.from_bytes(u[:-1], "big") << 1) + int.from_bytes(u[1:], "big")
    ).to_bytes(len(u) - 1, "big")


# The coded-pair law V(v) = a0*V(u) + a1*b*(V(u) - u_0) + a2*b/(b-1), with
# (a0, a1, a2) = (2, 1, 0) for every binary u, since v_i = 2*u_i + u_{i+1}.
_AFFINE_LAW = (2, 1, 0)


class ValueRelationReport(NamedTuple):
    """Certified comparison of the coded product's value against its affine image.

    Writes V(w) for the series sum of w's symbols against 1/b^i.  For v the
    coded pair sequence of a binary word u, the law is the fixed
    ``_AFFINE_LAW``, V(v) = 2*V(u) + b*(V(u) - u_0).  With finite truncations
    both sides become intervals, and ``consistent`` says they can still be
    equal.  ``gap_bound`` bounds the true two-sided difference regardless.
    ``left`` is v's enclosure.
    """

    b: int
    depth: int
    left: SeriesTruncation
    gap_bound: Fraction
    consistent: bool


def value_affine_relation(u: bytes, b: int, depth: int) -> ValueRelationReport:
    """Check V(v) = 2*V(u) + b*(V(u) - u_0) for v the coded pair sequence of u."""
    from fractions import Fraction

    approximants._require_base(b)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > approximants.DEPTH_CAP:
        raise CapExceededError(f"depth {depth} exceeds cap {approximants.DEPTH_CAP}")
    if len(u) < depth + 1:
        raise ValueError("word must supply depth + 1 symbols")
    # The enclosure of u's tail assumes digits of at most 1.
    words._require_binary(u, "value_affine_relation")
    head = u[: depth + 1]
    v = shift_product(head)
    # Truncations: u cut at `depth` symbols, v naturally has `depth` symbols
    # of at most 3, so both enclosures share one denominator and everything
    # below is an integer scaled by it.
    su = approximants.series_truncation(head[:depth], b, digit_cap=1)
    sv = approximants.series_truncation(v, b, digit_cap=3)
    den = su.den
    a0, a1, _ = _AFFINE_LAW  # a2 = 0: the law has no constant term
    c = a0 + a1 * b
    # den * (2*V + b*(V - u_0)) at V = su.lo/den; the positive c widens it
    # upward by c_tail at V = su.hi/den.
    r0 = c * su.lo - a1 * b * head[0] * den
    c_tail = c * (su.hi - su.lo)
    v_tail = sv.hi - sv.lo
    residual = sv.lo - r0
    return ValueRelationReport(
        b=b, depth=depth, left=sv,
        gap_bound=Fraction(abs(residual) + v_tail + c_tail, den),
        consistent=-v_tail <= residual <= c_tail,
    )


class _MaskDisagreement(RuntimeError):
    """The binomial mask and the iterated operator give different words."""


def block_determinism(u: bytes, order: int) -> tuple[int, set[bytes]]:
    """The number of distinct length-(order+1) blocks of u, and the blocks.

    The order-th difference at position i depends only on the block
    u_i..u_{i+order}, through the parity mask of binomial coefficients.  The
    mask evaluation must equal the iterated operator on the whole word, which
    proves that dependence at every position; the whole-word mask
    evaluation, one slice per mask index, 2^popcount(order) of them, is
    what the check costs beyond the operator.  A block's symbol is then
    ``difference_by_binomial(block, order)``.  The blocks are
    ``words.distinct_factors(u, order + 1)``.  A Sturmian word shows exactly
    order+2 blocks; the caller judges the returned count.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if difference(u, order) != difference_by_binomial(u, order):
        raise _MaskDisagreement(
            "binomial-mask evaluation disagrees with the iterated operator"
        )
    blocks = words.distinct_factors(u, order + 1)
    return len(blocks), blocks


def floor_golden(n: int) -> int:
    """Exact floor(n * (1+sqrt(5))/2) by integer square root."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (n + isqrt(5 * n * n)) // 2


class RotationSumReport(NamedTuple):
    """How the golden power sum meets its affine law in the k=1 base-b value.

    The sum is (b-1) * sum over n >= 1 of b^(-floor(n*golden)), and the law
    states it as c1 * V + c2 with V the k=1 fixed-point value and ``pair`` =
    (c1, c2) = (-(b-1)/b, 1), the index-shifted pair.  ``matching`` is
    ``"index_shifted"`` when the two enclosures overlap and ``"none"`` when
    they do not; each encloses its exact side, so a miss is a fault.
    ``residual_bound`` bounds their distance.  The direct pair (-(b-1), 1)
    lies (b-1)^2*V/b >= 1/4 away, against widths of at most 2^-50 at
    depth >= 50, so it is never tested.  ``marks`` encloses the series of
    the 0/1 word marking each exponent, so the sum lies in (b-1) times it;
    ``value`` encloses V.
    """

    b: int
    depth: int
    marks: SeriesTruncation
    value: SeriesTruncation
    pair: tuple[Fraction, Fraction]
    matching: str  # "index_shifted" or "none"
    residual_bound: Fraction


def rotation_sum_relation(b: int, depth: int) -> RotationSumReport:
    """Test the golden power sum against its index-shifted affine law, by enclosures."""
    from fractions import Fraction

    approximants._require_base(b)
    if depth < 50:
        raise ValueError("depth must be >= 50")
    if depth > approximants.DEPTH_CAP:
        raise CapExceededError(f"depth {depth} exceeds cap {approximants.DEPTH_CAP}")
    # The exponents are distinct and >= 1, so sum b^(-e) is the series of the
    # 0/1 word with a 1 at each position e, cut after position `depth`.
    marks = bytearray(depth + 1)
    n = 1
    while (e := floor_golden(n)) <= depth:
        marks[e] = 1
        n += 1
    marked = approximants.series_truncation(bytes(marks), b, digit_cap=1)
    x = approximants.fixed_point_series(1, b, depth)
    # Over the common denominator marked.den = b * x.den, the sum has the
    # numerators (b-1) * marked.lo and (b-1) * marked.hi, and the law's image
    # 1 - (b-1)/b * V has marked.den - (b-1) * x.hi and marked.den - (b-1) * x.lo.
    sum_lo, sum_hi = (b - 1) * marked.lo, (b - 1) * marked.hi
    lo = marked.den - (b - 1) * x.hi
    hi = marked.den - (b - 1) * x.lo
    return RotationSumReport(
        b=b, depth=depth, marks=marked, value=x,
        pair=(Fraction(-(b - 1), b), Fraction(1)),
        matching="index_shifted" if lo <= sum_hi and sum_lo <= hi else "none",
        residual_bound=Fraction(max(abs(sum_hi - lo), abs(hi - sum_lo)), marked.den),
    )
