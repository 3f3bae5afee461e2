"""Rational approximants read off base-b expansions of the fixed point.

The prefix of length f_n, read as base-b digits, yields p/q with
q = b^{f_n} - 1; the gap q*x - p is a signed series supported exactly on the
indices where the fixed point disagrees with its f_n-shift.  Everything here
is exact: enclosures are integer numerators over one known denominator, the
dense bound checks decide by integer cross-multiplication, and the large-n
bound checks reduce to integer sign evaluations on sparse power sums.
Reduced ``Fraction`` values are built only when something reads them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .access import _mismatch_offsets
from .errors import CapExceededError, IndecisiveEnclosureError
from .numeration import get_basis
from .words import _DIGITS, GeneralWord, fixed_point_prefix

DEPTH_CAP = 1_000_000
DENSE_AUTO_LIMIT = 300_000  # symbols of the dense route's prefix
DENSE_AUTO_BITS = 1_000_000  # that prefix's symbols times floor(log2 b)

_MAX_POWER_BITS = 8_000_000  # refuse to materialize integers past ~1 MB
_DIGIT_LEAF = 4_000  # digits per int(str, b) call, under CPython's 4300 limit


def default_depth(k: int, n: int) -> int:
    """Expansion depth that makes the level-n gap enclosure decisive."""
    basis = get_basis(k)
    return basis.value(n + 2) + 4 * basis.value(n)


def _require_base(b: int) -> None:
    if b < 2:
        raise ValueError("base must be >= 2")


def word_value(w: GeneralWord, b: int) -> int:
    """Integer value of ``w`` read as base-b digits, most significant first.

    Symbols may equal or exceed b; the evaluation is plain polynomial in b.
    When every symbol is a digit of b, chunks of the word convert in C with
    ``int(str, b)``; other words fall back to a Horner loop per chunk.
    """
    _require_base(b)
    sym = w.symbols
    if not sym:
        return 0
    hi = max(sym)
    digits = hi < 10 and hi < b <= 36
    # int(str, b) is limited to ~4300 digits unless b is a power of two.
    if digits and b & (b - 1) == 0:
        return int(sym.translate(_DIGITS), b)
    leaf = _DIGIT_LEAF if digits else 256
    powers: dict[int, int] = {}

    def power(e: int) -> int:
        v = powers.get(e)
        if v is None:
            v = b**e
            powers[e] = v
        return v

    def split(lo: int, hi_: int) -> int:
        n = hi_ - lo
        if n <= leaf:
            if digits:
                return int(sym[lo:hi_].translate(_DIGITS), b)
            acc = 0
            for c in sym[lo:hi_]:
                acc = acc * b + c
            return acc
        mid = lo + n // 2
        return split(lo, mid) * power(hi_ - mid) + split(mid, hi_)

    return split(0, len(sym))


class SeriesTruncation(NamedTuple):
    """A truncated digit series sum with a worst-case bound on the cut tail."""

    b: int
    depth: int
    value: Fraction
    tail_bound: Fraction

    @property
    def upper(self) -> Fraction:
        return self.value + self.tail_bound


def series_truncation(
    w: GeneralWord, b: int, digit_cap: int | None = None
) -> SeriesTruncation:
    """Sum symbol_i * b^(-i) over ``w`` plus a tail bound for what was cut.

    The true series of any extension of ``w`` by symbols <= digit_cap lies in
    [value, value + tail_bound].
    """
    _require_base(b)
    if digit_cap is None:
        digit_cap = w.alphabet_size - 1
    if digit_cap < 0:
        raise ValueError("digit cap must be >= 0")
    depth = len(w)
    if depth == 0:
        value = Fraction(0)
    else:
        value = Fraction(word_value(w, b), b ** (depth - 1))
    tail = Fraction(digit_cap * b, b - 1) / b**depth
    return SeriesTruncation(b=b, depth=depth, value=value, tail_bound=tail)


def fixed_point_series(k: int, b: int, depth: int) -> SeriesTruncation:
    """Enclosure of x = sum of fixed-point symbols at 1/b^i, truncated at ``depth``."""
    if depth > DEPTH_CAP:
        raise CapExceededError(f"depth {depth} exceeds cap {DEPTH_CAP}")
    return series_truncation(fixed_point_prefix(k, depth), b, digit_cap=1)


class ApproximantRecord(NamedTuple):
    """One certified approximant p/q with an enclosure of |x - p/q|.

    ``sign`` is the certified sign of x - p/q; ``delta_lo``/``delta_hi``
    bracket its absolute value, so 0 < delta_lo <= |x - p/q| <= delta_hi.
    They are ``num_lo``/``num_hi`` over the denominator
    ``(b-1) * b^(depth-1) * q``, reduced by ``deltas()`` each time it is
    called.
    """

    k: int
    n: int
    b: int
    p: int
    q: int
    num_lo: int
    num_hi: int
    sign: int
    depth: int

    def deltas(self) -> tuple[Fraction, Fraction]:
        """(delta_lo, delta_hi), reduced."""
        # b^(depth-1) is coprime to (b-1)*q, so only the first step of each
        # reduction needs a gcd of full size.
        scale, rest = self.b ** (self.depth - 1), (self.b - 1) * self.q
        return Fraction(self.num_lo, scale) / rest, Fraction(self.num_hi, scale) / rest

    @property
    def delta_lo(self) -> Fraction:
        return self.deltas()[0]

    @property
    def delta_hi(self) -> Fraction:
        return self.deltas()[1]


def approximant(k: int, n: int, b: int, depth: int | None = None) -> ApproximantRecord:
    """Build the level-n approximant and certify the sign of x - p/q.

    With W the depth-prefix value, x lies in [W / b^(depth-1), that plus
    1 / ((b-1) * b^(depth-1))], so over the denominator (b-1) * b^(depth-1) * q
    the enclosure of x - p/q has the integer numerators
    N_lo = (b-1) * (W*q - p * b^(depth-1)) and N_hi = N_lo + q.
    """
    _require_base(b)
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = get_basis(k)
    fn = basis.value(n)
    if depth is None:
        depth = default_depth(k, n)
    if depth > DEPTH_CAP:
        raise CapExceededError(
            f"depth {depth} exceeds cap {DEPTH_CAP}; "
            "use the scaled bound checks for indices this deep"
        )
    if depth < fn + 1:
        raise ValueError("depth must exceed the prefix length f_n")
    prefix = fixed_point_prefix(k, depth)
    p = b * word_value(prefix[:fn], b)
    q = b**fn - 1
    lo = (b - 1) * (word_value(prefix, b) * q - p * b ** (depth - 1))
    hi = lo + q
    if lo > 0:
        sign, num_lo, num_hi = 1, lo, hi
    elif hi < 0:
        sign, num_lo, num_hi = -1, -hi, -lo
    else:
        raise IndecisiveEnclosureError(
            f"enclosure of x - p/q straddles zero at depth {depth}; increase depth"
        )
    return ApproximantRecord(
        k=k, n=n, b=b, p=p, q=q,
        num_lo=num_lo, num_hi=num_hi, sign=sign, depth=depth,
    )


def _require_materializable_bounds(b: int, fn: int, fn1: int) -> None:
    if (fn + fn1) * max(b.bit_length() - 1, 1) > _MAX_POWER_BITS:
        raise CapExceededError(
            "bounds would need integers too large to materialize; "
            "use scaled_error_bounds_hold instead"
        )


def error_bounds(k: int, n: int, b: int) -> tuple[Fraction, Fraction]:
    """Exact two-sided bounds on |x - p/q| at level n.

    Returns ((b-1) / (q * b^{f_{n+1}-1}), 1 / (q * b^{f_{n+1}-2})).
    """
    _require_base(b)
    basis = get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    _require_materializable_bounds(b, fn, fn1)
    q = b**fn - 1
    lower = Fraction(b - 1, q * b ** (fn1 - 1))
    upper = Fraction(1, q * b ** (fn1 - 2))
    return lower, upper


class BoundsCheck(NamedTuple):
    """Outcome of the two-sided gap-bound check at one (k, n, b).

    Truthiness is ``holds``; the side flags say which inequality carried or
    failed.  The dense route keeps its approximant ``record``, from which
    ``bounds()`` builds the bound values and the record's ``deltas()`` the
    certified enclosure of |x - p/q|, each time they are called; the scaled
    route decides by integer sign tests and leaves them None.
    """

    k: int
    n: int
    b: int
    holds: bool
    lower_ok: bool
    upper_ok: bool
    route: str  # "dense" or "scaled"
    record: ApproximantRecord | None = None

    def __bool__(self) -> bool:
        return self.holds

    def bounds(self) -> tuple[Fraction | None, Fraction | None]:
        """(lower, upper) of ``error_bounds``, or (None, None) on the scaled route."""
        if self.record is None:
            return None, None
        return error_bounds(self.k, self.n, self.b)

    @property
    def lower(self) -> Fraction | None:
        return self.bounds()[0]

    @property
    def upper(self) -> Fraction | None:
        return self.bounds()[1]

    @property
    def delta_lo(self) -> Fraction | None:
        return None if self.record is None else self.record.delta_lo

    @property
    def delta_hi(self) -> Fraction | None:
        return None if self.record is None else self.record.delta_hi


def check_error_bounds(record: ApproximantRecord) -> BoundsCheck:
    """Certify lower <= |x - p/q| <= upper from the record's enclosure.

    Both sides share the factor 1/q with the record's denominator, so they
    reduce to num_lo * b^(f_{n+1}-1) >= (b-1)^2 * b^(depth-1) and
    num_hi * b^(f_{n+1}-2) <= (b-1) * b^(depth-1).  Cancelling the common
    power of b leaves a single b^|depth - f_{n+1}| on one side.
    """
    k, n, b = record.k, record.n, record.b
    _require_base(b)
    basis = get_basis(k)
    fn1 = basis.value(n + 1)
    _require_materializable_bounds(b, basis.value(n), fn1)
    e = record.depth - fn1
    up, down = b ** max(e, 0), b ** max(-e, 0)
    lower_ok = record.num_lo * down >= (b - 1) ** 2 * up
    upper_ok = record.num_hi * down <= (b - 1) * b * up
    return BoundsCheck(
        k=k, n=n, b=b,
        holds=lower_ok and upper_ok, lower_ok=lower_ok, upper_ok=upper_ok,
        route="dense", record=record,
    )


def _power_sum_sign(b: int, terms: list[tuple[int, int]]) -> int:
    """Sign of sum(c * b^e) without materializing the large powers.

    ``terms`` holds (exponent, coefficient) pairs; exponents must be >= 0.
    Works from the top exponent down, stopping as soon as bit lengths show
    that the accumulated head outweighs every remaining term, and folding
    the next term in exactly otherwise.  A fold only happens when b^gap has
    under twice the bit length of the remaining coefficient mass, so no
    power grows past that.
    """
    _require_base(b)
    merged: dict[int, int] = {}
    for e, c in terms:
        if e < 0:
            raise ValueError("exponents must be >= 0")
        merged[e] = merged.get(e, 0) + c
    items = sorted((pair for pair in merged.items() if pair[1]), reverse=True)
    if not items:
        return 0
    acc = items[0][1]
    frame = items[0][0]
    rest_abs = sum(abs(c) for _, c in items[1:])
    b_bits = b.bit_length() - 1  # 2^b_bits <= b
    for e, c in items[1:]:
        gap = frame - e
        if acc != 0:
            # Everything at exponents <= e sums to at most rest_abs in the
            # b^e frame, and rest_abs < 2^bits(rest_abs) <= |acc| * b^gap.
            if rest_abs.bit_length() <= abs(acc).bit_length() - 1 + gap * b_bits:
                return 1 if acc > 0 else -1
            acc *= b**gap
        acc += c
        frame = e
        rest_abs -= abs(c)
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


def scaled_error_bounds_hold(k: int, n: int, b: int) -> BoundsCheck:
    """Check the two-sided gap bounds at level n by integer sign tests alone.

    Writes |q*x - p| as (b-1)/b * sum(b^{-(f_{n+1}-2+h)}) over the mismatch
    offsets h, splits off the offsets up to a cutoff, bounds the rest by a
    geometric tail, and reduces both comparisons to signs of sparse integer
    power sums.  Never builds numbers anywhere near b^{f_n}.
    """
    _require_base(b)
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = get_basis(k)
    fn1 = basis.value(n + 1)
    # Smallest positive offset: f_{n+2} when k == 1 (j = 1 is excluded there),
    # f_{n+1} otherwise; pad the cutoff so its term dominates the tail.
    h_min = basis.value(n + 2) if k == 1 else fn1
    cutoff = h_min + fn1 + 4
    hs = _mismatch_offsets(k, n, cutoff)
    if not hs or hs[0] != 0:
        raise AssertionError("offset enumeration must start at h = 0")
    if len(hs) < 2:
        raise AssertionError("cutoff admitted no positive offset")
    coef = (b - 1) ** 2
    lower_terms = [(cutoff - h, coef) for h in hs if h > 0]
    lower_terms.append((0, -b))
    lower_ok = _power_sum_sign(b, lower_terms) >= 0
    upper_terms = [(cutoff + 2, 1), (cutoff + 1, -1), (0, -b)]
    upper_terms.extend((cutoff - h, -coef) for h in hs)
    upper_ok = _power_sum_sign(b, upper_terms) >= 0
    return BoundsCheck(
        k=k, n=n, b=b,
        holds=lower_ok and upper_ok, lower_ok=lower_ok, upper_ok=upper_ok,
        route="scaled",
    )


def check_error_bounds_auto(k: int, n: int, b: int) -> BoundsCheck:
    """Verify the gap bounds, picking the dense or scaled route by size.

    The dense route reads a prefix of ``default_depth`` symbols as base-b
    digits, so it stays in use only while both that symbol count and its
    size in bits are small.
    """
    depth = default_depth(k, n)
    bits = depth * max(b.bit_length() - 1, 1)
    if depth <= DENSE_AUTO_LIMIT and bits <= DENSE_AUTO_BITS:
        return check_error_bounds(approximant(k, n, b))
    return scaled_error_bounds_hold(k, n, b)


def _law_settles(b: int, fn: int, fn1: int, c: int) -> bool:
    """Whether (1 - b^-f_n)^theta >= b^-c follows without f_n-th powers.

    With x = b^-f_n and theta = f_{n+1}/f_n, ln(1 - x) >= -x/(1 - x) =
    -1/(b^{f_n} - 1), so theta <= c * ln(b) * (b^{f_n} - 1) suffices; since
    ln b >= (bits(b)-1) * ln 2 and ln 2 > 2/3, so does the integer inequality
    3*f_{n+1} <= 2*c*(bits(b)-1)*f_n*(b^{f_n} - 1).  For c >= 2 it holds on
    every cell where Bernoulli's 1 - theta*x >= b^-c does (theta >= 2 when
    f_n = 1), so Bernoulli is not tried.  As b^{f_n} - 1 >=
    2^{f_n*(bits(b)-1) - 1}, bit lengths decide it without building b^{f_n}
    once f_n*(bits(b)-1) > bits(f_{n+1}) + 1.  When it does not hold, the
    caller compares f_n-th powers exactly; past ``_MAX_POWER_BITS`` those
    powers are refused with CapExceededError.
    """
    b_bits = b.bit_length() - 1
    if fn * b_bits > fn1.bit_length() + 1:
        return True
    if 3 * fn1 <= 2 * c * b_bits * fn * (b**fn - 1):
        return True
    if fn * fn1 * b.bit_length() > _MAX_POWER_BITS:
        raise CapExceededError(
            "deciding the law exactly would need integers too large to materialize"
        )
    return False


def growth_law_holds(k: int, b: int, n: int) -> bool:
    """Check q_{n+1} < b^2 * q_n^(f_{n+1}/f_n).

    As q_{n+1} < b^{f_{n+1}} and q_n^theta = b^{f_{n+1}} (1 - b^-f_n)^theta, the
    law holds whenever ``_law_settles`` with c = 2; otherwise it is decided as
    q_{n+1}^{f_n} < b^{2 f_n} * q_n^{f_{n+1}}.
    """
    _require_base(b)
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    if _law_settles(b, fn, fn1, 2):
        return True
    return (b**fn1 - 1) ** fn < b ** (2 * fn) * (b**fn - 1) ** fn1


def bound_constants_hold(k: int, b: int, n: int) -> bool:
    """Check (b-1)/b^2 / q^(1+theta) <= |x - p/q| <= b^2 / q^(1+theta).

    The upper constant follows from q < b^{f_n} alone; the lower reduces to
    q^theta >= b^{f_{n+1}-3}, which holds whenever ``_law_settles`` with c = 3 and
    is otherwise decided raised to the f_n-th power.  The middle inequality
    is the certified two-sided gap bound.
    """
    _require_base(b)
    if not check_error_bounds_auto(k, n, b).holds:
        return False
    basis = get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    if _law_settles(b, fn, fn1, 3):
        return True
    q = b**fn - 1
    return q**fn1 * b ** (3 * fn) >= b ** (fn * fn1)
