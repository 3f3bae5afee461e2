"""Rational approximants read off base-b expansions of the fixed point.

The prefix of length f_n, read as base-b digits, yields p/q with
q = b^{f_n} - 1; the gap q*x - p is a signed series supported exactly on the
indices where the fixed point disagrees with its f_n-shift.  Everything here
is exact: enclosures are integer numerators over one known denominator, the
dense bound checks decide by integer cross-multiplication, and the large-n
bound checks read their verdict off which mismatch offsets are present.
Reduced ``Fraction`` values are built only when something reads them.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from . import access, numeration, words
from .errors import CapExceededError, IndecisiveEnclosureError

if TYPE_CHECKING:
    from fractions import Fraction

DEPTH_CAP = 1_000_000
DENSE_AUTO_LIMIT = 300_000  # symbols of the dense route's prefix
DENSE_AUTO_BITS = 1_000_000  # that prefix's symbols times floor(log2 b)

_MAX_POWER_BITS = 8_000_000  # refuse to materialize integers past ~1 MB
_DIGIT_LEAF = 4_000  # digits per int(str, b) call, under CPython's 4300 limit


def default_depth(k: int, n: int) -> int:
    """Expansion depth that makes the level-n gap enclosure decisive."""
    basis = numeration.get_basis(k)
    return basis.value(n + 2) + 4 * basis.value(n)


def _require_base(b: int) -> None:
    if b < 2:
        raise ValueError("base must be >= 2")


def word_value(w: bytes, b: int) -> int:
    """Integer value of ``w`` read as base-b digits, most significant first.

    Symbols may equal or exceed b; the evaluation is plain polynomial in b.
    When every symbol is a digit of b, chunks of the word convert in C with
    ``int(str, b)``; other words fall back to a Horner loop per chunk.
    """
    _require_base(b)
    if not w:
        return 0
    hi = max(w)
    digits = hi < 10 and hi < b <= 36
    # int(str, b) is limited to ~4300 digits unless b is a power of two.
    if digits and b & (b - 1) == 0:
        return int(w.translate(words._DIGITS), b)
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
                return int(w[lo:hi_].translate(words._DIGITS), b)
            acc = 0
            for c in w[lo:hi_]:
                acc = acc * b + c
            return acc
        mid = lo + n // 2
        return split(lo, mid) * power(hi_ - mid) + split(mid, hi_)

    return split(0, len(w))


class SeriesTruncation(NamedTuple):
    """Exact enclosure [lo/den, hi/den] of a digit series cut after ``depth`` symbols.

    ``den`` is (b-1) * b^(depth-1), so ``lo`` is (b-1) times the word's value
    read as base-b digits, and ``hi - lo`` is the digit cap.
    """

    b: int
    depth: int
    lo: int
    hi: int
    den: int


def series_truncation(w: bytes, b: int, digit_cap: int) -> SeriesTruncation:
    """Enclose the series sum of symbol_i * b^(-i), i >= 0, over extensions of ``w``.

    The series of every extension of the non-empty word ``w`` by symbols
    <= digit_cap lies in [lo/den, hi/den]: the cut tail sums to at most
    digit_cap * b^(-depth) * b/(b-1) = digit_cap/den.
    """
    _require_base(b)
    if digit_cap < 0:
        raise ValueError("digit cap must be >= 0")
    if not w:
        raise ValueError("word must be non-empty")
    depth = len(w)
    lo = (b - 1) * word_value(w, b)
    return SeriesTruncation(
        b=b, depth=depth, lo=lo, hi=lo + digit_cap, den=(b - 1) * b ** (depth - 1)
    )


def fixed_point_series(k: int, b: int, depth: int) -> SeriesTruncation:
    """Enclosure of x = sum of fixed-point symbols at 1/b^i, truncated at ``depth``."""
    if depth > DEPTH_CAP:
        raise CapExceededError(f"depth {depth} exceeds cap {DEPTH_CAP}")
    return series_truncation(words.fixed_point_prefix(k, depth), b, digit_cap=1)


def _reduced(num: int, b: int, scale: int, rest: int, residue: int) -> Fraction:
    """``num / (scale * rest)`` in lowest terms, for ``scale`` a power of b,
    ``rest`` a positive integer coprime to b and ``residue`` = num mod rest.

    The common factor is gcd(num, scale) * gcd(residue, rest), so neither
    gcd sees ``num`` at full size and ``num`` is never divided by ``rest``.
    The b-part is gcd(num mod b^s, b^s) for s = 1, 2, 4, ... until b^s
    reaches ``scale``: once doubling s leaves it unchanged, every prime of b
    has its full valuation in it, so b is never factored.  ``num`` is then
    divided by the common factor with a zero remainder asserted, so a
    residue that claims a factor ``num`` lacks raises AssertionError.
    """
    from fractions import Fraction

    g, bs = 1, b
    while True:
        bs = min(bs, scale)
        h = gcd(num % bs, bs)
        if h == g or bs == scale:
            break
        g, bs = h, bs * bs
    r = gcd(residue, rest)
    quot, rem = divmod(num, h * r)
    if rem:
        raise AssertionError("the residue claims a factor the numerator lacks")
    # Fraction(n, d) would run a full-size gcd again, and 3.12 dropped its
    # _normalize=False; set the slots as 3.12's _from_coprime_ints does.
    out = object.__new__(Fraction)
    out._numerator = quot
    out._denominator = scale // h * (rest // r)
    return out


class ApproximantRecord(NamedTuple):
    """One certified approximant p/q with an enclosure of |x - p/q|.

    ``sign`` is the certified sign of x - p/q; ``deltas()`` returns the
    pair (delta_lo, delta_hi) that brackets its absolute value, so
    0 < delta_lo <= |x - p/q| <= delta_hi.  They are ``num_lo``/``num_hi``
    over ``den * q``, where ``den`` = (b-1) * b^(depth-1) is the series
    denominator of the prefix enclosure [lo/den, hi/den] of x.  The record
    keeps only the integers, and each ``deltas()`` call reduces both values
    with ``_reduced``: b^(depth-1) is coprime to (b-1) * q, so the common
    factor with each is found apart.  The residues mod (b-1) * q come from
    p and q alone (see ``_residues``), so no gcd or division by (b-1) * q
    sees a full-size numerator.
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
    den: int

    def deltas(self) -> tuple[Fraction, Fraction]:
        """(delta_lo, delta_hi), reduced from their residues mod (b-1) * q."""
        b, rest = self.b, (self.b - 1) * self.q
        scale = self.den // (b - 1)
        res_lo, res_hi = self._residues()
        return (_reduced(self.num_lo, b, scale, rest, res_lo),
                _reduced(self.num_hi, b, scale, rest, res_hi))

    def _residues(self) -> tuple[int, int]:
        """``num_lo`` and ``num_hi`` mod R = (b-1) * q, from p and q alone.

        Over den * q the enclosure of x - p/q has the numerators
        N_lo = lo*q - p*den and N_hi = N_lo + q.  Three facts make their
        residues small-number work: (b-1) divides ``lo``, so lo*q = 0 mod R;
        the digit cap is 1, so hi - lo = 1; and q = b^{f_n} - 1, so
        b^{f_n} = 1 (mod q).  With den = (b-1) * b^(depth-1) this gives
        N_lo = -(b-1) * t (mod R) for t = p * b^((depth-1) mod f_n) mod q, and
        N_hi = N_lo + q (mod R); the sign says which is ``num_lo``.
        """
        b, q = self.b, self.q
        rest = (b - 1) * q
        fn = numeration.get_basis(self.k).value(self.n)
        t = self.p * pow(b, (self.depth - 1) % fn, q) % q
        n_lo = -(b - 1) * t % rest
        n_hi = (n_lo + q) % rest
        if self.sign > 0:
            return n_lo, n_hi
        return -n_hi % rest, -n_lo % rest


def approximant(k: int, n: int, b: int) -> ApproximantRecord:
    """Build the level-n approximant and certify the sign of x - p/q.

    The ``series_truncation`` of the ``default_depth`` prefix encloses x in
    [lo/den, hi/den], so over the denominator den * q the enclosure of x - p/q
    has the integer numerators N_lo = lo*q - p*den and N_hi = N_lo + (hi - lo)*q.
    """
    _require_base(b)
    if n < 0:
        raise ValueError("n must be >= 0")
    fn = numeration.get_basis(k).value(n)
    depth = default_depth(k, n)
    if depth > DEPTH_CAP:
        raise CapExceededError(
            f"depth {depth} exceeds cap {DEPTH_CAP}; "
            "use the scaled bound checks for indices this deep"
        )
    prefix = words.fixed_point_prefix(k, depth)
    x = series_truncation(prefix, b, digit_cap=1)
    p = b * word_value(prefix[:fn], b)
    q = b**fn - 1
    lo = x.lo * q - p * x.den
    hi = lo + (x.hi - x.lo) * q
    if lo > 0:
        sign, num_lo, num_hi = 1, lo, hi
    elif hi < 0:
        sign, num_lo, num_hi = -1, -hi, -lo
    else:
        raise IndecisiveEnclosureError(
            f"enclosure of x - p/q straddles zero at depth {depth}"
        )
    return ApproximantRecord(
        k=k, n=n, b=b, p=p, q=q,
        num_lo=num_lo, num_hi=num_hi, sign=sign, depth=depth, den=x.den,
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
    from fractions import Fraction

    _require_base(b)
    basis = numeration.get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    _require_materializable_bounds(b, fn, fn1)
    q = b**fn - 1
    lower = Fraction(b - 1, q * b ** (fn1 - 1))
    upper = Fraction(1, q * b ** (fn1 - 2))
    return lower, upper


class BoundsCheck(NamedTuple):
    """Outcome of the two-sided gap-bound check at one (k, n, b).

    Truthiness is ``holds``; the side flags say which inequality carried or
    failed.  The dense route keeps its approximant ``record``, whose
    ``deltas()`` builds the certified enclosure of |x - p/q|; the scaled
    route decides from the mismatch offsets alone and leaves it None.
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


def check_error_bounds(record: ApproximantRecord) -> BoundsCheck:
    """Certify lower <= |x - p/q| <= upper from the record's enclosure.

    Both sides share the factor 1/q with the record's denominator, so they
    reduce to num_lo * b^(f_{n+1}-1) >= (b-1)^2 * b^(depth-1) and
    num_hi * b^(f_{n+1}-2) <= (b-1) * b^(depth-1).  Cancelling the common
    power of b leaves a single b^|depth - f_{n+1}| on one side.
    """
    k, n, b = record.k, record.n, record.b
    _require_base(b)
    basis = numeration.get_basis(k)
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


def scaled_error_bounds_hold(k: int, n: int, b: int) -> BoundsCheck:
    """Check the two-sided gap bounds at level n from which offsets mismatch.

    |q*x - p| is (b-1)/b * sum(b^{-(f_{n+1}-2+h)}) over the mismatch offsets
    h.  Splitting off the offsets up to a cutoff and bounding the rest by a
    geometric tail turns the two sides, scaled by b^cutoff, into
    (b-1)^2 * sum_{h>0} b^{cutoff-h} >= b and
    (b-1)^2 * sum_h b^{cutoff-h} <= (b-1) * b^{cutoff+1} - b.  The offsets
    increase strictly, so each sum is a base-b numeral with a digit 1 at
    every position cutoff - h.  The lower side holds iff a term has exponent
    >= 1 (an offset in 1..cutoff-1), or the exponent-0 term (b-1)^2 reaches
    b (the cutoff is an offset and b >= 3).  The upper side fails only at
    the all-ones numeral (the offsets fill 0..cutoff), which overshoots by
    1; any missing digit leaves a margin of (b-1)^2 - 1 >= 0.
    """
    _require_base(b)
    if n < 0:
        raise ValueError("n must be >= 0")
    basis = numeration.get_basis(k)
    fn1 = basis.value(n + 1)
    # Smallest positive offset: f_{n+2} when k == 1 (j = 1 is excluded there),
    # f_{n+1} otherwise.  The lower side needs a positive offset below the
    # cutoff, so the cutoff lies past this one.
    h_min = basis.value(n + 2) if k == 1 else fn1
    cutoff = h_min + fn1 + 4
    hs = access._mismatch_offsets(k, n, cutoff)
    if not hs or hs[0] != 0:
        raise AssertionError("offset enumeration must start at h = 0")
    if len(hs) < 2:
        raise AssertionError("cutoff admitted no positive offset")
    if any(h >= nxt for h, nxt in zip(hs, [*hs[1:], cutoff + 1])):
        raise AssertionError("offsets must increase strictly up to the cutoff")
    lower_ok = any(0 < h < cutoff for h in hs) or (hs[-1] == cutoff and b >= 3)
    upper_ok = len(hs) <= cutoff
    return BoundsCheck(
        k=k, n=n, b=b,
        holds=lower_ok and upper_ok, lower_ok=lower_ok, upper_ok=upper_ok,
        route="scaled",
    )


def check_error_bounds_auto(k: int, n: int, b: int) -> BoundsCheck:
    """Verify the gap bounds, picking the dense or scaled route by size.

    The dense route reads a prefix of ``default_depth`` symbols as base-b
    digits, so it stays in use only while both that symbol count and its
    size in bits are small.  Only ``verify --lemma formula3`` picks its route
    here, as it prints the dense record's bound and enclosure values;
    ``bound_constants_hold`` needs only the verdict and always takes the
    scaled route, which never reads the prefix.
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
    basis = numeration.get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    if _law_settles(b, fn, fn1, 2):
        return True
    return (b**fn1 - 1) ** fn < b ** (2 * fn) * (b**fn - 1) ** fn1


def bound_constants_hold(k: int, b: int, n: int) -> bool:
    """Check (b-1)/b^2 / q^(1+theta) <= |x - p/q| <= b^2 / q^(1+theta).

    The upper constant follows from q < b^{f_n} alone; the lower reduces to
    q^theta >= b^{f_{n+1}-3}, which holds whenever ``_law_settles`` with c = 3 and
    is otherwise decided raised to the f_n-th power.  The middle inequality
    is the two-sided gap bound, decided on every cell from the mismatch
    offsets by ``scaled_error_bounds_hold``: only its verdict is needed, so
    no dense prefix value is built.
    """
    _require_base(b)
    if not scaled_error_bounds_hold(k, n, b).holds:
        return False
    basis = numeration.get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    if _law_settles(b, fn, fn1, 3):
        return True
    q = b**fn - 1
    return q**fn1 * b ** (3 * fn) >= b ** (fn * fn1)
