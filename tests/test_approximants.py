import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from sturmlab import (
    CapExceededError,
    IndecisiveEnclosureError,
    approximant,
    bound_constants_hold,
    check_error_bounds,
    check_error_bounds_auto,
    default_depth,
    error_bounds,
    fixed_point_prefix,
    fixed_point_series,
    growth_law_holds,
    scaled_error_bounds_hold,
    series_truncation,
    word_value,
)
from sturmlab import access, approximants, numeration
from sturmlab.approximants import _law_settles, _reduced
from sturmlab.numeration import get_basis


def _word(digits: str) -> bytes:
    return bytes(map(int, digits))


def test_word_value_basics():
    assert word_value(_word("101"), 2) == 5
    assert word_value(_word("0"), 7) == 0
    assert word_value(_word(""), 3) == 0
    assert word_value(_word("123"), 10) == 123
    # Symbols at or above the base are fine: plain polynomial evaluation.
    assert word_value(bytes([3, 1]), 2) == 7


def _horner(sym, b, chunk=1000):
    """Plain Horner evaluation, run in base b^chunk over chunks read in base b."""
    def horner(digits, base):
        acc = 0
        for d in digits:
            acc = acc * base + d
        return acc

    sym = bytes(-len(sym) % chunk) + bytes(sym)  # leading zeros keep the value
    return horner(
        (horner(sym[i : i + chunk], b) for i in range(0, len(sym), chunk)), b**chunk
    )


@pytest.fixture
def default_str_digit_limit():
    """Run under CPython's default int/str digit limit, as library callers do."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


WORD_VALUE_BASES = (2, 3, 5, 10, 16, 36, 37, 2**40)
WORD_VALUE_LENGTHS = (0, 1, 255, 256, 257, 3999, 4000, 4001, 4301, 12001)


def test_word_value_matches_horner(default_str_digit_limit):
    rng = random.Random(8)
    for n in WORD_VALUE_LENGTHS:
        words = {
            2: bytes(rng.randrange(2) for _ in range(n)),
            10: bytes(rng.randrange(10) for _ in range(n)),
            # Symbols 10..35 are digits of base 36 but not decimal digits.
            36: bytes(rng.randrange(10, 36) for _ in range(n)),
            256: bytes(rng.randrange(256) for _ in range(n)),
        }
        for alphabet, w in words.items():
            for b in WORD_VALUE_BASES:
                assert word_value(w, b) == _horner(w, b), (n, b, alphabet)


def test_word_value_long_words_both_paths(default_str_digit_limit):
    # One base per route: whole-word conversion, digit chunks, Horner chunks.
    w = fixed_point_prefix(1, 300_000)
    for b in (2, 3, 10, 37):
        assert word_value(w, b) == _horner(w, b), b


def test_series_truncation_brackets_limit():
    st = fixed_point_series(1, 2, 40)
    # Reference value from a much deeper truncation.
    deep = fixed_point_series(1, 2, 400)
    ref = Fraction(deep.lo, deep.den)
    assert Fraction(st.lo, st.den) <= ref <= Fraction(st.hi, st.den)
    assert Fraction(st.hi - st.lo, st.den) == Fraction(2, 2**40)
    assert float(ref) == pytest.approx(0.5803931142774174, abs=1e-15)


@pytest.mark.parametrize("digit_cap", [1, 3])
@pytest.mark.parametrize("b", [2, 3, 10, 2**40])
def test_series_truncation_encloses_every_extension(b, digit_cap):
    """Extensions by symbols <= digit_cap land in [lo/den, hi/den]."""
    w = bytes([digit_cap, 0, 1, digit_cap, 0, 0, 1])
    st = series_truncation(w, b, digit_cap)
    assert (st.b, st.depth, st.den) == (b, len(w), (b - 1) * b ** (len(w) - 1))

    def series(word):
        return sum(Fraction(c, b**i) for i, c in enumerate(word))

    lo, hi = Fraction(st.lo, st.den), Fraction(st.hi, st.den)
    assert series(w) == lo
    for m in (1, 5, 40):
        tails = (bytes(m), bytes([digit_cap]) * m, fixed_point_prefix(1, m))
        for tail in tails:
            assert lo <= series(w + tail) <= hi, (m, tail)
        # The all-cap extension falls short of hi/den by exactly the tail
        # bound of its own longer truncation.
        full = series_truncation(w + bytes([digit_cap]) * m, b, digit_cap)
        assert hi - series(w + bytes([digit_cap]) * m) == Fraction(
            full.hi - full.lo, full.den)


def test_series_truncation_validates():
    with pytest.raises(ValueError):
        series_truncation(b"", 2, 1)
    with pytest.raises(ValueError):
        series_truncation(b"\x01", 1, 1)
    with pytest.raises(ValueError):
        series_truncation(b"\x01", 2, -1)


def test_default_depth():
    # f_{n+2} + 4 f_n
    assert default_depth(1, 2) == get_basis(1).value(4) + 4 * get_basis(1).value(2)
    assert default_depth(2, 3) == get_basis(2).value(5) + 4 * get_basis(2).value(3)


def test_worked_instance():
    """k=1, n=2, b=2: the approximant is 4/7 and |delta| lies in [1/112, 1/56]."""
    rec = approximant(1, 2, 2)
    assert (rec.p, rec.q) == (4, 7)
    lower, upper = error_bounds(1, 2, 2)
    assert (lower, upper) == (Fraction(1, 112), Fraction(1, 56))
    delta_lo, delta_hi = rec.deltas()
    assert lower <= delta_lo <= delta_hi <= upper
    assert rec.sign == 1
    chk = check_error_bounds(rec)
    assert chk.holds and chk.lower_ok and chk.upper_ok
    assert chk.route == "dense"
    assert bool(chk)


def test_numerator_denominator():
    rec = approximant(1, 2, 2)
    assert (rec.p, rec.q) == (4, 7)
    # q = b^{f_n} - 1 always.
    assert approximant(2, 3, 10).q == 10 ** get_basis(2).value(3) - 1


def test_enclosure_brackets_true_difference():
    for k in (1, 2):
        for b in (2, 3):
            for n in range(0, 6):
                rec = approximant(k, n, b)
                ref = fixed_point_series(k, b, 600)
                pq = Fraction(rec.p, rec.q)
                tail = Fraction(ref.hi - ref.lo, ref.den)
                hi = abs(Fraction(ref.lo, ref.den) - pq) + tail
                lo = abs(Fraction(ref.lo, ref.den) - pq) - tail
                delta_lo, delta_hi = rec.deltas()
                assert delta_lo <= hi and lo <= delta_hi


def test_sign_matches_parity():
    for k in (1, 2, 3):
        for n in range(0, 8):
            assert approximant(k, n, 2).sign == (1 if n % 2 == 0 else -1)


def test_shallow_depth_is_indecisive(monkeypatch):
    monkeypatch.setattr(approximants, "default_depth", lambda k, n: 5)
    with pytest.raises(IndecisiveEnclosureError, match="straddles zero at depth 5"):
        approximant(1, 2, 2)


def test_bounds_grid_dense():
    for k in (1, 2):
        for b in (2, 3, 10):
            for n in range(2, 8):
                assert check_error_bounds(approximant(k, n, b)).holds, (k, b, n)


def test_scaled_route_agrees_with_dense():
    """The routes agree on every cell up to n = 6, the dense one forced even
    past the bit limit, and deeper on every cell of the benchmark's bounds
    grid where ``check_error_bounds_auto`` picks the dense route; there
    ``bound_constants_hold`` takes its verdict from the scaled route alone."""
    dense = 0
    for k in (1, 2, 3):
        for b in (2, 3, 10, 2**40, 10**30):
            for n in range(0, 16):
                s = scaled_error_bounds_hold(k, n, b)
                assert s.holds and s.route == "scaled", (k, b, n)
                if n <= 6:
                    d = check_error_bounds(approximant(k, n, b))
                    assert d.route == "dense", (k, b, n)
                else:
                    d = check_error_bounds_auto(k, n, b)
                    if d.route != "dense":
                        continue
                    dense += 1
                assert (d.lower_ok, d.upper_ok) == (s.lower_ok, s.upper_ok), (k, b, n)
    # Cells past n = 6 that the auto route sends to the dense one.
    assert dense == 68


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("b", [2, 3, 10, 2**40], ids=["2", "3", "10", "2^40"])
def test_dense_route_matches_fraction_arithmetic(k, b):
    """Integer decisions and lazily built values equal plain Fraction arithmetic."""
    for n in range(0, 5):
        fn, fn1 = get_basis(k).value(n), get_basis(k).value(n + 1)
        depth = default_depth(k, n)
        symbols = fixed_point_prefix(k, depth)
        w = 0
        for c in symbols:
            w = w * b + c
        head = 0
        for c in symbols[:fn]:
            head = head * b + c
        pq = Fraction(b * head, b**fn - 1)
        x_lo = Fraction(w, b ** (depth - 1))
        x_hi = x_lo + Fraction(1, (b - 1) * b ** (depth - 1))
        lo, hi = x_lo - pq, x_hi - pq
        assert lo > 0 or hi < 0, (k, b, n)
        delta_lo, delta_hi = (lo, hi) if lo > 0 else (-hi, -lo)
        q = b**fn - 1
        lower = Fraction(b - 1, q * b ** (fn1 - 1))
        upper = Fraction(1, q * b ** (fn1 - 2))

        rec = approximant(k, n, b)
        assert rec.sign == (1 if lo > 0 else -1)
        chk = check_error_bounds(rec)
        assert chk.lower_ok == (delta_lo >= lower), (k, b, n)
        assert chk.upper_ok == (delta_hi <= upper), (k, b, n)
        assert chk.holds == (chk.lower_ok and chk.upper_ok)
        assert error_bounds(k, n, b) == (lower, upper)
        assert chk.record == rec
        assert rec.deltas() == (delta_lo, delta_hi)


def _same_fraction(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want) and got == want


_REDUCER_BASES = [2, 3, 6, 7, 10, 12, 2**40, 10**30, 2**61 - 1]


@pytest.mark.parametrize("v", [0, 1, 2, 3, 63, 64, 65])
@pytest.mark.parametrize("b", _REDUCER_BASES, ids=str)
def test_reduced_matches_fraction(b, v):
    """num = b^v * unit * c over b^e * (b-1)q, with c sharing a factor with
    (b-1)q or not and e on both sides of v, so the b-part is capped by b^e
    whenever v > e."""
    rng = random.Random(b * 100 + v)
    q = b**5 - 1
    rest = (b - 1) * q
    for e in sorted({0, 1, max(v - 1, 0), v, v + 1, 64, 100}):
        scale = b**e
        for c in (1, b - 1, q, rest, b**4 + b**3 + b**2 + b + 1):
            unit = rng.getrandbits(300) | 1
            while gcd(unit, b) > 1:
                unit += 2
            num = b**v * unit * c
            _same_fraction(_reduced(num, b, scale, rest, num % rest),
                           Fraction(num, scale * rest))


@pytest.mark.parametrize(
    "num, b, e",
    [
        (2**200 * 3, 6, 50),  # v_2 past the cap, v_3 below it
        (2**7 * 5**2 * 11, 10, 30),  # unequal valuations at the primes of b
        (2**20 * 3**90, 12, 40),  # v_3 past the cap, v_2 below it
        (3**129, 3, 128),  # one past the cap, the doubling reaches b^128
        (0, 10, 9),  # everything cancels
        (7, 10, 0),  # scale = 1
    ],
)
def test_reduced_caps_at_scale(num, b, e):
    rest = (b - 1) * (b**3 - 1)
    scale = b**e
    _same_fraction(_reduced(num, b, scale, rest, num % rest), Fraction(num, scale * rest))


def test_deltas_runs_no_full_size_gcd(monkeypatch):
    """The reduction never hands the full-size numerator or denominator to a
    gcd: every operand fits in (b-1) * q, the only factor of the denominator
    that is not a power of b.  Building the reduced values with Fraction
    arithmetic would fail this."""
    rec = approximant(3, 8, 10)
    den = (rec.b - 1) * rec.b ** (rec.depth - 1) * rec.q
    want = (Fraction(rec.num_lo, den), Fraction(rec.num_hi, den))
    limit = ((rec.b - 1) * rec.q).bit_length()
    full = rec.num_lo.bit_length()
    assert full > 10 * limit
    bits = []

    def recording_gcd(*args):
        bits.append(max(a.bit_length() for a in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording_gcd)
    monkeypatch.setattr(approximants, "gcd", recording_gcd, raising=False)
    got = rec.deltas()
    monkeypatch.undo()
    assert bits and max(bits) <= limit
    for g, w in zip(got, want):
        _same_fraction(g, w)


def test_residues_match_numerators():
    """The residues deltas() reduces by are num mod (b-1)q, on every dense
    cell of the certify grid's bases and on wider digit alphabets and bases,
    with both signs of x - p/q."""
    recs = [chk.record for k in (1, 2, 3) for b in (2, 3, 10) for n in range(16)
            if (chk := check_error_bounds_auto(k, n, b)).route == "dense"]
    recs += [approximant(5, n, 7) for n in range(6)]
    recs += [approximant(1, n, 2**40) for n in range(12)]
    for rec in recs:
        rest = (rec.b - 1) * rec.q
        assert rec._residues() == (rec.num_lo % rest, rec.num_hi % rest), (rec.k, rec.n, rec.b)
    assert {rec.sign for rec in recs} == {-1, 1}


def test_deltas_divides_numerators_by_small_numbers_only():
    """deltas() takes no full-size remainder: every divisor that num_lo or
    num_hi meets is a small power of b or the common factor, never (b-1)q."""
    rec = approximant(3, 8, 10)
    assert ((rec.b - 1) * rec.q).bit_length() > 50_000
    divisors = []

    class Logged(int):
        def __mod__(self, other):
            divisors.append(other)
            return int.__mod__(self, other)

        def __floordiv__(self, other):
            divisors.append(other)
            return int.__floordiv__(self, other)

        def __divmod__(self, other):
            divisors.append(other)
            return int.__divmod__(self, other)

    logged = rec._replace(num_lo=Logged(rec.num_lo), num_hi=Logged(rec.num_hi))
    got = logged.deltas()
    widths = [d.bit_length() for d in divisors]
    assert widths and max(widths) <= 64
    for g, w in zip(got, rec.deltas()):
        _same_fraction(g, w)


def test_wrong_residue_raises(monkeypatch):
    rec = approximant(2, 5, 10)
    monkeypatch.setattr(approximants.ApproximantRecord, "_residues", lambda self: (0, 0))
    with pytest.raises(AssertionError, match="residue"):
        rec.deltas()


def test_scaled_route_leaves_values_unset():
    chk = scaled_error_bounds_hold(1, 4, 3)
    assert chk.record is None


def test_auto_route_switches():
    small = check_error_bounds_auto(1, 3, 2)
    assert small.route == "dense"
    big = check_error_bounds_auto(3, 14, 2)
    assert big.route == "scaled"
    assert big.holds
    # Few symbols, but each one a 99-bit digit: the dense route would build
    # integers of about 11.6 million bits.
    wide = check_error_bounds_auto(1, 20, 10**30)
    assert wide.route == "scaled"
    assert wide.holds and wide.lower_ok and wide.upper_ok
    assert check_error_bounds_auto(1, 13, 2**40).route == "dense"


def test_bounds_grid_large_n_scaled():
    for (k, b, n) in [(1, 2, 15), (2, 3, 15), (3, 10, 15), (1, 10, 25)]:
        assert check_error_bounds_auto(k, n, b).holds, (k, b, n)


def test_scaled_route_builds_the_basis_to_about_level_n(monkeypatch):
    """The level values come by doubling and the offsets are walked from
    f_{n+1} and f_{n+2}, so the basis table is not extended to level n
    (3,007 entries when the walk read its weights from the table, 6,007
    when the offsets were re-weighted from the standard walk)."""
    monkeypatch.setattr(numeration, "_basis_cache", {})
    assert scaled_error_bounds_hold(1, 3000, 2).holds
    assert len(get_basis(1)._vals) < 60


def test_bound_constants_hold_keeps_a_window_of_levels():
    """A level-100,000 cell holds a few basis values, not the table of
    every level below it (462 MB when the table was extended to level n)."""
    tracemalloc.start()
    try:
        assert bound_constants_hold(1, 2, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250 * 2**10   # 121 KB measured


@pytest.mark.parametrize("k, n", [(1, 22), (5, 20)])
def test_scaled_route_heavy_tail_at_wide_base(k, n):
    # Both cells used to end in AssertionError("unexpectedly heavy tail").
    chk = check_error_bounds_auto(k, n, 10**30)
    assert chk.route == "scaled"
    assert chk.holds and chk.lower_ok and chk.upper_ok


def _scaled_sums_hold(b, cutoff, hs):
    """Both sides of the scaled gap bound as exact sums of powers of b."""
    coef = (b - 1) ** 2
    lower = coef * sum(b ** (cutoff - h) for h in hs if h > 0) - b
    upper = (b ** (cutoff + 2) - b ** (cutoff + 1) - b
             - coef * sum(b ** (cutoff - h) for h in hs))
    return lower >= 0, upper >= 0


# Cells whose cutoff is at most 40: 9, 12, 17, 25, 38, 10, 18, 38, 12, 30, 14.
_SMALL_CUTOFF_CELLS = [(1, n) for n in range(5)] + [(2, 0), (2, 1), (2, 2),
                                                    (3, 0), (3, 1), (4, 0)]


def test_scaled_decision_matches_exact_sums(monkeypatch):
    """The offset tests of ``scaled_error_bounds_hold`` give the verdicts of
    its two scaled sums on offset lists planted in 0..cutoff, each starting
    at 0 and strictly increasing."""
    rng = random.Random(20261021)
    make = None
    planted = []

    def offsets(k, n, cutoff):
        assert cutoff <= 40
        planted.append((cutoff, make(cutoff)))
        return planted[-1][1]

    def random_offsets(cutoff):
        return [0, *sorted(rng.sample(range(1, cutoff + 1), rng.randint(1, cutoff)))]

    monkeypatch.setattr(access, "_mismatch_offsets", offsets)
    makers = [lambda c: [0, c], lambda c: list(range(c + 1))] + [random_offsets] * 30
    verdicts = set()
    for b in (2, 3, 10, 2**40, 10**30):
        for k, n in _SMALL_CUTOFF_CELLS:
            for make in makers:
                chk = scaled_error_bounds_hold(k, n, b)
                cutoff, hs = planted[-1]
                want = _scaled_sums_hold(b, cutoff, hs)
                assert (chk.lower_ok, chk.upper_ok) == want, (b, k, n, hs)
                assert chk.holds == all(want)
                verdicts.update(enumerate(want))
            # The walk's invariants refuse lists without h = 0 or a positive h.
            for make in (lambda c: [0], lambda c: [c]):
                with pytest.raises(AssertionError):
                    scaled_error_bounds_hold(k, n, b)
    assert verdicts == {(0, True), (0, False), (1, True), (1, False)}


def test_power_guard_raises():
    with pytest.raises(CapExceededError):
        error_bounds(1, 60, 2)
    with pytest.raises(CapExceededError):
        approximant(1, 60, 2)


def test_growth_law():
    for k in (1, 2, 3):
        for b in (2, 3, 10):
            for n in range(2, 9):
                assert growth_law_holds(k, b, n), (k, b, n)
    # Far beyond materializable powers, the symbolic route still decides.
    assert growth_law_holds(1, 2, 60)
    assert growth_law_holds(2, 10, 40)


def _exact_grid():
    """(k, b, n, f_n, f_{n+1}) wherever the exact power comparison stays small."""
    for k in range(1, 9):
        for b in (2, 3, 4, 10, 2**40):
            for n in range(0, 13):
                fn, fn1 = get_basis(k).value(n), get_basis(k).value(n + 1)
                if fn * fn1 * b.bit_length() <= 2 * 10**6:
                    yield k, b, n, fn, fn1


def test_growth_law_matches_exact_comparison():
    fails = set()
    for k, b, n, fn, fn1 in _exact_grid():
        # q_{n+1} < b^2 q_n^theta, raised to the f_n-th power.
        exact = (b**fn1 - 1) ** fn < b ** (2 * fn) * (b**fn - 1) ** fn1
        assert growth_law_holds(k, b, n) == exact, (k, b, n)
        if not exact:
            fails.add((k, b, n))
    assert {(2, 2, 0), (3, 2, 0), (4, 2, 0)} <= fails


def test_lower_constant_matches_exact_comparison():
    fails = set()
    for k, b, n, fn, fn1 in _exact_grid():
        # q^theta >= b^(f_{n+1}-3), raised to the f_n-th power.
        q = b**fn - 1
        exact = q**fn1 * b ** (3 * fn) >= b ** (fn * fn1)
        gaps = check_error_bounds_auto(k, n, b).holds
        assert bound_constants_hold(k, b, n) == (gaps and exact), (k, b, n)
        if not exact:
            fails.add((k, b, n))
    assert (3, 2, 0) in fails


def test_law_settles_soundly_and_wherever_bernoulli_does():
    # At n = 0, theta = k + 1 crosses the edge of the law at small b for k > 8.
    edge = ((k, b, 0, 1, k + 1) for k in range(9, 65) for b in (2, 3, 4, 10))
    past_bernoulli = 0
    for k, b, n, fn, fn1 in itertools.chain(_exact_grid(), edge):
        q = b**fn - 1
        growth = (b**fn1 - 1) ** fn < b ** (2 * fn) * q**fn1
        lower_constant = q**fn1 * b ** (3 * fn) >= b ** (fn * fn1)
        for c, exact in ((2, growth), (3, lower_constant)):
            settles = _law_settles(b, fn, fn1, c)
            # (1 - x)^theta >= 1 - theta*x >= b^-c, with x = b^-f_n.
            bernoulli = fn * b**fn * (b**c - 1) >= fn1 * b**c
            assert exact or not settles, (k, b, n, c)
            assert settles or not bernoulli, (k, b, n, c)
            past_bernoulli += settles and not bernoulli
    assert past_bernoulli > 0


def test_growth_law_decided_by_log_bound_past_the_power_cap():
    # (1 - 2^-40)^(2^40+1) is near 1/e: Bernoulli's inequality cannot show the
    # law, the exact powers have ~2^45 bits, and the logarithm bound settles it.
    assert growth_law_holds(2**40, 2**40, 0)


def test_growth_law_past_the_power_cap_raises():
    # The law fails here (q_1 = 2^(2^22+1) - 1 against b^2 * q_0 = 4), no
    # bound proves it, and the exact comparison is sized f_n*f_{n+1}*bits(b),
    # past the power cap, so the cell is refused.
    with pytest.raises(CapExceededError):
        growth_law_holds(2**22, 2, 0)


def test_bound_constants():
    for k in (1, 2):
        for b in (2, 3):
            for n in range(2, 8):
                assert bound_constants_hold(k, b, n), (k, b, n)
    assert bound_constants_hold(1, 2, 50)
