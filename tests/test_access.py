import random

import pytest

from sturmlab import (
    MismatchVerdict,
    fixed_point_prefix,
    mismatch,
    symbol_at,
    to_digits,
)
from sturmlab import numeration, words
from sturmlab.access import _mismatch_offsets, mismatches, symbols_at
from sturmlab.numeration import digit_vectors, from_digits, get_basis


def _positions(k, n, limit):
    """Indices i < limit where the fixed point differs from its f_n-shift:
    the pair f_{n+1}-2+h, f_{n+1}-1+h for each mismatch offset h."""
    start = get_basis(k).value(n + 1) - 2
    return [
        i
        for h in _mismatch_offsets(k, n, limit - 1 - start)
        for i in (start + h, start + 1 + h)
        if i < limit
    ]


def test_symbol_at_known_prefix():
    assert [symbol_at(1, i) for i in range(13)] == [0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1]
    assert [symbol_at(2, i) for i in range(7)] == [0, 0, 1, 0, 0, 1, 0]


def test_symbol_at_agrees_with_prefix():
    for k in (1, 2, 3, 4):
        sym = fixed_point_prefix(k, 30000)
        assert all(symbol_at(k, i) == sym[i] for i in range(30000))


def test_symbol_rule_is_lowest_digit():
    """Symbol at n is 1 exactly when the lowest regular digit of n equals k."""
    for k in (1, 2, 3):
        for n in range(2000):
            expected = 1 if to_digits(k, n)[:1] == (k,) else 0
            assert symbol_at(k, n) == expected


def test_symbol_at_rejects_negative():
    with pytest.raises(ValueError):
        symbol_at(1, -1)


def test_mismatch_verdict_shape():
    v = mismatch(1, 0, 2)
    assert isinstance(v, MismatchVerdict)
    assert v.differs in (True, False)
    assert v.sign in (-1, 0, 1)
    assert not mismatch(1, 0, 2).differs


def test_mismatch_against_direct_comparison():
    # n reaches 12 as in the benchmark's lemma4 sweep; at large n the digits of
    # a scanned i are shorter than the patterns and are compared zero-padded.
    for k in (1, 2, 3, 4):
        for n in range(0, 13):
            fn = get_basis(k).value(n)
            prefix = fixed_point_prefix(k, 4000 + fn)
            for i in range(4000):
                direct = prefix[i + fn] - prefix[i]
                v = mismatch(k, i, n)
                assert v.differs == (direct != 0), (k, n, i)
                assert v.sign == direct, (k, n, i)
            assert _positions(k, n, 4000) == [
                i for i in range(4000) if prefix[i + fn] != prefix[i]
            ], (k, n)


def test_mismatch_against_symbol_at_large_indices():
    """Large n at large i, where a prefix is out of reach: compare with symbol_at."""
    for k in (1, 2, 3, 4):
        rng = random.Random(7700 + k)
        for n in range(0, 21):
            fn = get_basis(k).value(n)
            indices = [rng.randrange(10**12) for _ in range(300)]
            indices += _positions(k, n, 4000)
            for i in indices:
                direct = symbol_at(k, i + fn) - symbol_at(k, i)
                v = mismatch(k, i, n)
                assert (v.differs, v.sign) == (direct != 0, direct), (k, n, i)


def _offsets_per_index(k, n, cutoff):
    """Mismatch offsets from one to_digits per index j (the reference for the walk)."""
    shift = (0,) * (n + 1)
    out = []
    j = 0
    while True:
        digits = to_digits(k, j)
        h = from_digits(k, shift + digits)
        if h > cutoff:
            return out
        if digits[:1] != (k,):
            out.append(h)
        j += 1


def test_mismatch_offsets_match_per_index_digitisation():
    """Offsets from the in-order walk equal those from digitising each j, for
    negative cutoffs, cutoffs at and past basis values, and cutoffs far above
    the uniqueness cap (the scaled route passes cutoffs near f_{n+2} + f_{n+1})."""
    cases = []
    for k in (1, 2, 3, 4, 7):
        for n in range(0, 9):
            fn1, fn2 = get_basis(k).value(n + 1), get_basis(k).value(n + 2)
            for cutoff in (-5, -1, 0, 1, 2, fn1 - 1, fn1, fn2 + fn1 + 4, 3000):
                cases.append((k, n, cutoff))
    cases += [(1, 20, 6_000_000), (2, 12, 10**7), (3, 10, 5_000_001)]
    cases += [(1, 40, get_basis(1).value(42) + get_basis(1).value(41) + 4)]
    for k, n, cutoff in cases:
        assert _mismatch_offsets(k, n, cutoff) == _offsets_per_index(k, n, cutoff), (k, n, cutoff)


def test_mismatch_guard_cases_k1():
    """k=1 shifts by f_0=1 and f_1=2 need the extra digit guard; spot-check them."""
    prefix = fixed_point_prefix(1, 500)
    for n in (0, 1):
        fn = get_basis(1).value(n)
        for i in range(400):
            direct = prefix[i + fn] - prefix[i]
            v = mismatch(1, i, n)
            assert (v.differs, v.sign) == (direct != 0, direct), (n, i)


def test_first_mismatch_at_window_edge():
    """No mismatch may occur at shifts f_n until position f_{n+1} - 2."""
    for k in (1, 2, 3):
        for n in range(0, 8):
            edge = get_basis(k).value(n + 1) - 2
            positions = _positions(k, n, edge + 2)
            assert positions[0] == edge, (k, n, positions[:3])


def test_mismatch_positions_k1_n2():
    # Shift by f_2 = 3: the pairs start at f_3 - 2 = 3, and below 20 the
    # offsets up to 16 are 0, 8 and 13.
    assert _mismatch_offsets(1, 2, 16) == [0, 8, 13]
    assert _positions(1, 2, 20) == [3, 4, 11, 12, 16, 17]


def test_mismatch_sign_alternates_with_parity():
    """At the first mismatch the sign is +1 for even n, -1 for odd n."""
    for k in (1, 2):
        for n in range(0, 10):
            edge = get_basis(k).value(n + 1) - 2
            v = mismatch(k, edge, n)
            assert v.differs
            assert v.sign == (1 if n % 2 == 0 else -1)


@pytest.mark.parametrize("k", [1, 3, 4096])
def test_symbol_at_reads_neither_prefix_nor_walk(k, monkeypatch):
    """lemma2 compares two routes: ``symbol_at`` answers with the prefix
    builder and the in-order walk both unavailable, low table rebuilt."""
    prefix = fixed_point_prefix(k, 3 * k + 5000)
    far = [10**12 + 7, 10**30 + 1]
    expected = [1 if to_digits(k, i)[:1] == (k,) else 0 for i in far]

    def forbidden(*args):
        raise AssertionError("symbol_at must not read this route")

    monkeypatch.setattr(words, "fixed_point_prefix", forbidden)
    monkeypatch.setattr(numeration, "regular_vectors", forbidden)
    monkeypatch.setattr(numeration, "_basis_cache", {})
    assert bytes(symbol_at(k, i) for i in range(len(prefix))) == prefix
    assert [symbol_at(k, i) for i in far] == expected


def _verdict_by_digits(k, n, i):
    """The mismatch rule read from one ``to_digits`` call: digits 0..n of i
    worth f_{n+1} - 2 or f_{n+1} - 1, and a digit at n + 1 below k."""
    digits = to_digits(k, i) + (0,) * (n + 2)
    fn1 = get_basis(k).value(n + 1)
    low = from_digits(k, digits[: n + 1])
    if digits[n + 1] == k or low < fn1 - 2:
        return (False, 0)
    sign = 1 if n % 2 == 0 else -1
    return (True, sign if low == fn1 - 2 else -sign)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 4095, 4096])
def test_mismatches_windows_match_the_digit_rule(k):
    """``mismatches`` keeps the window of its last split while the next index
    shares i's digits from position n + 2 up: f_{n+2} indices when the digit
    at n + 2 is below k, f_{n+1} when it is k.  At levels 0..6 the first
    3,000 indices in order, and runs up, down and with repeats across the
    start, f_{n+1} and f_{n+2} of windows whose digit at n + 2 is 0, k - 1
    and k, agree with the rule read index by index from its digits."""
    f = get_basis(k).value
    for n in range(7):
        run = set()
        for d in {0, k - 1, k}:
            base = f(n + 4) + d * f(n + 2)   # digits 1 at n + 4 and d at n + 2
            for edge in (0, f(n + 1), f(n + 2)):
                run.update(range(base + edge - 3, base + edge + 3))
        run = sorted(run)
        for indices in (range(3000), run, run[::-1], [i for i in run for _ in range(2)]):
            expected = [_verdict_by_digits(k, n, i) for i in indices]
            assert list(mismatches(k, n, indices)) == expected, (k, n)


def test_mismatch_builds_no_level_far_above_the_index(monkeypatch):
    """Digits 0..n of i < f_{n+1} - 2 are worth i: no mismatch, and f_{n+1}
    is not built."""
    monkeypatch.setattr(numeration, "_basis_cache", {})
    assert mismatch(1, 10, 20_000) == MismatchVerdict(False, 0)
    assert len(get_basis(1)._vals) < 20


# Each range kernel, called at k (and level 3 for mismatches), beside its scalar.
RANGE_KERNELS = pytest.mark.parametrize("kernel, scalar", [
    (symbols_at, symbol_at),
    (lambda k, indices: mismatches(k, 3, indices), lambda k, i: mismatch(k, i, 3)),
    (digit_vectors, to_digits),
], ids=["symbols_at", "mismatches", "digit_vectors"])


@RANGE_KERNELS
@pytest.mark.parametrize("k", [1, 4096])
def test_range_kernel_of_nothing_is_empty(kernel, scalar, k):
    assert list(kernel(k, [])) == []
    assert list(kernel(k, iter(()))) == []


@RANGE_KERNELS
@pytest.mark.parametrize("k", [1, 4096])
def test_range_kernel_refuses_a_negative_index_in_mid_iterable(kernel, scalar, k):
    """The values before it are answered; the negative one raises the scalar's text."""
    with pytest.raises(ValueError) as scalar_error:
        scalar(k, -1)
    answers = kernel(k, [3, 10**12, -1, 5])
    assert [next(answers), next(answers)] == [scalar(k, 3), scalar(k, 10**12)]
    with pytest.raises(ValueError) as range_error:
        next(answers)
    assert str(range_error.value) == str(scalar_error.value)


def _unread():
    raise AssertionError("an index was read")
    yield


@RANGE_KERNELS
@pytest.mark.parametrize("k", [0, -3])
def test_range_kernel_refuses_k_before_reading_an_index(kernel, scalar, k):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        list(kernel(k, _unread()))


def test_mismatches_refuses_n_before_reading_an_index():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        list(mismatches(1, -1, _unread()))
