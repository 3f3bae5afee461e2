import itertools
import random

import pytest

from sturmlab import (
    MismatchVerdict,
    fixed_point_prefix,
    mismatch,
    symbol_at,
    to_digits,
)
from sturmlab import access, numeration, words
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


@pytest.mark.parametrize("k", [1, 3, 4096])
def test_range_tables_read_neither_prefix_nor_walk(k, monkeypatch):
    """``bottom`` and V_L are built from the basis alone: with the prefix
    builder and the in-order walk both unavailable and the tables rebuilt,
    ``symbols_at`` and ``mismatches`` at table and run levels answer as before."""
    run = range(10**6, 10**6 + 5000)
    levels = (0, 1, 5, 20)
    expected = [list(symbols_at(k, run))] + [list(mismatches(k, n, run)) for n in levels]

    def forbidden(*args):
        raise AssertionError("the tables must not read this route")

    monkeypatch.setattr(words, "fixed_point_prefix", forbidden)
    monkeypatch.setattr(numeration, "regular_vectors", forbidden)
    monkeypatch.setattr(numeration, "_basis_cache", {})
    monkeypatch.setattr(access, "_verdict_tables", {})
    assert [list(symbols_at(k, run))] + [list(mismatches(k, n, run)) for n in levels] == expected


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 4095, 4096, 10**6])
def test_mismatches_windows_match_the_digit_rule(k):
    """``mismatches`` answers each window that a range meets: at s = L from
    the table V_L (n + 2 <= L), at s = n + 1 as two runs of V_{n+1}
    (n + 2 > L).  A window is f_s indices when the digit at s is below k
    and f_{s-1} when it is k.  At levels 0..6 and at the levels with
    n + 2 = L and L + 1, the first 3,000 indices, 1,000 from 10^12, a run
    that ends at the first mismatch, and runs across the start, f_n,
    f_{n+1} - 2, f_{n+1} - 1, f_{n+1}, f_{s-1} and f_s of windows whose
    digit at s is 0, k - 1 and k agree with the rule read from each
    index's digits.  The runs' indices, falling and repeated, agree
    through ``mismatch`` one by one."""
    basis = get_basis(k)
    f = basis.value
    width = len(basis.tables()[1][0])   # L
    for n in sorted({*range(7), *(m for m in (width - 2, width - 1) if m >= 0)}):
        s = max(width, n + 1)
        runs = [range(3000), range(10**12, 10**12 + 1000), range(max(f(n + 1) - 6, 0), f(n + 1) - 1)]
        for d in {0, k - 1, k}:
            base = f(s + 2) + d * f(s)   # digits 1 at s + 2 and d at s
            for edge in {0, f(n), f(n + 1) - 2, f(n + 1) - 1, f(n + 1), f(s - 1), f(s)}:
                runs.append(range(base + edge - 3, base + edge + 3))
        for run in runs:
            expected = [_verdict_by_digits(k, n, i) for i in run]
            assert list(mismatches(k, n, run)) == expected, (k, n, run)
        scattered = [i for run in runs[3:] for i in run]
        for indices in (scattered[::-1], [i for i in scattered for _ in range(2)]):
            expected = [_verdict_by_digits(k, n, i) for i in indices]
            assert [mismatch(k, i, n) for i in indices] == expected, (k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 64, 4095, 4096, 10**6])
def test_a_window_whose_digit_is_k_ends_before_the_first_mismatch(k):
    """Above the table (n + 2 > L) ``mismatches`` reads V_{n+1} in every
    window at n + 1, with no branch on the digit there: a window whose digit
    at n + 1 is k is f_n wide, so it must end before the first mismatch of
    V_{n+1}, that is f_n <= f_{n+1} - 2.  It fails only at k = 1 for
    n <= 1, where L = 16 and the table answers."""
    basis = get_basis(k)
    f = basis.value
    width = len(basis.tables()[1][0])   # L
    for n in range(max(width - 1, 0), 201):
        assert f(n) <= f(n + 1) - 2, (k, n)
    assert get_basis(1).value(2) - 2 < get_basis(1).value(1)
    assert len(get_basis(1).tables()[1][0]) == 16


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 63])
def test_verdict_table_is_the_digit_rule_below_f_L(k):
    """For every level n with n + 2 <= L, V_L holds the verdict read from
    the digits of every distance below f_L, and is kept with the basis.
    L >= 2 up to k = 63, where f_2 = 4,033."""
    basis = get_basis(k)
    width = len(basis.tables()[1][0])   # L
    assert width >= 2
    for n in range(width - 1):
        table = access._verdict_table(basis, n)
        assert len(table) == basis.value(width), (k, n)
        assert table == [_verdict_by_digits(k, n, i) for i in range(len(table))], (k, n)
        assert access._verdict_table(basis, n) is table


def test_mismatch_builds_no_level_far_above_the_index(monkeypatch):
    """Digits 0..n of i < f_{n+1} - 2 are worth i: no mismatch, and f_{n+1}
    is not built.  A range below it is answered lazily, even one of 10^30
    indices, too long for ``len``."""
    monkeypatch.setattr(numeration, "_basis_cache", {})
    assert mismatch(1, 10, 20_000) == MismatchVerdict(False, 0)
    assert len(get_basis(1)._vals) < 20
    assert list(mismatches(1, 20_000, range(5, 15))) == [MismatchVerdict(False, 0)] * 10
    assert len(get_basis(1)._vals) < 20
    assert list(itertools.islice(mismatches(1, 200, range(10**30)), 3)) == [(False, 0)] * 3
    assert len(get_basis(1)._vals) < 160


# Each range kernel, called at k (and level 3 for mismatches), beside its scalar.
RANGE_KERNELS = pytest.mark.parametrize("kernel, scalar", [
    (symbols_at, symbol_at),
    (lambda k, indices: mismatches(k, 3, indices), lambda k, i: mismatch(k, i, 3)),
    (digit_vectors, to_digits),
], ids=["symbols_at", "mismatches", "digit_vectors"])


@RANGE_KERNELS
@pytest.mark.parametrize("k", [1, 4096])
def test_range_kernel_of_nothing_is_empty(kernel, scalar, k):
    for empty in (range(0), range(5, 5), range(7, 3), range(10**12, 10**12)):
        assert list(kernel(k, empty)) == []


@RANGE_KERNELS
@pytest.mark.parametrize("k", [1, 4096])
def test_range_kernel_refuses_a_negative_index_in_mid_iterable(kernel, scalar, k):
    """A kernel takes a range of step 1 only: an iterable with a negative
    index mid-stream, or a range of another step, is refused when the
    kernel is called."""
    for indices in ([3, 10**12, -1, 5], iter(range(5)), range(0, 10, 2), range(5, 0, -1)):
        with pytest.raises(TypeError, match="^expected a range of step 1$"):
            kernel(k, indices)


@RANGE_KERNELS
@pytest.mark.parametrize("k", [1, 4096])
def test_range_kernel_refuses_a_negative_start_when_called(kernel, scalar, k):
    """Refused before any index is read, with the scalar's text."""
    with pytest.raises(ValueError) as scalar_error:
        scalar(k, -1)
    for indices in (range(-1, 5), range(-3, -1), range(-2, -2)):
        with pytest.raises(ValueError) as range_error:
            kernel(k, indices)
        assert str(range_error.value) == str(scalar_error.value)


@RANGE_KERNELS
@pytest.mark.parametrize("k", [0, -3])
def test_range_kernel_refuses_k_before_reading_an_index(kernel, scalar, k):
    """Refused when the kernel is called, with the scalar's text, even for
    a start that is refused too."""
    for indices in (range(5), range(-1, 5)):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            kernel(k, indices)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        scalar(k, 5)


def test_mismatches_refuses_n_before_reading_an_index():
    for k, indices in ((1, range(5)), (0, range(5)), (1, range(-1, 5))):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            mismatches(k, -1, indices)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        mismatch(0, -1, -1)
