import functools
import itertools
import random
import tracemalloc
from collections.abc import Iterator
from operator import eq, mul

import pytest

from sturmlab import (
    from_digits,
    get_basis,
    is_regular,
    mismatch,
    normalize,
    symbol_at,
    to_digits,
    uniqueness_oracle,
)
from sturmlab.access import mismatches, symbols_at
from sturmlab.errors import CapExceededError
from sturmlab import numeration
from sturmlab.numeration import _window, digit_vectors, regular_vectors
from sturmlab.words import fixed_point_prefix


def test_basis_seeds_and_recurrence():
    # f_0 = 1, f_1 = k + 1, then f_{n+2} = k f_{n+1} + f_n; no index below 0.
    for k in (1, 2, 3, 4):
        basis = numeration.Basis(k)
        assert basis._vals == [1, k + 1]
        f = basis.value
        assert f(0) == 1
        assert f(1) == k + 1
        for n in range(0, 20):
            assert f(n + 2) == k * f(n + 1) + f(n)
        for n in (-1, -2):
            with pytest.raises(ValueError, match=r"^n must be >= 0$"):
                f(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 2**40])
def test_value_by_doubling_matches_recurrence(k):
    """Values past the table come by doubling and leave the table as it was;
    they match the recurrence stepped from f_0 = 1, f_1 = k + 1."""
    basis = numeration.Basis(k)
    wanted = {*range(301), 1000, 10000}
    f, g = 1, k + 1   # f_n, f_{n+1}
    for n in range(max(wanted) + 1):
        if n in wanted:
            assert basis.value(n) == f, (k, n)
        f, g = g, k * g + f
    assert basis._vals == [1, k + 1]


def test_basis_known_rows():
    assert [get_basis(1).value(n) for n in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert [get_basis(2).value(n) for n in range(7)] == [1, 3, 7, 17, 41, 99, 239]
    assert [get_basis(3).value(n) for n in range(6)] == [1, 4, 13, 43, 142, 469]


def test_largest_index_leq():
    basis = get_basis(2)
    assert basis.largest_index_leq(0) == -1
    assert basis.largest_index_leq(1) == 0
    assert basis.largest_index_leq(2) == 0
    assert basis.largest_index_leq(3) == 1
    assert basis.largest_index_leq(7) == 2
    assert basis.largest_index_leq(16) == 2
    assert basis.largest_index_leq(17) == 3


def test_regularity_predicate():
    assert is_regular(1, (1, 0, 1))
    assert not is_regular(1, (1, 1))        # digit k over nonzero
    assert not is_regular(1, (0, 2))        # digit above k
    assert is_regular(2, (0, 2, 0, 2))
    assert not is_regular(2, (1, 2))
    assert is_regular(2, (2, 1, 0, 2))
    assert not is_regular(1, (1, -1))       # negative digit


def test_to_digits_examples():
    # 12 = f_4 + f_2 + f_0 = 8 + 3 + 1 for k=1.
    assert to_digits(1, 12) == (1, 0, 1, 0, 1)
    assert to_digits(1, 0) == ()
    # 16 = 2*f_2 + 2*f_0 = 14 + 2 for k=2.
    assert to_digits(2, 16) == (2, 0, 2)


def test_round_trip_dense_range():
    for k in (1, 2, 3, 4):
        for n in range(20000):
            d = to_digits(k, n)
            assert is_regular(k, d)
            assert from_digits(k, d) == n


def test_round_trip_sparse_large():
    rng = random.Random(7)
    for k in (1, 2, 3):
        for _ in range(200):
            n = rng.randrange(10**12)
            assert from_digits(k, to_digits(k, n)) == n


def test_to_digits_greedy_is_msf():
    """The greedy expansion takes the largest basis element first."""
    for k in (1, 2, 3):
        basis = get_basis(k)
        for n in (1, 5, 29, 104, 9999):
            d = to_digits(k, n)
            if n > 0:
                top = basis.largest_index_leq(n)
                assert len(d) == top + 1
                assert d[top] >= 1


def _f2L(k):
    """f_{2L}, where f_L is the size of the low table."""
    basis = get_basis(k)
    return basis.value(2 * basis.largest_index_leq(numeration._LOW_TABLE_BOUND))


def _greedy_reference(k, n):
    """Every position divided from the top down, with no table (the reference)."""
    vals = []
    f_prev, f = 1, 1
    while f <= n:
        vals.append(f)
        f_prev, f = f, k * f + f_prev
    out = []
    for f in reversed(vals):
        out.append(n // f)
        n %= f
    return tuple(reversed(out))


@pytest.mark.parametrize("k", range(1, 9))
def test_to_digits_matches_regular_vectors(k):
    """Every value below 10^5 digitises to the vector the in-order walk reaches."""
    bound = 10**5
    walked = list(regular_vectors(k, bound))
    assert [value for value, _ in walked] == list(range(bound))
    assert [to_digits(k, n) for n in range(bound)] == [digits for _, digits in walked]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 4095, 4096, 10**6])
def test_to_digits_straddles_low_table(k):
    """Values on both sides of the table's bound f_L, of f_{L+1}, of f_{2L}
    and f_{2L+1}, and 10^30."""
    basis = get_basis(k)
    low = basis.tables()[0]
    size = len(low)
    top = basis.largest_index_leq(numeration._LOW_TABLE_BOUND)
    assert size == basis.value(top) <= numeration._LOW_TABLE_BOUND < basis.value(top + 1)
    edges = {size, basis.value(top + 1), basis.value(top + 2), 2 * size, k * size,
             basis.value(2 * top), basis.value(2 * top + 1)}
    values = {v + d for v in edges for d in range(-3, 4) if v + d >= 0} | {10**30, 10**30 - 1}
    for n in sorted(values):
        assert to_digits(k, n) == _greedy_reference(k, n), (k, n)


def _walk_cases(k):
    """Values around the low table's size and f_1, f_j - 2 .. f_j + 1 for
    j <= 60, f_{2L} - 3 .. f_{2L} + 3 and the same around f_{2L+1} (L the
    low table's top position), and random values below 10^12 and 10^30."""
    f = [1, k + 1]
    while len(f) <= 60:
        f.append(k * f[-1] + f[-2])
    size = len(get_basis(k).tables()[0])
    top = get_basis(k).largest_index_leq(numeration._LOW_TABLE_BOUND)
    edges = [size, k + 1, *f]
    values = {v + d for v in edges for d in range(-2, 2) if v + d >= 0}
    values |= {v + d for v in f[2 * top : 2 * top + 2] for d in range(-3, 4) if v + d >= 0}
    rng = random.Random(8800 + k)
    values |= {rng.randrange(10**12) for _ in range(40)}
    values |= {rng.randrange(10**30) for _ in range(40)}
    return sorted(values | set(range(8)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 4095, 4096, 10**6])
def test_walk_matches_full_chain_reference(k):
    """``to_digits``, ``symbol_at`` and ``mismatch`` take one step per nonzero
    digit; they agree with dividing at every position.  From k = 4096 up the
    low table has one entry and the walk does every step."""
    f = [1, k + 1]
    for i in _walk_cases(k):
        digits = _greedy_reference(k, i)
        assert to_digits(k, i) == digits, (k, i)
        assert symbol_at(k, i) == (1 if digits[:1] == (k,) else 0), (k, i)
        padded = digits + (0, 0)
        while len(f) < len(padded):
            f.append(k * f[-1] + f[-2])
        low = 0   # value of digits 0..n
        for n in range(len(padded) - 1):
            low += padded[n] * f[n]
            sign = 1 if n % 2 == 0 else -1
            expected = (False, 0)
            if padded[n + 1] != k and low == f[n + 1] - 2:
                expected = (True, sign)
            elif padded[n + 1] != k and low == f[n + 1] - 1:
                expected = (True, -sign)
            assert mismatch(k, i, n) == expected, (k, i, n)


def _maximal_ranges(values):
    """Increasing distinct values as the maximal ranges of step 1 they form."""
    runs = []
    for v in values:
        if runs and runs[-1].stop == v:
            runs[-1] = range(runs[-1].start, v + 1)
        else:
            runs.append(range(v, v + 1))
    return runs


def _kernel_streams(k):
    """Ranges that the range kernels must answer as if each index were
    split afresh, and index lists for the scalars, each by name.

    ``edges`` climbs across every window at position L below f_{2L}, where
    f_L is the low table's size: the indices e - 2 .. e + 1 for each base e
    past 0, the reference digits of each m < f_L moved up L positions, and
    for e = f_{2L}, split into maximal ranges, so a run stays inside a
    window for two steps and then crosses its end.  ``past`` is a run of
    3,000 indices from f_{2L}, and ``above`` a run of 4 f_L consecutive
    indices around f_{2L+1} + k f_L, across windows at L whose digit there
    is k - 1, k and 0.  For the scalars, ``falling`` takes the edge indices
    from the top down, ``repeated`` every seventh of them three times over,
    ``shuffled`` the walk cases with repeats, in random order, and ``far``
    random indices up to 10^30 in increasing order.
    """
    basis = get_basis(k)
    size = len(basis.tables()[0])
    top = basis.largest_index_leq(numeration._LOW_TABLE_BOUND)   # L
    f = [basis.value(j) for j in range(2 * top + 2)]
    f2L = f[2 * top]
    bases = [sum(map(mul, _greedy_reference(k, m), f[top:])) for m in range(1, size)]
    edges = sorted({e + d for e in [*bases, f2L] for d in range(-2, 2) if e + d >= 0})
    above = f[2 * top + 1] + k * size
    rng = random.Random(9900 + k)
    far = sorted(rng.randrange(10**j) for j in (9, 12, 30) for _ in range(30))
    shuffled = _walk_cases(k)
    shuffled += rng.sample(shuffled, 40)
    rng.shuffle(shuffled)
    runs = {
        "edges": _maximal_ranges(edges),
        "past": [range(f2L, f2L + 3000)],
        "above": [range(above - 2 * size, above + 2 * size)],
    }
    scattered = {
        "falling": edges[::-1],
        "repeated": [v for v in edges[::7] for _ in range(3)],
        "shuffled": shuffled,
        "far": far,
    }
    return runs, scattered


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 4095, 4096, 10**6])
def test_range_kernels_match_references(k):
    """``digit_vectors``, ``symbols_at`` and ``mismatches`` over each range of
    ``_kernel_streams``, and ``to_digits``, ``symbol_at`` and ``mismatch`` over
    each of its index lists, agree with the greedy reference, which divides
    at every position of every index, and with the prefix and its f_n-shift.
    The kernels answer each window that a range meets at once, so the runs
    cross every window end; the lists run down and back across them.  Past
    the prefix's end a symbol is read from the reference's bottom digit."""
    prefix = fixed_point_prefix(k, _f2L(k) + 64)

    def symbol(i):
        if i < len(prefix):
            return prefix[i]
        return 1 if _greedy_reference(k, i)[:1] == (k,) else 0

    def verdicts(n, values):
        fn = get_basis(k).value(n)
        return [(d != 0, d) for d in (symbol(i + fn) - symbol(i) for i in values)]

    runs, scattered = _kernel_streams(k)
    for name, ranges in runs.items():
        for values in ranges:
            assert list(digit_vectors(k, values)) == [_greedy_reference(k, i) for i in values], name
            assert list(symbols_at(k, values)) == [symbol(i) for i in values], name
            for n in (0, 1, 2, 5, 12):
                assert list(mismatches(k, n, values)) == verdicts(n, values), (name, n)
    for name, values in scattered.items():
        assert [to_digits(k, i) for i in values] == [_greedy_reference(k, i) for i in values], name
        assert [symbol_at(k, i) for i in values] == [symbol(i) for i in values], name
        for n in (0, 1, 2, 5, 12):
            assert [mismatch(k, i, n) for i in values] == verdicts(n, values), (name, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 4095, 4096, 10**6])
def test_symbols_at_runs_across_a_window_whose_digit_is_k(k):
    """``symbols_at`` and ``digit_vectors`` keep windows at s = max(L, 1).
    The window of k f_s has digit k at s and is f_{s-1} wide, not f_s: the
    run k f_s - 2 .. k f_s + f_s + 2 enters it from the window below and
    leaves it for the window at f_{s+1}, and agrees with the reference's
    digits and their bottom digit.  From k = 4096 up, where L = 0 and
    s = 1, the run is k f_1 - 2 .. k f_1 + k + 3, over a million indices at
    k = 10^6, so it is compared as a stream.  The run 0 .. f_s + 2 (at
    most 5,000 indices) starts in the window [0, f_s), the one with no
    digits from s up, and leaves it below k = 4097."""
    basis = get_basis(k)
    fs = basis.value(max(basis.largest_index_leq(numeration._LOW_TABLE_BOUND), 1))
    for run in (range(k * fs - 2, k * fs + fs + 3), range(min(fs + 3, 5000))):
        for i, symbol, digits in zip(run, symbols_at(k, run), digit_vectors(k, run)):
            reference = _greedy_reference(k, i)
            assert digits == reference, (k, i)
            assert symbol == (reference[:1] == (k,)), (k, i)


def test_low_table_is_built_without_the_walk(monkeypatch):
    """The table is its own digitisation: it never reads ``regular_vectors``,
    and every memoised entry is the greedy digitisation of its value."""
    def walk_forbidden(k, bound, start=0):
        raise AssertionError("the low table must not come from regular_vectors")

    monkeypatch.setattr(numeration, "regular_vectors", walk_forbidden)
    monkeypatch.setattr(numeration, "_walk", walk_forbidden)
    monkeypatch.setattr(numeration, "_basis_cache", {})
    for k in (*range(1, 9), 64, 4095, 4096):
        basis = numeration.Basis(k)
        table = basis.tables()[0]
        assert len(table) == basis.value(basis.largest_index_leq(numeration._LOW_TABLE_BOUND))
        assert table == [numeration._window(basis, n, 0)[2] for n in range(len(table))], k
    basis = numeration.Basis(3)
    table, padded, bottom = basis.tables()
    assert table == [_greedy_reference(3, n) for n in range(len(table))]
    assert to_digits(3, 10**6) == _greedy_reference(3, 10**6)
    top = len(table[-1])
    assert padded == [d + (0,) * (top - len(d)) for d in table]
    assert bottom == bytes(_greedy_reference(3, n)[:1] == (3,) for n in range(len(table)))


@pytest.mark.parametrize("k", [5, 8, 64])
def test_split_matches_regular_vectors_below_f2L(k):
    """Every value below f_{2L}, the values whose digits from position L up
    are those of some m < f_L, digitises to the vector the in-order walk
    reaches, and its symbol is 1 exactly when that vector's bottom digit is k."""
    bound = _f2L(k)
    expected = 0
    for value, digits in regular_vectors(k, bound):
        assert value == expected
        assert to_digits(k, value) == digits, (k, value)
        assert symbol_at(k, value) == (digits[:1] == (k,)), (k, value)
        expected += 1
    assert expected == bound


@pytest.mark.parametrize("k", [1, 2, 3, 4, 4095, 4096])
def test_window_is_the_values_sharing_the_upper_digits(k):
    """``_window(basis, n, s)`` is the interval of values whose reference
    digits at positions s and up are n's, with those digits: it starts at n
    minus the value of n's digits below s, is f_{s-1} wide when n's digit
    at s is k (s >= 1) and f_s wide otherwise, neither the value below it
    nor its end shares those digits, and the digits it returns are the
    reference's from s up.  For n below 5,000 and random n below 10^12, at
    every s from 0 to n's length + 1, with the table first extended past
    f_s, which ``_window`` requires of its callers."""
    basis = get_basis(k)
    f = basis.value
    reference = functools.cache(functools.partial(_greedy_reference, k))
    rng = random.Random(600 + k)
    for n in [*range(5000), *(rng.randrange(10**12) for _ in range(500))]:
        d = reference(n)
        basis.largest_index_leq(f(len(d) + 1))
        for s in range(len(d) + 2):
            base, end, upper = _window(basis, n, s)
            assert upper == d[s:], (k, n, s)
            assert base == n - from_digits(k, d[:s]), (k, n, s)
            wide = f(s - 1) if s >= 1 and d[s:s + 1] == (k,) else f(s)
            assert end - base == wide, (k, n, s)
            assert reference(end)[s:] != d[s:], (k, n, s)
            assert base == 0 or reference(base - 1)[s:] != d[s:], (k, n, s)


@pytest.mark.parametrize("k", [1, 2, 3, 64, 4095, 4096, 2**64])
def test_window_callers_keep_f_s_in_the_table(k, monkeypatch):
    """``_window(basis, n, s)`` does not extend the table to s: f_s must be
    in it already.  Every call that ``digit_vectors``, ``symbols_at``,
    ``symbol_at``, ``to_digits``, ``mismatches`` and ``mismatch`` make finds
    it there on entry.  Each kernel call starts from a fresh basis, so no
    earlier call's table hides a short one.  The ranges cross f_L, f_{2L}
    and, for ``mismatches``, f_{n+1} - 2 at levels on each of its paths:
    all SAME (the last index plus 2 below f_{n+1}), the V_L table
    (n + 2 <= L, for L >= 2) and windows at n + 1."""
    window = numeration._window
    entries = []   # s at each call

    def checked(basis, n, s):
        assert s < len(basis._vals), (basis.k, n, s)
        entries.append(s)
        return window(basis, n, s)

    monkeypatch.setattr(numeration, "_window", checked)
    callers = set()

    def fresh(call, *args):
        monkeypatch.setattr(numeration, "_basis_cache", {})
        before = len(entries)
        out = call(k, *args)
        if isinstance(out, Iterator):
            list(out)
        if len(entries) > before:
            callers.add(call.__name__)

    probe = numeration.Basis(k)
    L = probe.largest_index_leq(numeration._LOW_TABLE_BOUND)
    f = probe.value

    def around(x):
        return range(max(x - 3, 0), x + 3)

    ranges = [around(f(L)), around(f(2 * L)), around(f(L + 1))]
    for values in ranges:
        fresh(digit_vectors, values)
        fresh(symbols_at, values)
        for i in values:
            fresh(to_digits, i)
            fresh(symbol_at, i)
    paths = set()
    for n in sorted({0, 1, max(L - 2, 0), max(L - 1, 0), L, L + 1, L + 3}):
        edge = f(n + 1) - 2
        for values in (*ranges, range(max(edge - 3, 0), edge), range(max(edge - 3, 0), edge + 1),
                       around(edge)):
            if values.stop + 1 < f(n + 1):
                paths.add("all SAME")
            else:
                paths.add("V_L" if n + 2 <= L else "windows at n + 1")
            fresh(mismatches, n, values)
            for i in values:
                fresh(mismatch, i, n)
    assert paths == {"all SAME", "windows at n + 1"} | ({"V_L"} if L >= 2 else set()), k
    assert callers == {"digit_vectors", "symbols_at", "to_digits", "symbol_at",
                       "mismatches", "mismatch"}, callers


def _recursive_walk(k, bound):
    """The pruned recursive depth-first walk, most significant digit first,
    collecting ``(value, digits)`` in visit order (the reference for the walk)."""
    basis = get_basis(k)
    width = basis.largest_index_leq(bound - 1) + 1
    vals = [basis.value(i) for i in range(width)]
    digits = [0] * width
    out = []

    def walk(pos, acc, above_is_k):
        if pos < 0:
            trimmed = list(digits)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            out.append((acc, tuple(trimmed)))
            return
        f = vals[pos]
        for dd in range((0 if above_is_k else k) + 1):
            nacc = acc + dd * f
            if nacc >= bound:
                break
            digits[pos] = dd
            walk(pos - 1, nacc, dd == k)
        digits[pos] = 0

    walk(width - 1, 0, False)
    return out


def _block_edges(k):
    """Bounds around the walk's block: f_W - 1 .. f_W + 1 and f_{W+1}, with
    W the largest index with f_W <= the low table's bound, and k*f_W - 1 ..
    k*f_W + 1 around the first high vector whose bottom digit is k."""
    basis = get_basis(k)
    top = basis.largest_index_leq(numeration._LOW_TABLE_BOUND)
    fw = basis.value(top)
    return {fw - 1, fw, fw + 1, basis.value(top + 1), k * fw - 1, k * fw, k * fw + 1}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 4095, 4096, 10**6])
def test_regular_vectors_matches_to_digits_and_recursive_walk(k):
    """The in-order walk yields (n, to_digits(k, n)) for n = 0, 1, ..., bound - 1.

    Bounds sit on and just past basis values f_j (j <= 12, up to 60,000),
    where the walk gains a position, at the small edges 1, 2, k+1, k+2, on
    both sides of the block's top weight f_W and of k*f_W, where a high
    bottom digit k first cuts the block, all up to 60,001, and at k = 1 also
    at 3*10^6, where the walk crosses over a thousand blocks; the big walk is
    compared as a stream.  From k = 4096 up there is no block, and the walk
    builds none of k + 1 vectors.
    """
    fs = [get_basis(k).value(j) for j in range(13)]
    bounds = {1, 2, k + 1, k + 2, 20000} | _block_edges(k)
    bounds |= {b for f in fs if f <= 60000 for b in (f, f + 1)}
    bounds = {b for b in bounds if 1 <= b <= 60001}
    if k == 1:
        bounds.add(3 * 10**6)   # about 1,160 blocks of 2,584 vectors
    for bound in sorted(bounds):
        pairs = itertools.zip_longest(regular_vectors(k, bound),
                                      enumerate(digit_vectors(k, range(bound))))
        assert all(itertools.starmap(eq, pairs)), (k, bound)
        if bound <= 60001:
            assert list(regular_vectors(k, bound)) == _recursive_walk(k, bound), (k, bound)
    tracemalloc.start()
    try:
        first = list(itertools.islice(regular_vectors(k, 2 * 10**6), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(n, to_digits(k, n)) for n in range(3)]
    # A block holds at most 4096 vectors; one of k + 1 = 10^6 + 1 would take 100 MB.
    assert peak < 4 * 10**6, (k, peak)


def _reweighted_walk(k, bound, start):
    """The standard walk's vectors re-weighted from f_start, up to the first
    value >= bound: the offsets' former enumeration, the reference for the
    shifted walk.  A vector's standard value never exceeds its shifted one,
    so the standard walk reaches every vector worth less than ``bound``."""
    basis = get_basis(k)
    weights = [basis.value(start + i) for i in range(basis.largest_index_leq(bound - 1) + 1)]
    prev = -1
    for _j, digits in regular_vectors(k, bound):
        value = sum(map(mul, digits, weights))
        assert value > prev, "re-weighted values lost monotonicity"
        prev = value
        if value >= bound:
            return
        yield value, digits


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 4095, 4096, 10**6])
def test_shifted_walk_matches_reweighted_standard_walk(k):
    """``regular_vectors(k, bound, start)`` yields exactly the vectors that
    the standard walk re-weighted from f_start yields, in the same order,
    for the offsets' starts n + 1 (n in 0..39) and cutoffs bound - 1 from 0
    to 10^6, at the block edges (f_{start+W} is the same f_W for every
    start), and at 3*10^6 from n = 8 on, where the block is at most 8
    positions wide and the walk short.  Both are compared as streams: at
    k = 1 a walk yields up to 618,035 vectors."""
    edges = sorted(b - 1 for b in _block_edges(k) if 1 <= b <= 3 * 10**6)
    for n in range(40):
        cutoffs = [0, 1, 5, 50, 1000, 10**6, *edges]
        if n >= 8:
            cutoffs.append(3 * 10**6)
        for cutoff in cutoffs:
            pairs = itertools.zip_longest(
                regular_vectors(k, cutoff + 1, n + 1), _reweighted_walk(k, cutoff + 1, n + 1)
            )
            assert all(itertools.starmap(eq, pairs)), (k, n, cutoff)


def test_uniqueness_oracle_small():
    for k in (1, 2, 3, 4):
        assert uniqueness_oracle(k, 500)


def test_uniqueness_oracle_bound_handling():
    assert uniqueness_oracle(1, 1)
    assert uniqueness_oracle(4, 2)
    with pytest.raises(ValueError):
        uniqueness_oracle(1, 0)
    with pytest.raises(CapExceededError):
        uniqueness_oracle(1, 5_000_001)


def test_from_digits_rejects_negative():
    with pytest.raises(ValueError):
        from_digits(1, [1, -1])


@pytest.mark.parametrize("call", [
    lambda: from_digits(0, ()),
    lambda: from_digits(-5, []),
    lambda: from_digits(0, (1,)),
    lambda: normalize(0, ()),
    lambda: to_digits(0, 0),
], ids=["from_digits-0-empty", "from_digits-neg-empty", "from_digits-0", "normalize-0-empty",
        "to_digits-0"])
def test_k_below_one_is_refused_with_or_without_digits(call):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        call()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_from_digits_matches_weighted_sum(k):
    """Irregular digits, digits above k, trailing zeros and empty input."""
    rng = random.Random(4400 + k)
    cases = [[], [0], [0, 0, 0], [k + 5], [0, 0, 7, 0, 0], [k] * 12, [1] * 40]
    cases += [
        [rng.randint(0, 3 * k + 2) for _ in range(rng.randint(0, 30))]
        + [0] * rng.randint(0, 3)
        for _ in range(200)
    ]
    for raw in cases:
        expected = sum(x * get_basis(k).value(i) for i, x in enumerate(raw))
        assert from_digits(k, raw) == expected, raw
        assert from_digits(k, tuple(raw)) == expected, raw
        assert from_digits(k, iter(raw)) == expected, raw
    for n in (0, 1, k, 10**6, 10**30):
        d = to_digits(k, n)
        assert from_digits(k, d) == sum(x * get_basis(k).value(i) for i, x in enumerate(d))


def test_normalize_identity_on_regular():
    rng = random.Random(11)
    for _ in range(500):
        k = rng.randint(1, 4)
        n = rng.randrange(10**6)
        d = to_digits(k, n)
        assert normalize(k, list(d)) == d


def test_normalize_rewrites_violations():
    # k=1: (0,1,1) means f_1 + f_2 = 2 + 3 = 5 = f_3, i.e. (0,0,0,1).
    assert normalize(1, [0, 1, 1]) == (0, 0, 0, 1)
    # k=2: (1,2,0) is fine, but (0,1,2) = 3 + 14 = value 17 = f_3.
    assert normalize(2, [0, 1, 2]) == (0, 0, 0, 1)


def test_normalize_properties_random():
    rng = random.Random(2024)
    for _ in range(10000):
        k = rng.randint(1, 4)
        raw = [rng.randint(0, k) for _ in range(rng.randint(0, 24))]
        nd = normalize(k, raw)
        # Value-preserving and regular.
        assert from_digits(k, nd) == from_digits(k, raw)
        assert is_regular(k, nd)
        # Idempotent.
        assert normalize(k, list(nd)) == nd
        # Low-index stability: digits below the lowest violation survive.
        # nd has no trailing zeros, so pad it to raw's length first.
        padded = nd + (0,) * (len(raw) - len(nd))
        viol = [i for i in range(len(raw) - 1) if raw[i + 1] == k and raw[i] != 0]
        if viol:
            vmin = min(viol)
            assert padded[:vmin] == tuple(raw[:vmin])
        else:
            assert padded == tuple(raw)


def test_normalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        normalize(1, [2, 0])
    with pytest.raises(ValueError):
        normalize(2, [0, -1])


def _carry_rewriting(k, digits):
    """The carry-rewriting normalizer (the reference for ``normalize``).

    Repeatedly clears the highest violation: a digit k at position i0+1 over
    a non-zero digit at i0.  One unit is borrowed at i0, the alternating run
    of k's above is zeroed, and a carry lands just past the run; the identity
    k*f_{i+1} = f_{i+2} - f_i telescoped along the run keeps the value fixed.
    """
    d = list(digits) + [0]   # room for a final carry
    for _ in range(10 * len(d) * len(d) + 16):
        i0 = next((i for i in range(len(d) - 2, -1, -1) if d[i + 1] == k and d[i] != 0), -1)
        if i0 < 0:
            break
        j0 = i0 + 1
        while j0 + 2 < len(d) and d[j0 + 2] == k:
            j0 += 2
        d[i0] -= 1
        for pos in range(i0 + 1, j0 + 1, 2):
            d[pos] = 0
        if j0 + 1 == len(d):
            d.append(0)
        d[j0 + 1] += 1
        assert d[j0 + 1] <= k, "carry overflowed a digit"
    else:
        raise AssertionError("carry rewriting did not settle within the step cap")
    while d and d[-1] == 0:
        d.pop()
    return tuple(d)


def test_normalize_matches_carry_rewriting():
    """Every short vector with digits 0..k, then random long ones, k up to 8."""
    for k, width in ((1, 8), (2, 8), (3, 6), (4, 6)):
        for length in range(width + 1):
            for raw in itertools.product(range(k + 1), repeat=length):
                assert normalize(k, raw) == _carry_rewriting(k, raw), (k, raw)
    rng = random.Random(1985)
    for _ in range(10000):
        k = rng.randint(1, 8)
        raw = [rng.randint(0, k) for _ in range(rng.randint(0, 40))]
        assert normalize(k, raw) == _carry_rewriting(k, raw), (k, raw)
