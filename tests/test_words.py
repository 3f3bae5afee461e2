import random
import tracemalloc

import pytest

from sturmlab import (
    CapExceededError,
    block_determinism,
    difference,
    difference_by_binomial,
    distinct_factors,
    fixed_point_prefix,
    shift_product,
    substitute,
    to_string,
    value_affine_relation,
    word_identities,
)
from sturmlab import words
from sturmlab.numeration import get_basis


def _word(digits: str) -> bytes:
    return bytes(map(int, digits))


def _substituted(k: int, n: int) -> bytes:
    """U_n as the substitution applied n times to 0 (the reference)."""
    w = b"\x00"
    for _ in range(n):
        w = substitute(k, w)
    return w


_BYTES_RESULTS = {
    "fixed_point_prefix": lambda: fixed_point_prefix(2, 50),
    "substitute": lambda: substitute(2, _word("0110")),
    "difference": lambda: difference(fixed_point_prefix(1, 50), 3),
    "difference_order_0": lambda: difference(fixed_point_prefix(1, 50), 0),
    "difference_by_binomial": lambda: difference_by_binomial(fixed_point_prefix(1, 50), 3),
    "shift_product": lambda: shift_product(fixed_point_prefix(1, 50)),
    "distinct_factors": lambda: distinct_factors(fixed_point_prefix(1, 50), 4),
    "block_determinism": lambda: block_determinism(fixed_point_prefix(1, 50), 3)[1],
}


@pytest.mark.parametrize("name", sorted(_BYTES_RESULTS))
def test_words_are_bytes(name):
    """Every word a function returns, or keys a result by, is a plain ``bytes``."""
    result = _BYTES_RESULTS[name]()
    for w in result if isinstance(result, (set, dict)) else [result]:
        assert type(w) is bytes, name
    assert result


def test_word_rejects_bad_symbols():
    """Functions defined on binary words refuse a symbol above 1, at either end."""
    checks = {
        "substitute": lambda w: substitute(1, w),
        "difference": lambda w: difference(w, 1),
        "difference_by_binomial": lambda w: difference_by_binomial(w, 3),
        "block_determinism": lambda w: block_determinism(w, 1),
        "shift_product": shift_product,
        "distinct_factors": lambda w: distinct_factors(w, 2),
        "value_affine_relation": lambda w: value_affine_relation(w, 2, 10),
    }
    good = fixed_point_prefix(1, 11)
    for bad in (2, 255):
        for at in (0, -1):
            w = bytearray(good)
            w[at] = bad
            for name, check in checks.items():
                with pytest.raises(ValueError, match="binary"):
                    check(bytes(w))
                    pytest.fail(f"{name} accepted symbol {bad} at {at}")


def test_to_string_rejects_symbols_above_nine():
    with pytest.raises(ValueError, match="above 9"):
        to_string(bytes([10]))
    with pytest.raises(ValueError, match="above 9"):
        to_string(bytes([1, 10, 3]))


def test_substitute_base_cases():
    # 0 -> 0^k 1, 1 -> 0
    assert to_string(substitute(1, _word("0"))) == "01"
    assert to_string(substitute(1, _word("1"))) == "0"
    assert to_string(substitute(2, _word("0"))) == "001"
    assert to_string(substitute(3, _word("01"))) == "00010"


def test_iterates_start_with_previous():
    """Each iterate extends the one before it, so a fixed point exists, and
    the levels follow U_{n+1} = U_n^k U_{n-1}."""
    for k in (1, 2, 3):
        for n in range(1, 9):
            prev, cur, nxt = (_substituted(k, m) for m in (n - 1, n, n + 1))
            assert cur.startswith(prev)
            assert nxt == cur * k + prev


def test_iterate_lengths_follow_basis():
    for k in (1, 2, 3, 4):
        for n in range(0, 12):
            assert len(_substituted(k, n)) == get_basis(k).value(n)


def test_iterate_matches_substitution():
    """Every level U_n is the first f_n symbols of the fixed point."""
    for k in (1, 2, 3, 4):
        for n in range(0, 12):
            assert fixed_point_prefix(k, get_basis(k).value(n)) == _substituted(k, n), (k, n)


def test_fixed_point_prefix_values():
    assert to_string(fixed_point_prefix(1, 13)) == "0100101001001"
    assert to_string(fixed_point_prefix(2, 7)) == "0010010"
    assert to_string(fixed_point_prefix(1, 0)) == ""


def test_fixed_point_prefix_is_prefix_closed():
    for k in (1, 2, 3):
        long = fixed_point_prefix(k, 4000)
        for length in (1, 2, 3, 17, 399, 4000):
            assert long.startswith(fixed_point_prefix(k, length))


def test_prefix_is_invariant_under_substitution():
    for k in (1, 2, 4):
        w = fixed_point_prefix(k, 3000)
        assert substitute(k, w).startswith(w)


def swap_last_two(w: bytes) -> bytes:
    """The word with its final two symbols exchanged (the literal U_{n-1}* of
    ``_literal_identities``)."""
    if len(w) < 2:
        raise ValueError("word must have length >= 2")
    return w[:-2] + w[-1:] + w[-2:-1]


def test_swap_last_two():
    assert swap_last_two(_word("0110")) == _word("0101")
    assert swap_last_two(_word("01")) == _word("10")
    # Equal final symbols: exchange is invisible.
    assert swap_last_two(_word("0100")) == _word("0100")
    with pytest.raises(ValueError):
        swap_last_two(_word("0"))


def _corruptions(w: bytes, corrupt: str, f: list[int]) -> list[bytes]:
    """``w`` = U_{n+1} changed in one way, for the lengths f = [f_{n-1}, f_n]."""
    if corrupt == "drop_last":
        return [w[:-1]]
    if corrupt == "append":
        return [w + b"\x00", w + b"\x01"]
    # The first and last symbol of each region a flip can land in.
    at = {
        "flip_first": {0},
        "flip_in_un": {f[0], f[1] - 1},
        "flip_in_un1": {f[1], len(w) - 2},
        "flip_last": {len(w) - 1},
    }[corrupt]
    out = []
    for i in sorted(at):
        sym = bytearray(w)
        sym[i] ^= 1
        out.append(bytes(sym))
    return out


def _literal_identities(k, un_1, un, un1):
    """Both identities as literal joined statements, U_{n+2} = U_{n+1}^k U_n."""
    un2 = un1 * k + un
    return (
        un_1 + un == swap_last_two(un + un_1),
        un2 == un + (un * k + swap_last_two(un_1)) * k,
    )


def test_word_identities_small_grid():
    """The piecewise check equals the literal joined statements, and both hold."""
    for k in (1, 2, 3, 4):
        for n in range(2, 10):
            un_1, un, un1 = (_substituted(k, m) for m in (n - 1, n, n + 1))
            assert un1 * k + un == _substituted(k, n + 2)
            assert word_identities(k, n) == _literal_identities(k, un_1, un, un1) == (True, True)


@pytest.mark.parametrize(
    "corrupt", ["flip_first", "flip_in_un", "flip_in_un1", "flip_last", "drop_last", "append"]
)
def test_word_identities_detects_a_wrong_iterate(monkeypatch, corrupt):
    """The piecewise matches fail on a symbol change inside U_{n-1}, inside
    U_n past U_{n-1} or inside U_{n+1} past U_n, and on a length change of
    the built U_{n+1}: the verdict is the literal joined statements' verdict
    on the words sliced from the corrupted U_{n+1}, and never (True, True)."""
    exact = words.fixed_point_prefix
    for k in (1, 2, 3):
        f = get_basis(k).value
        for n in (2, 3, 5):
            for bad in _corruptions(exact(k, f(n + 1)), corrupt, [f(n - 1), f(n)]):
                monkeypatch.setattr(words, "fixed_point_prefix", lambda k, length: bad)
                got = word_identities(k, n)
                window = (bad[: f(n - 1)], bad[: f(n)], bad)
                assert got == _literal_identities(k, *window), (k, n)
                assert got != (True, True), (k, n)


def _pieces(w: bytes, rng: random.Random) -> list:
    """``w`` cut into memoryview pieces of lengths 0..3, a few of them longer."""
    view = memoryview(w)
    out, pos = [], 0
    while pos < len(w) or rng.random() < 0.2:
        size = rng.choice([0, 1, 2, 3, rng.randrange(len(w) + 1)])
        out.append(view[pos : pos + size])
        pos += size
    return out


def test_pieces_equal_matches_joined_comparison():
    """The piecewise comparison equals comparing the joins, for a difference
    in the first or last byte of every piece on either side, pieces of
    length 0..2, and unequal total lengths."""
    rng = random.Random(2200)
    for _ in range(300):
        w = bytes(rng.getrandbits(1) for _ in range(rng.randrange(12)))
        left = [bytes(p) for p in _pieces(w, rng)]
        right = _pieces(w, rng)
        assert words._pieces_equal(left, right)
        # Each byte that opens or closes a piece of either side, flipped.
        edges = set()
        for side in (left, right):
            pos = 0
            for piece in side:
                if len(piece):
                    edges |= {pos, pos + len(piece) - 1}
                pos += len(piece)
        variants = []
        for at in edges:
            v = bytearray(w)
            v[at] ^= 1
            variants.append(bytes(v))
        variants += [w[:-1], w + b"\x00", w + b"\x01", b"\x00" + w]
        for v in variants:
            assert words._pieces_equal(left, _pieces(v, rng)) == (w == v), (w, v)
            assert words._pieces_equal([bytes(p) for p in _pieces(v, rng)], right) == (w == v)


def test_word_identities_holds_three_words():
    """Only U_{n-1}, U_n and U_{n+1} are held: U_{n+2} and both right-hand
    sides stay lists of pieces (the joined check peaked at 4.53 times the
    three words' length, and keeping every iterate U_0..U_{n+1} 1.029 times)."""
    f = get_basis(3).value
    words._require_level(3, 14)   # the basis table, outside the measurement
    tracemalloc.start()
    try:
        assert word_identities(3, 12) == (True, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.01 * (f(11) + f(12) + f(13))


def test_fixed_point_prefix_cuts_the_iterate():
    """Lengths at, just past and inside the pieces of the last round."""
    for k in (1, 2, 3, 4):
        big = _substituted(k, 9)
        for n in range(1, 7):
            fn = get_basis(k).value(n)
            for length in (fn - 1, fn, fn + 1, 2 * fn + 3, k * fn, k * fn + 1):
                assert fixed_point_prefix(k, length) == big[:length]


def test_fixed_point_prefix_at_huge_k():
    """The fixed point starts with 0^k 1: a prefix no longer than k is all
    zeros, however large k is, and is built without U_1."""
    assert fixed_point_prefix(2**64, 10) == bytes(10)
    assert fixed_point_prefix(10**20, 0) == b""


@pytest.mark.parametrize("k, length, budget", [
    (10**8, 10, 1 << 20),
    # U_1 = 0^k 1 is built, then two copies of it and k - 2 symbols of a
    # third; the k copies of U_1 are never listed.
    (10**7, 3 * 10**7, 2 * 3 * 10**7),
])
def test_fixed_point_prefix_memory_at_large_k(k, length, budget):
    tracemalloc.start()
    try:
        w = fixed_point_prefix(k, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, peak
    # Below k (k + 1) symbols the fixed point is (0^k 1)(0^k 1)...
    whole, part = divmod(length, k + 1)
    assert w == (bytes(k) + b"\x01") * whole + bytes(part)


def test_word_identities_rejects_small_n():
    with pytest.raises(ValueError):
        word_identities(1, 1)


def test_identity_statements_literally():
    # Spell out both identities once, independent of word_identities.
    k, n = 2, 4
    un = _substituted(k, n)
    un_1 = _substituted(k, n - 1)
    un2 = _substituted(k, n + 2)
    assert un_1 + un == swap_last_two(un + un_1)
    assert un2 == un + (un * k + swap_last_two(un_1)) * k


def test_factor_counts_are_sturmian():
    """The infinite word has exactly m+1 distinct factors of each length m."""
    for k in (1, 2, 3):
        # A long enough window sees every factor of these lengths.
        w = fixed_point_prefix(k, 5000)
        for m in (1, 2, 3, 5, 8):
            assert len(distinct_factors(w, m)) == m + 1


def _sliced_factors(w: bytes, m: int) -> set[bytes]:
    """Factors from one slice per position (the reference)."""
    return {w[i : i + m] for i in range(len(w) - m + 1)}


def _sliced_first_positions(w: bytes, m: int) -> dict[bytes, int]:
    """Each factor's first position, from one slice per position read backwards."""
    return {w[i : i + m]: i for i in reversed(range(len(w) - m + 1))}


# Lengths 0..20, lengths whose lanes end on, one or two bits short of, or
# one bit past a 1-, 2-, 4- or 8-byte word or a second 64-bit lane word, and
# lanes of 4 to 16 such words.
_FACTOR_LENGTHS = sorted(
    {*range(21)}
    | {bits - 1 + d for bits in (8, 16, 32, 64, 128) for d in (-1, 0, 1, 2)}
    | {255, 256, 257, 1000}
)


@pytest.mark.parametrize("chunk", [None, 37], ids=["real-chunk", "chunk-37"])
@pytest.mark.parametrize("m", _FACTOR_LENGTHS)
def test_distinct_factors_matches_sliced_reference(m, chunk, monkeypatch):
    """Lane-packed factors equal per-position slices on random, constant and
    Sturmian words, with the last pass just short of, on and just past a
    chunk edge, at the real chunk size and at a small odd one."""
    if chunk is not None:
        monkeypatch.setattr(words, "_LANE_CHUNK", chunk)
        # Pack every word at this chunk size, none kept from an earlier call.
        monkeypatch.setattr(words, "_kept_lanes", (b"", 0, {}))
    step = words._LANE_CHUNK
    rng = random.Random(5300 + m)
    # A pass packs the windows starting at len(w) - m + 1 positions.
    lengths = [max(m - 1, 0), m, m + 1, m + 8, 300]
    lengths += [step + m - 1 + d for d in (-1, 0, 1)]
    if chunk is not None:
        lengths += [2 * step + m - 1 + d for d in (-1, 0, 1)]
    for n in lengths:
        # Words at the real chunk size keep the run short: k turns with m,
        # and only low m take a random word, whose many factors are each
        # decoded in Python.
        long = n > 300 and chunk is None
        ks = [m % 3 + 1] if long else [1, 2, 3]
        sample = [bytes(n), b"\x01" * n] + [fixed_point_prefix(k, n) for k in ks]
        if not long or m <= 12:
            sample.append(bytes(rng.getrandbits(1) for _ in range(n)))
        for w in sample:
            assert distinct_factors(w, m) == _sliced_factors(w, m), (m, n)


# Orders on each side of the lane widths 8, 16 and 64, and past 64.
_MEMO_ORDERS = [1, 2, 7, 8, 9, 15, 16, 17, 33, 56, 57, 63, 64, 65]


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_kept_lanes_answer_every_order_of_one_word(order):
    """The lanes kept from a wider pass, masked, give the factors of each
    shorter length and their first positions, whatever order the lengths
    come in."""
    lengths = {
        "ascending": _MEMO_ORDERS,
        "descending": _MEMO_ORDERS[::-1],
        "interleaved": [9, 2, 64, 8, 17, 1, 57, 16, 65, 7, 33, 15, 63, 56],
    }[order]
    rng = random.Random(4100)
    for w in (fixed_point_prefix(2, 3000), bytes(rng.getrandbits(1) for _ in range(700))):
        for m in lengths:
            # A fresh copy each call, as each sweep cell builds its own prefix.
            assert distinct_factors(bytes(bytearray(w)), m) == _sliced_factors(w, m), (order, m)
            first = words._first_positions(bytes(bytearray(w)), m)
            assert first == _sliced_first_positions(w, m), (order, m)


def test_kept_lanes_are_keyed_by_the_whole_word():
    """Two words of one length, asked for alternately, each get their own
    factors; an equal word built apart is answered from the kept lanes."""
    rng = random.Random(4200)
    pair = [fixed_point_prefix(1, 2000), fixed_point_prefix(2, 2000)]
    pair.append(bytes(rng.getrandbits(1) for _ in range(2000)))
    for m in (9, 3, 16, 1, 64, 8, 12, 40):
        for w in pair:
            assert distinct_factors(w, m) == _sliced_factors(w, m), m
    kept = words._kept_lanes
    assert distinct_factors(bytes(bytearray(pair[-1])), 5) == _sliced_factors(pair[-1], 5)
    assert words._kept_lanes is kept


def test_distinct_factors_of_a_bytearray_changed_in_place():
    """A bytearray is not hashable, and the same object can hold another word
    on the next call; past m = 64 its factors are slices too."""
    w = bytearray(fixed_point_prefix(1, 500))
    for m in (12, 5, 70, 12):
        assert distinct_factors(w, m) == _sliced_factors(bytes(w), m), m
        w[250:260] = b"\x01" * 10
        assert distinct_factors(w, m) == _sliced_factors(bytes(w), m), m
        w[:] = fixed_point_prefix(1, 500)


def test_distinct_factors_edge_lengths():
    w = fixed_point_prefix(2, 40)
    assert distinct_factors(w, 0) == {b""}
    assert distinct_factors(b"", 0) == {b""}
    assert distinct_factors(w, 41) == set()
    assert distinct_factors(w, 1000) == set()
    assert distinct_factors(w, 40) == {w}
    with pytest.raises(ValueError, match="factor length"):
        distinct_factors(w, -1)


def test_length_cap_guard(monkeypatch):
    monkeypatch.setattr(words, "LENGTH_CAP", 100)
    with pytest.raises(CapExceededError):
        fixed_point_prefix(1, 101)
    with pytest.raises(CapExceededError):
        substitute(1, fixed_point_prefix(1, 100))
    with pytest.raises(CapExceededError):
        word_identities(1, 9)
    assert to_string(fixed_point_prefix(1, 100)).startswith("01001")


def test_length_cap_checked_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("an iterate was built before the length check")

    monkeypatch.setattr(words, "_next_iterate", no_build)
    # U_16 at k = 3 has f_16 = 239,244,622 symbols.
    with pytest.raises(CapExceededError, match="U_16 at k = 3 .* cap 100000000; levels up to 15 fit"):
        word_identities(3, 14)


@pytest.mark.parametrize("alphabet", range(2, 11))
def test_to_string_matches_per_symbol_digits(alphabet):
    sym = bytes(range(alphabet - 1, -1, -1)) * 5 + bytes(range(alphabet)) * 5
    assert to_string(sym) == "".join(str(c) for c in sym)
