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
    """``w`` = U_{n+2} changed in one way, for the lengths f = [f_{n-1}, f_n]."""
    if corrupt == "drop_last":
        return [w[:-1]]
    if corrupt == "append":
        return [w + b"\x00", w + b"\x01"]
    # The first and last symbol of each region a flip can land in; inside
    # U_{n-1}, the two symbols the exchange touches.
    at = {
        "flip_first": {0},
        "flip_in_un_1": {f[0] - 2, f[0] - 1},
        "flip_in_un": {f[0], f[1] - 1},
        "flip_past_un": {f[1], len(w) - 2},
        "flip_last": {len(w) - 1},
    }[corrupt]
    out = []
    for i in sorted(at):
        sym = bytearray(w)
        sym[i] ^= 1
        out.append(bytes(sym))
    return out


def _literal_identities(k, un_1, un, un2):
    """Both identities as literal joined statements."""
    return (
        un_1 + un == swap_last_two(un + un_1),
        un2 == un + (un * k + swap_last_two(un_1)) * k,
    )


def test_word_identities_small_grid():
    """The piecewise check equals the literal joined statements, and both
    hold; U_{n+2} is also built by its recurrence U_{n+1}^k U_n."""
    for k in (1, 2, 3, 4):
        for n in range(2, 10):
            un_1, un, un1, un2 = (_substituted(k, m) for m in (n - 1, n, n + 1, n + 2))
            assert un1 * k + un == un2
            assert word_identities(k, n) == _literal_identities(k, un_1, un, un2) == (True, True)


def _stream_of(word: bytes, exact) -> list[tuple[bytes, int]]:
    """``word`` as pieces cut where the ``exact`` pieces end, the last piece
    running to the end of ``word``, so a length change lands in it."""
    pieces, start = [], 0
    for _, end in exact:
        pieces.append((word[start : start + end], end))
        start += end
    start -= end
    pieces[-1] = (word[start:], len(word) - start)
    return pieces


@pytest.mark.parametrize(
    "corrupt",
    ["flip_first", "flip_in_un_1", "flip_in_un", "flip_past_un", "flip_last", "drop_last",
     "append"],
)
def test_word_identities_detects_a_wrong_iterate(monkeypatch, corrupt):
    """The piecewise matches fail on a symbol change inside U_{n-1}, inside
    U_n past U_{n-1} or inside U_{n+2} past U_n, and on a length change of
    U_{n+2}.  The corruption is made in the f_{n+2} block stream, and U_n
    is read from the same corrupted stream: the verdict is the literal
    joined statements' verdict on the words sliced from the corrupted
    U_{n+2}, and never (True, True)."""
    exact = words._sigma_blocks
    for k in (1, 2, 3):
        f = get_basis(k).value
        for n in (2, 3, 5):
            for bad in _corruptions(_substituted(k, n + 2), corrupt, [f(n - 1), f(n)]):

                def stream(k, length, bad=bad, top=f(n + 2)):
                    word = bad if length == top else bad[:length]
                    return iter(_stream_of(word, exact(k, length)))

                monkeypatch.setattr(words, "_sigma_blocks", stream)
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
    length 0..2, and unequal total lengths, with the left pieces running
    short of the right ones or past them; the left pieces are an iterator,
    read once."""
    rng = random.Random(2200)
    for _ in range(300):
        w = bytes(rng.getrandbits(1) for _ in range(rng.randrange(12)))
        left = [(bytes(p), len(p)) for p in _pieces(w, rng)]
        right = _pieces(w, rng)
        assert words._pieces_equal(iter(left), right)
        # Each byte that opens or closes a piece of either side, flipped.
        edges = set()
        for side in ([p for p, _ in left], right):
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
            assert words._pieces_equal(iter(left), _pieces(v, rng)) == (w == v), (w, v)
            other = [(bytes(p), len(p)) for p in _pieces(v, rng)]
            assert words._pieces_equal(iter(other), right) == (w == v), (w, v)


def test_pieces_equal_reads_left_pieces_only_up_to_their_end():
    """A left piece ``(word, end)`` stands for ``word[:end]``: a byte of
    ``word`` flipped past ``end`` is ignored, and one flipped before it is
    caught, with the right side cut anywhere."""
    rng = random.Random(2201)
    for _ in range(300):
        w = bytes(rng.getrandbits(1) for _ in range(rng.randrange(1, 12)))
        left, pos = [], 0
        for piece in _pieces(w, rng):
            tail = bytes(rng.getrandbits(1) for _ in range(rng.randrange(1, 4)))
            left.append((bytes(piece) + tail, len(piece), pos))
            pos += len(piece)
        pieces = [(word, end) for word, end, _ in left]
        assert words._pieces_equal(iter(pieces), _pieces(w, rng))
        for i, (word, end, start) in enumerate(left):
            for at in range(len(word)):
                flipped = bytearray(word)
                flipped[at] ^= 1
                changed = pieces[:i] + [(bytes(flipped), end)] + pieces[i + 1 :]
                same = words._pieces_equal(iter(changed), _pieces(w, rng))
                assert same == (at >= end), (w, i, at)


def test_word_identities_holds_one_word():
    """U_n is the only word built: U_{n-1} is a view of it, and U_{n+2} is
    matched block by block as its sigma^j blocks stream, never joined.  The
    peak stays within 15% of f_n (joining U_{n+1} and viewing U_n and
    U_{n-1} in it peaked at 3.4 times f_12 at k = 3 and 1.67 times f_30 at
    k = 1)."""
    for k, n in ((3, 12), (1, 30)):
        f = get_basis(k).value
        words._require_level(k, n + 2)   # the basis table, outside the measurement
        tracemalloc.start()
        try:
            assert word_identities(k, n) == (True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * f(n), (k, n, peak / f(n))


def test_word_identities_reads_one_block_stream(monkeypatch):
    """Both words come from the sigma^j block stream: U_n is one stream of
    f_n symbols, joined by ``fixed_point_prefix``, and U_{n+2} is one
    stream of f_{n+2} symbols, consumed as it comes."""
    calls = []
    real = words._sigma_blocks

    def spy(k, length):
        calls.append(length)
        return real(k, length)

    monkeypatch.setattr(words, "_sigma_blocks", spy)
    for k in (1, 2, 3):
        f = get_basis(k).value
        for n in (2, 7):
            calls.clear()
            assert word_identities(k, n) == (True, True)
            assert calls == [f(n), f(n + 2)], (k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sigma_blocks_are_prefixes_of_one_iterate(k):
    """Every piece is a prefix of one iterate U_j, the whole blocks are two
    tuples repeated and the last is cut: at most three distinct pieces,
    whose join is x[:length]."""
    x = _substituted(k, 15 if k == 1 else 9)
    for length in sorted({0, 1, k, k + 1, k + 2, 50, 51, 1000, len(x) - 1, len(x)}):
        assert length <= len(x)
        pieces = list(words._sigma_blocks(k, length))
        assert len({word for word, _ in pieces}) == 1, (k, length)
        assert len(set(map(id, pieces[:-1]))) <= 2, (k, length)
        assert all(0 < end <= len(word) for word, end in pieces) or length == 0
        assert b"".join(word[:end] for word, end in pieces) == x[:length], (k, length)


@pytest.mark.parametrize("k", [1, 3])
def test_fixed_point_prefix_writes_each_symbol_once(k):
    """The prefix is one join of blocks of an iterate of about the square
    root of its length: the peak stays within 10% of the length (building
    every iterate up to the length peaked at 2.57 times it at k = 1 and
    2.20 times at k = 3)."""
    length = 10**7
    tracemalloc.start()
    try:
        w = fixed_point_prefix(k, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == length
    assert peak < 1.1 * length, peak / length


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_fixed_point_prefix_at_every_block_end(k):
    """x[:length] is the join of the blocks sigma^j(x_i), U_j for a 0 and
    U_{j-1} for a 1, for the first j with f_{2j} >= length.  Every block end
    of that join is cut at, one before and one after, as are f_{2j} - 1,
    f_{2j} and f_{2j} + 1, where the builder moves on to U_{j+1}."""
    f = get_basis(k).value
    top = 1
    while f(2 * top + 2) <= 200_000:
        top += 1
    x = _substituted(k, 2 * top + 1)
    for j in range(1, top + 1):
        lengths = {f(2 * j) - 1, f(2 * j), f(2 * j) + 1}
        end = 0
        for symbol in x[: f(j)]:
            end += f(j) if symbol == 0 else f(j - 1)
            if end >= f(2 * j - 2) - 1:
                lengths |= {end - 1, end, end + 1}
        assert end == f(2 * j)
        for length in sorted(lengths):
            assert fixed_point_prefix(k, length) == x[:length], (k, j, length)


@pytest.mark.parametrize("k", [4095, 10**7])
def test_fixed_point_prefix_just_past_k(k):
    """x starts 0^k 1 0: the lengths k, k + 1 and k + 2 end in the first
    block U_1 and in the first symbol of the second."""
    start = bytes(k) + b"\x01\x00"
    for length in (k, k + 1, k + 2):
        assert fixed_point_prefix(k, length) == start[:length], length


def test_fixed_point_prefix_cuts_the_iterate():
    """Lengths one short of, at and one past f_n, 2 f_n + 3, and at and one
    past k f_n, for n = 1..6, against U_9 built by substitution."""
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
    # U_1 = 0^k 1 is built, and the prefix is one join of two views of it
    # and a third cut to k - 2 symbols; no iterate past U_1 is built, so
    # the peak is U_1 and the prefix: 1.1 x (length + k + 1).
    (10**7, 3 * 10**7, 11 * (3 * 10**7 + 10**7 + 1) // 10),
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
        monkeypatch.setattr(words, "_kept_lanes", (b"", 0, set()))
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
    shorter length, and the blocks ``block_determinism`` returns, whatever
    order the lengths come in."""
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
            if m >= 2:
                copy = bytes(bytearray(w))
                assert set(block_determinism(copy, m - 1)[1]) == _sliced_factors(w, m), (order, m)


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
