import random
import struct

import pytest

from sturmlab import (
    CapExceededError,
    block_determinism,
    difference,
    difference_by_binomial,
    distinct_factors,
    fixed_point_prefix,
    iterate_word,
    shift_product,
    substitute,
    swap_last_two,
    to_string,
    value_affine_relation,
    word_identities,
)
from sturmlab import words
from sturmlab.numeration import get_basis


def _word(digits: str) -> bytes:
    return bytes(map(int, digits))


_BYTES_RESULTS = {
    "fixed_point_prefix": lambda: fixed_point_prefix(2, 50),
    "iterate_word": lambda: iterate_word(2, 5),
    "substitute": lambda: substitute(2, _word("0110")),
    "swap_last_two": lambda: swap_last_two(_word("0110")),
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
    """Each iterate extends the one before it, so a fixed point exists."""
    for k in (1, 2, 3):
        prev = iterate_word(k, 3)
        for n in range(4, 9):
            cur = iterate_word(k, n)
            assert cur.startswith(prev)
            prev = cur


def test_iterate_lengths_follow_basis():
    for k in (1, 2, 3, 4):
        for n in range(0, 12):
            assert len(iterate_word(k, n)) == get_basis(k).value(n)


def test_iterate_matches_substitution():
    for k in (1, 2, 3):
        w = _word("0")
        for n in range(1, 8):
            w = substitute(k, w)
            assert w == iterate_word(k, n)


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


def test_swap_last_two():
    assert swap_last_two(_word("0110")) == _word("0101")
    assert swap_last_two(_word("01")) == _word("10")
    # Equal final symbols: exchange is invisible.
    assert swap_last_two(_word("0100")) == _word("0100")
    with pytest.raises(ValueError):
        swap_last_two(_word("0"))


def test_word_identities_small_grid():
    for k in (1, 2, 3, 4):
        for n in range(2, 8):
            assert word_identities(k, n) == (True, True)


@pytest.mark.parametrize("corrupt", ["flip_first", "flip_last", "drop_last", "append"])
def test_word_identities_detects_a_wrong_iterate(monkeypatch, corrupt):
    """The piecewise match of U_{n+2} fails on any symbol or length change."""
    exact = words._chain

    def corrupted(k, n):
        chain = exact(k, n)
        sym = bytearray(chain[-1])
        if corrupt == "flip_first":
            sym[0] ^= 1
        elif corrupt == "flip_last":
            sym[-1] ^= 1
        elif corrupt == "drop_last":
            del sym[-1]
        else:
            sym.append(0)
        return chain[:-1] + [bytes(sym)]

    monkeypatch.setattr(words, "_chain", corrupted)
    for k in (1, 3):
        assert word_identities(k, 5) == (True, False)


def test_fixed_point_prefix_cuts_the_iterate():
    """Lengths at, just past and inside the pieces of the last round."""
    for k in (1, 2, 3, 4):
        big = iterate_word(k, 9)
        for n in range(1, 7):
            fn = get_basis(k).value(n)
            for length in (fn - 1, fn, fn + 1, 2 * fn + 3, k * fn, k * fn + 1):
                assert fixed_point_prefix(k, length) == big[:length]


def test_word_identities_rejects_small_n():
    with pytest.raises(ValueError):
        word_identities(1, 1)


def test_identity_statements_literally():
    # Spell out both identities once, independent of word_identities.
    k, n = 2, 4
    un = iterate_word(k, n)
    un_1 = iterate_word(k, n - 1)
    un2 = iterate_word(k, n + 2)
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


# Lengths 0..20, and lengths whose lanes end on, one or two bits short of,
# or one bit past a 1-, 2-, 4- or 8-byte word or a second 64-bit lane word.
_FACTOR_LENGTHS = sorted(
    {*range(21)} | {bits - 1 + d for bits in (8, 16, 32, 64, 128) for d in (-1, 0, 1, 2)}
)


@pytest.mark.parametrize("chunk", [None, 37], ids=["real-chunk", "chunk-37"])
@pytest.mark.parametrize("m", _FACTOR_LENGTHS)
def test_distinct_factors_matches_sliced_reference(m, chunk, monkeypatch):
    """Lane-packed factors equal per-position slices on random, constant and
    Sturmian words, with the last pass just short of, on and just past a
    chunk edge, at the real chunk size and at a small odd one."""
    if chunk is not None:
        monkeypatch.setattr(words, "_LANE_CHUNK", chunk)
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


@pytest.mark.parametrize("order", ["<", ">"], ids=["little", "big"])
@pytest.mark.parametrize("size, code", [(1, "B"), (2, "H"), (4, "I"), (8, "Q")])
def test_lane_byte_offset_matches_struct_layout(order, size, code):
    """Each lane byte lands where struct packs it, in either byte order, so
    a big-endian machine's branch is checked on a little-endian one too."""
    byteorder = "little" if order == "<" else "big"
    rng = random.Random(size)
    for nwords in (1, 2, 3):
        lane = rng.getrandbits(8 * size * nwords)
        mask = (1 << (8 * size)) - 1
        packed = struct.pack(
            order + code * nwords, *((lane >> (8 * size * v)) & mask for v in range(nwords))
        )
        for b in range(size * nwords):
            offset = words._lane_byte_offset(b, size, byteorder)
            assert packed[offset] == (lane >> (8 * b)) & 0xFF, (nwords, b)


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
