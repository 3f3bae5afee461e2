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
    """Functions defined on binary words refuse a symbol above 1."""
    with pytest.raises(ValueError, match="binary"):
        substitute(1, bytes([2, 0]))
    with pytest.raises(ValueError, match="binary"):
        difference(_word("012"), 1)
    with pytest.raises(ValueError, match="binary"):
        block_determinism(_word("0120"), 1)


def test_to_string_rejects_symbols_above_nine():
    with pytest.raises(ValueError, match="above 9"):
        to_string(bytes([10]))
    with pytest.raises(ValueError, match="above 9"):
        to_string(shift_product(_word("0110"), {(0, 1): 1, (1, 1): 10, (1, 0): 3}))


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
    with pytest.raises(CapExceededError, match="239244622"):
        word_identities(3, 14)


@pytest.mark.parametrize("alphabet", range(2, 11))
def test_to_string_matches_per_symbol_digits(alphabet):
    sym = bytes(range(alphabet - 1, -1, -1)) * 5 + bytes(range(alphabet)) * 5
    assert to_string(sym) == "".join(str(c) for c in sym)
