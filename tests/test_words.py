import pytest

from sturmlab import (
    CapExceededError,
    GeneralWord,
    Word,
    distinct_factors,
    fixed_point_prefix,
    iterate_word,
    substitute,
    swap_last_two,
    word_identities,
)
from sturmlab import words
from sturmlab.numeration import basis_value


def test_word_construction_and_equality():
    w = Word("0100101")
    assert len(w) == 7
    assert w[0] == 0 and w[1] == 1
    assert w == Word([0, 1, 0, 0, 1, 0, 1])
    assert w == Word(b"\x00\x01\x00\x00\x01\x00\x01")
    assert w[2:5] == Word("001")
    assert (w + Word("0")).to_string() == "01001010"
    assert (Word("01") * 3).to_string() == "010101"


def test_word_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Word("012")
    with pytest.raises(ValueError):
        Word([0, 2])
    with pytest.raises(ValueError):
        GeneralWord([0, 3], alphabet_size=3)


def test_general_word_alphabet():
    w = GeneralWord([0, 1, 2, 3], alphabet_size=4)
    assert w.alphabet_size == 4
    assert w.to_string() == "0123"
    assert w.count(2) == 1


def test_substitute_base_cases():
    # 0 -> 0^k 1, 1 -> 0
    assert substitute(1, Word("0")).to_string() == "01"
    assert substitute(1, Word("1")).to_string() == "0"
    assert substitute(2, Word("0")).to_string() == "001"
    assert substitute(3, Word("01")).to_string() == "00010"


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
            assert len(iterate_word(k, n)) == basis_value(k, n)


def test_iterate_matches_substitution():
    for k in (1, 2, 3):
        w = Word("0")
        for n in range(1, 8):
            w = substitute(k, w)
            assert w == iterate_word(k, n)


def test_fixed_point_prefix_values():
    assert fixed_point_prefix(1, 13).to_string() == "0100101001001"
    assert fixed_point_prefix(2, 7).to_string() == "0010010"
    assert fixed_point_prefix(1, 0).to_string() == ""


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
    assert swap_last_two(Word("0110")) == Word("0101")
    assert swap_last_two(Word("01")) == Word("10")
    # Equal final symbols: exchange is invisible.
    assert swap_last_two(Word("0100")) == Word("0100")
    with pytest.raises(ValueError):
        swap_last_two(Word("0"))


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
        sym = bytearray(chain[-1].symbols)
        if corrupt == "flip_first":
            sym[0] ^= 1
        elif corrupt == "flip_last":
            sym[-1] ^= 1
        elif corrupt == "drop_last":
            del sym[-1]
        else:
            sym.append(0)
        return chain[:-1] + [Word(bytes(sym))]

    monkeypatch.setattr(words, "_chain", corrupted)
    for k in (1, 3):
        assert word_identities(k, 5) == (True, False)


def test_fixed_point_prefix_cuts_the_iterate():
    """Lengths at, just past and inside the pieces of the last round."""
    for k in (1, 2, 3, 4):
        big = iterate_word(k, 9).symbols
        for n in range(1, 7):
            fn = basis_value(k, n)
            for length in (fn - 1, fn, fn + 1, 2 * fn + 3, k * fn, k * fn + 1):
                assert fixed_point_prefix(k, length).symbols == big[:length]


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
        Word("01") * 51
    with pytest.raises(CapExceededError):
        word_identities(1, 9)
    assert fixed_point_prefix(1, 100).to_string().startswith("01001")


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
    w = GeneralWord(sym, alphabet_size=alphabet)
    assert w.to_string() == "".join(str(c) for c in sym)
