import functools
import random
import warnings
from fractions import Fraction

import pytest

from sturmlab import (
    GeneralWord,
    IndecisiveEnclosureError,
    MissingCodingError,
    NonSturmianError,
    NonSturmianWarning,
    Word,
    affine_decompose,
    block_determinism,
    default_pair_coding,
    difference,
    difference_by_binomial,
    fixed_point_prefix,
    fixed_point_series,
    floor_golden,
    rotation_sum_relation,
    shift_product,
    value_affine_relation,
)
from sturmlab import transforms


def test_difference_basic():
    assert difference(Word("0110")) == Word("101")
    assert difference(Word("0110"), 0) == Word("0110")
    assert difference(Word("01100"), 2) == Word("111")


def test_difference_known_prefix():
    w = fixed_point_prefix(1, 13)
    assert difference(w, 2).to_string() == "01100011011"


def test_difference_validates():
    with pytest.raises(ValueError):
        difference(Word("01"), -1)
    with pytest.raises(ValueError):
        difference(Word("01"), 2)
    with pytest.raises(ValueError):
        difference(GeneralWord("012"), 1)


def test_binomial_oracle_agrees():
    u = fixed_point_prefix(2, 3000)
    for order in range(0, 9):
        assert difference(u, order) == difference_by_binomial(u, order)


def test_shift_product_default_coding():
    # Pairs of 01001 under (x, y) -> 2x + y: 01, 10, 00, 01.
    v = shift_product(fixed_point_prefix(1, 5))
    assert v.to_string() == "1201"
    assert v.alphabet_size == 4


def test_shift_product_custom_coding():
    coding = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    v = shift_product(Word("0110"), coding)
    assert list(v) == [1, 2, 1]


def test_shift_product_missing_block():
    with pytest.raises(MissingCodingError):
        shift_product(Word("0011"), {(0, 0): 0, (0, 1): 1, (1, 0): 2})


def test_affine_decompose_default_coding():
    dec = affine_decompose(fixed_point_prefix(1, 200), default_pair_coding())
    assert (dec.a0, dec.a1, dec.a2) == (2, 1, 0)
    assert dec.blocks_present == ((0, 0), (0, 1), (1, 0))
    assert not dec.eventually_periodic_capable


def test_affine_decompose_constant_coding():
    coding = {(x, y): 5 for x in (0, 1) for y in (0, 1)}
    dec = affine_decompose(fixed_point_prefix(2, 200), coding)
    assert (dec.a0, dec.a1, dec.a2) == (0, 0, 5)
    assert dec.eventually_periodic_capable


def test_affine_decompose_needs_three_blocks():
    with pytest.raises(NonSturmianError):
        affine_decompose(Word("00000"), default_pair_coding())
    with pytest.raises(NonSturmianError):
        # Four distinct blocks cannot occur in these words; force them.
        affine_decompose(Word("001101"), default_pair_coding())


def test_affine_identity_certified_tight():
    for k in (1, 2):
        for b in (2, 3):
            u = fixed_point_prefix(k, 201)
            rep = value_affine_relation(u, default_pair_coding(), b, 200)
            assert rep.consistent
            assert rep.gap_bound < Fraction(1, 2**195)
            assert (rep.a0, rep.a1, rep.a2) == (2, 1, 0)


def test_affine_identity_numeric_sanity():
    """Evaluate both sides in floating point at moderate depth."""
    u = fixed_point_prefix(1, 61)
    rep = value_affine_relation(u, default_pair_coding(), 2, 60)
    xu = float(fixed_point_series(1, 2, 60).value)
    xv = float(rep.left.value)
    rhs = float(rep.a0) * xu + float(rep.a1) * 2 * (xu - u[0]) + float(rep.a2) * 2
    assert xv == pytest.approx(rhs, abs=1e-14)


def test_value_relation_rejects_non_affine_coding():
    # XOR coding is affine on three blocks but not on all four.
    xor = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    sturmian = fixed_point_prefix(1, 101)
    rep = value_affine_relation(sturmian, xor, 2, 100)
    assert rep.consistent and (rep.a0, rep.a1, rep.a2) == (1, 1, 0)
    four_blocks = Word("0011010" * 20)
    with pytest.raises(NonSturmianError):
        value_affine_relation(four_blocks, xor, 2, 100)


def test_value_relation_validates():
    u = fixed_point_prefix(1, 50)
    with pytest.raises(ValueError):
        value_affine_relation(u, default_pair_coding(), 1, 10)
    with pytest.raises(ValueError):
        value_affine_relation(u, default_pair_coding(), 2, 0)
    with pytest.raises(ValueError):
        value_affine_relation(u, default_pair_coding(), 2, 50)


def test_block_determinism_counts():
    u = fixed_point_prefix(1, 10000)
    for order in (1, 2, 3, 5, 8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count, table = block_determinism(u, order)
        assert count == order + 2
        assert all(len(block) == order + 1 for block in table)


def test_block_determinism_warns_on_short_prefix():
    # An all-zero word has a single block, far from order + 2.
    with pytest.warns(NonSturmianWarning):
        count, _ = block_determinism(Word("0" * 50), 2)
    assert count == 1


def test_block_table_consistent_with_difference():
    u = fixed_point_prefix(2, 2000)
    order = 3
    _count, table = block_determinism(u, order)
    d = difference(u, order)
    sym = u.symbols
    for i in range(0, 1500, 7):
        block = Word(sym[i : i + order + 1])
        assert table[block] == d[i]


def _per_position_difference(sym: bytes, order: int) -> bytes:
    for _ in range(order):
        sym = bytes(x ^ y for x, y in zip(sym, sym[1:]))
    return sym


def _differential_words(order: int, rng: random.Random) -> list[bytes]:
    words = []
    for length in (order + 1, order + 2, order + 3, 64, 257):
        words.append(bytes(length))
        words.append(b"\x01" * length)
        words += [bytes(rng.randint(0, 1) for _ in range(length)) for _ in range(4)]
    words += [fixed_point_prefix(k, 300).symbols for k in (1, 2, 3)]
    return words


@pytest.mark.parametrize("order", range(1, 10))
def test_whole_word_transforms_match_per_position(order):
    """Random, constant and Sturmian words: every output against a loop done here."""
    rng = random.Random(9100 + order)
    for sym in _differential_words(order, rng):
        u = Word(sym)
        expected = _per_position_difference(sym, order)
        assert difference(u, order).symbols == expected, (order, sym)
        assert difference_by_binomial(u, order).symbols == expected, (order, sym)
        table_here: dict[bytes, int] = {}
        for i, value in enumerate(expected):
            assert table_here.setdefault(sym[i : i + order + 1], value) == value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            count, table = block_determinism(u, order)
        assert count == len(table_here)
        assert {block.symbols: value for block, value in table.items()} == table_here


_REAL_CHUNK = transforms._LANE_CHUNK


@functools.lru_cache(maxsize=None)
def _fixed_point_symbols(k: int) -> bytes:
    return fixed_point_prefix(k, 2 * _REAL_CHUNK + 200).symbols


def _sliced_block_table(sym: bytes, order: int) -> dict[bytes, int]:
    """Block -> difference from one slice per position (the reference)."""
    diff = difference(Word(sym), order).symbols
    ends = range(order + 1, len(sym) + 1)
    pairs = set(zip(map(sym.__getitem__, map(slice, range(len(diff)), ends)), diff))
    table = dict(sorted(pairs))
    assert len(table) == len(pairs), "a block forces two values"
    return table


# Orders 1..20, and orders whose lanes (order + 2 bits) end on or next to a
# 1-, 2-, 4- or 8-byte word or a second 64-bit lane word.
_LANE_EDGE_ORDERS = sorted(
    {*range(1, 21)} | {bits - 2 + d for bits in (8, 16, 32, 64, 128) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("chunk", [None, 37], ids=["real-chunk", "chunk-37"])
@pytest.mark.parametrize("order", _LANE_EDGE_ORDERS)
def test_block_determinism_matches_sliced_reference(order, chunk, monkeypatch):
    """Lane-packed tables equal per-position slices, on Sturmian and random words.

    Lengths put the last pass just short of, on and just past a chunk edge,
    with the real chunk size and with a small odd one.
    """
    if chunk is not None:
        monkeypatch.setattr(transforms, "_LANE_CHUNK", chunk)
    step = transforms._LANE_CHUNK
    rng = random.Random(7700 + order)
    short = [order + 1, order + 2, order + 9, 300]
    if chunk is None:
        # One word per order at the real size keeps the run short: the edge
        # side and k turn with the order, and only low orders take a random
        # word, whose many distinct blocks are each decoded in Python.
        edge = step + order + order % 3 - 1
        words = [_fixed_point_symbols(k)[:n] for k in (1, 2, 3) for n in short]
        words.append(_fixed_point_symbols(order % 3 + 1)[:edge])
        random_lengths = short + [edge] if order <= 8 else short
    else:
        edges = [m * step + order + d for m in (1, 2) for d in (-1, 0, 1)]
        words = [_fixed_point_symbols(k)[:n] for k in (1, 2, 3) for n in short + edges]
        random_lengths = short + edges
    words += [bytes(rng.getrandbits(1) for _ in range(n)) for n in random_lengths]
    for sym in words:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            count, table = block_determinism(Word(sym), order)
        expected = _sliced_block_table(sym, order)
        assert count == len(expected), (order, len(sym))
        assert [(b.symbols, v) for b, v in table.items()] == list(expected.items())


@pytest.mark.parametrize("flip_at", [0, 1, 500, -2, -1])
def test_block_determinism_checks_every_position(monkeypatch, flip_at):
    """A single wrong symbol of the iterated difference, anywhere, is caught."""
    exact = transforms.difference

    def flipped(u, order=1):
        sym = bytearray(exact(u, order).symbols)
        sym[flip_at] ^= 1
        return Word(bytes(sym))

    monkeypatch.setattr(transforms, "difference", flipped)
    with pytest.raises(RuntimeError, match="binomial-mask evaluation disagrees"):
        block_determinism(fixed_point_prefix(2, 1000), 3)


def test_floor_golden():
    phi = (1 + 5**0.5) / 2
    for n in range(2000):
        assert floor_golden(n) == int(n * phi)
    with pytest.raises(ValueError):
        floor_golden(-1)


def test_floor_golden_large():
    # Beyond float precision: 10^17 * phi needs exact integer arithmetic.
    n = 10**17
    v = floor_golden(n)
    assert v == 161803398874989484


def test_rotation_sum_decisive_binary():
    rep = rotation_sum_relation(2, 400)
    assert rep.matching == "index_shifted"
    assert rep.shifted_matches and not rep.direct_matches
    assert rep.shifted_pair == (Fraction(-1, 2), Fraction(1))
    assert rep.residual_bound < Fraction(1, 2**390)
    # S is about 0.70980, the value about 0.58039.
    assert float(rep.sum_lo) == pytest.approx(0.7098034, abs=1e-6)
    assert float(rep.value_lo) == pytest.approx(0.5803931, abs=1e-6)


def test_rotation_sum_decisive_other_bases():
    for b in (3, 10):
        rep = rotation_sum_relation(b, 120)
        assert rep.matching == "index_shifted"
        assert rep.shifted_pair == (Fraction(-(b - 1), b), Fraction(1))


def test_rotation_sum_validates():
    with pytest.raises(ValueError):
        rotation_sum_relation(1, 400)
    with pytest.raises(ValueError):
        rotation_sum_relation(2, 10)


def _power_loop_report(b, depth, value_lo, value_hi):
    """(sum_lo, sum_hi, matching, residual_bound) with one power of b per term."""
    acc = 0
    n = 1
    while (e := floor_golden(n)) <= depth:
        acc += b ** (depth - e)
        n += 1
    sum_lo = Fraction((b - 1) * acc, b**depth)
    sum_hi = sum_lo + Fraction(1, b**depth)
    verdicts = {}
    for name, c1 in (("direct", -(b - 1)), ("index_shifted", Fraction(-(b - 1), b))):
        lo, hi = c1 * value_hi + 1, c1 * value_lo + 1
        if lo <= sum_hi and sum_lo <= hi:
            verdicts[name] = max(abs(sum_hi - lo), abs(hi - sum_lo))
    assert len(verdicts) == 1
    ((matching, bound),) = verdicts.items()
    return sum_lo, sum_hi, matching, bound


@pytest.mark.parametrize("b", [2, 3, 10, 2**40])
def test_rotation_sum_matches_power_loop(b):
    for depth in (50, 51, 120, 400, 1000):
        rep = rotation_sum_relation(b, depth)
        got = (rep.sum_lo, rep.sum_hi, rep.matching, rep.residual_bound)
        assert got == _power_loop_report(b, depth, rep.value_lo, rep.value_hi), depth


@pytest.mark.parametrize("b", [2, 10, 2**40])
def test_rotation_sum_value_fields_are_the_series_enclosure(b):
    for depth in (50, 400):
        rep = rotation_sum_relation(b, depth)
        xi = fixed_point_series(1, b, depth)
        assert (rep.value_lo, rep.value_hi) == (xi.value, xi.upper), depth
        assert rep.direct_pair == (Fraction(-(b - 1)), Fraction(1))
        assert rep.sum_hi - rep.sum_lo == Fraction(1, b**depth)
