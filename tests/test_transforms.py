import functools
import random
import warnings
from fractions import Fraction

import pytest

from sturmlab import (
    block_determinism,
    difference,
    difference_by_binomial,
    fixed_point_prefix,
    fixed_point_series,
    floor_golden,
    rotation_sum_relation,
    shift_product,
    to_string,
    value_affine_relation,
)
from sturmlab import transforms, words


def _word(digits: str) -> bytes:
    return bytes(map(int, digits))


def test_difference_basic():
    assert difference(_word("0110")) == _word("101")
    assert difference(_word("0110"), 0) == _word("0110")
    assert difference(_word("01100"), 2) == _word("111")


def test_difference_known_prefix():
    w = fixed_point_prefix(1, 13)
    assert to_string(difference(w, 2)) == "01100011011"


def test_difference_validates():
    with pytest.raises(ValueError):
        difference(_word("01"), -1)
    with pytest.raises(ValueError):
        difference(_word("01"), 2)
    with pytest.raises(ValueError):
        difference(_word("012"), 1)


def test_binomial_oracle_agrees():
    u = fixed_point_prefix(2, 3000)
    for order in range(0, 9):
        assert difference(u, order) == difference_by_binomial(u, order)
    # One, two and three set bits high up: the mask visits only the submasks.
    u = fixed_point_prefix(1, 100_000)
    for order in (2**16, 2**16 + 1, 3 * 2**15):
        assert difference(u, order) == difference_by_binomial(u, order), order


def _one_step_differences(u: bytes):
    """Delta^0 u, Delta^1 u, ... by the definition: each step XORs the word
    with its 1-shift (the reference)."""
    while u:
        yield u
        u = (int.from_bytes(u[:-1], "big") ^ int.from_bytes(u[1:], "big")).to_bytes(
            len(u) - 1, "big"
        )


_DIFFERENCE_ORDERS = {*range(70), 127, 128, 255, 256, 1000, 2047, 2999}


def test_difference_routes_match_the_definition():
    """One XOR per set bit of the order, the binomial mask and the one-step
    iteration agree on Sturmian words at orders up to 2999, and on random
    words at orders below 300."""
    rng = random.Random(2300)
    cases = [(fixed_point_prefix(k, 3100), _DIFFERENCE_ORDERS) for k in (1, 2, 3)]
    for _ in range(40):
        u = bytes(rng.getrandbits(1) for _ in range(rng.randrange(1, 700)))
        cases.append((u, {rng.randrange(min(300, len(u))) for _ in range(4)}))
    for u, orders in cases:
        for order, expected in enumerate(_one_step_differences(u)):
            if order in orders:
                assert difference(u, order) == expected, (len(u), order)
                assert difference_by_binomial(u, order) == expected, (len(u), order)


def test_shift_product_default_coding():
    # Pairs of 01001 under (x, y) -> 2x + y: 01, 10, 00, 01.
    v = shift_product(fixed_point_prefix(1, 5))
    assert to_string(v) == "1201"


def _per_pair_product(u: bytes) -> bytes:
    """The coded pairs from one dict lookup per position (the reference)."""
    coding = {(x, y): 2 * x + y for x in (0, 1) for y in (0, 1)}
    return bytes(coding[u[i], u[i + 1]] for i in range(len(u) - 1))


def _seeded_binary_words(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    lengths = [2, 3, 7, 8, 9, 64, 65, 1000]
    return [bytes(rng.getrandbits(1) for _ in range(n)) for n in lengths for _ in range(5)]


def test_shift_product_matches_per_pair_reference():
    """Fixed-point prefixes and random words: the whole-word product, pair by pair."""
    samples = [fixed_point_prefix(k, n) for k in range(1, 6) for n in (2, 3, 50, 3001)]
    samples += _seeded_binary_words(4200)
    samples += [bytes(30), b"\x01" * 30]
    for u in samples:
        assert shift_product(u) == _per_pair_product(u), u


def test_affine_identity_certified_tight():
    for k in (1, 2):
        for b in (2, 3):
            u = fixed_point_prefix(k, 201)
            rep = value_affine_relation(u, b, 200)
            assert rep.consistent
            assert rep.gap_bound < Fraction(1, 2**195)


@pytest.mark.parametrize("b", [2, 3, 10, 2**40])
def test_value_relation_holds_on_every_binary_word(b):
    """The law is one of the coding, so random and periodic words satisfy it too."""
    cases = [
        (u, depth)
        for u in _seeded_binary_words(4300 + b % 97)
        for depth in sorted({1, len(u) // 2, len(u) - 1})
    ]
    # A periodic word shows only two blocks.
    cases.append((_word("01" * 51), 100))
    for u, depth in cases:
        rep = value_affine_relation(u, b, depth)
        assert rep.consistent, (u, depth)


def test_affine_identity_numeric_sanity():
    """Evaluate both sides in floating point at moderate depth."""
    u = fixed_point_prefix(1, 61)
    rep = value_affine_relation(u, 2, 60)
    su = fixed_point_series(1, 2, 60)
    xu = su.lo / su.den
    xv = rep.left.lo / rep.left.den
    a0, a1, a2 = transforms._AFFINE_LAW
    rhs = a0 * xu + a1 * 2 * (xu - u[0]) + a2 * 2
    assert xv == pytest.approx(rhs, abs=1e-14)


@pytest.mark.parametrize("b", [2, 3, 10])
@pytest.mark.parametrize(
    "u",
    [bytes([2, 2, 0] * 40), bytes([2, 0] * 60)],
    ids=["three-blocks", "two-blocks"],
)
def test_value_relation_refuses_non_binary_words(u, b):
    """The tail enclosure assumes digits 0/1, so a symbol above 1 is refused."""
    with pytest.raises(ValueError, match="binary"):
        value_affine_relation(u, b, 100)


def test_value_relation_validates():
    u = fixed_point_prefix(1, 50)
    with pytest.raises(ValueError):
        value_affine_relation(u, 1, 10)
    with pytest.raises(ValueError):
        value_affine_relation(u, 2, 0)
    with pytest.raises(ValueError):
        value_affine_relation(u, 2, 50)


def test_block_determinism_counts():
    u = fixed_point_prefix(1, 10000)
    for order in (1, 2, 3, 5, 8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count, table = block_determinism(u, order)
        assert count == order + 2
        assert all(len(block) == order + 1 for block in table)


def test_block_determinism_warns_on_short_prefix():
    # An all-zero word has a single block, far from order + 2: the returned
    # count says so, and nothing is warned.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count, _ = block_determinism(bytes(50), 2)
    assert count == 1


def test_block_table_consistent_with_difference():
    u = fixed_point_prefix(2, 2000)
    order = 3
    _count, table = block_determinism(u, order)
    d = difference(u, order)
    for i in range(0, 1500, 7):
        assert table[u[i : i + order + 1]] == d[i]


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
    words += [fixed_point_prefix(k, 300) for k in (1, 2, 3)]
    return words


@pytest.mark.parametrize("order", range(1, 10))
def test_whole_word_transforms_match_per_position(order):
    """Random, constant and Sturmian words: every output against a loop done here."""
    rng = random.Random(9100 + order)
    for sym in _differential_words(order, rng):
        expected = _per_position_difference(sym, order)
        assert difference(sym, order) == expected, (order, sym)
        assert difference_by_binomial(sym, order) == expected, (order, sym)
        table_here: dict[bytes, int] = {}
        for i, value in enumerate(expected):
            assert table_here.setdefault(sym[i : i + order + 1], value) == value
        count, table = block_determinism(sym, order)
        assert count == len(table_here)
        assert table == table_here


_REAL_CHUNK = words._LANE_CHUNK


@functools.lru_cache(maxsize=None)
def _fixed_point_symbols(k: int) -> bytes:
    return fixed_point_prefix(k, 2 * _REAL_CHUNK + 200)


def _sliced_block_table(sym: bytes, order: int) -> dict[bytes, int]:
    """Block -> difference from one slice per position (the reference)."""
    diff = difference(sym, order)
    ends = range(order + 1, len(sym) + 1)
    pairs = set(zip(map(sym.__getitem__, map(slice, range(len(diff)), ends)), diff))
    table = dict(sorted(pairs))
    assert len(table) == len(pairs), "a block forces two values"
    return table


# Orders 1..20, and orders whose lanes (the order + 1 bits of a block) end
# on, one or two bits short of, or one bit past a 1-, 2-, 4- or 8-byte word
# or a second 64-bit lane word.
_LANE_EDGE_ORDERS = sorted(
    {*range(1, 21)}
    | {bits - 1 + d for bits in (8, 16, 32, 64, 128) for d in (-2, -1, 0, 1)}
)


@pytest.mark.parametrize("chunk", [None, 37], ids=["real-chunk", "chunk-37"])
@pytest.mark.parametrize("order", _LANE_EDGE_ORDERS)
def test_block_determinism_matches_sliced_reference(order, chunk, monkeypatch):
    """Lane-packed tables equal per-position slices, on Sturmian and random words.

    Lengths put the last pass just short of, on and just past a chunk edge,
    with the real chunk size and with a small odd one.
    """
    if chunk is not None:
        monkeypatch.setattr(words, "_LANE_CHUNK", chunk)
        # Pack every word at this chunk size, none kept from an earlier call.
        monkeypatch.setattr(words, "_kept_lanes", (b"", 0, {}))
    step = words._LANE_CHUNK
    rng = random.Random(7700 + order)
    short = [order + 1, order + 2, order + 9, 300]
    if chunk is None:
        # One word per order at the real size keeps the run short: the edge
        # side and k turn with the order, and only low orders take a random
        # word, whose many distinct blocks are each decoded in Python.
        edge = step + order + order % 3 - 1
        samples = [_fixed_point_symbols(k)[:n] for k in (1, 2, 3) for n in short]
        samples.append(_fixed_point_symbols(order % 3 + 1)[:edge])
        random_lengths = short + [edge] if order <= 8 else short
    else:
        edges = [m * step + order + d for m in (1, 2) for d in (-1, 0, 1)]
        samples = [_fixed_point_symbols(k)[:n] for k in (1, 2, 3) for n in short + edges]
        random_lengths = short + edges
    samples += [bytes(rng.getrandbits(1) for _ in range(n)) for n in random_lengths]
    for sym in samples:
        count, table = block_determinism(sym, order)
        expected = _sliced_block_table(sym, order)
        assert count == len(expected), (order, len(sym))
        assert list(table.items()) == list(expected.items())


@pytest.mark.parametrize("flip_at", [0, 1, 500, -2, -1])
def test_block_determinism_checks_every_position(monkeypatch, flip_at):
    """A single wrong symbol of the iterated difference, anywhere, is caught."""
    exact = transforms.difference

    def flipped(u, order=1):
        sym = bytearray(exact(u, order))
        sym[flip_at] ^= 1
        return bytes(sym)

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
    assert rep.pair == (Fraction(-1, 2), Fraction(1))
    assert rep.residual_bound < Fraction(1, 2**390)
    # S is about 0.70980, the value about 0.58039; at b = 2, S is the marks series.
    assert rep.marks.lo / rep.marks.den == pytest.approx(0.7098034, abs=1e-6)
    assert rep.value.lo / rep.value.den == pytest.approx(0.5803931, abs=1e-6)


def test_rotation_sum_decisive_other_bases():
    for b in (3, 10):
        rep = rotation_sum_relation(b, 120)
        assert rep.matching == "index_shifted"
        assert rep.pair == (Fraction(-(b - 1), b), Fraction(1))


def test_rotation_sum_miss_is_reported(monkeypatch):
    """A power sum off by one exponent misses the law: "none", not an error."""
    exact = transforms.floor_golden
    monkeypatch.setattr(transforms, "floor_golden", lambda n: exact(n) + (n == 3))
    for b in (2, 3):
        rep = rotation_sum_relation(b, 120)
        assert rep.matching == "none"
        assert rep.pair == (Fraction(-(b - 1), b), Fraction(1))
        # Moving the mark at 4 to 5 lowers the sum by (b-1)^2 / b^5.
        assert rep.residual_bound >= Fraction((b - 1) ** 2, b**5)


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
        marks, value = rep.marks, rep.value
        sum_lo = Fraction((b - 1) * marks.lo, marks.den)
        sum_hi = Fraction((b - 1) * marks.hi, marks.den)
        value_lo, value_hi = Fraction(value.lo, value.den), Fraction(value.hi, value.den)
        got = (sum_lo, sum_hi, rep.matching, rep.residual_bound)
        assert got == _power_loop_report(b, depth, value_lo, value_hi), depth


@pytest.mark.parametrize("b", [2, 10, 2**40])
def test_rotation_sum_value_fields_are_the_series_enclosure(b):
    for depth in (50, 400):
        rep = rotation_sum_relation(b, depth)
        xi = fixed_point_series(1, b, depth)
        assert rep.value == xi, depth
        assert rep.pair == (Fraction(-(b - 1), b), Fraction(1))
        sum_width = Fraction((b - 1) * (rep.marks.hi - rep.marks.lo), rep.marks.den)
        assert sum_width == Fraction(1, b**depth)
