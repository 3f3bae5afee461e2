import hashlib
import importlib.util
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

import golden_cli
from sturmlab import access, approximants, cli, numeration, transforms, words


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_contract_strings(capsys):
    code, out, _ = run(capsys, "generate", "--k", "1", "--len", "13")
    assert code == 0 and out.strip() == "0100101001001"
    code, out, _ = run(capsys, "generate", "--k", "1", "--len", "13",
                       "--transform", "diff:2")
    assert code == 0 and out.strip() == "01100011011"
    code, out, _ = run(capsys, "generate", "--k", "2", "--len", "7")
    assert code == 0 and out.strip() == "0010010"


def test_generate_pairs_transform(capsys):
    code, out, _ = run(capsys, "generate", "--k", "1", "--len", "5",
                       "--transform", "pairs")
    assert code == 0 and out.strip() == "1201"


def test_generate_bad_transform(capsys):
    code, _, err = run(capsys, "generate", "--k", "1", "--len", "5",
                       "--transform", "squares")
    assert code == 2
    assert "transform" in err
    # A diff order that is not an integer is named, not passed to int().
    for spec in ("diff:abc", "diff:", "diff:1.5"):
        code, out, err = run(capsys, "generate", "--k", "1", "--len", "5",
                             "--transform", spec)
        assert (code, out) == (2, "")
        assert err == f"error: unknown transform {spec!r}; use diff, diff:N, or pairs\n"


@pytest.mark.parametrize("spec", ["bogus", "diff:abc"])
def test_generate_refuses_transform_before_prefix(spec, monkeypatch, capsys):
    """A bad spec is refused before any symbol of the prefix is built."""
    def built(*args):
        raise AssertionError("prefix built before the transform was parsed")

    monkeypatch.setattr(words, "fixed_point_prefix", built)
    code, out, err = run(capsys, "generate", "--k", "1", "--len", "100000000",
                         "--transform", spec)
    assert (code, out) == (2, "")
    assert err == f"error: unknown transform {spec!r}; use diff, diff:N, or pairs\n"


def test_huge_k_prefix_is_answered(capsys):
    """A prefix no longer than k is all zeros, so generate and lemma2 answer
    at any k without building U_1 = 0^k 1 (at k = 2^32 that took 4 GB)."""
    code, out, err = run(capsys, "generate", "--k", "18446744073709551616", "--len", "10")
    assert (code, out.strip(), err) == (0, "0000000000", "")
    for k in ("4294967296", "99999999999999999999"):
        code, out, err = run(capsys, "verify", "--lemma", "lemma2", "--k", k, "--imax", "10")
        assert (code, err) == (0, ""), err
        assert out.splitlines()[1].split("\t")[4:] == ["PASS", "checked=10;disagreements=0"]


def test_generate_bad_k(capsys):
    code, _, err = run(capsys, "generate", "--k", "0", "--len", "5")
    assert code == 2 and "k must be" in err


def test_verify_lemma1_tsv(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "lemma1",
                       "--k", "3", "--n", "2..8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == list(cli.TSV_COLUMNS)
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 7
    assert all(r[4] == "PASS" for r in rows)
    assert [r[3] for r in rows] == [str(n) for n in range(2, 9)]


def test_verify_json_matches_tsv(capsys):
    argv = ["verify", "--lemma", "formula3", "--k", "1", "--b", "2", "--n", "2..6"]
    code, tsv_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(json_out)
    assert doc["schema"] == 1
    assert doc["all_pass"] is True
    tsv_rows = [
        dict(zip(cli.TSV_COLUMNS, line.split("\t")))
        for line in tsv_out.strip().splitlines()[1:]
    ]
    assert tsv_rows == doc["rows"]


def test_verify_formula3_has_exact_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "formula3",
                       "--k", "1", "--b", "2", "--n", "2..2")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert "lower=1/112" in row and "upper=1/56" in row


def test_verify_deterministic_across_workers(capsys):
    argv = ["verify", "--lemma", "lemma4", "--k", "1..2", "--n", "0..6",
            "--imax", "500"]
    _, out1, _ = run(capsys, *argv + ["--jobs", "1"])
    _, out8, _ = run(capsys, *argv + ["--jobs", "8"])
    assert out1 == out8


def test_verify_requires_lemma_or_config(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "--lemma" in err


def test_verify_unknown_lemma_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--lemma", "lemma99"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--lemma", "lemma1", "--n", "9..2")
    assert code == 2 and "range" in err


def test_verify_json_config_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([
        {"lemma": "lemma1", "k": "1..2", "n": "2..3"},
        {"lemma": "blocks", "k": 1, "n": "1..2", "imax": 500},
    ]))
    code, out, _ = run(capsys, "verify", "--json", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()[1:]
    # blocks rows sort before lemma1 rows; within a lemma, by (k, n).
    assert [line.split("\t")[0] for line in lines] == ["blocks"] * 2 + ["lemma1"] * 4
    ks = [line.split("\t")[1] for line in lines[2:]]
    assert ks == ["1", "1", "2", "2"]


def test_verify_fail_row_forces_exit_one(monkeypatch, capsys):
    def broken(k, n):
        return False, "forced failure"

    monkeypatch.setattr(cli, "_check_lemma1", broken)
    code, out, _ = run(capsys, "verify", "--lemma", "lemma1", "--k", "1",
                       "--n", "2..3")
    assert code == 1
    assert "FAIL" in out


def test_verify_planted_offsets_reach_scaled_fail_rows(monkeypatch, capsys):
    # Offsets 0 and the cutoff leave the lower side one exponent-0 term,
    # (b-1)^2, which reaches b only from b = 3 on.
    monkeypatch.setattr(access, "_mismatch_offsets", lambda k, n, cutoff: [0, cutoff])
    code, out, err = run(capsys, "verify", "--lemma", "constants", "--k", "1",
                         "--b", "2,3", "--n", "5")
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "constants\t1\t2\t5\tFAIL\tc1=(b-1)/b^2;c2=b^2;holds=False",
        "constants\t1\t3\t5\tPASS\tc1=(b-1)/b^2;c2=b^2;holds=True",
    ]
    # Offsets filling 0..cutoff break the upper side alone.
    monkeypatch.setattr(access, "_mismatch_offsets",
                        lambda k, n, cutoff: list(range(cutoff + 1)))
    b = str(10**30)
    code, out, err = run(capsys, "verify", "--lemma", "formula3", "--k", "1",
                         "--b", b, "--n", "20")
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        f"formula3\t1\t{b}\t20\tFAIL\troute=scaled;lower_ok=True;upper_ok=False",
    ]


def test_verify_cap_after_a_fail_row_is_exit_two(monkeypatch, tmp_path, capsys):
    """Rows print only after the last cell, so a capped cell later in sorted
    order ends a sweep whose earlier cell failed: exit 2, no row printed."""
    ran = []

    def broken(k, imax):
        ran.append(k)
        return False, "forced failure"

    monkeypatch.setattr(cli, "_check_lemma2", broken)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([{"lemma": "lemma4", "k": "1", "n": "0..60", "imax": 10},
                               {"lemma": "lemma2", "k": "1", "imax": 10}]))
    code, out, err = run(capsys, "verify", "--json", str(cfg))
    assert ran == [1]
    assert code == 2 and out == ""
    assert err.startswith("error: word U_") and err.count("\n") == 1


def test_verify_blocks_fail_rows_exit_one(capsys):
    # A 12-symbol prefix shows too few blocks at the higher orders.
    code, out, err = run(capsys, "verify", "--lemma", "blocks", "--k", "1..2",
                         "--n", "1..8", "--imax", "12")
    rows = out.splitlines()[1:]
    assert code == 1 and err == ""
    assert len(rows) == 16
    assert sum(row.split("\t")[4] == "FAIL" for row in rows) == 7
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "2b046b24483ea40f11b97b1787c0f2b58303044574441f0f87cfe80806c2c580", 636)


@pytest.mark.parametrize("config", [[1], ["lemma1"], [{"lemma": "lemma1"}, None]],
                         ids=["int", "string", "null"])
def test_verify_json_entry_must_be_object(config, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--json", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("config", [
    [{"lemma": "lemma2", "imax": None}],
    [{"lemma": "affine", "depth": []}],
    [{"lemma": "lemma3", "cases": float("inf")}],
    [{"lemma": "lemma2", "imax": True}],
    [{"lemma": "affine", "depth": False}],
    [{"lemma": "lemma3", "seed": 1.5}],
    [{"lemma": "lemma3", "cases": 1.0}],
    [{"lemma": "lemma2", "imax": 1e300}],
], ids=["imax-null", "depth-list", "cases-infinity", "imax-true", "depth-false",
        "seed-half", "cases-float-one", "imax-1e300"])
def test_verify_json_entry_field_of_wrong_type(config, tmp_path, capsys, monkeypatch):
    """A field that is not an integer, a bool or float included, is refused in
    one short line before any cell of an earlier entry runs."""
    monkeypatch.setattr(cli, "_check_lemma1", lambda *a: pytest.fail("a cell ran"))
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([{"lemma": "lemma1", "k": "1", "n": "2"}, *config]))
    code, out, err = run(capsys, "verify", "--json", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be an integer, got" in err
    assert len(err) < 100


@pytest.mark.parametrize("key", ["imx", "jobs", "format", "K", ""])
def test_verify_json_unknown_key_is_refused(key, tmp_path, capsys, monkeypatch):
    """A key outside the sweep fields is refused, not silently ignored, before
    any cell of an earlier entry runs."""
    monkeypatch.setattr(cli, "_check_lemma1", lambda *a: pytest.fail("a cell ran"))
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([{"lemma": "lemma1", "k": "1", "n": "2"},
                               {"lemma": "lemma2", key: 5}]))
    code, out, err = run(capsys, "verify", "--json", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: unknown sweep key {key!r}; use lemma, k, b, n,")


@pytest.mark.parametrize("argv", [
    ("--lemma", "lemma1", "--k", "3", "--n", "14"),
    ("--lemma", "lemma2", "--k", "1", "--imax", "200000000"),
    ("--lemma", "growth", "--n", "0..1000000000000000000"),
], ids=["lemma1-length", "lemma2-imax", "grid-cells"])
def test_verify_cap_exceeded_is_exit_two(argv, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


@pytest.mark.parametrize("argv", [
    ("--lemma", "lemma1", "--k", "1", "--n", "100000"),
    ("--lemma", "lemma4", "--k", "1", "--n", "100000", "--imax", "10"),
], ids=["lemma1", "lemma4"])
def test_verify_level_cap_precedes_basis_growth(argv, monkeypatch, capsys):
    """A level past the length cap is refused by index, before f_n is built:
    a short error naming the level, and the basis grows only past the cap."""
    monkeypatch.setattr(numeration, "_basis_cache", {})
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: word U_") and "cap" in err and len(err.encode()) < 200
    assert len(numeration.get_basis(1)._vals) < 60


@pytest.mark.parametrize("lemma", ["formula3", "growth", "constants"])
@pytest.mark.parametrize("k, n", [(1, 10_001), (2**40, 244), (1, 200_000)])
def test_verify_level_cap_refuses_before_any_basis_value(lemma, k, n, monkeypatch, capsys):
    """Past n * bits(k) = LEVEL_CAP a cell is refused in a short line, and no
    basis is built at all."""
    monkeypatch.setattr(numeration, "_basis_cache", {})
    code, out, err = run(capsys, "verify", "--lemma", lemma, "--k", str(k), "--n", str(n))
    assert code == 2 and out == ""
    assert err.startswith(f"error: level {n} ") and "cap" in err and len(err.encode()) < 200
    assert numeration._basis_cache == {}


@pytest.mark.parametrize("lemma", ["formula3", "growth", "constants"])
def test_verify_level_cap_admits_its_edge(lemma, capsys):
    for k in (1, 2**40):
        n = cli.LEVEL_CAP // k.bit_length()
        code, out, _ = run(capsys, "verify", "--lemma", lemma, "--k", str(k), "--n", str(n))
        assert code == 0 and out.count("\tPASS\t") == 1, (k, n)


@pytest.mark.parametrize("argv, code", [
    (("verify", "--lemma", "lemma1", "--k", "1", "--n", "2"), 0),
    (("verify", "--lemma", "lemma1", "--k", "1", "--n", "x"), 2),
], ids=["exit-0", "exit-2"])
def test_main_restores_int_str_digit_limit(argv, code, capsys):
    """``main`` lifts the int/str digit limit only while it runs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, *argv)[0] == code
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


def test_verify_lemma3_cap_precedes_round_trip(monkeypatch, capsys):
    """The uniqueness cap on --imax refuses the sweep before any value is digitised."""
    def digitised(k, values):
        raise AssertionError("round trip ran before the cap check")

    monkeypatch.setattr(numeration, "digit_vectors", digitised)
    code, out, err = run(capsys, "verify", "--lemma", "lemma3", "--k", "1",
                         "--imax", "5000001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_verify_lemma3_cases_cap_precedes_any_case(monkeypatch, capsys):
    """--cases past the uniqueness cap is refused in one error line, before
    the walk or any normalization case runs."""
    def ran(*args):
        raise AssertionError("lemma3 ran before the cases cap check")

    monkeypatch.setattr(numeration, "regular_vectors", ran)
    monkeypatch.setattr(numeration, "normalize", ran)
    code, out, err = run(capsys, "verify", "--lemma", "lemma3", "--k", "1",
                         "--imax", "10", "--cases", "100000000")
    assert code == 2 and out == ""
    assert err == f"error: lemma3 cases are capped at {numeration.UNIQUENESS_CAP:_}\n"


def test_lemma3_cases_draw_as_randint_did():
    """``_check_lemma3`` draws its cases with ``randrange(k + 1)`` and
    ``randrange(21)``, which take the same draws as ``randint(0, k)`` and
    ``randint(0, 20)``: from the check's generator for one seed and k, the
    first 50 cases come out the same both ways, so a seed keeps its cases."""
    import random

    k, seed = 3, 5
    ranged = random.Random((seed * 1000003) ^ k)
    inclusive = random.Random((seed * 1000003) ^ k)
    for _ in range(50):
        case = [ranged.randrange(k + 1) for _ in range(ranged.randrange(21))]
        assert case == [inclusive.randint(0, k) for _ in range(inclusive.randint(0, 20))]


def test_verify_lemma3_cases_cap_admits_its_edge(monkeypatch, capsys):
    # The cap bounds --imax too, so the sweep runs at the cap.
    monkeypatch.setattr(numeration, "UNIQUENESS_CAP", 10)
    code, out, _ = run(capsys, "verify", "--lemma", "lemma3", "--k", "1",
                       "--imax", "10", "--cases", "10")
    assert code == 0 and out.endswith("roundtrip<10;uniqueness<10;cases=10\n")
    assert run(capsys, "verify", "--lemma", "lemma3", "--k", "1",
               "--imax", "10", "--cases", "11")[0] == 2


@pytest.mark.parametrize("argv", [
    ("--lemma", "lemma4", "--k", "1", "--n", "-1", "--imax", "10"),
    ("--lemma", "formula3", "--n", "-1"),
    ("--lemma", "formula3", "--n", "-2"),
], ids=["lemma4-n-1", "formula3-n-1", "formula3-n-2"])
def test_verify_negative_level_is_refused(argv, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", "error: n must be >= 0\n")


def _digits_wrong_at(bad):
    """digit_vectors, except that it yields the vector of bad + 1 at bad."""
    real = _real_digit_vectors

    def digits(k, values):
        wrong = numeration.to_digits(k, bad + 1)
        return (wrong if n == bad else d for n, d in zip(values, real(k, values)))

    return digits


# Each fault walk is made for the value it goes wrong at, from the real walk:
# a faulted cell patches the walk that the check and the oracle read.
_real_walk = numeration.regular_vectors
_real_digit_vectors = numeration.digit_vectors
_real_normalize = numeration.normalize
_real_is_regular = numeration.is_regular


def _skipping_walk(at):
    def walk(k, bound):
        for value, digits in _real_walk(k, bound):
            if value != at:
                yield value, digits

    return walk


def _repeating_walk(at):
    def walk(k, bound):
        for value, digits in _real_walk(k, bound):
            yield value, digits
            if value == at:
                yield value, digits

    return walk


def _replacing_walk(at):
    """Repeats ``at`` in place of at + 1, so the count of vectors stays right."""
    def walk(k, bound):
        for value, digits in _real_walk(k, bound):
            if value == at:
                twice = digits
            yield (at, twice) if value == at + 1 else (value, digits)

    return walk


def _stopping_walk(at):
    """Drops the last vector, whatever ``at`` is."""
    def walk(k, bound):
        for value, digits in _real_walk(k, bound):
            if value == bound - 1:
                return
            yield value, digits

    return walk


def _overrunning_walk(at):
    """Goes one vector past the bound, with that vector's right digits."""
    def walk(k, bound):
        return _real_walk(k, bound + 1)

    return walk


WALK_FAULTS = pytest.mark.parametrize(
    "walk", [_skipping_walk, _repeating_walk, _replacing_walk, _stopping_walk, _overrunning_walk],
    ids=["skip", "repeat", "replace", "stop-early", "overrun"])

# (imax, round-trip fault, walk fault): inside the first block of the walk
# (2,584 vectors at k = 1, 3,363 at k = 2) and past it.
FAULT_CELLS = [(200, 37, 70), (6000, 4000, 5000)]


def _lemma3_details(monkeypatch, capsys, digits=None, walk=None):
    """The details of the k = 1..2 rows for each cell of ``FAULT_CELLS``,
    with ``digit_vectors`` wrong at the round-trip fault (when ``digits``) and
    the walk made by ``walk`` at the walk fault."""
    details = []
    for imax, wrong, at in FAULT_CELLS:
        if digits:
            monkeypatch.setattr(numeration, "digit_vectors", _digits_wrong_at(wrong))
        if walk:
            monkeypatch.setattr(numeration, "regular_vectors", walk(at))
        code, out, _ = run(capsys, "verify", "--lemma", "lemma3", "--k", "1..2",
                           "--imax", str(imax), "--cases", "20")
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert code == 1 and [row[4] for row in rows] == ["FAIL", "FAIL"]
        details.append({row[5] for row in rows})
    return details


def test_verify_lemma3_reports_round_trip_fault(monkeypatch, capsys):
    assert _lemma3_details(monkeypatch, capsys, digits=True) == [
        {f"roundtrip<{imax};uniqueness<{imax};cases=20;failed=roundtrip@{wrong}"}
        for imax, wrong, _ in FAULT_CELLS
    ]


@WALK_FAULTS
def test_verify_lemma3_reports_walk_fault(walk, monkeypatch, capsys):
    assert _lemma3_details(monkeypatch, capsys, walk=walk) == [
        {f"roundtrip<{imax};uniqueness<{imax};cases=20;failed=uniqueness"}
        for imax, _, _ in FAULT_CELLS
    ]


@WALK_FAULTS
def test_verify_lemma3_decides_uniqueness_after_round_trip_fault(walk, monkeypatch, capsys):
    assert _lemma3_details(monkeypatch, capsys, digits=True, walk=walk) == [
        {f"roundtrip<{imax};uniqueness<{imax};cases=20;failed=roundtrip@{wrong},uniqueness"}
        for imax, wrong, _ in FAULT_CELLS
    ]


def _zero_on_top_unless_given_one(k, digits):
    """Right value and regular, but a second call on its own output differs."""
    digits = tuple(digits)
    nd = _real_normalize(k, digits)
    return nd if digits[-1:] == (0,) else nd + (0,)


def _value_in_bottom_digit_when_irregular(k, digits):
    """An irregular vector comes back as its value in one digit: the right
    value, and a bottom digit that is not the input's."""
    digits = tuple(digits)
    if _real_is_regular(k, digits):
        return _real_normalize(k, digits)
    return (numeration.from_digits(k, digits),)


# label -> (fake normalize, whether is_regular is faked to pass every vector).
# A regular vector is unique, so a vector of the right value with other low
# digits is one that is_regular must be made to accept.
NORMALIZE_FAULTS = {
    "normalize-value": (lambda k, digits: _real_normalize(k, digits) + (1,), False),
    "normalize-regular": (lambda k, digits: tuple(digits), False),
    "normalize-idempotent": (_zero_on_top_unless_given_one, False),
    "normalize-low-index": (_value_in_bottom_digit_when_irregular, True),
    "normalize-identity": (lambda k, digits: _real_normalize(k, digits) + (0,), False),
}


@pytest.mark.parametrize("label", NORMALIZE_FAULTS)
def test_verify_lemma3_reports_normalize_fault(label, monkeypatch, capsys):
    """Each randomized normalization check fails its row under its own label."""
    fake, accept_all = NORMALIZE_FAULTS[label]
    monkeypatch.setattr(numeration, "normalize", fake)
    if accept_all:
        monkeypatch.setattr(numeration, "is_regular", lambda k, digits: True)
    code, out, _ = run(capsys, "verify", "--lemma", "lemma3", "--k", "1..2",
                       "--imax", "200", "--cases", "50")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 1
    assert [row[4:] for row in rows] == [
        ["FAIL", f"roundtrip<200;uniqueness<200;cases=50;failed={label}"]] * 2


def test_verify_lemma2_reports_one_flipped_symbol(monkeypatch, capsys):
    """A random-access kernel wrong at one index fails the row with one disagreement."""
    real = access.symbols_at

    def flipped_at_37(k, indices):
        for i, symbol in zip(indices, real(k, indices)):
            yield 1 - symbol if i == 37 else symbol

    monkeypatch.setattr(access, "symbols_at", flipped_at_37)
    code, out, _ = run(capsys, "verify", "--lemma", "lemma2", "--k", "1..2", "--imax", "200")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 1
    assert [row[4:] for row in rows] == [["FAIL", "checked=200;disagreements=1"]] * 2


def test_verify_lemma4_reports_one_flipped_verdict(monkeypatch, capsys):
    """A mismatch kernel wrong at one scanned index fails the row with one verdict error."""
    real = access.mismatches

    def flipped_at_37(k, n, indices):
        for i, verdict in zip(indices, real(k, n, indices)):
            yield verdict._replace(differs=not verdict.differs) if i == 37 else verdict

    monkeypatch.setattr(access, "mismatches", flipped_at_37)
    code, out, _ = run(capsys, "verify", "--lemma", "lemma4", "--k", "1..2", "--n", "2",
                       "--imax", "200")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 1
    assert [row[4] for row in rows] == ["FAIL", "FAIL"]
    assert {row[5].split(";")[1] for row in rows} == {"verdict_errors=1"}


@pytest.mark.parametrize("lemma, kernel, field", [
    ("lemma2", "symbols_at", "disagreements=1"),
    ("lemma4", "mismatches", "verdict_errors=1"),
])
def test_verify_counts_a_kernel_answer_cut_short(lemma, kernel, field, monkeypatch, capsys):
    """A range kernel that stops one index early fails the row with one
    disagreement, though every answer it gave is right."""
    real = getattr(access, kernel)

    def short(*args):
        # Only the scan from index 0; lemma4's one-index window check stays whole.
        indices = args[-1]
        return itertools.islice(real(*args), len(indices) - (indices.start == 0))

    monkeypatch.setattr(access, kernel, short)
    code, out, _ = run(capsys, "verify", "--lemma", lemma, "--k", "1..2", "--n", "2",
                       "--imax", "200")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 1
    assert [row[4] for row in rows] == ["FAIL", "FAIL"]
    assert all(field in row[5].split(";") for row in rows)


def test_verify_blocks_reports_route_disagreement(monkeypatch, capsys):
    """A binomial-mask route wrong at one symbol fails the row, with no traceback."""
    real = transforms.difference_by_binomial

    def flipped_at_37(u, order=1):
        word = bytearray(real(u, order))
        word[37] ^= 1
        return bytes(word)

    monkeypatch.setattr(transforms, "difference_by_binomial", flipped_at_37)
    code, out, err = run(capsys, "verify", "--lemma", "blocks", "--k", "1", "--n", "2..3",
                         "--imax", "100")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 1 and err == ""
    assert [row[3:] for row in rows] == [
        [str(n), "FAIL", f"blocks=-;expected={n + 2};failed=mask"] for n in (2, 3)]


def test_verify_sba_cap_precedes_power_sum(monkeypatch, capsys):
    """A depth past the cap is refused before any term of the power sum is built."""
    def summed(*args):
        raise AssertionError("power sum ran before the cap check")

    monkeypatch.setattr(transforms, "floor_golden", summed)
    monkeypatch.setattr(approximants, "series_truncation", summed)
    code, out, err = run(capsys, "verify", "--lemma", "sba", "--b", "2",
                         "--depth", "1000001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_verify_affine_cap_precedes_series(monkeypatch, capsys):
    """A depth past the cap is refused before the word is coded or summed."""
    def summed(*args):
        raise AssertionError("series summed before the cap check")

    monkeypatch.setattr(transforms, "shift_product", summed)
    monkeypatch.setattr(approximants, "series_truncation", summed)
    code, out, err = run(capsys, "verify", "--lemma", "affine", "--b", "2",
                         "--depth", "1000001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


@pytest.mark.parametrize("depth", range(1, 6))
def test_verify_affine_fixed_law_at_shallow_depth(depth, capsys):
    """At depth <= k the prefix shows fewer than three blocks; the law is still 2, 1, 0."""
    code, out, _ = run(capsys, "verify", "--lemma", "affine", "--k", "1..4",
                       "--b", "2,3", "--depth", str(depth))
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 8
    for row in rows:
        assert row[4] == "PASS"
        assert row[5].startswith("a0=2/1;a1=1/1;a2=0/1;gap_bound="), row


GOLDEN = golden_cli.load()


@pytest.mark.parametrize("entry", [e for e in GOLDEN if not e.get("heavy")],
                         ids=lambda entry: entry["id"])
def test_cli_golden(entry):
    """A fresh ``python -m sturmlab`` call exits and prints as its entry of
    golden_cli.json pins; tests/golden_cli.py checks the heavy entries."""
    expected = {key: entry[key] for key in golden_cli.OUTCOME}
    assert golden_cli.observed(entry) == expected


def test_pinned_cases_cover_every_lemma():
    """Every lemma has a light one-lemma sweep in the golden table, and so
    does every generate transform and every exponent format.  No two
    entries share an id, or an argv with its config."""
    light = [e["argv"] for e in GOLDEN if not e.get("heavy")]
    assert {a[2] for a in light if a[:2] == ["verify", "--lemma"]} == set(cli.LEMMAS)
    specs = {a[a.index("--transform") + 1] if "--transform" in a else None
             for a in light if a[0] == "generate"}
    assert {None, "diff", "pairs"} <= specs
    assert any(spec and spec.startswith("diff:") and spec[5:].isdigit() for spec in specs)
    formats = {a[a.index("--format") + 1] for a in light
               if a[0] == "exponent" and "--format" in a}
    assert formats == {"json", "tsv"}
    assert len({e["id"] for e in GOLDEN}) == len(GOLDEN)
    calls = {json.dumps([e["argv"], e.get("config")]) for e in GOLDEN}
    assert len(calls) == len(GOLDEN)


def test_verify_json_sweep_is_sized_before_any_entry_expands(tmp_path, capsys):
    """Every entry is validated and the whole sweep sized before any grid expands."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([
        {"lemma": "lemma1", "k": "1..1000", "n": "1..1000"},
        {"lemma": "nope"},
    ]))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--json", str(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "unknown lemma" in err
    assert peak < 10 * 2**20


def test_verify_json_sweep_cap_counts_every_entry(tmp_path, capsys):
    """Two entries under PLAN_CAP each, over it together, are refused."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps([
        {"lemma": "lemma1", "k": "1..600", "n": "1..1000"},
        {"lemma": "growth", "k": "1..2", "b": "2..3", "n": "1..100001"},
    ]))
    code, out, err = run(capsys, "verify", "--json", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_verify_sba_row(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "sba", "--b", "2",
                       "--depth", "120")
    assert code == 0
    assert "matching=index_shifted" in out


def test_verify_sba_missed_law_is_a_fail_row(monkeypatch, capsys):
    """Only the ``index_shifted`` verdict passes a row.  A power sum off by one
    exponent misses the one law, and ``rotation_sum_relation`` returns its
    one other verdict, ``none``: FAIL rows, exit 1, nothing on stderr."""
    exact = transforms.floor_golden
    monkeypatch.setattr(transforms, "floor_golden", lambda n: exact(n) + (n == 3))
    code, out, err = run(capsys, "verify", "--lemma", "sba", "--b", "2,3",
                         "--depth", "120")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert (code, err) == (1, "")
    assert [(row[2], row[4]) for row in rows] == [("2", "FAIL"), ("3", "FAIL")]
    assert all(row[5].startswith("matching=none;c1=-") for row in rows)


def test_exponent_json(capsys):
    code, out, _ = run(capsys, "exponent", "--k", "2", "--n", "30..40")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["k"] == "2"
    assert doc["cf_empirical"] is None
    # Target is 2 + sqrt(2); the sandwich is tighter than 10 printed digits.
    assert doc["lower"] <= 3.414213562373095 <= doc["upper"]
    assert doc["agrees"] is True


def test_exponent_with_empirical(capsys):
    code, out, _ = run(capsys, "exponent", "--k", "1", "--b", "2",
                       "--digits", "600")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["cf_empirical"] - 2.61803) < 0.05


def test_exponent_tight_tolerance_fails(capsys):
    for tol in ("0.0001", "0"):  # zero is the tightest tolerance accepted
        code, out, _ = run(capsys, "exponent", "--k", "1", "--b", "2",
                           "--digits", "600", "--tol", tol)
        assert code == 1
        assert json.loads(out)["agrees"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-0.001"])
def test_exponent_bad_tolerance_is_exit_two(tol, capsys):
    """A tolerance no estimate can be judged against is a usage error."""
    code, out, err = run(capsys, "exponent", "--k", "1", "--b", "2",
                         "--digits", "600", f"--tol={tol}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--tol" in err


@pytest.mark.parametrize("digits", [None, "600"])
@pytest.mark.parametrize("b", ["1", "0", "-7"])
def test_exponent_bad_base_is_exit_two(b, digits, capsys):
    """A base below 2 is refused whether or not --digits asks for a series."""
    extra = () if digits is None else ("--digits", digits)
    code, out, err = run(capsys, "exponent", "--k", "1", f"--b={b}", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--b" in err


def test_exponent_insufficient_precision_exit_code(capsys):
    code, _, err = run(capsys, "exponent", "--k", "5", "--b", "2",
                       "--digits", "40")
    assert code == 3
    assert "insufficient precision" in err


def test_exponent_tsv_mode(capsys):
    code, out, _ = run(capsys, "exponent", "--k", "1", "--n", "30..40",
                       "--format", "tsv")
    assert code == 0
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert fields["schema"] == "1"
    assert fields["agrees"] == "True"
    # Recorded while the TSV rows came from a hand-kept tuple of field names.
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "a82244a0575e89dcf69345de45c9013db9a55f3eb9a7a61110068b43143798a0", 155)


def test_exponent_bad_range(capsys):
    code, _, err = run(capsys, "exponent", "--k", "1", "--n", "30")
    assert code == 2 and "at least two" in err


@pytest.mark.parametrize("n_range, k", [
    ("2..100000000000000000000", 1),
    ("2..1000000000000000000", 1),
    ("2,100000000000000000000", 1),
    (f"2..{cli.LEVEL_CAP + 1}", 1),
    ("2..300", 2**40),
    ("5,99999999999,7", 1),
    ("99999999999,5,7", 1),
], ids=["range-1e20", "range-1e18", "list-1e20", "cap-plus-one", "k-2^40",
        "list-middle", "list-first"])
def test_exponent_index_cap_is_exit_two(n_range, k, monkeypatch, capsys):
    """Every listed index, and a range's last, is checked before any ratio is built."""
    def built(*args):
        raise AssertionError("sandwich built before the cap check")

    from sturmlab import exponent

    monkeypatch.setattr(exponent, "exponent_sandwich", built)
    code, out, err = run(capsys, "exponent", "--k", str(k), "--n", n_range)
    assert code == 2 and out == ""
    assert err.startswith("error: level ") and err.count("\n") == 1
    assert "cap" in err and "Traceback" not in err


@pytest.mark.parametrize("listed, span", [
    ("5,40,7", "5..40"), ("7,5", "5..7"), ("6,2,40", "2..40"),
])
def test_exponent_list_brackets_smallest_to_largest(listed, span, capsys):
    """A list brackets from its smallest to its largest index, in any order,
    as the range between them does (lists used to bracket from their first
    to their last value: 5,40,7 as 5..7, 6,2,40 as 6..40, and 7,5 was
    refused)."""
    code, out, _ = run(capsys, "exponent", "--k", "1", "--n", listed)
    _, ranged, _ = run(capsys, "exponent", "--k", "1", "--n", span)
    assert code == 0
    doc, expected = json.loads(out), json.loads(ranged)
    assert doc["n_range"] == listed
    assert {**doc, "n_range": span} == expected


def test_exponent_index_cap_admits_its_edge(capsys):
    code, out, _ = run(capsys, "exponent", "--k", "1", "--n",
                       f"{cli.LEVEL_CAP - 1}..{cli.LEVEL_CAP}")
    assert code == 0 and json.loads(out)["agrees"] is True


@pytest.mark.parametrize("k, bits", [(10**200, 1328), (10**400, 1329)],
                         ids=["k-1e200", "k-1e400"])
def test_exponent_past_the_float_range_is_exit_two(k, bits, capsys):
    """Both k pass the level cap, but the floats the exponent prints cannot
    hold them: at 10^200 the closed form's k^2 + 4 overflows, and at 10^400
    the bracket itself does first."""
    code, out, err = run(capsys, "exponent", "--k", str(k), "--n", "2..3")
    assert (code, out) == (2, "")
    assert err == (f"error: k is too large for a float exponent: a value near "
                   f"2^{bits} is past the float range\n")


def test_traced_names_exist():
    """Every function the benchmark tracer wraps is still defined where it looks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for kinds in (traced.TIMED, traced.COUNTED):
        for module, names in kinds.items():
            mod = importlib.import_module(f"sturmlab.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_rows_reduce_deltas_and_bounds_at_most_once(monkeypatch, capsys):
    """A formula3 row reduces its enclosure and builds its bounds once; other
    rows never."""
    from sturmlab.approximants import ApproximantRecord

    calls = {"deltas": 0, "bounds": 0}
    deltas, error_bounds = ApproximantRecord.deltas, approximants.error_bounds

    def counted_deltas(self):
        calls["deltas"] += 1
        return deltas(self)

    def counted_bounds(k, n, b):
        calls["bounds"] += 1
        return error_bounds(k, n, b)

    monkeypatch.setattr(ApproximantRecord, "deltas", counted_deltas)
    monkeypatch.setattr(approximants, "error_bounds", counted_bounds)
    for lemma, rows in (("formula3", 4), ("constants", 0), ("growth", 0)):
        calls.update(deltas=0, bounds=0)
        code, out, _ = run(capsys, "verify", "--lemma", lemma, "--k", "1..2",
                           "--b", "2", "--n", "2,3")
        assert code == 0 and out.count("\tPASS\t") == 4
        assert calls == {"deltas": rows, "bounds": rows}, lemma


def test_only_formula3_builds_approximants(monkeypatch, capsys):
    """constants decides its gap bound by the scaled sign test, so its sweep
    builds no approximant; formula3 builds one per dense cell."""
    calls = []
    approximant = approximants.approximant

    def counted(k, n, b):
        calls.append((k, n, b))
        return approximant(k, n, b)

    monkeypatch.setattr(approximants, "approximant", counted)
    code, out, _ = run(capsys, "verify", "--lemma", "constants", "--k", "1..3",
                       "--b", "2,3,10", "--n", "2..15")
    assert code == 0 and out.count("\tPASS\t") == 126
    assert calls == []
    code, out, _ = run(capsys, "verify", "--lemma", "formula3", "--k", "1..2",
                       "--b", "2,3", "--n", "2..4")
    assert code == 0 and out.count("route=dense") == 12
    assert sorted(calls) == [(k, n, b) for k in (1, 2) for n in (2, 3, 4) for b in (2, 3)]
