import hashlib
import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from sturmlab import cli, numeration, transforms


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
], ids=["imax-null", "depth-list", "cases-infinity"])
def test_verify_json_entry_field_of_wrong_type(config, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--json", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "integer" in err


@pytest.mark.parametrize("argv", [
    ("--lemma", "lemma1", "--k", "3", "--n", "14"),
    ("--lemma", "lemma2", "--k", "1", "--imax", "200000000"),
    ("--lemma", "growth", "--n", "0..1000000000000000000"),
], ids=["lemma1-length", "lemma2-imax", "grid-cells"])
def test_verify_cap_exceeded_is_exit_two(argv, capsys):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


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
    def digitised(k, n):
        raise AssertionError("round trip ran before the cap check")

    monkeypatch.setattr(cli, "to_digits", digitised)
    code, out, err = run(capsys, "verify", "--lemma", "lemma3", "--k", "1",
                         "--imax", "5000001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def _digits_wrong_at(bad):
    """to_digits, except that it returns the vector of bad + 1 at bad."""
    real = cli.to_digits

    def digits(k, n):
        return real(k, n + 1 if n == bad else n)

    return digits


def _skipping_walk(k, bound):
    for value, digits in numeration.regular_vectors(k, bound):
        if value != 70:
            yield value, digits


def _repeating_walk(k, bound):
    for value, digits in numeration.regular_vectors(k, bound):
        yield value, digits
        if value == 70:
            yield value, digits


def _replacing_walk(k, bound):
    """Repeats 70 in place of 71, so the count of vectors stays right."""
    for value, digits in numeration.regular_vectors(k, bound):
        if value == 70:
            twice = digits
        yield (70, twice) if value == 71 else (value, digits)


def _stopping_walk(k, bound):
    for value, digits in numeration.regular_vectors(k, bound):
        if value == bound - 1:
            return
        yield value, digits


WALK_FAULTS = pytest.mark.parametrize(
    "walk", [_skipping_walk, _repeating_walk, _replacing_walk, _stopping_walk],
    ids=["skip", "repeat", "replace", "stop-early"])


def _lemma3_detail(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "lemma3", "--k", "1..2",
                       "--imax", "200", "--cases", "20")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert code == 1 and [row[4] for row in rows] == ["FAIL", "FAIL"]
    return {row[5] for row in rows}


def test_verify_lemma3_reports_round_trip_fault(monkeypatch, capsys):
    monkeypatch.setattr(cli, "to_digits", _digits_wrong_at(37))
    assert _lemma3_detail(capsys) == {
        "roundtrip<200;uniqueness<200;cases=20;failed=roundtrip@37"
    }


@WALK_FAULTS
def test_verify_lemma3_reports_walk_fault(walk, monkeypatch, capsys):
    monkeypatch.setattr(cli, "regular_vectors", walk)
    assert _lemma3_detail(capsys) == {
        "roundtrip<200;uniqueness<200;cases=20;failed=uniqueness"
    }


@WALK_FAULTS
def test_verify_lemma3_decides_uniqueness_after_round_trip_fault(walk, monkeypatch, capsys):
    monkeypatch.setattr(cli, "to_digits", _digits_wrong_at(37))
    monkeypatch.setattr(cli, "regular_vectors", walk)
    assert _lemma3_detail(capsys) == {
        "roundtrip<200;uniqueness<200;cases=20;failed=roundtrip@37,uniqueness"
    }


def test_verify_sba_cap_precedes_power_sum(monkeypatch, capsys):
    """A depth past the cap is refused before any term of the power sum is built."""
    def summed(*args):
        raise AssertionError("power sum ran before the cap check")

    monkeypatch.setattr(transforms, "floor_golden", summed)
    monkeypatch.setattr(transforms, "word_value", summed)
    code, out, err = run(capsys, "verify", "--lemma", "sba", "--b", "2",
                         "--depth", "1000001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


# A config whose sweeps arrive out of key order and lean on the per-lemma
# defaults of --n and --depth.
PINNED_CONFIG = [
    {"lemma": "sba", "b": "2"},
    {"lemma": "lemma4", "k": "2", "imax": 100},
    {"lemma": "blocks", "k": "1", "imax": 300},
    {"lemma": "affine", "k": "1", "b": "3"},
    {"lemma": "lemma1", "k": "2"},
    {"lemma": "growth", "k": "1"},
    {"lemma": "constants", "k": "1", "b": "3"},
    {"lemma": "formula3"},
    {"lemma": "lemma2", "k": "3"},
    {"lemma": "lemma3", "k": "1", "imax": 100, "cases": 20},
]

# verify stdout as (sha256, bytes), recorded before the lemma table replaced
# the per-lemma planning code and the thread pool.
PINNED = [
    pytest.param(("--lemma", "lemma1", "--k", "1..2", "--n", "2..5"),
                 "5a57f5fc5c2c368ca5f0103163fac51f014b12fe0d6f586ca5e00452ac32384c", 426,
                 id="lemma1"),
    pytest.param(("--lemma", "lemma2", "--k", "1..2", "--imax", "500"),
                 "5ab6ddda0d4027559616ed99143d799d8b2afaa0aa1aaa899010778d6ed0336f", 118,
                 id="lemma2"),
    pytest.param(("--lemma", "lemma3", "--k", "1..2", "--imax", "200", "--seed", "3",
                  "--cases", "50"),
                 "ebe39567a9d675ffb61272ea4664ee2fd044f1c04c29544d49a6c917482a5c86", 138,
                 id="lemma3"),
    pytest.param(("--lemma", "lemma4", "--k", "1..2", "--n", "0..4", "--imax", "200"),
                 "090f387547a2841678288e2be982ac50ca0f38f9c6730f25f3f7d47b14706cf7", 700,
                 id="lemma4"),
    pytest.param(("--lemma", "formula3", "--k", "1", "--b", "2,3", "--n", "2..6"),
                 "0556e1e9ec0ff0356d91c51d0ef2e2279d107ce0239efa8f094f1ef9ae1e674c", 2213,
                 id="formula3"),
    pytest.param(("--lemma", "growth", "--k", "1..2", "--b", "2", "--n", "2..5"),
                 "82236e65d09b3b3f656ca234e8b9225b87f5665344493623a26b117ed8335720", 426,
                 id="growth"),
    pytest.param(("--lemma", "constants", "--k", "1", "--b", "2,10", "--n", "2..5"),
                 "90d67eb9017800aad0e109f043bc6f89244cc373ce08c1a351044c637f155f3c", 446,
                 id="constants"),
    pytest.param(("--lemma", "affine", "--k", "1..2", "--b", "2", "--depth", "60"),
                 "7d270076e37109d496591409d8299e79a119bc92d0bb7ac4a02d457a52720eb5", 165,
                 id="affine"),
    pytest.param(("--lemma", "blocks", "--k", "1..2", "--n", "1..3", "--imax", "300"),
                 "15bfd9b2a2940898ca177c5af3f733213387859664922e3247a2aa68ff062d3c", 254,
                 id="blocks"),
    pytest.param(("--lemma", "sba", "--b", "2,3", "--depth", "80"),
                 "c63064941eb64bd601fdaa0dd646b569221cd3eede1004378bd4f0e251649d65", 222,
                 id="sba"),
    pytest.param(("--lemma", "formula3", "--k", "2", "--b", "3", "--n", "2..4",
                  "--format", "json"),
                 "9b00305a2ec7520e67d6e52f331e81aeee1e4466dc63bc85c0b9594aa7e6242e", 2049,
                 id="formula3-json"),
    pytest.param(("--json", PINNED_CONFIG),
                 "80ad56c95181eeb0ecce2a740d6053a24095b92ea15801d52f65c148a058a80e", 13163,
                 id="config"),
    # Recorded before the growth and constant laws were decided by Bernoulli's
    # inequality with an exact fallback.
    pytest.param(("--lemma", "growth", "--k", "1..4", "--b", "2,3,10,1099511627776",
                  "--n", "1..40"),
                 "56c64c0862fb63dcf4dfe7328093ea0b2df4b760fc9bb1f82c2cd072396b5989", 34602,
                 id="growth-wide"),
    pytest.param(("--lemma", "constants", "--k", "1..3", "--b", "2,1099511627776",
                  "--n", "1..24"),
                 "bcb2cd1610951f9c4e09534f147be2d77920326bb50ec0a03df28baf00d56747", 8468,
                 id="constants-wide"),
]


@pytest.mark.parametrize("argv, sha256, size", PINNED)
def test_verify_stdout_pinned(argv, sha256, size, tmp_path, capsys):
    if argv[0] == "--json":
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(argv[1]))
        argv = ("--json", str(cfg))
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


def test_pinned_cases_cover_every_lemma():
    single = {p.values[0][1] for p in PINNED if p.values[0][0] == "--lemma"}
    assert single == set(cli.LEMMAS)


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


def test_exponent_stdout_pinned(capsys):
    # sha256 and byte count recorded before the expansion stopped at the
    # trust bound.
    code, out, _ = run(capsys, "exponent", "--k", "2", "--b", "2", "--digits", "2000")
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "54b7f44edf421032483fdb9e2fe695b9afb1a862b010e7cc435a4d1cfbeb16ad", 247)


def test_exponent_tight_tolerance_fails(capsys):
    code, out, _ = run(capsys, "exponent", "--k", "1", "--b", "2",
                       "--digits", "600", "--tol", "0.0001")
    assert code == 1
    assert json.loads(out)["agrees"] is False


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
    (f"2..{cli.SANDWICH_CAP + 1}", 1),
    ("2..300", 2**40),
], ids=["range-1e20", "range-1e18", "list-1e20", "cap-plus-one", "k-2^40"])
def test_exponent_index_cap_is_exit_two(n_range, k, capsys):
    """The sandwich's top index is sized from the --n ends before any ratio is built."""
    code, out, err = run(capsys, "exponent", "--k", str(k), "--n", n_range)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_exponent_index_cap_admits_its_edge(capsys):
    code, out, _ = run(capsys, "exponent", "--k", "1", "--n",
                       f"{cli.SANDWICH_CAP - 1}..{cli.SANDWICH_CAP}")
    assert code == 0 and json.loads(out)["agrees"] is True


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
    """A formula3 row reduces its enclosure and bounds once; other rows never."""
    from sturmlab.approximants import ApproximantRecord, BoundsCheck

    calls = {"deltas": 0, "bounds": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self):
            calls[name] += 1
            return method(self)

        monkeypatch.setattr(cls, name, wrapper)

    counted(ApproximantRecord, "deltas")
    counted(BoundsCheck, "bounds")
    for lemma, rows in (("formula3", 4), ("constants", 0), ("growth", 0)):
        calls.update(deltas=0, bounds=0)
        code, out, _ = run(capsys, "verify", "--lemma", lemma, "--k", "1..2",
                           "--b", "2", "--n", "2,3")
        assert code == 0 and out.count("\tPASS\t") == 4
        assert calls == {"deltas": rows, "bounds": rows}, lemma
