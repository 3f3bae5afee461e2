"""The package surface, its records, and what a fresh CLI process imports."""

import doctest
import importlib
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sturmlab
from sturmlab import cli
from sturmlab.approximants import BoundsCheck

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(sturmlab.__file__).resolve().parents[1])

PUBLIC = [
    "ApproximantRecord", "Basis", "BoundsCheck",
    "CapExceededError", "ContinuedFraction",
    "ExponentEstimate", "IndecisiveEnclosureError",
    "InsufficientPrecisionError", "MismatchVerdict", "RotationSumReport",
    "SeriesTruncation", "ValueRelationReport",
    "approximant", "block_determinism",
    "bound_constants_hold", "check_error_bounds", "check_error_bounds_auto",
    "closed_form_exponent", "continued_fraction", "default_depth",
    "difference", "difference_by_binomial",
    "distinct_factors", "empirical_exponent", "error_bounds",
    "exponent_sandwich", "exponent_upper_bound", "fixed_point_prefix",
    "fixed_point_series", "floor_golden", "from_digits", "get_basis",
    "growth_law_holds", "is_regular", "mismatch",
    "normalize",
    "rotation_sum_relation", "scaled_error_bounds_hold", "series_truncation",
    "shift_product", "substitute", "symbol_at", "to_digits",
    "to_string", "uniqueness_oracle", "value_affine_relation", "word_identities", "word_value",
]


def python(*args):
    """Run a fresh interpreter without site imports, on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)


# ---------------------------------------------------------------------------
# Public surface.

def test_all_is_the_export_table():
    assert sturmlab.__all__ == sorted(sturmlab._EXPORTS) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_export_resolves_to_its_defining_module(name):
    module = importlib.import_module(f"sturmlab.{sturmlab._EXPORTS[name]}")
    assert getattr(sturmlab, name) is getattr(module, name)
    assert name in dir(sturmlab)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from sturmlab import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["approximant"] is sturmlab.approximants.approximant


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sturmlab.no_such_name


def test_readme_quick_tour_runs_as_doctest():
    """The README's ```python block is a doctest session, and every example passes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.M | re.S).group(1)
    tour = doctest.DocTestParser().get_doctest(block, {}, "quick tour", "README.md", 0)
    result = doctest.DocTestRunner().run(tour)
    assert result == (0, 10)


# ---------------------------------------------------------------------------
# Records: immutable, compared and hashed by value.

def _records():
    """Two independently built instances of every public record type."""
    from sturmlab import transforms as t

    u = sturmlab.fixed_point_prefix(1, 60)
    makers = {
        "MismatchVerdict": lambda: sturmlab.mismatch(1, 4, 2),
        "SeriesTruncation": lambda: sturmlab.fixed_point_series(1, 2, 40),
        "ApproximantRecord": lambda: sturmlab.approximant(1, 3, 2),
        "BoundsCheck": lambda: sturmlab.check_error_bounds_auto(1, 3, 2),
        "ExponentEstimate": lambda: sturmlab.exponent_sandwich(1, 5),
        "ContinuedFraction": lambda: sturmlab.continued_fraction(Fraction(355, 113)),
        "ValueRelationReport": lambda: t.value_affine_relation(u, 3, 40),
        "RotationSumReport": lambda: sturmlab.rotation_sum_relation(2, 60),
    }
    return {name: (make(), make()) for name, make in makers.items()}


RECORDS = _records()
UNHASHABLE = {"ContinuedFraction"}  # it holds lists


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_compares_by_value(name):
    one, two = RECORDS[name]
    assert type(one) is getattr(sturmlab, name)
    assert one == two == type(one)(*one)
    field = one._fields[0]
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(two, field))
    with pytest.raises(AttributeError):
        one.extra = 1
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)


def test_bounds_check_truth_follows_holds():
    chk, _ = RECORDS["BoundsCheck"]
    assert chk and chk.holds
    failed = chk._replace(holds=False, upper_ok=False)
    assert not failed
    assert BoundsCheck(1, 3, 2, True, True, True, "scaled").record is None


def test_reductions_are_methods():
    chk, _ = RECORDS["BoundsCheck"]
    rec = chk.record
    den = (rec.b - 1) * rec.b ** (rec.depth - 1) * rec.q
    assert rec.deltas() == (Fraction(rec.num_lo, den), Fraction(rec.num_hi, den))
    assert sturmlab.scaled_error_bounds_hold(1, 3, 2).record is None


# ---------------------------------------------------------------------------
# Start-up: a fresh process imports only what its command runs.

DEFERRED = {  # module -> a function its body defines
    "sturmlab.access": "symbol_at",
    "sturmlab.approximants": "approximant",
    "sturmlab.exponent": "exponent_sandwich",
    "sturmlab.numeration": "get_basis",
    "sturmlab.transforms": "rotation_sum_relation",
    "sturmlab.words": "fixed_point_prefix",
}

# A module entered for first use keeps an empty namespace, read here without
# an attribute lookup on it, until something reads from it.
RAN = f"""
def ran():
    return sorted(m for m, name in {DEFERRED!r}.items() if m in sys.modules
                  and name in object.__getattribute__(sys.modules[m], "__dict__"))
"""

STARTUP_PROBE = f"""
import sys
import sturmlab.cli
{RAN}
print(sorted(m for m in ("dataclasses", "fractions", "json") if m in sys.modules))
print(ran())
import sturmlab.transforms
sturmlab.transforms.difference
print(ran(), sturmlab.transforms is sturmlab.cli.transforms)
"""


def test_cli_import_runs_no_lemma_module():
    done = python("-c", STARTUP_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "[]",
        # transforms runs words and approximants only in the functions
        # that read them.
        "['sturmlab.transforms'] True",
    ]


REQUEST_PROBE = f"""
import contextlib, io, sys
import sturmlab.cli
{RAN}
with contextlib.redirect_stdout(io.StringIO()):
    code = sturmlab.cli.main(sys.argv[1:])
print(code, *ran(), *(m for m in ("fractions", "decimal") if m in sys.modules))
"""


@pytest.mark.parametrize("argv, ran", [
    (("generate", "--k", "2", "--len", "500"), ["sturmlab.words"]),
    (("generate", "--k", "1", "--len", "500", "--transform", "diff:3"),
     ["sturmlab.transforms", "sturmlab.words"]),
    (("verify", "--lemma", "blocks", "--k", "1..2", "--n", "1..9", "--imax", "2000"),
     ["sturmlab.transforms", "sturmlab.words"]),
    (("verify", "--lemma", "lemma1", "--k", "1..2", "--n", "2..6"),
     ["sturmlab.numeration", "sturmlab.words"]),
    (("verify", "--lemma", "lemma2", "--k", "1..2", "--imax", "300"),
     ["sturmlab.access", "sturmlab.numeration", "sturmlab.words"]),
    (("verify", "--lemma", "lemma3", "--k", "1..2", "--imax", "300", "--cases", "20"),
     ["sturmlab.numeration"]),
    (("verify", "--lemma", "lemma4", "--k", "1", "--n", "0..4", "--imax", "300"),
     ["sturmlab.access", "sturmlab.numeration", "sturmlab.words"]),
    (("verify", "--lemma", "formula3", "--k", "1..2", "--b", "2,3", "--n", "2..6"),
     ["sturmlab.approximants", "sturmlab.numeration", "sturmlab.words", "fractions", "decimal"]),
    (("verify", "--lemma", "formula3", "--b", "2,3,10,1099511627776", "--n", "22..40"),
     ["sturmlab.access", "sturmlab.approximants", "sturmlab.numeration"]),
    (("verify", "--lemma", "growth", "--k", "1..2", "--b", "2,3", "--n", "2..6"),
     ["sturmlab.approximants", "sturmlab.numeration"]),
    (("verify", "--lemma", "constants", "--k", "1..2", "--b", "2,3", "--n", "2..6"),
     ["sturmlab.access", "sturmlab.approximants", "sturmlab.numeration"]),
    (("verify", "--lemma", "affine", "--k", "1..2", "--b", "2,3"),
     ["sturmlab.approximants", "sturmlab.transforms", "sturmlab.words", "fractions", "decimal"]),
    (("verify", "--lemma", "sba", "--b", "2,3"),
     ["sturmlab.approximants", "sturmlab.transforms", "sturmlab.words", "fractions", "decimal"]),
    (("exponent", "--k", "1", "--digits", "300"),
     ["sturmlab.approximants", "sturmlab.exponent", "sturmlab.numeration", "sturmlab.words",
      "fractions", "decimal"]),
    (("exponent", "--k", "2", "--n", "5..9"),
     ["sturmlab.exponent", "sturmlab.numeration", "fractions", "decimal"]),
], ids=["generate", "generate-diff", "blocks", "lemma1", "lemma2", "lemma3", "lemma4",
        "formula3-dense", "formula3-scaled", "growth", "constants", "affine", "sba",
        "exponent-digits", "exponent-n"])
def test_fresh_request_runs_only_the_modules_its_command_reads(argv, ran):
    """A request executes the library modules its command reads, no other:
    ``generate`` and ``blocks`` run neither ``numeration`` nor ``access``, no
    ``lemma`` check runs ``approximants``, a scaled ``formula3`` cell builds
    no word, and ``fractions`` is imported only where a ``Fraction`` is
    built.  These lists are README's "modules run" table."""
    done = python("-c", REQUEST_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", *ran]


@pytest.mark.parametrize("argv", [
    ("generate", "--k", "1", "--len", "40", "--transform", "diff:3"),
    ("generate", "--k", "2", "--len", "40", "--transform", "pairs"),
    ("verify", "--lemma", "affine", "--k", "1..2", "--b", "2,3", "--format", "json"),
    ("verify", "--lemma", "formula3", "--k", "1", "--b", "2,3", "--n", "2..5"),
    ("verify", "--lemma", "constants", "--k", "2", "--b", "10", "--n", "2..6"),
    ("verify", "--lemma", "blocks", "--k", "1", "--n", "1..3", "--imax", "500"),
    ("verify", "--lemma", "lemma3", "--k", "2", "--imax", "300", "--cases", "20"),
    ("verify", "--json", "{config}"),
    ("exponent", "--k", "1", "--digits", "300", "--format", "tsv"),
    ("exponent", "--k", "2", "--n", "5..9"),
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--"))[:40])
def test_fresh_process_matches_in_process(argv, tmp_path, capsys):
    """Every path that imports on first use prints what the in-process run prints."""
    config = tmp_path / "sweep.json"
    config.write_text('[{"lemma": "sba", "b": "2,3"}, {"lemma": "growth", "b": "3"}]')
    argv = [str(config) if a == "{config}" else a for a in argv]
    done = python("-m", "sturmlab", *argv)
    code = cli.main(argv)
    out, _ = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert code == 0


def test_benchmark_tracer_times_modules_bound_on_first_use():
    """The tracer looks every module it times up in sys.modules right after
    importing the CLI, and each request here calls a function it wraps there."""
    marker = "@@perfbench-trace "
    timed_modules = runpy.run_path(str(ROOT / "perfbench" / "traced_cli.py"))["TIMED"]
    runs = [
        (("verify", "--lemma", "formula3", "--n", "2..4"),
         ("cli._check_formula3", "approximants.approximant")),
        (("verify", "--lemma", "blocks", "--imax", "300"),
         ("transforms.block_determinism", "words.fixed_point_prefix")),
        (("verify", "--lemma", "lemma3", "--imax", "300", "--cases", "20"),
         ("numeration.normalize",)),
        (("verify", "--lemma", "lemma4", "--n", "0..4", "--imax", "300"), ("access.mismatch",)),
        (("exponent", "--k", "1", "--digits", "300"), ("exponent.empirical_exponent",)),
    ]
    assert {t.partition(".")[0] for _, timed in runs for t in timed} == set(timed_modules)
    for argv, timed in runs:
        done = python(str(ROOT / "perfbench" / "traced_cli.py"), *argv)
        assert done.returncode == 0, done.stderr
        summary = [line for line in done.stderr.splitlines() if line.startswith(marker)]
        assert len(summary) == 1, argv
        for name in timed:
            assert f'"{name}": [' in summary[0], name


# ---------------------------------------------------------------------------
# Sibling reads: every module reads its siblings through the package's
# bindings when it calls them.

IMPORT_PROBE = """
import sys
import sturmlab

homes = sorted(set(sturmlab._EXPORTS.values()))


def ran():
    return [m for m in homes if any(
        name in object.__getattribute__(sys.modules[f"sturmlab.{m}"], "__dict__")
        for name, home in sturmlab._EXPORTS.items() if home == m)]


print([m for m in homes if sys.modules.get(f"sturmlab.{m}") is not vars(sturmlab).get(m, 0)])
print(ran())
sturmlab.to_digits
print(ran())
print(sturmlab.errors.CapExceededError is sturmlab.CapExceededError)
"""


def test_package_import_binds_every_module_unexecuted():
    done = python("-c", IMPORT_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",   # each module is in sys.modules and bound on the package
        "[]",   # and none has run
        # numeration runs, and errors, which it imports a name from.
        "['errors', 'numeration']",
        "True",
    ]


def test_siblings_are_read_at_call_time(monkeypatch):
    """``access`` reads ``numeration.regular_vectors`` when the scaled route
    calls it, so a patched walk reaches ``scaled_error_bounds_hold``."""
    from sturmlab import approximants, numeration

    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked

    monkeypatch.setattr(numeration, "regular_vectors", walk)
    with pytest.raises(Walked):
        approximants.scaled_error_bounds_hold(1, 5, 2)


THREAD_PROBE = """
import sys, threading
import sturmlab

sys.setswitchinterval(1e-6)
start = threading.Barrier(8)
got, failed = [], []


def first_read():
    start.wait()
    try:
        got.append(sturmlab.check_error_bounds_auto(1, 3, 2).holds)
    except Exception as exc:
        failed.append(repr(exc))


threads = [threading.Thread(target=first_read) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(sum(thread.is_alive() for thread in threads), got.count(True), failed)
"""


def test_concurrent_first_reads_wait_for_the_module_to_run():
    """Eight threads make the first read of a name, and each reads the
    siblings its module calls, at once: every read waits until the module
    it reads has run."""
    done = python("-c", THREAD_PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "8", "[]"]

