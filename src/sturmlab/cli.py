"""Command-line driver: generate prefixes, verify identities, estimate exponents.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error or an
input past a resource cap, 3 insufficient precision to decide.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import math
import sys
import warnings
from types import ModuleType
from typing import NamedTuple, Sequence

from .access import mismatch, symbol_at
from .errors import CapExceededError, IndecisiveEnclosureError, InsufficientPrecisionError
from .numeration import (
    _require_sweep_bound,
    from_digits,
    get_basis,
    is_regular,
    normalize,
    regular_vectors,
    to_digits,
)
from .words import fixed_point_prefix, word_identities


def _on_first_use(name: str) -> ModuleType:
    """``sturmlab.<name>``, entered in ``sys.modules`` now and run on first attribute read.

    A request runs one command, and most commands read none of the modules
    bound this way, so a request compiles and runs only the ones it uses.
    Each is still in ``sys.modules`` as soon as ``sturmlab.cli`` is
    imported, where ``perfbench/traced_cli.py`` finds the functions it wraps.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


approximants = _on_first_use("approximants")
exponent = _on_first_use("exponent")
transforms = _on_first_use("transforms")


class LemmaSpec(NamedTuple):
    """How one sweep entry expands: ``_check_<lemma>(*cell, *params)`` per grid cell."""

    axes: tuple[str, ...]          # grid axes, a subset of ("k", "b", "n") in that order
    params: tuple[str, ...] = ()   # scalar entry fields passed after the axis values
    n: str = "2..10"               # --n default
    depth: int = 200               # --depth default


LEMMA_TABLE = {
    # defining word identities
    "lemma1": LemmaSpec(("k", "n")),
    # logarithmic random access vs. generated prefix
    "lemma2": LemmaSpec(("k",), ("imax",)),
    # numeration round-trip, uniqueness, normalization
    "lemma3": LemmaSpec(("k",), ("imax", "seed", "cases")),
    # shift-mismatch law vs. direct comparison
    "lemma4": LemmaSpec(("k", "n"), ("imax",), n="0..12"),
    # two-sided approximant error bounds
    "formula3": LemmaSpec(("k", "b", "n"), n="2..12"),
    # next-error growth law
    "growth": LemmaSpec(("k", "b", "n")),
    # error sandwiched between c1/q^(1+theta) and c2/q^(1+theta)
    "constants": LemmaSpec(("k", "b", "n")),
    # coded-pair value identity
    "affine": LemmaSpec(("k", "b"), ("depth",)),
    # difference-operator block determinism; n is the difference order
    "blocks": LemmaSpec(("k", "n"), ("imax",), n="1..8"),
    # golden rotation power-sum affine probe
    "sba": LemmaSpec(("b",), ("depth",), depth=400),
}

LEMMAS = tuple(LEMMA_TABLE)

TSV_COLUMNS = ("lemma", "k", "b", "n", "status", "detail")

# Grid cells one sweep, all its entries together, may expand to; a larger
# sweep is refused before any cell is built.
PLAN_CAP = 1_000_000

# Largest `exponent --n` upper end, in units of k's bit length.  The sandwich
# builds f_0 .. f_{n_max+1}, of about n*bits(k) bits each, and one exact
# ratio per index, so its cost is set by n_max * bits(k); k = 1 at the cap
# takes about 1 s (2 vCPUs, CPython 3.11), the worst case measured.
SANDWICH_CAP = 10_000

Row = dict[str, str]
# (sort key, lemma, (k, b, n) with None for a missing axis, arguments of _check_<lemma>)
Task = tuple[tuple, str, tuple, tuple]


class UsageError(ValueError):
    """Bad flag values detected after argparse; mapped to exit code 2."""


def parse_range(text: str) -> Sequence[int]:
    """Accept "A..B" (inclusive, as a ``range``), "A,B,C", or a single "A"."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise UsageError(f"empty range {text!r}")
            return range(lo, hi + 1)
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"cannot parse range {text!r}") from None


def _fmt(value) -> str:
    from fractions import Fraction

    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _row(lemma: str, coords: tuple, ok: bool, detail: str) -> Row:
    """One table row; ``coords`` holds k, b, n, with None for an axis the lemma lacks."""
    k, b, n = ("-" if v is None else str(v) for v in coords)
    return {
        "lemma": lemma,
        "k": k,
        "b": b,
        "n": n,
        "status": "PASS" if ok else "FAIL",
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# Per-lemma check bodies.  Each returns (ok, detail) for one grid cell.

def _check_lemma1(k: int, n: int) -> tuple[bool, str]:
    id1, id2 = word_identities(k, n)
    detail = f"concat_swap={id1};expansion={id2}"
    return id1 and id2, detail


def _check_lemma2(k: int, imax: int) -> tuple[bool, str]:
    sym = fixed_point_prefix(k, imax).symbols
    bad = sum(1 for i in range(imax) if symbol_at(k, i) != sym[i])
    return bad == 0, f"checked={imax};disagreements={bad}"


def _check_lemma3(k: int, imax: int, seed: int, cases: int) -> tuple[bool, str]:
    import random

    problems: list[str] = []
    # The cap on imax stops the sweep before any value is digitised.
    _require_sweep_bound(imax)
    # The walk reaches every vector that obeys the digit rule and is worth
    # less than imax, so uniqueness holds exactly when its values come out
    # as 0, 1, ..., imax - 1.  Each walked vector is regular and valued by
    # construction, so the round trip is to_digits reproducing it.
    walked = 0
    unique = False
    for value, digits in regular_vectors(k, imax):
        if value != walked:
            break
        if not problems and to_digits(k, value) != digits:
            problems.append(f"roundtrip@{value}")
        walked += 1
    else:
        unique = walked == imax
    if not unique:
        problems.append("uniqueness")
    rng = random.Random((seed * 1000003) ^ k)
    for _ in range(cases):
        raw = [rng.randint(0, k) for _ in range(rng.randint(0, 20))]
        nd = normalize(k, raw)
        if from_digits(k, nd) != from_digits(k, raw):
            problems.append("normalize-value")
            break
        if not is_regular(k, nd):
            problems.append("normalize-regular")
            break
        if normalize(k, nd) != nd:
            problems.append("normalize-idempotent")
            break
        violations = [
            i for i in range(len(raw) - 1) if raw[i + 1] == k and raw[i] != 0
        ]
        # nd has no trailing zeros: pad it to raw's length to compare digits.
        padded = nd + (0,) * (len(raw) - len(nd))
        if violations:
            vmin = min(violations)
            if padded[:vmin] != tuple(raw[:vmin]):
                problems.append("normalize-low-index")
                break
        elif padded != tuple(raw):
            problems.append("normalize-identity")
            break
    detail = f"roundtrip<{imax};uniqueness<{imax};cases={cases}"
    if problems:
        detail += ";failed=" + ",".join(problems)
    return not problems, detail


def _check_lemma4(k: int, n: int, imax: int) -> tuple[bool, str]:
    fn = get_basis(k).value(n)
    fn1 = get_basis(k).value(n + 1)
    sym = fixed_point_prefix(k, imax + fn).symbols
    bad = 0
    first_scanned = None
    for i in range(imax):
        direct = sym[i + fn] - sym[i]
        verdict = mismatch(k, i, n)
        if verdict.differs != (direct != 0) or verdict.sign != direct:
            bad += 1
        if direct != 0 and first_scanned is None:
            first_scanned = i
    # Window cleanliness: the first mismatch must sit at f_{n+1}-2, just past
    # the window 0..f_{n+1}-3.  When the window extends beyond the scan, the
    # congruence form guarantees no verdict can fire below f_{n+1}-2.
    edge = fn1 - 2
    window_ok = mismatch(k, edge, n).differs
    if first_scanned is not None:
        window_ok = window_ok and first_scanned >= min(edge, imax)
    detail = f"scanned={imax};verdict_errors={bad};first_mismatch_at={edge}"
    return bad == 0 and window_ok, detail


def _check_formula3(k: int, b: int, n: int) -> tuple[bool, str]:
    chk = approximants.check_error_bounds_auto(k, n, b)
    detail = f"route={chk.route};lower_ok={chk.lower_ok};upper_ok={chk.upper_ok}"
    if chk.record is not None:
        lower, upper = chk.bounds()
        delta_lo, delta_hi = chk.record.deltas()
        detail += f";lower={_fmt(lower)};upper={_fmt(upper)}"
        detail += f";delta_lo={_fmt(delta_lo)};delta_hi={_fmt(delta_hi)}"
    return chk.holds, detail


def _check_growth(k: int, b: int, n: int) -> tuple[bool, str]:
    ok = approximants.growth_law_holds(k, b, n)
    return ok, "next_error*b^2*q_n^theta<1=" + str(ok)


def _check_constants(k: int, b: int, n: int) -> tuple[bool, str]:
    ok = approximants.bound_constants_hold(k, b, n)
    return ok, f"c1=(b-1)/b^2;c2=b^2;holds={ok}"


def _check_affine(k: int, b: int, depth: int) -> tuple[bool, str]:
    u = fixed_point_prefix(k, depth + 1)
    rep = transforms.value_affine_relation(u, transforms.default_pair_coding(), b, depth)
    detail = (
        f"a0={_fmt(rep.a0)};a1={_fmt(rep.a1)};a2={_fmt(rep.a2)}"
        f";gap_bound={_fmt(rep.gap_bound)}"
    )
    return rep.consistent, detail


def _check_blocks(k: int, order: int, imax: int) -> tuple[bool, str]:
    prefix = fixed_point_prefix(k, imax)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        count, _table = transforms.block_determinism(prefix, order)
    ok = count == order + 2
    return ok, f"blocks={count};expected={order + 2}"


def _check_sba(b: int, depth: int) -> tuple[bool, str]:
    rep = transforms.rotation_sum_relation(b, depth)
    c1, c2 = rep.shifted_pair if rep.matching == "index_shifted" else rep.direct_pair
    detail = (
        f"matching={rep.matching};c1={_fmt(c1)};c2={_fmt(c2)}"
        f";residual<={_fmt(rep.residual_bound)}"
    )
    return True, detail


def _int_field(entry: dict, name: str, default: int) -> int:
    value = entry.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _span(values: Sequence[int]) -> int:
    """Number of values in a ``parse_range`` result, without expanding it.

    ``len()`` of a range fails past ``sys.maxsize``, so a range is sized
    from its ends.
    """
    return values.stop - values.start if isinstance(values, range) else len(values)


def _grid(entry) -> tuple[str, list[Sequence[int]], tuple]:
    """Validate one sweep definition: its lemma, grid axes and check parameters."""
    if not isinstance(entry, dict):
        raise UsageError(f"each sweep definition must be a JSON object, got {entry!r}")
    lemma = entry.get("lemma")
    if lemma not in LEMMAS:
        raise UsageError(f"unknown lemma {lemma!r}; choose from {', '.join(LEMMAS)}")
    spec = LEMMA_TABLE[lemma]
    grid = {
        "k": parse_range(str(entry.get("k", "1"))),
        "b": parse_range(str(entry.get("b", "2"))),
        "n": parse_range(str(entry.get("n", spec.n))),
    }
    defaults = {"imax": 10000, "depth": spec.depth, "seed": 0, "cases": 1000}
    scalars = {name: _int_field(entry, name, value) for name, value in defaults.items()}
    if scalars["imax"] < 1 or scalars["depth"] < 1 or scalars["cases"] < 1:
        raise UsageError("imax, depth, and cases must be >= 1")
    params = tuple(scalars[p] for p in spec.params)
    return lemma, [grid[axis] for axis in spec.axes], params


def _plan(entries: list) -> list[Task]:
    """Expand sweep definitions into one task per grid cell.

    Every entry is validated, and the cells of all of them are summed
    against ``PLAN_CAP``, before any grid is expanded.
    """
    grids = [_grid(entry) for entry in entries]
    cells = sum(math.prod(map(_span, axes)) for _, axes, _ in grids)
    if cells > PLAN_CAP:
        raise CapExceededError(f"sweep exceeds the cap of {PLAN_CAP:_} grid cells")
    tasks: list[Task] = []
    for lemma, axes, params in grids:
        names = LEMMA_TABLE[lemma].axes
        for cell in itertools.product(*axes):
            at = dict(zip(names, cell))
            coords = tuple(at.get(axis) for axis in ("k", "b", "n"))
            key = (lemma, *(-1 if v is None else v for v in coords))
            tasks.append((key, lemma, coords, cell + params))
    return tasks


def _emit_table(rows: list[Row], fmt: str, out) -> None:
    if fmt == "json":
        import json

        all_pass = all(r["status"] == "PASS" for r in rows)
        doc = {"schema": 1, "command": "verify", "rows": rows, "all_pass": all_pass}
        print(json.dumps(doc, indent=2), file=out)
    else:
        print("\t".join(TSV_COLUMNS), file=out)
        for r in rows:
            print("\t".join(r[c] for c in TSV_COLUMNS), file=out)


def cmd_generate(args) -> int:
    w = fixed_point_prefix(args.k, args.length)
    if args.transform:
        spec_text = args.transform
        if spec_text.startswith("diff:"):
            w = transforms.difference(w, int(spec_text.split(":", 1)[1]))
        elif spec_text == "diff":
            w = transforms.difference(w, 1)
        elif spec_text == "pairs":
            w = transforms.shift_product(w, transforms.default_pair_coding())
        else:
            raise UsageError(
                f"unknown transform {spec_text!r}; use diff, diff:N, or pairs"
            )
    print(w.to_string())
    return 0


def cmd_verify(args) -> int:
    entries: list[dict]
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, list):
            raise UsageError("--json config must hold a list of sweep objects")
        entries = loaded
    else:
        if not args.lemma:
            raise UsageError("either --lemma or --json is required")
        entry = {"lemma": args.lemma}
        for field in ("k", "b", "n", "imax", "depth", "seed", "cases"):
            value = getattr(args, field)
            if value is not None:
                entry[field] = value
        entries = [entry]
    tasks = _plan(entries)
    tasks.sort(key=lambda task: task[0])
    rows = [
        # Looked up per call, so a patched module attribute takes effect.
        _row(lemma, coords, *globals()[f"_check_{lemma}"](*check_args))
        for _, lemma, coords, check_args in tasks
    ]
    _emit_table(rows, args.format, sys.stdout)
    return 0 if all(r["status"] == "PASS" for r in rows) else 1


def cmd_exponent(args) -> int:
    n_values = parse_range(args.n)
    if n_values[-1] * args.k.bit_length() > SANDWICH_CAP:
        raise CapExceededError(
            f"--n ends past the cap: n_max * bits(k) is limited to {SANDWICH_CAP:_}"
        )
    if _span(n_values) < 2:
        raise UsageError("--n must span at least two indices, e.g. 30..40")
    target = exponent.closed_form_exponent(args.k)
    est = exponent.exponent_sandwich(args.k, n_values[0], n_values[-1])
    cf = None
    if args.digits is not None:
        cf = exponent.empirical_exponent(args.k, args.b, args.digits)
    agrees = est.lower <= target <= est.upper and (
        cf is None or abs(cf - target) <= args.tol
    )
    doc = {
        "schema": 1,
        "k": str(args.k),
        "b": str(args.b),
        "target": target,
        "lower": est.lower,
        "upper": est.upper,
        "cf_empirical": cf,
        "n_range": args.n,
        "digits": None if args.digits is None else str(args.digits),
        "tol": args.tol,
        "agrees": agrees,
    }
    if args.format == "tsv":
        for name, value in doc.items():
            print(f"{name}\t{value}")
    else:
        import json

        print(json.dumps(doc, indent=2))
    return 0 if agrees else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmlab",
        description="Generate substitution fixed points and verify their "
        "Diophantine approximation identities with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="print a prefix of the fixed point")
    g.add_argument("--k", type=int, default=1, help="substitution parameter (>= 1)")
    g.add_argument("--len", dest="length", type=int, required=True,
                   help="number of symbols to emit")
    g.add_argument("--transform", default=None,
                   help="optional post-transform: diff, diff:N, or pairs")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser(
        "verify",
        help="run a verification sweep and print a PASS/FAIL table",
        epilog="TSV columns: lemma, k, b, n, status, detail.  Inapplicable "
        "columns hold '-'.  detail packs exact bound values as "
        "semicolon-joined key=value pairs with rationals as num/den.",
    )
    v.add_argument("--lemma", choices=LEMMAS, help="which check family to run")
    v.add_argument("--k", help="k values: A, A..B, or A,B,C (default 1)")
    v.add_argument("--b", help="base values: A, A..B, or A,B,C (default 2)")
    v.add_argument("--n", help="index range: A, A..B, or A,B,C")
    v.add_argument("--imax", type=int, help="scan bound for indexed sweeps")
    v.add_argument("--depth", type=int, help="series depth for value identities")
    v.add_argument("--seed", type=int, help="seed for randomized sweeps")
    v.add_argument("--cases", type=int, help="randomized case count")
    v.add_argument("--jobs", type=int, default=4,
                   help="accepted and ignored; checks run serially")
    v.add_argument("--format", choices=("tsv", "json"), default="tsv")
    v.add_argument("--json", dest="config", metavar="FILE",
                   help="JSON file with a list of sweep definitions")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("exponent", help="sandwich and empirical exponent estimates")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--b", type=int, default=2)
    e.add_argument("--digits", type=int, default=None,
                   help="series digits for the continued-fraction estimate")
    e.add_argument("--n", default="30..40", help="ratio index range for the sandwich")
    e.add_argument("--tol", type=float, default=0.05,
                   help="allowed |empirical - target| disagreement")
    e.add_argument("--format", choices=("tsv", "json"), default="json")
    e.set_defaults(func=cmd_exponent)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Rows carry exact values; arbitrarily long decimal strings are the point.
    # The limit found on entry is restored for whoever runs after this call.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (UsageError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InsufficientPrecisionError, IndecisiveEnclosureError) as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
