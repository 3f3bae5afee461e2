"""Command-line driver: generate prefixes, verify identities, estimate exponents.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error or an
input past a resource cap, 3 insufficient precision to decide.

The check bodies read names through the package's module bindings, which
run on first read (``numeration.normalize``), so a request runs only the
modules its command reads; all are in ``sys.modules`` once ``sturmlab.cli``
is imported, where ``perfbench/traced_cli.py`` finds what it wraps.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from operator import ne
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import access, approximants, exponent, numeration, transforms, words
from .errors import CapExceededError, IndecisiveEnclosureError, InsufficientPrecisionError

if TYPE_CHECKING:
    from fractions import Fraction


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

# Largest level n, in units of k's bit length, that `exponent --n` and the
# formula3, growth and constants cells take.  Each reads a few basis values
# near index n, of about n*bits(k) bits each, so its cost is set by
# n * bits(k): at k = 1 and the cap, the sandwich over 2..n takes about
# 0.02 s, and one of those cells about 0.001 s (2 vCPUs, CPython 3.11).
LEVEL_CAP = 10_000

Row = dict[str, str]
# (sort key, lemma, (k, b, n) with None for a missing axis, arguments of _check_<lemma>)
Task = tuple[tuple, str, tuple, tuple]


def parse_range(text: str) -> Sequence[int]:
    """Accept "A..B" (inclusive, as a ``range``), "A,B,C", or a single "A"."""
    text = text.strip()
    try:
        if ".." not in text:
            return [int(part) for part in text.split(",")]
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"cannot parse range {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


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
    id1, id2 = words.word_identities(k, n)
    detail = f"concat_swap={id1};expansion={id2}"
    return id1 and id2, detail


def _check_lemma2(k: int, imax: int) -> tuple[bool, str]:
    sym = words.fixed_point_prefix(k, imax)
    # The routes compare as two words in one C equality; disagreements are
    # counted only when they differ, a missing or extra symbol as one each.
    got = bytes(access.symbols_at(k, range(imax)))
    bad = 0 if got == sym else sum(map(ne, got, sym)) + abs(len(got) - len(sym))
    return bad == 0, f"checked={imax};disagreements={bad}"


def _check_lemma3(k: int, imax: int, seed: int, cases: int) -> tuple[bool, str]:
    import random

    problems: list[str] = []
    # The caps on imax and cases stop the check before any value is digitised.
    numeration._require_sweep_bound(imax)
    if cases > numeration.UNIQUENESS_CAP:
        raise CapExceededError(f"lemma3 cases are capped at {numeration.UNIQUENESS_CAP:_}")
    # Each walked vector is regular and valued by construction, so the round
    # trip is digit_vectors reproducing it.  The walked pairs and (i, digits
    # of i) for i < imax, each stream ended by None so that a walk of the
    # wrong length differs too, are compared in step by map and compress,
    # holding one vector of each.  The streams agree exactly when both the
    # round trip and uniqueness hold.
    def walked():
        return itertools.chain(numeration.regular_vectors(k, imax), (None,))

    own = itertools.chain(enumerate(numeration.digit_vectors(k, range(imax))), (None,))
    at = next(itertools.compress(itertools.count(), map(ne, walked(), own)), None)
    if at is not None:
        # Python only from the first difference: walk again to read it.  A
        # right value with wrong digits is a round-trip fault, and the
        # oracle decides uniqueness; any other difference is a walk fault.
        pair = next(itertools.islice(walked(), at, None))
        if at < imax and pair is not None and pair[0] == at:
            problems.append(f"roundtrip@{at}")
            if not numeration.uniqueness_oracle(k, imax):
                problems.append("uniqueness")
        else:
            problems.append("uniqueness")
    rng = random.Random((seed * 1000003) ^ k)
    for _ in range(cases):
        raw = [rng.randrange(k + 1) for _ in range(rng.randrange(21))]
        nd = numeration.normalize(k, raw)
        if numeration.from_digits(k, nd) != numeration.from_digits(k, raw):
            problems.append("normalize-value")
            break
        if not numeration.is_regular(k, nd):
            problems.append("normalize-regular")
            break
        if numeration.normalize(k, nd) != nd:
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
    # The scan reads a prefix longer than U_n: refuse n before f_n is built.
    words._require_level(k, n)
    basis = numeration.get_basis(k)
    fn, fn1 = basis.value(n), basis.value(n + 1)
    sym = words.fixed_point_prefix(k, imax + fn)
    # The direct verdict at i is read from the code 2*after[i] + before[i],
    # all codes built by one carry-free sum of big-endian integers, as the
    # records the kernel yields, so the two lists compare in one C equality,
    # mostly by identity; disagreements are counted only when they differ.
    after, before = sym[fn : fn + imax], sym[:imax]
    codes = (
        (int.from_bytes(after, "big") << 1) + int.from_bytes(before, "big")
    ).to_bytes(imax, "big")
    by_code = (access._SAME, access._DOWN, access._UP, access._SAME)
    direct = [by_code[c] for c in codes]
    got = list(access.mismatches(k, n, range(imax)))
    bad = 0 if got == direct else sum(map(ne, got, direct)) + abs(len(got) - len(direct))
    first_scanned = next(itertools.compress(itertools.count(), map(ne, after, before)), None)
    # Window cleanliness: the first mismatch must sit at f_{n+1}-2, just past
    # the window 0..f_{n+1}-3.  When the window extends beyond the scan, the
    # congruence form guarantees no verdict can fire below f_{n+1}-2.
    edge = fn1 - 2
    window_ok = access.mismatch(k, edge, n).differs
    if first_scanned is not None:
        window_ok = window_ok and first_scanned >= min(edge, imax)
    detail = f"scanned={imax};verdict_errors={bad};first_mismatch_at={edge}"
    return bad == 0 and window_ok, detail


def _require_level_cap(k: int, n: int) -> None:
    """Refuse a level past ``LEVEL_CAP`` before any basis value is built."""
    if n * k.bit_length() > LEVEL_CAP:
        raise CapExceededError(
            f"level {n} at k = {k} is past the cap: n * bits(k) is limited to {LEVEL_CAP:_}"
        )


def _check_formula3(k: int, b: int, n: int) -> tuple[bool, str]:
    _require_level_cap(k, n)
    chk = approximants.check_error_bounds_auto(k, n, b)
    detail = f"route={chk.route};lower_ok={chk.lower_ok};upper_ok={chk.upper_ok}"
    if chk.record is not None:
        lower, upper = approximants.error_bounds(k, n, b)
        delta_lo, delta_hi = chk.record.deltas()
        detail += f";lower={_fmt(lower)};upper={_fmt(upper)}"
        detail += f";delta_lo={_fmt(delta_lo)};delta_hi={_fmt(delta_hi)}"
    return chk.holds, detail


def _check_growth(k: int, b: int, n: int) -> tuple[bool, str]:
    _require_level_cap(k, n)
    ok = approximants.growth_law_holds(k, b, n)
    return ok, "next_error*b^2*q_n^theta<1=" + str(ok)


def _check_constants(k: int, b: int, n: int) -> tuple[bool, str]:
    _require_level_cap(k, n)
    ok = approximants.bound_constants_hold(k, b, n)
    return ok, f"c1=(b-1)/b^2;c2=b^2;holds={ok}"


def _check_affine(k: int, b: int, depth: int) -> tuple[bool, str]:
    u = words.fixed_point_prefix(k, depth + 1)
    rep = transforms.value_affine_relation(u, b, depth)
    law = ";".join(f"a{i}={a}/1" for i, a in enumerate(transforms._AFFINE_LAW))
    return rep.consistent, f"{law};gap_bound={_fmt(rep.gap_bound)}"


def _check_blocks(k: int, order: int, imax: int) -> tuple[bool, str]:
    prefix = words.fixed_point_prefix(k, imax)
    try:
        count, _blocks = transforms.block_determinism(prefix, order)
    except transforms._MaskDisagreement:
        return False, f"blocks=-;expected={order + 2};failed=mask"
    return count == order + 2, f"blocks={count};expected={order + 2}"


def _check_sba(b: int, depth: int) -> tuple[bool, str]:
    rep = transforms.rotation_sum_relation(b, depth)
    c1, c2 = rep.pair
    detail = (
        f"matching={rep.matching};c1={_fmt(c1)};c2={_fmt(c2)}"
        f";residual<={_fmt(rep.residual_bound)}"
    )
    return rep.matching == "index_shifted", detail


_SWEEP_KEYS = ("lemma", "k", "b", "n", "imax", "depth", "seed", "cases")


def _int_field(entry: dict, name: str, default: int) -> int:
    value = entry.get(name, default)
    # JSON true and 1.5 would pass int() as 1; an integer is written as one.
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _span(values: Sequence[int]) -> int:
    """Number of values in a ``parse_range`` result, without expanding it.

    ``len()`` of a range fails past ``sys.maxsize``, so a range is sized
    from its ends.
    """
    return values.stop - values.start if isinstance(values, range) else len(values)


def _grid(entry) -> tuple[str, list[Sequence[int]], tuple]:
    """Validate one sweep definition: its lemma, grid axes and check parameters."""
    if not isinstance(entry, dict):
        raise ValueError(f"each sweep definition must be a JSON object, got {entry!r}")
    unknown = [key for key in entry if key not in _SWEEP_KEYS]
    if unknown:
        raise ValueError(
            f"unknown sweep key {unknown[0]!r}; use {', '.join(_SWEEP_KEYS)}"
        )
    lemma = entry.get("lemma")
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}; choose from {', '.join(LEMMAS)}")
    spec = LEMMA_TABLE[lemma]
    grid = {
        "k": parse_range(str(entry.get("k", "1"))),
        "b": parse_range(str(entry.get("b", "2"))),
        "n": parse_range(str(entry.get("n", spec.n))),
    }
    defaults = {"imax": 10000, "depth": spec.depth, "seed": 0, "cases": 1000}
    scalars = {name: _int_field(entry, name, value) for name, value in defaults.items()}
    if scalars["imax"] < 1 or scalars["depth"] < 1 or scalars["cases"] < 1:
        raise ValueError("imax, depth, and cases must be >= 1")
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
    # The spec is parsed before the prefix is built, so a bad one is refused
    # at any --len; a range check that needs the word stays in transforms.
    spec = args.transform
    unknown = f"unknown transform {spec!r}; use diff, diff:N, or pairs"
    order = None  # a difference order; None is no transform, or pairs
    if spec == "diff":
        order = 1
    elif spec and spec != "pairs":
        if not spec.startswith("diff:"):
            raise ValueError(unknown)
        try:
            order = int(spec[5:])
        except ValueError:
            raise ValueError(unknown) from None
    w = words.fixed_point_prefix(args.k, args.length)
    if order is not None:
        w = transforms.difference(w, order)
    elif spec:
        w = transforms.shift_product(w)
    print(words.to_string(w))
    return 0


def cmd_verify(args) -> int:
    entries: list[dict]
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, list):
            raise ValueError("--json config must hold a list of sweep objects")
        entries = loaded
    else:
        if not args.lemma:
            raise ValueError("either --lemma or --json is required")
        entry = {"lemma": args.lemma}
        for field in _SWEEP_KEYS[1:]:
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
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    if args.b < 2:
        raise ValueError(f"--b must be >= 2, got {args.b}")
    n_values = parse_range(args.n)
    # Every listed level is checked; a range only by its last, unexpanded.
    for n in n_values[-1:] if isinstance(n_values, range) else n_values:
        _require_level_cap(args.k, n)
    if _span(n_values) < 2:
        raise ValueError("--n must span at least two indices, e.g. 30..40")
    est = exponent.exponent_sandwich(args.k, min(n_values), max(n_values))
    target = est.target
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
    except (CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InsufficientPrecisionError, IndecisiveEnclosureError) as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
