"""Run one sturmlab CLI request with timing wrappers around its layers.

Usage: python3 perfbench/traced_cli.py ARGV...   (ARGV as for ``python -m sturmlab``)

The functions in ``TIMED`` are wrapped in every ``sturmlab`` module that
binds them, since ``cli``, ``approximants``, ``exponent`` and
``transforms`` import them by name.  Each thread keeps its own span stack.
A span's busy time is its ``time.thread_time`` (on-CPU time of the calling
thread) minus that of its child spans; its self wall time is its
``perf_counter`` duration minus its children's; their difference is the
span's wait (for the GIL, the allocator, or the host).  A child's timer calls
fall inside its wall interval but outside its CPU interval, so a parent with
hundreds of thousands of children can show a slightly negative self wait.
``COUNTED`` functions are too hot for a span and only count calls.
Everything stays in memory until the request ends; then one line, ``MARKER``
followed by a JSON summary, is written to stderr.  Stdout is the CLI's own,
byte for byte.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from time import perf_counter, thread_time

MARKER = "@@perfbench-trace "

TIMED = {
    "cli": ("_fmt", "_emit_table", "_check_lemma1", "_check_lemma2", "_check_lemma3",
            "_check_lemma4", "_check_formula3", "_check_growth", "_check_constants",
            "_check_affine", "_check_blocks", "_check_sba"),
    "approximants": ("approximant", "series_truncation", "word_value", "check_error_bounds",
                     "scaled_error_bounds_hold", "growth_law_holds", "bound_constants_hold"),
    "exponent": ("empirical_exponent", "continued_fraction"),
    "transforms": ("block_determinism", "difference", "rotation_sum_relation",
                   "value_affine_relation"),
    "words": ("fixed_point_prefix", "word_identities"),
    "numeration": ("to_digits", "from_digits", "normalize", "uniqueness_oracle"),
    "access": ("symbol_at", "mismatch"),
}
COUNTED = {"numeration": ("get_basis",)}
TASK_PREFIX = "cli._check_"

# Work counters taken from a result: name -> (how to fold, measure).
MEASURES = {
    "cli._fmt": ("sum", len),
    "approximants.word_value": ("sum", int.bit_length),
    "approximants.approximant": ("max", lambda rec: rec.q.bit_length()),
    "exponent.continued_fraction": ("sum", lambda cf: len(cf.quotients)),
    "words.fixed_point_prefix": ("sum", len),
    "access.mismatch": ("sum", lambda verdict: int(verdict.differs)),
}


class _ThreadRecord:
    __slots__ = ("stack", "stats", "spans")

    def __init__(self):
        self.stack: list[list[float]] = []
        # name -> [calls, busy_s, self_wall_s, measure]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []


_local = threading.local()
_records: list[_ThreadRecord] = []
_records_lock = threading.Lock()


def _record() -> _ThreadRecord:
    try:
        return _local.rec
    except AttributeError:
        rec = _local.rec = _ThreadRecord()
        with _records_lock:
            _records.append(rec)
        return rec


def _stat(rec: _ThreadRecord, name: str) -> list:
    st = rec.stats.get(name)
    if st is None:
        st = rec.stats[name] = [0, 0.0, 0.0, 0]
    return st


def _timed(name: str, fn):
    keep_span = name.startswith(TASK_PREFIX)
    fold, measure = MEASURES.get(name, (None, None))

    def wrapper(*args, **kwargs):
        rec = _record()
        stack = rec.stack
        children = [0.0, 0.0]
        stack.append(children)
        w0 = perf_counter()
        c0 = thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            c = thread_time() - c0
            w = perf_counter() - w0
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[0] += w
                parent[1] += c
            st = _stat(rec, name)
            st[0] += 1
            st[1] += c - children[1]
            st[2] += w - children[0]
            if keep_span:
                rec.spans.append((name, threading.get_ident(), w0, w, c))
        if fold == "sum":
            st[3] += measure(result)
        elif fold == "max":
            st[3] = max(st[3], measure(result))
        return result

    return wrapper


def _counted(name: str, fn):
    def wrapper(*args, **kwargs):
        _stat(_record(), name)[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every listed function at each sturmlab module that binds it."""
    replace = {}
    for kinds, make in ((TIMED, _timed), (COUNTED, _counted)):
        for module, names in kinds.items():
            mod = sys.modules[f"sturmlab.{module}"]
            for fname in names:
                orig = getattr(mod, fname)
                replace[id(orig)] = (orig, make(f"{module}.{fname}", orig))
    for modname, mod in list(sys.modules.items()):
        if modname != "sturmlab" and not modname.startswith("sturmlab."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def fold_into(stats: dict[str, list], name: str, st: list) -> None:
    """Add one [calls, busy_s, self_wall_s, measure] record into ``stats``."""
    into = stats.setdefault(name, [0, 0.0, 0.0, 0])
    into[0] += st[0]
    into[1] += st[1]
    into[2] += st[2]
    fold = MEASURES.get(name, ("sum",))[0]
    into[3] = max(into[3], st[3]) if fold == "max" else into[3] + st[3]


def summary(import_s: float) -> dict:
    stats: dict[str, list] = {}
    spans: list[tuple] = []
    for rec in _records:
        spans.extend(rec.spans)
        for name, st in rec.stats.items():
            fold_into(stats, name, st)
    return {"import_s": import_s, "stats": stats, "spans": spans}


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import sturmlab.cli
    import_s = perf_counter() - t0
    install()
    try:
        rc = sturmlab.cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(summary(import_s)) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
