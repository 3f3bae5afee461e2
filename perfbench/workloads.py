"""Request grids of the three benchmark workloads.

Every request is one argv list for ``python -m sturmlab``.  The grids are
fixed; the run seed only sets the request order, the ``lemma3 --seed`` and
the spot-check sample.  Every ``verify`` request passes ``--jobs 2`` (the
core count of the reference machine), so one client never asks for more
threads than cores.

Why each workload exists, which layers it stresses and bypasses, and which
end-to-end numbers a change is predicted not to move there, is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

from typing import NamedTuple

B_2_40 = str(2**40)
B_10_30 = str(10**30)
SEED_TOKEN = "{seed}"


class Request(NamedTuple):
    key: str              # argv with the run seed left as SEED_TOKEN; names the golden
    argv: tuple[str, ...]
    verdicts: int         # planned verify rows, or 1 for an exponent result
    probe: bool = False   # a single-cell defect probe, reported apart from the gate


def _verify(lemma: str, verdicts: int, probe: bool = False, **axes: str) -> tuple:
    argv = ["verify", "--lemma", lemma]
    for flag, value in axes.items():
        argv += [f"--{flag}", value]
    argv += ["--jobs", "2", "--format", "tsv"]
    return tuple(argv), verdicts, probe


def _certify() -> list[tuple]:
    return [_verify("formula3", 14, k=str(k), b=str(b), n="2..15")
            for k in (1, 2, 3) for b in (2, 3, 10)]


def _bounds() -> list[tuple]:
    grid = [_verify("constants", 42, k=str(k), b="2,3,10", n="2..15") for k in (1, 2, 3)]
    grid.append(_verify("growth", 126, k="1..3", b="2,3,10", n="2..15"))
    grid.append(_verify("constants", 12, k="1", b=B_2_40, n="2..13"))
    grid.append(_verify("constants", 6, k="2", b=B_2_40, n="2..7"))
    wide = f"2,3,10,{B_2_40}"
    grid.append(_verify("formula3", 76, k="1", b=wide, n="22..40"))
    grid.append(_verify("formula3", 76, k="2", b=wide, n="12..30"))
    grid.append(_verify("formula3", 68, k="3", b=wide, n="9..25"))
    grid += [(("exponent", "--k", str(k), "--b", "2", "--digits", "100000"), 1, False)
             for k in (1, 2, 3)]
    grid.append(_verify("sba", 3, b="2,3,10", depth="10000"))
    grid.append(_verify("affine", 9, k="1..3", b="2,3,10", depth="10000"))
    # AssertionError("unexpectedly heavy tail") on the scaled route.
    grid.append(_verify("formula3", 1, probe=True, k="1", b=B_10_30, n="22"))
    return grid


def _scan() -> list[tuple]:
    grid = [_verify("lemma1", 11, k=str(k), n="2..12") for k in (1, 2, 3)]
    grid += [_verify("lemma2", 1, k=str(k), imax="100000") for k in (1, 2, 3, 4)]
    grid += [_verify("lemma3", 1, k=str(k), imax="100000", seed=SEED_TOKEN)
             for k in (1, 2, 3, 4)]
    grid += [_verify("lemma4", 13, k=str(k), n="0..12", imax="10000") for k in (1, 2, 3)]
    grid += [_verify("blocks", 8, k=str(k), n="1..8", imax="100000") for k in (1, 2, 3)]
    # CapExceededError escapes as a traceback from both.
    grid.append(_verify("lemma1", 1, probe=True, k="3", n="14"))
    grid.append(_verify("lemma2", 1, probe=True, k="1", imax="200000000"))
    return grid


GRIDS = {"certify": _certify, "bounds": _bounds, "scan": _scan}

# Calibration kernels (see run.py) that match each workload's kind of work:
# big-integer arithmetic and decimal output, small-integer loops, or both.
# On the reference machine each cut the run-to-run spread of its workload's
# times more than the other kernel did.
CALIBRATION = {"certify": ("bigint",), "bounds": ("loop", "bigint"), "scan": ("loop",)}


def requests(workload: str, seed: int) -> list[Request]:
    """All requests of ``workload`` with the seed filled in, in grid order."""
    out = []
    for argv, verdicts, probe in GRIDS[workload]():
        concrete = tuple(str(seed) if a == SEED_TOKEN else a for a in argv)
        out.append(Request(" ".join(argv), concrete, verdicts, probe))
    return out
