"""End-to-end acceptance runs: one test and one printed PASS/FAIL line per criterion.

Each criterion is exercised at its full stated scale and must finish inside
its time budget; run with ``pytest -v`` (add ``-s`` to see the lines live).
"""

import random
import time
import warnings
from fractions import Fraction

from sturmlab import (
    check_error_bounds_auto,
    closed_form_exponent,
    difference,
    difference_by_binomial,
    distinct_factors,
    empirical_exponent,
    error_bounds,
    exponent_sandwich,
    fixed_point_prefix,
    from_digits,
    is_regular,
    mismatch,
    normalize,
    rotation_sum_relation,
    symbol_at,
    to_digits,
    to_string,
    uniqueness_oracle,
    value_affine_relation,
    word_identities,
)
from sturmlab.approximants import approximant
from sturmlab.numeration import get_basis
from sturmlab.transforms import block_determinism


def _report(label: str, ok: bool, elapsed: float, budget: float) -> None:
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{flag}] {label}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, label
    assert elapsed < budget, f"{label} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_word_identities():
    t0 = time.perf_counter()
    ok = all(
        word_identities(k, n) == (True, True)
        for k in (1, 2, 3, 4)
        for n in range(2, 11)
    )
    _report("criterion 1: word identities k<=4 n<=10", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_numeration_soundness():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3, 4):
        for n in range(100000):
            d = to_digits(k, n)
            if not is_regular(k, d) or from_digits(k, d) != n:
                ok = False
                break
        if not uniqueness_oracle(k, 500):
            ok = False
    rng = random.Random(90125)
    for _ in range(10000):
        k = rng.randint(1, 4)
        raw = [rng.randint(0, k) for _ in range(rng.randint(0, 24))]
        nd = normalize(k, raw)
        if from_digits(k, nd) != from_digits(k, raw) or not is_regular(k, nd):
            ok = False
            break
        if normalize(k, list(nd)) != nd:
            ok = False
            break
        # nd has no trailing zeros, so pad it to raw's length first.
        padded = nd + (0,) * (len(raw) - len(nd))
        viol = [i for i in range(len(raw) - 1) if raw[i + 1] == k and raw[i] != 0]
        if viol:
            if padded[: min(viol)] != tuple(raw[: min(viol)]):
                ok = False
                break
        elif padded != tuple(raw):
            ok = False
            break
    _report("criterion 2: numeration round-trip/uniqueness/normalize", ok,
            time.perf_counter() - t0, 10.0)


def test_criterion_03_random_access():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3, 4):
        sym = fixed_point_prefix(k, 100000)
        if any(symbol_at(k, i) != sym[i] for i in range(100000)):
            ok = False
    _report("criterion 3: random access agrees below 1e5", ok,
            time.perf_counter() - t0, 5.0)


def test_criterion_04_mismatch_law():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        for n in range(0, 13):
            fn = get_basis(k).value(n)
            edge = get_basis(k).value(n + 1) - 2
            sym = fixed_point_prefix(k, 10000 + fn)
            first = None
            for i in range(10000):
                direct = sym[i + fn] - sym[i]
                v = mismatch(k, i, n)
                if v.differs != (direct != 0) or v.sign != direct:
                    ok = False
                    break
                if direct != 0 and first is None:
                    first = i
            # No mismatch inside the window 0..f_{n+1}-3.
            if first is not None and first < min(edge, 10000):
                ok = False
            if not mismatch(k, edge, n).differs:
                ok = False
            if not ok:
                break
        if not ok:
            break
    _report("criterion 4: mismatch verdicts + clean window", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_05_error_bounds():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        for b in (2, 3, 10):
            for n in range(2, 16):
                if not check_error_bounds_auto(k, n, b).holds:
                    ok = False
    # Worked instance: k=1, b=2, n=2.
    rec = approximant(1, 2, 2)
    chk = check_error_bounds_auto(1, 2, 2)
    lo, hi = error_bounds(1, 2, 2)
    delta_lo, delta_hi = chk.record.deltas()
    ok = ok and chk.record == rec and (rec.p, rec.q) == (4, 7)
    ok = ok and (lo, hi) == error_bounds(1, 2, 2) == (Fraction(1, 112), Fraction(1, 56))
    ok = ok and lo <= delta_lo <= delta_hi <= hi
    _report("criterion 5: two-sided error bounds on the full grid", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_06_exponent_sandwich():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 6):
        est = exponent_sandwich(k, 30, 40)
        target = closed_form_exponent(k)
        if not (est.lower <= target <= est.upper and est.upper - est.lower < 1e-6):
            ok = False
    _report("criterion 6: exponent sandwich width < 1e-6", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_07_continued_fraction_cross_check():
    t0 = time.perf_counter()
    ok = abs(empirical_exponent(1, 2, 600) - 2.61803) < 0.05
    ok = ok and abs(empirical_exponent(1, 10, 600) - 2.61803) < 0.05
    _report("criterion 7: empirical exponent within 0.05 (b=2, b=10)", ok,
            time.perf_counter() - t0, 30.0)


def test_criterion_08_transform_fidelity():
    t0 = time.perf_counter()
    ok = to_string(difference(fixed_point_prefix(1, 13), 2)) == "01100011011"
    u = fixed_point_prefix(1, 10000)
    for order in range(1, 9):
        if difference(u, order) != difference_by_binomial(u, order):
            ok = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count, _ = block_determinism(u, order)
        if count != order + 2:
            ok = False
    ok = ok and len(distinct_factors(u, 2)) == 3
    _report("criterion 8: transforms, binomial oracle, block counts", ok,
            time.perf_counter() - t0, 10.0)


def test_criterion_09_affine_identity():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2):
        for b in (2, 3):
            u = fixed_point_prefix(k, 201)
            rep = value_affine_relation(u, b, 200)
            if not (rep.consistent and rep.gap_bound < Fraction(1, 2**195)):
                ok = False
    _report("criterion 9: coded-product value identity < 2^-195", ok,
            time.perf_counter() - t0, 10.0)


def test_criterion_10_rotation_sum_probe():
    t0 = time.perf_counter()
    rep = rotation_sum_relation(2, 400)
    ok = rep.matching == "index_shifted"                  # decisive and identified
    ok = ok and rep.pair == (Fraction(-1, 2), Fraction(1))
    ok = ok and rep.residual_bound < Fraction(1, 2**390)
    _report("criterion 10: golden power-sum affine pair probe", ok,
            time.perf_counter() - t0, 10.0)
