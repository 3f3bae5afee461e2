import math
from fractions import Fraction

import pytest

from sturmlab import (
    InsufficientPrecisionError,
    closed_form_exponent,
    continued_fraction,
    empirical_exponent,
    exponent_sandwich,
    exponent_upper_bound,
    fixed_point_series,
)
from sturmlab.exponent import ExponentEstimate, _float_above, _float_below, big_log2
from sturmlab.numeration import get_basis


def test_closed_form_values():
    assert closed_form_exponent(1) == pytest.approx(2.618033988749895, abs=1e-14)
    assert closed_form_exponent(2) == pytest.approx(3.414213562373095, abs=1e-14)
    assert closed_form_exponent(3) == pytest.approx(1 + (3 + math.sqrt(13)) / 2, abs=1e-14)


def _theta_enclosure(k, bits=96):
    """Dyadic enclosure of theta = (k + sqrt(k^2 + 4)) / 2, width 2^-(bits+1)."""
    scale = 1 << bits
    s = math.isqrt((k * k + 4) * scale * scale)
    return Fraction(k * scale + s, 2 * scale), Fraction(k * scale + s + 1, 2 * scale)


def test_ratios_converge_into_enclosure():
    for k in (1, 2):
        lo, hi = _theta_enclosure(k)
        assert float(lo) <= (k + math.sqrt(k * k + 4)) / 2 <= float(hi)
        basis = get_basis(k)
        r = Fraction(basis.value(61), basis.value(60))
        assert lo - Fraction(1, 10**20) <= r <= hi + Fraction(1, 10**20)


def test_exponent_upper_bound_formula():
    assert exponent_upper_bound(2.0, 2.0, 1.5) == pytest.approx((1 + 2.0) * 1.5 / 2.0)
    with pytest.raises(ValueError):
        exponent_upper_bound(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        exponent_upper_bound(2.0, 1.0, 2.0)   # beta below alpha
    with pytest.raises(ValueError):
        exponent_upper_bound(1.0, 1.0, 0.5)   # gamma must exceed 1


def test_sandwich_contains_target():
    for k in range(1, 6):
        est = exponent_sandwich(k, 30)
        target = closed_form_exponent(k)
        assert est.lower <= target <= est.upper
        assert est.upper - est.lower < 1e-6
        assert est.target == pytest.approx(target)


def test_sandwich_narrows_with_n():
    wide = exponent_sandwich(1, 2)
    tight = exponent_sandwich(1, 20)
    assert (tight.upper - tight.lower) < (wide.upper - wide.lower)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 2**40])
def test_cassini_identity(k):
    """f_{n+1}^2 - f_{n+2}*f_n = (-1)^n * k, exactly, for every n <= 2000:
    the identity that names the sandwich's extreme ratios."""
    f = [1, k + 1]
    while len(f) < 2003:
        f.append(k * f[-1] + f[-2])
    for n in range(2001):
        assert f[n + 1] ** 2 - f[n + 2] * f[n] == (-1) ** n * k, (k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 2**40])
def test_sandwich_matches_extremes_of_every_ratio(k):
    """The pair of ratios at n brackets every ratio from n to N: the
    sandwich at n equals the bracket that min and max over every exact
    ratio from n to N give.  The reference steps f_n by the recurrence and
    finds both extremes by integer cross-multiplication, so only the two
    extreme ratios are built as Fractions."""
    f = [1, k + 1]
    while len(f) < 2002:
        f.append(k * f[-1] + f[-2])
    for n, N in [(2, 12), (2, 40), (5, 300), (2, 2000)]:
        lo = hi = n
        for j in range(n + 1, N + 1):
            # f_{j+1}/f_j against the extremes so far; every f is positive.
            if f[j + 1] * f[lo] < f[lo + 1] * f[j]:
                lo = j
            if f[j + 1] * f[hi] > f[hi + 1] * f[j]:
                hi = j
        m, big = Fraction(f[lo + 1], f[lo]), Fraction(f[hi + 1], f[hi])
        expected = ExponentEstimate(
            target=closed_form_exponent(k),
            lower=_float_below(1 + m),
            upper=_float_above(exponent_upper_bound(m, big, big)),
        )
        assert exponent_sandwich(k, n) == expected, (k, n, N)


def test_sandwich_validates_range():
    with pytest.raises(ValueError, match="n must be >= 2"):
        exponent_sandwich(1, 1)


def test_continued_fraction_exact_rational():
    cf = continued_fraction(Fraction(4, 7))
    assert cf.quotients == [0, 1, 1, 3]
    assert cf.convergents == [(0, 1), (1, 1), (1, 2), (4, 7)]
    assert cf.exact


def test_continued_fraction_truncated():
    cf = continued_fraction(math.pi, max_terms=5)
    assert cf.quotients == [3, 7, 15, 1, 292]
    assert not cf.exact
    # Convergents approximate progressively better.
    errs = [abs(math.pi - p / q) for p, q in cf.convergents]
    assert errs == sorted(errs, reverse=True)


def test_continued_fraction_rejects_negative():
    with pytest.raises(ValueError):
        continued_fraction(Fraction(-1, 2))


def test_empirical_exponent_binary():
    mu = empirical_exponent(1, 2, 600)
    assert abs(mu - 2.61803) < 0.05


def test_empirical_exponent_base_ten():
    mu = empirical_exponent(1, 10, 600)
    assert abs(mu - 2.61803) < 0.05


@pytest.mark.parametrize("digits", [200, 2000])
@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_empirical_exponent_matches_full_expansion(k, b, digits):
    """Stopping at the trust bound gives the full expansion's estimate."""
    st = fixed_point_series(k, b, digits)
    x = Fraction(st.lo, st.den)
    cf = continued_fraction(x, max_terms=4 * digits)
    precision = b**digits
    head_floor = b ** max(2, digits // 20)
    ratios = []
    for (_, q_m), (_, q_next) in zip(cf.convergents, cf.convergents[1:]):
        if q_m < head_floor:
            continue
        if q_next * q_next > precision:
            break
        ratios.append(big_log2(q_next) / big_log2(q_m))
    assert len(ratios) >= 5
    assert empirical_exponent(k, b, digits) == 1.0 + max(ratios)


def test_empirical_exponent_insufficient_depth():
    with pytest.raises(InsufficientPrecisionError):
        empirical_exponent(5, 2, 40)
    with pytest.raises(ValueError):
        empirical_exponent(1, 2, 10)
