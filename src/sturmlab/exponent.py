"""Irrationality-exponent estimation for the base-b values of the fixed point.

The denominator growth rate theta = lim f_{n+1}/f_n drives everything: the
exponent is 1 + theta, bracketed from finite data by ratio extremes and
cross-checked empirically from continued-fraction convergents of truncations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import approximants, numeration
from .errors import CapExceededError, InsufficientPrecisionError


def _float(x: int | Fraction) -> float:
    """float(x), refused with ``CapExceededError`` past the float range."""
    try:
        return float(x)
    except OverflowError:
        bits = x.numerator.bit_length() - x.denominator.bit_length()
        raise CapExceededError(
            f"k is too large for a float exponent: a value near 2^{bits} "
            "is past the float range"
        ) from None


def closed_form_exponent(k: int) -> float:
    """1 + (k + sqrt(k^2 + 4)) / 2, the limiting exponent for parameter k.

    From k of about 1.34e154 on, k^2 + 4 is past the float range and
    ``CapExceededError`` is raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 + (k + math.sqrt(_float(k * k + 4))) / 2.0


def exponent_upper_bound(alpha, beta, gamma):
    """(1 + beta) * gamma / alpha, for growth rates alpha <= beta and gap rate gamma.

    Exact when fed Fractions; float inputs give a float.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if beta < alpha:
        raise ValueError("beta must be >= alpha")
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    return (1 + beta) * gamma / alpha


class ExponentEstimate(NamedTuple):
    """A bracketing of the exponent from finitely many denominator ratios."""

    target: float
    lower: float
    upper: float


def _float_below(x: Fraction) -> float:
    f = _float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def _float_above(x: Fraction) -> float:
    f = _float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def exponent_sandwich(k: int, n_min: int = 2, n_max: int = 12) -> ExponentEstimate:
    """Bracket the exponent using exact ratios theta_n for n in [n_min, n_max].

    The ratios alternate around their limit, so 1 + min(theta) is a valid
    lower bracket and the upper comes from the generic rate bound evaluated
    at the observed extremes; both ends are rounded outward.  The extremes
    need no scan.  Cassini's identity holds for this recurrence:
    f_{n+1}^2 - f_{n+2}*f_n = (-1)^n * k, by induction from
    f_1^2 - f_2*f_0 = (k+1)^2 - (k^2+k+1) = k, since each step maps
    f_{n+1}^2 - f_{n+2}*f_n to f_{n+2}^2 - (k*f_{n+2} + f_{n+1})*f_{n+1} =
    -(f_{n+1}^2 - f_{n+2}*f_n).  So theta_{n+1} - theta_n =
    (-1)^(n+1) * k / (f_n * f_{n+1}): consecutive ratios step to alternate
    sides by gaps that shrink, as f_n * f_{n+1} grows, and every ratio from
    n_min + 2 on lies strictly between theta_{n_min} and theta_{n_min+1},
    which are the extremes.
    """
    if n_min < 2:
        raise ValueError("n_min must be >= 2")
    if n_max <= n_min:
        raise ValueError("n_max must exceed n_min")
    basis = numeration.get_basis(k)
    f, g = basis.value(n_min), basis.value(n_min + 1)
    m, big = sorted((Fraction(g, f), Fraction(k * g + f, g)))
    lower = _float_below(1 + m)
    upper = _float_above(exponent_upper_bound(m, big, big))
    return ExponentEstimate(target=closed_form_exponent(k), lower=lower, upper=upper)


class ContinuedFraction(NamedTuple):
    """Quotients and convergents of a rational, by the Euclidean algorithm."""

    quotients: list[int]
    convergents: list[tuple[int, int]]
    exact: bool  # True when the expansion terminated before the term cap


def _convergents(num: int, den: int, max_terms: int):
    """Yield (a, p, q) for each quotient a and convergent p/q of num/den.

    Stops after ``max_terms`` terms or when the expansion terminates.  The
    quotients of num/den need not be in lowest terms: scaling both leaves
    every quotient unchanged.
    """
    pm2, pm1 = 0, 1
    qm2, qm1 = 1, 0
    for _ in range(max_terms):
        if not den:
            return
        a, rem = divmod(num, den)
        pm2, pm1 = pm1, a * pm1 + pm2
        qm2, qm1 = qm1, a * qm1 + qm2
        yield a, pm1, qm1
        num, den = den, rem


def _check_determinant(prev: tuple[int, int], last: tuple[int, int]) -> None:
    """Consecutive convergents p0/q0, p1/q1 satisfy |p1*q0 - p0*q1| = 1."""
    if abs(last[0] * prev[1] - prev[0] * last[1]) != 1:
        raise AssertionError("convergent recurrence lost the determinant")


def continued_fraction(x, max_terms: int = 64) -> ContinuedFraction:
    """Continued-fraction expansion of a non-negative rational ``x``."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    for a, p, q in _convergents(x.numerator, x.denominator, max_terms):
        quotients.append(a)
        convergents.append((p, q))
    if len(convergents) >= 2:
        _check_determinant(convergents[-2], convergents[-1])
    p, q = convergents[-1]
    return ContinuedFraction(
        quotients=quotients,
        convergents=convergents,
        exact=p * x.denominator == q * x.numerator,
    )


def big_log2(n: int) -> float:
    """log2 of a positive integer, safe for values far past float range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log2(n)
    return math.log2(n >> shift) + shift


def empirical_exponent(k: int, b: int, digits: int) -> float:
    """Estimate the exponent from convergents of a depth-``digits`` truncation.

    Convergents of the truncation match those of the full value while
    q^2 stays below b^digits; within that range, successive denominator
    ratios log q_{m+1} / log q_m estimate theta term by term.  The expansion
    stops at the first convergent past that bound.  The earliest convergents
    carry no asymptotic signal and are excluded.
    """
    approximants._require_base(b)
    if digits < 40:
        raise ValueError("digits must be >= 40")
    x = approximants.fixed_point_series(k, b, digits)
    precision = b**digits
    head_floor = b ** max(2, digits // 20)
    ratios: list[float] = []
    prev = last = None
    for _, p, q in _convergents(x.lo, x.den, 4 * digits):
        prev, last = last, (p, q)
        if prev is None:
            continue
        if q * q > precision:
            break
        q_m = prev[1]
        if q_m >= head_floor:
            ratios.append(big_log2(q) / big_log2(q_m))
    if prev is not None:
        _check_determinant(prev, last)
    if len(ratios) < 5:
        raise InsufficientPrecisionError(
            f"only {len(ratios)} trustworthy convergent ratios at depth {digits}; "
            "increase digits"
        )
    return 1.0 + max(ratios)
