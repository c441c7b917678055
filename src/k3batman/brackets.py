"""Chebyshev coefficients, bracket q-series coefficients, and coefficient-bound audits.

Everything here is exact rational arithmetic; floats appear only in the
final bound comparisons of :func:`deligne_audit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt
from typing import Callable

from .hurwitz import HurwitzTable, twelfths


@lru_cache(maxsize=None)
def chebyshev_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of U_m, ascending powers, via the recurrence
    U_m = 2x U_{m-1} - U_{m-2}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return (1,)
    if m == 1:
        return (0, 2)
    prev2, prev1 = chebyshev_coeffs(m - 2), chebyshev_coeffs(m - 1)
    out = [0] + [2 * c for c in prev1]
    for i, c in enumerate(prev2):
        out[i] -= c
    return tuple(out)


def chebyshev_closed(l: int, m: int) -> int:
    """Closed form for the coefficient of x^(2l) in U_{2m}, 1 <= l <= m."""
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    num = (-1) ** (m - l) * 2 ** (2 * l - 1) * factorial(l + m)
    den = l * factorial(m - l) * factorial(2 * l - 1)
    if num % den:
        raise ArithmeticError(f"closed form not integral at (l={l}, m={m})")
    return num // den


def chebyshev_eval(m: int, x: float) -> float:
    """U_m(x) by the numerically stable three-term recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0")
    prev2, prev1 = 1.0, 2.0 * x
    if m == 0:
        return prev2
    if m == 1:
        return prev1
    for _ in range(m - 1):
        prev2, prev1 = prev1, 2.0 * x * prev1 - prev2
    return prev1


def even_chebyshev(m: int, x: int, n: int) -> int:
    """sum_l U_{2m}[2l] x^l n^(m-l) over l = 0..m, exactly in integers.

    U_{2m} has only even powers, so this is n^m U_{2m}(y) for any y with
    y^2 = x/n: the Chebyshev value with its denominator n^m cleared.
    """
    coeffs = chebyshev_coeffs(2 * m)
    total = 0
    for l in range(m, -1, -1):  # Horner in x
        total = total * x + coeffs[2 * l] * n ** (m - l)
    return total


def bracket_coeff(m: int, t: int, n: int, table: HurwitzTable) -> Fraction:
    """Coefficient of q^n in the m-th bracket of the class-number series with
    the theta series in t*tau.

    The inner sum runs over all integers s with t s^2 <= n; the convention
    0^0 = 1 applies at (s=0, l=0), and indices below zero contribute nothing.
    """
    if t not in (1, 4):
        raise ValueError(f"t must be 1 or 4, got {t}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if table.d_max < n:
        raise ValueError(f"table covers D <= {table.d_max}, need {n}")
    total = 0
    for s in range(isqrt(n // t) + 1):  # s and -s give the same term
        term = twelfths(table.star(n - t * s * s)) * even_chebyshev(m, t * s * s, n)
        total += term if s == 0 else 2 * term
    return Fraction(comb(2 * m, m) * total, 12 * 4**m)


def _divisor_pairs(n: int) -> list[tuple[int, int]]:
    out = []
    d = 1
    while d * d < n:
        if n % d == 0:
            out.append((d, n // d))
        d += 1
    return out


def mertens_coeff(s: int, m: int, n: int) -> int:
    """Coefficient of q^n in the weight-correction lattice series.

    Requires square s (1 or 4) so that sqrt(s)*t - r is an integer; each
    representation s t^2 - r^2 = n with t, r >= 1 contributes twice its
    (2m+1)-st power, and n = s k^2 adds (sqrt(s) k)^(2m+1).
    """
    if s not in (1, 4):
        raise ValueError(f"s must be a square in {{1, 4}}, got {s}")
    if n < 1:
        raise ValueError("n must be >= 1")
    root = isqrt(s)
    k = 2 * m + 1
    total = 0
    for d, e in _divisor_pairs(n):
        # d = sqrt(s) t - r, e = sqrt(s) t + r with r = (e-d)/2 >= 1
        if (d + e) % (2 * root) or (e - d) % 2:
            continue
        total += 2 * d**k
    q, r = divmod(n, s)
    if r == 0:
        base = isqrt(q)
        if base >= 1 and base * base == q:
            total += (root * base) ** k
    return total


def pihol_coeff(m: int, t: int, n: int, table: HurwitzTable) -> Fraction:
    """Coefficient of q^n in the holomorphic projection of the bracket."""
    correction = Fraction(comb(2 * m, m), 2 * 4**m) * mertens_coeff(t, m, n)
    return bracket_coeff(m, t, n, table) + correction


@dataclass(frozen=True)
class DeligneAudit:
    m: int
    p: int
    a_value: Fraction
    a_bound: float
    b_value: Fraction
    b_bound: float
    passed: bool


def deligne_audit(
    m: int,
    p: int,
    table: HurwitzTable,
    a: Fraction | None = None,
    b: Fraction | None = None,
) -> DeligneAudit:
    """Check the explicit newform-coefficient bounds at a prime index.

    ``a`` and ``b`` are pihol_coeff(m, 1, p) and pihol_coeff(m, 4, 4p); either
    is computed from ``table`` when not given. Values are exact rationals;
    each bound is evaluated in floating point and nudged up one ulp so
    rounding alone can never produce a spurious failure.
    """
    if m < 1 or p < 5:
        raise ValueError("need m >= 1 and p >= 5")
    if a is None:
        a = pihol_coeff(m, 1, p, table)
    if b is None:
        b = pihol_coeff(m, 4, 4 * p, table)
    scale = (m - 1) * p ** (m + 0.5)
    a_bound = math.nextafter(2.0 / 3.0 * comb(2 * m, m) / 4**m * scale, math.inf)
    b_bound = math.nextafter(4.0 / 3.0 * comb(2 * m, m) * scale, math.inf)
    passed = abs(float(a)) <= a_bound and abs(float(b)) <= b_bound
    return DeligneAudit(m, p, a, a_bound, b, b_bound, passed)


def _class_sum(m: int, p: int, star_at: Callable[[int], Fraction]) -> Fraction:
    """sum of star_at(s) U_{2m}(s / 2 sqrt(p)) over even 0 < s < 2 sqrt(p)."""
    q = 4 * p
    total = 0
    for s in range(2, isqrt(q - 1) + 1, 2):
        total += twelfths(star_at(s)) * even_chebyshev(m, s * s, q)
    return Fraction(total, 12 * q**m)


def class_sum_a(m: int, p: int, table: HurwitzTable) -> Fraction:
    """Chebyshev-weighted sum over 2 H*((4p-s^2)/4), even 0 < s < 2 sqrt(p)."""
    return _class_sum(m, p, lambda s: 2 * table.star(p - (s // 2) ** 2))


def class_sum_b(m: int, p: int, table: HurwitzTable) -> Fraction:
    """Chebyshev-weighted sum over H*(4p-s^2), even 0 < s < 2 sqrt(p)."""
    return _class_sum(m, p, lambda s: table.star(4 * p - s * s))


def coeff_side_a(m: int, p: int, table: HurwitzTable, a: Fraction | None = None) -> Fraction:
    """Projected-coefficient side matching :func:`class_sum_a`.

    ``a`` is pihol_coeff(m, 1, p), computed from ``table`` when not given.
    The (-1)^m H*(p) term is required for exact equality; it vanishes
    exactly when p = 1 (mod 4).
    """
    if a is None:
        a = pihol_coeff(m, 1, p, table)
    lead = Fraction(4**m, comb(2 * m, m)) * a / p**m
    return lead - Fraction(1, p**m) - (-1) ** m * table.star(p)


def coeff_side_b(m: int, p: int, table: HurwitzTable, b: Fraction | None = None) -> Fraction:
    """Projected-coefficient side matching :func:`class_sum_b`.

    ``b`` is pihol_coeff(m, 4, 4p), computed from ``table`` when not given.
    """
    if b is None:
        b = pihol_coeff(m, 4, 4 * p, table)
    lead = b / (comb(2 * m, m) * 2 * Fraction(p**m))
    return lead - Fraction(1, p**m) - Fraction((-1) ** m, 2) * table.star(4 * p)
