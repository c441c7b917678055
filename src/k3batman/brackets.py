"""Chebyshev coefficients, bracket q-series coefficients, and coefficient-bound audits.

Everything here is exact rational arithmetic; floats appear only in the
printed bounds of :func:`deligne_audit`, which compares exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, isqrt
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # hurwitz imports clausen, which imports this module
    from .hurwitz import ClassNumbersAlong


def chebyshev_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of U_m, ascending powers, from the closed form:
    x^(m-2k) has (-1)^k C(m-k, k) 2^(m-2k), the term for k - 1 times a
    ratio whose integer division is exact."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = [0] * (m + 1)
    out[m] = c = 2**m
    for k in range(1, m // 2 + 1):
        c = -c * (m - 2 * k + 2) * (m - 2 * k + 1) // (4 * k * (m - k + 1))
        out[m - 2 * k] = c
    return tuple(out)


def bracket_coeff(m: int, along: ClassNumbersAlong) -> Fraction:
    """Coefficient of q^n in the m-th bracket of the class-number series with
    the theta series in t*tau, for the (t, n) of ``along``:

        C(2m, m) / 4^m * sum_k H*(n - t k^2) n^m U_{2m}(k sqrt(t / n))

    over all integers k. The k = 0 term is H*(n), and a square n / t ends the
    sum with H*(0) = -1/12 at k = +-sqrt(n / t).
    """
    total = _chebyshev_combination(m, along.t, along.n, along.power_sums(m))
    return Fraction(comb(2 * m, m) * total, 12 * 4**m)


def _chebyshev_combination(m: int, t: int, n: int, sums: list[int]) -> int:
    """sum_l U_{2m}[2l] n^(m-l) t^l sums[l], by Horner's rule in n.

    With sums[l] = sum_k w_k k^(2l) this is sum_k w_k n^m U_{2m}(k sqrt(t / n)),
    an integer: the k are summed once, in ``sums``, for every m.
    """
    total = 0
    for l, c in enumerate(chebyshev_coeffs(2 * m)[::2]):
        total = total * n + c * t**l * sums[l]
    return total


class PowerSums:
    """sum_k weights[k] k^(2l) for l = 0, 1, ..., with 0^0 = 1. ``upto(lmax)``
    returns them as a new list; they are kept, and extended when a larger
    ``lmax`` is asked for, so each term is multiplied lmax times in all."""

    def __init__(self, weights: list[int]):
        kept = [k for k, w in enumerate(weights) if k and w]
        self._squares = [k * k for k in kept]
        self._terms = [weights[k] for k in kept]  # w_k k^(2 (len(_sums) - 1))
        self._sums = [sum(weights)]

    def upto(self, lmax: int) -> list[int]:
        while len(self._sums) <= lmax:
            self._terms[:] = map(mul, self._terms, self._squares)
            self._sums.append(sum(self._terms))
        return self._sums[: lmax + 1]


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


def pihol_coeff(m: int, along: ClassNumbersAlong) -> Fraction:
    """Coefficient of q^n in the holomorphic projection of the bracket, for
    the (t, n) of ``along``."""
    correction = Fraction(comb(2 * m, m), 2 * 4**m) * mertens_coeff(along.t, m, along.n)
    return bracket_coeff(m, along) + correction


@dataclass(frozen=True)
class DeligneAudit:
    m: int
    p: int
    a_value: Fraction
    a_bound: float | Decimal
    b_value: Fraction
    b_bound: float | Decimal
    passed: bool


def deligne_audit(m: int, p: int, a: Fraction, b: Fraction) -> DeligneAudit:
    """Check the explicit newform-coefficient bounds at a prime index.

    ``a`` and ``b`` are pihol_coeff at (1, p) and (4, 4p): the coefficients
    of q^n at n = p and n = 4p, each bounded by f n^(m + 1/2) with
    f = 2 C(2m, m) (m - 1) / (3 4^m). As c p^(m + 1/2), b's factor c is then
    f 4^m sqrt(4) = 4 C(2m, m) (m - 1) / 3. Each is checked exactly as
    a^2 <= c^2 p^(2m + 1), for any m and p.
    """
    if m < 1 or p < 5:
        raise ValueError("need m >= 1 and p >= 5")
    f_a = Fraction(2 * comb(2 * m, m) * (m - 1), 3 * 4**m)
    factors = f_a, f_a * 4**m * isqrt(4)
    passed = all(v * v <= f * f * p ** (2 * m + 1) for v, f in zip((a, b), factors))
    a_bound, b_bound = (_printed_bound(f, m, p) for f in factors)
    return DeligneAudit(m, p, a, a_bound, b, b_bound, passed)


def _printed_bound(factor: Fraction, m: int, p: int) -> float | Decimal:
    """factor p^(m + 1/2) to 28 digits, as a float nudged up one ulp, so
    never below it, or as a Decimal where a float cannot hold it."""
    bound = Decimal(factor.numerator) / factor.denominator * Decimal(p) ** m * Decimal(p).sqrt()
    near = math.nextafter(float(bound), math.inf)
    return near if math.isfinite(near) else bound


def class_sum(m: int, along: ClassNumbersAlong) -> Fraction:
    """sum of twelve[|k|] U_{2m}(k sqrt(t / n)) / (12 r) over k != 0, with
    r = sqrt(t), from the power sums of ``along`` less their k = 0 term.

    Along (1, p) this is the Chebyshev-weighted sum over 2 H*((4p - s^2)/4),
    and along (4, 4p) the one over H*(4p - s^2), for even 0 < s <= 2 sqrt(p):
    k and -k give the 2, and r = 2 halves the sum over k != 0.

    For any class numbers it equals coeff_side(m, along, pihol_coeff(m, along)):
    the bracket sums cancel, leaving mertens_coeff(t, m, n) = 2 r t^m, true for
    odd prime p. Only the m = 1 vanishing and the bounds read the class numbers.
    """
    r = isqrt(along.t)
    sums = along.power_sums(m)
    sums[0] -= along.twelve[0]
    n = along.n
    return Fraction(_chebyshev_combination(m, along.t, n, sums), 12 * r * n**m)


def coeff_side(m: int, along: ClassNumbersAlong, coeff: Fraction) -> Fraction:
    """Projected-coefficient side matching :func:`class_sum`, with p = n / t:

        4^m coeff / (C(2m, m) r n^m) - 1 / p^m - (-1)^m H*(n) / r

    ``coeff`` is pihol_coeff(m, along); the sides match for any class numbers
    (see :func:`class_sum`). The H*(n) term is required for exact equality;
    along (1, p) it vanishes exactly when p = 1 (mod 4).
    """
    r = isqrt(along.t)
    n = along.n
    lead = Fraction(4**m, comb(2 * m, m) * r * n**m) * coeff
    return lead - Fraction(1, (n // along.t) ** m) - Fraction((-1) ** m * along.twelve[0], 12 * r)
