"""Shared helpers and independent oracles for the test suite.

Everything here recomputes quantities from first principles (literal
enumeration, Euler's criterion, divisor sums) so the library is always
checked against a second route.
"""

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, isqrt
from pathlib import Path

import numpy as np

import k3batman
from k3batman import ClassNumbersAlong, FieldContext, chebyshev_coeffs, clausen_trace, two_squares
from k3batman.field import powers, primitive_root, require_inverse_range


def child_env() -> dict:
    """The environment of a child Python that imports this k3batman: this
    process's, with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(k3batman.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def primes_up_to(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def chi_euler(x: int, p: int) -> int:
    """Legendre symbol by Euler's criterion, one modular power per query."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def inverses(p: int) -> np.ndarray:
    """Inverses mod p of x = 2..p-1; ``inverses(p)[i]`` belongs to x = i + 2.

    With g a primitive root, the inverse of g^k is g^(p-1-k), so one
    p-length table of powers, read backwards, gives every inverse. Raises
    ValueError unless p is a prime >= 5 with p^2 < 2^63, and ArithmeticError
    unless x * inverse = 1 (mod p) for every x.
    """
    require_inverse_range(p)
    power_table = powers(primitive_root(p), p, p - 1)
    table = np.zeros(p, dtype=np.int64)  # an x no power reaches keeps 0 and fails the check
    table[power_table] = np.roll(power_table[::-1], 1)  # g^k -> g^((p-1-k) mod (p-1))
    inv = table[2:]
    x = np.arange(2, p, dtype=np.int64)
    bad = np.flatnonzero(x * inv % p != 1)
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(
            f"modular inverse check failed at p={p}: x={i + 2}, inverse {int(inv[i])}"
        )
    return inv


def curve_point_count(p: int, lam: int) -> int:
    """Literal count of points on y^2 = (x-1)(x^2+lam) over F_p, plus infinity."""
    solutions = Counter(y * y % p for y in range(p))
    total = 1
    for x in range(p):
        total += solutions[((x - 1) * (x * x + lam)) % p]
    return total


def class_number(d: int) -> tuple[int, int]:
    """(h, omega) for discriminant -d: h counts reduced primitive forms
    (a, b, c) with b^2 - 4ac = -d, -a < b <= a <= c and b >= 0 when a = c;
    omega is 3 for d = 3, 2 for d = 4, and 1 otherwise."""
    if d <= 0 or d % 4 in (1, 2):
        raise ValueError(f"-{d} is not a negative discriminant")
    h = 0
    a = 1
    while 3 * a * a <= d:
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            num = b * b + d
            if num % four_a:
                continue
            c = num // four_a
            if c < a or (a == c and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                h += 1
        a += 1
    omega = 3 if d == 3 else 2 if d == 4 else 1
    return h, omega


def twelve_h_by_strata(d_max: int) -> np.ndarray:
    """12 H*(D) for all D <= d_max by one strided add per (a, b) stratum.

    Every reduced form (primitive or not) of discriminant -(4ac - b^2) is
    visited once per (a, b) stratum as an arithmetic progression in c, so the
    total work is O(d_max^{3/2}) with no per-D factoring. A form contributes
    12 by default, 6 when it is a multiple of (1, 0, 1), 4 for a multiple of
    (1, 1, 1); strata with 0 < b < a < c count twice for the +-b pair.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    twelve = np.zeros(d_max + 1, dtype=np.int64)
    twelve[0] = -1
    a = 1
    while 3 * a * a <= d_max:
        four_a = 4 * a
        for b in range(a + 1):
            d0 = four_a * a - b * b  # c = a
            if d0 <= d_max:
                if b == a:
                    twelve[d0] += 4
                elif b == 0:
                    twelve[d0] += 6
                else:
                    twelve[d0] += 12
            c_max = (d_max + b * b) // four_a
            if c_max > a:
                start = four_a * (a + 1) - b * b
                stop = four_a * c_max - b * b + 1
                weight = 24 if 0 < b < a else 12
                twelve[start:stop:four_a] += weight
        a += 1
    return twelve


def hurwitz_star_by_divisors(d: int, class_number) -> Fraction:
    """H*(D) recomputed from the f^2-divisor sum over primitive class numbers."""
    if d == 0:
        return Fraction(-1, 12)
    if d < 0 or d % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    f = 1
    while f * f <= d:
        if d % (f * f) == 0:
            rest = d // (f * f)
            if rest % 4 in (0, 3):
                h, omega = class_number(rest)
                total += Fraction(h, omega)
        f += 1
    return total


def two_squares_exhaustive(p: int) -> list[tuple[int, int]]:
    """All (a odd, b > 0) with a^2 + b^2 = p, by full scan."""
    found = []
    for a in range(1, isqrt(p) + 1, 2):
        rest = p - a * a
        if rest <= 0:
            break
        b = isqrt(rest)
        if b * b == rest:
            found.append((a, b))
    return found


def mu_bat_quadrature(a: float, b: float, density_f) -> float:
    """Independent oracle: adaptive quadrature of f/4pi with the integrable
    poles declared as interior break points."""
    import math

    from scipy.integrate import quad

    def f(t):
        value = density_f(t)
        return value / (4.0 * math.pi) if math.isfinite(value) else 0.0

    interior = [x for x in (-1.0, 0.0, 1.0) if a < x < b]
    value, err = quad(f, a, b, points=interior or None, limit=300)
    assert err < 1e-7  # well inside the 1e-6 comparison tolerance
    return value


def mertens_by_scan(s: int, m: int, n: int) -> int:
    """Lattice correction coefficient by direct (t, r) enumeration."""
    root = isqrt(s)
    k = 2 * m + 1
    total = 0
    for t in range(1, (n + 1) // (2 * root) + 1):
        diff = s * t * t - n
        if diff < 1:
            continue
        r = isqrt(diff)
        if r * r == diff and r >= 1:
            total += 2 * (root * t - r) ** k
    q, rem = divmod(n, s)
    if rem == 0:
        base = isqrt(q)
        if base >= 1 and base * base == q:
            total += (root * base) ** k
    return total


# Per-lambda reference loops for the statistics that the library computes
# from the trace-multiplicity summary. Membership is decided on Fractions.


def entries(table):
    """(lambda, a_lambda, phi(-lambda)) as Python ints, for lambda = 1..p-2."""
    for i in range(table.p - 2):
        yield i + 1, int(table.traces[i]), int(table.signs[i])


@dataclass(frozen=True)
class AValue:
    """Normalized point-count error term A_mu(p) = value, an exact rational."""

    mu: int
    value: Fraction


def a_value(ctx: FieldContext, mu: int, trace: int | None = None) -> AValue:
    """A_mu(p) = phi(-lambda) (a_lambda^2 - p)/p with lambda = -(mu+1)^(-1),
    from one direct character sum unless ``trace`` is given."""
    p = ctx.p
    if mu % p in (0, p - 1):
        raise ValueError(f"mu={mu} is outside the defined family (0 or -1 mod p)")
    mu %= p
    lam = (-pow(mu + 1, p - 2, p)) % p
    if trace is None:
        trace = clausen_trace(ctx, lam)
    sign = ctx.chi(p - lam)
    value = Fraction(sign * (trace * trace - p), p)
    if not -3 <= value <= 3:
        raise ArithmeticError(f"A_{mu}({p}) = {value} escapes [-3, 3]")
    return AValue(mu, value)


def moment_by_loop(table, n: int, twisted: bool = False) -> int:
    total = 0
    for _, a, sign in entries(table):
        total += (sign if twisted else 1) * a ** (2 * n)
    return total


def interval_counts_by_loop(table, lo_sq, hi_sq) -> tuple[int, int, int, int]:
    """(N, M, H+, H-) over lambda with lo_sq <= (a_lambda / 2 sqrt(p))^2 <= hi_sq."""
    h_plus = h_minus = 0
    for _, a, sign in entries(table):
        if lo_sq <= Fraction(a * a, 4 * table.p) <= hi_sq:
            if sign > 0:
                h_plus += 1
            else:
                h_minus += 1
    return h_plus + h_minus, h_plus - h_minus, h_plus, h_minus


def a_value_by_loop(table) -> list[Fraction]:
    """A_lambda(p) = phi(-lambda) (a_lambda^2 - p) / p in lambda order."""
    return [Fraction(sign * (a * a - table.p), table.p) for _, a, sign in entries(table)]


def a_count_by_loop(table, lo, hi) -> int:
    return sum(1 for value in a_value_by_loop(table) if lo <= value <= hi)


def histogram_by_loop(table, bins: int) -> list[int]:
    """Left-closed bins [6k/bins - 3, 6(k+1)/bins - 3), the last one closed."""
    counts = [0] * bins
    for value in a_value_by_loop(table):
        k = (value + 3) * bins // 6
        counts[min(k, bins - 1)] += 1
    return counts


# Chebyshev values and coefficients by routes other than the library's
# recurrence table and power sums.


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


def chebyshev_sum_by_loop(summary, m: int, twisted: bool = False) -> Fraction:
    """sum_s w_s even_chebyshev(m, s^2, 4p) / (4p)^m, one term per |a| = s."""
    q = 4 * summary.p
    weights = summary.weights(twisted)
    return Fraction(sum(w * even_chebyshev(m, s * s, q) for s, w in enumerate(weights)), q**m)


# The class numbers the library reads, sliced from a dense table, and per-s
# reference loops for the identities, which the library evaluates from
# integer power sums. Every term of a loop is a Fraction read by ``star``
# straight from the dense table.


def class_numbers_along(table, t: int, n: int) -> ClassNumbersAlong:
    """12 H*(n - t k^2) for k = 0..isqrt(n // t), read from a dense table."""
    k = np.arange(isqrt(n // t) + 1)
    return ClassNumbersAlong(t, n, tuple(table.twelve_h[n - t * k * k].tolist()))


def dense_identity_table(table, p: int) -> tuple[ClassNumbersAlong, ClassNumbersAlong]:
    """What ``identity_table(p)`` returns, sliced from a dense table with d_max >= 4p."""
    return class_numbers_along(table, 1, p), class_numbers_along(table, 4, 4 * p)


def star(table, d: int) -> Fraction:
    """H*(D) from a dense table, for 0 <= D <= d_max."""
    return Fraction(int(table.twelve_h[d]), 12)


def bracket_coeff_by_loop(m: int, t: int, n: int, table) -> Fraction:
    """Coefficient of q^n in the m-th bracket, summed over every integer s
    with t s^2 <= n, s and -s apart."""
    root = isqrt(n // t)
    total = Fraction(0)
    for s in range(-root, root + 1):
        total += star(table, n - t * s * s) * even_chebyshev(m, t * s * s, n)
    return comb(2 * m, m) * total / 4**m


def _class_sum_by_loop(m: int, p: int, star_at) -> Fraction:
    q = 4 * p
    total = Fraction(0)
    for s in range(2, isqrt(q) + 1, 2):
        total += star_at(s) * even_chebyshev(m, s * s, q)
    return total / q**m


def class_sum_a_by_loop(m: int, p: int, table) -> Fraction:
    return _class_sum_by_loop(m, p, lambda s: 2 * star(table, p - (s // 2) ** 2))


def class_sum_b_by_loop(m: int, p: int, table) -> Fraction:
    return _class_sum_by_loop(m, p, lambda s: star(table, 4 * p - s * s))


def c_pm(p: int, n: int, sign: str) -> int:
    """((2a)^(2n) +- (2b)^(2n)) / 2 from the two-square decomposition of p,
    zero when p = 3 (mod 4)."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    squares = two_squares(p)
    if squares is None:
        return 0
    a, b = squares
    ta, tb = (2 * a) ** (2 * n), (2 * b) ** (2 * n)
    return (ta + tb) // 2 if sign == "+" else (ta - tb) // 2


def moment_rhs_by_loop(table, p: int, n: int, twisted: bool = False) -> Fraction:
    total = Fraction(0)
    for s in range(2, isqrt(4 * p - 1) + 1, 2):
        small = star(table, p - (s // 2) ** 2)  # (4p - s^2)/4
        big = star(table, 4 * p - s * s)
        weight = 4 * small - big if twisted else 2 * small + big
        total += weight * s ** (2 * n)
    return total - c_pm(p, n, "-" if twisted else "+")


def multiplicity_rhs_by_loop(table, p: int) -> list[tuple[Fraction, Fraction]]:
    """(count, phi-signed count) of lambda with |a_lambda| = s, for s = 0..isqrt(4p).

    The s = 0 pair is what the p - 2 lambdas, whose signs sum to -1, leave over.
    """
    squares = two_squares(p)
    ta, tb = (2 * squares[0], 2 * squares[1]) if squares else (0, 0)
    rhs = []
    for s in range(1, isqrt(4 * p) + 1):
        if s % 2:
            rhs.append((Fraction(0), Fraction(0)))
            continue
        small = star(table, p - (s // 2) ** 2)
        big = star(table, 4 * p - s * s)
        hit_a, hit_b = int(s == ta), int(s == tb)
        rhs.append((
            2 * small + big - Fraction(hit_a + hit_b, 2),
            4 * small - big - Fraction(hit_a - hit_b, 2),
        ))
    zero = (p - 2 - sum(plain for plain, _ in rhs), -1 - sum(signed for _, signed in rhs))
    return [zero] + rhs
