"""Prime-field context: quadratic character table and two-square decompositions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Deterministic Miller-Rabin witness set: the primes up to 41 decide every n
# below psi_13 = _MR_LIMIT, the least strong pseudoprime to all of them, and
# miller_rabin_witness raises ValueError at or above it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def miller_rabin_witness(n: int) -> int | None:
    """Return a witness proving ``n`` composite, or None when ``n`` is prime."""
    if n < 2:
        return n
    if n >= _MR_LIMIT:
        raise ValueError(f"n={n} is out of the certified primality range n < {_MR_LIMIT}")
    for small in _MR_WITNESSES:
        if n == small:
            return None
        if n % small == 0:
            return small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return a
    return None


def is_prime(n: int) -> bool:
    return n >= 2 and miller_rabin_witness(n) is None


@dataclass(frozen=True)
class FieldContext:
    """A prime p >= 5 together with the full Legendre-symbol table.

    ``chi_table[x]`` is chi(x) in {-1, 0, +1}; the table is immutable after
    construction and safe for unlimited concurrent readers.
    """

    p: int
    chi_table: np.ndarray

    def chi(self, x: int) -> int:
        if not 0 <= x < self.p:
            raise ValueError(f"field element {x} out of range for p={self.p}")
        return int(self.chi_table[x])


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime >= 5, naming a Miller-Rabin
    witness when p is composite."""
    witness = miller_rabin_witness(p) if p >= 2 else None
    if witness is not None:
        raise ValueError(f"p={p} is composite (Miller-Rabin witness {witness})")
    if p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")


def make_context(p: int) -> FieldContext:
    """Build the quadratic-character context for a prime p >= 5.

    The table is filled by marking the squares x^2 mod p for
    x = 1..(p-1)/2, which costs O(p) total instead of an Euler-criterion
    power per query.
    """
    require_prime(p)
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    x = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[(x * x) % p] = 1
    table = FieldContext(p, chi)
    table.chi_table.setflags(write=False)
    return table


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod a prime p >= 5.

    g generates it when g^((p-1)/q) != 1 (mod p) for every prime q | p-1;
    the q come from trial division of p - 1.
    """
    require_prime(p)
    factors, n, q = [], p - 1, 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


def powers(g: int, p: int, count: int) -> np.ndarray:
    """g^k mod p for k = 0..count-1, in int64, for count >= 1.

    Doubling: with g^0..g^(k-1) known, g^k..g^(2k-1) is that block times g^k,
    so about log2(count) vectorised steps. Every product is below p^2, so
    p^2 < 2^63 is required.
    """
    table = np.empty(count, dtype=np.int64)
    table[0] = 1
    k, g_k = 1, g % p
    while k < count:
        m = min(k, count - k)
        block = table[k : k + m]
        np.multiply(table[:m], g_k, out=block)
        block %= p
        k += m
        g_k = g_k * g_k % p
    return table


def require_inverse_range(p: int) -> None:
    """Raise ValueError unless p is a prime >= 5 with p^2 < 2^63."""
    require_prime(p)
    if p * p >= 1 << 63:
        raise ValueError(f"p={p} is too large: inverses in int64 need p^2 < 2^63")


def two_squares(p: int) -> tuple[int, int] | None:
    """Write p = a^2 + b^2 with a odd and b > 0; None when p = 3 (mod 4).

    Uses Cornacchia's descent: take a square root of -1 mod p, then run the
    Euclidean algorithm on (p, root) until the remainder drops below sqrt(p).
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if p % 4 != 1:
        return None
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    root = pow(n, (p - 1) // 4, p)
    hi, lo = p, root
    while lo * lo > p:
        hi, lo = lo, hi % lo
    other = math.isqrt(p - lo * lo)
    if lo * lo + other * other != p:  # cannot happen for prime p = 1 (mod 4)
        raise ArithmeticError(f"two-square descent failed for p={p}")
    a, b = (lo, other) if lo % 2 == 1 else (other, lo)
    return a, b
