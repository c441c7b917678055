"""Exact Hurwitz class numbers and the class-number sides of the moment identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import require_prime, two_squares


@dataclass(frozen=True)
class HurwitzTable:
    """twelve_h[D] = 12 H*(D) for 0 <= D <= d_max.

    Storing twelve times the value keeps the table integral: the unit
    weights are 1/2 and 1/3, so the denominator always divides 12.
    """

    d_max: int
    twelve_h: np.ndarray  # int64

    def star(self, d: int) -> Fraction:
        """H*(D); zero for D < 0 and off the 0,3 (mod 4) residues."""
        if d < 0:
            return Fraction(0)
        if d > self.d_max:
            raise ValueError(f"D={d} exceeds table range d_max={self.d_max}")
        return Fraction(int(self.twelve_h[d]), 12)


def twelfths(h: Fraction) -> int:
    """12 h as an integer; every H* value has a denominator dividing 12."""
    return h.numerator * (12 // h.denominator)


def hurwitz_star(table: HurwitzTable, d: int) -> Fraction:
    return table.star(d)


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
            if math.gcd(math.gcd(a, b), c) == 1:
                h += 1
        a += 1
    omega = 3 if d == 3 else 2 if d == 4 else 1
    return h, omega


def build_hurwitz_table(d_max: int) -> HurwitzTable:
    """Batch-build 12 H*(D) for all D <= d_max in one reduced-form sweep.

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
    table = HurwitzTable(d_max, twelve)
    table.twelve_h.setflags(write=False)
    return table


# Leading coefficients a handled per vectorised pass over the window pairs of
# twelve_h_at; bounds the memory of that pass to O(_A_BLOCK * len(D)).
_A_BLOCK = 64


def _count_reduced_forms(d: np.ndarray) -> np.ndarray:
    """12 H*(D) for sorted, distinct D > 0 with D = 0, 3 (mod 4); see twelve_h_at."""
    n = len(d)
    twelve = np.zeros(n, dtype=np.int64)
    a_top = math.isqrt(int(d[-1]) // 3)
    b = np.arange(a_top + 1, dtype=np.int64)
    neg_sq = -b * b
    for a0 in range(1, a_top + 1, _A_BLOCK):
        a = np.arange(a0, min(a0 + _A_BLOCK, a_top + 1), dtype=np.int64)
        first = np.searchsorted(d, 3 * a * a)  # window 3a^2 <= D <= 4a^2 ...
        bulk = np.searchsorted(d, 4 * a * a, side="right")  # ... bulk D > 4a^2
        # window pairs (D, a) of this block, grouped by a
        size = bulk - first
        stop = np.cumsum(size)
        pair_a = np.repeat(a, size)
        pair_d = np.arange(int(stop[-1])) - np.repeat(stop - size - first, size)
        residue = d[pair_d] % (4 * pair_a)
        group_size = np.empty_like(residue)
        # (residue, b) sort keys of every a in the block, offset to be disjoint
        span = 4 * a * (a + 1)
        key_base = np.cumsum(span) - span
        keys = []
        for ai, lo, hi, tail, base in zip(
            a.tolist(), (stop - size).tolist(), stop.tolist(), bulk.tolist(), key_base.tolist()
        ):
            res = neg_sq[: ai + 1] % (4 * ai)  # -b^2 mod 4a for b = 0..a
            counts = np.bincount(res, minlength=4 * ai)
            if tail < n:
                # c > a for every b: 24 for the pair +-b, 12 for b = 0 and b = a
                weight = 24 * counts
                weight[0] -= 12
                weight[res[ai]] -= 12
                twelve[tail:] += weight[d[tail:] % (4 * ai)]
            if lo < hi:
                group_size[lo:hi] = counts[residue[lo:hi]]
                keys.append(np.sort(res * (ai + 1) + b[: ai + 1]) + base)
        # Only window pairs with some b of the right residue have forms.
        hit = group_size > 0
        if not hit.any():
            continue
        pair_a, pair_d, residue, group_size = pair_a[hit], pair_d[hit], residue[hit], group_size[hit]
        keys = np.concatenate(keys)
        gap = 4 * pair_a * pair_a - d[pair_d]  # 0 <= gap <= a^2
        t = np.sqrt(gap).astype(np.int64)  # exact on squares; undo a round-up
        t -= t * t > gap
        group = key_base[pair_a - a0] + residue * (pair_a + 1)
        # c > a needs b > t; those are the group's b above its first t + 1 keys
        above = group_size - (np.searchsorted(keys, group + t + 1) - np.searchsorted(keys, group))
        top_in = (residue == (-pair_a * pair_a) % (4 * pair_a)) & (t < pair_a)
        weight = 24 * above - 12 * top_in
        # c = a: the form (a, t, a) when gap = t^2, weighted as in the dense sweep
        square = t * t == gap
        weight += np.where(square, np.where(t == pair_a, 4, np.where(t == 0, 6, 12)), 0)
        twelve += np.bincount(pair_d, weights=weight, minlength=n).astype(np.int64)
    return twelve


def twelve_h_at(discriminants) -> np.ndarray:
    """12 H*(D) at each D of ``discriminants`` (a 1-d integer array, D >= 0).

    Makes the reduced-form count of :func:`build_hurwitz_table` for these D
    alone, by a loop over a <= sqrt(max D / 3). A reduced form (a, b, c) with
    0 <= b <= a needs 4ac = D + b^2, so -b^2 = D (mod 4a):

    - bulk, D > 4a^2: every such b has c > a, so the count is one lookup
      D mod 4a in the histogram of -b^2 mod 4a, weighted 24 for the pair +-b
      with 0 < b < a and 12 for b = 0 and b = a;
    - window, 3a^2 <= D <= 4a^2: c > a needs b^2 > 4a^2 - D. The b are
      sorted by the key residue*(a+1) + b, and two binary searches count the
      ones of D's residue at or below t = isqrt(4a^2 - D). When 4a^2 - D = t^2
      the form (a, t, a) adds 4, 6 or 12 as in the dense sweep.

    The cost is O(sqrt(max D) * len(D)) with no table of size max D.
    """
    d = np.asarray(discriminants, dtype=np.int64)
    if d.ndim != 1:
        raise ValueError("discriminants must be a 1-d array")
    if d.size and int(d.min()) < 0:
        raise ValueError("discriminants must be >= 0")
    twelve = np.zeros(len(d), dtype=np.int64)
    twelve[d == 0] = -1
    # D = 1, 2 (mod 4) is not a discriminant: H* is 0 there
    wanted = (d > 0) & (d % 4 != 1) & (d % 4 != 2)
    if wanted.any():
        distinct, where = np.unique(d[wanted], return_inverse=True)
        twelve[wanted] = _count_reduced_forms(distinct)[where]
    return twelve


@dataclass(frozen=True)
class SparseHurwitzTable:
    """12 H*(D) at a fixed set of D, read through the HurwitzTable interface.

    ``star`` is 0 for D < 0, like HurwitzTable's, and raises ValueError for any
    other D it does not hold, so an unheld value is never read as 0.
    """

    d_max: int
    twelve_h: dict[int, int]

    def star(self, d: int) -> Fraction:
        if d < 0:
            return Fraction(0)
        try:
            return Fraction(self.twelve_h[d], 12)
        except KeyError:
            raise ValueError(f"D={d} is not held by this table") from None


def identity_table(p: int) -> SparseHurwitzTable:
    """H* at the discriminants the moment and bracket identities read at p.

    Those are (4p - s^2)/4 = p - k^2 and 4p - s^2 = 4(p - k^2) for even
    s = 2k < 2 sqrt(p), k = 0 included: about 2 sqrt(p) values instead of the
    4p + 1 of a dense table. ``d_max`` is 4p, as for the dense table the
    identities check it against.
    """
    require_prime(p)
    k = np.arange(math.isqrt(p) + 1, dtype=np.int64)
    discriminants = np.concatenate((p - k * k, 4 * (p - k * k)))
    values = twelve_h_at(discriminants)
    return SparseHurwitzTable(4 * p, dict(zip(discriminants.tolist(), values.tolist())))


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


def multiplicity_rhs(table: HurwitzTable, p: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Class-number side of #{lambda : |a_lambda| = s}, plain and
    phi(-lambda)-signed, for every 0 < s <= isqrt(4p).

    Zero for odd s. For even s, the weights of ``moment_rhs``,
    2 H*((4p-s^2)/4) + H*(4p-s^2) and 4 H*((4p-s^2)/4) - H*(4p-s^2), less
    ([s = 2a] +- [s = 2b]) / 2 for p = a^2 + b^2 with a odd: each moment
    identity is the sum of these times s^(2n).
    """
    if table.d_max < 4 * p:
        raise ValueError(f"table covers D <= {table.d_max}, need 4p = {4 * p}")
    squares = two_squares(p)
    ta, tb = (2 * squares[0], 2 * squares[1]) if squares else (0, 0)
    rhs = {}
    for s in range(1, math.isqrt(4 * p) + 1):
        if s % 2:
            rhs[s] = (Fraction(0), Fraction(0))
            continue
        small = table.star(p - (s // 2) ** 2)  # (4p - s^2)/4
        big = table.star(4 * p - s * s)
        hit_a, hit_b = int(s == ta), int(s == tb)
        rhs[s] = (
            2 * small + big - Fraction(hit_a + hit_b, 2),
            4 * small - big - Fraction(hit_a - hit_b, 2),
        )
    return rhs


def moment_rhs(table: HurwitzTable, p: int, n: int, twisted: bool = False) -> Fraction:
    """Class-number side of the 2n-th (twisted) trace moment, exact.

    Runs over even s with 0 < s < 2 sqrt(p); weights are
    2 H*((4p-s^2)/4) + H*(4p-s^2) untwisted and
    4 H*((4p-s^2)/4) - H*(4p-s^2) twisted, minus the two-square correction.
    The sum is taken in twelfths, in integers, with one Fraction at the end.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if table.d_max < 4 * p:
        raise ValueError(f"table covers D <= {table.d_max}, need 4p = {4 * p}")
    total = 0
    for s in range(2, math.isqrt(4 * p - 1) + 1, 2):
        small = twelfths(table.star(p - (s // 2) ** 2))  # (4p - s^2)/4
        big = twelfths(table.star(4 * p - s * s))
        weight = 4 * small - big if twisted else 2 * small + big
        total += weight * s ** (2 * n)
    return Fraction(total, 12) - c_pm(p, n, "-" if twisted else "+")
