"""Exact Hurwitz class numbers and the trace-multiplicity summary they give."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from .clausen import TraceSummary
from .field import require_prime, two_squares


class _ClassNumberReader:
    """What the identities read from a table of 12 H*(D): single values
    through ``twelve``, and integer power sums along n - t s^2."""

    def twelve(self, d: int) -> int:
        raise NotImplementedError

    def star(self, d: int) -> Fraction:
        """H*(D) = twelve(D) / 12; zero for D < 0 and off the 0,3 (mod 4) residues."""
        return Fraction(self.twelve(d), 12)

    @cached_property
    def _along(self) -> dict:
        return {}

    def power_sums(self, t: int, n: int, lmax: int) -> list[int]:
        """sum of 12 H*(n - t s^2) s^(2l) over s >= 1 with t s^2 < n, for
        l = 0..lmax.

        The values along n - t s^2 are read once per table and (t, n); the
        sums are kept, and extended when a larger ``lmax`` is asked for.
        """
        memo = self._along.get((t, n))
        if memo is None:
            squares = [s * s for s in range(1, math.isqrt((n - 1) // t) + 1)]
            memo = self._along[t, n] = ([self.twelve(n - t * x) for x in squares], squares, [])
        terms, squares, sums = memo  # terms[s - 1] = 12 H*(n - t s^2) s^(2 len(sums))
        while len(sums) <= lmax:
            sums.append(sum(terms))
            terms[:] = map(mul, terms, squares)
        return sums[: lmax + 1]


@dataclass(frozen=True)
class HurwitzTable(_ClassNumberReader):
    """twelve_h[D] = 12 H*(D) for 0 <= D <= d_max.

    Storing twelve times the value keeps the table integral: the unit
    weights are 1/2 and 1/3, so the denominator always divides 12.
    """

    d_max: int
    twelve_h: np.ndarray  # int64

    def twelve(self, d: int) -> int:
        """12 H*(D) as an int; zero for D < 0."""
        if d < 0:
            return 0
        if d > self.d_max:
            raise ValueError(f"D={d} exceeds table range d_max={self.d_max}")
        return int(self.twelve_h[d])


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
class SparseHurwitzTable(_ClassNumberReader):
    """12 H*(D) at a fixed set of D, read through the HurwitzTable interface.

    ``twelve`` and ``star`` are 0 for D < 0, like HurwitzTable's, and raise
    ValueError for any other D the table does not hold, so an unheld value is
    never read as 0.
    """

    d_max: int
    twelve_h: dict[int, int]

    def twelve(self, d: int) -> int:
        if d < 0:
            return 0
        try:
            return self.twelve_h[d]
        except KeyError:
            raise ValueError(f"D={d} is not held by this table") from None


def _twelve_h_four_times(n: np.ndarray, twelve_n: np.ndarray, twelve_quarter: np.ndarray) -> np.ndarray:
    """12 H*(4N) for N = 0, 3 (mod 4) by the index-4 Hecke relation

        H*(4N) = (3 - (-N/2)) H*(N) - 2 H*(N/4),

    from 12 H*(N) and 12 H*(N/4), where ``twelve_quarter`` is 0 unless 4 | N.
    The Kronecker symbol (-N/2) is 0 for even N, 1 for N = 7 (mod 8) and -1
    for N = 3 (mod 8). Off those residues the relation does not hold.
    """
    kronecker = np.where(n % 2 == 0, 0, np.where(n % 8 == 7, 1, -1))
    return (3 - kronecker) * twelve_n - 2 * twelve_quarter


def identity_table(p: int) -> SparseHurwitzTable:
    """H* at the discriminants the moment and bracket identities read at p.

    Those are (4p - s^2)/4 = N = p - k^2 and 4p - s^2 = 4N for even
    s = 2k < 2 sqrt(p), k = 0 included: about 2 sqrt(p) values instead of the
    4p + 1 of a dense table. ``d_max`` is 4p, as for the dense table the
    identities check it against.

    Every N and every 4N with N = 1, 2 (mod 4) is counted by
    :func:`twelve_h_at`; 4N with N = 0, 3 (mod 4) follows from N and N/4 by
    the index-4 relation, and raises ArithmeticError unless it is positive.
    """
    require_prime(p)
    k = np.arange(math.isqrt(p) + 1, dtype=np.int64)
    n = p - k * k
    derived = (n % 4 == 0) | (n % 4 == 3)
    whole = n % 4 == 0  # where the N/4 term applies
    counted = twelve_h_at(np.concatenate((n, 4 * n[~derived], n[whole] // 4)))
    twelve_n, direct, quarter = np.split(counted, np.cumsum([len(n), np.count_nonzero(~derived)]))
    twelve_quarter = np.zeros_like(n)
    twelve_quarter[whole] = quarter
    twelve_4n = _twelve_h_four_times(n, twelve_n, twelve_quarter)
    bad = derived & (twelve_4n <= 0)
    if bad.any():
        raise ArithmeticError(f"index-4 relation gave 12 H*({4 * int(n[bad][0])}) <= 0 at p={p}")
    twelve_4n[~derived] = direct
    discriminants = np.concatenate((n, 4 * n))
    values = np.concatenate((twelve_n, twelve_4n))
    return SparseHurwitzTable(4 * p, dict(zip(discriminants.tolist(), values.tolist())))


def multiplicity_rhs(table: HurwitzTable, p: int) -> TraceSummary:
    """The trace-multiplicity summary at p, from class numbers alone.

    Zero for odd s. For even s = 2k > 0, with N = p - k^2 and p = a^2 + b^2
    (a odd; no bracket terms when p = 3 (mod 4)),

        #{phi(-lambda) = +1} = 3 H*(N) - [s = 2a] / 2,
        #{phi(-lambda) = -1} = H*(4N) - H*(N) - [s = 2b] / 2;

    their sum and difference carry the weights 2 H*(N) + H*(4N) and
    4 H*(N) - H*(4N) of the moment identities. The s = 0 row makes up the
    column totals: the p - 2 signs phi(-lambda) sum to -1, so (p - 3) / 2 of
    them are +1 and (p - 1) / 2 are -1.

    Raises ArithmeticError if a count comes out negative or not an integer.
    """
    if table.d_max < 4 * p:
        raise ValueError(f"table covers D <= {table.d_max}, need 4p = {4 * p}")
    squares = two_squares(p)
    ta, tb = (2 * squares[0], 2 * squares[1]) if squares else (0, 0)
    twelfths = np.zeros((math.isqrt(4 * p) + 1, 2), dtype=np.int64)  # 12 times each count
    for s in range(2, len(twelfths), 2):
        small = table.twelve(p - (s // 2) ** 2)
        big = table.twelve(4 * p - s * s)
        twelfths[s] = 3 * small - 6 * (s == ta), big - small - 6 * (s == tb)
    twelfths[0] = 6 * (p - 3) - twelfths[:, 0].sum(), 6 * (p - 1) - twelfths[:, 1].sum()
    counts, rest = np.divmod(twelfths, 12)
    bad = np.flatnonzero((rest != 0).any(axis=1) | (counts < 0).any(axis=1))
    if bad.size:
        raise ArithmeticError(
            f"class numbers give a negative or fractional count at |a| = {bad[0]}, p={p}")
    return TraceSummary(p, counts)
