"""Exact Hurwitz class numbers and the trace-multiplicity summary they give."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .brackets import PowerSums
from .clausen import TraceSummary
from .field import require_prime, two_squares


@dataclass(frozen=True)
class HurwitzTable:
    """twelve_h[D] = 12 H*(D) for 0 <= D <= d_max.

    Storing twelve times the value keeps the table integral: the unit
    weights are 1/2 and 1/3, so the denominator always divides 12.
    """

    d_max: int
    twelve_h: np.ndarray  # int64


@dataclass(frozen=True)
class ClassNumbersAlong:
    """twelve[k] = 12 H*(n - t k^2) as an int, for k = 0..isqrt(n // t).

    The identities at p read class numbers along two parabolas alone,
    (t, n) = (1, p) and (4, 4p): ValueError for another t, or n < 1. When
    n / t is a square, the last value is 12 H*(0) = -1.
    """

    t: int
    n: int
    twelve: tuple[int, ...]

    def __post_init__(self):
        if self.t not in (1, 4):
            raise ValueError(f"t must be 1 or 4, got {self.t}")
        if self.n < 1 or len(self.twelve) != math.isqrt(self.n // self.t) + 1:
            raise ValueError(f"need n >= 1 and a value per k = 0..isqrt(n / t) along n - t k^2 "
                             f"for (t, n) = ({self.t}, {self.n}), got {len(self.twelve)} values")

    @cached_property
    def _power_sums(self) -> PowerSums:
        return PowerSums([self.twelve[0]] + [2 * x for x in self.twelve[1:]])  # k and -k

    def power_sums(self, lmax: int) -> list[int]:
        """sum over all integers k of twelve[|k|] k^(2l) for l = 0..lmax; see PowerSums."""
        return self._power_sums.upto(lmax)


# The largest d_max at which build_hurwitz_table sums in int32: its bound
# 24 (A + 1)^2, A = isqrt(d_max // 3), stays below 2^31 up to A = 9458.
_INT32_D_MAX = 3 * 9459**2 - 1
# The residues D mod 16 that build_hurwitz_table counts, in the order of its
# compressed array: entry 6q + r holds 12 H*(16q + _COUNTED[r]).
_COUNTED = np.array([3, 4, 7, 8, 11, 15])
# _COUNTED_SLOT[D % 16] is that r for a counted D, -1 for the others.
_COUNTED_SLOT = np.full(16, -1, dtype=np.int64)
_COUNTED_SLOT[_COUNTED] = np.arange(len(_COUNTED))
# Entries per row of a broadcast add at least: rows of 6a entries alone would
# leave the adds for small a bound by their loop.
_MIN_ROW = 1 << 14
# Window points per np.add.at of build_hurwitz_table, about: its scratch is
# O(_WINDOW_POINTS + sqrt(d_max)), not O(d_max) at the largest a.
_WINDOW_POINTS = 1 << 14
# Values of D expanded from the compressed array per step, rounded up to
# whole rows of 16.
_EXPAND_STEP = 1 << 16
# Values of N // 4 per step of the index-4 pass.
_DERIVE_STEP = 1 << 12


def _stratum_weights(residue: np.ndarray, m: int) -> np.ndarray:
    """What the strata with c > a add at each D mod m = 4a, given
    ``residue`` = -b^2 mod m for b = 0..a: 24 per b with -b^2 = D (mod m),
    for the pair +-b, less 12 at b = 0 and b = a, which have no pair."""
    weight = 24 * np.bincount(residue, minlength=m)
    weight[residue[0]] -= 12
    weight[residue[-1]] -= 12
    return weight


def build_hurwitz_table(d_max: int) -> HurwitzTable:
    """Batch-build 12 H*(D) for all D <= d_max in one pass per leading
    coefficient a of the reduced forms.

    A reduced form (a, b, c), primitive or not, with 0 <= b <= a <= c has
    D = 4ac - b^2. With c = a it contributes 12, 6 when it is a multiple of
    (1, 0, 1), 4 for a multiple of (1, 1, 1); with c > a it contributes 24
    for the pair +-b when 0 < b < a, and 12 for b = 0 and b = a.

    The forms are counted at 6 of every 16 D alone: D = 3 (mod 4), the forms
    of odd b, and D = 4, 8 (mod 16), the forms of even b with
    D/4 = 1, 2 (mod 4), which need a != 0 (mod 4). Their sums are kept in
    one compressed array, entry 6q + r for D = 16q + (3, 4, 7, 8, 11, 15)[r].
    For each a <= A = isqrt(d_max // 3), with m = 4a, the stratum of b is
    the progression D = m c - b^2, c > a, of step m; every stratum is live
    from D0, the first multiple of 16 at or above m(a + 1):

    - window, 3a^2 <= D < D0: for each b, the form (a, b, a) and the terms
      of its stratum below D0, split by c mod 4 into progressions of step
      16a in D and 6a in the compressed array, each counted throughout or
      not at all. One ``np.add.at`` per about _WINDOW_POINTS points adds
      them.
    - rows, D >= D0: D = -b^2 (mod m) picks out the strata. Their weights by
      D mod m (see _stratum_weights) repeat every 16a values of D, 6a
      compressed entries, so the compressed array from D0 on takes one
      broadcast add of that pattern, tiled to at least _MIN_ROW entries; the
      last partial row takes its matching prefix.

    The rows cost about (3/8) d_max sqrt(d_max / 3) contiguous adds in all,
    with no per-D factoring. Each a adds at most 24 (a + 1) to any D, so
    |12 H*(D)| <= 24 (A + 1)^2. While that is below 2^31 (d_max up to
    _INT32_D_MAX = 268418042) the sums are made in int32, which halves the
    bytes each row add moves, and above in int64; either way at the front
    of the int64 result's buffer. The compressed array is then expanded
    from the top down, _EXPAND_STEP values of D at a time: entry x lands at
    D >= 8x/3, above the bytes it occupies at either width, so a step
    overwrites only entries read already. D = 1, 2 (mod 4) are left 0.
    Last, one ascending pass derives each D = 0, 12 (mod 16), that is D = 4N
    with N = 0, 3 (mod 4), from 12 H*(N) and 12 H*(N/4) by the index-4
    relation of _twelve_h_four_times, and raises ArithmeticError unless the
    value is positive. So the build holds 8 bytes per D, and the table it
    returns is read-only int64.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    n = d_max + 1
    result = np.zeros(n, dtype=np.int64)
    # the counted D <= d_max: 6 per whole row of 16, and those of the partial row
    size = 6 * (n // 16) + int(np.searchsorted(_COUNTED, n % 16))
    twelve = (result.view(np.int32) if d_max <= _INT32_D_MAX else result)[:size]
    a_top = math.isqrt(d_max // 3)
    square = np.arange(a_top + 1, dtype=np.int64) ** 2
    # window weights by b and c - a = 0..4: the form (a, b, a) counts 6 at
    # b = 0, 12, and 4 at b = a; a stratum term 12 at b = 0, 24, and 12 at b = a
    weights = np.full((a_top + 1, 5), 24, dtype=twelve.dtype)
    weights[:, 0] = 12
    weights[0] = 6, 12, 12, 12, 12
    weights_b_is_a = np.array([[4, 12, 12, 12, 12]], dtype=twelve.dtype)
    for a in range(1, a_top + 1):
        m = 4 * a
        d0 = -(-m * (a + 1) // 16) * 16
        # For each b: the form (a, b, a) once, then the terms of its stratum
        # below D0 at c = a + s + 4k for s = 1..4, progressions of step 16a in
        # D and 6a in the compressed array, each counted throughout or not at all
        first = m * (a + np.arange(5)) - square[: a + 1, None]
        slot = _COUNTED_SLOT[first & 15]
        count = np.maximum(min(d0, n) + 16 * a - 1 - first, 0) // (16 * a)
        count[:, 0] = np.minimum(count[:, 0], 1)
        count[slot < 0] = 0
        live = count > 0
        entry, count = 6 * (first[live] >> 4) + slot[live], count[live]
        weight = np.concatenate((weights[:a], weights_b_is_a))[live]
        end = np.cumsum(count)
        total = int(end[-1]) if end.size else 0
        cuts = np.searchsorted(end, range(_WINDOW_POINTS, total, _WINDOW_POINTS), "right").tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(end)]):
            if lo < hi:
                c = count[lo:hi]
                skip = end[lo:hi] - c  # points of the window before each progression
                points = np.repeat(entry[lo:hi] - 6 * a * skip, c)
                points += np.arange(6 * a * skip[0], 6 * a * end[hi - 1], 6 * a)
                np.add.at(twelve, points, np.repeat(weight[lo:hi], c))
        start = 6 * (d0 // 16)
        if start >= size:
            continue
        by_residue = _stratum_weights(-square[: a + 1] % m, m)
        pattern = by_residue[(d0 + 16 * np.arange(a)[:, None] + _COUNTED) % m].ravel()
        pattern = np.tile(pattern.astype(twelve.dtype), -(-min(_MIN_ROW, size - start) // len(pattern)))
        rows = (size - start) // len(pattern)
        tail = start + rows * len(pattern)
        twelve[start:tail].reshape(rows, len(pattern))[...] += pattern
        twelve[tail:] += pattern[: size - tail]
    # expand from the top down, the partial row of 16 first
    step = -(-_EXPAND_STEP // 16)  # rows of 16 per step
    whole = n // 16
    top = twelve[6 * whole :].copy()
    result[16 * whole :] = 0
    result[16 * whole + _COUNTED[: len(top)]] = top
    for q1 in range(whole, 0, -step):
        q0 = max(q1 - step, 0)
        counted = twelve[6 * q0 : 6 * q1].copy()
        block = result[16 * q0 : 16 * q1].reshape(-1, 16)
        block[...] = 0
        block[:, _COUNTED] = counted.reshape(-1, 6)
    result[0] = -1
    n_top = d_max // 4
    k0 = 0
    while 4 * k0 <= n_top:
        # N = 4k and 4k + 3 for k0 <= k < k1 <= 4 k0. The entries read, at N
        # and N/4, are final: a derived one, at 4M, came from the step of
        # k = M // 4 < k0.
        k1 = min(max(4 * k0, 1), k0 + _DERIVE_STEP)
        big_n = (4 * np.arange(k0, k1)[:, None] + (0, 3)).ravel()
        big_n = big_n[(big_n > 0) & (big_n <= n_top)]
        quarter = np.where(big_n % 4 == 0, result[big_n >> 2], 0)
        derived = _twelve_h_four_times(big_n, result[big_n], quarter)
        bad = np.flatnonzero(derived <= 0)
        if bad.size:
            raise ArithmeticError(f"index-4 relation gave 12 H*({4 * int(big_n[bad[0]])}) <= 0")
        result[4 * big_n] = derived
        k0 = k1
    result.setflags(write=False)
    return HurwitzTable(d_max, result)


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
            if tail < n:  # c > a for every b
                twelve[tail:] += _stratum_weights(res, 4 * ai)[d[tail:] % (4 * ai)]
            if lo < hi:
                group_size[lo:hi] = np.bincount(res, minlength=4 * ai)[residue[lo:hi]]
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


def _twelve_h_four_times(n: np.ndarray, twelve_n: np.ndarray, twelve_quarter: np.ndarray) -> np.ndarray:
    """12 H*(4N) for N = 0, 3 (mod 4) by the index-4 Hecke relation

        H*(4N) = (3 - (-N/2)) H*(N) - 2 H*(N/4),

    from 12 H*(N) and 12 H*(N/4), where ``twelve_quarter`` is 0 unless 4 | N.
    The Kronecker symbol (-N/2) is 0 for even N, 1 for N = 7 (mod 8) and -1
    for N = 3 (mod 8). Off those residues the relation does not hold.
    """
    kronecker = np.where(n % 2 == 0, 0, np.where(n % 8 == 7, 1, -1))
    return (3 - kronecker) * twelve_n - 2 * twelve_quarter


def identity_table(p: int) -> tuple[ClassNumbersAlong, ClassNumbersAlong]:
    """The class numbers the moment and bracket identities read at p, along
    (t, n) = (1, p) and (4, 4p).

    Those are N = p - k^2 = (4p - s^2)/4 and 4N = 4p - s^2 for even
    s = 2k < 2 sqrt(p), k = 0 included: about 2 sqrt(p) values instead of the
    4p + 1 of a dense table.

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
    return (ClassNumbersAlong(1, p, tuple(twelve_n.tolist())),
            ClassNumbersAlong(4, 4 * p, tuple(twelve_4n.tolist())))


def multiplicity_rhs(along_p: ClassNumbersAlong, along_4p: ClassNumbersAlong) -> TraceSummary:
    """The trace-multiplicity summary at p, from the class numbers along
    (1, p) and (4, 4p) alone.

    Zero for odd s. For even s = 2k, with N = p - k^2, p = a^2 + b^2 (a odd)
    when p = 1 (mod 4) and a = b = 0 when p = 3 (mod 4),

        #{phi(-lambda) = +1} = (c_k 3 H*(N) - [k = a]) / 2,
        #{phi(-lambda) = -1} = (c_k (H*(4N) - H*(N)) - [k = b]) / 2,

    where c_k = 2 for k > 0, since s and -s both occur, and c_0 = 1. For
    k > 0 the sum and difference of these carry the weights 2 H*(N) + H*(4N)
    and 4 H*(N) - H*(4N) of the moment identities.

    Raises ArithmeticError if a count comes out negative or not an integer,
    or unless the columns total (p - 3) / 2 and (p - 1) / 2: the p - 2 signs
    phi(-lambda) sum to -1. That relation reads every class number of the
    summary, H*(p) and H*(4p) included.
    """
    p = along_p.n
    if (along_p.t, along_4p.t, along_4p.n) != (1, 4, 4 * p):
        raise ValueError(f"need class numbers along (1, p) and (4, 4p), got ({along_p.t}, {p}) "
                         f"and ({along_4p.t}, {along_4p.n})")
    a, b = two_squares(p) or (0, 0)
    small, big = np.array(along_p.twelve, dtype=np.int64), np.array(along_4p.twelve, dtype=np.int64)
    k = np.arange(len(small))
    pairs = np.where(k > 0, 2, 1)
    twenty_fourths = np.zeros((math.isqrt(4 * p) + 1, 2), dtype=np.int64)  # 24 times each count
    twenty_fourths[::2, 0] = pairs * 3 * small - 12 * (k == a)
    twenty_fourths[::2, 1] = pairs * (big - small) - 12 * (k == b)
    counts, rest = np.divmod(twenty_fourths, 24)
    bad = np.flatnonzero((rest != 0).any(axis=1) | (counts < 0).any(axis=1))
    if bad.size:
        raise ArithmeticError(
            f"class numbers give a negative or fractional count at |a| = {bad[0]}, p={p}")
    totals, expected = counts.sum(axis=0).tolist(), [(p - 3) // 2, (p - 1) // 2]
    if totals != expected:
        raise ArithmeticError(f"class numbers give {totals[0]} signs +1 and {totals[1]} signs -1 "
                              f"at p={p}, not {expected[0]} and {expected[1]}")
    return TraceSummary(p, counts)
