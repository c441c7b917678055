"""Frobenius traces of the curves y^2 = (x-1)(x^2+lambda) and exact moments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np
from numpy.fft import irfft, rfft

from . import field
from .brackets import PowerSums, _chebyshev_combination
from .field import FieldContext


@dataclass(frozen=True)
class TraceTable:
    """Traces a_lambda and twist signs phi(-lambda) for lambda = 1..p-2.

    ``traces[i]`` and ``signs[i]`` belong to lambda = i+1; the singular
    members lambda = 0 and lambda = -1 are excluded. ``build_trace_table``
    and a cache load give int32 traces, since |a| <= 2 sqrt(p); any signed
    integer array is accepted, and every reader that squares a trace widens
    it to int64 first.
    """

    p: int
    traces: np.ndarray  # int32 from the library, any signed integer type accepted
    signs: np.ndarray  # int8, values +-1

    def __len__(self) -> int:
        return self.p - 2

    @cached_property
    def multiplicities(self) -> TraceSummary:
        """The TraceSummary of this table, counted _BLOCK entries at a time,
        so its scratch memory is O(_BLOCK); raises ArithmeticError when a
        trace breaks the Hasse bound."""
        check_hasse(self.p, self.traces)  # so every cell is a row of the summary
        cells = 2 * math.isqrt(4 * self.p) + 2
        counts = np.zeros(cells, dtype=np.int64)
        for i in range(0, len(self.traces), _BLOCK):
            cell = np.abs(self.traces[i : i + _BLOCK], dtype=np.int64)
            cell *= 2
            cell += self.signs[i : i + _BLOCK] < 0
            counts += np.bincount(cell, minlength=cells)
        return TraceSummary(self.p, counts.reshape(-1, 2))


def check_hasse(p: int, traces: np.ndarray) -> None:
    """Raise ArithmeticError unless every |trace| <= isqrt(4p).

    Compares the Python ints of the largest and least trace, so it is exact
    for float traces and at the least value of a signed type, where np.abs
    wraps back to a negative number.
    """
    bound = math.isqrt(4 * p)
    top = max(int(traces.max()), -int(traces.min()))
    if top > bound:
        raise ArithmeticError(f"Hasse bound violated at p={p}: |a| = {top} > {bound}")


@dataclass(frozen=True)
class TraceSummary:
    """Counts ``counts[s, 0]`` / ``counts[s, 1]`` of lambda = 1..p-2 with
    |a_lambda| = s and phi(-lambda) = +1 / -1, for 0 <= s <= isqrt(4p).

    Every statistic reads a trace only through a^2 and the sign, so these
    about 2 sqrt(p) pairs stand in for the p-2 entries. The counts are kept
    as a read-only int64 copy; ValueError unless of shape (isqrt(4p) + 1, 2).
    """

    p: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        shape = (math.isqrt(4 * self.p) + 1, 2)
        if counts.shape != shape:
            raise ValueError(f"summary counts at p={self.p} need shape {shape}, got {counts.shape}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceSummary):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.counts, other.counts)

    def weights(self, twisted: bool = False) -> list[int]:
        """Per |a| = s, the number of lambda, or their phi(-lambda)-signed sum."""
        plus, minus = self.counts.T
        return (plus - minus if twisted else plus + minus).tolist()

    @cached_property
    def _prefix(self) -> tuple[np.ndarray, np.ndarray]:
        squares = np.arange(len(self.counts), dtype=np.int64) ** 2
        return squares, np.concatenate(([[0, 0]], self.counts.cumsum(axis=0)))

    def below(self, square) -> np.ndarray:
        """Per sign phi(-lambda) = +1, -1, the number of lambda with a^2 < square:
        a row of two for an int, one such row per entry of an int array."""
        squares, cumulative = self._prefix
        return np.take(cumulative, np.searchsorted(squares, square), axis=0)  # a copy, not a view

    @cached_property
    def _power_sums(self) -> tuple[PowerSums, PowerSums]:
        return PowerSums(self.weights()), PowerSums(self.weights(twisted=True))

    def power_sums(self, lmax: int, twisted: bool = False) -> list[int]:
        """sum over s of weights(twisted)[s] s^(2l) for l = 0..lmax; see PowerSums."""
        return self._power_sums[twisted].upto(lmax)


def clausen_trace(ctx: FieldContext, lam: int) -> int:
    """Trace p+1-#E for the curve with parameter lambda (not 0 or -1).

    One direct character sum over x; this is the single-lambda path and the
    reference that the table kernel is tested against.
    """
    p = ctx.p
    if lam % p in (0, p - 1):
        raise ValueError(f"lambda={lam} is a singular member (0 or -1 mod p)")
    x = np.arange(p, dtype=np.int64)
    # (x-1)(x^2+lam) stays below 2p^2 < 2^63, so a single final reduction is
    # enough; chi of the product is taken so that a vanishing factor correctly
    # yields chi(0) = 0.
    values = (x - 1) % p * (x * x % p + lam % p) % p
    return -int(ctx.chi_table[values].sum())


# Every correlation value is an integer; a float result further than this
# from the nearest integer means the transform lost too much precision.
RESIDUAL_LIMIT = 0.25


def _fft_length(m: int) -> int:
    """Smallest 5-smooth integer >= m.

    Such lengths factor into small radices; a prime length would go through
    Bluestein's algorithm, several times slower.
    """
    best = 1 << (m - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 * (1 << (-(-m // f35) - 1).bit_length()))
            f35 *= 3
        f5 *= 5
    return best


def build_trace_table(ctx: FieldContext) -> TraceTable:
    """All p-2 traces in ascending lambda order, by one FFT correlation.

    Since chi is multiplicative,

        a_lambda = -sum_x chi(x - 1) chi(x^2 + lambda) = -sum_u w(u) chi(u + lambda)

    with w(u) = sum_{x^2 = u} chi(x - 1), so all traces are one cyclic
    correlation of w with chi. It is computed as a linear correlation against
    chi doubled, zero-padded to a smooth length >= 2p so that no index wraps.

    The traces are int32. Raises ArithmeticError when the float result
    strays RESIDUAL_LIMIT or more from the nearest integer, or when a trace
    breaks the Hasse bound; both are checked on the floats, before the cast
    to int32 could wrap a bad value.
    """
    p = ctx.p
    chi = ctx.chi_table.astype(np.float64)
    x = np.arange(p, dtype=np.int64)
    w = np.bincount(x * x % p, weights=chi[(x - 1) % p], minlength=p)
    n = _fft_length(2 * p)
    spectrum = rfft(np.concatenate((chi, chi)), n)
    w_spectrum = rfft(w, n)
    np.conjugate(w_spectrum, out=w_spectrum)
    spectrum *= w_spectrum
    del w_spectrum
    corr = irfft(spectrum, n)[1 : p - 1]  # lambda = 1..p-2
    rounded = np.rint(corr)
    residual = float(np.abs(corr - rounded).max())
    if not residual < RESIDUAL_LIMIT:
        raise ArithmeticError(
            f"FFT rounding residual {residual:.3g} >= {RESIDUAL_LIMIT} at p={p}"
        )
    check_hasse(p, rounded)
    traces = rounded.astype(np.int32)
    np.negative(traces, out=traces)
    signs = ctx.chi_table[2:p][::-1].copy()  # signs[i] = chi(p - (i+1))
    table = TraceTable(p, traces, signs)
    table.traces.setflags(write=False)
    table.signs.setflags(write=False)
    return table


# Entries per block of TraceTable.multiplicities and powers per block of
# a_numerators: the scratch memory of each is O(_BLOCK), on top of its result.
_BLOCK = 1 << 16


def _mulmod(a: np.ndarray, b, p: int) -> np.ndarray:
    """a * b mod p for 0 <= a, b < p, with p^2 < 2^63. The remainder is taken
    as a - (a // p) p: numpy divides by one scalar with a precomputed
    reciprocal, which makes this about twice as fast as its ``%``."""
    product = a * b
    product -= product // p * p
    return product


def _power_blocks(g: int, p: int) -> Iterator[np.ndarray]:
    """g^k mod p for k = 1..p-2, in int64 blocks of up to _BLOCK powers.

    Block k0 covers k = k0..k0+_BLOCK-1: the base table g^0..g^(_BLOCK-1),
    made once by ``field.powers``, times the scalar g^k0. The first block
    leaves out k = 0. Needs p^2 < 2^63 for the int64 products.
    """
    base = field.powers(g, p, min(_BLOCK, p - 1))  # read through the module at call time
    for k0 in range(0, p - 1, _BLOCK):
        block = _mulmod(base[: p - 1 - k0], pow(g, k0, p), p)
        yield block[1:] if k0 == 0 else block


def a_numerators(table: TraceTable) -> np.ndarray:
    """p A_mu(p) = phi(-lambda) (a_lambda^2 - p) for mu = 1..p-2, in mu order,
    with lambda = -(mu+1)^(-1): ``a_numerators(table)[i]`` belongs to mu = i+1.

    With g the least primitive root, x = mu + 1 = g^k has inverse g^(-k).
    Two streams of blocks give them: the powers of g, and the powers of
    g^(-1), each a base table of _BLOCK powers times g^k0 (or g^(-k0)) per
    block, so no p-length power or inverse table is made. Each block's traces
    and signs are gathered at lambda - 1 = p - 1 - x^(-1), widened to int64
    before squaring, and scattered to x - 2. The result is int32 when
    3p < 2^31, else int64; it and a one-byte mask over x are the only
    p-length arrays. Needs p^2 < 2^63.

    Every check runs before the result is returned, in this order; each
    raises ArithmeticError. A first pass over the powers of g marks each x
    and names the least x in 2..p-1 that g^1..g^(p-2) miss. The second pass
    checks x * x^(-1) = 1 (mod p) in every block, across the two streams,
    and that every numerator lies in [-3p, 3p], which also catches a trace
    beyond the Hasse bound.
    """
    p = table.p
    g = field.primitive_root(p)
    reached = np.zeros(p, dtype=bool)
    for x in _power_blocks(g, p):
        reached[x] = True  # p - 2 powers; all of 2..p-1 leaves none for 0 or 1
    least = 2 + int(np.argmin(reached[2:]))  # the least x missed, if any
    if not reached[least]:
        raise ArithmeticError(
            f"modular inverse check failed at p={p}: x={least} is no power of g={g}"
        )
    del reached
    num = np.empty(p - 2, dtype=np.int32 if 3 * p < 1 << 31 else np.int64)
    for x, inv in zip(_power_blocks(g, p), _power_blocks(pow(g, -1, p), p)):
        bad = np.flatnonzero(_mulmod(x, inv, p) != 1)
        if bad.size:
            i = int(bad[0])
            raise ArithmeticError(f"modular inverse check failed at p={p}: "
                                  f"x={int(x[i])}, inverse {int(inv[i])}")
        index = p - 1 - inv  # lambda - 1
        a = table.traces[index].astype(np.int64, copy=False)
        block = table.signs[index] * (a * a - p)
        if int(np.abs(block).max()) > 3 * p:
            raise ArithmeticError(f"an A-value escapes [-3, 3] at p={p}: Hasse bound violated")
        num[x - 2] = block.astype(num.dtype, copy=False)  # cast first: a faster scatter
    return num


def moment(summary: TraceSummary, n: int, twisted: bool = False) -> int:
    """Exact 2n-th power moment, optionally twisted by phi(-lambda).

    Summed over the distinct |a| in Python integers: a^(2n) reaches (4p)^n,
    which overflows fixed-width words already at modest (p, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return summary.power_sums(n, twisted)[n]


def chebyshev_sum(summary: TraceSummary, m: int, twisted: bool = False) -> Fraction:
    """Exact sum of U_{2m}(a_lambda / 2 sqrt(p)), optionally twisted.

    Only even powers of the argument occur, so each term is a rational with
    denominator (4p)^m; the sum is the power sums' combination over it.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    q = 4 * summary.p
    return Fraction(_chebyshev_combination(m, 1, q, summary.power_sums(m, twisted)), q**m)
