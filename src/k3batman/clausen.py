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

    ``traces[i]`` and ``signs[i]`` belong to lambda = i+1 (lambda = 0 and -1
    are singular). Traces of any signed integer type are accepted; the
    library makes them int16, or int32 past the ``narrow_width`` rule, so a
    table holds 3 bytes per lambda. A reader that squares one widens it to
    int64 first. Every statistic rests on the checks made here, once:
    ValueError unless both arrays have p - 2 entries, ArithmeticError unless
    the traces keep the Hasse bound and the signs are +-1 summing to -1.
    Both arrays are then made read-only in place.
    """

    p: int
    traces: np.ndarray  # int16 or int32 from the library, any signed integer type accepted
    signs: np.ndarray  # int8, values +-1

    def __post_init__(self):
        p, traces, signs = self.p, self.traces, self.signs
        if traces.shape != (p - 2,) or signs.shape != (p - 2,):
            raise ValueError(f"a trace table at p={p} needs {p - 2} traces and signs")
        check_hasse(p, traces)
        total = int(signs.sum())
        if np.count_nonzero(signs) != p - 2 or signs.min() < -1 or signs.max() > 1 or total != -1:
            raise ArithmeticError(f"trace signs at p={p} are not {p - 2} values +-1 "
                                  f"summing to -1: they sum to {total}")
        traces.setflags(write=False)
        signs.setflags(write=False)

    def __len__(self) -> int:
        return self.p - 2

    @cached_property
    def multiplicities(self) -> TraceSummary:
        """The TraceSummary of this table, counted _BLOCK entries at a time,
        so its scratch memory is O(_BLOCK)."""
        cells = 2 * math.isqrt(4 * self.p) + 2
        counts = np.zeros(cells, dtype=np.int64)
        scratch = np.empty(min(_BLOCK, len(self)), dtype=_cell_dtype(self.p))
        for i in range(0, len(self), _BLOCK):
            block = _cells(self, i, scratch[: len(self) - i])
            counts += np.bincount(block, minlength=cells)
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

    One direct character sum, with x and -x taken together, since they share
    x^2 + lambda:

        a_lambda = -[chi(-1) chi(lambda)
                     + sum_{x=1}^{(p-1)/2} chi(x^2 + lambda) (chi(x - 1) + chi(-x - 1))]

    This is the single-lambda path and the reference that the table kernel
    is tested against. x^2 + lambda < p^2 / 4 + p must fit int64.
    """
    p = ctx.p
    lam %= p
    if lam in (0, p - 1):
        raise ValueError(f"lambda={lam} is a singular member (0 or -1 mod p)")
    chi = ctx.chi_table
    half = (p - 1) // 2
    square = np.arange(1, half + 1, dtype=np.int64)  # x
    square *= square
    square += lam
    square -= square // p * p  # as in _mulmod
    pair = chi[:half].astype(np.int16)  # chi(x - 1)
    pair += chi[half : p - 1][::-1]  # chi(-x - 1) = chi(p - 1 - x)
    pair *= chi[square]
    return -(int(chi[p - 1]) * int(chi[lam]) + int(pair.sum(dtype=np.int64)))


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

    The traces are in the dtype of ``narrow_width``. Raises ArithmeticError
    when the float result strays RESIDUAL_LIMIT or more from the nearest
    integer, or when a trace breaks the Hasse bound; both are checked on the
    floats, before the cast could wrap a bad value.
    """
    p = ctx.p
    chi = ctx.chi_table.astype(np.float64)
    # each array is dropped after its last use: the build peaks at about 48
    # bytes per p (tracemalloc), not the 80 of all of them alive to the end
    x = np.arange(p, dtype=np.int64)
    w = np.bincount(x * x % p, weights=chi[(x - 1) % p], minlength=p)
    del x
    n = _fft_length(2 * p)
    spectrum = rfft(np.concatenate((chi, chi)), n)
    del chi
    w_spectrum = rfft(w, n)
    del w
    np.conjugate(w_spectrum, out=w_spectrum)
    spectrum *= w_spectrum
    del w_spectrum
    corr = irfft(spectrum, n)[1 : p - 1]  # lambda = 1..p-2
    del spectrum
    rounded = np.rint(corr)
    corr -= rounded
    residual = float(np.abs(corr, out=corr).max())
    del corr
    if not residual < RESIDUAL_LIMIT:
        raise ArithmeticError(
            f"FFT rounding residual {residual:.3g} >= {RESIDUAL_LIMIT} at p={p}"
        )
    check_hasse(p, rounded)
    traces = rounded.astype(np.int16 if narrow_width(p) else np.int32)
    np.negative(traces, out=traces)
    signs = ctx.chi_table[2:p][::-1].copy()  # signs[i] = chi(p - (i+1))
    return TraceTable(p, traces, signs)


# Entries per block of TraceTable.multiplicities, lambda_cells and
# place_by_mu: the scratch memory of each is O(_BLOCK), on top of its result.
_BLOCK = 1 << 15
# The largest cell kept in uint16; its sentinel 2^16 - 1 lies above it.
_UINT16_TOP = (1 << 16) - 2


def narrow_width(p: int) -> bool:
    """Whether the traces at p are int16 and their TraceSummary cells uint16,
    rather than both int32: while the largest cell, 2 isqrt(4p) + 1, is at
    most _UINT16_TOP. That is isqrt(4p) <= 32766, so every trace fits int16
    too; it fails once 4p >= 32767^2 (p about 2.7e8)."""
    return 2 * math.isqrt(4 * p) + 1 <= _UINT16_TOP


def _cell_dtype(p: int) -> type:
    return np.uint16 if narrow_width(p) else np.int32


def _cells(table: TraceTable, start: int, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the TraceSummary cell 2|a_lambda| + (phi(-lambda) < 0)
    of the table's entries start to start + len(out) - 1, and returned: the
    one place a cell is made from a trace."""
    stop = start + len(out)
    # exact, whatever the two dtypes: the table keeps the Hasse bound
    np.abs(table.traces[start:stop], out=out, casting="unsafe")
    out *= 2
    out += table.signs[start:stop] < 0
    return out


def lambda_cells(table: TraceTable) -> np.ndarray:
    """The TraceSummary cell of each lambda = 1..p-2, in lambda order, made
    _BLOCK entries at a time: uint16 under ``narrow_width``, else int32."""
    cells = np.empty(len(table), dtype=_cell_dtype(table.p))
    for i in range(0, len(table), _BLOCK):
        _cells(table, i, cells[i : i + _BLOCK])
    return cells


def _mulmod(a: np.ndarray, b, p: int) -> np.ndarray:
    """a * b mod p for 0 <= a, b < p, with p^2 < 2^63. The remainder is taken
    as a - (a // p) p: numpy divides by one scalar with a precomputed
    reciprocal, which makes this about twice as fast as its ``%``."""
    product = a * b
    quotient = product // p
    quotient *= p
    product -= quotient
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


def place_by_mu(p: int, cells: np.ndarray) -> np.ndarray:
    """The per-lambda ``cells`` of ``lambda_cells`` placed in mu order:
    entry i is the cell of lambda = -(mu+1)^(-1), for mu = i+1 = 1..p-2, in
    the dtype of ``cells``. An A-value depends on its trace only through
    this cell; ``cell_numerators`` maps it to p A. ValueError unless
    ``cells`` has p - 2 entries. Needs p^2 < 2^63.

    With g the least primitive root, x = mu + 1 = g^k has inverse g^(-k).
    One pass over two streams of blocks gives them: the powers of g, and the
    powers of g^(-1), each a base table of _BLOCK powers times g^k0 (or
    g^(-k0)) per block, so no p-length power or inverse table is made. Each
    block's cells are gathered at lambda - 1 = p - 1 - x^(-1) and written to
    entry x of an array over x = 0..p-1, filled with the type's largest
    value as a sentinel first, which no cell reaches. The result is that
    array from x = 2 on, a view: the size of ``cells``, and no other
    p-length array.

    Every check runs before the result is returned, in this order; each
    raises ArithmeticError. The p - 2 powers make p - 2 writes, so a
    sentinel left at no x in 2..p-1 makes x -> cell a bijection; else the
    least such x is named. Then x * x^(-1) = 1 (mod p) is checked in every
    block, across the two streams, and the first failure is named.
    """
    if cells.shape != (p - 2,):
        raise ValueError(f"placing cells at p={p} needs {p - 2} of them")
    g = field.primitive_root(p)
    sentinel = np.iinfo(cells.dtype).max
    placed = np.full(p, sentinel, dtype=cells.dtype)
    unpaired = None  # the first x whose two streams disagree, with its inverse
    for x, inv in zip(_power_blocks(g, p), _power_blocks(pow(g, -1, p), p)):
        if unpaired is None:
            bad = np.flatnonzero(_mulmod(x, inv, p) != 1)
            if bad.size:
                unpaired = int(x[bad[0]]), int(inv[bad[0]])
        # lambda - 1, past the cells only where x = 1 or the streams disagree:
        # clipped, since x = 1 writes outside the result and the rest raise below
        index = np.subtract(p - 1, inv, out=inv)
        placed[x] = cells.take(index, mode="clip")
    if placed[2:].max() == sentinel:  # no p-byte mask unless some x was missed
        least = 2 + int(np.argmax(placed[2:] == sentinel))
        raise ArithmeticError(
            f"modular inverse check failed at p={p}: x={least} is no power of g={g}"
        )
    if unpaired is not None:
        raise ArithmeticError("modular inverse check failed at p={}: x={}, inverse {}"
                              .format(p, *unpaired))
    return placed[2:]


def a_value_cells(table: TraceTable) -> np.ndarray:
    """The TraceSummary cell of lambda = -(mu+1)^(-1), for mu = 1..p-2 in mu
    order: ``a_value_cells(table)[i]`` belongs to mu = i+1. The cells of
    ``lambda_cells``, placed by ``place_by_mu``."""
    return place_by_mu(table.p, lambda_cells(table))


def cell_numerators(p: int) -> np.ndarray:
    """p A for each TraceSummary cell: s^2 - p at cell 2s (phi(-lambda) = +1)
    and p - s^2 at cell 2s + 1, for 0 <= s <= isqrt(4p). int32 when
    3p < 2^31, else int64; every |p A| <= 3p by the Hasse bound."""
    s = np.arange(math.isqrt(4 * p) + 1, dtype=np.int64)
    plus = s * s - p
    return np.stack((plus, -plus), axis=1).ravel().astype(np.int32 if 3 * p < 1 << 31 else np.int64)


def a_numerators(table: TraceTable) -> np.ndarray:
    """p A_mu(p) = phi(-lambda) (a_lambda^2 - p) for mu = 1..p-2, in mu order,
    with lambda = -(mu+1)^(-1): ``a_numerators(table)[i]`` belongs to mu = i+1.
    The numerators of ``a_value_cells``, in the dtype of ``cell_numerators``."""
    return cell_numerators(table.p)[a_value_cells(table)]


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
