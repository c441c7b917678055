"""Trace tables by one FFT correlation, for primes the direct kernel cannot reach.

Since chi is multiplicative,

    a_lambda = -sum_x chi(x - 1) chi(x^2 + lambda) = -sum_u w(u) chi(u + lambda)

with w(u) = sum_{x^2 = u} chi(x - 1). All p traces are therefore one cyclic
correlation of w with chi, computed here as a linear correlation against chi
doubled, zero-padded to a power of two >= 2p so that no index wraps.

The benchmark keeps this generator even once the library has a fast kernel
of its own, so that the warm workload's input never shifts with the code
under measurement.
"""

from __future__ import annotations

import math
import random

import numpy as np

from k3batman.clausen import TraceTable, clausen_trace
from k3batman.field import FieldContext, make_context

# Every correlation value is an integer; a float result further than this
# from the nearest integer means the transform lost too much precision.
RESIDUAL_LIMIT = 0.25
SPOT_CHECKS = 8


def correlation_traces(ctx: FieldContext) -> tuple[np.ndarray, float]:
    """Traces for lambda = 0..p-1 and the largest float rounding residual."""
    p = ctx.p
    chi = ctx.chi_table.astype(np.float64)
    x = np.arange(p, dtype=np.int64)
    w = np.bincount(x * x % p, weights=chi[(x - 1) % p], minlength=p)
    n = 1 << (2 * p - 1).bit_length()
    spectrum = np.conj(np.fft.rfft(w, n)) * np.fft.rfft(np.concatenate((chi, chi)), n)
    corr = np.fft.irfft(spectrum, n)[:p]
    rounded = np.rint(corr)
    residual = float(np.abs(corr - rounded).max())
    return -rounded.astype(np.int64), residual


def generate_trace_table(p: int, seed: int) -> TraceTable:
    """The trace table of ``build_trace_table``, guarded three ways.

    Raises ArithmeticError when the rounding residual reaches RESIDUAL_LIMIT,
    when a trace breaks the Hasse bound, or when a seeded sample of lambdas
    disagrees with the direct single-lambda sum ``clausen_trace``.
    """
    ctx = make_context(p)
    all_traces, residual = correlation_traces(ctx)
    if residual >= RESIDUAL_LIMIT:
        raise ArithmeticError(f"FFT rounding residual {residual} >= {RESIDUAL_LIMIT} at p={p}")
    traces = all_traces[1 : p - 1].copy()  # lambda = 1..p-2
    if int(np.abs(traces).max()) > math.isqrt(4 * p):
        raise ArithmeticError(f"Hasse bound violated by the FFT traces at p={p}")
    rng = random.Random(seed)
    for lam in rng.sample(range(1, p - 1), min(SPOT_CHECKS, p - 2)):
        direct = clausen_trace(ctx, lam)
        if direct != int(traces[lam - 1]):
            raise ArithmeticError(
                f"FFT trace {int(traces[lam - 1])} != direct trace {direct} "
                f"at p={p}, lambda={lam}"
            )
    signs = ctx.chi_table[2:p][::-1].copy()  # signs[i] = chi(-(i+1))
    return TraceTable(p, traces, signs)
