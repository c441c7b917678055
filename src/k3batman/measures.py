"""Limiting measures: the semicircular law, the O(3) ("Batman") law, and ear thresholds."""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT3_OVER_4PI = math.sqrt(3.0) / (4.0 * math.pi)

# The theorem's constants C of its discrepancy bounds C / p^(1/4): on the
# counts N, H+- and M, and on the A-values, the smaller inside (0, 3) or (-3, 0).
# Those of N and M end the error chains of selberg; the signed one sets p_min.
_BOUND_N, _BOUND_HPM, _BOUND_M = 26.52, 27.71, 28.89
_BOUND_BAT, _BOUND_BAT_SIGNED = 110.84, 55.42


def density_f(t: float) -> float:
    """Density (before the 1/4pi normalization) of the O(3) law on [-3, 3].

    Returns ``math.inf`` at t = +-1, the locations of the vertical
    asymptotes, so callers can still place the poles when plotting.
    """
    at = abs(t)
    if at == 1.0:
        return math.inf
    if at >= 3.0:
        return 0.0
    if at > 1.0:
        return math.sqrt((3.0 - at) / (1.0 + at))
    return math.sqrt((3.0 - t) / (1.0 + t)) + math.sqrt((3.0 + t) / (1.0 - t))


def mu_st(a: float, b: float) -> float:
    """Semicircular mass of [a, b] inside [0, 1], by the closed-form antiderivative."""
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    return _mu_st(a, b)


def _mu_st(a: float, b: float) -> float:
    if b <= a:
        return 0.0
    prim_b = math.asin(b) + b * math.sqrt(1.0 - b * b)
    prim_a = math.asin(a) + a * math.sqrt(1.0 - a * a)
    return (prim_b - prim_a) / math.pi


def _mu_bat_piece(a: float, b: float) -> float:
    # 0 <= a < b <= 3 and [a, b] does not straddle 1
    if b <= 1.0:
        return _mu_st(math.sqrt(1.0 + a) / 2.0, math.sqrt(1.0 + b) / 2.0) + _mu_st(
            math.sqrt(1.0 - b) / 2.0, math.sqrt(1.0 - a) / 2.0
        )
    return _mu_st(math.sqrt(1.0 + a) / 2.0, math.sqrt(1.0 + b) / 2.0)


def mu_bat(a: float, b: float) -> float:
    """O(3) mass of [a, b] inside [-3, 3].

    Computed through semicircular masses of transformed intervals (never by
    quadrature), after splitting at 0 and at the integrable poles +-1; the
    density is even, so negative pieces reflect onto [0, 3].
    """
    if not (-3.0 <= a < b <= 3.0):
        raise ValueError(f"need -3 <= a < b <= 3, got [{a}, {b}]")
    total = 0.0
    for lo, hi in ((a, min(b, 0.0)), (max(a, 0.0), b)):
        if hi <= lo:
            continue
        lo, hi = ((-hi, -lo) if hi <= 0.0 else (lo, hi))
        cut = min(max(1.0, lo), hi)
        if cut > lo:
            total += _mu_bat_piece(lo, cut)
        if hi > cut:
            total += _mu_bat_piece(cut, hi)
    return total


@dataclass(frozen=True)
class EarParameters:
    """Window data certifying the histogram height T + delta near t = +-1."""

    T: float
    delta: float
    x: float
    p_min: float


def optimal_delta(T: float) -> float:
    """The delta minimizing the prime threshold for a given target height T."""
    return math.sqrt(16.0 * math.pi**2 * T * T + 1.0) / (4.0 * math.pi)


def ear_parameters(T: float, delta: float | None = None) -> EarParameters:
    """Window width x and prime threshold p_min for density > T near t = +-1.

    x = 4 / (1 + 16 pi^2 (T+delta)^2) and p_min = (_BOUND_BAT_SIGNED / (x delta))^4;
    delta defaults to the optimal choice for the given T. Raises ValueError
    unless delta, x and p_min are finite positive floats.
    """
    if not T > SQRT3_OVER_4PI:
        raise ValueError(f"T must exceed sqrt(3)/(4 pi) = {SQRT3_OVER_4PI:.6f}, got {T}")
    if delta is None:
        delta = optimal_delta(T)
    try:
        x = 4.0 / (1.0 + 16.0 * math.pi**2 * (T + delta) ** 2)
        p_min = (_BOUND_BAT_SIGNED / (x * delta)) ** 4
    except (OverflowError, ZeroDivisionError):  # past the float range
        x = p_min = math.nan
    if not all(math.isfinite(v) and v > 0.0 for v in (delta, x, p_min)):
        raise ValueError(f"T={T}, delta={delta}: delta, x and p_min must be finite and "
                         "positive floats")
    return EarParameters(T, delta, x, p_min)
