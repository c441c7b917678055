"""Empirical interval counts and discrepancy verification against explicit bounds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clausen import TraceSummary
from .measures import _BOUND_BAT, _BOUND_BAT_SIGNED, _BOUND_HPM, _BOUND_M, _BOUND_N, mu_bat, mu_st

STATISTICS = ("clausen_N", "clausen_Hpm", "clausen_M", "batman")

_PASS_SLACK = 1e-12


def as_rational(x) -> Fraction:
    """Snap an endpoint to an exact rational; floats map to their exact
    binary value. A non-finite float raises ValueError, as any bad endpoint
    does."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"need a finite endpoint, got {x}")
    return Fraction(x) if isinstance(x, (int, float)) else Fraction(str(x))


@dataclass(frozen=True)
class IntervalCounts:
    n_total: int
    m_signed: int
    h_plus: int
    h_minus: int


def interval_counts_squared(summary: TraceSummary, lo_sq, hi_sq) -> IntervalCounts:
    """Counts with the endpoints given as exact squared bounds.

    Membership means lo_sq <= (a/2 sqrt(p))^2 <= hi_sq, decided through the
    integer comparison 4p*lo_sq <= a^2 <= 4p*hi_sq; this lets callers use
    endpoints like sqrt(1+a)/2 whose squares are rational.
    """
    lo_sq, hi_sq = as_rational(lo_sq), as_rational(hi_sq)
    (lo_n, lo_d), (hi_n, hi_d) = lo_sq.as_integer_ratio(), hi_sq.as_integer_ratio()
    if not (0 <= lo_n and lo_n * hi_d < hi_n * lo_d and hi_n <= hi_d):
        raise ValueError(f"need 0 <= lo^2 < hi^2 <= 1, got [{lo_sq}, {hi_sq}]")
    return _counts(*summary.below(_square_window(4 * summary.p, lo_n, lo_d, hi_n, hi_d)))


def interval_counts(summary: TraceSummary, lo, hi) -> IntervalCounts:
    """Counts of lambda with |a_lambda| / 2 sqrt(p) in [lo, hi] in [0, 1]:
    total N, character-signed M, and the per-sign counts H+-."""
    return _counts(*summary.below(_unit_window(summary.p, as_rational(lo), as_rational(hi))))


def _unit_window(p: int, lo: Fraction, hi: Fraction) -> list[int]:
    """The a^2 window of |a| / 2 sqrt(p) in [lo, hi]; ValueError unless
    0 <= lo < hi <= 1."""
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if not (0 <= lo_n and lo_n * hi_d < hi_n * lo_d and hi_n <= hi_d):
        raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")
    return _square_window(4 * p, lo_n * lo_n, lo_d * lo_d, hi_n * hi_n, hi_d * hi_d)


def _square_window(q: int, lo_n, lo_d, hi_n, hi_d) -> list[int]:
    """The first and one past the last a^2 in [ceil(q lo_n / lo_d),
    floor(q hi_n / hi_d)], in integers: denominators are positive."""
    return [-(-q * lo_n // lo_d), q * hi_n // hi_d + 1]


def _counts(start, end) -> IntervalCounts:
    h_plus, h_minus = (end - start).tolist()
    return IntervalCounts(h_plus + h_minus, h_plus - h_minus, h_plus, h_minus)


def empirical_A_count(summary: TraceSummary, lo, hi) -> int:
    """Number of mu with A_mu(p) in [lo, hi], decided on exact rationals.

    Counting over mu equals counting over lambda because the reindexing map
    is a bijection of the parameter set.
    """
    return int(_a_count(summary.below(_a_window(summary.p, as_rational(lo), as_rational(hi)))))


def _a_window(p: int, lo: Fraction, hi: Fraction) -> list[int]:
    """The a^2 windows of A in [lo, hi]: their two starts, then their two
    stops, for phi(-lambda) = +1 and -1. As p A = phi(-lambda)(a^2 - p), A
    is in [lo, hi] where a^2 is in [p + ceil(p lo), p + floor(p hi)] for +1
    and in [p - floor(p hi), p - ceil(p lo)] for -1. ValueError unless
    -3 <= lo < hi <= 3."""
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if not (-3 * lo_d <= lo_n and lo_n * hi_d < hi_n * lo_d and hi_n <= 3 * hi_d):
        raise ValueError(f"need -3 <= lo < hi <= 3, got [{lo}, {hi}]")
    low, high = -(-p * lo_n // lo_d), p * hi_n // hi_d
    return [p + low, p - high, p + high + 1, p - low + 1]


def _a_count(below: np.ndarray):
    """The count of A-values from ``below`` of an ``_a_window``, or from each
    such row of four: +1 in window 0, -1 in window 1."""
    return below[..., 2, 0] - below[..., 0, 0] + below[..., 3, 1] - below[..., 1, 1]


@dataclass(frozen=True)
class ReportRow:
    lo: Fraction
    hi: Fraction
    empirical: Fraction
    target: float
    gap: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class DiscrepancyReport:
    p: int
    statistic: str
    rows: list[ReportRow]
    max_gap: float
    all_pass: bool


def _batman_bound(lo: Fraction, hi: Fraction, scale: float) -> float:
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    # inside (0, 3) or (-3, 0), compared in integers: denominators are positive
    signed = (lo_n > 0 and hi_n < 3 * hi_d) or (lo_n > -3 * lo_d and hi_n < 0)
    return (_BOUND_BAT_SIGNED if signed else _BOUND_BAT) / scale


def discrepancy_report(summary: TraceSummary, grid, which: str) -> DiscrepancyReport:
    """Per-interval gaps between empirical frequencies and the limit measure.

    ``which`` selects the statistic: total counts against twice the
    semicircular mass, per-sign counts against the semicircular mass (two
    rows per interval), signed counts against zero, or A-values against the
    O(3) mass. Each statistic carries its own p^(-1/4) bound constant.
    Every interval's a^2 windows are worked out first and counted in one
    ``TraceSummary.below`` call.
    """
    if which not in STATISTICS:
        raise ValueError(f"unknown statistic {which!r}; choose from {STATISTICS}")
    p = summary.p
    scale = p**0.25
    grid = list(grid)  # read twice: for the windows, then for the rows
    window, width = (_a_window, 4) if which == "batman" else (_unit_window, 2)
    windows = (window(p, as_rational(lo), as_rational(hi)) for lo, hi in grid)
    ends = np.fromiter(itertools.chain.from_iterable(windows), np.int64, width * len(grid))
    below = summary.below(ends.reshape(len(grid), width))
    del ends
    if which == "batman":
        counts = _a_count(below).tolist()
    else:
        counts = zip(*(below[:, 1] - below[:, 0]).T.tolist())  # (h_plus, h_minus) per interval
    del below
    rows: list[ReportRow] = []
    for (raw_lo, raw_hi), count in zip(grid, counts):
        lo, hi = as_rational(raw_lo), as_rational(raw_hi)
        if which == "batman":
            _append_row(rows, p, lo, hi, count, mu_bat(float(lo), float(hi)),
                        _batman_bound(lo, hi, scale))
            continue
        h_plus, h_minus = count
        if which == "clausen_N":
            target = 2.0 * mu_st(float(lo), float(hi))
            _append_row(rows, p, lo, hi, h_plus + h_minus, target, _BOUND_N / scale)
        elif which == "clausen_M":
            _append_row(rows, p, lo, hi, h_plus - h_minus, 0.0, _BOUND_M / scale)
        else:  # clausen_Hpm: one row per character sign
            target = mu_st(float(lo), float(hi))
            _append_row(rows, p, lo, hi, h_plus, target, _BOUND_HPM / scale)
            _append_row(rows, p, lo, hi, h_minus, target, _BOUND_HPM / scale)
    max_gap = max((row.gap for row in rows), default=0.0)
    return DiscrepancyReport(p, which, rows, max_gap, all(row.passed for row in rows))


def _append_row(rows, p, lo, hi, count, target, bound):
    empirical = Fraction(count, p)
    gap = abs(count / p - target)  # float(empirical): both round count / p once
    rows.append(ReportRow(lo, hi, empirical, target, gap, bound, gap <= bound + _PASS_SLACK))


def uniform_grid(lo, hi, k: int) -> list[tuple[Fraction, Fraction]]:
    """k consecutive intervals with exact rational endpoints covering [lo, hi]."""
    if k < 1:
        raise ValueError("need at least one interval")
    lo, hi = as_rational(lo), as_rational(hi)
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    # lo + i (hi - lo) / k over the common denominator lo_d hi_d k
    start, step, den = lo_n * hi_d * k, hi_n * lo_d - lo_n * hi_d, lo_d * hi_d * k
    ends = [Fraction(start + i * step, den) for i in range(k + 1)]
    return list(zip(ends, ends[1:]))
