"""Empirical interval counts and discrepancy verification against explicit bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .clausen import TraceSummary
from .measures import mu_bat, mu_st

STATISTICS = ("clausen_N", "clausen_Hpm", "clausen_M", "batman")

_BOUND_N = 26.52
_BOUND_HPM = 27.71
_BOUND_M = 28.89
_BOUND_BAT = 110.84
_BOUND_BAT_SIGNED = 55.42

_PASS_SLACK = 1e-12


def as_rational(x) -> Fraction:
    """Snap an endpoint to an exact rational; floats map to their exact
    binary value."""
    if isinstance(x, Fraction):
        return x
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
    if not 0 <= lo_sq < hi_sq <= 1:
        raise ValueError(f"need 0 <= lo^2 < hi^2 <= 1, got [{lo_sq}, {hi_sq}]")
    q = 4 * summary.p
    start, end = summary.below([math.ceil(q * lo_sq), math.floor(q * hi_sq) + 1])
    h_plus, h_minus = (end - start).tolist()
    return IntervalCounts(h_plus + h_minus, h_plus - h_minus, h_plus, h_minus)


def interval_counts(summary: TraceSummary, lo, hi) -> IntervalCounts:
    """Counts of lambda with |a_lambda| / 2 sqrt(p) in [lo, hi] in [0, 1]:
    total N, character-signed M, and the per-sign counts H+-."""
    lo, hi = as_rational(lo), as_rational(hi)
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")
    return interval_counts_squared(summary, lo * lo, hi * hi)


def empirical_A_count(summary: TraceSummary, lo, hi) -> int:
    """Number of mu with A_mu(p) in [lo, hi], decided on exact rationals.

    Counting over mu equals counting over lambda because the reindexing map
    is a bijection of the parameter set. As p A = phi(-lambda)(a^2 - p), it
    counts a^2 in [p + ceil(p lo), p + floor(p hi)] for phi(-lambda) = +1
    and in [p - floor(p hi), p - ceil(p lo)] for -1.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if not -3 <= lo < hi <= 3:
        raise ValueError(f"need -3 <= lo < hi <= 3, got [{lo}, {hi}]")
    p = summary.p
    low, high = math.ceil(p * lo), math.floor(p * hi)
    start, end = summary.below([[p + low, p - high], [p + high + 1, p - low + 1]])
    return int(end[0, 0] - start[0, 0] + end[1, 1] - start[1, 1])  # +1 in window 0, -1 in 1


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
    signed = (lo > 0 and hi < 3) or (lo > -3 and hi < 0)  # inside (0, 3) or (-3, 0)
    return (_BOUND_BAT_SIGNED if signed else _BOUND_BAT) / scale


def discrepancy_report(summary: TraceSummary, grid, which: str) -> DiscrepancyReport:
    """Per-interval gaps between empirical frequencies and the limit measure.

    ``which`` selects the statistic: total counts against twice the
    semicircular mass, per-sign counts against the semicircular mass (two
    rows per interval), signed counts against zero, or A-values against the
    O(3) mass. Each statistic carries its own p^(-1/4) bound constant.
    """
    if which not in STATISTICS:
        raise ValueError(f"unknown statistic {which!r}; choose from {STATISTICS}")
    p = summary.p
    scale = p**0.25
    rows: list[ReportRow] = []
    for raw_lo, raw_hi in grid:
        lo, hi = as_rational(raw_lo), as_rational(raw_hi)
        if which == "batman":
            _append_row(rows, p, lo, hi, empirical_A_count(summary, lo, hi),
                        mu_bat(float(lo), float(hi)), _batman_bound(lo, hi, scale))
            continue
        counts = interval_counts(summary, lo, hi)
        if which == "clausen_N":
            target = 2.0 * mu_st(float(lo), float(hi))
            _append_row(rows, p, lo, hi, counts.n_total, target, _BOUND_N / scale)
        elif which == "clausen_M":
            _append_row(rows, p, lo, hi, counts.m_signed, 0.0, _BOUND_M / scale)
        else:  # clausen_Hpm: one row per character sign
            target = mu_st(float(lo), float(hi))
            _append_row(rows, p, lo, hi, counts.h_plus, target, _BOUND_HPM / scale)
            _append_row(rows, p, lo, hi, counts.h_minus, target, _BOUND_HPM / scale)
    max_gap = max((row.gap for row in rows), default=0.0)
    return DiscrepancyReport(p, which, rows, max_gap, all(row.passed for row in rows))


def _append_row(rows, p, lo, hi, count, target, bound):
    empirical = Fraction(count, p)
    gap = abs(float(empirical) - target)
    rows.append(ReportRow(lo, hi, empirical, target, gap, bound, gap <= bound + _PASS_SLACK))


def uniform_grid(lo, hi, k: int) -> list[tuple[Fraction, Fraction]]:
    """k consecutive intervals with exact rational endpoints covering [lo, hi]."""
    if k < 1:
        raise ValueError("need at least one interval")
    lo, hi = as_rational(lo), as_rational(hi)
    step = (hi - lo) / k
    return [(lo + i * step, lo + (i + 1) * step) for i in range(k)]
