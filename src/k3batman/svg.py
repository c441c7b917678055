"""Deterministic SVG histograms of the A-value distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clausen import TraceSummary
from .measures import density_f

WIDTH, HEIGHT = 720, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 56, 16, 16, 36
FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class HistogramSpec:
    """Histogram over the fixed support [-3, 3] with exact bin boundaries
    6k/bins - 3 and density-normalized bar heights count/(p * binwidth)."""

    p: int
    bins: int
    overlay: bool = False


def histogram_counts(summary: TraceSummary, bins: int) -> list[int]:
    """Exact bin assignment of the p-2 A-values; the buckets are left-closed
    with the last one absorbing A = 3.

    Bin k holds p A in [e_k, e_(k+1)), e_k = ceil(6pk / bins) - 3p, up to
    e_bins = 3p + 1: as p A = +-(a^2 - p), a^2 in [p + e_k, p + e_(k+1)) for
    phi(-lambda) = +1 and a^2 in [p + 1 - e_(k+1), p + 1 - e_k) for -1.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    p = summary.p
    if 6 * p * bins > np.iinfo(np.int64).max:
        raise ValueError(f"bins={bins} is too many for p={p}")
    edges = -(-6 * p * np.arange(bins + 1, dtype=np.int64) // bins) - 3 * p
    edges[-1] = 3 * p + 1
    plus = summary.below(p + edges)[:, 0]
    minus = summary.below(p + 1 - edges)[:, 1]
    return (np.diff(plus) - np.diff(minus)).tolist()


def _fmt(x: float) -> str:
    return format(x, ".4f")


def render_histogram(summary: TraceSummary, spec: HistogramSpec) -> str:
    """Standalone SVG document; output is a pure function of the inputs.
    Raises ValueError when ``spec`` is for another prime than ``summary``."""
    if spec.p != summary.p:
        raise ValueError(f"histogram spec for p={spec.p} given a summary for p={summary.p}")
    counts = histogram_counts(summary, spec.bins)
    p, bins = spec.p, spec.bins
    bin_width = 6.0 / bins
    heights = [c / (p * bin_width) for c in counts]

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    y_max = max(max(heights), 0.5) * 1.08

    def x_pix(t: float) -> float:
        return MARGIN_LEFT + (t + 3.0) / 6.0 * plot_w

    def y_pix(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - min(v, y_max) / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for k, h in enumerate(heights):
        lo = float(Fraction(6 * k, bins) - 3)
        x0, x1 = x_pix(lo), x_pix(lo + bin_width)
        y0 = y_pix(h)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(MARGIN_TOP + plot_h - y0)}" fill="#4878cf" stroke="none"/>'
        )
    if spec.overlay:
        ts = np.linspace(-3.0, 3.0, 1201)
        pts = []
        for t in ts:
            f = density_f(float(t)) / FOUR_PI  # y_pix puts the poles' inf at y_max
            pts.append(f"{_fmt(x_pix(float(t)))},{_fmt(y_pix(f))}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#d04040" '
            'stroke-width="1.5"/>'
        )
    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{_fmt(axis_y)}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{_fmt(axis_y)}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{_fmt(axis_y)}" stroke="black" stroke-width="1"/>'
    )
    for tick in (-3, -2, -1, 0, 1, 2, 3):
        x = x_pix(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 20)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{tick}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = frac * y_max
        y = y_pix(v)
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{_fmt(y + 4)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="end">{_fmt(v)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
