import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3batman import (
    build_trace_table,
    discrepancy_report,
    empirical_A_count,
    interval_counts,
    interval_counts_squared,
    make_context,
    uniform_grid,
)
from util import primes_up_to

SMALL_PRIMES = [p for p in primes_up_to(200) if p >= 5]


@pytest.fixture(scope="module")
def summary5():
    return build_trace_table(make_context(5)).multiplicities


@pytest.fixture(scope="module")
def summaries200():
    return {p: build_trace_table(make_context(p)).multiplicities for p in SMALL_PRIMES}


def test_interval_count_examples(summary5):
    counts = interval_counts(summary5, Fraction(2, 5), Fraction(1, 2))
    assert (counts.n_total, counts.m_signed, counts.h_plus, counts.h_minus) == (2, 0, 1, 1)
    counts = interval_counts(summary5, 0, 1)
    assert (counts.n_total, counts.m_signed, counts.h_plus, counts.h_minus) == (3, -1, 1, 2)
    assert interval_counts(summary5, Fraction(9, 10), 1).n_total == 0


def test_interval_count_validation(summary5):
    with pytest.raises(ValueError):
        interval_counts(summary5, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        interval_counts(summary5, 0, Fraction(11, 10))


def test_empirical_a_count_examples(summary5):
    assert empirical_A_count(summary5, -3, 3) == 3
    assert type(empirical_A_count(summary5, -3, 3)) is int  # a Python int, not a numpy one
    assert empirical_A_count(summary5, 0, 1) == 2
    assert empirical_A_count(summary5, Fraction(1, 2), 1) == 1
    with pytest.raises(ValueError):
        empirical_A_count(summary5, -4, 0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(SMALL_PRIMES),
    num1=st.integers(min_value=0, max_value=1000),
    num2=st.integers(min_value=0, max_value=1000),
)
def test_split_counts_consistent(p, num1, num2, summaries200):
    assume(num1 != num2)
    lo, hi = sorted((Fraction(num1, 1000), Fraction(num2, 1000)))
    counts = interval_counts(summaries200[p], lo, hi)
    assert counts.n_total == counts.h_plus + counts.h_minus
    assert counts.m_signed == counts.h_plus - counts.h_minus


def test_split_identity_random_rational_intervals(summaries200):
    rng = random.Random(1234)
    intervals = []
    while len(intervals) < 20:
        den = rng.randint(10, 400)
        a, b = sorted(rng.randint(0, den) for _ in range(2))
        if a < b:
            intervals.append((Fraction(a, den), Fraction(b, den)))
    for p, summary in summaries200.items():
        for a, b in intervals:
            direct = empirical_A_count(summary, a, b)
            plus = interval_counts_squared(summary, (1 + a) / 4, (1 + b) / 4)
            minus = interval_counts_squared(summary, (1 - b) / 4, (1 - a) / 4)
            assert direct == plus.h_plus + minus.h_minus


def test_boundary_membership_is_exact(summaries200):
    # an interval whose endpoint squares hit a trace exactly must include it
    summary = summaries200[5]
    exact = Fraction(1, 5)  # (2 / (2 sqrt 5))^2 = 1/5 picks out |a| = 2
    counts = interval_counts_squared(summary, exact, Fraction(1, 4))
    assert counts.n_total == 2
    counts = interval_counts_squared(summary, Fraction(1, 4), Fraction(1, 2))
    assert counts.n_total == 0


def test_uniform_grid_exact():
    grid = uniform_grid(-3, 3, 60)
    assert len(grid) == 60
    assert grid[0][0] == -3 and grid[-1][1] == 3
    for (lo, hi), (lo2, _) in zip(grid, grid[1:]):
        assert hi == lo2
        assert hi - lo == Fraction(1, 10)


@pytest.mark.parametrize("end", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", [
    lambda s, end: interval_counts(s, 0, end),
    lambda s, end: interval_counts_squared(s, 0, end),
    lambda s, end: empirical_A_count(s, -3, end),
    lambda s, end: discrepancy_report(s, [(0, end)], "clausen_N"),
    lambda s, end: uniform_grid(0, end, 3),
], ids=["interval_counts", "interval_counts_squared", "empirical_A_count",
        "discrepancy_report", "uniform_grid"])
def test_non_finite_endpoint_is_a_value_error(summary5, call, end):
    with pytest.raises(ValueError, match="need a finite endpoint"):
        call(summary5, end)


def test_discrepancy_report_p5_batman(summary5):
    report = discrepancy_report(summary5, uniform_grid(-3, 3, 10), "batman")
    assert report.all_pass  # the bound exceeds any probability gap at p=5
    assert report.statistic == "batman"
    assert len(report.rows) == 10
    assert report.max_gap == max(row.gap for row in report.rows)
    for row in report.rows:
        assert row.passed == (row.gap <= row.bound + 1e-12)
    assert any(row.empirical > 0 for row in report.rows)


def test_discrepancy_report_row_shapes(summary5):
    report = discrepancy_report(summary5, uniform_grid(0, 1, 8), "clausen_Hpm")
    assert len(report.rows) == 16  # one row per character sign
    report = discrepancy_report(summary5, uniform_grid(0, 1, 8), "clausen_M")
    assert all(row.target == 0.0 for row in report.rows)
    with pytest.raises(ValueError):
        discrepancy_report(summary5, uniform_grid(0, 1, 4), "unknown")


@pytest.mark.parametrize("which", ["clausen_N", "clausen_Hpm", "clausen_M", "batman"])
def test_discrepancy_report_counts_every_window_in_one_below_call(summaries200, monkeypatch,
                                                                   which):
    """The rows' counts against interval_counts and empirical_A_count per
    interval, on random rational grids given as a generator, with one
    ``below`` call per report."""
    rng = random.Random(which)
    span = 3 if which == "batman" else 1
    lo_end = -span if which == "batman" else 0
    for p in (5, 101, 199):
        summary = summaries200[p]
        grid = []
        for _ in range(30):
            a, b = sorted(Fraction(rng.randint(lo_end * 64, span * 64), 64) for _ in range(2))
            if a < b:
                grid.append((a, b))
        if which == "batman":
            expected = [empirical_A_count(summary, lo, hi) for lo, hi in grid]
        else:
            counts = [interval_counts(summary, lo, hi) for lo, hi in grid]
            expected = {
                "clausen_N": [c.n_total for c in counts],
                "clausen_M": [c.m_signed for c in counts],
                "clausen_Hpm": [n for c in counts for n in (c.h_plus, c.h_minus)],
            }[which]
        below, calls = type(summary).below, []
        monkeypatch.setattr(type(summary), "below",
                            lambda self, square: calls.append(1) or below(self, square))
        report = discrepancy_report(summary, (interval for interval in grid), which)
        monkeypatch.undo()
        assert len(calls) == 1
        assert [row.empirical * p for row in report.rows] == expected, p
        assert discrepancy_report(summary, [], which).rows == []


def test_batman_bound_constant_selection(summary5):
    scale = 5**0.25
    report = discrepancy_report(
        summary5,
        [(Fraction(-3), Fraction(3)), (Fraction(1, 10), Fraction(29, 10)),
         (Fraction(-29, 10), Fraction(-1, 10)), (Fraction(0), Fraction(1))],
        "batman",
    )
    bounds = [row.bound for row in report.rows]
    assert bounds[0] == pytest.approx(110.84 / scale)
    assert bounds[1] == pytest.approx(55.42 / scale)  # sign-definite, open in (0, 3)
    assert bounds[2] == pytest.approx(55.42 / scale)
    assert bounds[3] == pytest.approx(110.84 / scale)  # touches 0


def test_batman_gap_shrinks_with_p(table_1009, table_10007, table_93283):
    grid = uniform_grid(-3, 3, 40)
    gaps = [
        discrepancy_report(table.multiplicities, grid, "batman").max_gap
        for table in (table_1009, table_10007, table_93283)
    ]
    increases = [max(0.0, b - a) for a, b in zip(gaps, gaps[1:])]
    assert sum(1 for inc in increases if inc > 0) <= 1
    assert all(inc <= 0.005 for inc in increases)
