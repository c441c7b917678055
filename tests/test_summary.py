"""The trace-multiplicity summary and the statistics that read it, against
per-lambda reference loops."""

import dataclasses
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    TraceSummary,
    TraceTable,
    build_trace_table,
    chebyshev_sum,
    discrepancy_report,
    build_hurwitz_table,
    empirical_A_count,
    identity_table,
    interval_counts,
    interval_counts_squared,
    make_context,
    moment,
    multiplicity_rhs,
    uniform_grid,
)
from k3batman import hurwitz
from k3batman.cli import dispatch
from k3batman.svg import histogram_counts
from util import (
    a_count_by_loop,
    a_value_by_loop,
    class_numbers_along,
    dense_identity_table,
    entries,
    histogram_by_loop,
    interval_counts_by_loop,
    moment_by_loop,
    moment_rhs_by_loop,
    primes_up_to,
)

SMALL_PRIMES = [p for p in primes_up_to(300) if p >= 5]


@pytest.fixture(scope="module")
def oracle_tables(trace_tables_1000):
    tables = {p: trace_tables_1000[p] for p in SMALL_PRIMES}
    tables[4099] = build_trace_table(make_context(4099))
    return tables


def _broken_table():
    # |a| = 9 > 2 sqrt(5): no curve over F_5 has this trace
    return TraceTable(5, np.array([9, 0, 2], dtype=np.int64), np.array([1, -1, -1], dtype=np.int8))


def _every_other(values, limit):
    """At most about ``limit`` of ``values``, spread over the whole range."""
    step = max(1, len(values) // limit)
    return values[::step] + values[-1:]


def test_multiplicities_count_each_magnitude_and_sign(oracle_tables):
    for p, table in oracle_tables.items():
        summary = table.multiplicities
        counts = summary.counts
        assert summary.p == p and counts.dtype == np.int64
        assert counts.shape == (math.isqrt(4 * p) + 1, 2)
        expected = Counter((abs(a), int(sign < 0)) for _, a, sign in entries(table))
        found = {(s, col): int(counts[s, col]) for s in range(len(counts)) for col in (0, 1)}
        assert {key: c for key, c in found.items() if c} == dict(expected), p
        assert summary.weights() == [int(c) for c in counts.sum(axis=1)]
        assert summary.weights(twisted=True) == [int(c) for c in counts[:, 0] - counts[:, 1]]


def test_multiplicities_built_once_and_read_only(table_1009):
    summary = table_1009.multiplicities
    assert table_1009.multiplicities is summary
    with pytest.raises(ValueError):
        summary.counts[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        summary.counts = np.zeros_like(summary.counts)


def test_summary_keeps_a_read_only_copy():
    source = np.array([[0, 1], [0, 0], [1, 1]], dtype=np.int32)
    summary = TraceSummary(5, source)
    source[0, 0] = 7
    assert summary.counts.dtype == np.int64 and summary.counts.tolist() == [[0, 1], [0, 0], [1, 1]]
    assert not summary.counts.flags.writeable
    assert summary == TraceSummary(5, [[0, 1], [0, 0], [1, 1]])
    assert summary != TraceSummary(5, [[0, 1], [0, 0], [0, 2]])
    assert summary != TraceSummary(7, summary.counts)


def test_numerators_are_p_times_the_a_value(oracle_tables):
    """Cell (s, sign) holds the A-values phi(-lambda) (s^2 - p) / p."""
    for p, table in oracle_tables.items():
        summary = table.multiplicities
        num = summary.numerators
        assert num.shape == summary.counts.shape
        found = Counter()
        for (s, col), count in np.ndenumerate(summary.counts):
            assert num[s, col] == (1 - 2 * col) * (s * s - p)
            found[Fraction(int(num[s, col]), p)] += int(count)
        assert +found == Counter(a_value_by_loop(table)), p


def test_moments_match_loop(oracle_tables):
    for p, table in oracle_tables.items():
        for n in (1, 2, 3, 5):
            for twisted in (False, True):
                got = moment(table.multiplicities, n, twisted)
                assert got == moment_by_loop(table, n, twisted), (p, n)


def test_interval_counts_match_loop_on_attained_endpoints(oracle_tables):
    """Endpoints with 4p lo^2 = s^2 for attained s pin both closed ends."""
    for p, table in oracle_tables.items():
        attained = sorted({abs(a) for _, a, _ in entries(table)})
        cuts = [Fraction(0)] + [Fraction(s * s, 4 * p) for s in _every_other(attained, 12)]
        cuts = sorted(set(cuts + [Fraction(1)]))
        pairs = list(zip(cuts, cuts[1:])) + [(cuts[0], cuts[-1]), (cuts[1], cuts[-2])]
        for lo_sq, hi_sq in pairs:
            if lo_sq >= hi_sq:
                continue
            got = interval_counts_squared(table.multiplicities, lo_sq, hi_sq)
            expected = interval_counts_by_loop(table, lo_sq, hi_sq)
            found = (got.n_total, got.m_signed, got.h_plus, got.h_minus)
            assert found == expected, (p, lo_sq, hi_sq)


def test_interval_counts_match_loop_on_rational_grid(oracle_tables):
    for p, table in oracle_tables.items():
        for lo, hi in uniform_grid(0, 1, 7) + [(Fraction(1, 3), Fraction(2, 3))]:
            got = interval_counts(table.multiplicities, lo, hi)
            expected = interval_counts_by_loop(table, lo * lo, hi * hi)
            found = (got.n_total, got.m_signed, got.h_plus, got.h_minus)
            assert found == expected, (p, lo, hi)


def test_a_count_matches_loop_on_attained_endpoints(oracle_tables):
    """Endpoints with p lo = +-(s^2 - p) for attained (s, sign) pin both closed ends."""
    for p, table in oracle_tables.items():
        attained = sorted(set(a_value_by_loop(table)))
        cuts = sorted(set(_every_other(attained, 12) + [Fraction(-3), Fraction(3)]))
        pairs = list(zip(cuts, cuts[1:]))
        pairs += [(cuts[1], cuts[-2]), (cuts[2], cuts[2] + Fraction(1, p))]
        for lo, hi in pairs:
            if not -3 <= lo < hi <= 3:
                continue
            got = empirical_A_count(table.multiplicities, lo, hi)
            assert got == a_count_by_loop(table, lo, hi), (p, lo, hi)


def test_histogram_matches_loop(oracle_tables):
    """With 6p bins every A-value lies on a bin boundary."""
    for p, table in oracle_tables.items():
        for bins in (1, 7, 61, 6 * p):
            got = histogram_counts(table.multiplicities, bins)
            assert got == histogram_by_loop(table, bins), (p, bins)


def test_chebyshev_sum_matches_moment_expansion(oracle_tables):
    """U_2(x) = 4x^2 - 1, so sum U_2(a / 2 sqrt p) = (moment_1 - p sum 1) / p."""
    for p, table in oracle_tables.items():
        for twisted in (False, True):
            zeroth = sum(sign if twisted else 1 for _, _, sign in entries(table))
            expected = Fraction(moment_by_loop(table, 1, twisted) - p * zeroth, p)
            assert chebyshev_sum(table.multiplicities, 1, twisted) == expected, p


def test_multiplicity_rhs_matches_counts(trace_tables_1000):
    """The two summaries agree on the whole counts array, s = 0 included."""
    for p, table in trace_tables_1000.items():
        rhs = multiplicity_rhs(*identity_table(p))
        assert len(rhs.counts) == math.isqrt(4 * p) + 1
        plain, signed = Counter(), Counter()
        for _, a, sign in entries(table):
            plain[abs(a)] += 1
            signed[abs(a)] += sign
        rows = zip(rhs.weights(), rhs.weights(twisted=True))
        assert all(pair == (plain[s], signed[s]) for s, pair in enumerate(rows)), p
        assert rhs == table.multiplicities, p


def test_multiplicity_rhs_matches_trace_table_below_5000(trace_tables_1000):
    """The closed-form s = 0 row and every other row, at every prime below 5000."""
    for p in primes_up_to(5000):
        if p >= 5:
            table = trace_tables_1000.get(p) or build_trace_table(make_context(p))
            assert multiplicity_rhs(*identity_table(p)) == table.multiplicities, p


def test_multiplicity_rhs_matches_counts_on_other_tables(table_93283, trace_tables_1000,
                                                         hurwitz_4000):
    assert multiplicity_rhs(*identity_table(93283)) == table_93283.multiplicities
    for p, table in trace_tables_1000.items():  # 4p <= 4000 throughout
        expected = multiplicity_rhs(*dense_identity_table(hurwitz_4000, p))
        assert expected == table.multiplicities, p


@pytest.mark.parametrize("p", [5, 13, 101, 1009])
def test_multiplicity_rhs_sums_to_moment_rhs(p):
    """Each moment identity is the sum of the multiplicity identities times s^(2n)."""
    rhs = multiplicity_rhs(*identity_table(p))
    dense = build_hurwitz_table(4 * p)
    for n in (1, 2, 3):
        for twisted in (False, True):
            assert moment(rhs, n, twisted) == moment_rhs_by_loop(dense, p, n, twisted), (n, twisted)


# Which class number to patch: (along (1, p) or (4, 4p), k) for 12 H*(n - t k^2).
_PATCHED = {"N": (0, 2), "4N": (1, 2), "p": (0, 0), "4p": (1, 0)}


def _patched(pair, which, by):
    """A copy of the class numbers along (1, p) and (4, 4p) with one value raised by ``by``."""
    index, k = _PATCHED[which]
    twelve = list(pair[index].twelve)
    twelve[k] += by
    patched = dataclasses.replace(pair[index], twelve=tuple(twelve))
    return (patched, pair[1]) if index == 0 else (pair[0], patched)


def _assert_refused(monkeypatch, capsys, p, which, by, message):
    with pytest.raises(ArithmeticError, match=message):
        multiplicity_rhs(*_patched(identity_table(p), which, by))
    identity = hurwitz.identity_table
    monkeypatch.setattr(hurwitz, "identity_table", lambda q: _patched(identity(q), which, by))
    for argv in (["verify", "moments"], ["verify", "multiplicities"]):
        assert dispatch(argv + ["--p", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(f"error: internal check failed: {message}", captured.err)


@pytest.mark.parametrize("p", [101, 103])  # 1 and 3 (mod 4)
@pytest.mark.parametrize("which", ["N", "4N", "p", "4p"])
def test_multiplicity_rhs_refuses_a_wrong_class_number(monkeypatch, capsys, p, which):
    """12 H* one too large anywhere, H*(p) and H*(4p) of the s = 0 row included."""
    _assert_refused(monkeypatch, capsys, p, which, 1, "class numbers give")


@pytest.mark.parametrize("p", [101, 103])
@pytest.mark.parametrize("which", ["p", "4p"])
def test_multiplicity_rhs_refuses_wrong_column_totals(monkeypatch, capsys, p, which):
    """A wrong H*(p) or H*(4p) that still gives whole, non-negative counts
    leaves the column totals off."""
    _assert_refused(monkeypatch, capsys, p, which, 24, r"class numbers give \d+ signs \+1")


def test_multiplicity_rhs_needs_table_up_to_4p(hurwitz_4000):
    along_p, _ = identity_table(101)
    with pytest.raises(ValueError, match=r"\(4, 4p\)"):
        multiplicity_rhs(along_p, class_numbers_along(hurwitz_4000, 4, 400))


@pytest.mark.parametrize(
    "statistic",
    [
        lambda t: t.multiplicities,
        lambda t: moment(t.multiplicities, 1),
        lambda t: moment(t.multiplicities, 2, twisted=True),
        lambda t: interval_counts(t.multiplicities, 0, 1),
        lambda t: interval_counts_squared(t.multiplicities, 0, Fraction(1, 4)),
        lambda t: empirical_A_count(t.multiplicities, -3, 3),
        lambda t: histogram_counts(t.multiplicities, 10),
        lambda t: chebyshev_sum(t.multiplicities, 2),
        lambda t: discrepancy_report(t.multiplicities, uniform_grid(0, 1, 3), "clausen_N"),
        lambda t: discrepancy_report(t.multiplicities, uniform_grid(-3, 3, 3), "batman"),
    ],
    ids=["multiplicities", "moment", "twisted-moment", "interval-counts",
         "interval-counts-squared", "A-count", "histogram", "chebyshev-sum",
         "report-N", "report-batman"],
)
def test_statistics_reject_a_trace_beyond_hasse(statistic):
    with pytest.raises(ArithmeticError, match="Hasse"):
        statistic(_broken_table())
