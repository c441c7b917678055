"""The class-number identities from integer power sums, against per-s loops."""

from collections import Counter
from math import isqrt

import numpy as np
import pytest

from k3batman import (
    SparseHurwitzTable,
    bracket_coeff,
    build_hurwitz_table,
    identity_table,
    moment,
    multiplicity_rhs,
)
from k3batman import hurwitz
from k3batman.brackets import class_sum_a, class_sum_b
from k3batman.cli import dispatch
from util import (
    bracket_coeff_by_loop,
    class_sum_a_by_loop,
    class_sum_b_by_loop,
    moment_rhs_by_loop,
    multiplicity_rhs_by_loop,
    primes_up_to,
)

PRIMES = [p for p in primes_up_to(300) if p >= 5] + [4099, 93283]


@pytest.fixture(scope="module", params=["dense", "sparse"])
def tables(request, hurwitz_4000):
    """(p, table) for every prime of PRIMES, each table covering D <= 4p."""
    if request.param == "sparse":
        return [(p, identity_table(p)) for p in PRIMES]
    large = {p: build_hurwitz_table(4 * p) for p in PRIMES if 4 * p > hurwitz_4000.d_max}
    return [(p, large.get(p, hurwitz_4000)) for p in PRIMES]


def test_bracket_coeff_matches_loop(tables):
    for p, table in tables:
        for m in range(1, 7):
            for t, n in ((1, p), (4, 4 * p)):
                assert bracket_coeff(m, t, n, table) == bracket_coeff_by_loop(m, t, n, table), (p, m, t)


def test_class_sums_match_loop(tables):
    for p, table in tables:
        for m in range(1, 7):
            assert class_sum_a(m, p, table) == class_sum_a_by_loop(m, p, table), (p, m)
            assert class_sum_b(m, p, table) == class_sum_b_by_loop(m, p, table), (p, m)


@pytest.mark.parametrize("twisted", [False, True])
def test_moment_rhs_matches_loop(tables, twisted):
    for p, table in tables:
        for n in range(1, 7):
            got = moment(multiplicity_rhs(table, p), n, twisted)
            assert got == moment_rhs_by_loop(table, p, n, twisted), (p, n)


def test_multiplicity_rhs_matches_loop(tables):
    for p, table in tables:
        summary = multiplicity_rhs(table, p)
        rows = list(zip(summary.weights(), summary.weights(twisted=True)))
        assert rows == multiplicity_rhs_by_loop(table, p), p


def test_bracket_coeff_matches_loop_at_every_n(hurwitz_4000):
    # n = t s^2 for some s puts H*(0) = -1/12 at the ends of the sum
    for t in (1, 4):
        for n in range(1, 401):
            for m in range(7):
                expected = bracket_coeff_by_loop(m, t, n, hurwitz_4000)
                assert bracket_coeff(m, t, n, hurwitz_4000) == expected, (m, t, n)


def test_class_sums_match_loop_at_every_p(hurwitz_4000):
    # square p: s = 2 sqrt(p) is left out, where 4p - s^2 = 0
    for p in range(1, 301):
        for m in range(7):
            assert class_sum_a(m, p, hurwitz_4000) == class_sum_a_by_loop(m, p, hurwitz_4000), (p, m)
            assert class_sum_b(m, p, hurwitz_4000) == class_sum_b_by_loop(m, p, hurwitz_4000), (p, m)


def test_power_sums_any_order():
    p = 4099
    for t, n in ((1, p), (4, 4 * p)):
        table = identity_table(p)
        values = [(table.twelve(n - t * s * s), s * s) for s in range(1, isqrt((n - 1) // t) + 1)]
        direct = [sum(v * x**l for v, x in values) for l in range(8)]
        assert table.power_sums(t, n, 3) == direct[:4]
        assert table.power_sums(t, n, 7) == direct
        assert table.power_sums(t, n, 0) == direct[:1]
        assert identity_table(p).power_sums(t, n, 7) == direct


def test_twelve_matches_star(hurwitz_4000):
    sparse = identity_table(101)
    for table in (hurwitz_4000, sparse):
        for d in sorted(sparse.twelve_h) + [-4]:
            assert 12 * table.star(d) == table.twelve(d)
            assert type(table.twelve(d)) is int
    with pytest.raises(ValueError, match="exceeds"):
        hurwitz_4000.twelve(4001)
    with pytest.raises(ValueError, match="not held"):
        sparse.twelve(99)


def test_verify_brackets_reads_each_value_once(monkeypatch, capsys):
    """Across every m, each H*(p - k^2) and H*(4(p - k^2)) with k > 0 is read
    once; only the k = 0 values are read again, by each bracket and each
    coefficient side."""
    p, mmax = 1009, 6
    reads = Counter()
    twelve = SparseHurwitzTable.twelve

    def counted(self, d):
        reads[d] += 1
        return twelve(self, d)

    monkeypatch.setattr(SparseHurwitzTable, "twelve", counted)
    assert dispatch(["verify", "brackets", "--p", str(p), "--mmax", str(mmax)]) == 0
    for k in range(1, isqrt(p) + 1):
        assert reads[p - k * k] == 1 and reads[4 * (p - k * k)] == 1, k
    assert reads[p] == reads[4 * p] == 2 * mmax


def test_index_four_relation_matches_dense_table():
    twelve = build_hurwitz_table(40000).twelve_h
    n = np.array([d for d in range(10000) if d % 4 in (0, 3)])
    quarter = np.where(n % 4 == 0, twelve[n // 4], 0)
    assert np.array_equal(hurwitz._twelve_h_four_times(n, twelve[n], quarter), twelve[4 * n])


@pytest.mark.parametrize("p", [101, 103])  # 1 and 3 (mod 4)
def test_identity_table_refuses_a_derived_value_not_positive(monkeypatch, capsys, p):
    counted = hurwitz.twelve_h_at
    monkeypatch.setattr(hurwitz, "twelve_h_at", lambda d: -counted(d))
    with pytest.raises(ArithmeticError, match="index-4 relation"):
        identity_table(p)
    assert dispatch(["verify", "brackets", "--p", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal check failed: index-4 relation")
