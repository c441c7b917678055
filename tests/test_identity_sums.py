"""The class-number identities from integer power sums, against per-s loops."""

import functools
from math import isqrt

import numpy as np
import pytest

from k3batman import (
    bracket_coeff,
    build_hurwitz_table,
    build_trace_table,
    identity_table,
    make_context,
    moment,
    multiplicity_rhs,
)
from k3batman import hurwitz
from k3batman.brackets import class_sum
from k3batman.cli import dispatch
from util import (
    bracket_coeff_by_loop,
    class_numbers_along,
    class_sum_a_by_loop,
    class_sum_b_by_loop,
    dense_identity_table,
    moment_rhs_by_loop,
    multiplicity_rhs_by_loop,
    primes_up_to,
)

PRIMES = [p for p in primes_up_to(300) if p >= 5] + [4099, 93283]
# the brackets and class sums are checked up to m = 40 at these (p = 1 and 3 mod 4),
# and to m = 6 elsewhere
DEEP_PRIMES = (293, 4099)


def _orders(p: int) -> range:
    return range(1, 41 if p in DEEP_PRIMES else 7)


@pytest.fixture(scope="module")
def dense_tables(hurwitz_4000):
    """A dense table covering D <= 4p for every prime of PRIMES: the loops' source."""
    large = {p: build_hurwitz_table(4 * p) for p in PRIMES if 4 * p > hurwitz_4000.d_max}
    return {p: large.get(p, hurwitz_4000) for p in PRIMES}


@pytest.fixture(scope="module", params=["dense", "sparse"])
def tables(request, dense_tables):
    """(p, the class numbers along (1, p) and (4, 4p), a dense table) for
    every prime of PRIMES; the class numbers are sliced from the dense table
    or counted by identity_table."""
    if request.param == "sparse":
        return [(p, identity_table(p), dense) for p, dense in dense_tables.items()]
    return [(p, dense_identity_table(dense, p), dense) for p, dense in dense_tables.items()]


def test_bracket_coeff_matches_loop(tables):
    for p, pair, dense in tables:
        for m in _orders(p):
            for along in pair:
                expected = bracket_coeff_by_loop(m, along.t, along.n, dense)
                assert bracket_coeff(m, along) == expected, (p, m, along.t)


def test_class_sums_match_loop(tables):
    for p, (along_p, along_4p), dense in tables:
        for m in _orders(p):
            assert class_sum(m, along_p) == class_sum_a_by_loop(m, p, dense), (p, m)
            assert class_sum(m, along_4p) == class_sum_b_by_loop(m, p, dense), (p, m)


@pytest.mark.parametrize("twisted", [False, True])
def test_moment_rhs_matches_loop(tables, twisted):
    for p, pair, dense in tables:
        for n in range(1, 7):
            got = moment(multiplicity_rhs(*pair), n, twisted)
            assert got == moment_rhs_by_loop(dense, p, n, twisted), (p, n)


def test_multiplicity_rhs_matches_loop(tables):
    for p, pair, dense in tables:
        summary = multiplicity_rhs(*pair)
        rows = list(zip(summary.weights(), summary.weights(twisted=True)))
        assert rows == multiplicity_rhs_by_loop(dense, p), p


def test_bracket_coeff_matches_loop_at_every_n(hurwitz_4000):
    # n = t s^2 for some s puts H*(0) = -1/12 at the ends of the sum
    for t in (1, 4):
        for n in range(1, 401):
            along = class_numbers_along(hurwitz_4000, t, n)
            for m in range(7):
                expected = bracket_coeff_by_loop(m, t, n, hurwitz_4000)
                assert bracket_coeff(m, along) == expected, (m, t, n)


def test_class_sums_match_loop_at_every_p(hurwitz_4000):
    # square p: the last term, s = 2 sqrt(p), reads H*(4p - s^2) = H*(0) = -1/12
    for p in range(1, 301):
        along_p, along_4p = dense_identity_table(hurwitz_4000, p)
        for m in range(7):
            assert class_sum(m, along_p) == class_sum_a_by_loop(m, p, hurwitz_4000), (p, m)
            assert class_sum(m, along_4p) == class_sum_b_by_loop(m, p, hurwitz_4000), (p, m)


def _power_sum_cases(p: int):
    """(power_sums of one kept kernel, the same sums by a direct loop)."""
    for along in identity_table(p):
        root = isqrt(along.n // along.t)
        direct = [sum(along.twelve[abs(k)] * k ** (2 * l) for k in range(-root, root + 1))
                  for l in range(8)]
        yield along.power_sums, direct
    summary = build_trace_table(make_context(p)).multiplicities
    for twisted in (False, True):
        direct = [sum(w * s ** (2 * l) for s, w in enumerate(summary.weights(twisted)))
                  for l in range(8)]
        yield functools.partial(summary.power_sums, twisted=twisted), direct


def test_power_sums_any_order():
    for power_sums, direct in _power_sum_cases(4099):
        assert power_sums(3) == direct[:4]
        assert power_sums(7) == direct
        assert power_sums(0) == direct[:1]
        sums = power_sums(7)
        sums[0] += 1  # a caller's copy: the kept sums do not change
        assert power_sums(7) == direct


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
