import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    ClassNumbersAlong,
    build_hurwitz_table,
    build_trace_table,
    cache,
    hurwitz,
    identity_table,
    make_context,
    moment,
    multiplicity_rhs,
    twelve_h_at,
)
from util import (
    c_pm,
    class_number,
    class_numbers_along,
    dense_identity_table,
    hurwitz_star_by_divisors,
    primes_up_to,
    star,
    twelve_h_by_strata,
)

SPOT_VALUES = {
    0: Fraction(-1, 12),
    1: 0,
    2: 0,
    3: Fraction(1, 3),
    4: Fraction(1, 2),
    7: 1,
    8: 1,
    11: 1,
    12: Fraction(4, 3),
    15: 2,
    16: Fraction(3, 2),
    20: 2,
}


def test_class_number_examples():
    assert class_number(3) == (1, 3)
    assert class_number(4) == (1, 2)
    assert class_number(20) == (2, 1)


@pytest.mark.parametrize("d", [1, 2, 5, 6, 9, 10])
def test_class_number_rejects_non_discriminants(d):
    with pytest.raises(ValueError):
        class_number(d)


def test_spot_values(hurwitz_4000):
    for d, expected in SPOT_VALUES.items():
        assert star(hurwitz_4000, d) == expected


def test_star_zero_off_residues_and_negative(hurwitz_4000):
    twelve = hurwitz_4000.twelve_h
    d = np.arange(hurwitz_4000.d_max + 1)
    assert not twelve[(d % 4 == 1) | (d % 4 == 2)].any()
    assert (twelve[1:] >= 0).all()
    assert twelve[0] == -1


def test_class_numbers_along_rejects_a_wrong_length(hurwitz_4000):
    held = class_numbers_along(hurwitz_4000, 4, 400)  # 400 = 4 * 10^2: k = 0..10
    assert len(held.twelve) == 11 and held.twelve[-1] == -1
    for t, n, twelve in ((4, 400, held.twelve[:-1]), (4, 403, held.twelve + (0,)),
                         (0, 400, held.twelve), (4, 0, (-1,))):
        with pytest.raises(ValueError):
            ClassNumbersAlong(t, n, twelve)


def test_table_matches_divisor_sum_oracle(hurwitz_4000):
    rng = random.Random(7)
    sample = rng.sample(range(hurwitz_4000.d_max + 1), 200)
    for d in sample:
        assert star(hurwitz_4000, d) == hurwitz_star_by_divisors(d, class_number)


def test_dense_table_matches_strata_oracle_at_every_small_d_max():
    # the oracle's 12 H*(D) does not depend on d_max: one build serves every prefix
    oracle = twelve_h_by_strata(3000)
    for d_max in range(3001):
        assert np.array_equal(build_hurwitz_table(d_max).twelve_h, oracle[: d_max + 1]), d_max


def test_dense_table_matches_strata_oracle_at_stratum_boundaries():
    oracle = twelve_h_by_strata(4 * 40 * 41)
    for a in range(1, 41):
        for d_max in (3 * a * a - 1, 3 * a * a, 4 * a * a, 4 * a * (a + 1) - 1, 4 * a * (a + 1)):
            assert np.array_equal(build_hurwitz_table(d_max).twelve_h, oracle[: d_max + 1]), d_max


def test_dense_table_is_read_only_int64():
    twelve = build_hurwitz_table(1000).twelve_h
    assert twelve.dtype == np.int64
    assert not twelve.flags.writeable


def test_dense_table_matches_sparse_kernel_at_ladder_size():
    d_max = 4 * 1000003
    table = build_hurwitz_table(d_max)
    d = np.random.default_rng(20).integers(0, d_max + 1, 2000)
    assert np.array_equal(twelve_h_at(d), table.twelve_h[d])


@pytest.mark.parametrize("int32_d_max", [-1, 10**9], ids=["int64-sums", "int32-sums"])
def test_dense_table_matches_strata_oracle_at_row_starts_and_partial_rows(monkeypatch, int32_d_max):
    # D0 = the first multiple of 16 at or above 4a(a + 1), where the row adds of
    # a start; d_max = 16q + r for every r leaves 0..6 counted entries in the
    # partial top row of the compressed array
    monkeypatch.setattr(hurwitz, "_INT32_D_MAX", int32_d_max)
    oracle = twelve_h_by_strata(4 * 40 * 41 + 16)
    for a in range(1, 41):
        d0 = -(-4 * a * (a + 1) // 16) * 16
        for d_max in range(d0 - 1, d0 + 16):
            assert np.array_equal(build_hurwitz_table(d_max).twelve_h, oracle[: d_max + 1]), d_max


def test_index_4_relation_matches_strata_oracle():
    twelve = twelve_h_by_strata(40000)
    n = np.arange(1, 10001)
    n = n[(n % 4 == 0) | (n % 4 == 3)]
    quarter = np.where(n % 4 == 0, twelve[n // 4], 0)
    assert np.array_equal(hurwitz._twelve_h_four_times(n, twelve[n], quarter), twelve[4 * n])


def test_dense_table_guards_the_derived_entries(monkeypatch):
    relation = hurwitz._twelve_h_four_times

    def broken(n, twelve_n, twelve_quarter):  # 0 from N = 7 on, so 12 H*(28) first
        return np.where(n >= 7, 0, relation(n, twelve_n, twelve_quarter))

    monkeypatch.setattr(hurwitz, "_twelve_h_four_times", broken)
    build_hurwitz_table(27)
    with pytest.raises(ArithmeticError, match=r"12 H\*\(28\) <= 0"):
        build_hurwitz_table(1000)


def test_int32_bound_is_the_last_d_max_it_holds():
    def bound(d_max):  # 24 (A + 1)^2, A = isqrt(d_max // 3): no table is made
        return 24 * (math.isqrt(d_max // 3) + 1) ** 2

    assert bound(hurwitz._INT32_D_MAX) < 1 << 31 <= bound(hurwitz._INT32_D_MAX + 1)


@pytest.mark.parametrize("int32_d_max", [-1, 10**9], ids=["int64-sums", "int32-sums"])
def test_dense_table_is_the_same_from_either_accumulator(monkeypatch, int32_d_max):
    monkeypatch.setattr(hurwitz, "_INT32_D_MAX", int32_d_max)
    monkeypatch.setattr(hurwitz, "_EXPAND_STEP", 7)  # one row of 16 per step, below a partial row
    monkeypatch.setattr(hurwitz, "_WINDOW_POINTS", 3)  # many window adds for each a > 2
    oracle = twelve_h_by_strata(2000)
    for d_max in (0, 1, 6, 7, 13, 14, 300, 1999, 2000):
        assert np.array_equal(build_hurwitz_table(d_max).twelve_h, oracle[: d_max + 1]), d_max


@pytest.mark.parametrize("int32_d_max", [-1, 10**9], ids=["int64-sums", "int32-sums"])
def test_dense_table_build_holds_eight_bytes_per_entry(monkeypatch, int32_d_max):
    monkeypatch.setattr(hurwitz, "_INT32_D_MAX", int32_d_max)
    monkeypatch.setattr(hurwitz, "_EXPAND_STEP", 1 << 14)
    d_max = 1 << 20
    tracemalloc.start()
    try:
        build_hurwitz_table(d_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 result, holding the compressed sums, and O(sqrt(d_max)) scratch
    assert peak < 8 * (d_max + 1) + (1 << 20)


def test_hurwitz_cache_file_bytes_are_unchanged(tmp_path):
    path = tmp_path / "h.bin"
    cache.save_hurwitz_table(path, build_hurwitz_table(404))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "6b7062ac82154f9ebe4c9a65e3e54f70b6dd42c76ed12a6eff06f6bb38d008b7"


def test_c_pm_examples():
    assert c_pm(5, 1, "+") == 10
    assert c_pm(5, 1, "-") == -6
    assert c_pm(7, 1, "+") == 0
    assert c_pm(7, 3, "-") == 0
    with pytest.raises(ValueError):
        c_pm(5, 1, "x")


def test_moment_rhs_examples(hurwitz_4000):
    expected = multiplicity_rhs(*dense_identity_table(hurwitz_4000, 5))
    assert moment(expected, 1) == 8
    assert moment(expected, 1, twisted=True) == 0
    assert moment(expected, 2) == 32


def test_moment_rhs_range_check():
    along_p, along_4p = identity_table(5)
    with pytest.raises(ValueError, match="along"):
        multiplicity_rhs(along_4p, along_p)


@pytest.mark.parametrize("twisted", [False, True])
def test_moment_identity_small_primes(hurwitz_4000, twisted):
    for p in [p for p in primes_up_to(200) if p >= 5]:
        counts = build_trace_table(make_context(p)).multiplicities
        expected = multiplicity_rhs(*dense_identity_table(hurwitz_4000, p))
        for n in range(1, 6):
            assert moment(counts, n, twisted) == moment(expected, n, twisted)


def test_sparse_kernel_matches_dense_table():
    dense = build_hurwitz_table(20000)
    assert np.array_equal(twelve_h_at(np.arange(20001)), dense.twelve_h)


def test_sparse_kernel_any_order_and_repeats(hurwitz_4000):
    d = np.array([3999, 0, 7, 3999, 4000, 1, 2, 3, 2700, 7])
    assert twelve_h_at(d).tolist() == hurwitz_4000.twelve_h[d].tolist()
    assert twelve_h_at(np.array([], dtype=np.int64)).tolist() == []


@pytest.mark.parametrize("bad", [[-4], [[3, 4]]])
def test_sparse_kernel_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        twelve_h_at(bad)


def test_identity_table_matches_dense_small_primes(hurwitz_4000):
    for p in [p for p in primes_up_to(1000) if p >= 5]:
        table = identity_table(p)
        assert table == dense_identity_table(hurwitz_4000, p), p
        for along in table:
            assert all(type(x) is int for x in along.twelve), p  # exact power sums


def test_identity_table_matches_dense_93283():
    p = 93283
    assert identity_table(p) == dense_identity_table(build_hurwitz_table(4 * p), p)


@pytest.mark.parametrize("p", [1, 4, 100, 3])
def test_identity_table_rejects_non_primes(p):
    with pytest.raises(ValueError):
        identity_table(p)


@pytest.mark.parametrize("twisted", [False, True])
def test_moment_identity_on_identity_table(twisted):
    for p in [p for p in primes_up_to(200) if p >= 5]:
        counts = build_trace_table(make_context(p)).multiplicities
        expected = multiplicity_rhs(*identity_table(p))
        for n in range(1, 4):
            assert moment(counts, n, twisted) == moment(expected, n, twisted)
