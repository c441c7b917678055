import random
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    ClassNumbersAlong,
    build_hurwitz_table,
    build_trace_table,
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
