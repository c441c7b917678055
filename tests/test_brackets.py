import math
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    bracket_coeff,
    build_hurwitz_table,
    chebyshev_closed,
    chebyshev_coeffs,
    chebyshev_eval,
    deligne_audit,
    even_chebyshev,
    identity_table,
    mertens_coeff,
    pihol_coeff,
)
from k3batman.brackets import class_sum_a, class_sum_b, coeff_side_a, coeff_side_b
from util import mertens_by_scan, primes_up_to


def test_chebyshev_coeff_examples():
    assert chebyshev_coeffs(0) == (1,)
    assert chebyshev_coeffs(1) == (0, 2)
    assert chebyshev_coeffs(2) == (-1, 0, 4)
    assert chebyshev_coeffs(4) == (1, 0, -12, 0, 16)


def test_chebyshev_coeff_structure():
    for m in range(1, 60):
        coeffs = chebyshev_coeffs(m)
        assert coeffs[m] == 2**m
        assert all(coeffs[l] == 0 for l in range(m) if (m - l) % 2)


def test_closed_form_examples():
    assert chebyshev_closed(1, 1) == 4
    assert chebyshev_closed(1, 2) == -12
    assert chebyshev_closed(2, 2) == 16


def test_closed_form_matches_recurrence():
    for m in range(1, 51):
        coeffs = chebyshev_coeffs(2 * m)
        for l in range(1, m + 1):
            assert chebyshev_closed(l, m) == coeffs[2 * l]


def test_closed_form_rejects_l_zero():
    with pytest.raises(ValueError):
        chebyshev_closed(0, 3)


def test_constant_coefficient_alternates():
    for m in range(51):
        assert chebyshev_coeffs(2 * m)[0] == (-1) ** m


def test_chebyshev_bounded_on_interval():
    grid = np.linspace(-1.0, 1.0, 1001)
    for m in range(61):
        values = [abs(chebyshev_eval(m, float(x))) for x in grid]
        assert max(values) <= m + 1 + 1e-9


def test_cosine_identity():
    thetas = np.linspace(0.05, math.pi - 0.05, 200)
    for m in range(2, 30):
        for theta in thetas[::7]:
            lhs = chebyshev_eval(m, math.cos(theta)) - chebyshev_eval(m - 2, math.cos(theta))
            assert abs(lhs - 2.0 * math.cos(m * theta)) < 1e-10


@pytest.fixture(scope="module")
def table2400():
    return build_hurwitz_table(2400)


def test_bracket_examples(table2400):
    assert bracket_coeff(1, 1, 5, table2400) == Fraction(-1, 2)
    assert bracket_coeff(1, 4, 20, table2400) == -4
    assert bracket_coeff(1, 1, 7, table2400) == Fraction(-1, 2)


def test_bracket_validation(table2400):
    with pytest.raises(ValueError):
        bracket_coeff(1, 2, 5, table2400)
    with pytest.raises(ValueError):
        bracket_coeff(1, 1, 2401, table2400)


def test_mertens_examples():
    assert mertens_coeff(1, 1, 5) == 2
    assert mertens_coeff(4, 1, 20) == 16
    assert mertens_coeff(1, 1, 4) == 8
    with pytest.raises(ValueError):
        mertens_coeff(2, 1, 5)


@pytest.mark.parametrize("s", [1, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_mertens_matches_exhaustive_scan(s, m):
    for n in range(1, 400):
        assert mertens_coeff(s, m, n) == mertens_by_scan(s, m, n)


def test_pihol_examples(table2400):
    assert pihol_coeff(1, 1, 5, table2400) == 0
    assert pihol_coeff(1, 1, 7, table2400) == 0
    assert pihol_coeff(1, 4, 20, table2400) == 0


def test_m1_vanishing_small(table2400):
    for p in [p for p in primes_up_to(100) if p >= 5]:
        assert pihol_coeff(1, 1, p, table2400) == 0
        assert pihol_coeff(1, 4, 4 * p, table2400) == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_corrected_identities_small(table2400, m):
    for p in [p for p in primes_up_to(100) if p >= 5]:
        assert class_sum_a(m, p, table2400) == coeff_side_a(m, p, table2400)
        assert class_sum_b(m, p, table2400) == coeff_side_b(m, p, table2400)


def test_deligne_audit_examples(table2400):
    report = deligne_audit(1, 5, table2400)
    assert report.passed
    assert report.a_value == 0 and report.b_value == 0
    report = deligne_audit(2, 5, table2400)
    assert report.passed
    assert report.a_bound == pytest.approx(13.9755, abs=1e-3)
    report = deligne_audit(6, 11, table2400)
    assert report.passed


def test_deligne_audit_small_grid(table2400):
    for m in range(1, 5):
        for p in [p for p in primes_up_to(100) if p >= 5]:
            assert deligne_audit(m, p, table2400).passed


def test_even_chebyshev_matches_rational_sum():
    for m in range(8):
        coeffs = chebyshev_coeffs(2 * m)
        for x, n in [(0, 1), (1, 1), (3, 7), (16, 20), (4 * 97, 4 * 101), (10**6, 3)]:
            expected = sum(Fraction(coeffs[2 * l]) * Fraction(x, n) ** l for l in range(m + 1))
            assert Fraction(even_chebyshev(m, x, n), n**m) == expected


def test_shared_coefficients_match_recomputed(table2400):
    for m in range(1, 5):
        for p in (7, 13, 101):
            a = pihol_coeff(m, 1, p, table2400)
            b = pihol_coeff(m, 4, 4 * p, table2400)
            assert coeff_side_a(m, p, table2400, a) == coeff_side_a(m, p, table2400)
            assert coeff_side_b(m, p, table2400, b) == coeff_side_b(m, p, table2400)
            assert deligne_audit(m, p, table2400, a, b) == deligne_audit(m, p, table2400)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_corrected_identities_on_identity_table(m):
    for p in [p for p in primes_up_to(300) if p >= 5]:
        table = identity_table(p)
        assert class_sum_a(m, p, table) == coeff_side_a(m, p, table)
        assert class_sum_b(m, p, table) == coeff_side_b(m, p, table)
