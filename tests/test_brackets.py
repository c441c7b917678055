import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    ClassNumbersAlong,
    bracket_coeff,
    build_hurwitz_table,
    build_trace_table,
    chebyshev_coeffs,
    deligne_audit,
    identity_table,
    make_context,
    mertens_coeff,
    pihol_coeff,
)
from k3batman.brackets import class_sum, coeff_side
from util import (
    chebyshev_closed,
    chebyshev_eval,
    chebyshev_sum_by_loop,
    child_env,
    class_numbers_along,
    dense_identity_table,
    even_chebyshev,
    mertens_by_scan,
    primes_up_to,
)


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


def test_chebyshev_recurrence_holds():
    # U_m = 2x U_{m-1} - U_{m-2}: the library builds each U_m on its own
    for m in range(2, 401):
        expected = [0, *(2 * c for c in chebyshev_coeffs(m - 1))]
        for i, c in enumerate(chebyshev_coeffs(m - 2)):
            expected[i] -= c
        assert chebyshev_coeffs(m) == tuple(expected), m


# A fresh interpreter: the high orders must work with no earlier call, and the
# traced bytes are this script's alone; hex has no digit limit. Once the
# summary's power sums reach l = 300, the orders up to 2 * 300 should leave
# nothing behind between calls.
_COLD_HIGH_ORDERS = """
import gc, tracemalloc
from k3batman import build_trace_table, chebyshev_coeffs, chebyshev_sum, make_context
print(len(chebyshev_coeffs(3000)))
summary = build_trace_table(make_context(101)).multiplicities
value = chebyshev_sum(summary, 1200)
print(f"{value.numerator:x} {value.denominator:x}")
summary.power_sums(300, twisted=True)
tracemalloc.start()
for m in range(301):
    for twisted in (False, True):
        chebyshev_sum(summary, m, twisted)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_high_orders_in_a_fresh_interpreter():
    result = subprocess.run([sys.executable, "-c", _COLD_HIGH_ORDERS], capture_output=True,
                            text=True, env=child_env(), timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    length, num, den, retained = result.stdout.split()
    expected = chebyshev_sum_by_loop(build_trace_table(make_context(101)).multiplicities, 1200)
    assert (int(length), Fraction(int(num, 16), int(den, 16))) == (3001, expected)
    # far below the 4.4 MB that keeping U_0, U_2, ..., U_600 would take
    assert int(retained) < 1_000_000


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


@pytest.fixture(scope="module")
def along2400(table2400):
    """(t, n) -> the class numbers along n - t k^2, from the dense table."""
    return lambda t, n: class_numbers_along(table2400, t, n)


def _audit(m, p, table):
    """deligne_audit at p with both coefficients from a dense table."""
    along_p, along_4p = dense_identity_table(table, p)
    return deligne_audit(m, p, pihol_coeff(m, along_p), pihol_coeff(m, along_4p))


def test_bracket_examples(along2400):
    assert bracket_coeff(1, along2400(1, 5)) == Fraction(-1, 2)
    assert bracket_coeff(1, along2400(4, 20)) == -4
    assert bracket_coeff(1, along2400(1, 7)) == Fraction(-1, 2)


def test_bracket_validation(along2400):
    with pytest.raises(ValueError, match="t must be 1 or 4"):
        bracket_coeff(1, along2400(2, 5))
    with pytest.raises(ValueError, match="t must be 1 or 4, got 2"):
        class_sum(1, along2400(2, 5))
    with pytest.raises(ValueError, match="t must be 1 or 4, got 9"):
        coeff_side(1, along2400(9, 45), Fraction(0))
    with pytest.raises(ValueError):
        ClassNumbersAlong(1, 2401, along2400(1, 2400).twelve)  # 2401 = 49^2 needs k = 49


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


def test_pihol_examples(along2400):
    assert pihol_coeff(1, along2400(1, 5)) == 0
    assert pihol_coeff(1, along2400(1, 7)) == 0
    assert pihol_coeff(1, along2400(4, 20)) == 0


def test_m1_vanishing_small(table2400):
    for p in [p for p in primes_up_to(100) if p >= 5]:
        for along in dense_identity_table(table2400, p):
            assert pihol_coeff(1, along) == 0


def _corrected_identities_hold(m, along_p, along_4p):
    a, b = pihol_coeff(m, along_p), pihol_coeff(m, along_4p)
    return (class_sum(m, along_p) == coeff_side(m, along_p, a)
            and class_sum(m, along_4p) == coeff_side(m, along_4p, b))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_corrected_identities_small(table2400, m):
    for p in [p for p in primes_up_to(100) if p >= 5]:
        assert _corrected_identities_hold(m, *dense_identity_table(table2400, p)), p


def test_deligne_audit_examples(table2400):
    report = _audit(1, 5, table2400)
    assert report.passed
    assert report.a_value == 0 and report.b_value == 0
    report = _audit(2, 5, table2400)
    assert report.passed
    assert report.a_bound == pytest.approx(13.9755, abs=1e-3)
    report = _audit(6, 11, table2400)
    assert report.passed


def test_deligne_audit_is_exact_past_the_float_range():
    """At m = 200, p = 101 both bounds lie past the largest float, and at
    m = 1 they are 0: the integer just below each bound passes, the one
    just above fails, and so does a value a float would round to 0."""
    m, p = 200, 101
    b_factor = Fraction(4 * math.comb(2 * m, m) * (m - 1), 3)
    for factor, side in ((b_factor / (2 * 4**m), 0), (b_factor, 1)):
        below = math.isqrt(math.floor(factor**2 * p ** (2 * m + 1)))  # the bound is irrational
        for value, passed in ((below, True), (-below, True), (below + 1, False)):
            pair = [Fraction(0), Fraction(0)]
            pair[side] = Fraction(value)
            audit = deligne_audit(m, p, *pair)
            assert audit.passed is passed
            assert float(audit.b_bound) == math.inf  # printed from a Decimal
    assert deligne_audit(1, 5, Fraction(0), Fraction(0)).passed
    assert not deligne_audit(1, 5, Fraction(1, 10**400), Fraction(0)).passed


def test_deligne_audit_small_grid(table2400):
    for m in range(1, 5):
        for p in [p for p in primes_up_to(100) if p >= 5]:
            assert _audit(m, p, table2400).passed


def test_even_chebyshev_matches_rational_sum():
    for m in range(8):
        coeffs = chebyshev_coeffs(2 * m)
        for x, n in [(0, 1), (1, 1), (3, 7), (16, 20), (4 * 97, 4 * 101), (10**6, 3)]:
            expected = sum(Fraction(coeffs[2 * l]) * Fraction(x, n) ** l for l in range(m + 1))
            assert Fraction(even_chebyshev(m, x, n), n**m) == expected


def test_shared_coefficients_match_recomputed(table2400):
    """Coefficients from identity_table give the sides and audit of those
    recomputed from the dense table."""
    for m in range(1, 5):
        for p in (7, 13, 101):
            along_p, along_4p = identity_table(p)
            dense_p, dense_4p = dense_identity_table(table2400, p)
            a, b = pihol_coeff(m, along_p), pihol_coeff(m, along_4p)
            assert (a, b) == (pihol_coeff(m, dense_p), pihol_coeff(m, dense_4p))
            assert coeff_side(m, along_p, a) == coeff_side(m, dense_p, a)
            assert coeff_side(m, along_4p, b) == coeff_side(m, dense_4p, b)
            assert deligne_audit(m, p, a, b) == _audit(m, p, table2400)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_corrected_identities_on_identity_table(m):
    for p in [p for p in primes_up_to(300) if p >= 5]:
        assert _corrected_identities_hold(m, *identity_table(p)), p


@pytest.mark.parametrize("p", [1009, 1019])  # 1 and 3 (mod 4)
def test_coefficient_identity_holds_for_any_class_numbers(p):
    """class_sum = coeff_side reduces to mertens_coeff(t, m, n) = 2 sqrt(t) t^m,
    so it holds on class numbers shifted at random; the m = 1 vanishing of
    pihol_coeff, which reads them, fails there."""
    rng = random.Random(p)
    for along in identity_table(p):
        shifted = ClassNumbersAlong(along.t, along.n,
                                    tuple(x + rng.randint(-50, 50) for x in along.twelve))
        assert shifted.twelve != along.twelve
        assert pihol_coeff(1, along) == 0 and pihol_coeff(1, shifted) != 0
        for m in range(1, 6):
            assert mertens_coeff(along.t, m, along.n) == 2 * math.isqrt(along.t) * along.t**m
            assert class_sum(m, shifted) == coeff_side(m, shifted, pihol_coeff(m, shifted))
