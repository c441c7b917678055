import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    build_trace_table,
    chebyshev_coeffs,
    chebyshev_sum,
    clausen_trace,
    make_context,
    moment,
    two_squares,
)
from k3batman import clausen
from util import (
    a_value,
    chebyshev_sum_by_loop,
    curve_point_count,
    entries,
    primes_up_to,
    star,
)


@pytest.fixture(scope="module")
def ctx5():
    return make_context(5)


@pytest.fixture(scope="module")
def table5(ctx5):
    return build_trace_table(ctx5)


def test_trace_examples_p5(ctx5):
    assert clausen_trace(ctx5, 1) == -2
    assert clausen_trace(ctx5, 2) == 0
    assert clausen_trace(ctx5, 3) == 2


def test_trace_rejects_singular_members(ctx5):
    with pytest.raises(ValueError):
        clausen_trace(ctx5, 0)
    with pytest.raises(ValueError):
        clausen_trace(ctx5, 4)  # -1 mod 5


def test_trace_matches_point_enumeration():
    for p in [p for p in primes_up_to(50) if p >= 5]:
        ctx = make_context(p)
        for lam in range(1, p - 1):
            assert clausen_trace(ctx, lam) == p + 1 - curve_point_count(p, lam)


@pytest.mark.parametrize("p", [101, 103])  # 1 and 3 (mod 4): chi(-1) = +1 and -1
def test_trace_of_an_unreduced_lambda(p):
    """lambda + p and lambda - p name the same curve as lambda."""
    ctx = make_context(p)
    for lam in range(1, p - 1):
        expected = p + 1 - curve_point_count(p, lam)
        assert [clausen_trace(ctx, lam + k * p) for k in (1, -1, -3)] == [expected] * 3, lam
    for singular in (p, -1, -p - 1, 2 * p):
        with pytest.raises(ValueError, match="singular"):
            clausen_trace(ctx, singular)


def test_table_p5(table5):
    assert list(entries(table5)) == [(1, -2, 1), (2, 0, -1), (3, 2, -1)]


def test_table_p7_hasse():
    table = build_trace_table(make_context(7))
    assert len(table) == 5
    assert int(np.abs(table.traces).max()) <= 5  # floor(2 sqrt 7)


@pytest.mark.parametrize("p", [11, 101, 499])
def test_table_entry_count_and_hasse(p):
    table = build_trace_table(make_context(p))
    assert len(table) == p - 2
    assert int(np.abs(table.traces).max()) <= math.isqrt(4 * p)
    assert set(np.unique(table.signs)) <= {-1, 1}


def test_table_matches_direct_oracle():
    for p in [p for p in primes_up_to(300) if p >= 5] + [4099]:
        ctx = make_context(p)
        table = build_trace_table(ctx)
        direct = [clausen_trace(ctx, lam) for lam in range(1, p - 1)]
        assert table.traces.tolist() == direct, f"p={p}"


def test_table_guards_raise(monkeypatch):
    ctx = make_context(101)
    irfft = clausen.irfft
    monkeypatch.setattr(clausen, "irfft", lambda *args: irfft(*args) + 0.4)
    with pytest.raises(ArithmeticError, match=r"rounding residual 0\.4"):
        build_trace_table(ctx)
    # integral but far off: only the Hasse check can catch it
    monkeypatch.setattr(clausen, "irfft", lambda *args: irfft(*args) + 100)
    with pytest.raises(ArithmeticError, match="Hasse"):
        build_trace_table(ctx)


def test_trace_multiplicities_match_class_numbers(trace_tables_1000, hurwitz_4000):
    """#{lambda : |a_lambda| = s}, plain and phi-signed, for every s > 0 against
    the class-number weights of the moment identities: the identity for all
    moments at once, and a global check on every entry of the table."""
    for p, table in trace_tables_1000.items():
        squares = two_squares(p)
        ta, tb = (2 * squares[0], 2 * squares[1]) if squares else (0, 0)
        counts, signed = Counter(), Counter()
        for a, sign in zip(table.traces.tolist(), table.signs.tolist()):
            counts[abs(a)] += 1
            signed[abs(a)] += sign
        for s in range(1, math.isqrt(4 * p) + 1):
            if s % 2:
                expected = (0, 0)
            else:
                small = star(hurwitz_4000, p - (s // 2) ** 2)  # (4p - s^2)/4
                big = star(hurwitz_4000, 4 * p - s * s)
                hit_a, hit_b = int(s == ta), int(s == tb)
                expected = (
                    2 * small + big - Fraction(hit_a + hit_b, 2),
                    4 * small - big - Fraction(hit_a - hit_b, 2),
                )
            assert (counts[s], signed[s]) == expected, f"first mismatch at p={p}, s={s}"


def test_table_arrays_read_only(table5):
    with pytest.raises(ValueError):
        table5.traces[0] = 0


def test_a_value_examples(ctx5):
    assert a_value(ctx5, 3).value == Fraction(-1, 5)
    assert a_value(ctx5, 1).value == 1
    assert a_value(ctx5, 2).value == Fraction(1, 5)
    with pytest.raises(ValueError):
        a_value(ctx5, 0)
    with pytest.raises(ValueError):
        a_value(ctx5, 4)


def test_a_value_range():
    for p in (13, 61, 127):
        ctx = make_context(p)
        for mu in range(1, p - 1):
            assert -3 <= a_value(ctx, mu).value <= 3


# 196613 = 1 and 200003 = 3 (mod 4), both past 6 blocks of powers, so the
# walk takes 7 blocks and the last one is partial. At 65537, p - 1 = 2 _BLOCK:
# two whole blocks, and the first leaves out k = 0.
@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009, 25013, 65537, 196613, 200003])
def test_a_numerators_match_pow_inverses(p):
    """The cells by lambda, then the cells and their numerators by mu, against
    inverses by pow."""
    table = build_trace_table(make_context(p))
    cells = clausen.place_by_mu(p, clausen.lambda_cells(table))
    num = clausen.cell_numerators(p)[cells]
    assert cells.dtype == np.uint16 and num.dtype == np.int32
    traces, signs = table.traces.tolist(), table.signs.tolist()
    by_lambda = [2 * abs(a) + (sign < 0) for a, sign in zip(traces, signs)]
    assert clausen.lambda_cells(table).tolist() == by_lambda
    expected_cells, expected = [], []
    for mu in range(1, p - 1):
        lam = p - pow(mu + 1, -1, p)
        a, sign = traces[lam - 1], signs[lam - 1]
        expected_cells.append(2 * abs(a) + (sign < 0))
        expected.append(sign * (a * a - p))
    assert cells.tolist() == expected_cells
    assert num.tolist() == expected


def test_a_value_cells_hold_two_bytes_per_p(monkeypatch):
    """Beyond the per-lambda cells they read, the placed cells hold 2 bytes
    per p and block scratch: no p-length mask, power or inverse table. The
    per-lambda cells, beyond the table, are 2 bytes per p and nothing more."""
    monkeypatch.setattr(clausen, "_BLOCK", 1 << 10)
    p = 100003
    table = build_trace_table(make_context(p))
    tracemalloc.start()
    try:
        cells = clausen.lambda_cells(table)
        made = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        clausen.place_by_mu(p, cells)
        peak = tracemalloc.get_traced_memory()[1] - 2 * (p - 2)  # less the cells read
    finally:
        tracemalloc.stop()
    assert cells.dtype == np.uint16
    assert made < 2 * p + 8 * clausen._BLOCK
    # one more byte per p, such as a reached-x mask, is past this bound
    assert peak < 2 * p + 96 * clausen._BLOCK


def test_place_by_mu_refuses_cells_of_another_length():
    cells = clausen.lambda_cells(build_trace_table(make_context(101)))
    with pytest.raises(ValueError, match="at p=101 needs 99 of them"):
        clausen.place_by_mu(101, cells[1:])


def test_a_value_cells_name_a_missed_x_for_a_non_generator(monkeypatch):
    """10^4 = 1 (mod 101): both streams reach x = 1 with inverse 1, which
    agree, and its gather lies past the table. It is clipped, and the x no
    power reaches is named, not an IndexError."""
    from k3batman import field

    table = build_trace_table(make_context(101))
    monkeypatch.setattr(field, "primitive_root", lambda p: 10)
    with pytest.raises(ArithmeticError, match="at p=101: x=2 is no power of g=10$"):
        clausen.place_by_mu(101, clausen.lambda_cells(table))


def test_cell_numerators_keep_the_dtype_rule():
    """s^2 - p at cell 2s, p - s^2 at 2s + 1; int32 while 3p < 2^31."""
    for p, dtype in ((101, np.int32), (715827881, np.int32), (715827883, np.int64)):
        num = clausen.cell_numerators(p)
        assert num.dtype == dtype
        s = math.isqrt(4 * p)
        assert len(num) == 2 * s + 2
        assert num[:4].tolist() == [-p, p, 1 - p, p - 1]
        assert num[-2:].tolist() == [s * s - p, p - s * s]


@pytest.mark.parametrize("value", [22, -(1 << 31), (1 << 31) - 1, -(1 << 15), (1 << 15) - 1])
def test_multiplicities_refuse_an_int32_trace_beyond_hasse(value):
    """In the narrowest of int16 and int32 that holds the value."""
    table = build_trace_table(make_context(101))
    traces = table.traces.astype(np.int16 if -(1 << 15) <= value < 1 << 15 else np.int32)
    traces[17] = value
    message = rf"Hasse bound violated at p=101: \|a\| = {abs(value)} > 20"
    with pytest.raises(ArithmeticError, match=message):
        clausen.TraceTable(101, traces, table.signs).multiplicities


def test_trace_table_refuses_signs_off_the_invariant():
    """A flipped sign breaks the sum -1; a +1 and a -1 set to 0, or two +1 set
    to 3 and -1, keep it but are not p - 2 values +-1."""
    table = build_trace_table(make_context(101))
    plus, minus = np.flatnonzero(table.signs == 1), np.flatnonzero(table.signs == -1)
    for at, values in (([plus[0]], [-1]), ([plus[0], minus[0]], [0, 0]), (plus[:2], [3, -1])):
        signs = table.signs.copy()
        signs[at] = values
        with pytest.raises(ArithmeticError, match="trace signs at p=101 are not 99 values"):
            clausen.TraceTable(101, table.traces, signs)


def test_trace_table_refuses_a_wrong_length():
    table = build_trace_table(make_context(101))
    for traces, signs in ((table.traces[1:], table.signs), (table.traces, table.signs[:-1])):
        with pytest.raises(ValueError, match="at p=101 needs 99 traces and signs"):
            clausen.TraceTable(101, traces, signs)


def test_trace_table_makes_its_arrays_read_only_in_place():
    table = build_trace_table(make_context(101))
    traces, signs = table.traces.astype(np.int64), table.signs.copy()
    wide = clausen.TraceTable(101, traces, signs)
    assert wide.traces is traces and wide.signs is signs  # no copy
    assert not (traces.flags.writeable or signs.flags.writeable)


@pytest.mark.parametrize("p", [5, 101, 25013])
def test_trace_table_is_int16(p):
    table = build_trace_table(make_context(p))
    assert table.traces.dtype == np.int16
    assert not table.traces.flags.writeable


@pytest.mark.parametrize("p", [5, 101, 25013])
def test_trace_table_is_int32(monkeypatch, p):
    """Past the narrow width, here lowered below every cell at p, the traces
    are int32 and the cells int32, with the same values."""
    narrow = build_trace_table(make_context(p))
    monkeypatch.setattr(clausen, "_UINT16_TOP", 2 * math.isqrt(4 * p))
    assert not clausen.narrow_width(p)
    table = build_trace_table(make_context(p))
    assert table.traces.dtype == np.int32
    assert not table.traces.flags.writeable
    assert np.array_equal(table.traces, narrow.traces)
    cells = clausen.lambda_cells(table)
    assert cells.dtype == np.int32
    assert np.array_equal(cells, clausen.lambda_cells(narrow))
    assert table.multiplicities == narrow.multiplicities


def test_narrow_width_ends_where_a_cell_passes_uint16():
    """int16 traces and uint16 cells up to isqrt(4p) = 32766, the last p
    whose largest cell 2 isqrt(4p) + 1 is at most 2^16 - 2."""
    last = (32767**2 - 1) // 4  # 4p < 32767^2
    assert math.isqrt(4 * last) == 32766 and math.isqrt(4 * (last + 1)) == 32767
    assert clausen.narrow_width(last) and not clausen.narrow_width(last + 1)
    assert last < 1 << 28


def test_trace_build_drops_each_array_after_its_last_use():
    """Python's allocations in the build peak at about 48 bytes per p; with
    every array kept to the end of the build they reached 80."""
    p = 100003
    ctx = make_context(p)
    tracemalloc.start()
    try:
        build_trace_table(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * p


def test_trace_build_checks_hasse_before_the_int32_cast(monkeypatch):
    """An integral float trace past int32 is caught on the floats. A cast
    through int64 would wrap it back to the true trace, and a direct cast
    to int32 is undefined for it in C."""
    irfft = clausen.irfft

    def shifted(*args):
        corr = irfft(*args)
        corr[5] -= 1 << 32  # lambda = 5; a = -corr, so a gains 2^32
        return corr

    monkeypatch.setattr(clausen, "irfft", shifted)
    with pytest.raises(ArithmeticError, match="Hasse bound violated at p=101"):
        build_trace_table(make_context(101))


def test_moment_examples(table5):
    summary = table5.multiplicities
    assert moment(summary, 1) == 8
    assert moment(summary, 1, twisted=True) == 0
    assert moment(summary, 2) == 32
    with pytest.raises(ValueError):
        moment(summary, 0)


def test_moments_are_exact_big_integers():
    table = build_trace_table(make_context(997))
    value = moment(table.multiplicities, 8)
    brute = sum(int(a) ** 16 for a in table.traces)
    assert value == brute
    assert value > 2**64  # overflows fixed-width words, so exactness matters


def test_chebyshev_sum_examples(table5):
    summary = table5.multiplicities
    assert chebyshev_sum(summary, 1) == Fraction(-7, 5)
    assert chebyshev_sum(summary, 1, twisted=True) == 1
    assert chebyshev_sum(summary, 0) == 3


@pytest.mark.parametrize("p", [5, 13, 97])
@pytest.mark.parametrize("twisted", [False, True])
def test_chebyshev_sum_matches_moment_expansion(p, twisted):
    # independent route: swap the lambda and power sums
    table = build_trace_table(make_context(p))
    for m in range(7):
        coeffs = chebyshev_coeffs(2 * m)
        expected = Fraction(0)
        for l in range(m + 1):
            if l == 0:
                power_sum = sum(int(s) for s in table.signs) if twisted else p - 2
            else:
                power_sum = moment(table.multiplicities, l, twisted)
            expected += Fraction(coeffs[2 * l], (4 * p) ** l) * power_sum
        assert chebyshev_sum(table.multiplicities, m, twisted) == expected


def test_chebyshev_sum_matches_per_term_loop():
    # every prime below 2000 at low degree, and degrees to 40 at a few primes
    degrees = {p: 8 for p in primes_up_to(2000) if p >= 5}
    degrees.update(dict.fromkeys([5, 7, 101, 1009, 1999], 40))
    for p, top in degrees.items():
        summary = build_trace_table(make_context(p)).multiplicities
        for m in range(top + 1):
            for twisted in (False, True):
                expected = chebyshev_sum_by_loop(summary, m, twisted)
                assert chebyshev_sum(summary, m, twisted) == expected, (p, m, twisted)
