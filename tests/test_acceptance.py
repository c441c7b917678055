"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; the exact-identity criteria admit no tolerance at all, the measure
criteria carry the tolerances stated inline.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from k3batman import (
    chebyshev_coeffs,
    deligne_audit,
    density_f,
    discrepancy_report,
    ear_parameters,
    empirical_A_count,
    eval_trig,
    interval_counts_squared,
    moment,
    mu_bat,
    multiplicity_rhs,
    optimal_delta,
    pihol_coeff,
    selberg_pair,
    uniform_grid,
)
from k3batman.brackets import class_sum, coeff_side
from k3batman.selberg import simplified_chain, simplified_chain_bound
from k3batman.svg import histogram_counts
from util import (
    chebyshev_closed,
    chebyshev_eval,
    dense_identity_table,
    mu_bat_quadrature,
    primes_up_to,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_moment_identities(trace_tables_1000, hurwitz_4000):
    anchors = (
        moment(trace_tables_1000[5].multiplicities, 1),
        moment(trace_tables_1000[5].multiplicities, 1, twisted=True),
        moment(trace_tables_1000[5].multiplicities, 2),
    )
    assert anchors == (8, 0, 32)
    checked = 0
    for p, table in trace_tables_1000.items():
        expected = multiplicity_rhs(*dense_identity_table(hurwitz_4000, p))
        for n in range(1, 6):
            for twisted in (False, True):
                if moment(table.multiplicities, n, twisted) != moment(expected, n, twisted):
                    _report("criterion 01 moment identities", False,
                            f"mismatch at p={p}, n={n}, twisted={twisted}")
                checked += 1
    _report("criterion 01 moment identities", True,
            f"{checked} exact identities over primes 5..997, anchors 8/0/32")


def test_criterion_02_m1_vanishing(hurwitz_4000):
    primes = [p for p in primes_up_to(500) if p >= 5]
    for p in primes:
        along_p, along_4p = dense_identity_table(hurwitz_4000, p)
        if pihol_coeff(1, along_p) != 0:
            _report("criterion 02 m=1 vanishing", False, f"a_1({p}) != 0")
        if pihol_coeff(1, along_4p) != 0:
            _report("criterion 02 m=1 vanishing", False, f"b_1({4 * p}) != 0")
    _report("criterion 02 m=1 vanishing", True,
            f"a_1(p) = b_1(4p) = 0 exactly for all {len(primes)} primes <= 500")


def test_criterion_03_corrected_identities(hurwitz_4000):
    primes = [p for p in primes_up_to(200) if p >= 5]
    checked = 0
    for p in primes:
        along_p, along_4p = dense_identity_table(hurwitz_4000, p)
        for m in range(1, 5):
            a, b = pihol_coeff(m, along_p), pihol_coeff(m, along_4p)
            if class_sum(m, along_p) != coeff_side(m, along_p, a):
                _report("criterion 03 corrected identities", False,
                        f"a-side mismatch at p={p}, m={m}")
            if class_sum(m, along_4p) != coeff_side(m, along_4p, b):
                _report("criterion 03 corrected identities", False,
                        f"b-side mismatch at p={p}, m={m}")
            checked += 2
    _report("criterion 03 corrected identities", True,
            f"{checked} exact identities, primes <= 200, m <= 4")


def test_criterion_04_deligne_audit(hurwitz_4000):
    primes = [p for p in primes_up_to(500) if p >= 5]
    for p in primes:
        along_p, along_4p = dense_identity_table(hurwitz_4000, p)
        for m in range(1, 7):
            audit = deligne_audit(m, p, pihol_coeff(m, along_p), pihol_coeff(m, along_4p))
            if not audit.passed:
                _report("criterion 04 coefficient bounds", False,
                        f"bound exceeded at p={p}, m={m}")
    _report("criterion 04 coefficient bounds", True,
            f"both bounds hold for m <= 6 over {len(primes)} primes <= 500")


def test_criterion_05_chebyshev():
    for m in range(1, 51):
        coeffs = chebyshev_coeffs(2 * m)
        for l in range(1, m + 1):
            if chebyshev_closed(l, m) != coeffs[2 * l]:
                _report("criterion 05 chebyshev", False, f"(l={l}, m={m})")
    grid = np.linspace(-1.0, 1.0, 1001)
    for m in range(61):
        worst = max(abs(chebyshev_eval(m, float(x))) for x in grid)
        if worst > m + 1 + 1e-9:
            _report("criterion 05 chebyshev", False, f"|U_{m}| = {worst} > {m + 1}")
    _report("criterion 05 chebyshev", True,
            "closed form = recurrence for l <= m <= 50; |U_m| <= m+1 for m <= 60")


def test_criterion_06_measures():
    assert abs(mu_bat(-3.0, 3.0) - 1.0) <= 1e-12
    assert abs(mu_bat(1.0, 3.0) - (0.25 - 1.0 / (2.0 * math.pi))) <= 1e-12
    rng = random.Random(60_660)
    checked = 0
    while checked < 100:
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        if b - a < 1e-3:
            continue
        gap = abs(mu_bat(a, b) - mu_bat_quadrature(a, b, density_f))
        if gap > 1e-6:
            _report("criterion 06 measures", False, f"quadrature gap {gap} on [{a},{b}]")
        checked += 1
    _report("criterion 06 measures", True,
            "normalization and ear mass to 1e-12; 100 quadrature checks to 1e-6")


def test_criterion_07_split_identity(trace_tables_1000):
    rng = random.Random(777)
    intervals = []
    while len(intervals) < 20:
        den = rng.randint(10, 500)
        lo, hi = sorted(rng.randint(0, den) for _ in range(2))
        if lo < hi:
            intervals.append((Fraction(lo, den), Fraction(hi, den)))
    primes = [p for p in trace_tables_1000 if p <= 200]
    for p in primes:
        table = trace_tables_1000[p].multiplicities
        for a, b in intervals:
            direct = empirical_A_count(table, a, b)
            plus = interval_counts_squared(table, (1 + a) / 4, (1 + b) / 4)
            minus = interval_counts_squared(table, (1 - b) / 4, (1 - a) / 4)
            if direct != plus.h_plus + minus.h_minus:
                _report("criterion 07 split identity", False,
                        f"p={p}, interval [{a}, {b}]")
    _report("criterion 07 split identity", True,
            f"exact over {len(primes)} primes and 20 rational intervals")


def test_criterion_08_example_prime(table_93283):
    grids = {
        "batman": uniform_grid(-3, 3, 60),
        "clausen_N": uniform_grid(0, 1, 60),
        "clausen_Hpm": uniform_grid(0, 1, 60),
        "clausen_M": uniform_grid(0, 1, 60),
    }
    gaps = {}
    for which, grid in grids.items():
        report = discrepancy_report(table_93283.multiplicities, grid, which)
        if not report.all_pass:
            _report("criterion 08 example prime", False, f"{which} exceeded its bound")
        gaps[which] = report.max_gap
    if gaps["batman"] > 0.02:
        _report("criterion 08 example prime", False,
                f"batman max_gap {gaps['batman']:.4f} above the expected scale")
    # the ear bins (the ones containing t = -1 and t = +1) dominate the histogram
    counts = histogram_counts(table_93283.multiplicities, 61)
    spikes = sorted(range(61), key=lambda i: -counts[i])[:2]
    if set(spikes) != {20, 40}:
        _report("criterion 08 example prime", False,
                f"histogram spikes at bins {spikes}, expected the +-1 bins")
    detail = ", ".join(f"{k} max_gap {v:.5f}" for k, v in gaps.items())
    _report("criterion 08 example prime", True,
            f"p=93283: {detail}; histogram spikes sit in the +-1 bins")


def test_criterion_09_constant_audit():
    primes = np.array([p for p in primes_up_to(1_000_000) if p >= 5], dtype=np.int64)
    lhs = simplified_chain(primes)
    rhs = simplified_chain_bound(primes)
    bad = np.flatnonzero(lhs > rhs)
    if bad.size:
        _report("criterion 09 constant audit", False,
                f"simplified chain fails first at p={int(primes[bad[0]])}")
    ratio = simplified_chain(5) / simplified_chain_bound(5)
    if not 0.99 <= ratio <= 1.0:
        _report("criterion 09 constant audit", False, f"p=5 ratio {ratio:.6f}")
    _report("criterion 09 constant audit", True,
            f"{primes.size} primes <= 1e6; near-equality ratio at p=5: {ratio:.6f}")


def test_criterion_10_selberg_properties():
    rng = random.Random(10_101)
    grid = np.linspace(0.0, 1.0, 10_001)
    done = 0
    while done < 20:
        a, b = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
        if b - a < 0.01 or b - a > 0.95:
            continue
        M = rng.randint(1, 40)
        plus, minus = selberg_pair(a, b, M)
        chi = ((grid >= a) & (grid <= b)).astype(float)
        sp, sm = eval_trig(plus, grid), eval_trig(minus, grid)
        near_edge = (np.abs(grid - a) < 1e-4) | (np.abs(grid - b) < 1e-4)
        tol = np.where(near_edge, 1e-9, 1e-12)
        if not (np.all(chi - sp <= tol) and np.all(sm - chi <= tol)):
            _report("criterion 10 selberg properties", False,
                    f"majorization broken for [{a:.4f}, {b:.4f}], M={M}")
        if abs(plus.coeff(0).real - (b - a) - 1.0 / (M + 1)) > 1e-14:
            _report("criterion 10 selberg properties", False, "zeroth coefficient")
        for m in range(1, M + 1):
            ea = np.exp(-2j * np.pi * m * a)
            eb = np.exp(-2j * np.pi * m * b)
            target = (ea - eb) / (2j * np.pi * m)
            for poly in (plus, minus):
                if abs(poly.coeff(m) - target) > 1.0 / (M + 1) + 1e-12:
                    _report("criterion 10 selberg properties", False,
                            f"coefficient proximity at m={m}")
        done += 1
    _report("criterion 10 selberg properties", True,
            "majorization, zeroth coefficient, proximity on 20 random pairs")


def test_criterion_11_ears():
    params = ear_parameters(10.0)
    two_digits = float(f"{params.x:.1e}")
    if not (6e-5 <= params.x < 7e-5 and two_digits == 6.3e-5):
        _report("criterion 11 ears", False, f"x = {params.x}")
    star = optimal_delta(10.0)
    best = params.p_min
    for scale in (0.6, 0.8, 0.9, 0.99, 1.01, 1.1, 1.3, 1.8):
        if best > ear_parameters(10.0, star * scale).p_min:
            _report("criterion 11 ears", False, "delta* is not the grid minimum")
    quoted = 3.45e14
    flagged = params.p_min / quoted
    _report("criterion 11 ears", True,
            f"x = {params.x:.4e}; delta* optimal on grid; FLAGGED FINDING: "
            f"threshold formula gives p_min = {params.p_min:.3e}, {flagged:.0f}x "
            f"the quoted reference 3.45e14 (reported, not failed)")
