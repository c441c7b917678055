import math
import random

import pytest
from scipy.integrate import quad

from k3batman import density_f, ear_parameters, mu_bat, mu_st, optimal_delta
from k3batman.measures import SQRT3_OVER_4PI
from util import mu_bat_quadrature

FOUR_PI = 4.0 * math.pi


def _mu_bat_quadrature(a: float, b: float) -> float:
    return mu_bat_quadrature(a, b, density_f)


def test_density_examples():
    assert density_f(0.0) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-15)
    assert density_f(2.0) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)
    assert density_f(3.5) == 0.0
    assert density_f(3.0) == 0.0
    assert math.isinf(density_f(1.0))
    assert math.isinf(density_f(-1.0))


def test_density_even():
    for t in (0.25, 0.5, 0.99, 1.5, 2.5):
        assert density_f(t) == density_f(-t)


def test_mu_st_examples():
    assert mu_st(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    expected = (math.pi / 6.0 + math.sqrt(3.0) / 4.0) / math.pi
    assert mu_st(0.0, 0.5) == pytest.approx(expected, abs=1e-12)
    # density limit over a short interval
    a, eps = 0.3, 1e-7
    assert mu_st(a, a + eps) == pytest.approx(
        2.0 / math.pi * math.sqrt(1.0 - a * a) * eps, rel=1e-5
    )


def test_mu_st_quadrature():
    rng = random.Random(11)
    for _ in range(50):
        a, b = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
        if b - a < 1e-6:
            continue
        oracle, err = quad(lambda x: 2.0 / math.pi * math.sqrt(1.0 - x * x), a, b)
        assert mu_st(a, b) == pytest.approx(oracle, abs=1e-9)


def test_mu_st_range_check():
    with pytest.raises(ValueError):
        mu_st(-0.1, 0.5)
    with pytest.raises(ValueError):
        mu_st(0.5, 0.5)


def test_mu_bat_examples():
    assert mu_bat(-3.0, 3.0) == pytest.approx(1.0, abs=1e-12)
    assert mu_bat(1.0, 3.0) == pytest.approx(0.25 - 1.0 / (2.0 * math.pi), abs=1e-12)
    assert mu_bat(0.0, 1.0) == pytest.approx(0.25 + 1.0 / (2.0 * math.pi), abs=1e-12)


def test_mu_bat_symmetry():
    rng = random.Random(23)
    for _ in range(50):
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        if b - a < 1e-9:
            continue
        assert mu_bat(a, b) == pytest.approx(mu_bat(-b, -a), abs=1e-12)


def test_mu_bat_additive():
    rng = random.Random(31)
    for _ in range(50):
        a, b, c = sorted(rng.uniform(-3.0, 3.0) for _ in range(3))
        if b - a < 1e-9 or c - b < 1e-9:
            continue
        assert mu_bat(a, c) == pytest.approx(mu_bat(a, b) + mu_bat(b, c), abs=1e-12)


def test_mu_bat_against_quadrature():
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        if b - a < 1e-3:
            continue
        assert mu_bat(a, b) == pytest.approx(_mu_bat_quadrature(a, b), abs=1e-6)
        checked += 1


def test_mu_bat_range_check():
    with pytest.raises(ValueError):
        mu_bat(-3.5, 0.0)
    with pytest.raises(ValueError):
        mu_bat(1.0, 1.0)


def test_ear_parameters_example():
    params = ear_parameters(10.0)
    assert params.delta == pytest.approx(10.000316, abs=1e-5)
    assert params.x == pytest.approx(6.332e-5, rel=1e-3)
    assert 6e-5 <= params.x < 7e-5
    assert params.p_min == pytest.approx(5.866e19, rel=1e-3)


def test_ear_parameters_validation():
    with pytest.raises(ValueError):
        ear_parameters(0.1)
    with pytest.raises(ValueError):
        ear_parameters(10.0, delta=-1.0)
    for T, delta in ((math.inf, None), (10.0, math.nan), (10.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ear_parameters(T, delta)


def test_ear_density_exceeds_target():
    rng = random.Random(5)
    for _ in range(20):
        T = rng.uniform(SQRT3_OVER_4PI + 1e-3, 40.0)
        delta = rng.uniform(1e-3, 20.0)
        params = ear_parameters(T, delta)
        assert 0.0 < params.x < 1.0
        assert density_f(1.0 - params.x) / FOUR_PI > T + delta


def test_optimal_delta_minimizes_threshold():
    for T in (1.0, 5.0, 10.0, 25.0):
        star = optimal_delta(T)
        best = ear_parameters(T, star).p_min
        for scale in (0.5, 0.8, 0.95, 0.99, 1.01, 1.05, 1.25, 2.0):
            assert best <= ear_parameters(T, star * scale).p_min
