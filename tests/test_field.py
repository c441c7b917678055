import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3batman import is_prime, make_context, two_squares
from k3batman.field import powers, primitive_root
from util import chi_euler, inverses, primes_up_to, two_squares_exhaustive

PRIMES_10K = [p for p in primes_up_to(10_000) if p >= 5]


def test_chi_table_p5_matches_euler_oracle():
    ctx = make_context(5)
    assert ctx.chi_table.tolist() == [chi_euler(x, 5) for x in range(5)]
    assert ctx.chi_table.tolist() == [0, 1, -1, -1, 1]


def test_rejects_composite_with_witness():
    with pytest.raises(ValueError, match="witness"):
        make_context(4)


def test_rejects_small_prime():
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        make_context(3)


def test_chi_examples():
    ctx = make_context(5)
    assert ctx.chi(0) == 0
    assert ctx.chi(4) == 1
    assert ctx.chi(2) == -1
    with pytest.raises(ValueError):
        ctx.chi(5)


@pytest.mark.parametrize("p", [5, 7, 11, 97, 101, 1009])
def test_chi_table_matches_euler_oracle(p):
    ctx = make_context(p)
    assert ctx.chi_table.tolist() == [chi_euler(x, p) for x in range(p)]


def test_chi_table_is_balanced_and_read_only():
    ctx = make_context(101)
    values = ctx.chi_table
    assert int((values == 1).sum()) == 50
    assert int((values == -1).sum()) == 50
    assert values[0] == 0
    with pytest.raises(ValueError):
        values[3] = 0


def test_chi_multiplicative_on_random_pairs():
    rng = np.random.default_rng(20_240_901)
    for p in PRIMES_10K:
        chi = make_context(p).chi_table.astype(np.int64)
        x = rng.integers(1, p, size=10_000)
        y = rng.integers(1, p, size=10_000)
        assert np.array_equal(chi[(x * y) % p], chi[x] * chi[y])


def _order(g: int, p: int) -> int:
    k, x = 1, g % p
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_primitive_root_is_least_generator():
    for p in PRIMES_10K[:100]:
        g = primitive_root(p)
        assert _order(g, p) == p - 1
        assert all(_order(h, p) < p - 1 for h in range(2, g))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009, 65537])
def test_inverses_match_pow(p):
    assert inverses(p).tolist() == [pow(x, -1, p) for x in range(2, p)]


def test_two_squares_examples():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (3, 2)
    assert two_squares(7) is None


def test_two_squares_unique_and_correct():
    for p in PRIMES_10K:
        if p % 4 != 1:
            assert two_squares(p) is None
            continue
        candidates = two_squares_exhaustive(p)
        assert len(candidates) == 1
        a, b = two_squares(p)
        assert (a, b) == candidates[0]
        assert a * a + b * b == p and a % 2 == 1 and b > 0


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@settings(max_examples=400)
@given(st.integers(min_value=0, max_value=200_000))
def test_primality_matches_trial_division(n):
    assert is_prime(n) == _trial_division_prime(n)


@settings(max_examples=100)
@given(st.integers(min_value=5, max_value=100_000).filter(lambda n: not is_prime(n)))
def test_make_context_rejects_all_composites(n):
    with pytest.raises(ValueError):
        make_context(n)


@pytest.mark.parametrize("p, count", [(5, 1), (5, 4), (101, 3), (101, 100), (65537, 1 << 16),
                                      (1000003, 1 << 16)])
def test_powers_match_pow(p, count):
    for g in (primitive_root(p), pow(primitive_root(p), -1, p)):
        assert powers(g, p, count).tolist() == [pow(g, k, p) for k in range(count)]
