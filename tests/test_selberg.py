import pytest

from k3batman import proof_bound_audit
from k3batman.selberg import floor_fourth_root, simplified_chain, simplified_chain_bound
from util import primes_up_to


def test_floor_fourth_root():
    assert floor_fourth_root(5) == 1
    assert floor_fourth_root(16) == 2
    assert floor_fourth_root(93283) == 17
    for p in (5, 81, 82, 10**6, 10**6 + 1):
        root = floor_fourth_root(p)
        assert root**4 <= p < (root + 1) ** 4


def test_proof_bound_audit_examples():
    audit = proof_bound_audit(5)
    assert audit.lhs == pytest.approx(37.2, abs=1e-9)
    assert audit.rhs == pytest.approx(26.52 * 5**0.75, abs=1e-9)
    assert audit.passed

    twisted = proof_bound_audit(5, twisted=True)
    assert twisted.lhs == pytest.approx(38.8, abs=1e-9)
    assert twisted.rhs == pytest.approx(28.89 * 5**0.75, abs=1e-9)
    assert twisted.passed

    assert proof_bound_audit(93283).passed
    assert proof_bound_audit(93283, twisted=True).passed


def test_proof_bound_audit_prime_sample():
    for p in [p for p in primes_up_to(2000) if p >= 5]:
        assert proof_bound_audit(p).passed
        assert proof_bound_audit(p, twisted=True).passed


def test_proof_bound_audit_at_both_ends_of_each_degree():
    # At fixed M, lhs / p^(3/4) is about 4x/(M+1) + (32/3) M/x untwisted
    # (16 M/x twisted), x = p^(1/4) in [M, M+1): largest at p = M^4, where
    # it tends to 4 + 32/3 (4 + 16), and least at p = (M+1)^4 - 1.
    for M in range(1, 300):
        for p in (max(M**4, 5), (M + 1) ** 4 - 1):
            assert floor_fourth_root(p) == M
            for twisted, limit in ((False, 4 + 32 / 3), (True, 20.0)):
                audit = proof_bound_audit(p, twisted)
                assert audit.passed, (p, twisted)
                assert audit.lhs / p**0.75 < limit, (p, twisted)


def test_simplified_chain_tight_at_smallest_prime():
    ratio = simplified_chain(5) / simplified_chain_bound(5)
    assert 0.99 <= ratio <= 1.0
