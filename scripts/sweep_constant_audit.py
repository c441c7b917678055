#!/usr/bin/env python3
"""Sweep the explicit-constant chains over a prime range.

Checks the simplified untwisted chain against 26.52 p^(3/4) for every prime
up to --pmax and reports the tightest ratio (it peaks at p = 5, where the
constant is nearly sharp), then evaluates the full floor(p^(1/4))-degree
chains at a logarithmic sample of primes for both variants.

Usage:
    python scripts/sweep_constant_audit.py [--pmax 1000000]
"""

import argparse
import sys

import numpy as np

from k3batman import proof_bound_audit
from k3batman.selberg import simplified_chain, simplified_chain_bound


def primes_up_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=1_000_000)
    args = parser.parse_args()
    if args.pmax < 5:
        parser.error(f"--pmax must be >= 5, got {args.pmax}")

    primes = primes_up_to(args.pmax)
    primes = primes[primes >= 5]
    ratio = simplified_chain(primes) / simplified_chain_bound(primes)
    worst = int(primes[np.argmax(ratio)])
    print(f"simplified chain over {primes.size} primes <= {args.pmax}: "
          f"max ratio {ratio.max():.6f} at p={worst}, "
          f"{'all below the bound' if ratio.max() <= 1.0 else 'BOUND EXCEEDED'}")

    sample = sorted({int(p) for p in np.geomspace(5, primes[-1], 25)})
    sample = [int(primes[np.searchsorted(primes, s)]) for s in sample]
    ok = ratio.max() <= 1.0
    for p in sorted(set(sample)):
        a = proof_bound_audit(p)
        b = proof_bound_audit(p, twisted=True)
        ok &= a.passed and b.passed
        print(f"p={p:>8}: untwisted {a.lhs:14.2f} / {a.rhs:14.2f}"
              f"   twisted {b.lhs:14.2f} / {b.rhs:14.2f}"
              f"   {'pass' if a.passed and b.passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
