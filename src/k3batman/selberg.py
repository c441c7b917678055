"""Explicit-constant chains: the full one at M = floor(p^(1/4)) and its simplified form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .measures import _BOUND_M, _BOUND_N


def floor_fourth_root(p: int) -> int:
    return isqrt(isqrt(p))


@dataclass(frozen=True)
class BoundAudit:
    p: int
    twisted: bool
    lhs: float
    rhs: float
    passed: bool


def proof_bound_audit(p: int, twisted: bool = False) -> BoundAudit:
    """Evaluate the explicit error chain at M = floor(p^(1/4)).

    Untwisted the per-degree bracket is (4/3)(m-1) sqrt(p) + (2m+1) + 2/p^m
    against the constant _BOUND_N of N; twisted it is
    2(m-1) sqrt(p) + (2m+1) + 3/p^m against the constant _BOUND_M of M.
    """
    if p < 5:
        raise ValueError("p must be >= 5")
    M = floor_fourth_root(p)
    sqrt_p = math.sqrt(p)
    lhs = 4.0 * p / (M + 1)
    for m in range(1, M + 1):
        if twisted:
            term = 2.0 * (m - 1) * sqrt_p + (2 * m + 1) + 3.0 * float(p) ** -m
        else:
            term = 4.0 / 3.0 * (m - 1) * sqrt_p + (2 * m + 1) + 2.0 * float(p) ** -m
        lhs += 8.0 / m * term
    constant = _BOUND_M if twisted else _BOUND_N
    rhs = constant * p**0.75
    return BoundAudit(p, twisted, lhs, rhs, lhs <= rhs)


def simplified_chain(p) -> float:
    """The fully simplified untwisted chain with M replaced by p^(1/4) and the
    harmonic number by log M + 1; accepts scalars or numpy arrays."""
    p = np.asarray(p, dtype=float)
    value = 4.0 * p**0.75 + 8.0 / 3.0 * (
        6.0 * p**0.25 + 4.0 * p**0.75 + 1.05 * np.log(p) + 4.2
    )
    return value if value.ndim else float(value)


def simplified_chain_bound(p) -> float:
    p = np.asarray(p, dtype=float)
    value = _BOUND_N * p**0.75
    return value if value.ndim else float(value)
