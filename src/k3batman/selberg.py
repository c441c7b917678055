"""Majorant/minorant trigonometric polynomials and explicit-constant audits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .measures import _BOUND_M, _BOUND_N


@dataclass(frozen=True)
class TrigPolynomial:
    """Degree-M trigonometric polynomial with conjugate-symmetric coefficients.

    ``coeffs[M + m]`` multiplies e(m x) for -M <= m <= M, so evaluation is
    real on the reals.
    """

    M: int
    coeffs: np.ndarray  # complex, length 2M+1

    def coeff(self, m: int) -> complex:
        if abs(m) > self.M:
            return 0j
        return complex(self.coeffs[self.M + m])


def eval_trig(poly: TrigPolynomial, x):
    """Evaluate sum coeff(m) e(m x); raises if the coefficient symmetry that
    forces a real value is broken, and discards the < 1e-12 float residue."""
    coeffs = poly.coeffs
    if not np.allclose(coeffs[::-1].conj(), coeffs, rtol=0.0, atol=1e-12):
        raise ArithmeticError("coefficients are not conjugate-symmetric")
    xs = np.asarray(x, dtype=float)
    ms = np.arange(-poly.M, poly.M + 1)
    values = np.exp(2j * math.pi * np.multiply.outer(xs, ms)) @ coeffs
    if np.max(np.abs(values.imag)) >= 1e-9:
        raise ArithmeticError("evaluation produced a non-negligible imaginary part")
    real = values.real
    return real if real.ndim else float(real)


def _vaaler_jhat(t: float) -> float:
    # Fourier transform of the extremal sawtooth-approximation kernel, 0 < t < 1
    return math.pi * t * (1.0 - t) / math.tan(math.pi * t) + t


def _selberg_coeffs(a: float, b: float, M: int, sign: int) -> np.ndarray:
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    coeffs[M] = (b - a) + sign / (M + 1)
    for m in range(1, M + 1):
        jm = _vaaler_jhat(m / (M + 1))
        fejer = 1.0 - m / (M + 1)
        ea = np.exp(-2j * math.pi * m * a)
        eb = np.exp(-2j * math.pi * m * b)
        c = jm * (ea - eb) / (2j * math.pi * m) + sign * fejer / (2 * (M + 1)) * (ea + eb)
        coeffs[M + m] = c
        coeffs[M - m] = np.conj(c)
    return coeffs


def selberg_pair(a: float, b: float, M: int) -> tuple[TrigPolynomial, TrigPolynomial]:
    """Majorant and minorant of the indicator of [a, b] inside [0, 1].

    The construction is the extremal sawtooth approximation plus a Fejer
    kernel correction, giving S-(x) <= chi(x) <= S+(x) pointwise, zeroth
    coefficients b - a +- 1/(M+1) exactly, and every other coefficient within
    1/(M+1) of the indicator's Fourier coefficient.
    """
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    if M < 1:
        raise ValueError("M must be >= 1")
    plus = TrigPolynomial(M, _selberg_coeffs(a, b, M, +1))
    minus = TrigPolynomial(M, _selberg_coeffs(a, b, M, -1))
    return plus, minus


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
