"""Classical orthogonal polynomials and the two base Hamiltonians.

Jacobi polynomials are generated from the explicit Gamma-ratio sum in powers
of (1+z); Laguerre polynomials from the falling-product sum, which stays
valid for negative integer parameters (needed for the type-II states
L_N^{(-N-1)}).  Both normalizations agree with the standard three-term
recurrences; tests pin that down.

`jacobi` and `laguerre` are memoized per process (a bounded
`functools.lru_cache` keyed by the integer arguments): every caller of the
same degree and parameters gets one shared, immutable `ExactPoly`.
`jacobi.cache_clear()` and `laguerre.cache_clear()` empty the caches.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exactalg import (
    ONE_MINUS,
    ONE_PLUS,
    Z,
    CheckedRecord,
    ExactPoly,
    RadialGauged,
    RationalFn,
    TrigGauged,
    pointwise,
)


def _sin_squared(x: float) -> float:
    return math.sin(x) ** 2


def _cos_squared(x: float) -> float:
    return math.cos(x) ** 2


# distinct (degree, parameters) keys a constructor keeps; far more than one
# `verify all` builds, and each entry is one small polynomial
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def jacobi(n: int, alpha: int, beta: int) -> ExactPoly:
    """Jacobi polynomial P_n^(alpha,beta), integer parameters >= 0."""
    if n < 0:
        raise ValueError("negative degree")
    if alpha < 0 or beta < 0:
        raise ValueError("jacobi needs nonnegative integer parameters")
    acc = ExactPoly.zero()
    for k in range(n + 1):
        c = Fraction(
            (-1) ** k * comb(n, k) * factorial(n + alpha + beta + k),
            2**k * factorial(beta + k),
        )
        acc = acc + ONE_PLUS**k * c
    pref = Fraction(
        (-1) ** n * factorial(n + beta), factorial(n) * factorial(n + alpha + beta)
    )
    return acc * pref


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def laguerre(n: int, alpha: int) -> ExactPoly:
    """Laguerre polynomial L_n^(alpha); alpha may be any integer."""
    if n < 0:
        raise ValueError("negative degree")
    coeffs = []
    for k in range(n + 1):
        prod = 1
        for j in range(k + 1, n + 1):
            prod *= j + alpha
        coeffs.append(Fraction((-1) ** k * prod, factorial(k) * factorial(n - k)))
    return ExactPoly(coeffs)


class TrigPoschlTeller(CheckedRecord, namedtuple("TrigPoschlTeller", "N M")):
    """V(x) = (N+1/2)(N-1/2)/sin^2(x) + (M+1/2)(M-1/2)/cos^2(x) - (N+M+1)^2
    on 0 < x < pi/2, with integer N, M >= 1.

    In the variable z = cos(2x) the bound states are
    psi_n = (1-z)^{(2N+1)/4} (1+z)^{(2M+1)/4} P_n^(N,M)(z) with
    E_n = 4n(N+M+1+n).
    """

    __slots__ = ()

    def __new__(cls, N: int, M: int):
        if N < 1 or M < 1:
            raise ValueError("integer parameters N, M >= 1 required")
        return super().__new__(cls, N, M)

    def energy(self, n: int) -> Fraction:
        return Fraction(4 * n * (self.N + self.M + 1 + n))

    def v_zform(self) -> RationalFn:
        """a/(1-z) + b/(1+z) - c as one fraction over 1 - z^2."""
        N, M = self.N, self.M
        a, b = Fraction(4 * N * N - 1, 2), Fraction(4 * M * M - 1, 2)
        c = (N + M + 1) ** 2
        return RationalFn(ExactPoly([a + b - c, a - b, c]), ONE_MINUS * ONE_PLUS)

    def v(self, x, omega: float = 1.0):
        """V at x: a float, or a numpy array of points (no frequency, so
        `omega` is not read)."""
        N, M = self.N, self.M
        return (
            (N * N - 0.25) / pointwise(_sin_squared, x)
            + (M * M - 0.25) / pointwise(_cos_squared, x)
            - (N + M + 1) ** 2
        )

    def eigenstate(self, n: int) -> TrigGauged:
        N, M = self.N, self.M
        rat = RationalFn(jacobi(n, N, M))
        return TrigGauged(Fraction(2 * N + 1, 4), Fraction(2 * M + 1, 4), rat)


class IsotonicOscillator(CheckedRecord, namedtuple("IsotonicOscillator", "N")):
    """V(x) = w^2 x^2/4 + (N+1/2)(N-1/2)/x^2 - w(N+1) on x > 0, integer N >= 1.

    In z = w x^2/2 the bound states are psi_n = z^{(2N+1)/4} e^{-z/2} L_n^N(z)
    with E_n = 2 n w.  Exact data is stored in units of w throughout (the
    potential and energies are uniformly linear in w), so identities are
    frequency-free.
    """

    __slots__ = ()

    def __new__(cls, N: int):
        if N < 1:
            raise ValueError("integer parameter N >= 1 required")
        return super().__new__(cls, N)

    def energy_units(self, n: int) -> Fraction:
        """E_n in units of w."""
        return Fraction(2 * n)

    def v_zform_units(self) -> RationalFn:
        """z/2 + (N^2 - 1/4)/(2z) - (N + 1) as one fraction over z."""
        N = self.N
        return RationalFn(
            ExactPoly([Fraction(4 * N * N - 1, 8), -(N + 1), Fraction(1, 2)]), Z
        )

    def v(self, x, omega: float):
        """V at x: a float, or a numpy array of points."""
        N = self.N
        return (
            omega * omega * x * x / 4.0
            + (N * N - 0.25) / (x * x)
            - omega * (N + 1)
        )

    def eigenstate(self, n: int) -> RadialGauged:
        rat = RationalFn(laguerre(n, self.N))
        return RadialGauged(Fraction(2 * self.N + 1, 4), -1, 0, rat)

    def norm_sq_units(self, n: int) -> Fraction:
        """Squared L2 norm of eigenstate(n) in units of (2w)^{-1/2}."""
        return Fraction(factorial(n + self.N), factorial(n))
