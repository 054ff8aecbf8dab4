"""Rational extensions of the trigonometric Poschl-Teller potential.

A two-step confluent Darboux transformation at bound level n produces a
strictly isospectral extension whose data are polynomial in z = cos(2x):

* the cumulative-norm polynomial Q_n^(N,M),
* the regularity window for the integration constant lambda1,
* the exceptional polynomial family P-tilde_k and its orthogonality weight.

All objects here are exact; numeric evaluation happens only through the
returned gauged/rational callables.  `q_poly` is memoized like the
classical constructors it builds on (`q_poly.cache_clear()` empties it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import verify
from .classical import CACHE_SIZE, TrigPoschlTeller, jacobi
from .exactalg import (
    ONE_MINUS,
    ONE_PLUS,
    ExactPoly,
    RationalFn,
    RootIsolation,
    TrigGauged,
    as_rat,
    isolate_roots,
    pointwise,
)


@dataclass(frozen=True)
class TdptSpec:
    """Extension parameters: deleted/restored level n, potential integers
    N, M >= 1 (checked by the base), and the integration constant lambda1
    (exact rational)."""

    n: int
    N: int
    M: int
    lambda1: Fraction

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("level n must be >= 0")
        TrigPoschlTeller(self.N, self.M)  # raises unless N, M >= 1
        object.__setattr__(self, "lambda1", as_rat(self.lambda1))

    @property
    def base(self) -> TrigPoschlTeller:
        return TrigPoschlTeller(self.N, self.M)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "M": self.M,
            "lambda1": str(self.lambda1),
        }


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def q_poly(n: int, N: int, M: int) -> ExactPoly:
    """Q_n^(N,M)(z) = -1/2 * int_{-1}^{z} (1-t)^N (1+t)^M P_n(t)^2 dt."""
    p = jacobi(n, N, M)
    integrand = ONE_MINUS**N * ONE_PLUS**M * p * p * Fraction(-1, 2)
    return integrand.antiderivative(lower=Fraction(-1))


def q_at_one(n: int, N: int, M: int) -> Fraction:
    """Endpoint value Q_n^(N,M)(1) in closed form."""
    return -Fraction(
        2 ** (N + M) * factorial(n + N) * factorial(n + M),
        (2 * n + N + M + 1) * factorial(n) * factorial(n + N + M),
    )


def q_recurrence_holds(n: int, N: int, M: int) -> bool:
    """Q_{n-1}^(N+1,M+1)(1) = [4n/(n+N+M+1)] Q_n^(N,M)(1), n >= 1."""
    if n < 1:
        raise ValueError("recurrence needs n >= 1")
    lhs = q_at_one(n - 1, N + 1, M + 1)
    rhs = Fraction(4 * n, n + N + M + 1) * q_at_one(n, N, M)
    return lhs == rhs


def regularity_threshold(n: int, N: int, M: int) -> Fraction:
    """The extension is regular iff lambda1 <= 0 or lambda1 > this value."""
    return -q_at_one(n, N, M)


def is_regular(n: int, N: int, M: int, lambda1) -> bool:
    lam = as_rat(lambda1)
    return lam <= 0 or lam > regularity_threshold(n, N, M)


def lambda1_shifted(n: int, N: int, M: int, lambda1) -> Fraction:
    """The integration constant matching parameters (n-1, N+1, M+1)."""
    return Fraction(4 * n, n + N + M + 1) * as_rat(lambda1)


def denominator_poly(spec: TdptSpec) -> ExactPoly:
    return q_poly(spec.n, spec.N, spec.M) + spec.lambda1


def certify_regularity(spec: TdptSpec) -> tuple:
    """Sturm-certified absence of roots of lambda1 + Q on the half-open
    interval (-1, 1].  Returns (regular, RootIsolation witness).

    Q is anchored at Q(-1) = 0 and strictly decreasing, so a zero of the
    denominator lands in (-1, 1] exactly when lambda1 sits in the forbidden
    window.  A zero at z = -1 itself (lambda1 = 0) is allowed, but there the
    level-n state is not square integrable (`ortho`/`spectrum` refuse it)."""
    d = denominator_poly(spec)
    witness = isolate_roots(d, Fraction(-1), Fraction(1))
    if d(Fraction(1)) == 0:
        one = Fraction(1)
        witness = RootIsolation(
            witness.intervals + ((one, one),), witness.multiplicity_free
        )
    return witness.count == 0, witness


def wronskian_pair_poly(n: int, N: int, M: int, k: int) -> ExactPoly:
    """Polynomial part of the Wronskian of bound states n and k:
    W(psi_n, psi_k | x) = -(1-z)^{N+1} (1+z)^{M+1} P_{n,k}(z)."""
    a = (
        Fraction(k + N + M + 1)
        * jacobi(n, N, M)
        * (jacobi(k - 1, N + 1, M + 1) if k >= 1 else ExactPoly.zero())
    )
    b = (
        Fraction(n + N + M + 1)
        * (jacobi(n - 1, N + 1, M + 1) if n >= 1 else ExactPoly.zero())
        * jacobi(k, N, M)
    )
    return a - b


def p_tilde(spec: TdptSpec, k: int) -> ExactPoly:
    """Exceptional polynomial attached to level k of the extension.

    For k != n this has degree N+M+2n+1+k; the k = n member degenerates to
    the plain Jacobi polynomial P_n (the level survives, its polynomial
    collapses)."""
    n, N, M = spec.n, spec.N, spec.M
    if k < 0:
        raise ValueError("negative level")
    if k == n:
        return jacobi(n, N, M)
    gap = Fraction(4 * (n - k) * (n + k + N + M + 1))
    return gap * jacobi(k, N, M) * denominator_poly(spec) + (
        ONE_MINUS ** (N + 1)
        * ONE_PLUS ** (M + 1)
        * wronskian_pair_poly(n, N, M, k)
        * jacobi(n, N, M)
    )


def measure_weight(spec: TdptSpec) -> RationalFn:
    """Orthogonality weight of the exceptional family on (-1, 1)."""
    d = denominator_poly(spec)
    return RationalFn(
        ONE_MINUS**spec.N * ONE_PLUS**spec.M * Fraction(1, 2), d * d
    )


def eigenfunction(spec: TdptSpec, k: int) -> TrigGauged:
    """Bound state of the extended potential at energy E_k (unnormalized)."""
    return spec.base.in_ground_gauge(
        RationalFn(p_tilde(spec, k), denominator_poly(spec))
    )


@dataclass(frozen=True)
class TdptExtendedPotential:
    """Extended potential in both exact z-form and numeric x-form."""

    spec: TdptSpec
    correction: RationalFn  # V-ext - V-base, rational in z
    z_form: RationalFn

    def v(self, x):
        """V-ext at x: a float, or a numpy array of points."""
        return self.z_form(pointwise(math.cos, 2.0 * x))


def extended_potential(spec: TdptSpec) -> TdptExtendedPotential:
    """V-ext = V + 4 sqrt(1-z^2) d/dz [ (1-z)^{N+1/2} (1+z)^{M+1/2} G ]
    with G = P_n^2 / (lambda1 + Q_n); regular lambda1 only."""
    n, N, M = spec.n, spec.N, spec.M
    if not is_regular(n, N, M, spec.lambda1):
        raise ValueError(
            f"lambda1 = {spec.lambda1} lies inside the forbidden window "
            f"(0, {regularity_threshold(n, N, M)}]"
        )
    p = jacobi(n, N, M)
    g = RationalFn(p * p, denominator_poly(spec))
    slope = TrigGauged(N + Fraction(1, 2), M + Fraction(1, 2), g).d_dx()
    # 4 sqrt(1-z^2) d/dz = -2 d/dx, and d/dx leaves the gauge (1-z)^N (1+z)^M
    correction = RationalFn(ONE_MINUS**N * ONE_PLUS**M * -2) * slope.rat
    z_form = spec.base.v_zform() + correction
    return TdptExtendedPotential(spec, correction, z_form)


@dataclass(frozen=True)
class ExceptionalFamily:
    """The first kmax+1 exceptional polynomials with their weight."""

    spec: TdptSpec
    polys: tuple
    weight: RationalFn


def exceptional_family(spec: TdptSpec, kmax: int) -> ExceptionalFamily:
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return ExceptionalFamily(
        spec,
        tuple(p_tilde(spec, k) for k in range(kmax + 1)),
        measure_weight(spec),
    )


def shape_invariance_residual(
    n: int, N: int, M: int, lambda1, c_factor=None
) -> tuple:
    """Residual polynomial of the enlarged shape-invariance identity.

    With A = lambda1 + Q_n^(N,M) - (1-z)^{N+1}(1+z)^{M+1} P_n P'_{n-1}/(4n)
    and C = (N+M+n+1)/(4n), the identity A = C (lambda1' + Q_{n-1}^(N+1,M+1))
    holds for every lambda1 with lambda1' = 4n lambda1/(N+M+n+1).  Returns
    (residual, C, lambda1'); the residual is the zero polynomial exactly
    when the identity holds.  Passing a different `c_factor` (e.g. C+1)
    breaks the identity and serves as a negative control.
    """
    if n < 1:
        raise ValueError("shape invariance needs n >= 1")
    lam = as_rat(lambda1)
    c = Fraction(N + M + n + 1, 4 * n) if c_factor is None else as_rat(c_factor)
    lam_shift = lambda1_shifted(n, N, M, lam)
    cross = (
        ONE_MINUS ** (N + 1)
        * ONE_PLUS ** (M + 1)
        * jacobi(n, N, M)
        * jacobi(n - 1, N + 1, M + 1)
        * Fraction(1, 4 * n)
    )
    lhs = q_poly(n, N, M) + lam - cross
    rhs = (q_poly(n - 1, N + 1, M + 1) + lam_shift) * c
    return lhs - rhs, c, lam_shift


def shape_invariance_holds(n: int, N: int, M: int, lambda1) -> bool:
    residual, _, _ = shape_invariance_residual(n, N, M, lambda1)
    return residual.is_zero


def isospectrality_witness(spec: TdptSpec, levels: int, grid_n: int):
    """Numeric Dirichlet spectrum of the extension against the unchanged
    exact ladder E_k = 4k(N+M+1+k).  Returns (SpectrumResult, expected)."""
    pot = extended_potential(spec)
    result = verify.dirichlet_spectrum(
        pot.v, *verify.tdpt_domain(), levels, grid_n=grid_n
    )
    expected = [float(spec.base.energy(k)) for k in range(levels)]
    return result, expected
