"""Rational extensions of the trigonometric Poschl-Teller potential.

A two-step confluent Darboux transformation at bound level n produces a
strictly isospectral extension whose data are polynomial in z = cos(2x):

* the cumulative-norm polynomial Q_n^(N,M),
* the regularity window for the integration constant lambda1,
* the exceptional polynomial family P-tilde_k and its orthogonality weight.

States and potential come from `confluent`; lambda1 enters only through
w = lambda1 + Q_n.  All objects here are exact; numeric evaluation happens
only through the returned gauged/rational callables.  `q_poly` and
`confluent` are memoized like the classical constructors they build on.
The module ends with the family's numeric description, the names `cli`
and `reports` read of every family (isotonic has the same).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .classical import CACHE_SIZE, TrigPoschlTeller, jacobi
from .exactalg import (
    ONE_MINUS,
    ONE_PLUS,
    CheckedRecord,
    Confluent,
    ExactPoly,
    ExtendedPotential,
    RationalFn,
    TrigGauged,
    as_rat,
    confluent_numerator,
    isolate_roots,
)


class TdptSpec(CheckedRecord, namedtuple("TdptSpec", "n N M lambda1")):
    """Extension parameters: deleted/restored level n, potential integers
    N, M >= 1 (checked by the base), and the integration constant lambda1
    (exact rational)."""

    __slots__ = ()

    def __new__(cls, n: int, N: int, M: int, lambda1):
        if n < 0:
            raise ValueError("level n must be >= 0")
        TrigPoschlTeller(N, M)  # raises unless N, M >= 1
        return super().__new__(cls, n, N, M, as_rat(lambda1))

    @property
    def base(self) -> TrigPoschlTeller:
        return TrigPoschlTeller(self.N, self.M)


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
    """Certified absence of roots of lambda1 + Q on the half-open interval
    (-1, 1], by Descartes' rule with bisection.  Returns (regular, roots):
    the isolating intervals of `isolate_roots`, and (1, 1) at a root z = 1.

    Q is anchored at Q(-1) = 0 and strictly decreasing, so a zero of the
    denominator lands in (-1, 1] exactly when lambda1 sits in the forbidden
    window.  A zero at z = -1 itself (lambda1 = 0) is allowed, but there the
    level-n state is not square integrable (`ortho`/`spectrum` refuse it)."""
    d = denominator_poly(spec)
    one = Fraction(1)
    roots = isolate_roots(d, -one, one)
    if d(one) == 0:
        roots += ((one, one),)
    return not roots, roots


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


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _seed(spec: TdptSpec) -> tuple:
    """psi_n and the Darboux denominator w = lambda1 + Q_n, gauge exponents 0."""
    w = TrigGauged(0, 0, RationalFn(denominator_poly(spec)))
    return spec.base.eigenstate(spec.n), w


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def confluent(spec: TdptSpec) -> Confluent:
    """The extension's construction: c = 1, and level n keeps its state."""
    return Confluent(*_seed(spec), lambda k: p_tilde(spec, k))


def p_tilde(spec: TdptSpec, k: int) -> ExactPoly:
    """Exceptional polynomial of level k, its state's numerator over w.

    For k != n this has degree N+M+2n+1+k; the k = n member degenerates to
    the plain Jacobi polynomial P_n (the level survives, its polynomial
    collapses)."""
    n, N, M = spec.n, spec.N, spec.M
    if k < 0:
        raise ValueError("negative level")
    if k == n:
        return jacobi(n, N, M)
    w_k = TrigGauged(N + 1, M + 1, RationalFn(-wronskian_pair_poly(n, N, M, k)))
    b, gap = spec.base, spec.base.energy(n) - spec.base.energy(k)
    return confluent_numerator(*_seed(spec), b.eigenstate(k), gap, w_k)


def measure_weight(spec: TdptSpec) -> RationalFn:
    """Orthogonality weight of the exceptional family on (-1, 1)."""
    d = denominator_poly(spec)
    return RationalFn(
        ONE_MINUS**spec.N * ONE_PLUS**spec.M * Fraction(1, 2), d * d
    )


def extended_potential(spec: TdptSpec) -> ExtendedPotential:
    """V-ext = V - 2 d/dx (psi_n^2 / w) (`Confluent.correction`); regular
    lambda1 only."""
    n, N, M = spec.n, spec.N, spec.M
    if not is_regular(n, N, M, spec.lambda1):
        raise ValueError(
            f"lambda1 = {spec.lambda1} lies inside the forbidden window "
            f"(0, {regularity_threshold(n, N, M)}]"
        )
    # the correction's gauge (1-z)^N (1+z)^M moves into its rational part
    correction = confluent(spec).correction().rat_over({"a": 0, "b": 0})
    return ExtendedPotential(GAUGE, correction, spec.base.v_zform() + correction)


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


# -- numeric description -------------------------------------------------------

GAUGE = TrigGauged  # z = cos 2x, values as they are
INPUTS = ()  # what numeric evaluation reads besides the spec: no frequency
DOMAIN = (math.pi / 2, "0 < x < pi/2")  # the open x-domain, 0 < x < DOMAIN[0]
GRAM_INTERVAL = (1e-8, math.pi / 2 - 1e-8)  # where a Gram matrix integrates
exceptional = p_tilde  # the exceptional polynomial of level k


def levels(spec: TdptSpec, kmax: int) -> tuple:
    """Levels 0..kmax: every level keeps its state (strictly isospectral)."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return tuple(range(kmax + 1))


def energy(spec: TdptSpec, k: int) -> Fraction:
    """E_k, the same for the base and the extension."""
    return spec.base.energy(k)


def table_grid(omega: float) -> tuple:
    """The points of a table by default, (first, last, count); the family
    has no frequency, so `omega` is not read."""
    return 0.01, 1.56, 200


def window(omega: float, top: int) -> tuple:
    """The Dirichlet window of a spectrum, whatever its levels."""
    return 1e-4, math.pi / 2 - 1e-4
