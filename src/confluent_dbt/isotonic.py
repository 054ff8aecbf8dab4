"""Rational extensions of the isotonic oscillator.

The two-step confluent transformation at level n deletes that level: the
extension is quasi-isospectral (spectrum {2kw : k != n}) and its data are
polynomial in z = w x^2/2:

* the cumulative-norm polynomial Q_n^N (two independent construction
  routes, kept separate on purpose),
* the exceptional Laguerre family L-tilde_k for k != n,
* the non-normalizable state at the deleted energy (witness of the
  deletion), restored by the construction (`confluent`).

Identities are stored in units of w (the frequency), which scales out of
every exact statement.  `q_poly` and `confluent` are memoized like the
classical constructors they build on; `q_poly_via_ode`, the route
`q_poly` is checked against, is not.  The module ends with the family's
numeric description, the names `cli` and `reports` read of every family
(tdpt has the same).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .classical import CACHE_SIZE, IsotonicOscillator, laguerre
from .exactalg import (
    Z,
    CheckedRecord,
    Confluent,
    ExactPoly,
    ExtendedPotential,
    RadialGauged,
    RationalFn,
    confluent_numerator,
    isolate_roots,
)


class IsotonicSpec(CheckedRecord, namedtuple("IsotonicSpec", "n N")):
    """Extension parameters: deleted level n and potential integer N >= 1
    (checked by the base).

    The frequency w stays symbolic in all exact objects; numeric
    evaluations take it as an argument.
    """

    __slots__ = ()

    def __new__(cls, n: int, N: int):
        if n < 0:
            raise ValueError("level n must be >= 0")
        IsotonicOscillator(N)  # raises unless N >= 1
        return super().__new__(cls, n, N)

    @property
    def base(self) -> IsotonicOscillator:
        return IsotonicOscillator(self.N)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def q_poly(n: int, N: int) -> ExactPoly:
    """Q_n^N(z) = -sum_j d^j/dz^j [ z^N (L_n^N)^2 ] (derivative-sum route)."""
    g = Z**N * laguerre(n, N) * laguerre(n, N)
    total = ExactPoly.zero()
    cur = g
    while not cur.is_zero:
        total = total + cur
        cur = cur.derivative()
    return -total


def q_poly_via_ode(n: int, N: int) -> ExactPoly:
    """Independent route: the unique polynomial solution of
    Q' - Q = z^N (L_n^N)^2, solved degree-by-degree downward."""
    g = Z**N * laguerre(n, N) * laguerre(n, N)
    d = g.degree()
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = -g.coeff(d)
    for i in range(d - 1, -1, -1):
        coeffs[i] = (i + 1) * coeffs[i + 1] - g.coeff(i)
    return ExactPoly(coeffs)


def q_at_zero(n: int, N: int) -> Fraction:
    """Q_n^N(0) = -(n+N)!/n!  (minus the squared norm in (2w)^{-1/2} units)."""
    return -Fraction(factorial(n + N), factorial(n))


def rootless_certificate(n: int, N: int) -> tuple:
    """Sturm-certified absence of roots of Q_n^N on (0, inf).

    Returns (rootless, the isolating intervals of `isolate_roots`); the
    extension is regular on the whole half-line precisely because of this.
    """
    roots = isolate_roots(q_poly(n, N), Fraction(0), None)
    return not roots, roots


def l_nk(n: int, N: int, k: int) -> ExactPoly:
    """Polynomial part of the Wronskian of bound states n and k:
    W(psi_n, psi_k | x) = sqrt(2w) z^{N+1} e^{-z} L_{n,k}^N(z)."""
    a = (laguerre(n - 1, N + 1) if n >= 1 else ExactPoly.zero()) * laguerre(k, N)
    b = laguerre(n, N) * (laguerre(k - 1, N + 1) if k >= 1 else ExactPoly.zero())
    return a - b


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _seed(spec: IsotonicSpec) -> tuple:
    """psi_n and the Darboux denominator w = e^{-z} Q_n / sqrt(2w)."""
    w = RadialGauged(0, -2, -1, RationalFn(q_poly(spec.n, spec.N)))
    return spec.base.eigenstate(spec.n), w


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def confluent(spec: IsotonicSpec) -> Confluent:
    """The extension's construction: c = 1/(2w), and level n is deleted."""
    return Confluent(*_seed(spec), lambda k: l_tilde(spec, k))


def l_tilde(spec: IsotonicSpec, k: int) -> ExactPoly:
    """Exceptional Laguerre polynomial of surviving level k, its state's
    numerator over Q_n."""
    n, N = spec.n, spec.N
    if k < 0:
        raise ValueError("negative level")
    if k == n:
        raise ValueError(
            f"level {k} is deleted from the extension; it has no bound state"
        )
    w_k = RadialGauged(N + 1, -2, 1, RationalFn(l_nk(n, N, k)))
    # c (E_n - E_k) = (2w)^{-1} 2w (n - k)
    return confluent_numerator(*_seed(spec), spec.base.eigenstate(k), n - k, w_k)


def measure_weight_rational(spec: IsotonicSpec) -> RationalFn:
    """Rational part of the orthogonality weight z^N e^{-z} / (Q_n^N)^2
    on (0, inf); the e^{-z} factor is applied at quadrature time."""
    q = q_poly(spec.n, spec.N)
    return RationalFn(Z**spec.N, q * q)


def extended_potential(spec: IsotonicSpec) -> ExtendedPotential:
    """V-ext = V - 2 d/dx (psi_n^2 / w) (`Confluent.correction`)."""
    # the correction's gauge z^N (2w)^1 is z^N times 2 in units of w
    correction = 2 * confluent(spec).correction().rat_over({"c": 0})
    return ExtendedPotential(GAUGE, correction, spec.base.v_zform_units() + correction)


# -- n = 0: equivalence with a one-step type-II transformation ----------------


def n0_type2_ratio(N: int) -> Fraction:
    """Constant of proportionality in Q_0^N = ratio * L_N^(-N-1)."""
    return Fraction((-1) ** (N + 1) * factorial(N))


def n0_type2_proportional(N: int) -> bool:
    """Exact statement Q_0^N = (-1)^(N+1) N! L_N^(-N-1)."""
    return q_poly(0, N) == laguerre(N, -N - 1) * n0_type2_ratio(N)


def n0_type2_partner_units(N: int) -> RationalFn:
    """One-step partner V^(N,-)(x; w, N+1) + 2w in units of w.

    Built from the type-II seed phi = z^{-(2N+1)/4} e^{-z/2} L_N^(-N-1) of
    the (N+1)-oscillator: the partner is V(x;w,N+1) - 2 (log phi)'' + 2w.
    The n=0 extension of the N-oscillator must equal this exactly.
    """
    phi = RadialGauged(
        Fraction(-(2 * N + 1), 4), -1, 0, RationalFn(laguerre(N, -N - 1))
    )
    d1 = phi.d_dx()
    d2 = d1.d_dx()
    r1 = d1.rat / phi.rat
    r2 = d2.rat / phi.rat
    # phi''/phi = 2w r2/z and (phi'/phi)^2 = 2w r1^2/z, so
    # -2 (log phi)'' = -4w (r2 - r1^2)/z
    log_term = Fraction(-4) * (r2 - r1 * r1) * RationalFn(ExactPoly.one(), Z)
    return IsotonicOscillator(N + 1).v_zform_units() + log_term + 2


# -- shape invariance ----------------------------------------------------------


def shape_invariance_residual(n: int, N: int) -> ExactPoly:
    """Residual of Q_n^N = C Q_{n-1}^(N+1) + z^{N+1} L_n^N L_{n-1}^(N+1) / n
    with C = 1/n; the zero polynomial exactly when the identity holds.
    """
    if n < 1:
        raise ValueError("shape invariance needs n >= 1")
    c = Fraction(1, n)
    cross = Z ** (N + 1) * laguerre(n, N) * laguerre(n - 1, N + 1) * c
    return q_poly(n, N) - c * q_poly(n - 1, N + 1) - cross


def _coefficient_ratios(lhs: ExactPoly, rhs: ExactPoly) -> set:
    """Distinct ratios lhs_i / rhs_i over all coefficients, as strings;
    'inf' marks a coefficient of lhs where rhs has none."""
    ratios = set()
    for i in range(max(lhs.degree(), rhs.degree()) + 1):
        a, b = lhs.coeff(i), rhs.coeff(i)
        if b == 0:
            if a != 0:
                ratios.add("inf")
        else:
            ratios.add(str(a / b))
    return ratios


def n0_shape_obstruction(N: int) -> tuple:
    """Certificate that no constant C satisfies
    L_1^N Q_0^N - z^{N+1} = C Q_0^(N+1).

    Returns the set of distinct coefficient ratios (as strings; 'inf' marks
    a coefficient the right side cannot produce).  Two or more distinct
    ratios prove no constant works.
    """
    lhs = laguerre(1, N) * q_poly(0, N) - Z ** (N + 1)
    return tuple(sorted(_coefficient_ratios(lhs, q_poly(0, N + 1))))


def n0_shape_positive_control(N: int) -> bool:
    """The same ratio test run on an actual multiple (3 Q_0^(N+1)) must
    report a single ratio: guards against a vacuous obstruction test."""
    rhs = q_poly(0, N + 1)
    return len(_coefficient_ratios(rhs * 3, rhs)) == 1


# -- numeric description -------------------------------------------------------

GAUGE = RadialGauged  # z = w x^2/2, values in units of w
INPUTS = ("omega",)  # what numeric evaluation reads besides the spec
DOMAIN = (math.inf, "x > 0")  # the open x-domain, 0 < x < DOMAIN[0]
GRAM_INTERVAL = (0.0, math.inf)  # where a Gram matrix integrates
exceptional = l_tilde  # the exceptional polynomial of level k


def levels(spec: IsotonicSpec, kmax: int) -> tuple:
    """Levels 0..kmax that keep a bound state: the deleted n is skipped
    (quasi-isospectral), and a kmax below n+1 is raised to n+1 so that a
    level above n is included."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return tuple(k for k in range(max(kmax, spec.n + 1) + 1) if k != spec.n)


def energy(spec: IsotonicSpec, k: int) -> Fraction:
    """E_k = 2k in units of w, the same for the base and the extension."""
    return spec.base.energy_units(k)


def table_grid(omega: float) -> tuple:
    """The points of a table by default, (first, last, count): x from 0.05
    to 5 in units of 1/sqrt(w), so the states' nodes fall on it at every
    frequency."""
    root = math.sqrt(omega)
    return 0.05 / root, 5.0 / root, 200


def window(omega: float, top: int) -> tuple:
    """The Dirichlet window of a spectrum up to level `top` at frequency
    omega: inner cutoff well inside the centrifugal wall, outer wall deep
    in the oscillator tail."""
    e_max = 2.0 * top * omega
    return 1e-3 * math.sqrt(2.0 / omega), 2.0 * math.sqrt((e_max + 40.0) / omega)
