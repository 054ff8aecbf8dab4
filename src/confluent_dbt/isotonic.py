"""Rational extensions of the isotonic oscillator.

The two-step confluent transformation at level n deletes that level: the
extension is quasi-isospectral (spectrum {2kw : k != n}) and its data are
polynomial in z = w x^2/2:

* the cumulative-norm polynomial Q_n^N (two independent construction
  routes, kept separate on purpose),
* the exceptional Laguerre family L-tilde_k for k != n,
* the non-normalizable state replacing level n (witness of the deletion).

Identities are stored in units of w (the frequency), which scales out of
every exact statement.  `q_poly` is memoized like the classical
constructors it builds on (`q_poly.cache_clear()` empties it);
`q_poly_via_ode`, the route it is checked against, is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import verify
from .classical import CACHE_SIZE, IsotonicOscillator, laguerre
from .exactalg import (
    POS_INF,
    Z,
    ExactPoly,
    RadialGauged,
    RationalFn,
    isolate_roots,
)


@dataclass(frozen=True)
class IsotonicSpec:
    """Extension parameters: deleted level n and potential integer N >= 1
    (checked by the base).

    The frequency w stays symbolic in all exact objects; numeric
    evaluations take it as an argument.
    """

    n: int
    N: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("level n must be >= 0")
        IsotonicOscillator(self.N)  # raises unless N >= 1

    @property
    def base(self) -> IsotonicOscillator:
        return IsotonicOscillator(self.N)

    def as_dict(self) -> dict:
        return {"n": self.n, "N": self.N}


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

    Returns (rootless, RootIsolation witness); the extension is regular on
    the whole half-line precisely because of this.
    """
    witness = isolate_roots(q_poly(n, N), Fraction(0), POS_INF)
    return witness.count == 0, witness


def l_nk(n: int, N: int, k: int) -> ExactPoly:
    """Polynomial part of the Wronskian of bound states n and k:
    W(psi_n, psi_k | x) = sqrt(2w) z^{N+1} e^{-z} L_{n,k}^N(z)."""
    a = (laguerre(n - 1, N + 1) if n >= 1 else ExactPoly.zero()) * laguerre(k, N)
    b = laguerre(n, N) * (laguerre(k - 1, N + 1) if k >= 1 else ExactPoly.zero())
    return a - b


def l_tilde(spec: IsotonicSpec, k: int) -> ExactPoly:
    """Exceptional Laguerre polynomial attached to surviving level k."""
    n, N = spec.n, spec.N
    if k < 0:
        raise ValueError("negative level")
    if k == n:
        raise ValueError(
            f"level {k} is deleted from the extension; it has no bound state"
        )
    return Fraction(n - k) * laguerre(k, N) * q_poly(n, N) - (
        Z ** (N + 1) * l_nk(n, N, k) * laguerre(n, N)
    )


def eigenfunction(spec: IsotonicSpec, k: int) -> RadialGauged:
    """Bound state of the extension at E_k = 2kw, k != n (unnormalized)."""
    return spec.base.in_ground_gauge(
        RationalFn(l_tilde(spec, k), q_poly(spec.n, spec.N))
    )


def deleted_state(spec: IsotonicSpec) -> RadialGauged:
    """The formal solution sitting at the deleted energy 2nw.

    It carries the growing gauge e^{+z/2}, so it is not normalizable: the
    witness that the extension is only quasi-isospectral.
    """
    return spec.base.in_ground_gauge(
        RationalFn(laguerre(spec.n, spec.N), q_poly(spec.n, spec.N)), s=+1
    )


def measure_weight_rational(spec: IsotonicSpec) -> RationalFn:
    """Rational part of the orthogonality weight z^N e^{-z} / (Q_n^N)^2
    on (0, inf); the e^{-z} factor is applied at quadrature time."""
    q = q_poly(spec.n, spec.N)
    return RationalFn(Z**spec.N, q * q)


@dataclass(frozen=True)
class IsotonicExtendedPotential:
    """Extension in exact z-form (units of w) and numeric x-form."""

    spec: IsotonicSpec
    correction_units: RationalFn  # (V-ext - V-base)/w, rational in z
    zform_units: RationalFn  # V-ext(x) = w * zform_units(w x^2/2)

    def v(self, x, omega: float):
        """V-ext at x: a float, or a numpy array of points."""
        return omega * self.zform_units(omega * x * x / 2.0)


def extended_potential(spec: IsotonicSpec) -> IsotonicExtendedPotential:
    """V-ext = V - 4 w sqrt(z) d/dz [ z^{N+1/2} (L_n^N)^2 / Q_n^N ]."""
    n, N = spec.n, spec.N
    ln = laguerre(n, N)
    h = RationalFn(ln * ln, q_poly(n, N))
    slope = RadialGauged(N + Fraction(1, 2), 0, 0, h).d_dx()
    # sqrt(z) d/dz = d/dx / sqrt(2w), and d/dx leaves the gauge z^N
    correction = RationalFn(Z**N * -4) * slope.rat
    return IsotonicExtendedPotential(
        spec, correction, spec.base.v_zform_units() + correction
    )


def surviving_levels(spec: IsotonicSpec, kmax: int) -> tuple:
    """Levels 0..kmax that keep a bound state (the deleted n is skipped),
    extended to n+1 when kmax is lower so a level above n is included."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return tuple(k for k in range(max(kmax, spec.n + 1) + 1) if k != spec.n)


@dataclass(frozen=True)
class ExceptionalLaguerreFamily:
    """Exceptional polynomials on the `surviving_levels`."""

    spec: IsotonicSpec
    levels: tuple
    polys: tuple
    weight_rational: RationalFn  # the weight is this times e^{-z}


def exceptional_family(spec: IsotonicSpec, kmax: int) -> ExceptionalLaguerreFamily:
    levels = surviving_levels(spec, kmax)
    return ExceptionalLaguerreFamily(
        spec,
        levels,
        tuple(l_tilde(spec, k) for k in levels),
        measure_weight_rational(spec),
    )


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


def shape_invariance_residual(n: int, N: int, c_factor=None) -> tuple:
    """Residual of Q_n^N = C Q_{n-1}^(N+1) + z^{N+1} L_n^N L_{n-1}^(N+1) / n
    with C = 1/n.  Returns (residual, C); zero residual iff the identity
    holds.  A different `c_factor` serves as a negative control.
    """
    if n < 1:
        raise ValueError("shape invariance needs n >= 1")
    c = Fraction(1, n) if c_factor is None else Fraction(c_factor)
    cross = Z ** (N + 1) * laguerre(n, N) * laguerre(n - 1, N + 1) * Fraction(1, n)
    return q_poly(n, N) - c * q_poly(n - 1, N + 1) - cross, c


def shape_invariance_holds(n: int, N: int) -> bool:
    residual, _ = shape_invariance_residual(n, N)
    return residual.is_zero


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


def quasi_isospectrality_witness(
    spec: IsotonicSpec, omega: float, levels: int, grid_n: int
):
    """Numeric Dirichlet spectrum of the extension against the punctured
    ladder {2kw : k != n}.  Returns (SpectrumResult, expected)."""
    pot = extended_potential(spec)
    expected = []
    k = 0
    while len(expected) < levels:
        if k != spec.n:
            expected.append(2.0 * k * omega)
        k += 1
    e_max = expected[-1]
    result = verify.dirichlet_spectrum(
        lambda x: pot.v(x, omega),
        *verify.isotonic_domain(omega, e_max),
        levels,
        grid_n=grid_n,
    )
    return result, expected
