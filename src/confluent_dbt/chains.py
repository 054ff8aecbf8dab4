"""Numeric two-step confluent transformations for arbitrary seeds.

Everything here is a plain callable of a float or a 1-D array of points,
evaluated once per array of samples: the seed state, its cumulative norm
integral, the transformed potential and states.  The exact z-form layers
(tdpt, isotonic) never call into this module; agreement between the two
routes is checked in the test-suite, not assumed.

Conventions.  A one-step transform at the seed energy E sends
V -> 2E - V + 2 (psi'/psi)^2 and g -> W(psi, g)/psi.  Running a second
step with the confluent seed (lambda1 + I)/psi, I(x) the cumulative norm
from the anchor, composes to

    V -> V - 2 [log(lambda1 + I)]'',
    g -> (E - F) g - W(psi, g) psi / (lambda1 + I)      (g at energy F),

which is what `confluent_two_step` evaluates.  The same potential arises
from the E-derivative Wronskian W(psi, d_E psi); `matveev_potential`
rebuilds it that way, independently, from one Cauchy solve at the three
energies E and E +- h.

The numeric machinery is the package's own: the cumulative norm is
`verify.quadrature` (adaptive Gauss-Kronrod), and every Cauchy solve is
`dop853.solve` (the DOP853 Runge-Kutta method with its dense output).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import dop853
from .classical import IsotonicOscillator, TrigPoschlTeller
from .verify import quadrature, worst


class SeedFunction(namedtuple("SeedFunction", "f df energy x0")):
    """A solution of -f'' + V f = E f with its derivative and bookkeeping.

    `x0` anchors the cumulative integral; `math.inf` anchors at the far
    end (the integral is then taken as -int_x^inf f^2)."""

    __slots__ = ()


def _base_seed(base, n: int, energy: float, x0: float, omega: float):
    """Bound state n of `base` anchored at x0, at the frequency `omega` that
    only the radial family reads.  Returns (seed, potential callable)."""
    state = base.eigenstate(n)
    dstate = state.d_dx()
    seed = SeedFunction(lambda x: state.eval_x(x, omega),
                        lambda x: dstate.eval_x(x, omega), energy, x0)
    return seed, lambda x: base.v(x, omega)


def tdpt_seed(n: int, N: int, M: int):
    """Bound state n of the trigonometric potential, anchored at pi/2."""
    base = TrigPoschlTeller(N, M)
    return _base_seed(base, n, float(base.energy(n)), math.pi / 2, 1.0)


def isotonic_seed(n: int, N: int, omega: float):
    """Bound state n of the radial oscillator, anchored at infinity."""
    return _base_seed(IsotonicOscillator(N), n, float(2 * n * omega), math.inf, omega)


def integral_from_anchor(seed: SeedFunction, x):
    """Cumulative norm int_{x0}^{x} f(t)^2 dt at a float or a 1-D array:
    on each side of x0, one adaptive quadrature per gap between the sorted
    distinct points walked outward, then a running sum.  The first gap
    (possibly reversed or infinite) is the direct integral.  NaN gives NaN;
    a gap whose quadrature does not converge raises ValueError."""

    def square(t):
        return seed.f(t) ** 2

    pts = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full_like(pts, math.nan)
    for side, step in ((pts < seed.x0, -1), (pts >= seed.x0, 1)):
        knots, back = np.unique(pts[side], return_inverse=True)
        edges = np.concatenate(([seed.x0], knots[::step]))
        gaps = []
        for a, b in zip(edges, edges[1:]):
            r = quadrature(square, a, b)
            if not r.converged:
                raise ValueError(
                    f"the seed norm integral did not converge between {a} and {b} "
                    f"(error estimate {r.abs_error:.3g} after {r.subdivisions} "
                    "subintervals)"
                )
            gaps.append(r.value)
        out[side] = np.cumsum(gaps)[::step][back]
    return out if np.ndim(x) else float(out[0])


def dbt_apply(seed: SeedFunction, v):
    """One-step transform at the seed energy.

    Returns (partner potential, state map); the map sends (g, g') to the
    partner solution W(f, g)/f at the unchanged energy of g."""

    def v1(x):
        u = seed.df(x) / seed.f(x)
        return 2.0 * seed.energy - v(x) + 2.0 * u * u

    def transform(g, dg):
        def g1(x):
            return (seed.f(x) * dg(x) - seed.df(x) * g(x)) / seed.f(x)

        return g1

    return v1, transform


def confluent_two_step(seed: SeedFunction, v, lambda1: float):
    """Composite of the two steps.

    Returns (potential, transform); `transform(g, dg, energy)` maps a
    solution at `energy` to the corresponding solution of the new
    potential, normalized as (E - energy) g - W(f, g) f/(lambda1 + I)."""

    def denom(x):
        return lambda1 + integral_from_anchor(seed, x)

    def vt(x):
        fx, dfx, d = seed.f(x), seed.df(x), denom(x)
        return v(x) - 2.0 * (2.0 * fx * dfx * d - fx**4) / (d * d)

    def transform(g, dg, energy):
        def gt(x):
            fx = seed.f(x)
            w = fx * dg(x) - seed.df(x) * g(x)
            return (seed.energy - energy) * g(x) - w * fx / denom(x)

        return gt

    return vt, transform


def scaled_seed(seed: SeedFunction, c: float) -> SeedFunction:
    """Rescale the seed state by c; pairing with lambda1 -> c^2 lambda1
    must leave the two-step potential unchanged."""
    return seed._replace(f=lambda x: c * seed.f(x), df=lambda x: c * seed.df(x))


# -- independent route: the energy-derivative Wronskian -------------------------


def _integrate(rhs, x_start, y0, xs):
    """Integrate y' = rhs(t, y) by DOP853 (rtol 1e-11, atol 1e-13) from
    x_start towards both ends of xs and return y sampled at xs by the dense
    output, one row per component.  A stalled solver raises ValueError."""
    out = np.zeros((len(y0), len(xs)))
    # a chain turning singular overflows before the solver stalls: the
    # stall is its one error, with no warnings ahead of it
    with np.errstate(all="ignore"):
        for sel, stop in ((xs < x_start, xs.min()), (xs >= x_start, xs.max())):
            if stop == x_start or not np.any(sel):
                # nothing to reach on this side, or every point sits at x_start
                out[:, sel] = np.asarray(y0, dtype=float)[:, None]
                continue
            out[:, sel] = dop853.solve(
                rhs, x_start, stop, y0, rtol=1e-11, atol=1e-13
            )(xs[sel])
    return out


def matveev_potential(seed: SeedFunction, v, xs, x_ref: float):
    """Two-step potential via the limit Wronskian W(psi, d_E psi).

    psi is re-solved from the seed's Cauchy data at x_ref for energies
    E and E +- h, as one system so that the three solutions share their
    steps and the truncation errors cancel in the central difference
    (internal numerical differentiation, Bock 1981).  d_E psi then
    vanishes at x_ref along with its derivative; so W' = -psi^2, and

        V_M = V - 2 ((-2 psi psi') W - psi^4) / W^2.

    This shares nothing with `confluent_two_step` except the seed data:
    no quadrature, no closed-form state.  With the integral anchored at
    x_ref and lambda1 = 0 the two must agree.  Returns (V_M values, W
    values) on xs."""
    xs = np.asarray(xs, dtype=float)
    e = seed.energy
    # truncation grows as h^2, solver noise as 1/h; the crossover sits
    # near 1e-3 at unit energy scale
    h = 1e-3 * (1.0 + abs(e))
    energies = np.array([e, e + h, e - h])
    # y = [psi at the three energies, then their derivatives]:
    # -y'' + v y = energy y as a first-order system
    y0 = [seed.f(x_ref)] * 3 + [seed.df(x_ref)] * 3
    psi, psi_p, psi_m, dpsi, dpsi_p, dpsi_m = _integrate(
        lambda t, y: np.concatenate((y[3:], (v(t) - energies) * y[:3])),
        x_ref, y0, xs,
    )
    de_psi = (psi_p - psi_m) / (2.0 * h)
    de_dpsi = (dpsi_p - dpsi_m) / (2.0 * h)
    w = psi * de_dpsi - dpsi * de_psi
    vm = v(xs) - 2.0 * (
        (-2.0 * psi * dpsi) * w - psi**4
    ) / (w * w)
    return vm, w


def matveev_cross_check(seed: SeedFunction, v, xs, x_ref: float):
    """Energy-derivative route against the lambda1 = 0 confluent route.

    Returns (potential_rel, wronskian_rel).  The first is the largest
    relative gap between `matveev_potential` and `confluent_two_step`
    at lambda1 = 0 with the integral re-anchored at x_ref (so the two
    constructions describe the same extension); the second checks the
    identity W(psi, d_E psi) = -int_{x_ref}^x psi^2 against direct
    quadrature, which is what makes the confluence work at all."""
    xs = np.asarray(xs, dtype=float)
    anchored = seed._replace(x0=x_ref)
    vt, _ = confluent_two_step(anchored, v, 0.0)
    vm, w = matveev_potential(seed, v, xs, x_ref)
    scale = max(1.0, float(np.max(np.abs(vm))))
    pot_rel = worst(np.abs(vm - vt(xs))) / scale
    ref = -integral_from_anchor(anchored, xs)
    return pot_rel, worst(np.abs(w - ref) / np.maximum(np.abs(ref), 1e-30))


# -- iterated confluent chains ---------------------------------------------------


class ChainResult(namedtuple("ChainResult", (
    "xs psi dpsi integrals log_derivatives potential potential_grouped"
))):
    """State of an m-step chain sampled on a grid: arrays over `xs`, and
    tuples of them in `integrals` and `log_derivatives`.

    `potential` comes from telescoping the m Riccati derivatives;
    `potential_grouped` differentiates the ceil(m/2) pair-products
    (lambda_k + I_k) instead.  The two share only the integrated data."""

    __slots__ = ()


def hyperconfluent_chain(seed: SeedFunction, v, lambdas, xs, x_start: float):
    """Chain of len(lambdas)+1 transform steps at the seed energy.

    Step 1 uses the seed itself; each constant lambda_k then builds the
    next auxiliary state Psi^(k) = (lambda_k + I_k)/Psi^(k-1) with
    I_k' = (Psi^(k-1))^2, the seed of step k+1.  An empty `lambdas` is the
    plain one-step transform, one constant reproduces the confluent
    two-step, and so on.  All I_k are integrated as one augmented Cauchy
    system from x_start (where they vanish)."""
    lambdas = [float(t) for t in lambdas]
    levels = len(lambdas)
    m = levels + 1  # transform steps
    xs = np.asarray(xs, dtype=float)
    e = seed.energy

    def ladder(y):
        # y = [psi, psi', I_1..I_levels]; returns Psi^0..Psi^(levels)
        psis = [y[0]]
        for j in range(levels):
            psis.append((lambdas[j] + y[2 + j]) / psis[-1])
        return psis

    def rhs(t, y):
        psis = ladder(y)
        return [y[1], (v(t) - e) * y[0]] + [psis[j] ** 2 for j in range(levels)]

    y0 = [seed.f(x_start), seed.df(x_start)] + [0.0] * levels
    if not (math.isfinite(y0[0]) and y0[0] != 0.0):  # each step divides by it
        raise ValueError(f"chain seed is {y0[0]!r} at x_start = {x_start!r}; "
                         "start the chain where it is nonzero and finite")
    try:
        samples = _integrate(rhs, x_start, y0, xs)
    except ValueError as exc:
        # the integrator stalls where the chain turns singular
        raise ValueError(
            f"chain {str(exc).rstrip('.')}; "
            "the constants are likely outside the regular window"
        ) from None
    psi, dpsi = samples[0], samples[1]
    integrals = tuple(samples[2 + j] for j in range(levels))

    # regularity screen: the seed and every transform denominator must
    # keep one sign on the sampled grid (numeric stand-in for the exact
    # certificates, which only exist in the closed-form layers).  I_k is
    # monotone (I_k' = Psi^2), so a zero of lambda_k + I_k anywhere in the
    # sampled span shows as a sign change, even between two samples
    screened = [("seed", psi)] + [
        (f"constant {j + 1}", lambdas[j] + integrals[j]) for j in range(levels)
    ]
    for label, arr in screened:
        if (
            not np.all(np.isfinite(arr))
            or np.any(arr == 0.0)
            or (arr.min() < 0.0 < arr.max())
        ):
            raise ValueError(
                f"chain denominator vanishes on the grid ({label}); "
                "the constants are outside the regular window"
            )

    # Psi ladder and its log-derivatives on the grid
    psis = ladder(samples)
    us = [dpsi / psi]
    for j in range(levels):
        us.append(psis[j] ** 2 / (lambdas[j] + integrals[j]) - us[-1])

    vbase = v(xs)

    # route 1: telescoped Riccati derivatives, one per step
    vcur = vbase.copy()
    for k in range(m):
        du = (vcur - e) - us[k] ** 2
        vcur = vcur - 2.0 * du

    # route 2: each product Psi^(k-1) Psi^(k) collapses to lambda_k + I_k,
    # so only every other log-second-derivative is needed
    def pair_term(j):
        d = lambdas[j] + integrals[j]
        ip = psis[j] ** 2
        ipp = 2.0 * ip * us[j]
        return (ipp * d - ip * ip) / (d * d)

    if m % 2 == 0:
        vg = vbase - 2.0 * sum(pair_term(j) for j in range(0, levels, 2))
    else:
        vg = vbase - 2.0 * ((vbase - e) - us[0] ** 2)
        vg = vg - 2.0 * sum(pair_term(j) for j in range(1, levels, 2))

    return ChainResult(
        xs, psi, dpsi, integrals, tuple(us), vcur, vg
    )
