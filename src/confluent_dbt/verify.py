"""Numeric verification oracles: quadrature, Gram matrices and
finite-difference Dirichlet spectra.

They are independent of the exact layer, whose exact ODE residual is
`exactalg.exact_ode_residual` (re-exported here).  This module, with
numpy and LAPACK, loads at the first use of one of its names, so the
commands that only compute exactly never import it.

`quadrature` is adaptive Gauss-Kronrod quadrature after QUADPACK (the
21-point rule, bisection of the worst subinterval, the QAGI map for
infinite limits); it calls the integrand on arrays of nodes and says
whether it met its tolerance.  The tridiagonal eigensolvers are LAPACK's,
called through scipy's compiled wrappers by `lapack`; `scipy.linalg` is
never imported.

Two Gram routes exist.  `gram_matrix` integrates products of arbitrary
array callables by adaptive quadrature.  `gauss_gram` takes gauged states of one
family and takes the Gauss rule's weight from their gauge exponents:
Gauss-Jacobi in z = cos 2x for trigonometric states, Gauss-Laguerre in
z = w x^2/2 for radial ones, so only the rational parts are sampled, at
every node in one array evaluation; it doubles the nodes until two
successive Gram matrices agree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import lapack
from .exactalg import RadialGauged, TrigGauged, exact_ode_residual  # noqa: F401


# -- quadrature ---------------------------------------------------------------

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21, Piessens et al.
# 1983): the positive Kronrod nodes, outermost first, their weights (the
# centre's last), and the 10-point Gauss weights on every other node
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208367567920, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same rules over all 21 nodes in increasing order
_NODES = np.array([-x for x in _XK] + [0.0] + list(_XK[::-1]))
_RULES = np.zeros((21, 2))  # columns: Kronrod and Gauss weights
_RULES[:, 0] = _WK + _WK[9::-1]
_RULES[1:10:2, 1], _RULES[11:20:2, 1] = _WG, _WG[::-1]

QUAD_TOL = 1e-12  # absolute and relative
QUAD_LIMIT = 300  # subintervals
EPS = float(np.finfo(float).eps)


class QuadratureResult(
    namedtuple("QuadratureResult", "value abs_error subdivisions converged")
):
    """`converged` says the error estimate met the tolerance before the
    subinterval cap (it is false on a NaN or infinite integrand)."""

    __slots__ = ()


def _gauss_kronrod(f, intervals) -> list:
    """(lo, hi, Kronrod integral, QUADPACK error estimate) of each (lo, hi)
    in `intervals`, with one call of `f` on all their nodes."""
    centre = np.array([0.5 * (lo + hi) for lo, hi in intervals])
    half = np.array([0.5 * (hi - lo) for lo, hi in intervals])
    fv = np.asarray(f(np.ravel(centre[:, None] + half[:, None] * _NODES)), dtype=float)
    fv = fv.reshape(len(intervals), 21)
    kronrod, gauss = (fv @ _RULES).T
    mass = np.abs(fv) @ _RULES[:, 0]
    spread = np.abs(fv - 0.5 * kronrod[:, None]) @ _RULES[:, 0]
    out = []
    for (lo, hi), k, g, m, s, h in zip(
        intervals, kronrod.tolist(), gauss.tolist(), mass.tolist(),
        spread.tolist(), half.tolist(),
    ):
        # the spread of f about its mean scales the difference of the two
        # rules; the floor is the rounding error of the Kronrod sum
        err, s = abs((k - g) * h), s * abs(h)
        if s > 0:
            err = s * min(1.0, 200.0 * err / s) ** 1.5
        out.append((lo, hi, k * h, max(err, 50.0 * EPS * m * abs(h))))
    return out


def quadrature(f, lo: float, hi: float) -> QuadratureResult:
    """Adaptive Gauss-Kronrod quadrature (QUADPACK QAG with the 21-point
    rule): bisect the subinterval with the largest error estimate until the
    summed estimate meets 1e-12 absolute or relative, or 300 subintervals.
    `f` is called on a 1-D array of nodes, once per bisection.  A reversed
    interval gives the negated integral.  An infinite limit is mapped onto
    (0, 1] by x = a + (1 - t)/t, or both by its mirror image (QAGI)."""
    sign = -1.0 if lo > hi else 1.0
    lo, hi = min(lo, hi), max(lo, hi)
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 1, True)
    if math.isinf(lo) or math.isinf(hi):
        g = f
        anchor, side = (lo, 1.0) if math.isinf(hi) else (hi, -1.0)
        if math.isinf(lo) and math.isinf(hi):
            f = lambda t: (g((1.0 - t) / t) + g((t - 1.0) / t)) / (t * t)
        else:
            f = lambda t: g(anchor + side * ((1.0 - t) / t)) / (t * t)
        lo, hi = 0.0, 1.0
    parts = _gauss_kronrod(f, [(lo, hi)])
    while True:
        total = math.fsum(p[2] for p in parts)
        error = math.fsum(p[3] for p in parts)
        tol = QUAD_TOL * max(1.0, abs(total))
        if not error > tol or len(parts) == QUAD_LIMIT:
            break
        i = max(range(len(parts)), key=lambda j: parts[j][3])
        a, b = parts[i][:2]
        mid = 0.5 * (a + b)
        parts[i : i + 1] = _gauss_kronrod(f, [(a, mid), (mid, b)])
    converged = error <= tol
    return QuadratureResult(sign * total, error, len(parts), converged)


def gram_matrix(fns, lo: float, hi: float) -> tuple:
    """Gram matrix of callables of a 1-D array of points under quadrature.

    Returns (values ndarray, QuadratureResult matrix as nested lists).
    """
    m = len(fns)
    vals = np.zeros((m, m))
    results = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(j, m):
            r = quadrature(lambda t: fns[j](t) * fns[k](t), lo, hi)
            vals[j][k] = vals[k][j] = r.value
            results[j][k] = results[k][j] = r
    return vals, results


@lru_cache(maxsize=64)
def _jacobi_rule(alpha: float, beta: float, n: int) -> tuple:
    """n-node Gauss rule for the weight (1-z)^alpha (1+z)^beta on (-1, 1),
    alpha, beta > -1."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = (2.0 / s) * np.sqrt(
        k * (k + alpha) * (k + beta) * (k + alpha + beta) / ((s - 1.0) * (s + 1.0))
    )
    mass = (
        2.0 ** (alpha + beta + 1.0)
        * math.gamma(alpha + 1.0)
        * math.gamma(beta + 1.0)
        / math.gamma(alpha + beta + 2.0)
    )
    return _golub_welsch(diag, off, mass)


@lru_cache(maxsize=64)
def _laguerre_rule(alpha: float, n: int) -> tuple:
    """n-node Gauss rule for the weight z^alpha e^{-z} on (0, inf),
    alpha > -1."""
    k = np.arange(n, dtype=float)
    return _golub_welsch(
        2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)), math.gamma(alpha + 1.0)
    )


def _golub_welsch(diag, off, mass) -> tuple:
    """Nodes and weights of the Gauss rule whose Jacobi matrix has diagonal
    `diag` and off-diagonal `off`, for a weight of total `mass` (Golub &
    Welsch 1969).  The nodes are the eigenvalues.  A weight is mass over
    sum_k q_k(z)^2 of the orthonormal polynomials, run up the three-term
    recurrence: unlike squared eigenvector entries, this keeps the far
    Laguerre weights (down to 1e-300) to full relative precision.  The sum
    is rescaled before it overflows, and the scale is applied at the end."""
    z, _ = lapack.eigh_tridiagonal(diag, off)
    q_prev, q = np.zeros_like(z), np.ones_like(z)
    total, scaled = np.ones_like(z), np.zeros_like(z)
    for k in range(len(off)):
        back = off[k - 1] * q_prev if k else 0.0
        q_prev, q = q, ((z - diag[k]) * q - back) / off[k]
        total += q * q
        big = total > 1e200
        if big.any():
            shrink = np.where(big, 1e-100, 1.0)
            q, q_prev = q * shrink, q_prev * shrink
            total *= shrink * shrink
            scaled += big
    w = mass / total * np.exp(-200.0 * math.log(10.0) * scaled)
    z.flags.writeable = w.flags.writeable = False  # cached and shared
    return z, w


class GaussGram(namedtuple("GaussGram", "values nodes quadrature_error converged")):
    """Gram matrix of gauged states on the last Gauss rule of a node
    doubling.  `quadrature_error` is the largest change of an entry from
    the rule with half the nodes, relative to sqrt(G_jj G_kk); `converged`
    says it fell to 1e-12 before the node cap."""

    __slots__ = ()


def gauss_gram(states, omega: float = 1.0, max_nodes: int = 2560) -> GaussGram:
    """x-space Gram matrix of gauged states sharing one gauge, constant
    factors included, so its entries compare with `gram_matrix` on the
    states' `eval_x`.

    Trigonometric states (1-z)^a (1+z)^b R(z): dx = -dz / (2 sqrt(1-z^2)),
    so G = 1/2 int R_j R_k (1-z)^(2a-1/2) (1+z)^(2b-1/2) dz, Gauss-Jacobi.
    Radial states (2w)^(p/2) z^c e^(-z/2) R(z): dx = dz / sqrt(2wz), so
    G = (2w)^(p-1/2) int R_j R_k z^(2c-1/2) e^(-z) dz, Gauss-Laguerre.  The
    node count doubles from 40 until two successive matrices agree to
    1e-12, or until doubling again would pass `max_nodes`."""
    first = states[0]
    if isinstance(first, TrigGauged):
        gauge = lambda f: (type(f), f.a, f.b)
        alpha, beta = 2.0 * float(first.a) - 0.5, 2.0 * float(first.b) - 0.5
        rule = lambda n: _jacobi_rule(alpha, beta, n)
        scale = 0.5
    elif isinstance(first, RadialGauged):
        if first.s != -1:
            raise ValueError("a radial Gauss Gram needs the gauge e^(-z/2)")
        gauge = lambda f: (type(f), f.c, f.s, f.p)
        alpha = 2.0 * float(first.c) - 0.5
        rule = lambda n: _laguerre_rule(alpha, n)
        scale = (2.0 * omega) ** (first.p - 0.5)
    else:
        raise TypeError("a Gauss Gram needs gauged states")
    if any(gauge(f) != gauge(first) for f in states):
        raise ValueError("a Gauss Gram needs states with one gauge")
    m = len(states)
    nodes, previous = 40, None
    while True:
        z, w = rule(nodes)
        phi = [f.rat(z) for f in states]
        vals = np.zeros((m, m))
        for j in range(m):
            wj = w * phi[j]
            for k in range(j, m):
                # fsum: the entry does not depend on the summation order
                vals[j][k] = vals[k][j] = scale * math.fsum((wj * phi[k]).tolist())
        if previous is not None:
            norm = np.sqrt(np.outer(np.diag(vals), np.diag(vals)))
            error = worst((np.abs(vals - previous) / norm).ravel())
            if error <= 1e-12 or 2 * nodes > max_nodes:
                return GaussGram(vals, nodes, error, error <= 1e-12)
        previous = vals
        nodes *= 2


def worst(values) -> float:
    """The largest of `values`; NaN when there are none or one is NaN or
    infinite, so that a tolerance test `worst(...) < tol` fails instead of
    passing on no evidence (`max` silently drops a NaN)."""
    vals = [float(v) for v in values]
    if not vals or not all(map(math.isfinite, vals)):
        return math.nan
    return max(vals)


def max_offdiagonal_relative(vals: np.ndarray) -> float:
    """max |G_jk| / sqrt(G_jj G_kk) over j != k (`worst` semantics)."""
    m = len(vals)
    return worst(
        abs(vals[j][k]) / math.sqrt(vals[j][j] * vals[k][k])
        for j in range(m)
        for k in range(m)
        if j != k
    )


# -- Dirichlet spectra ----------------------------------------------------------


class SpectrumResult(namedtuple(
    "SpectrumResult", "energies node_counts domain grid_n error_estimates"
)):
    """Lowest eigenvalues of -d^2/dx^2 + V with Dirichlet ends.

    `energies` are Richardson-extrapolated over the two grids; the error
    estimate is the extrapolation increment."""

    __slots__ = ()


def _fd_eigs(v, a: float, b: float, n_levels: int, grid_n: int, vectors: bool):
    h = (b - a) / grid_n
    x = a + h * np.arange(1, grid_n)
    # a potential that overflows on the grid is left to the eigensolver's
    # finite check, which refuses it with one error and no warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diag = 2.0 / h**2 + v(x)
    off = np.full(grid_n - 2, -1.0 / h**2)
    return lapack.eigh_tridiagonal(diag, off, n_levels, vectors)


def _count_nodes(vec: np.ndarray) -> int:
    """Sign changes among entries above 1e-8 of the largest (none on a NaN)."""
    positive = vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))] > 0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def dirichlet_spectrum(
    v, a: float, b: float, n_levels: int, grid_n: int
) -> SpectrumResult:
    """Lowest n_levels Dirichlet eigenvalues via 3-point finite differences
    on grids of grid_n and 2*grid_n subintervals, Richardson-extrapolated.
    `v` is called once per grid, on the numpy array of its interior points.

    Raises on a node-count anomaly (a missed or spurious level)."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    if grid_n <= n_levels:
        raise ValueError(f"grid_n = {grid_n} must exceed the level count {n_levels}")
    coarse, _ = _fd_eigs(v, a, b, n_levels, grid_n, vectors=False)
    fine, vecs = _fd_eigs(v, a, b, n_levels, 2 * grid_n, vectors=True)
    energies = (4.0 * fine - coarse) / 3.0
    errors = np.abs(fine - coarse) / 3.0
    nodes = tuple(_count_nodes(vecs[:, j]) for j in range(n_levels))
    if list(nodes) != list(range(n_levels)):
        raise ValueError(
            f"node-count anomaly: expected {list(range(n_levels))}, got {list(nodes)}"
        )
    return SpectrumResult(
        tuple(float(e) for e in energies),
        nodes,
        (a, b),
        grid_n,
        tuple(float(e) for e in errors),
    )


def convergence_order_ratio(v, a, b, grid_n: int = 1000) -> float:
    """Discretization-error ratio of the ground eigenvalue between grids n
    and 2n, measured against the h -> 0 limit of the same Dirichlet problem
    (Richardson reference from grids 2n and 4n).  A clean second-order
    scheme gives about 4."""
    e1, _ = _fd_eigs(v, a, b, 1, grid_n, vectors=False)
    e2, _ = _fd_eigs(v, a, b, 1, 2 * grid_n, vectors=False)
    e4, _ = _fd_eigs(v, a, b, 1, 4 * grid_n, vectors=False)
    ref = (4.0 * e4[0] - e2[0]) / 3.0
    return abs(e1[0] - ref) / abs(e2[0] - ref)
