"""Verification oracles: exact Schroedinger residuals, Gram matrices,
and finite-difference Dirichlet spectra.

The exact residual operator turns -psi'' + V psi = E psi into a decidable
statement: both gauge families are closed under d/dx, so the residual of a
gauged eigenfunction collapses to a single rational function in z that
either is or is not the zero element.  The numeric oracles (quadrature,
tridiagonal eigensolver) are deliberately independent of the exact layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.integrate
import scipy.linalg

from .exactalg import RadialGauged, RationalFn, TrigGauged, as_rat


def exact_ode_residual(f, v_zform: RationalFn, energy):
    """Exact residual psi'' + (E - V) psi as a gauged function.

    For a `TrigGauged` eigenfunction, `v_zform` is the potential in
    z = cos 2x and `energy` the exact eigenvalue.  For a `RadialGauged`
    one, both potential and energy are in units of the frequency w
    (V(x) = w * v_zform(z), E = w * energy), which cancels from the
    statement.  The identity holds iff the returned object `.is_zero`.

    The residual is decided in the fraction field: the eigenfunction's
    rational part and the potential are lifted to unreduced `RationalFn`
    values, so no intermediate pays a gcd.  The returned object is
    canonical all the same: a zero numerator is the canonical zero, and a
    nonzero result is reduced once, to what canonical arithmetic gives.
    """
    if not isinstance(f, (TrigGauged, RadialGauged)):
        raise TypeError("eigenfunction must be a gauged function")
    psi = replace(f, rat=f.rat._unreduced())
    e = as_rat(energy) if not isinstance(energy, RationalFn) else energy
    gap = e - v_zform._unreduced()  # E - V
    if isinstance(psi, TrigGauged):
        res = psi.d_dx().d_dx() + psi * gap
    else:
        # (E - V) psi = w g psi = (sqrt(2w))^2 (g/2) psi
        g = gap * Fraction(1, 2)
        res = psi.d_dx().d_dx() + RadialGauged(
            psi.c, psi.s, psi.p + 2, psi.rat * g
        )
    return replace(res, rat=res.rat._canonical())


# -- quadrature ---------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error: float
    subdivisions: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "abs_error": self.abs_error,
            "subdivisions": self.subdivisions,
        }


def quadrature(f, lo: float, hi: float) -> QuadratureResult:
    """Adaptive quadrature with tight absolute tolerance (infinite limits
    allowed)."""
    out = scipy.integrate.quad(
        f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300, full_output=True
    )
    # a 4th element (an explanation string) appears when quad struggled;
    # the abs_error field already carries that information
    value, err, info = out[0], out[1], out[2]
    return QuadratureResult(value, err, int(info["last"]))


def gram_matrix(fns, lo: float, hi: float) -> tuple:
    """Gram matrix of callables under quadrature.

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


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenvalues of -d^2/dx^2 + V with Dirichlet ends.

    `energies` are Richardson-extrapolated over the two grids; the error
    estimate is the extrapolation increment."""

    energies: tuple
    node_counts: tuple
    domain: tuple
    grid_n: int
    error_estimates: tuple

    def to_json(self) -> dict:
        return {
            "energies": list(self.energies),
            "node_counts": list(self.node_counts),
            "domain": list(self.domain),
            "grid_n": self.grid_n,
            "error_estimates": list(self.error_estimates),
        }


def _fd_eigs(v, a: float, b: float, n_levels: int, grid_n: int, vectors: bool):
    h = (b - a) / grid_n
    x = a + h * np.arange(1, grid_n)
    diag = 2.0 / h**2 + np.array([v(t) for t in x])
    off = np.full(grid_n - 2, -1.0 / h**2)
    if vectors:
        w, vecs = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, n_levels - 1)
        )
        return w, vecs
    w = scipy.linalg.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1)
    )
    return w, None


def _count_nodes(vec: np.ndarray) -> int:
    cutoff = 1e-8 * np.max(np.abs(vec))
    signs = [1 if t > 0 else -1 for t in vec if abs(t) > cutoff]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def dirichlet_spectrum(
    v, a: float, b: float, n_levels: int, grid_n: int = 6000
) -> SpectrumResult:
    """Lowest n_levels Dirichlet eigenvalues via 3-point finite differences
    on grids of grid_n and 2*grid_n subintervals, Richardson-extrapolated.

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


def tdpt_domain(eps: float = 1e-4) -> tuple:
    """Dirichlet window for the trigonometric family."""
    return eps, math.pi / 2 - eps


def isotonic_domain(omega: float, e_max: float) -> tuple:
    """Dirichlet window for the radial family: inner cutoff well inside the
    centrifugal wall, outer wall deep in the oscillator tail."""
    a = 1e-3 * math.sqrt(2.0 / omega)
    b = 2.0 * math.sqrt((e_max + 40.0) / omega)
    return a, b


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
