from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import pytest
import scipy.integrate
import scipy.special

from confluent_dbt.classical import (
    IsotonicOscillator,
    TrigPoschlTeller,
    jacobi,
    laguerre,
)
from confluent_dbt.exactalg import ExactPoly, RationalFn

Z = ExactPoly([0, 1])


# -- independent recurrence oracles (frozen before the closed forms were coded)


def jacobi_recurrence(n, a, b):
    if n == 0:
        return ExactPoly.one()
    p_prev = ExactPoly.one()
    p = ExactPoly([Fraction(a - b, 2), Fraction(a + b + 2, 2)])
    for m in range(2, n + 1):
        c1 = Fraction(2 * m * (m + a + b) * (2 * m + a + b - 2))
        c2 = Fraction(2 * m + a + b - 1)
        c3 = Fraction((2 * m + a + b) * (2 * m + a + b - 2))
        c4 = Fraction(a * a - b * b)
        c5 = Fraction(2 * (m + a - 1) * (m + b - 1) * (2 * m + a + b))
        p_next = (ExactPoly([c4, c3]) * p * c2 - p_prev * c5) * (1 / c1)
        p_prev, p = p, p_next
    return p


def laguerre_recurrence(n, a):
    if n == 0:
        return ExactPoly.one()
    p_prev = ExactPoly.one()
    p = ExactPoly([Fraction(1 + a), Fraction(-1)])
    for m in range(1, n):
        p_next = (ExactPoly([Fraction(2 * m + 1 + a), Fraction(-1)]) * p
                  - Fraction(m + a) * p_prev) * Fraction(1, m + 1)
        p_prev, p = p, p_next
    return p


def test_jacobi_matches_recurrence_oracle():
    for n in range(7):
        for a in range(0, 4):
            for b in range(0, 4):
                assert jacobi(n, a, b) == jacobi_recurrence(n, a, b)


def test_laguerre_matches_recurrence_oracle():
    for n in range(7):
        for a in range(-4, 5):
            assert laguerre(n, a) == laguerre_recurrence(n, a)


def test_jacobi_goldens():
    assert jacobi(1, 1, 1) == ExactPoly([0, 2])
    for n in range(6):
        for a in range(1, 4):
            for b in range(1, 4):
                assert jacobi(n, a, b)(Fraction(1)) == comb(n + a, n)


def test_laguerre_goldens():
    for N in range(1, 6):
        assert laguerre(1, N) == ExactPoly([N + 1, -1])
        # type-II companion: L_N^(-N-1) = (-1)^N sum z^l / l!
        want = ExactPoly([Fraction((-1) ** N, factorial(l)) for l in range(N + 1)])
        assert laguerre(N, -N - 1) == want


def test_jacobi_differential_equation_exact():
    for n in range(9):
        for N in range(1, 5):
            for M in range(1, 5):
                p = jacobi(n, N, M)
                lhs = (
                    ExactPoly([1, 0, -1]) * p.derivative().derivative()
                    + ExactPoly([M - N, -(N + M + 2)]) * p.derivative()
                    + Fraction(n * (N + M + n + 1)) * p
                )
                assert lhs.is_zero


def test_laguerre_differential_equation_exact():
    for n in range(9):
        for N in range(-4, 5):
            p = laguerre(n, N)
            lhs = (
                Z * p.derivative().derivative()
                + ExactPoly([N + 1, -1]) * p.derivative()
                + Fraction(n) * p
            )
            assert lhs.is_zero


def test_derivative_identities_exact():
    for n in range(1, 7):
        for N in range(1, 4):
            for M in range(1, 4):
                want = Fraction(N + M + n + 1, 2) * jacobi(n - 1, N + 1, M + 1)
                assert jacobi(n, N, M).derivative() == want
            assert laguerre(n, N).derivative() == -laguerre(n - 1, N + 1)


def _rel_gram_offdiag(vals):
    worst = 0.0
    n = len(vals)
    for j in range(n):
        for k in range(n):
            if j != k:
                worst = max(
                    worst, abs(vals[j][k]) / math.sqrt(vals[j][j] * vals[k][k])
                )
    return worst


def test_jacobi_orthogonality_quadrature():
    N, M = 2, 1
    polys = [jacobi(n, N, M) for n in range(6)]
    vals = [[0.0] * 6 for _ in range(6)]
    for j in range(6):
        for k in range(j, 6):
            f = lambda z: (1 - z) ** N * (1 + z) ** M * polys[j](z) * polys[k](z)
            v, _ = scipy.integrate.quad(f, -1, 1, epsabs=1e-13, epsrel=1e-13)
            vals[j][k] = vals[k][j] = v
    assert _rel_gram_offdiag(vals) < 1e-12


def test_laguerre_orthogonality_quadrature():
    # the 8-point Gauss rule for the weight z^N e^{-z} is exact up to
    # degree 15, so it integrates every product of degree <= 10 exactly
    N = 2
    polys = [laguerre(n, N) for n in range(6)]
    nodes, weights = scipy.special.roots_genlaguerre(8, N)
    vals = [
        [float(weights @ (polys[j](nodes) * polys[k](nodes))) for k in range(6)]
        for j in range(6)
    ]
    assert _rel_gram_offdiag(vals) < 1e-12
    for n in range(6):
        assert vals[n][n] == pytest.approx(factorial(n + N) / factorial(n), rel=1e-12)


# -- base potentials -----------------------------------------------------------


def test_trig_potential_zform_matches_direct():
    for N, M in [(1, 1), (2, 1), (1, 3)]:
        base = TrigPoschlTeller(N, M)
        zf = base.v_zform()
        for x in (0.2, 0.7, 1.2, 1.5):
            assert zf(math.cos(2 * x)) == pytest.approx(base.v(x), rel=1e-12)


def test_trig_eigenstate_solves_schroedinger_numerically():
    base = TrigPoschlTeller(1, 2)
    for n in (0, 1, 3):
        psi = base.eigenstate(n)
        e = float(base.energy(n))
        h = 1e-5
        for x in (0.4, 0.8, 1.2):
            d2 = (psi.eval_x(x + h) - 2 * psi.eval_x(x) + psi.eval_x(x - h)) / h**2
            resid = d2 + (e - base.v(x)) * psi.eval_x(x)
            assert abs(resid) < 1e-4 * (1 + abs(e) * abs(psi.eval_x(x)))


def test_isotonic_potential_units_match_direct():
    for N in (1, 2, 3):
        base = IsotonicOscillator(N)
        zf = base.v_zform_units()
        for omega in (1.0, 2.0, 5.0):
            for x in (0.3, 0.9, 2.1):
                z = omega * x * x / 2
                assert omega * zf(z) == pytest.approx(base.v(x, omega), rel=1e-12)


def test_isotonic_eigenstate_solves_schroedinger_numerically():
    base = IsotonicOscillator(2)
    omega = 2.0
    for n in (0, 2):
        psi = base.eigenstate(n)
        e = 2 * n * omega
        h = 1e-5
        for x in (0.5, 1.0, 1.8):
            f = lambda t: psi.eval_x(t, omega)
            d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
            resid = d2 + (e - base.v(x, omega)) * f(x)
            assert abs(resid) < 1e-4 * (1 + abs(e)) * max(1e-3, abs(f(x)))


def test_isotonic_norm_closed_form_vs_quadrature():
    for N in (1, 3):
        base = IsotonicOscillator(N)
        for n in (0, 2):
            psi = base.eigenstate(n)
            for omega in (1.0, 2.0):
                val, _ = scipy.integrate.quad(
                    lambda x: psi.eval_x(x, omega) ** 2, 0, math.inf,
                    epsabs=1e-12, epsrel=1e-12,
                )
                want = float(base.norm_sq_units(n)) / math.sqrt(2 * omega)
                assert val == pytest.approx(want, rel=1e-10)


def test_energy_laddder_values():
    base = TrigPoschlTeller(1, 1)
    assert [int(base.energy(n)) for n in range(5)] == [0, 16, 40, 72, 112]
    iso = IsotonicOscillator(1)
    assert [int(iso.energy_units(n)) for n in range(4)] == [0, 2, 4, 6]


def test_parameter_validation():
    with pytest.raises(ValueError):
        TrigPoschlTeller(0, 1)
    with pytest.raises(ValueError):
        IsotonicOscillator(0)
    with pytest.raises(ValueError):
        jacobi(2, -1, 0)
    with pytest.raises(ValueError):
        jacobi(-1, 1, 1)
    with pytest.raises(ValueError):
        laguerre(-2, 1)
