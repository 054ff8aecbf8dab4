import dataclasses
import math

import numpy as np
import pytest

from confluent_dbt import chains, isotonic, tdpt, verify


def second_derivative(f, x, h):
    # 5-point stencil; h large enough that quadrature noise inside f
    # stays below the truncation term
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12 * h * h)


# -- seeds and cumulative integrals ----------------------------------------------


def test_trig_seed_solves_base_ode():
    seed, v = chains.tdpt_seed(1, 1, 1)
    for x in (0.3, 0.8, 1.2):
        lhs = -second_derivative(seed.f, x, 1e-3) + v(x) * seed.f(x)
        assert lhs == pytest.approx(seed.energy * seed.f(x), abs=1e-7)
        # df is the true derivative
        fd = (seed.f(x + 1e-6) - seed.f(x - 1e-6)) / 2e-6
        assert seed.df(x) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_radial_seed_solves_base_ode():
    seed, v = chains.isotonic_seed(1, 1, 2.0)
    assert seed.energy == 4.0
    for x in (0.5, 1.0, 2.2):
        lhs = -second_derivative(seed.f, x, 1e-3) + v(x) * seed.f(x)
        assert lhs == pytest.approx(seed.energy * seed.f(x), abs=1e-7)


def test_cumulative_integral_matches_exact_polynomial():
    # int_{pi/2}^x psi_n^2 dt equals Q_n evaluated at z = cos 2x: the
    # numeric anchor and the exact antiderivative anchor coincide
    n, N, M = 1, 1, 1
    seed, _ = chains.tdpt_seed(n, N, M)
    q = tdpt.q_poly(n, N, M)
    for x in (0.2, 0.7, 1.3):
        got = chains.integral_from_anchor(seed, x)
        assert got == pytest.approx(float(q(math.cos(2 * x))), abs=1e-11)
    # the same points as one unsorted array with a repeat: one walk
    xs = np.array([0.7, 1.3, 0.2, 0.7])
    got = chains.integral_from_anchor(seed, xs)
    want = [float(q(math.cos(2 * x))) for x in xs]
    assert got == pytest.approx(want, abs=1e-11)


def test_cumulative_integral_walks_both_sides_of_a_finite_anchor():
    seed, _ = chains.tdpt_seed(1, 1, 1)
    inside = dataclasses.replace(seed, x0=0.8)
    xs = np.array([1.3, 0.2, 0.8, 0.5, 1.1, 0.65])
    got = chains.integral_from_anchor(inside, xs)
    for x, g in zip(xs, got):
        want = verify.quadrature(lambda t: seed.f(t) ** 2, 0.8, x).value
        assert g == pytest.approx(want, abs=1e-12)
    assert got[2] == 0.0


def test_cumulative_integral_of_nan_is_nan():
    seed, _ = chains.tdpt_seed(1, 1, 1)
    got = chains.integral_from_anchor(seed, np.array([0.4, math.nan, 1.2]))
    assert math.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))
    assert math.isnan(chains.integral_from_anchor(seed, math.nan))


def test_cumulative_integral_radial_anchor_at_infinity():
    # -int_x^inf psi^2 dt = e^{-z} Q(z) / sqrt(2 w)
    n, N, omega = 1, 1, 2.0
    seed, _ = chains.isotonic_seed(n, N, omega)
    q = isotonic.q_poly(n, N)
    for x in (0.4, 1.0, 1.8):
        z = omega * x * x / 2
        want = math.exp(-z) * float(q(z)) / math.sqrt(2 * omega)
        assert chains.integral_from_anchor(seed, x) == pytest.approx(
            want, abs=1e-11
        )
    xs = np.array([1.0, 1.8, 0.4, 1.8])
    want = [
        math.exp(-omega * x * x / 2) * float(q(omega * x * x / 2))
        / math.sqrt(2 * omega)
        for x in xs
    ]
    assert chains.integral_from_anchor(seed, xs) == pytest.approx(want, abs=1e-11)


# -- one-step transform ------------------------------------------------------------


def test_one_step_partner_state():
    # the mapped state W(f, g)/f solves the partner equation at the
    # unchanged energy of g
    seed, v = chains.tdpt_seed(0, 1, 1)
    v1, transform = chains.dbt_apply(seed, v)
    base = tdpt.TdptSpec(0, 1, 1, 1).base
    g = base.eigenstate(1)
    g1 = transform(g.eval_x, g.d_dx().eval_x)
    e1 = float(base.energy(1))
    for x in (0.4, 0.8, 1.1):
        lhs = -second_derivative(g1, x, 1e-3) + v1(x) * g1(x)
        assert lhs == pytest.approx(e1 * g1(x), rel=1e-7, abs=1e-7)


def test_one_step_inverts_exactly():
    # transforming back with the reciprocal seed at the same energy
    # reproduces the original potential pointwise
    seed, v = chains.tdpt_seed(0, 1, 1)
    v1, _ = chains.dbt_apply(seed, v)
    inverse = chains.SeedFunction(
        f=lambda x: 1.0 / seed.f(x),
        df=lambda x: -seed.df(x) / seed.f(x) ** 2,
        energy=seed.energy,
        x0=seed.x0,
    )
    v0, _ = chains.dbt_apply(inverse, v1)
    for x in np.linspace(0.1, 1.4, 12):
        assert abs(v0(x) - v(x)) < 1e-9


def test_confluent_seed_solves_partner_equation():
    seed, v = chains.tdpt_seed(0, 1, 1)
    v1, _ = chains.dbt_apply(seed, v)
    aux = chains.confluent_seed(seed, 1.0)
    assert aux.energy == seed.energy
    for x in (0.4, 0.9):
        lhs = -second_derivative(aux.f, x, 3e-3) + v1(x) * aux.f(x)
        assert lhs == pytest.approx(seed.energy * aux.f(x), abs=1e-6)
        fd = (aux.f(x + 1e-5) - aux.f(x - 1e-5)) / 2e-5
        assert aux.df(x) == pytest.approx(fd, rel=1e-8)


# -- two-step transform vs the exact layers ------------------------------------------


def test_two_step_matches_exact_trig_family():
    spec = tdpt.TdptSpec(0, 1, 1, 1)
    seed, v = chains.tdpt_seed(0, 1, 1)
    vt, _ = chains.confluent_two_step(seed, v, float(spec.lambda1))
    pot = tdpt.extended_potential(spec)
    for x in np.linspace(0.08, 1.49, 20):
        assert abs(vt(x) - pot.v(x)) < 1e-9


def test_two_step_matches_exact_radial_family():
    spec = isotonic.IsotonicSpec(1, 1)
    omega = 2.0
    seed, v = chains.isotonic_seed(1, 1, omega)
    vt, _ = chains.confluent_two_step(seed, v, 0.0)
    pot = isotonic.extended_potential(spec)
    for x in np.linspace(0.2, 3.2, 20):
        assert abs(vt(x) - pot.v(x, omega)) < 1e-9


def test_two_step_state_map_matches_exact_family():
    spec = tdpt.TdptSpec(0, 1, 1, 1)
    seed, v = chains.tdpt_seed(0, 1, 1)
    _, transform = chains.confluent_two_step(seed, v, 1.0)
    base = spec.base
    for k in (1, 2):
        g = base.eigenstate(k)
        gt = transform(g.eval_x, g.d_dx().eval_x, float(base.energy(k)))
        exact = tdpt.eigenfunction(spec, k)
        for x in (0.3, 0.8, 1.2):
            assert abs(gt(x) - exact.eval_x(x)) < 1e-9


def test_two_step_preserves_energies():
    # finite-difference Schroedinger residual of the mapped state at the
    # original energy
    seed, v = chains.tdpt_seed(0, 1, 1)
    vt, transform = chains.confluent_two_step(seed, v, 1.0)
    base = tdpt.TdptSpec(0, 1, 1, 1).base
    g = base.eigenstate(1)
    e1 = float(base.energy(1))
    gt = transform(g.eval_x, g.d_dx().eval_x, e1)
    for x in (0.5, 0.9):
        lhs = -second_derivative(gt, x, 1e-2) + vt(x) * gt(x)
        rel = abs(lhs - e1 * gt(x)) / max(abs(e1 * gt(x)), 1.0)
        assert rel < 1e-6


def test_two_step_scaling_invariance():
    # (psi, lambda1) -> (c psi, c^2 lambda1) is a gauge move
    seed, v = chains.tdpt_seed(0, 1, 1)
    vt, _ = chains.confluent_two_step(seed, v, 1.0)
    c = 3.0
    vt_scaled, _ = chains.confluent_two_step(
        chains.scaled_seed(seed, c), v, c * c * 1.0
    )
    for x in (0.2, 0.6, 1.0, 1.4):
        assert abs(vt(x) - vt_scaled(x)) < 1e-10


# -- independent route: energy-derivative Wronskian -----------------------------------


def test_matveev_route_agrees_with_two_step():
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_ref = math.pi / 2 - 1e-3
    xs = np.linspace(0.1, 1.4, 7)
    vm, w = chains.matveev_potential(seed, v, xs, x_ref)
    anchored = dataclasses.replace(seed, x0=x_ref)
    vt, _ = chains.confluent_two_step(anchored, v, 0.0)
    for i, x in enumerate(xs):
        assert abs(vm[i] - vt(x)) < 1e-6


def test_matveev_wronskian_is_minus_cumulative_norm():
    # W(psi, d_E psi)' = -psi^2 integrates, with the chosen Cauchy data,
    # to minus the cumulative norm from x_ref
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_ref = math.pi / 2 - 1e-3
    xs = np.array([0.3, 0.7, 1.2])
    _, w = chains.matveev_potential(seed, v, xs, x_ref)
    for i, x in enumerate(xs):
        want = -verify.quadrature(lambda t: seed.f(t) ** 2, x_ref, x).value
        assert w[i] == pytest.approx(want, rel=1e-5, abs=1e-8)


# -- iterated chains --------------------------------------------------------------------


def test_chain_reduces_to_one_step():
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_start = math.pi / 2 - 1e-3
    xs = np.linspace(0.1, 1.4, 9)
    res = chains.hyperconfluent_chain(seed, v, [], xs, x_start)
    v1, _ = chains.dbt_apply(seed, v)
    assert np.max(np.abs(res.potential - [v1(x) for x in xs])) < 1e-6
    assert np.max(np.abs(res.potential - res.potential_grouped)) < 1e-8


def test_chain_reduces_to_two_step():
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_start = math.pi / 2 - 1e-3
    xs = np.linspace(0.1, 1.4, 9)
    res = chains.hyperconfluent_chain(seed, v, [1.0], xs, x_start)
    anchored = dataclasses.replace(seed, x0=x_start)
    vt, _ = chains.confluent_two_step(anchored, v, 1.0)
    assert np.max(np.abs(res.potential - [vt(x) for x in xs])) < 1e-9
    assert np.max(np.abs(res.potential - res.potential_grouped)) < 1e-8


def test_chain_three_steps_regular_and_consistent():
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_start = math.pi / 2 - 1e-3
    xs = np.linspace(0.05, 1.45, 200)
    res = chains.hyperconfluent_chain(seed, v, [1.0, 7.0], xs, x_start)
    assert np.all(np.isfinite(res.potential))
    assert np.all(np.isfinite(res.potential_grouped))
    assert np.max(np.abs(res.potential - res.potential_grouped)) < 1e-8
    assert len(res.integrals) == 2
    assert len(res.log_derivatives) == 3


def test_chain_four_steps_grouping():
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_start = math.pi / 2 - 1e-3
    xs = np.linspace(0.1, 1.4, 40)
    res = chains.hyperconfluent_chain(seed, v, [1.0, 7.0, 11.0], xs, x_start)
    assert np.all(np.isfinite(res.potential))
    assert np.max(np.abs(res.potential - res.potential_grouped)) < 1e-8


def test_chain_screen_rejects_forbidden_constant():
    # lambda in the forbidden window (0, 2/3] for the (0,1,1) base: the
    # denominator changes sign inside the domain and the chain refuses.
    # On 8 samples the zero of 0.36658 + I falls strictly between the
    # samples at 0.65 and 0.85: the sign change alone reveals it
    seed, v = chains.tdpt_seed(0, 1, 1)
    x_start = math.pi / 2 - 1e-3
    for lam, points in ((1.0 / 3.0, 200), (0.36658, 8)):
        xs = np.linspace(0.05, 1.45, points)
        with pytest.raises(ValueError, match="regular window"):
            chains.hyperconfluent_chain(seed, v, [lam], xs, x_start)


# -- closed-form spot checks ---------------------------------------------------------


def test_one_step_trig_parameter_shift():
    # deleting the ground state raises both wall strengths by one and
    # shifts the energy origin by E_1 of the old base
    for N, M in ((1, 1), (2, 1)):
        seed, v = chains.tdpt_seed(0, N, M)
        v1, _ = chains.dbt_apply(seed, v)
        shifted = tdpt.TdptSpec(0, N + 1, M + 1, 1).base
        e1 = float(tdpt.TdptSpec(0, N, M, 1).base.energy(1))
        for x in np.linspace(0.2, 1.35, 10):
            assert abs(v1(x) - (shifted.v(x) + e1)) < 1e-10


def test_one_step_radial_parameter_shift():
    omega = 2.0
    for N in (1, 2):
        seed, v = chains.isotonic_seed(0, N, omega)
        v1, _ = chains.dbt_apply(seed, v)
        shifted = isotonic.IsotonicSpec(0, N + 1).base
        for x in np.linspace(0.4, 2.4, 10):
            assert abs(v1(x) - (shifted.v(x, omega) + 2 * omega)) < 1e-10


def test_confluent_seed_radial_closed_form():
    # ground seed of the N = 1 oscillator, integral anchored at infinity:
    # the auxiliary state is -(1/sqrt(2w)) e^{-z/2} z^{-3/4} (1 + z)
    omega = 2.0
    seed, _ = chains.isotonic_seed(0, 1, omega)
    aux = chains.confluent_seed(seed, 0.0)
    for x in (0.4, 0.9, 1.6, 2.4):
        z = omega * x * x / 2
        want = -math.exp(-z / 2) * z ** -0.75 * (1 + z) / math.sqrt(2 * omega)
        assert aux.f(x) == pytest.approx(want, rel=1e-10)


def test_confluent_seed_large_lambda_limit():
    seed, _ = chains.tdpt_seed(0, 1, 1)
    lam = 1e9
    aux = chains.confluent_seed(seed, lam)
    for x in (0.3, 0.8, 1.3):
        assert aux.f(x) / lam == pytest.approx(1.0 / seed.f(x), rel=1e-6)


def test_matveev_cross_check_cases():
    for n, N, M in ((0, 1, 1), (1, 2, 1)):
        seed, v = chains.tdpt_seed(n, N, M)
        xs = np.linspace(0.3, 1.2, 10)
        pot_rel, w_rel = chains.matveev_cross_check(
            seed, v, xs, math.pi / 2 - 1e-3
        )
        assert pot_rel < 1e-6
        assert w_rel < 1e-5
