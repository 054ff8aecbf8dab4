import math
from fractions import Fraction

import pytest

from confluent_dbt import isotonic, reports, verify
from confluent_dbt.classical import IsotonicOscillator, laguerre
from confluent_dbt.exactalg import (
    Confluent,
    ExactPoly,
    RadialGauged,
    RationalFn,
    count_roots,
    refine_root,
    wronskian,
)

Z = ExactPoly([0, 1])


# -- the cumulative-norm polynomial Q ------------------------------------------


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("N", range(1, 5))
def test_q_construction_routes_agree(n, N):
    # derivative-sum route vs downward ODE solve; both must produce the
    # same polynomial even though neither references the other
    assert isotonic.q_poly(n, N) == isotonic.q_poly_via_ode(n, N)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("N", range(1, 5))
def test_q_solves_first_order_ode(n, N):
    q = isotonic.q_poly(n, N)
    ln = laguerre(n, N)
    assert q.derivative() - q == Z**N * ln * ln


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("N", range(1, 5))
def test_q_at_zero_closed_form(n, N):
    q = isotonic.q_poly(n, N)
    assert q(Fraction(0)) == isotonic.q_at_zero(n, N)
    assert isotonic.q_at_zero(n, N) == -Fraction(
        math.factorial(n + N), math.factorial(n)
    )


def test_q_ground_level_closed_forms():
    # Q_0^N = -sum_k (N!/k!) z^k for the first three N
    assert isotonic.q_poly(0, 1) == ExactPoly([-1, -1])
    assert isotonic.q_poly(0, 2) == ExactPoly([-2, -2, -1])
    assert isotonic.q_poly(0, 3) == ExactPoly([-6, -6, -3, -1])


def test_q_golden_first_excited():
    assert isotonic.q_poly(1, 1) == ExactPoly([-2, -2, 1, -1])


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("N", range(1, 5))
def test_q_rootless_on_half_line(n, N):
    ok, witness = isotonic.rootless_certificate(n, N)
    assert ok
    assert witness == ()


def test_rootless_certificate_reaches_n_80():
    # Q_80^3 has degree 163; its Sturm chain took 18 s
    assert isotonic.q_poly(80, 3).degree() == 163
    assert isotonic.rootless_certificate(80, 3) == (True, ())


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("N", range(1, 4))
def test_certificate_agrees_with_root_count(n, N):
    # the witness against the engine's own count; sympy and the frozen
    # Sturm engine check that engine (test_exactalg_oracle, test_sturm_oracle)
    q = isotonic.q_poly(n, N)
    roots = count_roots(q, Fraction(0), None)
    rootless, witness = isotonic.rootless_certificate(n, N)
    assert rootless == (roots == 0)
    assert len(witness) == roots
    for lo, hi in witness:  # [r, r] marks an exact root r
        closed = count_roots(q, lo, hi) + (q(lo) == 0) + (q(hi) == 0)
        assert q(lo) == 0 if lo == hi else closed == 1


# -- exceptional Laguerre family -----------------------------------------------


def test_l_tilde_goldens():
    spec = isotonic.IsotonicSpec(1, 1)
    assert isotonic.l_tilde(spec, 0) == ExactPoly([-2, -2, -1])
    assert isotonic.l_tilde(spec, 2) == ExactPoly(
        [6, 0, -2, 0, Fraction(-1, 2)]
    )


def test_l_tilde_deleted_level_raises():
    spec = isotonic.IsotonicSpec(1, 1)
    with pytest.raises(ValueError):
        isotonic.l_tilde(spec, 1)
    with pytest.raises(ValueError):
        isotonic.l_tilde(spec, -1)


def test_l_tilde_2_single_positive_root_sqrt2():
    # the k = 2 member vanishes once on (0, inf), at z = sqrt(2); family
    # members may have nodes, the denominator Q may not
    spec = isotonic.IsotonicSpec(1, 1)
    p = isotonic.l_tilde(spec, 2)
    from confluent_dbt.exactalg import count_roots, isolate_roots

    assert count_roots(p, Fraction(0), None) == 1
    iso = isolate_roots(p, Fraction(0), None)
    assert len(iso) == 1
    lo, hi = refine_root(p, iso[0], Fraction(1, 10**12))
    root = (lo + hi) / 2
    assert abs(float(root) - math.sqrt(2)) < 1e-9


def test_wronskian_closed_form():
    # W(psi_n, psi_k | x) = sqrt(2w) z^{N+1} e^{-z} L_{n,k}
    N = 1
    base = IsotonicOscillator(N)
    for n, k in [(1, 0), (1, 2), (0, 2), (2, 3)]:
        w = wronskian([base.eigenstate(n), base.eigenstate(k)])
        expected = RadialGauged(
            Fraction(N + 1), -2, 1, RationalFn(isotonic.l_nk(n, N, k))
        )
        assert w == expected


@pytest.mark.parametrize("n,N", [(1, 1), (4, 3), (10, 2)])
def test_states_are_the_confluent_formula_with_determinant_wronskians(n, N):
    # the polynomial-level assembly against the gauged definition
    # c [(E_n - E_k) psi_k - psi_n W(psi_n, psi_k) / w] with c = 1/(2w)
    # and E_n - E_k = 2w (n - k), the Wronskian from its determinant
    spec = isotonic.IsotonicSpec(n, N)
    ext, base = isotonic.confluent(spec), spec.base
    c = RadialGauged(0, 0, -2, RationalFn(1))
    for k in range(n + 3):
        if k != n:
            psi_k = base.eigenstate(k)
            w_k = wronskian([ext.psi_n, psi_k])
            gap = RadialGauged(0, 0, 2, RationalFn(n - k))
            assert ext.state(k) == c * (gap * psi_k - ext.psi_n * w_k / ext.w)


def test_confluent_refuses_a_denominator_whose_derivative_is_not_psi_n_squared():
    spec = isotonic.IsotonicSpec(2, 3)
    ext = isotonic.confluent(spec)
    assert ext.w.d_dx() == ext.psi_n * ext.psi_n
    # w without its e^{-z}
    bad = RadialGauged(0, 0, -1, RationalFn(isotonic.q_poly(2, 3)))
    with pytest.raises(ValueError, match="psi_n"):
        Confluent(ext.psi_n, bad, ext.numerator)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("N", range(1, 6))
def test_correction_is_minus_twice_the_derivative_of_psi_n_squared_over_w(n, N):
    # the one reduction over w^2 against the gauged algebra's
    # -2 d/dx (psi_n^2 / w)
    ext = isotonic.confluent(isotonic.IsotonicSpec(n, N))
    got = ext.correction()
    want = -2 * (ext.psi_n * ext.psi_n / ext.w).d_dx()
    assert got == want
    # the same gauge and the same reduced rational part
    assert got._asdict() == want._asdict()


def test_exceptional_family_skips_deleted_level():
    spec = isotonic.IsotonicSpec(1, 1)
    assert isotonic.levels(spec, 4) == (0, 2, 3, 4)
    assert isotonic.exceptional is isotonic.l_tilde
    assert all(not isotonic.exceptional(spec, k).is_zero for k in (0, 2, 3, 4))
    with pytest.raises(ValueError):
        isotonic.exceptional(spec, 1)
    q = isotonic.q_poly(1, 1)
    weight = isotonic.measure_weight_rational(spec)
    assert weight == RationalFn(ExactPoly.x(), q * q)
    assert weight(1.0) > 0
    with pytest.raises(ValueError):
        isotonic.levels(spec, -1)


def test_family_orthogonality_under_weight():
    spec = isotonic.IsotonicSpec(1, 1)
    omega = 2.0
    fns = [
        isotonic.confluent(spec).state(k) for k in (0, 2, 3, 4, 5)
    ]
    vals, _ = verify.gram_matrix(
        [lambda x, f=f: f.eval_x(x, omega) for f in fns], 0.0, math.inf
    )
    assert verify.max_offdiagonal_relative(vals) < 1e-10


# -- eigenfunctions and the deleted state ---------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        isotonic.IsotonicSpec(0, 1),
        isotonic.IsotonicSpec(1, 1),
        isotonic.IsotonicSpec(1, 2),
    ],
)
@pytest.mark.parametrize("k", range(5))
def test_extension_eigenfunctions_solve_the_ode_exactly(spec, k):
    if k == spec.n:
        return
    pot = isotonic.extended_potential(spec)
    psi = isotonic.confluent(spec).state(k)
    res = verify.exact_ode_residual(psi, pot.z_form, 2 * k)
    assert res.is_zero


def test_deleted_state_sits_at_deleted_energy():
    # the e^{+z/2} gauge solution satisfies the same equation at E = 2nw
    # but is not normalizable; the level is genuinely gone
    spec = isotonic.IsotonicSpec(1, 1)
    pot = isotonic.extended_potential(spec)
    phi = isotonic.confluent(spec).restored()
    res = verify.exact_ode_residual(phi, pot.z_form, 2 * spec.n)
    assert res.is_zero
    assert phi.s == +1


def test_eigenfunctions_vanish_at_origin():
    spec = isotonic.IsotonicSpec(1, 1)
    omega = 2.0
    for k in (0, 2, 3):
        f = isotonic.confluent(spec).state(k)
        vals = [abs(f.eval_x(x, omega)) for x in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2]
        # boundary exponent (2N+1)/4 in z, i.e. x^{3/2} for N = 1
        slope = math.log10(vals[1] / vals[2])
        assert 1.4 < slope < 1.6


# -- extended potential -----------------------------------------------------------


def test_extension_display_form():
    # spot identity for (n, N) = (1, 1):
    # V-ext = V + w [6(z^2-4)/D - 20(5z^2-4z-2)/D^2 + 2], D = z^3-z^2+2z+2
    spec = isotonic.IsotonicSpec(1, 1)
    pot = isotonic.extended_potential(spec)
    d = ExactPoly([2, 2, -1, 1])
    assert -1 * isotonic.q_poly(1, 1) == d
    display = (
        spec.base.v_zform_units()
        + 6 * RationalFn(ExactPoly([-4, 0, 1]), d)
        - 20 * RationalFn(ExactPoly([-2, -4, 5]), d * d)
        + 2
    )
    assert pot.z_form == display


def test_extension_potential_x_form_matches_z_form():
    spec = isotonic.IsotonicSpec(1, 2)
    pot = isotonic.extended_potential(spec)
    for omega in (1.0, 2.0):
        for x in (0.3, 0.8, 1.7):
            z = omega * x * x / 2
            assert pot.v(x, omega) == pytest.approx(
                omega * pot.z_form(z), rel=1e-14
            )


def test_quasi_isospectrality_witness_smoke():
    spec = isotonic.IsotonicSpec(1, 1)
    result, expected = reports.spectrum_witness(spec, 4, grid_n=1500, omega=2.0)
    assert expected == [0.0, 8.0, 12.0, 16.0]  # E = 4 deleted
    for got, want in zip(result.energies, expected):
        assert got == pytest.approx(want, abs=5e-4)
    assert result.node_counts == (0, 1, 2, 3)


def test_domain_windows():
    lo, hi = isotonic.window(2.0, 4)  # up to E = 16
    assert lo == pytest.approx(1e-3)
    assert hi == pytest.approx(2.0 * math.sqrt(28.0))


# -- shape invariance and its n = 0 failure ---------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_shape_invariance(n, N):
    assert isotonic.shape_invariance_residual(n, N).is_zero


def test_shape_invariance_negative_control(monkeypatch):
    # the partner Q_1^(2) doubled, as C = 1 in place of 1/2 would give: the
    # real residual must notice
    real = isotonic.q_poly
    monkeypatch.setattr(isotonic, "q_poly",
                        lambda n, N: real(n, N) * (2 if N == 2 else 1))
    assert not isotonic.shape_invariance_residual(2, 1).is_zero


@pytest.mark.parametrize("N", range(1, 5))
def test_n0_shape_obstruction(N):
    ratios = isotonic.n0_shape_obstruction(N)
    assert len(ratios) >= 2
    assert isotonic.n0_shape_positive_control(N)


def test_n0_obstruction_ratio_values():
    assert set(isotonic.n0_shape_obstruction(1)) == {"0", "1", "1/2"}
    assert set(isotonic.n0_shape_obstruction(2)) == {"0", "1", "1/3", "2/3"}


# -- n = 0 equivalence with the one-step construction ------------------------------


@pytest.mark.parametrize("N", range(1, 9))
def test_n0_matches_generalized_laguerre(N):
    assert isotonic.n0_type2_proportional(N)
    assert isotonic.n0_type2_ratio(N) == Fraction(
        (-1) ** (N + 1) * math.factorial(N)
    )


@pytest.mark.parametrize("N", [1, 2, 3])
def test_n0_partner_identity_exact(N):
    # deleting the ground level of the N-oscillator lands, exactly, on the
    # one-step partner of the (N+1)-oscillator shifted by 2w
    spec = isotonic.IsotonicSpec(0, N)
    pot = isotonic.extended_potential(spec)
    assert pot.z_form == isotonic.n0_type2_partner_units(N)


def test_n0_partner_identity_numeric():
    for N in (4, 5):
        spec = isotonic.IsotonicSpec(0, N)
        pot = isotonic.extended_potential(spec)
        partner = isotonic.n0_type2_partner_units(N)
        for z in [0.1 + 0.61 * j for j in range(10)]:
            assert abs(pot.z_form(z) - partner(z)) < 1e-12


# -- parameter validation -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        isotonic.IsotonicSpec(-1, 1)
    with pytest.raises(ValueError):
        isotonic.IsotonicSpec(0, 0)
    d = isotonic.IsotonicSpec(2, 3).as_dict()
    assert d == {"n": 2, "N": 3} and type(d["n"]) is type(d["N"]) is int
    # a replacement is checked as a construction is
    spec = isotonic.IsotonicSpec(1, 1)
    with pytest.raises(ValueError):
        spec._replace(n=-1)
    with pytest.raises(ValueError):
        spec.base._replace(N=0)
    assert spec._replace(n=2) == isotonic.IsotonicSpec(2, 1)
