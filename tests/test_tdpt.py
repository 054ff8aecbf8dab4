import math
import random
from fractions import Fraction

import pytest

from confluent_dbt import reports, tdpt, verify
from confluent_dbt.classical import jacobi
from confluent_dbt.exactalg import (
    Confluent,
    ExactPoly,
    RationalFn,
    TrigGauged,
    count_roots,
    wronskian,
)

ONE_MINUS = ExactPoly([1, -1])
ONE_PLUS = ExactPoly([1, 1])


# -- the cumulative-norm polynomial Q -----------------------------------------


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("N,M", [(1, 1), (2, 1), (1, 3), (2, 2)])
def test_q_derivative_is_minus_half_weight(n, N, M):
    # Q' = -(1/2)(1-z)^N (1+z)^M P_n^2 exactly; Q is therefore strictly
    # decreasing across (-1, 1)
    q = tdpt.q_poly(n, N, M)
    p = jacobi(n, N, M)
    expected = ONE_MINUS**N * ONE_PLUS**M * p * p * Fraction(-1, 2)
    assert q.derivative() == expected


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("N", range(1, 5))
@pytest.mark.parametrize("M", range(1, 5))
def test_q_endpoints(n, N, M):
    q = tdpt.q_poly(n, N, M)
    assert q(Fraction(-1)) == 0
    assert q(Fraction(1)) == tdpt.q_at_one(n, N, M)
    assert tdpt.q_at_one(n, N, M) < 0


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("N,M", [(1, 1), (2, 1), (3, 2)])
def test_q_endpoint_recurrence(n, N, M):
    # Q_{n-1}^(N+1,M+1)(1) = [4n/(n+N+M+1)] Q_n^(N,M)(1): the lambda1 shift
    # carries the threshold of (n, N, M) onto that of (n-1, N+1, M+1)
    thr = tdpt.regularity_threshold(n, N, M)
    shifted = tdpt.regularity_threshold(n - 1, N + 1, M + 1)
    assert tdpt.lambda1_shifted(n, N, M, thr) == shifted


def test_threshold_two_thirds_for_ground_level():
    for N, M in [(1, 1), (2, 1), (1, 2)]:
        assert tdpt.regularity_threshold(0, N, M) == Fraction(2, 3)


# -- regularity of lambda1 + Q -------------------------------------------------


def test_regularity_predicate_matches_sturm_certificate():
    rng = random.Random(20240818)
    specs = [(0, 1, 1), (1, 1, 1), (2, 2, 1), (1, 2, 3)]
    for n, N, M in specs:
        thr = tdpt.regularity_threshold(n, N, M)
        for _ in range(50):
            # hit all three regimes: negative, inside (0, thr], above
            lam = Fraction(rng.randint(-60, 60), rng.randint(1, 40)) * thr
            predicted = tdpt.is_regular(n, N, M, lam)
            spec = tdpt.TdptSpec(n, N, M, lam)
            certified, witness = tdpt.certify_regularity(spec)
            assert predicted == certified, (n, N, M, lam)
            if not certified:
                assert len(witness) >= 1


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("N", range(1, 4))
@pytest.mark.parametrize("M", range(1, 4))
def test_certificate_agrees_with_closed_root_count(n, N, M):
    # count_roots is the independent count: the certificate itself builds
    # its witness from isolate_roots alone
    thr = tdpt.regularity_threshold(n, N, M)
    for lam in (thr, thr / 2, thr / 3, Fraction(0), Fraction(-1), 2 * thr):
        spec = tdpt.TdptSpec(n, N, M, lam)
        d = tdpt.denominator_poly(spec)
        # the window (-1, 1] closed at z = 1, as the certificate takes it
        roots = count_roots(d, Fraction(-1), Fraction(1)) + (d(Fraction(1)) == 0)
        certified, witness = tdpt.certify_regularity(spec)
        assert certified == (roots == 0), lam
        assert len(witness) == roots, lam
        for lo, hi in witness:  # [r, r] marks an exact root r
            closed = count_roots(d, lo, hi) + (d(lo) == 0) + (d(hi) == 0)
            assert d(lo) == 0 if lo == hi else closed == 1


def test_forbidden_window_boundary_cases():
    n, N, M = 1, 1, 1
    thr = tdpt.regularity_threshold(n, N, M)
    assert tdpt.is_regular(n, N, M, 0)
    assert not tdpt.is_regular(n, N, M, thr)  # denominator vanishes at z = 1
    assert tdpt.is_regular(n, N, M, thr + Fraction(1, 10**6))
    assert tdpt.is_regular(n, N, M, Fraction(-1, 10**6))


def test_extended_potential_rejects_forbidden_lambda1():
    thr = tdpt.regularity_threshold(1, 1, 1)
    bad = tdpt.TdptSpec(1, 1, 1, thr / 2)
    with pytest.raises(ValueError):
        tdpt.extended_potential(bad)


def test_lambda1_shift_preserves_regularity_regime():
    # the shifted constant is regular for (n-1, N+1, M+1) exactly when the
    # original is regular for (n, N, M); the thresholds obey the same scaling
    rng = random.Random(7)
    for n, N, M in [(1, 1, 1), (2, 1, 2), (3, 2, 2)]:
        thr = tdpt.regularity_threshold(n, N, M)
        thr_shift = tdpt.regularity_threshold(n - 1, N + 1, M + 1)
        assert tdpt.lambda1_shifted(n, N, M, thr) == thr_shift
        for _ in range(25):
            lam = Fraction(rng.randint(-50, 50), rng.randint(1, 30)) * thr
            lam2 = tdpt.lambda1_shifted(n, N, M, lam)
            assert tdpt.is_regular(n, N, M, lam) == tdpt.is_regular(
                n - 1, N + 1, M + 1, lam2
            )


# -- Wronskians and the exceptional family -------------------------------------


@pytest.mark.parametrize("n,k", [(0, 1), (0, 2), (1, 0), (1, 2), (2, 3)])
def test_wronskian_closed_form(n, k):
    N, M = 2, 1
    base = tdpt.TdptSpec(0, N, M, 0).base
    w = wronskian([base.eigenstate(n), base.eigenstate(k)])
    expected = TrigGauged(
        Fraction(N + 1),
        Fraction(M + 1),
        RationalFn(-tdpt.wronskian_pair_poly(n, N, M, k)),
    )
    assert w == expected


def test_wronskian_pair_poly_antisymmetric():
    for n, k in [(0, 1), (1, 2), (0, 3)]:
        a = tdpt.wronskian_pair_poly(n, 1, 2, k)
        b = tdpt.wronskian_pair_poly(k, 1, 2, n)
        assert a == -1 * b


@pytest.mark.parametrize(
    "n,N,M,lam", [(2, 3, 2, 1), (7, 1, 4, Fraction(-5, 2)), (0, 1, 1, -3)]
)
def test_states_are_the_confluent_formula_with_determinant_wronskians(n, N, M, lam):
    # the polynomial-level assembly against the gauged definition
    # (E_n - E_k) psi_k - psi_n W(psi_n, psi_k) / w, with the Wronskian
    # from its determinant
    spec = tdpt.TdptSpec(n, N, M, lam)
    ext, base = tdpt.confluent(spec), spec.base
    assert ext.state(n) == ext.restored() == ext.psi_n / ext.w
    for k in range(n + 3):
        if k != n:
            psi_k = base.eigenstate(k)
            w_k = wronskian([ext.psi_n, psi_k])
            gap = base.energy(n) - base.energy(k)
            assert ext.state(k) == gap * psi_k - ext.psi_n * w_k / ext.w


def test_confluent_refuses_a_denominator_whose_derivative_is_not_psi_n_squared():
    spec = tdpt.TdptSpec(2, 3, 2, 1)
    ext = tdpt.confluent(spec)
    assert ext.w.d_dx() == ext.psi_n * ext.psi_n
    # lambda1 + 2 Q_n: twice the derivative
    bad = TrigGauged(0, 0, RationalFn(tdpt.q_poly(2, 3, 2) * 2 + spec.lambda1))
    with pytest.raises(ValueError, match="psi_n"):
        Confluent(ext.psi_n, bad, ext.numerator)


def test_confluent_refuses_a_rational_part_that_is_not_a_polynomial():
    # psi_n or w written one power of 1 - z higher, over 1 - z: gauged `==`
    # to it, so the guard on w' holds, but the formulas read the polynomials
    ext = tdpt.confluent(tdpt.TdptSpec(1, 2, 1, -2))
    psi_over, w_over = (
        f._replace(a=f.a + 1, rat=RationalFn(f.rat.num, ONE_MINUS))
        for f in (ext.psi_n, ext.w)
    )
    assert psi_over == ext.psi_n and w_over == ext.w
    assert w_over.d_dx() == psi_over * psi_over
    for psi_n, w in ((ext.psi_n, w_over), (psi_over, ext.w)):
        with pytest.raises(ValueError, match="gauge times a polynomial"):
            Confluent(psi_n, w, ext.numerator)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("lam", ["0", "-7/3", "threshold + 1/1000", "1000000"])
def test_correction_is_minus_twice_the_derivative_of_psi_n_squared_over_w(n, lam):
    # the one reduction over w^2 against the gauged algebra's
    # -2 d/dx (psi_n^2 / w); at lambda1 = 0, w vanishes at z = -1 and the
    # reduction must cancel 1 + z
    for N in range(1, 5):
        for M in range(1, 5):
            if lam == "threshold + 1/1000":
                lam1 = tdpt.regularity_threshold(n, N, M) + Fraction(1, 1000)
            else:
                lam1 = Fraction(lam)
            ext = tdpt.confluent(tdpt.TdptSpec(n, N, M, lam1))
            assert (ext.w.rat.num(-1) == 0) == (lam1 == 0)
            got = ext.correction()
            want = -2 * (ext.psi_n * ext.psi_n / ext.w).d_dx()
            assert got == want
            # the same gauge and the same reduced rational part
            assert got._asdict() == want._asdict()


def test_p_tilde_degree_and_surviving_level():
    spec = tdpt.TdptSpec(1, 1, 1, 1)
    n, N, M = spec.n, spec.N, spec.M
    for k in range(5):
        pt = tdpt.p_tilde(spec, k)
        if k == n:
            # the restored level keeps the plain Jacobi polynomial
            assert pt == jacobi(n, N, M)
        else:
            assert pt.degree() == N + M + 2 * n + 1 + k
    with pytest.raises(ValueError):
        tdpt.p_tilde(spec, -1)


@pytest.mark.parametrize(
    "spec",
    [tdpt.TdptSpec(0, 1, 1, 1), tdpt.TdptSpec(0, 2, 1, 1), tdpt.TdptSpec(1, 1, 1, -1)],
)
@pytest.mark.parametrize("k", range(5))
def test_extension_eigenfunctions_solve_the_ode_exactly(spec, k):
    pot = tdpt.extended_potential(spec)
    psi = tdpt.confluent(spec).state(k)
    res = verify.exact_ode_residual(psi, pot.z_form, spec.base.energy(k))
    assert res.is_zero


def test_measure_weight_positive_inside_interval():
    spec = tdpt.TdptSpec(1, 1, 1, -2)
    w = tdpt.measure_weight(spec)
    for z in [-0.9, -0.3, 0.0, 0.4, 0.95]:
        assert w(z) > 0


def test_exceptional_family_contents():
    spec = tdpt.TdptSpec(1, 1, 1, 1)
    assert tdpt.levels(spec, 4) == (0, 1, 2, 3, 4)
    assert tdpt.exceptional is tdpt.p_tilde
    assert all(not tdpt.exceptional(spec, k).is_zero for k in range(5))
    assert tdpt.exceptional(spec, 1) == jacobi(1, 1, 1)
    weight = tdpt.measure_weight(spec)
    assert weight == RationalFn(
        ONE_MINUS * ONE_PLUS * Fraction(1, 2), tdpt.denominator_poly(spec) ** 2
    )
    assert weight(0.0) > 0
    with pytest.raises(ValueError):
        tdpt.levels(spec, -1)


def test_family_orthogonality_under_weight():
    # Gram matrix of the gauged eigenfunctions over (0, pi/2); relative
    # off-diagonal mass must vanish to quadrature accuracy
    spec = tdpt.TdptSpec(0, 1, 1, 1)
    fns = [tdpt.confluent(spec).state(k) for k in range(5)]
    vals, _ = verify.gram_matrix([f.eval_x for f in fns], *tdpt.GRAM_INTERVAL)
    assert verify.max_offdiagonal_relative(vals) < 1e-10


# -- shape invariance ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_shape_invariance_all_27(n, N, M):
    assert tdpt.shape_invariance_residual(n, N, M, Fraction(5, 3))[0].is_zero
    assert tdpt.shape_invariance_residual(n, N, M, -7)[0].is_zero


def test_shape_invariance_worked_case():
    # n = N = M = 1: C = 1, lambda1' = lambda1, and the cross term is
    # z (1 - z^2)^2 / 2
    residual, c, lam2 = tdpt.shape_invariance_residual(1, 1, 1, Fraction(1))
    assert residual.is_zero
    assert c == 1
    assert lam2 == 1
    cross = (
        ONE_MINUS**2 * ONE_PLUS**2 * jacobi(1, 1, 1) * jacobi(0, 2, 2) * Fraction(1, 4)
    )
    assert cross == ExactPoly([0, Fraction(1, 2), 0, -1, 0, Fraction(1, 2)])


def test_shape_invariance_negative_control():
    residual, c, _ = tdpt.shape_invariance_residual(1, 1, 1, 1)
    assert residual.is_zero
    broken, _, _ = tdpt.shape_invariance_residual(1, 1, 1, 1, c_factor=c + 1)
    assert not broken.is_zero


def test_shape_invariance_needs_positive_n():
    with pytest.raises(ValueError):
        tdpt.shape_invariance_residual(0, 1, 1, 1)


# -- potential and spectrum -------------------------------------------------------


def test_extension_correction_vanishes_nowhere_special():
    # the correction is a genuine rational perturbation: nonzero, decaying
    # at neither endpoint in general, and exactly V-ext - V-base
    spec = tdpt.TdptSpec(0, 1, 1, 1)
    pot = tdpt.extended_potential(spec)
    assert not pot.correction.is_zero
    assert pot.z_form == spec.base.v_zform() + pot.correction


def test_extension_potential_x_form_matches_z_form():
    spec = tdpt.TdptSpec(1, 2, 1, -2)
    pot = tdpt.extended_potential(spec)
    for x in [0.2, 0.7, 1.1, 1.5]:
        z = math.cos(2 * x)
        assert pot.v(x) == pytest.approx(pot.z_form(z), rel=1e-14)


def test_isospectrality_witness_smoke():
    spec = tdpt.TdptSpec(0, 1, 1, 1)
    result, expected = reports.spectrum_witness(spec, 3, grid_n=1500)
    assert expected == [0.0, 16.0, 40.0]
    for got, want in zip(result.energies, expected):
        assert got == pytest.approx(want, rel=2e-4, abs=2e-4)
    assert result.node_counts == (0, 1, 2)


def test_domain_windows():
    a, b = tdpt.window(2.0, 9)  # the same for every frequency and level
    assert a == pytest.approx(1e-4)
    assert b == pytest.approx(math.pi / 2 - 1e-4)
    assert tdpt.GRAM_INTERVAL == (1e-8, math.pi / 2 - 1e-8)


# -- parameter validation ----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        tdpt.TdptSpec(-1, 1, 1, 0)
    with pytest.raises(ValueError):
        tdpt.TdptSpec(0, 0, 1, 0)
    with pytest.raises(ValueError):
        tdpt.TdptSpec(0, 1, 0, 0)
    with pytest.raises(TypeError):
        tdpt.TdptSpec(0, 1, 1, 0.25)
    d = tdpt.TdptSpec(2, 1, 3, Fraction(-7, 2)).as_dict()
    assert d == {"n": 2, "N": 1, "M": 3, "lambda1": "-7/2"}


@pytest.mark.parametrize("lambda1,text", [(5, "5"), (Fraction(-7, 3), "-7/3")],
                         ids=["whole", "fraction"])
def test_spec_as_dict_writes_lambda1_as_a_string(lambda1, text):
    # the integers stay ints; lambda1 is a string even when it is whole
    d = tdpt.TdptSpec(1, 2, 3, lambda1).as_dict()
    assert d == {"n": 1, "N": 2, "M": 3, "lambda1": text}
    assert [type(d[k]) for k in ("n", "N", "M")] == [int] * 3


def test_replace_checks_and_coerces_as_the_constructor_does():
    spec = tdpt.TdptSpec(1, 1, 1, 1)
    with pytest.raises(ValueError):
        spec._replace(n=-1)
    with pytest.raises(ValueError):
        spec.base._replace(M=0)
    with pytest.raises(TypeError):
        spec._replace(lambda1=0.25)
    assert spec._replace(lambda1=3).lambda1 == Fraction(3)
    assert type(spec._replace(lambda1=3).lambda1) is Fraction
    assert type(spec._replace(n=2)) is tdpt.TdptSpec
