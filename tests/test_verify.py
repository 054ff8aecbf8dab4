import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confluent_dbt import chains, cli, isotonic, tdpt, verify
from confluent_dbt.classical import IsotonicOscillator, TrigPoschlTeller
from confluent_dbt.exactalg import ExactPoly, RadialGauged, RationalFn, TrigGauged


# -- exact residual operator -----------------------------------------------------


def test_residual_vanishes_only_on_eigenstates():
    base = TrigPoschlTeller(1, 1)
    v = base.v_zform()
    good = base.eigenstate(1)
    assert verify.exact_ode_residual(good, v, base.energy(1)).is_zero
    # same function at the wrong energy
    assert not verify.exact_ode_residual(good, v, base.energy(2)).is_zero
    # perturbed function at the right energy
    junk = TrigGauged(good.a, good.b, good.rat + RationalFn(ExactPoly([0, 0, 1])))
    assert not verify.exact_ode_residual(junk, v, base.energy(1)).is_zero


def test_residual_is_linear():
    base = TrigPoschlTeller(2, 1)
    v = base.v_zform()
    e = base.energy(1)
    f = base.eigenstate(1)
    g = TrigGauged(f.a, f.b, RationalFn(ExactPoly([1, -2, 3])))
    r_sum = verify.exact_ode_residual(f + g, v, e)
    r_f = verify.exact_ode_residual(f, v, e)
    r_g = verify.exact_ode_residual(g, v, e)
    assert r_sum == r_f + r_g
    # and since f is an eigenstate the sum collapses to the g-part
    assert r_f.is_zero
    assert r_sum == r_g


def test_residual_radial_units_cancel():
    base = IsotonicOscillator(2)
    v = base.v_zform_units()
    for k in range(4):
        res = verify.exact_ode_residual(
            base.eigenstate(k), v, base.energy_units(k)
        )
        assert res.is_zero


def gauged_route(f, v, energy):
    """psi'' + (E - V) psi by gauged arithmetic: two `d_dx`, a product and
    a sum, each reduced on its own."""
    gap = energy - v
    if isinstance(f, RadialGauged):
        gap = RadialGauged(Fraction(0), 0, 2, gap * Fraction(1, 2))
    return f.d_dx().d_dx() + f * gap


POLE = RationalFn(ExactPoly([1]), ExactPoly([3, 1]))  # 1/(z+3)
RESIDUAL_VARIANTS = ("true", "energy+1", "junk", "rational energy", "energy+pole")


@st.composite
def residual_cases(draw):
    """(state, potential, energy, variant) over eigenstates of both
    extensions (lambda1 = 0 included, where D vanishes at z = -1) and of
    both bases (rational part a polynomial), then varied."""
    family = draw(st.sampled_from(["tdpt", "isotonic", "trig base", "radial base"]))
    k = draw(st.integers(0, 4))
    if family == "tdpt":
        n, N, M = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        step = draw(st.fractions(min_value=Fraction(1, 7), max_value=9,
                                 max_denominator=7))
        lam = draw(st.sampled_from(
            [Fraction(0), -step, tdpt.regularity_threshold(n, N, M) + step]
        ))
        spec = tdpt.TdptSpec(n, N, M, lam)
        f, v = tdpt.eigenfunction(spec, k), tdpt.extended_potential(spec).z_form
        e = spec.base.energy(k)
    elif family == "isotonic":
        spec = isotonic.IsotonicSpec(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
        f = (isotonic.deleted_state(spec) if k == spec.n
             else isotonic.eigenfunction(spec, k))
        v, e = isotonic.extended_potential(spec).zform_units, 2 * k
    elif family == "trig base":
        base = TrigPoschlTeller(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        f, v, e = base.eigenstate(k), base.v_zform(), base.energy(k)
    else:
        base = IsotonicOscillator(draw(st.integers(1, 3)))
        f, v, e = base.eigenstate(k), base.v_zform_units(), base.energy_units(k)
    variant = draw(st.sampled_from(RESIDUAL_VARIANTS))
    if variant == "energy+1":
        e += 1
    elif variant == "junk":
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)
                      .filter(any))
        junk = RationalFn(ExactPoly(coeffs), ExactPoly([draw(st.integers(2, 5)), 1]))
        f = dataclasses.replace(f, rat=f.rat + junk)
    elif variant == "rational energy":
        e = RationalFn(ExactPoly([e]))
    elif variant == "energy+pole":
        e = e + POLE
    return f, v, e, variant


@given(residual_cases())
@settings(max_examples=80, deadline=None)
def test_residual_matches_the_gauged_route(case):
    f, v, energy, variant = case
    res = verify.exact_ode_residual(f, v, energy)
    assert res == gauged_route(f, v, energy)
    assert res.is_zero == (variant in ("true", "rational energy"))
    # two half powers below f's gauge, reduced, with a monic denominator
    if isinstance(f, TrigGauged):
        assert (res.a, res.b) == (f.a - 1, f.b - 1)
    else:
        assert (res.c, res.s, res.p) == (f.c - 1, f.s, f.p + 2)
    assert res.rat.den.lc() == 1
    assert res.is_zero or res.rat.num.gcd(res.rat.den).degree() == 0


def test_residual_rejects_plain_callables():
    with pytest.raises(TypeError):
        verify.exact_ode_residual(
            math.sin, RationalFn(ExactPoly.one()), Fraction(1)
        )


# -- quadrature -------------------------------------------------------------------


def test_quadrature_golden_values():
    r = verify.quadrature(np.sin, 0.0, math.pi)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.abs_error < 1e-9
    assert r.subdivisions >= 1
    r2 = verify.quadrature(lambda t: np.exp(-t), 0.0, math.inf)
    assert r2.value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_json_fields():
    r = verify.quadrature(lambda t: t, 0.0, 1.0)
    fields = {f.name for f in dataclasses.fields(r)}
    assert fields == {"value", "abs_error", "subdivisions", "converged"}
    assert r.value == pytest.approx(0.5) and r.converged


def test_gauss_kronrod_rule():
    # the Gauss nodes and weights are the 10-point Gauss-Legendre rule, and
    # the Kronrod rule integrates x^k exactly on [-1, 1] up to k = 31
    nodes, weights = np.polynomial.legendre.leggauss(10)
    kronrod, gauss = verify._RULES.T
    assert np.allclose(verify._NODES[gauss != 0], nodes, rtol=0, atol=1e-15)
    assert np.allclose(gauss[gauss != 0], weights, rtol=0, atol=1e-15)
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(kronrod @ verify._NODES**k - exact) < 1e-15
    assert abs(kronrod @ verify._NODES**32 - 2.0 / 33) > 1e-13


def test_quadrature_edge_intervals():
    fwd = verify.quadrature(np.exp, 0.0, 1.0)
    back = verify.quadrature(np.exp, 1.0, 0.0)
    assert back.value == -fwd.value and back.converged
    assert verify.quadrature(np.exp, 0.5, 0.5) == verify.QuadratureResult(
        0.0, 0.0, 1, True
    )
    gauss = lambda t: np.exp(-t * t)
    for lo, hi, want in ((-math.inf, math.inf, math.sqrt(math.pi)),
                         (-math.inf, 0.0, math.sqrt(math.pi) / 2),
                         (1.0, math.inf, math.sqrt(math.pi) / 2 * math.erfc(1.0))):
        r = verify.quadrature(gauss, lo, hi)
        assert r.converged and r.value == pytest.approx(want, rel=1e-13)


def test_quadrature_failure_is_reported(monkeypatch):
    # no integrand gives evidence through NaN, and none meets a zero tolerance
    r = verify.quadrature(lambda t: np.full_like(t, math.nan), 0.0, 1.0)
    assert not r.converged and math.isnan(r.value)
    monkeypatch.setattr(verify, "QUAD_TOL", 0.0)
    r = verify.quadrature(np.sin, 0.0, math.pi)
    assert not r.converged and r.subdivisions == verify.QUAD_LIMIT
    assert r.value == pytest.approx(2.0, abs=1e-12)


@st.composite
def seed_intervals(draw):
    """A seed of either family and an interval: a small gap, the whole
    domain, or a half line [x, inf) for the radial seed."""
    if draw(st.booleans()):
        n, N, M = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        seed, _ = chains.tdpt_seed(n, N, M)
        lo_end, hi_end = 0.0, math.pi / 2
    else:
        n, N = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        omega = draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
        seed, _ = chains.isotonic_seed(n, N, omega)
        lo_end, hi_end = 0.0, math.inf
    kind = draw(st.sampled_from(["gap", "whole", "tail"]))
    x = draw(st.floats(0.02, 1.5))
    if kind == "gap":
        lo, hi = x, x + draw(st.floats(1e-4, 0.05))
    elif kind == "whole":
        lo, hi = lo_end, hi_end
    else:
        lo, hi = x, hi_end
    return seed, lo, hi


@given(seed_intervals())
@settings(max_examples=60, deadline=None)
def test_quadrature_matches_scipy_on_seed_integrands(case):
    import scipy.integrate

    seed, lo, hi = case
    square = lambda t: seed.f(t) ** 2
    got = verify.quadrature(square, lo, hi)
    want, _ = scipy.integrate.quad(
        square, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=500
    )
    assert got.converged
    # seeds are normalized, so every integral is at most 1
    assert abs(got.value - want) <= 2e-12 * max(1.0, abs(want))


def test_gram_matrix_orthogonal_set():
    fns = [lambda x, k=k: np.sin(k * x) for k in (1, 2, 3)]
    vals, results = verify.gram_matrix(fns, 0.0, math.pi)
    for j in range(3):
        assert vals[j][j] == pytest.approx(math.pi / 2, rel=1e-12)
        assert vals[j][j] > 0
    assert verify.max_offdiagonal_relative(vals) < 1e-12
    assert results[0][1].abs_error < 1e-9
    assert results[0][1] is results[1][0]


def test_max_offdiagonal_relative_hand_value():
    vals = np.array([[4.0, 0.2], [0.2, 1.0]])
    assert verify.max_offdiagonal_relative(vals) == pytest.approx(0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_worst_fails_tolerance_on_non_finite(bad):
    assert verify.worst([0.0, 1e-3]) == 1e-3
    # `max` would return 1e-3 here and pass a 1e-2 tolerance
    assert not verify.worst([1e-3, bad]) < 1e-2
    assert not verify.worst([bad, 1e-3]) < 1e-2
    assert not verify.worst([]) < 1e-2


def test_max_offdiagonal_relative_fails_on_degenerate_gram():
    # an all-zero Gram matrix (every state vanishes) gives 0/0 ratios
    with np.errstate(invalid="ignore"):
        worst = verify.max_offdiagonal_relative(np.zeros((3, 3)))
    assert not worst < 1e-10
    # a single state has no off-diagonal entry: no evidence, no pass
    assert not verify.max_offdiagonal_relative(np.ones((1, 1))) < 1e-10


# -- Gauss Gram matrices ------------------------------------------------------------


def assert_gauss_matches_adaptive(states, fns, lo, hi, omega=1.0):
    """Entry by entry to 1e-9 relative to sqrt(G_jj G_kk)."""
    gram = verify.gauss_gram(states, omega)
    assert gram.converged and gram.quadrature_error <= 1e-12
    adaptive, _ = verify.gram_matrix(fns, lo, hi)
    scale = np.sqrt(np.outer(np.diag(adaptive), np.diag(adaptive)))
    assert np.max(np.abs(gram.values - adaptive) / scale) < 1e-9


@st.composite
def regular_tdpt_specs(draw):
    n, N, M = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    threshold = tdpt.regularity_threshold(n, N, M)
    # lambda1 = 0 is regular, but then the level-n state is not square
    # integrable (both Gram routes fail on it)
    lam = draw(st.one_of(
        st.fractions(min_value=-10, max_value=Fraction(-1, 20), max_denominator=20),
        st.fractions(min_value=Fraction(11, 10), max_value=10, max_denominator=20).map(
            lambda f: f * threshold
        ),
    ))
    return tdpt.TdptSpec(n, N, M, lam)


@given(regular_tdpt_specs(), st.integers(1, 6))
@settings(max_examples=12, deadline=None)
def test_gauss_gram_matches_adaptive_tdpt(spec, kmax):
    states = [tdpt.eigenfunction(spec, k) for k in range(kmax + 1)]
    assert_gauss_matches_adaptive(
        states, [f.eval_x for f in states], *verify.tdpt_domain(1e-8)
    )


@given(
    st.integers(0, 3), st.integers(1, 4), st.integers(1, 5),
    st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=12, deadline=None)
def test_gauss_gram_matches_adaptive_isotonic(n, N, kmax, omega):
    spec = isotonic.IsotonicSpec(n, N)
    states = [isotonic.eigenfunction(spec, k) for k in isotonic.surviving_levels(spec, kmax)]
    fns = [(lambda x, f=f: f.eval_x(x, omega)) for f in states]
    assert_gauss_matches_adaptive(states, fns, 0.0, math.inf, omega)


@pytest.mark.parametrize("N,M", [(1, 1), (2, 1), (3, 2)])
def test_gauss_gram_matches_adaptive_classical(N, M):
    trig = TrigPoschlTeller(N, M)
    states = [trig.eigenstate(k) for k in range(5)]
    assert_gauss_matches_adaptive(
        states, [f.eval_x for f in states], 1e-9, math.pi / 2 - 1e-9
    )
    radial = IsotonicOscillator(N)
    states = [radial.eigenstate(k) for k in range(5)]
    fns = [(lambda x, f=f: f.eval_x(x, 2.0)) for f in states]
    assert_gauss_matches_adaptive(states, fns, 0.0, math.inf, 2.0)


def test_gauss_gram_of_polynomial_states_is_exact_at_once():
    # the rule integrates products of degree <= 8 exactly: two rules agree
    gram = verify.gauss_gram([TrigPoschlTeller(2, 1).eigenstate(k) for k in range(5)])
    assert gram.nodes == 80
    assert gram.quadrature_error < 1e-14


def test_gauss_gram_refuses_mixed_gauges():
    f = TrigPoschlTeller(1, 1).eigenstate(0)
    g = TrigPoschlTeller(2, 1).eigenstate(0)
    with pytest.raises(ValueError, match="one gauge"):
        verify.gauss_gram([f, g])
    radial = IsotonicOscillator(1).eigenstate(0)
    with pytest.raises(ValueError, match="one gauge"):
        verify.gauss_gram([radial, RadialGauged(radial.c, radial.s, 1, radial.rat)])
    with pytest.raises(ValueError, match="e\\^\\(-z/2\\)"):
        verify.gauss_gram([isotonic.deleted_state(isotonic.IsotonicSpec(1, 1))])
    with pytest.raises(TypeError):
        verify.gauss_gram([math.sin])


def test_gauss_gram_stops_at_its_node_cap():
    spec = isotonic.IsotonicSpec(1, 1)
    states = [isotonic.eigenfunction(spec, k) for k in (0, 2, 3)]
    gram = verify.gauss_gram(states, max_nodes=80)
    assert gram.nodes == 80 and not gram.converged
    assert gram.quadrature_error > 1e-12


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (3.0, 2.0), (0.5, 4.0)])
def test_jacobi_rule_moments(alpha, beta):
    z, w = verify._jacobi_rule(alpha, beta, 40)
    for k in (0, 5, 30):
        exact = 2.0 ** (alpha + beta + k + 1) * math.exp(
            math.lgamma(alpha + 1) + math.lgamma(beta + k + 1)
            - math.lgamma(alpha + beta + k + 2)
        )
        assert math.fsum((w * (1 + z) ** k).tolist()) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n", [40, 640, 2560])
def test_laguerre_rule_keeps_far_weights(n):
    # scipy's roots_genlaguerre overflows past a few hundred nodes; the
    # Christoffel weights stay finite and integrate the moments exactly
    z, w = verify._laguerre_rule(2.0, n)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    for k in (0, 6, 20):
        moment = math.fsum((w * z**k).tolist())
        assert moment == pytest.approx(math.gamma(k + 3.0), rel=1e-12)


# -- Dirichlet spectra ---------------------------------------------------------------


def test_square_well_spectrum():
    result = verify.dirichlet_spectrum(
        lambda x: 0.0 * x, 0.0, math.pi, 4, grid_n=1000
    )
    exact = [1.0, 4.0, 9.0, 16.0]
    for got, want, est in zip(result.energies, exact, result.error_estimates):
        assert got == pytest.approx(want, rel=1e-6)
        assert est > 0
    assert result.node_counts == (0, 1, 2, 3)
    assert result.domain == (0.0, math.pi)
    j = result.to_json()
    assert set(j) == {
        "energies",
        "node_counts",
        "domain",
        "grid_n",
        "error_estimates",
    }


def test_harmonic_well_spectrum():
    # V = x^2 on the whole line: E = 2k + 1
    result = verify.dirichlet_spectrum(
        lambda x: x * x, -9.0, 9.0, 3, grid_n=2000
    )
    for got, want in zip(result.energies, [1.0, 3.0, 5.0]):
        assert got == pytest.approx(want, rel=1e-7)


def test_spectrum_requires_levels():
    with pytest.raises(ValueError):
        verify.dirichlet_spectrum(lambda x: 0.0, 0.0, 1.0, 0, grid_n=100)
    with pytest.raises(ValueError):
        verify.dirichlet_spectrum(lambda x: 0.0, 0.0, 1.0, 4, grid_n=4)


def test_node_anomaly_detected():
    # two wells separated by an impenetrable barrier: low levels localize,
    # the far-pocket sign change drops below the amplitude cutoff and the
    # count comes out wrong; the solver must refuse rather than mislabel
    def v(x):
        return np.where((1.0 < x) & (x < 1.2), 1e6, 0.0)

    with pytest.raises(ValueError, match="node-count anomaly"):
        verify.dirichlet_spectrum(v, 0.0, 3.4, 3, grid_n=600)


def count_nodes_by_loop(vec) -> int:
    """Sign changes among the entries above the cutoff, one at a time."""
    cutoff = 1e-8 * np.max(np.abs(vec))
    signs = [1 if t > 0 else -1 for t in vec if abs(t) > cutoff]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


@st.composite
def node_vectors(draw):
    """Vectors with exact zeros, entries at the cutoff and just above it,
    and sometimes a NaN."""
    vals = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-7, -1e-7]))
    vec = np.array(draw(st.lists(vals, min_size=1, max_size=40)))
    cutoff = 1e-8 * np.max(np.abs(vec))
    above = np.nextafter(cutoff, np.inf)
    for t in draw(st.lists(st.sampled_from([cutoff, -cutoff, above, -above]),
                           max_size=4)):
        vec = np.insert(vec, draw(st.integers(0, len(vec))), t)
    if draw(st.integers(0, 3)) == 0:
        vec[draw(st.integers(0, len(vec) - 1))] = np.nan
    return vec


@given(node_vectors())
@example(np.zeros(7))
@example(np.array([1.0, 1e-8, -1e-8, -1.0, np.nextafter(1e-8, 1.0)]))
@example(np.array([1.0, np.nan, -1.0]))
@settings(max_examples=200, deadline=None)
def test_count_nodes_matches_the_loop(vec):
    assert verify._count_nodes(vec) == count_nodes_by_loop(vec)


def test_convergence_is_second_order():
    a, b = verify.tdpt_domain()
    ratio = verify.convergence_order_ratio(
        TrigPoschlTeller(1, 1).v, a, b, grid_n=1000
    )
    assert 3.6 < ratio < 4.4
    iso = IsotonicOscillator(1)
    lo, hi = verify.isotonic_domain(2.0, 16.0)
    ratio2 = verify.convergence_order_ratio(
        lambda x: iso.v(x, 2.0), lo, hi, grid_n=1000
    )
    assert 3.6 < ratio2 < 4.4


def _recording(v, calls):
    """v, recording the shapes of the points and of the values of each call."""

    def recorded(x, *args):
        out = v(x, *args)
        calls.append((np.shape(x), np.shape(out)))
        return out

    return recorded


def test_potentials_give_one_value_per_grid_point(monkeypatch, tmp_path, capsys):
    # every potential handed to the finite-difference solver or to a chain
    # integrator is called on the whole grid, so one that takes scalars
    # only fails here and not in a command
    calls = []
    real_fd = verify._fd_eigs
    monkeypatch.setattr(
        verify, "_fd_eigs", lambda v, *a, **kw: real_fd(_recording(v, calls), *a, **kw)
    )
    for name in ("hyperconfluent_chain", "matveev_potential"):
        real = getattr(chains, name)
        monkeypatch.setattr(
            chains, name,
            lambda seed, v, *a, real=real: real(seed, _recording(v, calls), *a),
        )

    # the finite-difference solver: both bases and both extensions
    tdpt.isospectrality_witness(tdpt.TdptSpec(0, 1, 1, 1), 2, grid_n=200)
    isotonic.quasi_isospectrality_witness(
        isotonic.IsotonicSpec(1, 1), 2.0, 2, grid_n=200
    )
    verify.convergence_order_ratio(
        TrigPoschlTeller(1, 1).v, *verify.tdpt_domain(), grid_n=200
    )
    iso = IsotonicOscillator(1)
    verify.convergence_order_ratio(
        lambda x: iso.v(x, 2.0), *verify.isotonic_domain(2.0, 16.0), grid_n=200
    )
    assert len(calls) == 10
    # and `verify spectrum` on both kinds of build output
    pot = str(tmp_path / "pot.json")
    for build in (
        ["tdpt", "build", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1"],
        ["isotonic", "build", "--n", "1", "--N", "1"],
    ):
        assert cli.main(build + ["--out", pot]) == 0
        assert cli.main(["verify", "spectrum", "--potential-json", pot,
                         "--levels", "2", "--grid-n", "200"]) == 0
    assert len(calls) == 14
    # the chain integrators, through the commands that run them
    for argv in (
        ["chain", "run", "--base", "tdpt", "--params", "0,1,1", "--lambdas", "1"],
        ["chain", "run", "--base", "isotonic", "--params", "0,1,2", "--lambdas", "1"],
        ["chain", "crosscheck", "--base", "tdpt", "--which", "matveev",
         "--params", "0,1,1", "--points", "5"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()

    grid_calls = [shape for shape, _ in calls if shape != ()]
    assert len(grid_calls) == 17
    assert all(len(shape) == 1 and shape[0] > 1 for shape in grid_calls)
    assert all(points == values for points, values in calls)


# -- domains --------------------------------------------------------------------------


def test_domain_windows():
    a, b = verify.tdpt_domain()
    assert a == pytest.approx(1e-4)
    assert b == pytest.approx(math.pi / 2 - 1e-4)
    lo, hi = verify.isotonic_domain(2.0, 16.0)
    assert lo == pytest.approx(1e-3)
    assert hi == pytest.approx(2.0 * math.sqrt(28.0))
    assert verify.tdpt_domain(1e-6)[0] == 1e-6
