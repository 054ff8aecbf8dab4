import math
from fractions import Fraction

import numpy as np
import pytest

from confluent_dbt import verify
from confluent_dbt.classical import IsotonicOscillator, TrigPoschlTeller
from confluent_dbt.exactalg import ExactPoly, RationalFn, TrigGauged


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


def test_residual_rejects_plain_callables():
    with pytest.raises(TypeError):
        verify.exact_ode_residual(
            math.sin, RationalFn(ExactPoly.one()), Fraction(1)
        )


# -- quadrature -------------------------------------------------------------------


def test_quadrature_golden_values():
    r = verify.quadrature(math.sin, 0.0, math.pi)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.abs_error < 1e-9
    assert r.subdivisions >= 1
    r2 = verify.quadrature(lambda t: math.exp(-t), 0.0, math.inf)
    assert r2.value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_json_fields():
    r = verify.quadrature(lambda t: t, 0.0, 1.0)
    j = r.to_json()
    assert set(j) == {"value", "abs_error", "subdivisions"}
    assert j["value"] == pytest.approx(0.5)


def test_gram_matrix_orthogonal_set():
    fns = [lambda x, k=k: math.sin(k * x) for k in (1, 2, 3)]
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


# -- Dirichlet spectra ---------------------------------------------------------------


def test_square_well_spectrum():
    result = verify.dirichlet_spectrum(
        lambda x: 0.0, 0.0, math.pi, 4, grid_n=1000
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
        verify.dirichlet_spectrum(lambda x: 0.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        verify.dirichlet_spectrum(lambda x: 0.0, 0.0, 1.0, 4, grid_n=4)


def test_node_anomaly_detected():
    # two wells separated by an impenetrable barrier: low levels localize,
    # the far-pocket sign change drops below the amplitude cutoff and the
    # count comes out wrong; the solver must refuse rather than mislabel
    def v(x):
        return 1e6 if 1.0 < x < 1.2 else 0.0

    with pytest.raises(ValueError, match="node-count anomaly"):
        verify.dirichlet_spectrum(v, 0.0, 3.4, 3, grid_n=600)


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


# -- domains --------------------------------------------------------------------------


def test_domain_windows():
    a, b = verify.tdpt_domain()
    assert a == pytest.approx(1e-4)
    assert b == pytest.approx(math.pi / 2 - 1e-4)
    lo, hi = verify.isotonic_domain(2.0, 16.0)
    assert lo == pytest.approx(1e-3)
    assert hi == pytest.approx(2.0 * math.sqrt(28.0))
    assert verify.tdpt_domain(1e-6)[0] == 1e-6
