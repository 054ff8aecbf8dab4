"""Acceptance gate: one test per release criterion, at the stated
tolerance and runtime cap.  Each test prints a single pass line with its
measured wall time; a failed assertion is the corresponding fail line."""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from confluent_dbt import chains, classical, cli, isotonic, reports, tdpt, verify
from confluent_dbt.exactalg import (
    ExactPoly,
    count_roots,
    isolate_roots,
)

U = ExactPoly([1, 1])  # z + 1
Z = ExactPoly.x()


@contextmanager
def criterion(num, label, cap_seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < cap_seconds, f"criterion {num} exceeded {cap_seconds}s: {dt:.2f}s"
    print(f"criterion {num:02d} ({label}): pass in {dt:.2f}s (cap {cap_seconds}s)")


def test_01_exact_cumulative_norms():
    with criterion(1, "exact cumulative norms", 1):
        half = Fraction(1, 2)
        want_11 = -half * U**2 * (ExactPoly.one() - Fraction(1, 3) * U)
        want_21 = -1 * U**2 * (
            ExactPoly.one() - Fraction(2, 3) * U + Fraction(1, 8) * U**2
        )
        want_12 = -1 * U**3 * (ExactPoly.constant(Fraction(1, 3)) - Fraction(1, 8) * U)
        assert tdpt.q_poly(0, 1, 1) == want_11
        assert tdpt.q_poly(0, 2, 1) == want_21
        assert tdpt.q_poly(0, 1, 2) == want_12
        for N in range(1, 7):
            want = ExactPoly(
                [-Fraction(math.factorial(N), math.factorial(l)) for l in range(N + 1)]
            )
            assert isotonic.q_poly(0, N) == want
        assert isotonic.q_poly(1, 1) == ExactPoly([-2, -2, 1, -1])


def test_02_endpoint_values():
    with criterion(2, "endpoint values", 5):
        for n in range(6):
            for N in range(1, 5):
                for M in range(1, 5):
                    q = tdpt.q_poly(n, N, M)
                    assert q(Fraction(1)) == tdpt.q_at_one(n, N, M)
                    assert q(Fraction(-1)) == 0
        for n in range(6):
            for N in range(1, 5):
                want = -Fraction(math.factorial(n + N), math.factorial(n))
                assert isotonic.q_at_zero(n, N) == want
                assert isotonic.q_poly(n, N)(Fraction(0)) == want


def test_03_exceptional_polynomial_goldens():
    with criterion(3, "exceptional polynomial goldens", 1):
        spec = isotonic.IsotonicSpec(1, 1)
        assert isotonic.l_tilde(spec, 0) == -1 * ExactPoly([2, 2, 1])
        p2 = isotonic.l_tilde(spec, 2)
        assert p2 == Fraction(-1, 2) * ExactPoly([-12, 0, 4, 0, 1])
        assert count_roots(p2, Fraction(0), None) == 1
        iso = isolate_roots(p2, Fraction(0), None)
        assert len(iso) == 1
        lo, hi = iso[0]
        # the isolating interval brackets sqrt(2): lo^2 < 2 < hi^2 exactly
        assert lo >= 0 and lo * lo < 2 < hi * hi


def test_04_schroedinger_identities_exact():
    with criterion(4, "exact Schroedinger residuals", 30):
        for n, N, M, lam in ((0, 1, 1, 1), (0, 2, 1, 1), (1, 1, 1, -1)):
            spec = tdpt.TdptSpec(n, N, M, lam)
            pot = tdpt.extended_potential(spec)
            for k in range(5):
                res = verify.exact_ode_residual(
                    tdpt.confluent(spec).state(k), pot.z_form, spec.base.energy(k)
                )
                assert res.is_zero, (spec, k)
        for n, N in ((0, 1), (1, 1), (1, 2)):
            spec = isotonic.IsotonicSpec(n, N)
            pot = isotonic.extended_potential(spec)
            for k in range(5):
                if k == n:
                    continue
                res = verify.exact_ode_residual(
                    isotonic.confluent(spec).state(k), pot.z_form, 2 * k
                )
                assert res.is_zero, (spec, k)


def test_05_enlarged_shape_invariance():
    with criterion(5, "enlarged shape invariance", 10):
        lams = (Fraction(1), Fraction(-3, 2), Fraction(7, 5))
        for n in (1, 2, 3):
            for N in (1, 2, 3):
                for M in (1, 2, 3):
                    for lam in lams:
                        residual, c, lam2 = tdpt.shape_invariance_residual(
                            n, N, M, lam
                        )
                        assert residual.is_zero, (n, N, M, lam)
                        assert c == Fraction(N + M + n + 1, 4 * n)
                        assert lam2 == Fraction(4 * n, N + M + n + 1) * lam
        for n in (1, 2, 3):
            for N in (1, 2, 3):
                # the identity with C = 1/n
                assert isotonic.shape_invariance_residual(n, N).is_zero, (n, N)
        for N in range(1, 5):
            ratios = isotonic.n0_shape_obstruction(N)
            assert len(set(ratios)) >= 2, N
            assert isotonic.n0_shape_positive_control(N)


def test_06_isospectrality_oracle():
    with criterion(6, "numeric spectra", 60):
        spec = tdpt.TdptSpec(0, 1, 1, 1)
        result, expected = reports.spectrum_witness(spec, 4, grid_n=2500)
        assert expected == [0.0, 16.0, 40.0, 72.0]
        for got, want in zip(result.energies, expected):
            assert abs(got - want) / max(1.0, abs(want)) < 1e-5
        assert result.node_counts == (0, 1, 2, 3)

        ispec = isotonic.IsotonicSpec(1, 1)
        result, expected = reports.spectrum_witness(ispec, 4, grid_n=3000, omega=2.0)
        assert expected == [0.0, 8.0, 12.0, 16.0]
        for got, want in zip(result.energies, expected):
            assert abs(got - want) / max(1.0, abs(want)) < 1e-5
        # the deleted level really is absent
        assert all(abs(got - 4.0) > 1.0 for got in result.energies)
        assert result.node_counts == (0, 1, 2, 3)


def test_07_orthogonality():
    with criterion(7, "orthogonality", 60):
        spec = tdpt.TdptSpec(0, 1, 1, 1)
        fns = [tdpt.confluent(spec).state(k).eval_x for k in range(7)]
        vals, _ = verify.gram_matrix(fns, *tdpt.GRAM_INTERVAL)
        assert verify.max_offdiagonal_relative(vals) < 1e-10

        ispec = isotonic.IsotonicSpec(1, 1)
        ifns = [
            (lambda x, f=isotonic.confluent(ispec).state(k): f.eval_x(x, 2.0))
            for k in (0, 2, 3, 4, 5)
        ]
        vals, _ = verify.gram_matrix(ifns, 0.0, math.inf)
        assert verify.max_offdiagonal_relative(vals) < 1e-10


def test_08_regularity_windows():
    with criterion(8, "regularity windows", 10):
        n, N, M = 0, 1, 1
        thr = tdpt.regularity_threshold(n, N, M)
        assert thr == Fraction(2, 3)
        rng = random.Random(77)
        for _ in range(50):
            lam = Fraction(rng.randint(-60, 60), rng.randint(1, 40)) * thr
            predicted = lam <= 0 or lam > thr
            assert predicted == tdpt.is_regular(n, N, M, lam)
            certified, _ = tdpt.certify_regularity(tdpt.TdptSpec(n, N, M, lam))
            assert certified == predicted, lam
        for n in range(6):
            for N in range(1, 5):
                ok, _ = isotonic.rootless_certificate(n, N)
                assert ok, (n, N)


def test_09_cross_representation_agreement():
    with criterion(9, "cross-representation agreement", 120):
        for n, N, M, lam in ((0, 1, 1, 1), (0, 2, 1, 1), (1, 1, 1, -1)):
            spec = tdpt.TdptSpec(n, N, M, lam)
            exact = tdpt.extended_potential(spec).v
            seed, v = chains.tdpt_seed(n, N, M)
            vt, _ = chains.confluent_two_step(seed, v, float(lam))
            for x in np.linspace(0.15, math.pi / 2 - 0.15, 20):
                rel = abs(vt(x) - exact(x)) / max(1.0, abs(exact(x)))
                assert rel < 1e-9, (spec, x)
        omega = 2.0
        for n, N in ((0, 1), (1, 1), (1, 2)):
            ispec = isotonic.IsotonicSpec(n, N)
            pot = isotonic.extended_potential(ispec)
            seed, v = chains.isotonic_seed(n, N, omega)
            vt, _ = chains.confluent_two_step(seed, v, 0.0)
            for x in np.linspace(0.25, 2.4, 20):
                rel = abs(vt(x) - pot.v(x, omega)) / max(1.0, abs(pot.v(x, omega)))
                assert rel < 1e-9, (ispec, x)
        for n, N, M in ((0, 1, 1), (1, 2, 1)):
            seed, v = chains.tdpt_seed(n, N, M)
            xs = np.linspace(0.3, 1.2, 10)
            pot_rel, w_rel = chains.matveev_cross_check(
                seed, v, xs, math.pi / 2 - 1e-3
            )
            assert pot_rel < 1e-6, (n, N, M)
            assert w_rel < 1e-5, (n, N, M)


def test_10_type2_equivalence():
    with criterion(10, "negative-parameter equivalence", 5):
        for N in range(1, 9):
            assert isotonic.n0_type2_proportional(N), N
            ratio = isotonic.n0_type2_ratio(N)
            want = Fraction((-1) ** (N + 1) * math.factorial(N))
            assert ratio == want
        omega = 2.0
        for N in range(1, 5):
            pot = isotonic.extended_potential(isotonic.IsotonicSpec(0, N))
            partner = isotonic.n0_type2_partner_units(N)
            for x in np.linspace(0.4, 2.2, 10):
                z = omega * x * x / 2
                got = pot.v(x, omega)
                want = omega * float(partner(z))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (N, x)


@pytest.mark.parametrize("argv", [
    "tdpt verify --suite ode --N 3 --M 2 --lambda1 1 --kmax 6 --n 13",
    "tdpt verify --suite ode --N 3 --M 2 --lambda1 1 --kmax 6 --n 24",
    "isotonic verify --suite ode --N 3 --kmax 6 --n 16",
    "isotonic verify --suite ode --N 3 --kmax 6 --n 30",
])
def test_11_degree_frontier(capsys, argv):
    # the exact Schroedinger identities at degrees past the benchmark pool's
    with criterion(11, "degree frontier", 10):
        assert cli.main(argv.split()) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"fail": 0, "pass": 1, "skip": 0}
    assert [c["status"] for c in report["checks"]] == ["pass"]
