"""The suite checks of the manifest, which `reports` imports at the first
lookup of a check id.

Each `@_check` body registers itself in `reports.MANIFEST`; definition
order is suite order.  A suite check of an invariant that a per-spec
check states calls that check: `tdpt.regularity` and `tdpt.shape` on each
sampled spec; the `orthogonality` and `spectrum` checks of both families
and `isotonic.residuals` on fixed specs.  `isotonic.rootless` and
`isotonic.ode-identity` each state part of what `q-crosscheck` states, on
a grid of (n, N), and keep their own bodies.  An import-time assertion
keeps the suite complete against `REQUIRED_INVARIANTS`, and the
`cli.manifest` check re-verifies that at run time.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from . import chains, classical, exactalg, isotonic, reports, tdpt, verify
from .exactalg import ExactPoly, RadialGauged, RationalFn, TrigGauged
from .reports import (GRID_N, KMAX, MANIFEST, OMEGA, _check, _clear_constructor_caches,
                      _fmt, _ode, _offdiagonal, _ortho, _spectrum, _tdpt_regularity,
                      _tdpt_shape)


# -- exactalg ---------------------------------------------------------------------


def _rand_poly(rng, max_deg=6):
    deg = rng.randint(0, max_deg)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg + 1)
    ]
    return ExactPoly(coeffs)


@_check(
    "exactalg.antiderivative",
    "antiderivative anchored at a point differentiates back exactly",
)
def _check_exactalg_antiderivative():
    rng = random.Random(11)
    for i in range(25):
        p = _rand_poly(rng)
        lower = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        a = p.antiderivative(lower=lower)
        if a.derivative() != p:
            return False, {"cases": 25}, f"derivative mismatch at case {i}"
        if a(lower) != 0:
            return False, {"cases": 25}, f"anchor value nonzero at case {i}"
    return True, {"cases": 25}, "round trip exact on 25 seeded polynomials"


@_check(
    "exactalg.sturm", "Sturm root counts match constructed root sets up to degree 12"
)
def _check_exactalg_sturm():
    rng = random.Random(12)
    for i in range(20):
        k = rng.randint(1, 6)
        roots = sorted(
            rng.sample([Fraction(j, 3) for j in range(-12, 13)], k)
        )
        p = ExactPoly.one()
        for r in roots:
            p = p * ExactPoly([-r, 1])
        extra = 12 - p.degree()
        if extra >= 2:
            # pad with a rootless even factor to reach higher degree
            p = p * ExactPoly([1, 0, 1]) ** (extra // 2)
        lo, hi = Fraction(-5), Fraction(5)
        want = sum(1 for r in roots if lo < r < hi)
        got = exactalg.count_roots(p, lo, hi)
        if got != want:
            return (
                False,
                {"cases": 20, "max_degree": 12},
                f"case {i}: counted {got}, constructed {want}",
            )
    return True, {"cases": 20, "max_degree": 12}, "counts match constructions"


def _coprime(a: ExactPoly, b: ExactPoly) -> bool:
    """Coprimality by Euclid's algorithm over Q, a route independent of
    `ExactPoly.gcd`."""
    while not b.is_zero:
        a, b = b, a % b
    return a.degree() == 0


@_check(
    "exactalg.coprime",
    "rational-function arithmetic keeps numerator and denominator coprime",
)
def _check_exactalg_coprime():
    rng = random.Random(13)
    for i in range(20):
        f = RationalFn(_rand_poly(rng, 4), _rand_poly(rng, 3) + 1)
        g = RationalFn(_rand_poly(rng, 3), _rand_poly(rng, 4) + 1)
        # f * f.den must cancel f's whole denominator
        for h in (f + g, f * g, f - g, f * f.den):
            if h.num.is_zero:
                continue
            if not _coprime(h.num, h.den):
                return False, {"cases": 20}, f"common factor survives at case {i}"
            if h.den.lc() != 1:
                return False, {"cases": 20}, f"denominator not monic at case {i}"
    return True, {"cases": 20}, "results stay coprime with monic denominators"


@_check(
    "exactalg.wronskian",
    "Wronskian is antisymmetric, vanishes on repeats and matches its closed form",
)
def _check_exactalg_wronskian():
    base = classical.TrigPoschlTeller(1, 2)
    f, g = base.eigenstate(0), base.eigenstate(2)
    if exactalg.wronskian([f, g]) != -1 * exactalg.wronskian([g, f]):
        return False, {}, "pair Wronskian not antisymmetric"
    if not exactalg.wronskian([f, f]).is_zero:
        return False, {}, "Wronskian of a repeated function is nonzero"
    # the two properties above hold for any x-derivative; the closed forms
    # W(psi_n, psi_k) = -(1-z)^(N+1) (1+z)^(M+1) P_nk and sqrt(2w) z^(N+1)
    # e^(-z) L_nk, the confluent construction's route, test each d_dx
    N, M = base.N, base.M
    radial = classical.IsotonicOscillator(2)
    for n, k in ((0, 1), (0, 2), (1, 3)):
        p_nk, l_nk = tdpt.wronskian_pair_poly(n, N, M, k), isotonic.l_nk(n, 2, k)
        for b, want in ((base, TrigGauged(N + 1, M + 1, RationalFn(-p_nk))),
                        (radial, RadialGauged(3, -2, 1, RationalFn(l_nk)))):
            if exactalg.wronskian([b.eigenstate(n), b.eigenstate(k)]) != want:
                what = f"W(psi_{n}, psi_{k}) of {type(b).__name__}"
                return False, {}, f"{what} differs from its closed form"
    return True, {}, "antisymmetry and degeneracy hold"


# -- classical --------------------------------------------------------------------


@_check(
    "classical.jacobi-ode",
    "Jacobi polynomials solve their differential equation exactly",
)
def _check_classical_jacobi_ode():
    for n in range(9):
        for a in range(1, 5):
            for b in range(1, 5):
                p = classical.jacobi(n, a, b)
                dp, ddp = p.derivative(), p.derivative().derivative()
                lhs = (
                    ExactPoly([1, 0, -1]) * ddp
                    + ExactPoly([b - a, -(a + b + 2)]) * dp
                    + Fraction(n * (n + a + b + 1)) * p
                )
                if not lhs.is_zero:
                    return (
                        False,
                        {"n_max": 8, "param_max": 4},
                        f"residual nonzero at (n,a,b)=({n},{a},{b})",
                    )
    return True, {"n_max": 8, "param_max": 4}, "all residuals identically zero"


@_check(
    "classical.laguerre-ode",
    "Laguerre polynomials solve their differential equation exactly",
)
def _check_classical_laguerre_ode():
    for n in range(9):
        for a in range(-4, 5):
            p = classical.laguerre(n, a)
            dp, ddp = p.derivative(), p.derivative().derivative()
            lhs = (
                ExactPoly([0, 1]) * ddp
                + ExactPoly([a + 1, -1]) * dp
                + Fraction(n) * p
            )
            if not lhs.is_zero:
                return (
                    False,
                    {"n_max": 8, "alpha_range": [-4, 4]},
                    f"residual nonzero at (n,alpha)=({n},{a})",
                )
    return True, {"n_max": 8, "alpha_range": [-4, 4]}, "all residuals identically zero"


@_check(
    "classical.derivatives",
    "derivative identities shift the polynomial parameters exactly",
)
def _check_classical_derivatives():
    for n in range(1, 7):
        for a in range(1, 4):
            for b in range(1, 4):
                want = Fraction(n + a + b + 1, 2) * classical.jacobi(
                    n - 1, a + 1, b + 1
                )
                if classical.jacobi(n, a, b).derivative() != want:
                    return False, {}, f"Jacobi derivative at ({n},{a},{b})"
        for a in range(-3, 4):
            want = -1 * classical.laguerre(n - 1, a + 1)
            if classical.laguerre(n, a).derivative() != want:
                return False, {}, f"Laguerre derivative at ({n},{a})"
    return True, {}, "derivative identities exact"


@_check(
    "classical.orthogonality",
    "bound states of both base potentials are numerically orthogonal",
)
def _check_classical_orthogonality():
    spec = {"family": "trigonometric", "levels": 5, "tolerance": 1e-12}
    trig, radial = (
        _offdiagonal([base.eigenstate(k) for k in range(5)])[1]
        for base in (classical.TrigPoschlTeller(2, 1), classical.IsotonicOscillator(2))
    )
    if not trig < 1e-12:
        return False, spec, f"off-diagonal mass {_fmt(trig)}"
    if not radial < 1e-12:
        return False, spec, f"radial off-diagonal mass {_fmt(radial)}"
    return True, spec, f"off-diagonal mass {_fmt(max(trig, radial))}"


# -- tdpt -------------------------------------------------------------------------


@_check(
    "tdpt.monotone", "cumulative-norm polynomial is exactly monotone on the interval"
)
def _check_tdpt_monotone():
    for n in range(4):
        for N in range(1, 4):
            for M in range(1, 4):
                q = tdpt.q_poly(n, N, M)
                p = classical.jacobi(n, N, M)
                want = (
                    ExactPoly([1, -1]) ** N
                    * ExactPoly([1, 1]) ** M
                    * p
                    * p
                    * Fraction(-1, 2)
                )
                if q.derivative() != want:
                    return False, {}, f"derivative form at ({n},{N},{M})"
    return True, {}, "Q' is minus half the squared-state weight, exactly"


@_check("tdpt.endpoints", "cumulative-norm endpoint values match the closed forms")
def _check_tdpt_endpoints():
    for n in range(6):
        for N in range(1, 5):
            for M in range(1, 5):
                q = tdpt.q_poly(n, N, M)
                if q(Fraction(-1)) != 0:
                    return False, {}, f"Q(-1) != 0 at ({n},{N},{M})"
                if q(Fraction(1)) != tdpt.q_at_one(n, N, M):
                    return False, {}, f"Q(1) mismatch at ({n},{N},{M})"
    return True, {"n_max": 5, "param_max": 4}, "endpoint values exact"


@_check("tdpt.orthogonality", "extension bound states are orthogonal under quadrature")
def _check_tdpt_orthogonality():
    results = [
        _ortho(spec, 6, GRID_N, None)
        for spec in (tdpt.TdptSpec(0, 1, 1, 1), tdpt.TdptSpec(1, 2, 1, -2))
    ]
    return (
        all(ok for ok, _, _ in results),
        {"specs": [params for _, params, _ in results]},
        "; ".join(witness for _, _, witness in results),
    )


@_check("tdpt.shape", "enlarged shape-invariance identity holds exactly on 27 cases")
def _check_tdpt_shape():
    for n in (1, 2, 3):
        for N in (1, 2, 3):
            for M in (1, 2, 3):
                spec = tdpt.TdptSpec(n, N, M, Fraction(5, 3))
                ok, _, _ = _tdpt_shape(spec, KMAX, GRID_N, None)
                if not ok:
                    return False, {}, f"residual nonzero at ({n},{N},{M})"
    broken, _, _ = tdpt.shape_invariance_residual(1, 1, 1, 1, c_factor=2)
    if broken.is_zero:
        return False, {}, "negative control did not break the identity"
    return True, {"cases": 27}, "identity exact on 27 cases, control breaks it"


@_check("tdpt.regularity", "regularity predicate agrees with the Sturm certificate")
def _check_tdpt_regularity():
    rng = random.Random(20240818)
    for n, N, M in [(0, 1, 1), (1, 1, 1), (2, 2, 1), (1, 2, 3)]:
        thr = tdpt.regularity_threshold(n, N, M)
        for _ in range(50):
            lam = Fraction(rng.randint(-60, 60), rng.randint(1, 40)) * thr
            spec = tdpt.TdptSpec(n, N, M, lam)
            ok, _, witness = _tdpt_regularity(spec, KMAX, GRID_N, None)
            if not ok:
                return (
                    False,
                    {"samples": 50},
                    f"disagreement at ({n},{N},{M}), lambda1={lam}: {witness}",
                )
    return True, {"samples": 50}, "predicate and certificate agree"


@_check("tdpt.window", "shifted integration constant keeps its regularity regime")
def _check_tdpt_window():
    rng = random.Random(7)
    for n, N, M in [(1, 1, 1), (2, 1, 2), (3, 2, 2)]:
        thr = tdpt.regularity_threshold(n, N, M)
        if tdpt.lambda1_shifted(n, N, M, thr) != tdpt.regularity_threshold(
            n - 1, N + 1, M + 1
        ):
            return False, {}, f"threshold mismatch at ({n},{N},{M})"
        for _ in range(25):
            lam = Fraction(rng.randint(-50, 50), rng.randint(1, 30)) * thr
            if tdpt.is_regular(n, N, M, lam) != tdpt.is_regular(
                n - 1, N + 1, M + 1, tdpt.lambda1_shifted(n, N, M, lam)
            ):
                return False, {}, f"regime flip at ({n},{N},{M}), lambda1={lam}"
    return True, {"samples": 25}, "shifted constant keeps its regularity regime"


@_check("tdpt.spectrum", "extension spectrum is numerically unchanged")
def _check_tdpt_spectrum():
    return _spectrum(tdpt.TdptSpec(0, 1, 1, 1), KMAX, GRID_N, None)


# -- isotonic ---------------------------------------------------------------------


@_check(
    "isotonic.ode-identity", "both construction routes solve the first-order identity"
)
def _check_isotonic_ode_identity():
    for n in range(5):
        for N in range(1, 5):
            q = isotonic.q_poly(n, N)
            ln = classical.laguerre(n, N)
            if q.derivative() - q != ExactPoly([0, 1]) ** N * ln * ln:
                return False, {}, f"ODE identity fails at ({n},{N})"
            if q != isotonic.q_poly_via_ode(n, N):
                return False, {}, f"construction routes split at ({n},{N})"
    return True, {"n_max": 4, "N_max": 4}, "both routes solve Q' - Q = z^N L^2"


@_check(
    "isotonic.endpoints", "cumulative-norm value at the origin matches the closed form"
)
def _check_isotonic_endpoints():
    for n in range(6):
        for N in range(1, 5):
            if isotonic.q_poly(n, N)(Fraction(0)) != isotonic.q_at_zero(n, N):
                return False, {}, f"Q(0) mismatch at ({n},{N})"
    return True, {"n_max": 5, "N_max": 4}, "Q(0) = -(n+N)!/n! exact"


@_check("isotonic.rootless", "denominator polynomial has no roots on the half line")
def _check_isotonic_rootless():
    for n in range(6):
        for N in range(1, 5):
            ok, witness = isotonic.rootless_certificate(n, N)
            if not ok:
                return (
                    False,
                    {"n_max": 5, "N_max": 4},
                    f"root certified at ({n},{N}): {witness}",
                )
    return True, {"n_max": 5, "N_max": 4}, "no roots on the half line"


@_check(
    "isotonic.orthogonality", "surviving bound states are orthogonal under quadrature"
)
def _check_isotonic_orthogonality():
    return _ortho(isotonic.IsotonicSpec(1, 1), 5, GRID_N, OMEGA)


@_check(
    "isotonic.residuals",
    "extension states satisfy the exact equation, deleted state included",
)
def _check_isotonic_residuals():
    return _ode(isotonic.IsotonicSpec(1, 1), 3, GRID_N, None)


@_check(
    "isotonic.boundary", "extension states vanish at the origin with the right exponent"
)
def _check_isotonic_boundary():
    spec = isotonic.IsotonicSpec(1, 1)
    for k in (0, 2, 3):
        f = isotonic.confluent(spec).state(k)
        vals = [abs(f.eval_x(x, 2.0)) for x in (0.01, 0.001)]
        slope = math.log10(vals[0] / vals[1])
        if not 1.4 < slope < 1.6:
            return False, {}, f"boundary exponent off at level {k}: {slope}"
    return True, {"spec": spec.as_dict()}, "states vanish at the origin as x^(3/2)"


@_check(
    "isotonic.spectrum", "extension spectrum equals the punctured ladder numerically"
)
def _check_isotonic_spectrum():
    return _spectrum(isotonic.IsotonicSpec(1, 1), KMAX, GRID_N, OMEGA)


# -- chains -----------------------------------------------------------------------


@_check("chains.inverse", "reciprocal-seed step undoes a one-step transform")
def _check_chains_inverse():
    import numpy as np

    seed, v = chains.tdpt_seed(0, 1, 1)
    v1, _ = chains.dbt_apply(seed, v)
    inverse = chains.SeedFunction(
        f=lambda x: 1.0 / seed.f(x),
        df=lambda x: -seed.df(x) / seed.f(x) ** 2,
        energy=seed.energy,
        x0=seed.x0,
    )
    v0, _ = chains.dbt_apply(inverse, v1)
    worst = verify.worst(abs(v0(x) - v(x)) for x in np.linspace(0.1, 1.4, 12))
    return (
        worst < 1e-9,
        {"tolerance": 1e-9},
        f"max recovery deviation {_fmt(worst)}",
    )


@_check("chains.energy", "two-step state map preserves the mapped energy")
def _check_chains_energy():
    import numpy as np

    seed, v = chains.tdpt_seed(0, 1, 1)
    vt, transform = chains.confluent_two_step(seed, v, 1.0)
    base = classical.TrigPoschlTeller(1, 1)
    g = base.eigenstate(1)
    e1 = float(base.energy(1))
    gt = transform(g.eval_x, g.d_dx().eval_x, e1)
    xs, h = np.array([0.5, 0.9]), 1e-2
    # the 5-point stencil around each x, one row per offset
    g5 = gt((xs + h * np.arange(-2, 3)[:, None]).ravel()).reshape(5, -1)
    dd = (-g5[0] + 16 * g5[1] - 30 * g5[2] + 16 * g5[3] - g5[4]) / (12 * h * h)
    lhs, eg = -dd + vt(xs) * g5[2], e1 * g5[2]
    worst = verify.worst(np.abs(lhs - eg) / np.maximum(np.abs(eg), 1.0))
    return (
        worst < 1e-6,
        {"tolerance": 1e-6},
        f"max relative residual {_fmt(worst)}",
    )


@_check("chains.scaling", "seed rescaling with matched constant is a gauge move")
def _check_chains_scaling():
    import numpy as np

    seed, v = chains.tdpt_seed(0, 1, 1)
    vt, _ = chains.confluent_two_step(seed, v, 1.0)
    vt2, _ = chains.confluent_two_step(chains.scaled_seed(seed, 3.0), v, 9.0)
    xs = np.array([0.2, 0.6, 1.0, 1.4])
    worst = verify.worst(np.abs(vt(xs) - vt2(xs)))
    return (
        worst < 1e-10,
        {"scale": 3.0, "tolerance": 1e-10},
        f"max deviation {_fmt(worst)}",
    )


# -- verify -----------------------------------------------------------------------


@_check("verify.linearity", "exact residual operator is additive")
def _check_verify_linearity():
    base = classical.TrigPoschlTeller(2, 1)
    vz = base.v_zform()
    e = base.energy(1)
    f = base.eigenstate(1)
    g = TrigGauged(f.a, f.b, RationalFn(ExactPoly([1, -2, 3])))
    residual = exactalg.exact_ode_residual
    lhs = residual(f + g, vz, e)
    rhs = residual(f, vz, e) + residual(g, vz, e)
    if lhs != rhs:
        return False, {}, "residual is not additive"
    return True, {}, "residual additive over gauged sums"


@_check("verify.order", "finite-difference eigenvalues converge at second order")
def _check_verify_order():
    r1 = verify.convergence_order_ratio(
        classical.TrigPoschlTeller(1, 1).v, *tdpt.window(1.0, 0), grid_n=1000
    )
    iso = classical.IsotonicOscillator(1)
    lo, hi = isotonic.window(2.0, 4)  # up to E = 16
    r2 = verify.convergence_order_ratio(
        lambda x: iso.v(x, 2.0), lo, hi, grid_n=1000
    )
    ok = 3.6 < r1 < 4.4 and 3.6 < r2 < 4.4
    return (
        ok,
        {"window": [3.6, 4.4]},
        f"ratios {_fmt(r1)}, {_fmt(r2)}",
    )


@_check("verify.gram", "Gram diagonals positive, off-diagonals at the quadrature floor")
def _check_verify_gram():
    import numpy as np

    fns = [lambda x, k=k: np.sin(k * x) for k in (1, 2, 3)]
    vals, results = verify.gram_matrix(fns, 0.0, math.pi)
    stalled = [
        (j, k) for j in range(3) for k in range(j, 3) if not results[j][k].converged
    ]
    if stalled:
        return False, {}, (
            f"quadrature did not converge on entries {stalled} "
            f"(subinterval cap {verify.QUAD_LIMIT})"
        )
    if any(vals[j][j] <= 0 for j in range(3)):
        return False, {}, "non-positive diagonal"
    worst = verify.max_offdiagonal_relative(vals)
    if worst >= 1e-12:
        return False, {}, f"off-diagonal mass {_fmt(worst)}"
    return True, {}, "diagonal positive, off-diagonal at quadrature floor"


# -- cli --------------------------------------------------------------------------


def _fast_subset_payload():
    ids = ["exactalg.antiderivative", "exactalg.coprime", "classical.derivatives"]
    results = [reports.run_check(i) for i in ids]
    return json.dumps(
        [
            {k: v for k, v in r._asdict().items() if k != "elapsed_ms"}
            for r in results
        ],
        sort_keys=True,
    )


@_check(
    "cli.determinism",
    "a cold and a warm run of the same checks serialize byte-identically",
)
def _check_cli_determinism():
    # the first run builds every constructor afresh, the second reuses them
    _clear_constructor_caches()
    first = _fast_subset_payload()
    second = _fast_subset_payload()
    if first != second:
        return False, {}, "two runs of the same subset differ"
    return True, {"subset_size": 3}, "repeated runs byte-identical"


@_check("cli.manifest", "manifest covers every required invariant exactly once")
def _check_cli_manifest():
    ids = [c.check_id for c in MANIFEST]
    missing = [i for i in REQUIRED_INVARIANTS if i not in ids]
    if missing:
        return False, {}, f"manifest missing {missing}"
    if len(set(ids)) != len(ids):
        return False, {}, "duplicate check ids"
    if any(not c.description for c in MANIFEST):
        return False, {}, "empty description"
    return (
        True,
        {"checks": len(ids), "required": len(REQUIRED_INVARIANTS)},
        "manifest covers every required invariant",
    )


# -- registry ---------------------------------------------------------------------

# every required id must be registered; the suite may hold more
REQUIRED_INVARIANTS = (
    "exactalg.antiderivative",
    "exactalg.sturm",
    "exactalg.coprime",
    "exactalg.wronskian",
    "classical.jacobi-ode",
    "classical.laguerre-ode",
    "classical.derivatives",
    "classical.orthogonality",
    "tdpt.monotone",
    "tdpt.endpoints",
    "tdpt.orthogonality",
    "tdpt.shape",
    "tdpt.regularity",
    "tdpt.window",
    "isotonic.ode-identity",
    "isotonic.endpoints",
    "isotonic.rootless",
    "isotonic.orthogonality",
    "isotonic.residuals",
    "isotonic.boundary",
    "chains.inverse",
    "chains.energy",
    "chains.scaling",
    "verify.linearity",
    "verify.order",
    "verify.gram",
    "cli.determinism",
    "cli.manifest",
)


_missing = [i for i in REQUIRED_INVARIANTS if i not in {c.check_id for c in MANIFEST}]
assert not _missing, f"manifest incomplete: {_missing}"
