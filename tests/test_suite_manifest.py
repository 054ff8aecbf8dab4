import json
import math
import re
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

# importing `suite` registers its checks in reports.MANIFEST
from confluent_dbt import chains, classical, exactalg, isotonic, reports, suite, tdpt, verify


REQUIRED = set(suite.REQUIRED_INVARIANTS)


def test_manifest_covers_required_invariants():
    ids = [c.check_id for c in reports.MANIFEST]
    assert len(ids) == len(set(ids))
    assert REQUIRED <= set(ids)


def test_manifest_rows_well_formed():
    for check in reports.MANIFEST:
        check_id, description = check.check_id, check.description
        assert check_id.split(".")[0] == check.module
        assert description.strip()
        # ids are lowercase dotted slugs
        assert re.fullmatch(r"[a-z0-9]+\.[a-z0-9-]+", check_id)


def test_manifest_modules_cover_all_layers():
    modules = {c.module for c in reports.MANIFEST}
    assert modules == {
        "exactalg", "classical", "tdpt", "isotonic", "chains", "verify", "cli",
    }


# (check_id, module, description) in suite order, recorded before each
# check was registered where it is defined
PINNED_ROWS = [
    ("exactalg.antiderivative", "exactalg",
     "antiderivative anchored at a point differentiates back exactly"),
    ("exactalg.sturm", "exactalg",
     "Descartes root counts match constructed root sets up to degree 12"),
    ("exactalg.coprime", "exactalg",
     "rational-function arithmetic keeps numerator and denominator coprime"),
    ("exactalg.wronskian", "exactalg",
     "Wronskian is antisymmetric, vanishes on repeats and matches its closed form"),
    ("classical.jacobi-ode", "classical",
     "Jacobi polynomials solve their differential equation exactly"),
    ("classical.laguerre-ode", "classical",
     "Laguerre polynomials solve their differential equation exactly"),
    ("classical.derivatives", "classical",
     "derivative identities shift the polynomial parameters exactly"),
    ("classical.orthogonality", "classical",
     "bound states of both base potentials are numerically orthogonal"),
    ("tdpt.monotone", "tdpt",
     "cumulative-norm polynomial is exactly monotone on the interval"),
    ("tdpt.endpoints", "tdpt",
     "cumulative-norm endpoint values match the closed forms"),
    ("tdpt.orthogonality", "tdpt",
     "extension bound states are orthogonal under quadrature"),
    ("tdpt.shape", "tdpt",
     "enlarged shape-invariance identity holds exactly on 27 cases"),
    ("tdpt.regularity", "tdpt",
     "regularity predicate agrees with the Descartes certificate"),
    ("tdpt.window", "tdpt",
     "shifted integration constant keeps its regularity regime"),
    ("tdpt.spectrum", "tdpt",
     "extension spectrum is numerically unchanged"),
    ("isotonic.ode-identity", "isotonic",
     "both construction routes solve the first-order identity"),
    ("isotonic.endpoints", "isotonic",
     "cumulative-norm value at the origin matches the closed form"),
    ("isotonic.rootless", "isotonic",
     "denominator polynomial has no roots on the half line"),
    ("isotonic.orthogonality", "isotonic",
     "surviving bound states are orthogonal under quadrature"),
    ("isotonic.residuals", "isotonic",
     "extension states satisfy the exact equation, deleted state included"),
    ("isotonic.boundary", "isotonic",
     "extension states vanish at the origin with the right exponent"),
    ("isotonic.spectrum", "isotonic",
     "extension spectrum equals the punctured ladder numerically"),
    ("chains.inverse", "chains",
     "reciprocal-seed step undoes a one-step transform"),
    ("chains.energy", "chains",
     "two-step state map preserves the mapped energy"),
    ("chains.scaling", "chains",
     "seed rescaling with matched constant is a gauge move"),
    ("verify.linearity", "verify",
     "exact residual operator is additive"),
    ("verify.order", "verify",
     "finite-difference eigenvalues converge at second order"),
    ("verify.gram", "verify",
     "Gram diagonals positive, off-diagonals at the quadrature floor"),
    ("cli.determinism", "cli",
     "a cold and a warm run of the same checks serialize byte-identically"),
    ("cli.manifest", "cli",
     "manifest covers every required invariant exactly once"),
]


def test_manifest_rows_pinned():
    rows = [(c.check_id, c.module, c.description) for c in reports.MANIFEST]
    assert rows == PINNED_ROWS
    assert {family: list(checks) for family, checks in reports.SPEC_CHECKS.items()} == {
        "tdpt": ["regularity", "ode", "ortho", "shape", "spectrum"],
        "isotonic": ["q-crosscheck", "ode", "ortho", "shape", "n0-type2",
                     "n0-negative", "spectrum"],
    }


@pytest.mark.parametrize("check_id,key", [
    (f"{family}.{name}", key) for family, checks in reports.SPEC_CHECKS.items()
    for name in checks for key in ("kmax", "grid_n", "omega")
])
def test_per_spec_check_declares_the_inputs_it_reads(check_id, key):
    # an input is read when another value of it changes the result, the
    # input itself echoed in the report's spec aside; the CLI refuses what
    # `reads` leaves out
    family, name = check_id.split(".")
    spec = {"tdpt": tdpt.TdptSpec(1, 1, 1, 1), "isotonic": isotonic.IsotonicSpec(1, 1)}
    body = partial(reports.SPEC_CHECKS[family][name], spec[family])

    def result(**inputs):
        status, params, witness = body(**inputs)
        return status, {k: v for k, v in params.items() if k != key}, witness

    inputs = {"kmax": 3, "grid_n": 1000, "omega": Fraction(2)}
    other = dict(inputs, **{key: {"kmax": 4, "grid_n": 1200, "omega": Fraction(3)}[key]})
    read = key in reports.SPEC_CHECKS[family][name].reads
    assert (result(**inputs) != result(**other)) == read


@pytest.mark.parametrize("family,spec,omega", [
    ("tdpt", tdpt.TdptSpec(0, 1, 1, 1), None),
    ("isotonic", isotonic.IsotonicSpec(1, 1), Fraction(2)),
])
def test_spectrum_reports_carry_their_tolerance(family, spec, omega):
    (report,) = reports.run_spec_checks(
        family, ["spectrum"], spec, reports.KMAX, reports.GRID_N, omega
    )
    assert report.status == "pass"
    assert report.spec["tolerance"] == 1e-5


def test_run_single_check():
    report = reports.run_check("exactalg.antiderivative")
    assert report.status == "pass"
    assert report.check_id == "exactalg.antiderivative"
    assert isinstance(report.elapsed_ms, int)
    j = report._asdict()
    assert set(j) == {"check_id", "spec", "status", "witness", "elapsed_ms"}


def test_select_checks_forms():
    assert len(reports.select_checks("all")) == len(reports.MANIFEST)
    assert [c.check_id for c in reports.select_checks("classical")] == [
        "classical.jacobi-ode",
        "classical.laguerre-ode",
        "classical.derivatives",
        "classical.orthogonality",
    ]
    only = reports.select_checks("tdpt.window")
    assert len(only) == 1 and only[0].check_id == "tdpt.window"
    with pytest.raises(KeyError):
        reports.select_checks("nonsense")


def test_make_report_wraps_exceptions():
    def boom():
        raise RuntimeError("broken oracle")

    report = reports.make_report("x.y", boom)
    assert report.status == "fail"
    assert "broken oracle" in report.witness


def test_make_report_default_witness_on_fail():
    report = reports.make_report("x.y", lambda: (False, {}, ""))
    assert report.status == "fail"
    assert report.witness != ""


def test_make_report_accepts_skip_literal():
    report = reports.make_report("x.y", lambda: ("skip", {"why": 1}, "n/a"))
    assert report.status == "skip"


def strip_elapsed(payload):
    clean = json.loads(json.dumps(payload))
    for c in clean["checks"]:
        c.pop("elapsed_ms")
    return clean


def test_suite_runs_green_and_deterministic():
    first = reports.run_suite("all")
    second = reports.run_suite("all")
    assert first["counts"]["fail"] == 0
    assert first["failed"] == []
    assert len(first["checks"]) == len(reports.MANIFEST)
    # byte-identical modulo timing
    a = json.dumps(strip_elapsed(first), sort_keys=True)
    b = json.dumps(strip_elapsed(second), sort_keys=True)
    assert a == b


def test_suite_order_follows_manifest():
    payload = reports.run_suite("all")
    got = [c["check_id"] for c in payload["checks"]]
    assert got == [c.check_id for c in reports.MANIFEST]


def test_suite_module_subset():
    payload = reports.run_suite("verify")
    assert [c["check_id"] for c in payload["checks"]] == [
        "verify.linearity", "verify.order", "verify.gram",
    ]
    assert payload["schema"] == 1
    assert payload["selector"] == "verify"


# -- negative controls of the orthogonality body ---------------------------------

SPEC = tdpt.TdptSpec(1, 2, 1, Fraction(-2))


def assert_fails_with_witness(result):
    ok, params, witness = result
    assert not ok
    assert witness


def test_ortho_passes_on_the_eigenstates():
    states = [tdpt.confluent(SPEC).state(k) for k in range(4)]
    ok, params, witness = reports._orthogonal(states, {})
    assert ok and params["nodes"] == 80 and params["quadrature_error"] < 1e-12


def test_ortho_fails_on_a_non_orthogonal_pair():
    psi0, psi1 = (tdpt.confluent(SPEC).state(k) for k in (0, 1))
    assert_fails_with_witness(reports._orthogonal([psi0, psi0 + psi1], {}))
    iso = isotonic.IsotonicSpec(1, 1)
    phi0, phi2 = (isotonic.confluent(iso).state(k) for k in (0, 2))
    assert_fails_with_witness(reports._orthogonal([phi0, phi0 + phi2], {}, 2.0))


def test_ortho_fails_on_a_state_at_a_shifted_lambda1():
    shifted = tdpt.TdptSpec(SPEC.n, SPEC.N, SPEC.M, SPEC.lambda1 - 1)
    states = [tdpt.confluent(SPEC).state(0), tdpt.confluent(shifted).state(1)]
    assert_fails_with_witness(reports._orthogonal(states, {}))


def test_ortho_fails_on_a_nan_gram_entry(monkeypatch):
    real = verify.gauss_gram

    def with_nan(states, omega=1.0):
        gram = real(states, omega)
        values = gram.values.copy()
        values[0][1] = values[1][0] = math.nan
        return gram._replace(values=values)

    monkeypatch.setattr(verify, "gauss_gram", with_nan)
    states = [tdpt.confluent(SPEC).state(k) for k in range(3)]
    assert_fails_with_witness(reports._orthogonal(states, {}))


def test_ortho_fails_when_the_rule_stops_at_its_node_cap(monkeypatch):
    monkeypatch.setattr(
        verify, "gauss_gram", partial(verify.gauss_gram, max_nodes=80)
    )
    spec = isotonic.IsotonicSpec(1, 1)
    ok, params, witness = reports._ortho(spec, 3, reports.GRID_N, Fraction(2))
    assert not ok
    assert "node cap" in witness
    assert params["nodes"] == 80


# -- negative controls of the exact residual bodies ----------------------------------


def test_tdpt_ode_fails_on_the_potential_at_lambda1_minus_one(monkeypatch):
    real = tdpt.extended_potential
    monkeypatch.setattr(
        tdpt, "extended_potential",
        lambda spec: real(spec._replace(lambda1=spec.lambda1 - 1)),
    )
    assert_fails_with_witness(reports._ode(SPEC, 3, reports.GRID_N, None))


def test_isotonic_ode_fails_on_the_potential_for_n_plus_one(monkeypatch):
    real = isotonic.extended_potential
    monkeypatch.setattr(
        isotonic, "extended_potential",
        lambda spec: real(spec._replace(N=spec.N + 1)),
    )
    spec = isotonic.IsotonicSpec(1, 1)
    assert_fails_with_witness(reports._ode(spec, 3, reports.GRID_N, None))


def _correction_with_the_w_prime_term_flipped(self):
    """`Confluent.correction` with the sign of its P^2 D' term flipped:
    -2 [u P^2 D + v (2 P P' D + P^2 D')] / D^2."""
    psi, w = self.psi_n, self.w
    p, d = psi.rat.num, w.rat.num
    q = psi._replace(**{g: 2 * getattr(psi, g) - getattr(w, g) for g in w._GAUGE})
    u, v, lower = q._law()
    num = p * (u * p * d + v * (2 * p.derivative() * d + p * d.derivative()))
    return q._replace(rat=exactalg.RationalFn(num * -2, d * d), **lower)


@pytest.mark.parametrize("spec", [SPEC, isotonic.IsotonicSpec(1, 1)], ids=repr)
def test_ode_fails_on_a_correction_with_the_w_prime_term_flipped(monkeypatch, spec):
    # an error inside the construction's one formula, not a wrong spec
    body = partial(reports._ode, spec, 3, reports.GRID_N, None)
    assert body()[0]
    monkeypatch.setattr(
        exactalg.Confluent, "correction", _correction_with_the_w_prime_term_flipped
    )
    assert_fails_with_witness(body())


# -- negative controls of the manifest checks ------------------------------------------


def _permanent(mat):
    """The determinant's cofactor expansion with every sign +."""
    if len(mat) == 1:
        return mat[0][0]
    terms = [
        mat[0][j] * _permanent([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
    ]
    return sum(terms[1:], terms[0])


def _wrong_binomial_top_term(real):
    """ExactPoly powers whose top term is doubled for linear bases and k >= 2."""

    def wrong(self, k):
        out = real(self, k)
        if k >= 2 and self.degree() == 1:
            out = out + exactalg.ExactPoly([0] * k + [out.lc()])
        return out

    return wrong


def _seed_at_shifted_energy(real):
    def shifted(n, N, M):
        seed, v = real(n, N, M)
        return seed._replace(energy=seed.energy + 0.5), v

    return shifted


def _wrong_when_cached(real):
    """A memoized constructor behind a wrapper that adds one to every value
    its cache returns, so a warm run differs from a cold one; the cache is
    emptied through the wrapper's `__wrapped__`."""

    def wrong(*args):
        hits = real.cache_info().hits
        value = real(*args)
        return value + 1 if real.cache_info().hits > hits else value

    wrong.__wrapped__ = real
    return wrong


def _gram_off_diagonal(real):
    """gram_matrix with 1e-6 added to its (0, 1) entry."""

    def perturbed(fns, lo, hi):
        vals, results = real(fns, lo, hi)
        vals = vals.copy()
        vals[0][1] += 1e-6
        return vals, results

    return perturbed


def _states_replaced(state):
    """A control on `confluent`: the construction of a spec answers
    `state(k)` with state(the real confluent, spec, k), and nothing else,
    so the potential, which `extended_potential` takes from the real
    construction, stays unperturbed."""

    def make(real):
        return lambda spec: SimpleNamespace(state=lambda k: state(real, spec, k))

    return make


def _partner_adding_v(real):
    """dbt_apply whose partner potential adds V where it subtracts it (an
    error in the squared log-derivative or in the energy would cancel
    between a step and its inverse)."""

    def wrong(seed, v):
        v1, transform = real(seed, v)
        return (lambda x: v1(x) + 2.0 * v(x)), transform

    return wrong


# check id[:control] -> (owner, name, make[, witness]): the control replaces
# the attribute name of owner (a module or class) with make(the real one),
# and the check must fail, with the given witness where one is given.  The memoized constructors are emptied before the
# patch and after it is undone, so no value built under it survives.
# `verify` loads at its first use, so its rows also show that a patch on
# the lazily loaded module reaches the checks
MANIFEST_CONTROLS = {
    # a Descartes sign-variation count one too low (never below zero)
    "exactalg.sturm": (exactalg, "_variations", lambda real: (
        lambda c: max(real(c) - 1, 0)
    ), "case 0: counted 2, constructed 4"),
    # a gcd that finds no common factor
    "exactalg.coprime": (exactalg.ExactPoly, "gcd", lambda real: (
        lambda self, other: exactalg.ExactPoly.one()
    )),
    # powers of linear factors with a wrong top term
    "classical.jacobi-ode": (exactalg.ExactPoly, "__pow__", _wrong_binomial_top_term),
    "classical.derivatives": (exactalg.ExactPoly, "__pow__", _wrong_binomial_top_term),
    "tdpt.shape": (exactalg.ExactPoly, "__pow__", _wrong_binomial_top_term),
    # a Gauss rule that never converges: its NaN off-diagonal passes no test
    "classical.orthogonality": (verify, "gauss_gram", lambda real: (
        lambda states, omega=1.0: real(states, omega)._replace(converged=False)
    ), "off-diagonal mass nan"),
    # a cumulative norm whose derivative is off by one
    "tdpt.monotone": (tdpt, "q_poly", lambda real: (
        lambda n, N, M: real(n, N, M) + exactalg.ExactPoly([0, 1])
    )),
    # a closed form of Q(1) off by one
    "tdpt.endpoints": (tdpt, "q_at_one", lambda real: (
        lambda n, N, M: real(n, N, M) + 1
    )),
    # a shifted integration constant twice too large
    "tdpt.window": (tdpt, "lambda1_shifted", lambda real: (
        lambda *args: 2 * real(*args)
    )),
    # a seed at an energy shifted by 1/2
    "chains.energy": (chains, "tdpt_seed", _seed_at_shifted_energy),
    # a rescaled state whose constant is not rescaled with it
    "chains.scaling": (chains, "scaled_seed", lambda real: (
        lambda seed, c: seed._replace(f=lambda x: c * seed.f(x))
    )),
    # the residual of psi squared: a nonlinear operator
    "verify.linearity": (exactalg, "exact_ode_residual", lambda real: (
        lambda f, v, e: real(f * f, v, e)
    )),
    # a first-order scheme: the error halves with the step
    "verify.order": (verify, "convergence_order_ratio", lambda real: (
        lambda *args, **kwargs: 2.0
    )),
    # one off-diagonal entry off by 1e-6
    "verify.gram": (verify, "gram_matrix", _gram_off_diagonal),
    # Wronskian rows from the merged d_dx, expanded without the cofactor
    # signs: antisymmetry and vanishing on repeats hold for any derivative,
    # so only the expansion can break them
    "exactalg.wronskian": (exactalg, "_det", lambda real: _permanent),
    # a wrong x-derivative, u + 1 and 3 w in r -> u r + w r': only the
    # closed form can catch it
    "exactalg.wronskian:d_dx": (exactalg.TrigGauged, "_law", lambda real: (
        lambda self: (lambda u, w, lower: (u + 1, 3 * w, lower))(*real(self))
    )),
    # the same wrong derivative for the radial family: only the isotonic
    # closed form can catch it
    "exactalg.wronskian:radial_d_dx": (exactalg.RadialGauged, "_law", lambda real: (
        lambda self: (lambda u, w, lower: (u + 1, 3 * w, lower))(*real(self))
    ), "W(psi_0, psi_1) of IsotonicOscillator differs from its closed form"),
    # an antiderivative off by z, so its derivative is off by one
    "exactalg.antiderivative": (exactalg.ExactPoly, "antiderivative", lambda real: (
        lambda self, lower=None: real(self, lower) + exactalg.ExactPoly([0, 1])
    ), "derivative mismatch at case 0"),
    # a Laguerre constructor with its parameter off by one
    "classical.laguerre-ode": (classical, "laguerre", lambda real: (
        lambda n, alpha: real(n, alpha + 1)
    ), "residual nonzero at (n,alpha)=(1,-4)"),
    # a cumulative norm off by one
    "isotonic.ode-identity": (isotonic, "q_poly", lambda real: (
        lambda n, N: real(n, N) + 1
    ), "ODE identity fails at (0,1)"),
    # a closed form of Q(0) off by one
    "isotonic.endpoints": (isotonic, "q_at_zero", lambda real: (
        lambda n, N: real(n, N) + 1
    ), "Q(0) mismatch at (0,1)"),
    # a cumulative norm with a root at z = 1
    "isotonic.rootless": (isotonic, "q_poly", lambda real: (
        lambda n, N: real(n, N) * exactalg.ExactPoly([-1, 1])
    ), "root certified at (0,1): [('0', '2')]"),
    # states with a half power of z too many: x^(5/2) at the origin
    "isotonic.boundary": (isotonic, "confluent", _states_replaced(
        lambda real, spec, k: real(spec).state(k)
        * exactalg.RadialGauged(Fraction(1, 2), 0, 0, exactalg.RationalFn(1))
    )),
    # a one-step partner with +V where -V belongs
    "chains.inverse": (chains, "dbt_apply", _partner_adding_v),
    # an invariant the suite does not register
    "cli.manifest": (suite, "REQUIRED_INVARIANTS", lambda real: (
        real + ("cli.absent",)
    ), "manifest missing ['cli.absent']"),
    # a Jacobi constructor whose cached values differ from fresh ones
    "cli.determinism": (classical, "jacobi", _wrong_when_cached,
                        "two runs of the same subset differ"),
}


@pytest.mark.parametrize("check_id", sorted(MANIFEST_CONTROLS))
def test_manifest_check_fails_under_its_control(monkeypatch, check_id):
    owner, name, make, *witness = MANIFEST_CONTROLS[check_id]
    check_id = check_id.partition(":")[0]
    assert reports.run_check(check_id).status == "pass"
    reports._clear_constructor_caches()
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    try:
        # the body is called directly, so an exception fails the test
        # instead of becoming the witness
        assert_fails_with_witness(reports._by_id()[check_id].run())
        report = reports.run_check(check_id)
        assert report.status == "fail"
        if witness:
            assert report.witness == witness[0]
    finally:
        monkeypatch.undo()
        reports._clear_constructor_caches()


# -- negative controls of every per-spec check ----------------------------------------

ISO = isotonic.IsotonicSpec(1, 1)
ISO_N0 = isotonic.IsotonicSpec(0, 2)


def _potential_plus_one(real):
    def shifted(spec):
        pot = real(spec)
        return SimpleNamespace(v=lambda *args: pot.v(*args) + 1.0)

    return shifted


# check id -> (spec, name, make): the control replaces name in the family's
# module (tdpt or isotonic) with make(the real one), and the check must fail.
# Each perturbs one side: the states (`confluent`) or the potential
# (`extended_potential`), never both through their one construction.
SPEC_CONTROLS = {
    # the certificate taken at the threshold, inside the forbidden window
    "tdpt.regularity": (SPEC, "certify_regularity", lambda real: (
        lambda spec: real(spec._replace(
            lambda1=tdpt.regularity_threshold(spec.n, spec.N, spec.M)
        ))
    )),
    # the potential at lambda1 - 1
    "tdpt.ode": (SPEC, "extended_potential", lambda real: (
        lambda spec: real(spec._replace(lambda1=spec.lambda1 - 1))
    )),
    # level 1 taken at lambda1 - 1
    "tdpt.ortho": (SPEC, "confluent", _states_replaced(lambda real, spec, k: (
        real(spec._replace(lambda1=spec.lambda1 - 1) if k == 1 else spec).state(k)
    ))),
    # a partner constant off by one
    "tdpt.shape": (SPEC, "lambda1_shifted", lambda real: (
        lambda *args: real(*args) + 1
    )),
    # every energy shifted by one
    "tdpt.spectrum": (SPEC, "extended_potential", _potential_plus_one),
    # a perturbed second route
    "isotonic.q-crosscheck": (ISO, "q_poly_via_ode", lambda real: (
        lambda n, N: real(n, N) + 1
    )),
    # the potential for N + 1
    "isotonic.ode": (ISO, "extended_potential", lambda real: (
        lambda spec: real(spec._replace(N=spec.N + 1))
    )),
    # a non-orthogonal pair: level 2 plus level 0
    "isotonic.ortho": (ISO, "confluent", _states_replaced(lambda real, spec, k: (
        real(spec).state(k) + real(spec).state(0) if k == 2 else real(spec).state(k)
    ))),
    # the partner Q_{n-1}^(N+1) doubled, as the constant 2C would give
    "isotonic.shape": (ISO, "q_poly", lambda real: (
        lambda n, N: real(n, N) * (2 if N == ISO.N + 1 else 1)
    )),
    # a type-II ratio of the wrong sign
    "isotonic.n0-type2": (ISO_N0, "n0_type2_ratio", lambda real: (
        lambda N: -real(N)
    )),
    # a single obstruction ratio
    "isotonic.n0-negative": (ISO_N0, "n0_shape_obstruction", lambda real: (
        lambda N: real(N)[:1]
    )),
    # every energy shifted by one
    "isotonic.spectrum": (ISO, "extended_potential", _potential_plus_one),
}


def test_every_per_spec_check_has_a_negative_control():
    ids = {f"{family}.{name}" for family, checks in reports.SPEC_CHECKS.items()
           for name in checks}
    assert set(SPEC_CONTROLS) == ids


@pytest.mark.parametrize("check_id", sorted(SPEC_CONTROLS))
def test_per_spec_check_fails_under_its_control(monkeypatch, check_id):
    spec, name, make = SPEC_CONTROLS[check_id]
    family, suite = check_id.split(".", 1)
    module, omega = {"tdpt": (tdpt, None), "isotonic": (isotonic, Fraction(2))}[family]
    body = partial(reports.SPEC_CHECKS[family][suite], spec, 3, reports.GRID_N, omega)
    assert reports.make_report(check_id, body).status == "pass"
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    # the body is called directly, so an exception fails the test instead
    # of becoming the witness
    status, _, witness = body()
    assert not status
    assert witness


# manifest check -> the per-spec check whose body it runs; the control of that
# per-spec check covers it
PER_SPEC_BODIES = {
    "tdpt.orthogonality": "tdpt.ortho",
    "tdpt.regularity": "tdpt.regularity",
    "tdpt.spectrum": "tdpt.spectrum",
    "isotonic.orthogonality": "isotonic.ortho",
    "isotonic.residuals": "isotonic.ode",
    "isotonic.spectrum": "isotonic.spectrum",
}


def test_every_manifest_check_has_a_negative_control():
    rows = {key.partition(":")[0] for key in MANIFEST_CONTROLS}
    uncovered = [
        c.check_id for c in reports.MANIFEST
        if c.check_id not in rows and PER_SPEC_BODIES.get(c.check_id) not in SPEC_CONTROLS
    ]
    assert uncovered == []


@pytest.mark.parametrize("check_id", sorted(PER_SPEC_BODIES))
def test_manifest_check_fails_under_the_control_of_its_per_spec_body(
    monkeypatch, check_id
):
    family = check_id.partition(".")[0]
    _, name, make = SPEC_CONTROLS[PER_SPEC_BODIES[check_id]]
    module = {"tdpt": tdpt, "isotonic": isotonic}[family]
    reports._clear_constructor_caches()
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    try:
        assert_fails_with_witness(reports._by_id()[check_id].run())
    finally:
        monkeypatch.undo()
        reports._clear_constructor_caches()
