"""The check registry, the per-spec checks, and the suite runner.

Every library-level invariant is packaged as a check with a stable id
`<module>.<name>`.  Checks are deterministic: sampling uses fixed seeds,
so two runs of the same selector produce byte-identical JSON apart from
the elapsed_ms fields.

A check is registered where it is defined, so its id and description are
written once.  `@_check(check_id, description)` adds a suite check to
`MANIFEST`; definition order is suite order.  The suite checks are defined
in `suite`, which the first lookup of a check id imports, so a command
that runs none never compiles them.  `@_spec_check(family, name, reads)`
adds a per-spec check, a function of (spec, kmax, grid_n, omega) that
reads its spec and the inputs in `reads`, to `SPEC_CHECKS`; registration
order is `--suite all` order.  The `ode`, `ortho` and `spectrum` bodies
are registered for both families; what the families differ in (levels,
x-map and units, window, energies) they read from the numeric
description at the end of the spec's module.  `run_spec_checks` runs the
per-spec checks on any spec for the CLI.
"""

from __future__ import annotations

import math
import sys
import time
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import chain

from . import classical, exactalg, isotonic, tdpt, verify

SCHEMA = 1
SPECTRUM_LEVELS = 4  # levels solved for by the per-spec spectrum checks
KMAX = 4  # default highest level of the per-spec checks
GRID_N = 3000  # default finite-difference grid of the spectrum checks
OMEGA = Fraction(2)  # default frequency of the isotonic per-spec checks


class VerifyReport(namedtuple(
    "VerifyReport", "check_id spec status witness elapsed_ms"
)):
    """Outcome of one named check: `status` is pass, fail or skip, and
    `witness` is nonempty when it is not pass."""

    __slots__ = ()


class SuiteCheck(namedtuple("SuiteCheck", "check_id description run")):
    """A registered suite check; `run` is () -> (ok, spec, witness)."""

    __slots__ = ()

    @property
    def module(self) -> str:
        return self.check_id.split(".")[0]


MANIFEST = []  # suite checks, in suite order, registered when `suite` loads
SPEC_CHECKS = {}  # family -> {suite name: per-spec check}, in `--suite all` order


def _check(check_id: str, description: str):
    """Register the decorated () -> (status, spec, witness) body as a suite check."""

    def register(fn):
        MANIFEST.append(SuiteCheck(check_id, description, fn))
        return fn

    return register


def _spec_check(family: str, name: str, reads=()):
    """Register the decorated (spec, kmax, grid_n, omega) -> (status, spec,
    witness) body as the per-spec check `family`.`name`; its `reads`
    attribute names the inputs it reads besides the spec."""

    def register(fn):
        check = partial(fn)  # one per family, each with its own reads
        check.reads = reads
        SPEC_CHECKS.setdefault(family, {})[name] = check
        return fn

    return register


def _fmt(x) -> str:
    return repr(float(x))


def _intervals(witness) -> str:
    return str([(str(a), str(b)) for a, b in witness])


# -- per-spec bodies shared by both families --------------------------------------


def _offdiagonal(states, omega=1.0):
    """(GaussGram of the gauged states, its largest relative off-diagonal
    entry); the entry is NaN, so no tolerance test passes on it, when the
    node doubling stopped at its cap."""
    gram = verify.gauss_gram(states, omega)
    if not gram.converged:
        return gram, math.nan
    return gram, verify.max_offdiagonal_relative(gram.values)


def _orthogonal(states, params, omega=1.0):
    """The gauged eigenstates are orthogonal under their Gauss rule."""
    gram, worst = _offdiagonal(states, omega)
    params = dict(params, nodes=gram.nodes, quadrature_error=gram.quadrature_error)
    if not gram.converged:
        return False, params, (
            f"Gauss rule stopped at its node cap ({gram.nodes} nodes), "
            f"quadrature error {_fmt(gram.quadrature_error)}"
        )
    return worst < 1e-10, params, f"max relative off-diagonal {_fmt(worst)}"


def _family(spec):
    """The module of the spec's family: its construction and description."""
    return sys.modules[type(spec).__module__]


def _numeric(spec, kmax, omega):
    """(family, frequency, params) of a numeric check on `spec`; the params
    hold the spec, kmax and the inputs the family reads."""
    family, params = _family(spec), dict(spec.as_dict(), kmax=kmax)
    if family.INPUTS:  # a frequency
        return family, float(omega), dict(params, omega=str(omega))
    return family, 1.0, params


def spectrum_witness(spec, count, grid_n, omega=1.0):
    """Numeric Dirichlet spectrum of the extension at frequency omega against
    the energies of its lowest `count` levels that keep a state (the
    unchanged ladder for tdpt, {2kw : k != n} for isotonic).  Returns
    (SpectrumResult, expected)."""
    family = _family(spec)
    pot, levels = family.extended_potential(spec), family.levels(spec, count)[:count]
    units = [float(family.energy(spec, k)) for k in levels]
    expected = [family.GAUGE.from_units(e, omega) for e in units]
    window = family.window(omega, levels[-1])
    result = verify.dirichlet_spectrum(
        lambda x: pot.v(x, omega), *window, count, grid_n=grid_n
    )
    return result, expected


def _ode(spec, kmax, grid_n, omega):
    """Each state up to kmax, and the restored state psi_n / w at E_n (the
    deleted state for isotonic), solves the extended equation exactly."""
    family = _family(spec)
    params = dict(spec.as_dict(), kmax=kmax)
    ext, v = family.confluent(spec), family.extended_potential(spec).z_form
    states = ((k, ext.state(k)) for k in range(kmax + 1) if k != spec.n)
    for k, state in chain(states, [(spec.n, ext.restored())]):
        if not exactalg.exact_ode_residual(state, v, family.energy(spec, k)).is_zero:
            return False, params, f"nonzero exact residual at level {k}"
    kept = spec.n in family.levels(spec, spec.n)
    restored = "" if kept else ", deleted state included"
    return True, params, f"residuals identically zero for k <= {kmax}{restored}"


def _ortho(spec, kmax, grid_n, omega):
    """The states up to kmax are orthogonal; the params name the levels when
    one is deleted."""
    family, w, params = _numeric(spec, kmax, omega)
    levels = family.levels(spec, kmax)
    if levels != tuple(range(kmax + 1)):
        params["levels"] = list(levels)
    ext = family.confluent(spec)
    return _orthogonal([ext.state(k) for k in levels], params, w)


def _spectrum(spec, kmax, grid_n, omega):
    """The lowest finite-difference levels match `spectrum_witness`'s."""
    _, w, params = _numeric(spec, kmax, omega)
    levels = SPECTRUM_LEVELS
    result, expected = spectrum_witness(spec, levels, grid_n, w)
    worst = verify.worst(
        abs(g - e) / max(1.0, abs(e)) for g, e in zip(result.energies, expected)
    )
    ok = worst < 1e-5 and result.node_counts == tuple(range(levels))
    params = dict(params, grid_n=grid_n, levels=levels, tolerance=1e-5)
    return ok, params, (
        f"expected {[_fmt(e) for e in expected]}, max relative "
        f"deviation {_fmt(worst)}, nodes {list(result.node_counts)}"
    )


# -- tdpt -------------------------------------------------------------------------


@_spec_check("tdpt", "regularity")
def _tdpt_regularity(spec, kmax, grid_n, omega):
    params = dict(spec.as_dict(), kmax=kmax)
    predicted = tdpt.is_regular(spec.n, spec.N, spec.M, spec.lambda1)
    certified, witness = tdpt.certify_regularity(spec)
    if predicted != certified:
        return False, params, (
            f"predicate says regular={predicted}, "
            f"certificate says regular={certified}"
        )
    word = "regular" if certified else "irregular"
    detail = f"predicate and certificate agree: {word}"
    if witness:
        detail += f", denominator roots isolated in {_intervals(witness)}"
    return True, params, detail


_spec_check("tdpt", "ode", reads=("kmax",))(_ode)
_spec_check("tdpt", "ortho", reads=("kmax", *tdpt.INPUTS))(_ortho)


@_spec_check("tdpt", "shape")
def _tdpt_shape(spec, kmax, grid_n, omega):
    params = dict(spec.as_dict(), kmax=kmax)
    if spec.n < 1:
        return "skip", params, "no partner constant at n = 0"
    ok = tdpt.shape_invariance_residual(spec.n, spec.N, spec.M, spec.lambda1)[0].is_zero
    return ok, params, (
        "identity residual identically zero" if ok else "identity broken"
    )


_spec_check("tdpt", "spectrum", reads=("grid_n", *tdpt.INPUTS))(_spectrum)


# -- isotonic ---------------------------------------------------------------------


@_spec_check("isotonic", "q-crosscheck")
def _iso_q_crosscheck(spec, kmax, grid_n, omega):
    params = dict(spec.as_dict(), kmax=kmax)
    if isotonic.q_poly(spec.n, spec.N) != isotonic.q_poly_via_ode(spec.n, spec.N):
        return False, params, "derivative-sum and ODE routes disagree"
    rootless, witness = isotonic.rootless_certificate(spec.n, spec.N)
    if not rootless:
        return False, params, f"denominator roots isolated in {_intervals(witness)}"
    return True, params, "routes agree and denominator is rootless"


_spec_check("isotonic", "ode", reads=("kmax",))(_ode)
_spec_check("isotonic", "ortho", reads=("kmax", *isotonic.INPUTS))(_ortho)


@_spec_check("isotonic", "shape")
def _iso_shape(spec, kmax, grid_n, omega):
    params = dict(spec.as_dict(), kmax=kmax)
    if spec.n < 1:
        return "skip", params, (
            "no partner constant at n = 0; run n0-negative instead"
        )
    ok = isotonic.shape_invariance_residual(spec.n, spec.N).is_zero
    return ok, params, (
        "identity residual identically zero" if ok else "identity broken"
    )


@_spec_check("isotonic", "n0-type2")
def _iso_n0_type2(spec, kmax, grid_n, omega):
    params = dict(spec.as_dict(), kmax=kmax)
    if spec.n != 0:
        return "skip", params, "only defined for n = 0"
    if not isotonic.n0_type2_proportional(spec.N):
        return False, params, "denominator is not a scaled Laguerre polynomial"
    partner = isotonic.n0_type2_partner_units(spec.N)
    if isotonic.extended_potential(spec).z_form != partner:
        return False, params, (
            "extension does not equal the one-step partner of the "
            "enlarged-parameter base"
        )
    ratio = isotonic.n0_type2_ratio(spec.N)
    return True, params, (
        f"denominator is {ratio} times the negative-parameter Laguerre "
        "polynomial; extension equals the one-step partner exactly"
    )


@_spec_check("isotonic", "n0-negative")
def _iso_n0_negative(spec, kmax, grid_n, omega):
    params = dict(spec.as_dict(), kmax=kmax)
    if spec.n != 0:
        return "skip", params, "only defined for n = 0"
    ratios = isotonic.n0_shape_obstruction(spec.N)
    if len(set(ratios)) < 2:
        return False, params, f"single ratio {ratios}: a constant would exist"
    if not isotonic.n0_shape_positive_control(spec.N):
        return False, params, "positive control failed"
    return True, params, (
        f"coefficient ratios {list(ratios)} are not all equal: "
        "no constant closes the identity"
    )


_spec_check("isotonic", "spectrum", reads=("grid_n", *isotonic.INPUTS))(_spectrum)


# -- registry ---------------------------------------------------------------------


def _clear_constructor_caches():
    """Empty the memoized exact constructors and residual operators, also
    through a wrapper put around them (such as a tracer's)."""
    for fn in (classical.jacobi, classical.laguerre, tdpt.q_poly, isotonic.q_poly,
               tdpt._seed, tdpt.confluent, isotonic._seed, isotonic.confluent,
               exactalg._lift, exactalg._ode_operator):
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__
        fn.cache_clear()


@cache
def _by_id() -> dict:
    """The suite checks by id; the first call imports `suite`, whose checks
    register themselves in MANIFEST."""
    from . import suite  # noqa: F401

    return {c.check_id: c for c in MANIFEST}


def make_report(check_id: str, fn) -> VerifyReport:
    """Time a check body and wrap it as a VerifyReport.

    `fn` returns (status, spec, witness) where status is a bool or one of
    the literal report states; an exception is recorded as a failure."""
    t0 = time.perf_counter()
    try:
        status, spec, witness = fn()
        if not isinstance(status, str):
            # bool or numpy bool truthiness
            status = "pass" if status else "fail"
    except Exception as exc:  # a crashed check is a failed check
        status, spec, witness = "fail", {}, f"{type(exc).__name__}: {exc}"
    elapsed = int(round((time.perf_counter() - t0) * 1000.0))
    if status != "pass" and not witness:
        witness = "check reported failure without detail"
    return VerifyReport(check_id, spec, status, witness, elapsed)


def run_check(check_id: str) -> VerifyReport:
    return make_report(check_id, _by_id()[check_id].run)


def select_checks(selector: str):
    """Resolve 'all', a module name, or a full check id to manifest order."""
    by_id = _by_id()
    if selector == "all":
        return list(MANIFEST)
    if selector in by_id:
        return [by_id[selector]]
    chosen = [c for c in MANIFEST if c.module == selector]
    if not chosen:
        raise KeyError(selector)
    return chosen


def envelope(reports, **extra) -> dict:
    """The JSON report of a list of VerifyReports, plus `extra` fields."""
    failed = [r.check_id for r in reports if r.status == "fail"]
    return {
        "schema": SCHEMA,
        "checks": [r._asdict() for r in reports],
        "counts": {
            "pass": sum(1 for r in reports if r.status == "pass"),
            "fail": len(failed),
            "skip": sum(1 for r in reports if r.status == "skip"),
        },
        "failed": failed,
        **extra,
    }


def run_suite(selector: str = "all") -> dict:
    """Run the selected checks (manifest order) and report as JSON data.

    The checks run one after another: they are pure Python, so threads
    would only contend for the interpreter lock."""
    reports = [run_check(c.check_id) for c in select_checks(selector)]
    return envelope(reports, selector=selector)


# -- per-spec runner --------------------------------------------------------------

# tdpt checks that evaluate the extension and so need a regular lambda1
_NEEDS_REGULAR = ("ode", "ortho", "spectrum")


def run_spec_checks(family, names, spec, kmax=None, grid_n=None, omega=None) -> list:
    """Run the named per-spec checks of `family` on `spec`, in order; an
    input left None takes its default (KMAX, GRID_N, OMEGA).

    Usage errors, not failed checks, are refused with ValueError first: a
    tdpt spec that is irregular (for ode, ortho, spectrum) or at lambda1 = 0
    (for ortho, spectrum: the level-n state is not square integrable), and
    an ortho check over a single level, which has no pair to compare."""
    kmax = KMAX if kmax is None else kmax
    grid_n = GRID_N if grid_n is None else grid_n
    omega = OMEGA if omega is None else omega
    needs_regular = [s for s in names if s in _NEEDS_REGULAR]
    if (
        family == "tdpt"
        and needs_regular
        and not tdpt.is_regular(spec.n, spec.N, spec.M, spec.lambda1)
    ):
        threshold = tdpt.regularity_threshold(spec.n, spec.N, spec.M)
        raise ValueError(
            f"irregular spec: lambda1 = {spec.lambda1} lies inside the "
            f"forbidden window (0, {threshold}]; suite(s) "
            f"{', '.join(needs_regular)} need a regular one "
            "(--suite regularity reports it)"
        )
    needs_bound = [s for s in names if s in ("ortho", "spectrum")]
    if family == "tdpt" and needs_bound and spec.lambda1 == 0:
        raise ValueError(
            f"lambda1 = 0 leaves the level-{spec.n} state not square integrable; "
            f"suite(s) {', '.join(needs_bound)} need lambda1 != 0"
        )
    if "ortho" in names:
        levels = len(_family(spec).levels(spec, kmax))
        if levels < 2:
            raise ValueError(
                f"suite ortho needs at least two levels; kmax = {kmax} "
                f"leaves {levels}"
            )
    checks = SPEC_CHECKS[family]
    return [
        make_report(
            f"{family}.{name}", partial(checks[name], spec, kmax, grid_n, omega)
        )
        for name in names
    ]
