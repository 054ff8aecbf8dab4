"""Command line front end.

Subcommands mirror the library layers: `classical dump` prints base
polynomials, `tdpt` and `isotonic` build, verify, and tabulate the
rational extensions, `chain` drives the numeric transform routes,
`verify` runs named checks (the fixed manifest suite, parametrized
per-spec checks, and the spectrum/gram oracles), and `table` emits
potential, eigenfunction, or polynomial data for plotting.

Model parameters (lambda1, omega, chain constants) are exact rationals
written as `p/q` or an integer; decimal or exponent notation is
rejected so a parameter is never silently rounded.  Grids are written
`a:b:n`.  JSON outputs carry a top-level "schema" field and sorted
keys; CSV cells use 17 significant digits.  Exit codes: 0 all checks
pass, 1 a check failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import chains, classical, isotonic, reports, tdpt, verify

SCHEMA = 1
SPECTRUM_LEVELS = 4  # levels checked by the per-spec spectrum suites


# -- input parsing ----------------------------------------------------------------


def _rational(text: str) -> Fraction:
    s = text.strip()
    if not s or any(c in s for c in ".eE"):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _int_from(minimum: int):
    """argparse type: an integer >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}: {text!r}")
        return value

    return parse


_kmax = _int_from(0)
# the coarse spectrum grid must hold more unknowns than the levels solved for
_grid_n = _int_from(SPECTRUM_LEVELS + 1)


def _rational_list(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(_rational(part))
    return out


def _grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be a:b:n, got {text!r}")
    if n < 2 or not a < b:
        raise argparse.ArgumentTypeError(f"degenerate grid: {text!r}")
    return np.linspace(a, b, n)


# -- output -----------------------------------------------------------------------


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % float(v) for v in row))
    return "\n".join(lines) + "\n"


def _envelope(report_list, **extra) -> dict:
    failed = [r.check_id for r in report_list if r.status == "fail"]
    payload = {
        "schema": SCHEMA,
        "checks": [r.to_json() for r in report_list],
        "counts": {
            "pass": sum(1 for r in report_list if r.status == "pass"),
            "fail": len(failed),
            "skip": sum(1 for r in report_list if r.status == "skip"),
        },
        "failed": failed,
    }
    payload.update(extra)
    return payload


def _emit_reports(report_list, out_path, **extra) -> int:
    payload = _envelope(report_list, **extra)
    _emit(_json_text(payload), out_path)
    return 1 if payload["failed"] else 0


def _fmt(x) -> str:
    return repr(float(x))


# -- classical ----------------------------------------------------------------------


def _cmd_classical_dump(args) -> int:
    if args.family == "jacobi":
        if args.big_m is None:
            raise ValueError("--M is required for the jacobi family")
        poly = classical.jacobi(args.n, args.big_n, args.big_m)
        payload = {
            "schema": SCHEMA,
            "family": "jacobi",
            "n": args.n,
            "N": args.big_n,
            "M": args.big_m,
            "polynomial": poly.to_json(),
        }
    else:
        poly = classical.laguerre(args.n, args.big_n)
        payload = {
            "schema": SCHEMA,
            "family": "laguerre",
            "n": args.n,
            "N": args.big_n,
            "polynomial": poly.to_json(),
        }
    _emit(_json_text(payload), args.out)
    return 0


# -- parametrized checks (shared by `tdpt verify`, `isotonic verify`, `verify`) ----

TDPT_SUITES = ("regularity", "ode", "ortho", "shape", "spectrum")
ISO_SUITES = (
    "q-crosscheck",
    "ode",
    "ortho",
    "shape",
    "n0-type2",
    "n0-negative",
    "spectrum",
)


def _tdpt_check(name: str, spec: tdpt.TdptSpec, kmax: int, grid_n: int):
    """One named per-spec check as a VerifyReport."""
    params = dict(spec.as_dict(), kmax=kmax)

    def regularity():
        predicted = tdpt.is_regular(spec.n, spec.N, spec.M, spec.lambda1)
        certified, witness = tdpt.certify_regularity(spec)
        if predicted != certified:
            return False, params, (
                f"predicate says regular={predicted}, "
                f"certificate says regular={certified}"
            )
        word = "regular" if certified else "irregular"
        detail = f"predicate and certificate agree: {word}"
        if witness.intervals:
            ivs = [(str(a), str(b)) for a, b in witness.intervals]
            detail += f", denominator roots isolated in {ivs}"
        return True, params, detail

    def ode():
        pot = tdpt.extended_potential(spec)
        base = spec.base
        for k in range(kmax + 1):
            res = verify.exact_ode_residual(
                tdpt.eigenfunction(spec, k), pot.z_form, base.energy(k)
            )
            if not res.is_zero:
                return False, params, f"nonzero exact residual at level {k}"
        return True, params, f"residuals identically zero for k <= {kmax}"

    def ortho():
        tdpt.extended_potential(spec)  # reject irregular specs up front
        lo, hi = verify.tdpt_domain(1e-8)
        fns = [
            tdpt.eigenfunction(spec, k).eval_x for k in range(kmax + 1)
        ]
        vals, _ = verify.gram_matrix(fns, lo, hi)
        worst = verify.max_offdiagonal_relative(vals)
        return worst < 1e-10, params, f"max relative off-diagonal {_fmt(worst)}"

    def shape():
        if spec.n < 1:
            return "skip", params, "no partner constant at n = 0"
        ok = tdpt.shape_invariance_holds(spec.n, spec.N, spec.M, spec.lambda1)
        return ok, params, (
            "identity residual identically zero" if ok else "identity broken"
        )

    def spectrum():
        levels = SPECTRUM_LEVELS
        result, expected = tdpt.isospectrality_witness(spec, levels, grid_n)
        worst = verify.worst(
            abs(g - w) / max(1.0, abs(w))
            for g, w in zip(result.energies, expected)
        )
        ok = worst < 1e-5 and result.node_counts == tuple(range(levels))
        p = dict(params, grid_n=grid_n, levels=levels, tolerance=1e-5)
        return ok, p, (
            f"expected {[str(w) for w in expected]}, max relative "
            f"deviation {_fmt(worst)}, nodes {list(result.node_counts)}"
        )

    bodies = {
        "regularity": regularity,
        "ode": ode,
        "ortho": ortho,
        "shape": shape,
        "spectrum": spectrum,
    }
    return reports.make_report(f"tdpt.{name}", bodies[name])


def _iso_check(
    name: str, spec: isotonic.IsotonicSpec, omega: Fraction, kmax: int, grid_n: int
):
    params = dict(spec.as_dict(), kmax=kmax)

    def q_crosscheck():
        same = isotonic.q_poly(spec.n, spec.N) == isotonic.q_poly_via_ode(
            spec.n, spec.N
        )
        if not same:
            return False, params, "derivative-sum and ODE routes disagree"
        rootless, witness = isotonic.rootless_certificate(spec.n, spec.N)
        if not rootless:
            ivs = [(str(a), str(b)) for a, b in witness.intervals]
            return False, params, f"denominator roots isolated in {ivs}"
        return True, params, "routes agree and denominator is rootless"

    def ode():
        pot = isotonic.extended_potential(spec)
        for k in range(kmax + 1):
            if k == spec.n:
                continue
            res = verify.exact_ode_residual(
                isotonic.eigenfunction(spec, k), pot.zform_units, 2 * k
            )
            if not res.is_zero:
                return False, params, f"nonzero exact residual at level {k}"
        res = verify.exact_ode_residual(
            isotonic.deleted_state(spec), pot.zform_units, 2 * spec.n
        )
        if not res.is_zero:
            return False, params, "nonzero residual for the deleted state"
        return True, params, (
            f"residuals identically zero for k <= {kmax}, deleted state included"
        )

    def ortho():
        w = float(omega)
        family = isotonic.exceptional_family(spec, max(kmax, spec.n + 1))
        fns = [
            (lambda x, f=isotonic.eigenfunction(spec, k): f.eval_x(x, w))
            for k in family.levels
        ]
        vals, _ = verify.gram_matrix(fns, 0.0, math.inf)
        worst = verify.max_offdiagonal_relative(vals)
        p = dict(params, omega=str(omega), levels=list(family.levels))
        return worst < 1e-10, p, f"max relative off-diagonal {_fmt(worst)}"

    def shape():
        if spec.n < 1:
            return "skip", params, (
                "no partner constant at n = 0; run n0-negative instead"
            )
        ok = isotonic.shape_invariance_holds(spec.n, spec.N)
        return ok, params, (
            "identity residual identically zero" if ok else "identity broken"
        )

    def n0_type2():
        if spec.n != 0:
            return "skip", params, "only defined for n = 0"
        if not isotonic.n0_type2_proportional(spec.N):
            return False, params, "denominator is not a scaled Laguerre polynomial"
        partner = isotonic.n0_type2_partner_units(spec.N)
        if isotonic.extended_potential(spec).zform_units != partner:
            return False, params, (
                "extension does not equal the one-step partner of the "
                "enlarged-parameter base"
            )
        ratio = isotonic.n0_type2_ratio(spec.N)
        return True, params, (
            f"denominator is {ratio} times the negative-parameter Laguerre "
            "polynomial; extension equals the one-step partner exactly"
        )

    def n0_negative():
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

    def spectrum():
        levels = SPECTRUM_LEVELS
        w = float(omega)
        result, expected = isotonic.quasi_isospectrality_witness(
            spec, w, levels, grid_n
        )
        worst = verify.worst(
            abs(g - e) / max(1.0, abs(e))
            for g, e in zip(result.energies, expected)
        )
        ok = worst < 1e-5 and result.node_counts == tuple(range(levels))
        p = dict(params, omega=str(omega), grid_n=grid_n, levels=levels)
        return ok, p, (
            f"expected {[_fmt(e) for e in expected]}, max relative "
            f"deviation {_fmt(worst)}, nodes {list(result.node_counts)}"
        )

    bodies = {
        "q-crosscheck": q_crosscheck,
        "ode": ode,
        "ortho": ortho,
        "shape": shape,
        "n0-type2": n0_type2,
        "n0-negative": n0_negative,
        "spectrum": spectrum,
    }
    return reports.make_report(f"isotonic.{name}", bodies[name])


# -- tdpt ---------------------------------------------------------------------------


def _tdpt_points(args) -> np.ndarray:
    """Table grid, inside 0 < x < pi/2 where the potentials are finite."""
    xs = args.x_points if args.x_points is not None else _grid("0.01:1.56:200")
    if not (xs[0] > 0.0 and xs[-1] < math.pi / 2):
        raise ValueError("tdpt table points must lie inside 0 < x < pi/2")
    return xs


def _isotonic_points(args) -> np.ndarray:
    """Table grid, inside x > 0 where the potentials are finite."""
    xs = args.x_points if args.x_points is not None else _grid("0.05:5:200")
    if not xs[0] > 0.0:
        raise ValueError("isotonic table points must lie inside x > 0")
    return xs


def _tdpt_spec(args) -> tdpt.TdptSpec:
    lam = args.lambda1 if args.lambda1 is not None else Fraction(1)
    return tdpt.TdptSpec(args.n, args.big_n, args.big_m, lam)


def _cmd_tdpt_build(args) -> int:
    spec = _tdpt_spec(args)
    pot = tdpt.extended_potential(spec)  # rejects the forbidden window
    base = spec.base
    payload = {
        "schema": SCHEMA,
        "family": "tdpt",
        "spec": spec.as_dict(),
        "q": tdpt.q_poly(spec.n, spec.N, spec.M).to_json(),
        "threshold": str(tdpt.regularity_threshold(spec.n, spec.N, spec.M)),
        "denominator": tdpt.denominator_poly(spec).to_json(),
        "p_tilde": {
            str(k): tdpt.p_tilde(spec, k).to_json()
            for k in range(args.kmax + 1)
        },
        "correction": pot.correction.to_json(),
        "z_form": pot.z_form.to_json(),
        "energies": [
            str(base.energy(k)) for k in range(max(6, spec.n + 3))
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_tdpt_verify(args) -> int:
    spec = _tdpt_spec(args)
    names = TDPT_SUITES if args.suite == "all" else (args.suite,)
    needs_regular = [s for s in names if s in ("ode", "ortho", "spectrum")]
    if needs_regular and not tdpt.is_regular(spec.n, spec.N, spec.M, spec.lambda1):
        threshold = tdpt.regularity_threshold(spec.n, spec.N, spec.M)
        raise ValueError(
            f"irregular spec: lambda1 = {spec.lambda1} lies inside the "
            f"forbidden window (0, {threshold}]; suite(s) "
            f"{', '.join(needs_regular)} need a regular one "
            "(--suite regularity reports it)"
        )
    report_list = [
        _tdpt_check(name, spec, args.kmax, args.grid_n) for name in names
    ]
    return _emit_reports(report_list, args.out, family="tdpt", spec=spec.as_dict())


def _cmd_tdpt_table(args) -> int:
    spec = _tdpt_spec(args)
    pot = tdpt.extended_potential(spec)
    base = spec.base
    xs = _tdpt_points(args)
    states = [tdpt.eigenfunction(spec, k) for k in range(args.kmax + 1)]
    header = ["x", "v_base", "v_ext"] + [
        f"psi_{k}" for k in range(args.kmax + 1)
    ]
    rows = [
        [x, base.v(x), pot.v(x)] + [s.eval_x(x) for s in states] for x in xs
    ]
    _emit(_csv_text(header, rows), args.out)
    return 0


# -- isotonic -------------------------------------------------------------------------


def _iso_spec(args) -> isotonic.IsotonicSpec:
    return isotonic.IsotonicSpec(args.n, args.big_n)


def _cmd_isotonic_build(args) -> int:
    spec = _iso_spec(args)
    pot = isotonic.extended_potential(spec)
    rootless, _ = isotonic.rootless_certificate(spec.n, spec.N)
    family = isotonic.exceptional_family(spec, max(args.kmax, spec.n + 1))
    payload = {
        "schema": SCHEMA,
        "family": "isotonic",
        "spec": spec.as_dict(),
        "q": isotonic.q_poly(spec.n, spec.N).to_json(),
        "q_at_zero": str(isotonic.q_at_zero(spec.n, spec.N)),
        "rootless": rootless,
        "l_tilde": {
            str(k): isotonic.l_tilde(spec, k).to_json() for k in family.levels
        },
        "correction_units": pot.correction_units.to_json(),
        "zform_units": pot.zform_units.to_json(),
        "deleted_level": spec.n,
        "levels": list(family.levels),
        "energies_units": [str(2 * k) for k in family.levels],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_isotonic_verify(args) -> int:
    spec = _iso_spec(args)
    names = ISO_SUITES if args.suite == "all" else (args.suite,)
    report_list = [
        _iso_check(name, spec, args.omega, args.kmax, args.grid_n)
        for name in names
    ]
    return _emit_reports(
        report_list, args.out, family="isotonic", spec=spec.as_dict()
    )


def _cmd_isotonic_table(args) -> int:
    spec = _iso_spec(args)
    pot = isotonic.extended_potential(spec)
    omega = float(args.omega)
    xs = _isotonic_points(args)
    family = isotonic.exceptional_family(spec, max(args.kmax, spec.n + 1))
    states = [isotonic.eigenfunction(spec, k) for k in family.levels]
    header = ["x", "v_base", "v_ext"] + [f"psi_{k}" for k in family.levels]
    rows = [
        [x, spec.base.v(x, omega), pot.v(x, omega)]
        + [s.eval_x(x, omega) for s in states]
        for x in xs
    ]
    _emit(_csv_text(header, rows), args.out)
    return 0


# -- chain ----------------------------------------------------------------------------


def _chain_setup(args):
    """Seed, base potential, and default grid from --base and --params."""
    params = args.params
    if args.base == "tdpt":
        if len(params) != 3:
            raise ValueError("tdpt --params must be n,N,M")
        n, big_n, big_m = (int(p) for p in params)
        seed, v = chains.tdpt_seed(n, big_n, big_m)
        xs = (
            args.grid if args.grid is not None else _grid("0.05:1.52:120")
        )
        x_start = (
            args.x_start if args.x_start is not None else math.pi / 2 - 1e-3
        )
        label = {"n": n, "N": big_n, "M": big_m}
    else:
        if len(params) != 3:
            raise ValueError("isotonic --params must be n,N,omega")
        n, big_n = int(params[0]), int(params[1])
        omega = float(params[2])
        if omega <= 0:
            raise ValueError("omega must be positive")
        seed, v = chains.isotonic_seed(n, big_n, omega)
        hi = 4.0 / math.sqrt(omega)
        xs = (
            args.grid
            if args.grid is not None
            else np.linspace(0.1 / math.sqrt(omega), hi, 120)
        )
        # anchoring at the left edge keeps every accumulated integral
        # nonnegative, so positive chain constants stay regular
        x_start = args.x_start if args.x_start is not None else float(xs[0])
        label = {"n": n, "N": big_n, "omega": str(params[2])}
    return seed, v, xs, x_start, label


def _cmd_chain_run(args) -> int:
    seed, v, xs, x_start, _ = _chain_setup(args)
    lambdas = [float(c) for c in args.lambdas]
    if args.m is not None and args.m != len(lambdas) + 1:
        raise ValueError(
            f"--m {args.m} disagrees with {len(lambdas)} chain constants "
            f"(steps = constants + 1)"
        )
    result = chains.hyperconfluent_chain(seed, v, lambdas, xs, x_start)
    if args.full:
        header = ["x", "psi", "dpsi", "v_ext", "v_ext_grouped"]
        rows = zip(
            result.xs, result.psi, result.dpsi, result.potential,
            result.potential_grouped,
        )
    else:
        header = ["x", "v_ext"]
        rows = zip(result.xs, result.potential)
    _emit(_csv_text(header, list(rows)), args.out)
    return 0


def _cmd_chain_crosscheck(args) -> int:
    if args.which == "matveev" and args.base != "tdpt":
        raise ValueError(
            "the energy-derivative route is anchored at the right endpoint "
            "and only supports the tdpt base"
        )
    seed, v, xs, _, label = _chain_setup(args)

    if args.which == "two-step":
        lam = args.lambda1 if args.lambda1 is not None else Fraction(1)
        if args.base == "tdpt":
            spec = tdpt.TdptSpec(label["n"], label["N"], label["M"], lam)
            pot = tdpt.extended_potential(spec)
            exact = pot.v
            vt, _t = chains.confluent_two_step(seed, v, float(lam))
            pts = np.linspace(0.15, math.pi / 2 - 0.15, args.points)
            params = dict(spec.as_dict(), points=args.points)
        else:
            if lam != 0:
                raise ValueError(
                    "the exact radial extension fixes lambda1 = 0 "
                    "(integral anchored at infinity); pass --lambda1 0"
                )
            spec = isotonic.IsotonicSpec(label["n"], label["N"])
            omega = float(Fraction(label["omega"]))
            pot = isotonic.extended_potential(spec)
            exact = lambda x: pot.v(x, omega)
            vt, _t = chains.confluent_two_step(seed, v, 0.0)
            lo, hi = 0.3 / math.sqrt(omega), 3.5 / math.sqrt(omega)
            pts = np.linspace(lo, hi, args.points)
            params = dict(spec.as_dict(), omega=label["omega"], points=args.points)

        def body():
            scale = max(1.0, verify.worst(abs(exact(x)) for x in pts))
            worst = verify.worst(abs(vt(x) - exact(x)) for x in pts) / scale
            p = dict(params, tolerance=1e-9)
            return worst < 1e-9, p, (
                f"max relative deviation from the exact form {_fmt(worst)}"
            )

        report = reports.make_report("chain.two-step", body)
    else:

        def body():
            x_ref = math.pi / 2 - 1e-3
            sample = np.linspace(0.3, 1.2, args.points)
            pot_rel, w_rel = chains.matveev_cross_check(seed, v, sample, x_ref)
            p = dict(label, points=args.points, tolerance=1e-6)
            ok = pot_rel < 1e-6 and w_rel < 1e-5
            return ok, p, (
                f"potential route deviation {_fmt(pot_rel)}, "
                f"Wronskian identity deviation {_fmt(w_rel)}"
            )

        report = reports.make_report("chain.matveev", body)

    return _emit_reports([report], args.out, which=args.which, base=args.base)


# -- verify ---------------------------------------------------------------------------

_PARAMETRIZED = {f"tdpt.{s}" for s in TDPT_SUITES} | {
    f"isotonic.{s}" for s in ISO_SUITES
}


def _load_params_file(args):
    if not args.params_file:
        return
    try:
        with open(args.params_file) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed params file: {exc}")
    if not isinstance(data, dict):
        raise ValueError("malformed params file: expected a JSON object")
    for key, attr, parse in (
        ("n", "n", int),
        ("N", "big_n", int),
        ("M", "big_m", int),
        ("lambda1", "lambda1", _rational),
        ("omega", "omega", _positive_rational),
        ("kmax", "kmax", _kmax),
    ):
        if key in data and getattr(args, attr, None) is None:
            try:
                value = parse(str(data[key]))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"malformed params file: {key}: {exc}")
            setattr(args, attr, value)


def _cmd_verify_spectrum(args) -> int:
    if not args.potential_json or args.levels is None:
        raise ValueError("verify spectrum needs --potential-json and --levels")
    with open(args.potential_json) as fh:
        data = json.load(fh)
    from .exactalg import RationalFn

    if "z_form" in data:
        rat = RationalFn.from_json(data["z_form"])
        v = lambda x: rat(math.cos(2.0 * x))
        lo, hi = verify.tdpt_domain()
    elif "zform_units" in data:
        rat = RationalFn.from_json(data["zform_units"])
        omega = float(args.omega if args.omega is not None else Fraction(1))
        v = lambda x: omega * rat(omega * x * x / 2.0)
        e_max = 2.0 * args.levels * omega
        lo, hi = verify.isotonic_domain(omega, e_max)
    else:
        raise ValueError(
            "potential JSON must carry a z_form or zform_units field"
        )
    result = verify.dirichlet_spectrum(v, lo, hi, args.levels, args.grid_n)
    payload = {"schema": SCHEMA, "spectrum": result.to_json()}
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_verify_gram(args) -> int:
    if not args.family_json:
        raise ValueError("verify gram needs --family-json")
    with open(args.family_json) as fh:
        data = json.load(fh)
    spec_data = data.get("spec", {})
    if "z_form" in data or data.get("family") == "tdpt":
        spec = tdpt.TdptSpec(
            int(spec_data["n"]),
            int(spec_data["N"]),
            int(spec_data["M"]),
            Fraction(str(spec_data["lambda1"])),
        )
        levels = sorted(int(k) for k in data.get("p_tilde", {})) or list(
            range(7)
        )
        fns = [tdpt.eigenfunction(spec, k).eval_x for k in levels]
        lo, hi = verify.tdpt_domain(1e-8)
    elif "zform_units" in data or data.get("family") == "isotonic":
        spec = isotonic.IsotonicSpec(int(spec_data["n"]), int(spec_data["N"]))
        levels = [int(k) for k in data.get("levels", [])] or [
            k for k in range(6) if k != spec.n
        ]
        omega = float(args.omega if args.omega is not None else Fraction(1))
        fns = [
            (lambda x, f=isotonic.eigenfunction(spec, k): f.eval_x(x, omega))
            for k in levels
        ]
        lo, hi = 0.0, math.inf
    else:
        raise ValueError("family JSON must identify a tdpt or isotonic family")
    vals, results = verify.gram_matrix(fns, lo, hi)
    payload = {
        "schema": SCHEMA,
        "spec": spec.as_dict(),
        "levels": levels,
        "gram": [[float(v) for v in row] for row in vals],
        "abs_error": [[float(r.abs_error) for r in row] for row in results],
        "max_offdiagonal_relative": float(verify.max_offdiagonal_relative(vals)),
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    selector = args.selector
    if selector == "spectrum":
        return _cmd_verify_spectrum(args)
    if selector == "gram":
        return _cmd_verify_gram(args)

    _load_params_file(args)
    spec_flags = any(
        getattr(args, a) is not None
        for a in ("n", "big_n", "big_m", "lambda1", "omega")
    )
    if selector in _PARAMETRIZED and spec_flags:
        module, name = selector.split(".", 1)
        kmax = args.kmax if args.kmax is not None else 4
        if args.n is None or args.big_n is None:
            raise ValueError("parametrized checks need --n and --N")
        if module == "tdpt":
            if args.big_m is None:
                raise ValueError("tdpt checks need --M")
            spec = _tdpt_spec(args)
            report = _tdpt_check(name, spec, kmax, args.grid_n)
        else:
            spec = _iso_spec(args)
            omega = args.omega if args.omega is not None else Fraction(2)
            report = _iso_check(name, spec, omega, kmax, args.grid_n)
        return _emit_reports([report], args.out, selector=selector)

    try:
        payload = reports.run_suite(selector)
    except KeyError:
        print(
            f"error: unknown check or module: {selector}", file=sys.stderr
        )
        return 2
    _emit(_json_text(payload), args.out)
    return 0 if payload["counts"]["fail"] == 0 else 1


# -- table ----------------------------------------------------------------------------


def _cmd_table(args) -> int:
    if args.family == "tdpt":
        if args.big_m is None or args.lambda1 is None:
            raise ValueError("tdpt tables need --M and --lambda1")
        spec = _tdpt_spec(args)
        if args.kind == "polynomial":
            payload = {
                "schema": SCHEMA,
                "family": "tdpt",
                "spec": spec.as_dict(),
                "polynomials": {
                    str(k): tdpt.p_tilde(spec, k).to_json()
                    for k in range(args.kmax + 1)
                },
            }
            _emit(_json_text(payload), args.out)
            return 0
        pot = tdpt.extended_potential(spec)
        xs = _tdpt_points(args)
        if args.kind == "potential":
            header = ["x", "v_base", "v_ext"]
            rows = [[x, spec.base.v(x), pot.v(x)] for x in xs]
        else:
            states = [tdpt.eigenfunction(spec, k) for k in range(args.kmax + 1)]
            header = ["x"] + [f"psi_{k}" for k in range(args.kmax + 1)]
            rows = [[x] + [s.eval_x(x) for s in states] for x in xs]
        _emit(_csv_text(header, rows), args.out)
        return 0

    spec = isotonic.IsotonicSpec(args.n, args.big_n)
    family = isotonic.exceptional_family(spec, max(args.kmax, spec.n + 1))
    if args.kind == "polynomial":
        payload = {
            "schema": SCHEMA,
            "family": "isotonic",
            "spec": spec.as_dict(),
            "polynomials": {
                str(k): isotonic.l_tilde(spec, k).to_json()
                for k in family.levels
            },
        }
        _emit(_json_text(payload), args.out)
        return 0
    omega = float(args.omega if args.omega is not None else Fraction(1))
    pot = isotonic.extended_potential(spec)
    xs = _isotonic_points(args)
    if args.kind == "potential":
        header = ["x", "v_base", "v_ext"]
        rows = [[x, spec.base.v(x, omega), pot.v(x, omega)] for x in xs]
    else:
        states = [isotonic.eigenfunction(spec, k) for k in family.levels]
        header = ["x"] + [f"psi_{k}" for k in family.levels]
        rows = [[x] + [s.eval_x(x, omega) for s in states] for x in xs]
    _emit(_csv_text(header, rows), args.out)
    return 0


# -- parser ---------------------------------------------------------------------------


def _add_out(p):
    p.add_argument("--out", help="write output to this file instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Reads a token such as `-3/2` or `-1,2` as a value, not as an option
    (argparse only does so for integers and decimals); no option of this
    CLI starts with a dash and a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confluent-dbt",
        description="rational potential extensions from confluent Darboux chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", help="base polynomial families")
    csub = p.add_subparsers(dest="subcommand", required=True)
    d = csub.add_parser("dump", help="print one polynomial as JSON")
    d.add_argument("--family", choices=["jacobi", "laguerre"], required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--N", dest="big_n", type=int, required=True)
    d.add_argument("--M", dest="big_m", type=int, default=None)
    _add_out(d)
    d.set_defaults(func=_cmd_classical_dump)

    p = sub.add_parser("tdpt", help="trigonometric extension")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    b = tsub.add_parser("build", help="exact extension data as JSON")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--N", dest="big_n", type=int, required=True)
    b.add_argument("--M", dest="big_m", type=int, required=True)
    b.add_argument("--lambda1", type=_rational, required=True)
    b.add_argument("--kmax", type=_kmax, default=4)
    _add_out(b)
    b.set_defaults(func=_cmd_tdpt_build)
    w = tsub.add_parser("verify", help="per-spec checks")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--N", dest="big_n", type=int, required=True)
    w.add_argument("--M", dest="big_m", type=int, required=True)
    w.add_argument("--lambda1", type=_rational, required=True)
    w.add_argument("--suite", choices=TDPT_SUITES + ("all",), default="all")
    w.add_argument("--kmax", type=_kmax, default=4)
    w.add_argument("--grid-n", type=_grid_n, default=3000)
    _add_out(w)
    w.set_defaults(func=_cmd_tdpt_verify)
    t = tsub.add_parser("table", help="sampled CSV table")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--N", dest="big_n", type=int, required=True)
    t.add_argument("--M", dest="big_m", type=int, required=True)
    t.add_argument("--lambda1", type=_rational, required=True)
    t.add_argument("--kmax", type=_kmax, default=3)
    t.add_argument("--x-points", type=_grid, default=None, metavar="A:B:N")
    _add_out(t)
    t.set_defaults(func=_cmd_tdpt_table)

    p = sub.add_parser("isotonic", help="radial oscillator extension")
    isub = p.add_subparsers(dest="subcommand", required=True)
    b = isub.add_parser("build", help="exact extension data as JSON")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--N", dest="big_n", type=int, required=True)
    b.add_argument("--kmax", type=_kmax, default=5)
    _add_out(b)
    b.set_defaults(func=_cmd_isotonic_build)
    w = isub.add_parser("verify", help="per-spec checks")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--N", dest="big_n", type=int, required=True)
    w.add_argument("--suite", choices=ISO_SUITES + ("all",), default="all")
    w.add_argument("--omega", type=_positive_rational, default=Fraction(2))
    w.add_argument("--kmax", type=_kmax, default=4)
    w.add_argument("--grid-n", type=_grid_n, default=3000)
    _add_out(w)
    w.set_defaults(func=_cmd_isotonic_verify)
    t = isub.add_parser("table", help="sampled CSV table")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--N", dest="big_n", type=int, required=True)
    t.add_argument("--omega", type=_positive_rational, default=Fraction(1))
    t.add_argument("--kmax", type=_kmax, default=4)
    t.add_argument("--x-points", type=_grid, default=None, metavar="A:B:N")
    _add_out(t)
    t.set_defaults(func=_cmd_isotonic_table)

    p = sub.add_parser("chain", help="numeric transform chains")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    r = hsub.add_parser("run", help="sample an m-step chain as CSV")
    r.add_argument("--base", choices=["tdpt", "isotonic"], required=True)
    r.add_argument(
        "--params",
        type=_rational_list,
        required=True,
        help="tdpt: n,N,M; isotonic: n,N,omega",
    )
    r.add_argument("--m", type=int, default=None, help="step count (= constants + 1)")
    r.add_argument(
        "--lambdas",
        type=_rational_list,
        default=[],
        help="comma separated chain constants",
    )
    r.add_argument("--grid", type=_grid, default=None, metavar="A:B:N")
    r.add_argument("--x-start", type=float, default=None)
    r.add_argument("--full", action="store_true", help="also emit psi and both routes")
    _add_out(r)
    r.set_defaults(func=_cmd_chain_run)
    c = hsub.add_parser("crosscheck", help="numeric routes against the exact forms")
    c.add_argument("--base", choices=["tdpt", "isotonic"], required=True)
    c.add_argument("--which", choices=["two-step", "matveev"], required=True)
    c.add_argument(
        "--params",
        type=_rational_list,
        required=True,
        help="tdpt: n,N,M; isotonic: n,N,omega",
    )
    c.add_argument("--lambda1", type=_rational, default=None)
    c.add_argument("--grid", type=_grid, default=None, metavar="A:B:N")
    c.add_argument("--x-start", type=float, default=None)
    c.add_argument("--points", type=int, default=20)
    _add_out(c)
    c.set_defaults(func=_cmd_chain_crosscheck)

    p = sub.add_parser("verify", help="named checks and numeric oracles")
    p.add_argument(
        "selector",
        nargs="?",
        default="all",
        help="'all', a module, a check id, 'spectrum', or 'gram'",
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", dest="big_n", type=int, default=None)
    p.add_argument("--M", dest="big_m", type=int, default=None)
    p.add_argument("--lambda1", type=_rational, default=None)
    p.add_argument("--omega", type=_positive_rational, default=None)
    p.add_argument("--kmax", type=_kmax, default=None)
    p.add_argument("--grid-n", type=_grid_n, default=3000)
    p.add_argument("--params-file", default=None, help="JSON object of spec flags")
    p.add_argument("--potential-json", default=None, help="build output (spectrum)")
    p.add_argument("--levels", type=_int_from(1), default=None, help="level count (spectrum)")
    p.add_argument("--family-json", default=None, help="build output (gram)")
    _add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="plot-data emission")
    p.add_argument(
        "--kind",
        choices=["potential", "eigenfunction", "polynomial"],
        default="potential",
    )
    p.add_argument("--family", choices=["tdpt", "isotonic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", dest="big_n", type=int, required=True)
    p.add_argument("--M", dest="big_m", type=int, default=None)
    p.add_argument("--lambda1", type=_rational, default=None)
    p.add_argument("--omega", type=_positive_rational, default=None)
    p.add_argument("--kmax", type=_kmax, default=3)
    p.add_argument("--x-points", type=_grid, default=None, metavar="A:B:N")
    _add_out(p)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
