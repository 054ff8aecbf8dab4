"""The commands that sample floats: sampled tables, `chain run`, `chain
crosscheck`, `verify spectrum` and `verify gram`.

`cli` registers each of them through a trampoline that imports this module
at its first call, so an exact command never compiles them.  They read
the parser's helpers and the families' numeric descriptions from `cli`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from . import chains, isotonic, reports, tdpt, verify
from .cli import (_FAMILY, _SPEC_FIELDS, _emit, _emit_json, _emit_reports, _grid, _inside,
                  _load_json, _omega, _parse_fields, _refuse_unread, _spec)
from .exactalg import ExtendedPotential, RationalFn


def _load_build(path: str, what: str):
    """A `tdpt|isotonic build` JSON: (data, family, the `ExtendedPotential`
    of its z-form).  The spec must be an object and a z-form a serialised
    rational function; family and potential are None when the file names
    neither."""
    data = _load_json(path, what)
    if not isinstance(data.get("spec", {}), dict):
        raise ValueError(f"malformed {what}: spec: expected a JSON object")
    for key, family in (("z_form", "tdpt"), ("zform_units", "isotonic")):
        if key in data:
            try:
                rat = RationalFn.from_json(data[key])
            except (TypeError, ValueError, KeyError, ZeroDivisionError):
                raise ValueError(
                    f"malformed {what}: {key}: not a serialised rational function"
                ) from None
            gauge = _FAMILY[family].GAUGE
            return data, family, ExtendedPotential(gauge, None, rat)
    return data, data.get("family"), None


def _csv_text(header, rows) -> str:
    # rows are tuples, each written by one format string: %.17g per value
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(fmt % row for row in rows)
    return "\n".join(lines) + "\n"


# -- chain ----------------------------------------------------------------------------


def _chain_setup(args):
    """Seed, base potential and parameter label from --base and --params,
    and the grid and anchor (a function of the grid) of `chain run`."""
    import numpy as np

    keys = ("n", "N", "M") if args.base == "tdpt" else ("n", "N", "omega")
    if len(args.params) != 3:
        raise ValueError(f"{args.base} --params must be {','.join(keys)}")
    p = _parse_fields("chain --params", dict(zip(keys, args.params)))
    # the spec validates the fields (a chain takes no lambda1)
    if args.base == "tdpt":
        spec = tdpt.TdptSpec(p.n, p.big_n, p.big_m, 0)
        seed, v = chains.tdpt_seed(spec.n, spec.N, spec.M)
        label = {"n": spec.n, "N": spec.N, "M": spec.M}
        return seed, v, label, _grid("0.05:1.52:120"), lambda xs: math.pi / 2 - 1e-3
    spec = isotonic.IsotonicSpec(p.n, p.big_n)
    seed, v = chains.isotonic_seed(spec.n, spec.N, float(p.omega))
    label = {"n": spec.n, "N": spec.N, "omega": str(p.omega)}
    sqrt_omega = math.sqrt(float(p.omega))
    xs = np.linspace(0.1 / sqrt_omega, 4.0 / sqrt_omega, 120)
    # anchoring at the left edge keeps every accumulated integral
    # nonnegative, so positive chain constants stay regular
    return seed, v, label, xs, lambda xs: float(xs[0])


def _cmd_chain_run(args) -> int:
    seed, v, label, xs, x_start = _chain_setup(args)
    xs = xs if args.grid is None else args.grid
    x_start = x_start(xs) if args.x_start is None else args.x_start
    _inside(args.base, "chain points", xs[0], xs[-1])
    _inside(args.base, "chain --x-start", x_start, x_start)
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
    import numpy as np

    reads = ("lambda1",) if args.which == "two-step" else ()
    _refuse_unread(args, f"chain crosscheck --which {args.which}", reads)
    if args.which == "matveev" and args.base != "tdpt":
        raise ValueError(
            "the energy-derivative route is anchored at the right endpoint "
            "and only supports the tdpt base"
        )
    seed, v, label, *_ = _chain_setup(args)

    if args.which == "two-step":
        lam = args.lambda1 if args.lambda1 is not None else Fraction(1)
        if args.base == "tdpt":
            spec = tdpt.TdptSpec(label["n"], label["N"], label["M"], lam)
            omega, lo, hi = 1.0, 0.15, math.pi / 2 - 0.15
        else:
            if lam != 0:
                raise ValueError(
                    "the exact radial extension fixes lambda1 = 0 "
                    "(integral anchored at infinity); pass --lambda1 0"
                )
            spec = isotonic.IsotonicSpec(label["n"], label["N"])
            omega = float(Fraction(label["omega"]))
            lo, hi = 0.3 / math.sqrt(omega), 3.5 / math.sqrt(omega)
        pot = _FAMILY[args.base].extended_potential(spec)
        pts = np.linspace(lo, hi, args.points)
        params = dict(label, **spec.as_dict(), points=args.points)
        vt, _t = chains.confluent_two_step(seed, v, float(lam))

        def body():
            ex = pot.v(pts, omega)
            scale = max(1.0, verify.worst(np.abs(ex)))
            worst = verify.worst(np.abs(vt(pts) - ex)) / scale
            p = dict(params, tolerance=1e-9)
            return worst < 1e-9, p, (
                f"max relative deviation from the exact form {reports._fmt(worst)}"
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
                f"potential route deviation {reports._fmt(pot_rel)}, "
                f"Wronskian identity deviation {reports._fmt(w_rel)}"
            )

        report = reports.make_report("chain.matveev", body)

    return _emit_reports(
        reports.envelope([report], which=args.which, base=args.base), args.out
    )


# -- verify ---------------------------------------------------------------------------


def _cmd_verify_spectrum(args) -> int:
    if not args.potential_json or args.levels is None:
        raise ValueError("verify spectrum needs --potential-json and --levels")
    _, family, pot = _load_build(args.potential_json, "potential JSON")
    if pot is None:
        raise ValueError(
            "potential JSON must carry a z_form or zform_units field"
        )
    fam = _FAMILY[family]
    reads = ("potential_json", "levels", "grid_n", *fam.INPUTS)
    _refuse_unread(args, f"verify spectrum of a {family} potential", reads)
    omega = _omega(args)
    grid_n = args.grid_n if args.grid_n is not None else reports.GRID_N
    # the file does not name a deleted level: the window reaches one level up
    window = fam.window(omega, args.levels)
    result = verify.dirichlet_spectrum(
        lambda x: pot.v(x, omega), *window, args.levels, grid_n
    )
    _emit_json({"spectrum": result._asdict()}, args.out)
    return 0


def _cmd_verify_gram(args) -> int:
    if not args.family_json:
        raise ValueError("verify gram needs --family-json")
    what = "family JSON"
    data, family, _ = _load_build(args.family_json, what)
    if family not in ("tdpt", "isotonic"):
        raise ValueError("family JSON must identify a tdpt or isotonic family")
    # where the file keeps its level numbers, and how many levels it reads
    # without them
    key, container, kind, count = {
        "tdpt": ("p_tilde", dict, "a JSON object", 7),
        "isotonic": ("levels", list, "a JSON list", 6),
    }[family]
    if not isinstance(data.get(key, container()), container):
        raise ValueError(f"malformed {what}: {key}: expected {kind}")
    spec_data, needed = data.get("spec", {}), _SPEC_FIELDS[family]
    if not set(needed) <= spec_data.keys():
        raise ValueError(f"malformed {what}: spec needs {', '.join(needed)}")
    spec = _spec(family, _parse_fields(f"{what}: spec", spec_data))
    levels = [_parse_fields(f"{what}: {key}", {"n": k}).n for k in data.get(key, ())]
    fam = _FAMILY[family]
    reads = ("family_json", *fam.INPUTS)
    _refuse_unread(args, f"verify gram of a {family} family", reads)
    if family == "tdpt":  # the Gram matrix is what the ortho check reads
        reports.refuse_tdpt(spec, ("ortho",))
    if container is dict:  # the keys of an object carry no order
        levels = sorted(levels)
    repeated = [k for k in levels if levels.count(k) > 1]
    if repeated:  # a level's overlap with itself measures no orthogonality
        raise ValueError(f"verify gram needs distinct levels; {what} lists "
                         f"{repeated[0]} more than once")
    levels = levels or [k for k in fam.levels(spec, count) if k < count]
    if len(levels) < 2:  # a Gram matrix needs an off-diagonal entry
        raise ValueError(f"verify gram needs at least two levels; {what} "
                         f"lists {len(levels)}")
    omega, ext = _omega(args), fam.confluent(spec)
    fns = [partial(ext.state(k).eval_x, omega=omega) for k in levels]
    vals, results = verify.gram_matrix(fns, *fam.GRAM_INTERVAL)
    payload = {
        "spec": spec.as_dict(),
        "levels": levels,
        "gram": [[float(v) for v in row] for row in vals],
        "abs_error": [[float(r.abs_error) for r in row] for row in results],
        "converged": all(r.converged for row in results for r in row),
        "max_offdiagonal_relative": float(verify.max_offdiagonal_relative(vals)),
    }
    _emit_json(payload, args.out)
    return 0


# -- table ----------------------------------------------------------------------------


def _sampled_table(family: str, args, potential: bool, states: bool) -> int:
    """CSV of the base and extended potentials and/or the eigenfunctions on
    the table grid, which must lie inside the open domain where both
    potentials are finite; a value that overflows is refused, not written."""
    import numpy as np

    fam = _FAMILY[family]
    spec = _spec(family, args)
    pot = fam.extended_potential(spec)  # tdpt: rejects the window
    omega, levels = _omega(args), fam.levels(spec, args.kmax)
    xs = args.x_points
    if xs is None:
        xs = np.linspace(*fam.table_grid(omega))  # in the family's units
    _inside(family, "table points", xs[0], xs[-1])
    header, columns = ["x"], []
    if potential:
        header += ["v_base", "v_ext"]
        columns += [spec.base.v, pot.v]
    if states:
        ext = fam.confluent(spec)
        header += [f"psi_{k}" for k in levels]
        columns += [ext.state(k).eval_x for k in levels]
    # each column is one array evaluation over all the points
    with np.errstate(all="ignore"):
        values = [f(xs, omega) for f in columns]
    for name, col in zip(header[1:], values):
        if (bad := np.flatnonzero(~np.isfinite(col))).size:
            raise ValueError(f"{name} is not finite at x = {float(xs[bad[0]])!r}")
    rows = zip(xs.tolist(), *(col.tolist() for col in values))
    _emit(_csv_text(header, rows), args.out)
    return 0
