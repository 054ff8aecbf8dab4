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
`a:b:n` with finite endpoints.  JSON outputs carry a top-level "schema"
field and sorted keys; CSV cells use 17 significant digits.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or validation
error, such as an input the command does not read.  File inputs
(`--params-file`, `--potential-json`, `--family-json`) exit 2 too when the
file is missing, is not a JSON object, or holds a field its flag would
refuse; each spec field has one parser, whether it comes from a flag, a
file or chain `--params`.

What the families differ in on the numeric side (levels, x-map and units,
x-domain, Gram interval, spectrum window) is read through `_FAMILY` from
the numeric description at the end of each family's module.

The commands that sample floats live in `floatcmds` and the suite checks
in `suite`; each module loads at its first use, so an exact command
compiles neither.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

# set before numpy loads OpenBLAS: the package's matrix products are tiny
# (DOP853 stage sums, 21-node rules), and a worker thread would only spin.
# numpy loads in the commands that compute with floats, at first use.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import classical, isotonic, reports, tdpt


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


# the coarse spectrum grid must hold more unknowns than the levels solved for
_grid_n = _int_from(reports.SPECTRUM_LEVELS + 1)

# The one parser of each spec field, wherever the value comes from: a flag,
# a key of a params file or of a build JSON's spec, or a position of chain
# --params.  The spec classes check the ranges of n, N and M.
_FIELDS = {
    "n": int,
    "N": int,
    "M": int,
    "lambda1": _rational,
    "omega": _positive_rational,
    "kmax": _int_from(0),
}


_DEST = {"N": "big_n", "M": "big_m"}  # namespace names of the capital flags

# the spec fields of each family, in flag order
_SPEC_FIELDS = {"tdpt": ("n", "N", "M", "lambda1"), "isotonic": ("n", "N")}
# the module of each family: its construction and its numeric description
_FAMILY = {"tdpt": tdpt, "isotonic": isotonic}

# every input a command may leave unread, in the order a refusal names them;
# each is None unless given
_INPUTS = (*_FIELDS, "grid_n", "levels", "potential_json", "family_json",
           "params_file", "x_points")


def _spec(family: str, args):
    """The spec of `family` from its flags; a tdpt lambda1 not given is 1."""
    if family == "isotonic":
        return isotonic.IsotonicSpec(args.n, args.big_n)
    lam = args.lambda1 if args.lambda1 is not None else Fraction(1)
    return tdpt.TdptSpec(args.n, args.big_n, args.big_m, lam)


def _omega(args) -> float:
    """The frequency of a numeric command, 1 unless given (tdpt reads none)."""
    return float(args.omega if args.omega is not None else Fraction(1))


def _inside(family: str, what: str, lo, hi) -> None:
    """Refuse points from lo to hi outside the open x-domain of `family`."""
    end, domain = _FAMILY[family].DOMAIN
    if not (lo > 0.0 and hi < end):
        raise ValueError(f"{family} {what} must lie inside {domain}")


def _add_field(p, key, **kwargs):
    p.add_argument(f"--{key}", dest=_DEST.get(key, key), type=_FIELDS[key], **kwargs)


@cache
def _field_parser() -> argparse.ArgumentParser:
    """Every spec flag, unset by default: the flags of `verify`, and the
    parser of spec fields read from files and chain --params."""
    p = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    for key in _FIELDS:
        _add_field(p, key)
    return p


def _parse_fields(what: str, fields: dict) -> argparse.Namespace:
    """Parse the spec fields among `fields` as their flags would be; a value
    a flag refuses makes the input a malformed <what>."""
    tokens = [f"--{key}={value}" for key, value in fields.items() if key in _FIELDS]
    try:
        return _field_parser().parse_args(tokens)
    except argparse.ArgumentError as exc:
        raise ValueError(
            f"malformed {what}: {exc.argument_name.lstrip('-')}: {exc.message}"
        ) from None


def _items(text: str) -> list:
    """The nonblank items of a comma separated list."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _rational_list(text: str) -> list:
    return [_rational(part) for part in _items(text)]


def _finite_float(text: str) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _grid(text: str):
    """The numpy array of the grid `a:b:n`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be a:b:n, got {text!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise argparse.ArgumentTypeError(f"grid endpoints must be finite: {text!r}")
    if n < 2 or not a < b:
        raise argparse.ArgumentTypeError(f"degenerate grid: {text!r}")
    import numpy as np

    return np.linspace(a, b, n)


def _load_json(path: str, what: str) -> dict:
    """The JSON object in a file; a file that cannot be read is refused as
    such, and content that is not a JSON object is a malformed <what>."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what}: expected a JSON object")
    return data


# -- output -----------------------------------------------------------------------


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` and a newline.

    Written here because `json` ignores its C encoder when given an
    indent; the containers are walked as `json` walks them, and every
    scalar but a string is left to `json.dumps`."""
    return _json_value(payload, "\n") + "\n"


def _json_value(value, nl: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        ends, items = "[]", [_json_value(v, inner) for v in value]
    elif isinstance(value, dict):
        ends, items = "{}", [
            _json_key(k) + ": " + _json_value(v, inner)
            for k, v in sorted(value.items())
        ]
    else:
        return json.dumps(value)
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + nl + ends[1]


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + json.dumps(key) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _emit_json(payload: dict, out_path) -> None:
    """Write a JSON payload, with the report schema."""
    _emit(_json_text({"schema": reports.SCHEMA, **payload}), out_path)


def _emit_reports(payload: dict, out_path) -> int:
    """Write a report envelope (it carries its schema); exit 1 if a check failed."""
    _emit(_json_text(payload), out_path)
    return 1 if payload["failed"] else 0


def _given(args, key: str) -> bool:
    return getattr(args, _DEST.get(key, key), None) is not None


def _refuse_unread(args, command: str, reads) -> None:
    """Refuse every input given to `command` that it does not read."""
    unread = [
        "--" + key.replace("_", "-")
        for key in _INPUTS
        if key not in reads and _given(args, key)
    ]
    if unread:
        raise ValueError(f"{command} does not read {', '.join(unread)}")


# -- classical ----------------------------------------------------------------------


def _cmd_classical_dump(args) -> int:
    fields = {"n": args.n, "N": args.big_n}
    if args.family == "jacobi":
        if args.big_m is None:
            raise ValueError("--M is required for the jacobi family")
        fields["M"] = args.big_m
    _refuse_unread(args, f"classical dump --family {args.family}", fields)
    build = classical.jacobi if args.family == "jacobi" else classical.laguerre
    poly = build(*fields.values())
    _emit_json(dict(fields, family=args.family, polynomial=poly.to_json()), args.out)
    return 0


# -- tdpt ---------------------------------------------------------------------------


def _cmd_tdpt_build(args) -> int:
    spec = _spec("tdpt", args)
    pot = tdpt.extended_potential(spec)  # rejects the forbidden window
    base = spec.base
    payload = {
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
    _emit_json(payload, args.out)
    return 0


# -- isotonic -------------------------------------------------------------------------


def _cmd_isotonic_build(args) -> int:
    spec = _spec("isotonic", args)
    pot = isotonic.extended_potential(spec)
    rootless, _ = isotonic.rootless_certificate(spec.n, spec.N)
    levels = isotonic.levels(spec, args.kmax)
    payload = {
        "family": "isotonic",
        "spec": spec.as_dict(),
        "q": isotonic.q_poly(spec.n, spec.N).to_json(),
        "q_at_zero": str(isotonic.q_at_zero(spec.n, spec.N)),
        "rootless": rootless,
        "l_tilde": {str(k): isotonic.l_tilde(spec, k).to_json() for k in levels},
        "correction_units": pot.correction.to_json(),
        "zform_units": pot.z_form.to_json(),
        "deleted_level": spec.n,
        "levels": list(levels),
        "energies_units": [str(2 * k) for k in levels],
    }
    _emit_json(payload, args.out)
    return 0


# -- float commands -------------------------------------------------------------------


def _float_command(name: str):
    """The function `name` of `floatcmds`, which is imported at the first
    call, so an exact command compiles no command that samples floats."""

    def run(*args, **kwargs):
        from . import floatcmds

        return getattr(floatcmds, name)(*args, **kwargs)

    return run


_sampled_table = _float_command("_sampled_table")


# -- verify ---------------------------------------------------------------------------


def _spec_reads(family: str, names) -> set:
    """The inputs the per-spec checks `names` of `family` read: the spec, what
    each check declares, and kmax, which every per-spec report records (the
    benchmark pool passes --kmax to every suite)."""
    checks = reports.SPEC_CHECKS[family]
    return {*_SPEC_FIELDS[family], "kmax"}.union(*(checks[n].reads for n in names))


def _cmd_spec_verify(args) -> int:
    """`tdpt verify` and `isotonic verify`."""
    family = args.command
    names = list(reports.SPEC_CHECKS[family]) if args.suite == "all" else [args.suite]
    command = f"{family} verify --suite {args.suite}"
    _refuse_unread(args, command, _spec_reads(family, names))
    spec = _spec(family, args)
    report_list = reports.run_spec_checks(
        family, names, spec, args.kmax, args.grid_n, args.omega
    )
    return _emit_reports(
        reports.envelope(report_list, family=family, spec=spec.as_dict()), args.out
    )


# the verify forms that take no spec: what they read and how they run
_ORACLES = {
    "spectrum": (("potential_json", "levels", "grid_n", "omega"),
                 _float_command("_cmd_verify_spectrum")),
    "gram": (("family_json", "omega"), _float_command("_cmd_verify_gram")),
}


def _cmd_verify(args) -> int:
    selector = args.selector
    command = f"verify {selector}"
    if selector in _ORACLES:
        reads, run = _ORACLES[selector]
        _refuse_unread(args, command, reads)
        return run(args)

    family, _, name = selector.partition(".")
    given = any(_given(args, key) for key in (*_FIELDS, "params_file"))
    # a per-spec id given spec flags runs without loading the suite checks
    if name in reports.SPEC_CHECKS.get(family, ()) and (
        given or selector not in reports._by_id()
    ):
        if args.params_file:
            # a flag given on the command line wins over the file
            data = _load_json(args.params_file, "params file")
            if unread := [key for key in data if key not in _FIELDS]:
                raise ValueError(
                    f"{command} does not read {', '.join(unread)} from --params-file"
                )
            for dest, value in vars(_parse_fields("params file", data)).items():
                if getattr(args, dest) is None:
                    setattr(args, dest, value)
        _refuse_unread(args, command, _spec_reads(family, [name]) | {"params_file"})
        # a tdpt lambda1 not given is 1
        needed = [key for key in _SPEC_FIELDS[family] if key != "lambda1"]
        if not all(_given(args, key) for key in needed):
            flags = [f"--{key}" for key in needed]
            raise ValueError(
                f"{command} is a per-spec check and needs "
                f"{', '.join(flags[:-1])} and {flags[-1]}"
            )
        report_list = reports.run_spec_checks(
            family, [name], _spec(family, args), args.kmax, args.grid_n, args.omega
        )
        return _emit_reports(reports.envelope(report_list, selector=selector), args.out)

    try:
        reports.select_checks(selector)
    except KeyError:
        raise ValueError(f"unknown check or module: {selector}") from None
    _refuse_unread(args, command, ())
    return _emit_reports(reports.run_suite(selector), args.out)


# -- table ----------------------------------------------------------------------------


def _cmd_family_table(args) -> int:
    """`tdpt table` and `isotonic table`: potentials and eigenfunctions."""
    return _sampled_table(args.command, args, potential=True, states=True)


def _cmd_table(args) -> int:
    reads = set(_SPEC_FIELDS[args.family])
    if args.kind != "potential":
        reads.add("kmax")
    if args.kind != "polynomial":
        reads |= {"x_points", *_FAMILY[args.family].INPUTS}
    _refuse_unread(args, f"table --kind {args.kind} --family {args.family}", reads)
    args.kmax = 3 if args.kmax is None else args.kmax
    if args.family == "tdpt" and (args.big_m is None or args.lambda1 is None):
        raise ValueError("tdpt tables need --M and --lambda1")
    if args.kind != "polynomial":
        return _sampled_table(
            args.family,
            args,
            potential=args.kind == "potential",
            states=args.kind == "eigenfunction",
        )
    fam, spec = _FAMILY[args.family], _spec(args.family, args)
    payload = {
        "family": args.family,
        "spec": spec.as_dict(),
        "polynomials": {
            str(k): fam.exceptional(spec, k).to_json()
            for k in fam.levels(spec, args.kmax)
        },
    }
    _emit_json(payload, args.out)
    return 0


# -- parser ---------------------------------------------------------------------------


def _add_out(p):
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_spec(p, family, *optional):
    """The spec flags of `family`, then the `optional` flags."""
    for key in _SPEC_FIELDS[family]:
        _add_field(p, key, required=True)
    for key in optional:
        _add_field(p, key)


def _add_verify_args(p, family):
    names = tuple(reports.SPEC_CHECKS[family])
    p.add_argument("--suite", choices=names + ("all",), default="all")
    _add_field(p, "kmax")
    p.add_argument("--grid-n", type=_grid_n, default=None)
    _add_out(p)


def _add_chain_base(p):
    p.add_argument("--base", choices=["tdpt", "isotonic"], required=True)
    p.add_argument(
        "--params", type=_items, required=True, help="tdpt: n,N,M; isotonic: n,N,omega"
    )


class _Parser(argparse.ArgumentParser):
    """Reads a token such as `-3/2` or `-1,2` as a value, not as an option
    (argparse only does so for integers and decimals); no option of this
    CLI starts with a dash and a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and reused by
    `main`: argparse gives each call a fresh namespace, and no command
    mutates a default (such as the shared `--lambdas` list)."""
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

    # each family's help line, build command, and --kmax of build and table
    for family, text, build, build_kmax, table_kmax in (
        ("tdpt", "trigonometric extension", _cmd_tdpt_build, 4, 3),
        ("isotonic", "radial oscillator extension", _cmd_isotonic_build, 5, 4),
    ):
        inputs = _FAMILY[family].INPUTS
        fsub = sub.add_parser(family, help=text).add_subparsers(
            dest="subcommand", required=True
        )
        b = fsub.add_parser("build", help="exact extension data as JSON")
        _add_spec(b, family)
        _add_field(b, "kmax", default=build_kmax)
        _add_out(b)
        b.set_defaults(func=build)
        w = fsub.add_parser("verify", help="per-spec checks")
        _add_spec(w, family, *inputs)
        _add_verify_args(w, family)
        w.set_defaults(func=_cmd_spec_verify, omega=None)
        t = fsub.add_parser("table", help="sampled CSV table")
        _add_spec(t, family, *inputs)
        _add_field(t, "kmax", default=table_kmax)
        t.add_argument("--x-points", type=_grid, default=None, metavar="A:B:N")
        _add_out(t)
        t.set_defaults(func=_cmd_family_table, omega=None)

    p = sub.add_parser("chain", help="numeric transform chains")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    r = hsub.add_parser("run", help="sample an m-step chain as CSV")
    _add_chain_base(r)
    r.add_argument("--m", type=int, default=None, help="step count (= constants + 1)")
    r.add_argument(
        "--lambdas",
        type=_rational_list,
        default=[],
        help="comma separated chain constants",
    )
    r.add_argument("--grid", type=_grid, default=None, metavar="A:B:N")
    r.add_argument("--x-start", type=_finite_float, default=None)
    r.add_argument("--full", action="store_true", help="also emit psi and both routes")
    _add_out(r)
    r.set_defaults(func=_float_command("_cmd_chain_run"))
    c = hsub.add_parser("crosscheck", help="numeric routes against the exact forms")
    _add_chain_base(c)
    c.add_argument("--which", choices=["two-step", "matveev"], required=True)
    _add_field(c, "lambda1")
    c.add_argument("--points", type=_int_from(1), default=20)
    _add_out(c)
    c.set_defaults(func=_float_command("_cmd_chain_crosscheck"))

    p = sub.add_parser(
        "verify", parents=[_field_parser()], help="named checks and numeric oracles"
    )
    p.add_argument(
        "selector",
        nargs="?",
        default="all",
        help="'all', a module, a check id, 'spectrum', or 'gram'",
    )
    p.add_argument("--grid-n", type=_grid_n, default=None)
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
    for key in _SPEC_FIELDS["tdpt"]:
        _add_field(p, key, required=key in _SPEC_FIELDS["isotonic"])
    _add_field(p, "omega")
    _add_field(p, "kmax")
    p.add_argument("--x-points", type=_grid, default=None, metavar="A:B:N")
    _add_out(p)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    """Run one command: bad input and running out of memory exit 2, and any
    other exception is a defect that propagates."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # a grid is allocated here
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
