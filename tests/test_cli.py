import functools
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confluent_dbt import (chains, classical, cli, exactalg, floatcmds, isotonic, reports,
                           tdpt, verify)
from confluent_dbt.exactalg import ExactPoly, RationalFn


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def poly_from_json(data):
    return ExactPoly([Fraction(int(p), int(q)) for p, q in data["coeffs"]])


# -- argument handling ----------------------------------------------------------


def test_float_lambda1_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["tdpt", "build", "--n", "0", "--N", "1", "--M", "1",
                  "--lambda1", "0.5"])
    assert exc.value.code == 2


def test_exponent_notation_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["isotonic", "verify", "--n", "1", "--N", "1",
                  "--omega", "1e2"])
    assert exc.value.code == 2


def test_rational_accepts_fractions_and_negatives():
    assert cli._rational("-3/4") == Fraction(-3, 4)
    assert cli._rational("7") == Fraction(7)
    assert cli._rational_list("1, -1/2,3") == [
        Fraction(1), Fraction(-1, 2), Fraction(3)
    ]


def test_negative_rational_option_value(capsys):
    spaced = run_cli(capsys, "tdpt", "build", "--n", "0", "--N", "1", "--M", "1",
                     "--lambda1", "-3/2", "--kmax", "1")
    joined = run_cli(capsys, "tdpt", "build", "--n", "0", "--N", "1", "--M", "1",
                     "--lambda1=-3/2", "--kmax", "1")
    assert spaced[0] == 0
    assert spaced == joined
    assert json.loads(spaced[1])["spec"]["lambda1"] == "-3/2"


@pytest.mark.parametrize("argv", [
    # a zero frequency makes every state vanish: the Gram matrix is 0/0
    ["isotonic", "verify", "--n", "1", "--N", "1", "--omega", "0",
     "--suite", "ortho"],
    ["verify", "isotonic.ortho", "--n", "1", "--N", "1", "--omega", "-1"],
    ["table", "--kind", "potential", "--family", "isotonic", "--n", "1",
     "--N", "1", "--omega", "0"],
    ["tdpt", "verify", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1",
     "--kmax", "-1", "--suite", "ode"],
    ["isotonic", "build", "--n", "1", "--N", "1", "--kmax", "-1"],
    ["tdpt", "verify", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1",
     "--grid-n", "0", "--suite", "spectrum"],
    # crosscheck samples its own points: it takes no grid and no anchor
    ["chain", "crosscheck", "--base", "tdpt", "--which", "two-step",
     "--params", "0,1,1", "--lambda1", "1", "--grid", "0:1:3"],
    ["chain", "crosscheck", "--base", "tdpt", "--which", "two-step",
     "--params", "0,1,1", "--lambda1", "1", "--x-start", "7"],
    # a crosscheck needs at least one sample point
    ["chain", "crosscheck", "--base", "tdpt", "--which", "two-step",
     "--params", "0,1,1", "--lambda1", "1", "--points", "0"],
    ["chain", "crosscheck", "--base", "tdpt", "--which", "matveev",
     "--params", "0,1,1", "--points", "0"],
    ["chain", "crosscheck", "--base", "tdpt", "--which", "matveev",
     "--params", "0,1,1", "--points", "-3"],
    # a single level leaves no pair for the orthogonality check
    ["tdpt", "verify", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1",
     "--suite", "ortho", "--kmax", "0"],
    ["isotonic", "verify", "--n", "0", "--N", "1", "--suite", "ortho",
     "--kmax", "0"],
    ["isotonic", "verify", "--n", "0", "--N", "1", "--suite", "all",
     "--kmax", "1"],
    ["verify", "tdpt.ortho", "--n", "0", "--N", "1", "--M", "1",
     "--lambda1", "1", "--kmax", "0"],
    # at lambda1 = 0 the level-n state is not square integrable
    ["tdpt", "verify", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "0",
     "--kmax", "2", "--suite", "ortho"],
    ["tdpt", "verify", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "0",
     "--kmax", "2", "--suite", "spectrum"],
    ["tdpt", "verify", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "0",
     "--kmax", "2", "--suite", "all"],
    ["verify", "tdpt.ortho", "--n", "0", "--N", "1", "--M", "1",
     "--lambda1", "0", "--kmax", "2"],
    # sampling input must be finite
    ["isotonic", "table", "--n", "1", "--N", "1", "--x-points", "0.05:inf:4"],
    ["chain", "run", "--base", "tdpt", "--params", "0,1,1", "--lambdas", "1",
     "--x-start", "inf"],
    # chain points and anchor must lie inside the base's open domain
    ["chain", "run", "--base", "isotonic", "--params", "0,1,1",
     "--grid=-2:-1:5", "--lambdas", "1"],
    ["chain", "run", "--base", "isotonic", "--params", "0,1,1",
     "--x-start=-1", "--lambdas", "1"],
    ["chain", "run", "--base", "tdpt", "--params", "0,1,1",
     "--grid=-1:-0.5:5", "--lambdas", "1"],
    ["chain", "run", "--base", "tdpt", "--params", "0,1,1",
     "--x-start", "5", "--lambdas", "1"],
])
def test_degenerate_arguments_exit_2(capsys, argv):
    # argparse refuses by raising SystemExit; a refusal after parsing
    # returns 2: the console script exits with status 2 either way
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


_BUILDS = {
    "tdpt": ["tdpt", "build", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1"],
    "isotonic": ["isotonic", "build", "--n", "1", "--N", "1"],
}
# a command reading each kind of input file; FILE stands for its path
_READERS = {
    "params": ["verify", "tdpt.ode", "--params-file", "FILE"],
    "potential": ["verify", "spectrum", "--levels", "4", "--potential-json", "FILE"],
    "family": ["verify", "gram", "--family-json", "FILE"],
}


def _edit(**fields):
    return lambda data: dict(data, **fields)


def _edit_spec(**fields):
    return lambda data: dict(data, spec=dict(data["spec"], **fields))


# a negative level in chain --params, refused by the spec it belongs to
NEGATIVE_LEVEL_CHAINS = {
    "chain-run-tdpt-n-negative":
        ["chain", "run", "--base", "tdpt", "--params", "-1,1,1", "--lambdas", "1"],
    "chain-run-isotonic-n-negative":
        ["chain", "run", "--base", "isotonic", "--params", "-1,1,1",
         "--lambdas", "1"],
    "chain-crosscheck-n-negative":
        ["chain", "crosscheck", "--base", "tdpt", "--which", "matveev",
         "--params", "-1,1,1"],
}

MALFORMED_INPUTS = [
    # no file, no JSON, and JSON that is not an object
    *[pytest.param(argv, None, text, id=f"{reader}-{name}")
      for reader, argv in _READERS.items()
      for name, text in [("missing", None), ("invalid", "{nope"),
                         ("list", "[1]"), ("number", "42")]],
    # each spec field goes through its flag's parser
    pytest.param(_READERS["params"], None, '{"n": "5/2", "N": 1, "M": 1}',
                 id="params-n-fraction"),
    pytest.param(_READERS["params"], None, '{"n": 1.9, "N": 1, "M": 1}',
                 id="params-n-float"),
    pytest.param(_READERS["params"], None,
                 '{"n": 1, "N": 1, "M": 1, "lambda1": "0.5e1"}',
                 id="params-lambda1-exponent"),
    pytest.param(_READERS["params"], None, '{"n": 1, "N": 1, "omega": 0}',
                 id="params-omega-zero"),
    # the rest of a build JSON is checked at the same boundary
    pytest.param(_READERS["potential"], "tdpt", _edit(spec=5),
                 id="potential-spec-number"),
    pytest.param(_READERS["potential"], "tdpt", _edit(z_form=3),
                 id="potential-z_form-number"),
    pytest.param(_READERS["potential"], "isotonic", _edit(zform_units=3),
                 id="potential-zform_units-number"),
    pytest.param(_READERS["family"], "tdpt", _edit(spec=5),
                 id="family-spec-number"),
    pytest.param(_READERS["family"], "isotonic", _edit(spec=[1]),
                 id="family-spec-list"),
    pytest.param(_READERS["family"], "tdpt", _edit_spec(n="5/2"),
                 id="family-n-fraction"),
    pytest.param(_READERS["family"], "tdpt", _edit_spec(n=1.9),
                 id="family-tdpt-n-float"),
    pytest.param(_READERS["family"], "isotonic", _edit_spec(n=1.9),
                 id="family-isotonic-n-float"),
    pytest.param(_READERS["family"], "tdpt", _edit_spec(lambda1="0.5e1"),
                 id="family-lambda1-exponent"),
    pytest.param(_READERS["family"], "isotonic", _edit(levels=5),
                 id="family-levels-number"),
    pytest.param(_READERS["family"], "isotonic", _edit(levels=[0, 2.5]),
                 id="family-levels-float"),
    pytest.param(_READERS["family"], "tdpt", _edit(p_tilde=[1]),
                 id="family-p_tilde-list"),
    pytest.param(_READERS["family"], "tdpt", _edit(z_form=3),
                 id="family-z_form-number"),
    pytest.param(_READERS["family"], "isotonic", _edit(zform_units=3),
                 id="family-zform_units-number"),
    # chain --params positions go through the same parsers
    pytest.param(["chain", "run", "--base", "tdpt", "--params", "5/2,1,1",
                  "--lambdas", "1"], None, None, id="chain-run-n-fraction"),
    pytest.param(["chain", "crosscheck", "--base", "tdpt", "--which",
                  "two-step", "--params", "5/2,1,1", "--lambda1", "-1"],
                 None, None, id="chain-crosscheck-n-fraction"),
    pytest.param(["chain", "run", "--base", "isotonic", "--params", "1,1,0",
                  "--lambdas", "1"], None, None, id="chain-run-omega-zero"),
    *(pytest.param(argv, None, None, id=name)
      for name, argv in NEGATIVE_LEVEL_CHAINS.items()),
]


@pytest.mark.parametrize("argv,build,content", MALFORMED_INPUTS)
def test_malformed_input_exit_2(capsys, tmp_path, argv, build, content):
    path = tmp_path / "input.json"
    if build is not None:
        assert cli.main(_BUILDS[build] + ["--out", str(path)]) == 0
        content = json.dumps(content(json.loads(path.read_text())))
    if content is not None:
        path.write_text(content)
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err and out == ""
    if argv in NEGATIVE_LEVEL_CHAINS.values():
        assert err == "error: level n must be >= 0\n"


@pytest.mark.parametrize("reader,what", [
    ("params", "params file"), ("potential", "potential JSON"), ("family", "family JSON"),
])
def test_missing_input_file_is_refused_as_unreadable(capsys, tmp_path, reader, what):
    # a file that cannot be opened is not a malformed one
    path = str(tmp_path / "absent.json")
    code, out, err = run_cli(capsys, *(path if a == "FILE" else a for a in _READERS[reader]))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {what}: [Errno 2] No such file or directory: {path!r}\n"


def test_params_file_omega_validated(capsys, tmp_path):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"n": 1, "N": 1, "omega": "0"}))
    code, out, err = run_cli(capsys, "verify", "isotonic.ortho",
                             "--params-file", str(pf))
    assert code == 2
    assert "omega" in err


@pytest.mark.parametrize("suite", ["ode", "ortho", "spectrum", "all"])
def test_tdpt_verify_irregular_lambda_exit_2(capsys, suite):
    code, out, err = run_cli(capsys, "tdpt", "verify", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1/3", "--suite", suite)
    assert code == 2
    assert "irregular" in err and out == ""


@pytest.mark.parametrize("suite", ["ode", "regularity"])
def test_tdpt_verify_runs_at_lambda1_zero(capsys, suite):
    # only ortho and spectrum need the level-n state to be square integrable
    code, data = run_json(capsys, "tdpt", "verify", "--n", "0", "--N", "1",
                          "--M", "1", "--lambda1", "0", "--kmax", "2",
                          "--suite", suite)
    assert code == 0
    assert data["checks"][0]["status"] == "pass"


def test_tdpt_verify_regularity_reports_irregular_lambda(capsys):
    code, data = run_json(capsys, "tdpt", "verify", "--n", "0", "--N", "1",
                          "--M", "1", "--lambda1", "1/3", "--suite", "regularity")
    assert code == 0
    assert data["checks"][0]["status"] == "pass"
    assert "irregular" in data["checks"][0]["witness"]


@pytest.mark.parametrize("argv", [
    ["tdpt", "table", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1",
     "--x-points", "0:1:5"],
    ["tdpt", "table", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1",
     f"--x-points=0.5:{math.pi / 2!r}:5"],
    ["isotonic", "table", "--n", "1", "--N", "1", "--x-points", "0:2:5"],
    ["table", "--kind", "eigenfunction", "--family", "tdpt", "--n", "0",
     "--N", "1", "--M", "1", "--lambda1", "1", "--x-points", "0:1:5"],
    ["table", "--kind", "potential", "--family", "isotonic", "--n", "1",
     "--N", "1", "--x-points", "0:2:5"],
])
def test_table_endpoint_singularity_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must lie inside" in err and out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,x", [
    (["tdpt", "table", "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1",
      "--x-points", "1e-200:1:3"], "1e-200"),
    (["isotonic", "table", "--n", "1", "--N", "1", "--x-points", "1e-170:1:3"],
     "1e-170"),
])
def test_table_refuses_a_value_that_overflows(capsys, argv, x):
    # inside the domain, but the base potential overflows at the first point:
    # one line, no numpy warning and no inf in the CSV
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: v_base is not finite at x = {x}\n"


def test_grid_parser():
    xs = cli._grid("0:1:5")
    assert len(xs) == 5
    assert xs[0] == 0.0 and xs[-1] == 1.0
    with pytest.raises(Exception):
        cli._grid("0:1")
    with pytest.raises(Exception):
        cli._grid("1:0:5")


def test_unknown_check_id_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "bogus.check")
    assert code == 2
    assert "unknown check" in err


CHAIN_RUN = ("chain", "run", "--base", "tdpt", "--params", "0,1,1", "--lambdas", "1")


@pytest.mark.parametrize("target, argv, exc", [
    (floatcmds, CHAIN_RUN, MemoryError()),
    (floatcmds, CHAIN_RUN, MemoryError(
        "Unable to allocate 22.4 GiB for an array with shape (3, 1000000000)")),
    (cli, (*CHAIN_RUN, "--grid", "0.1:1:10"), MemoryError("grid")),
], ids=["bare", "numpy-message", "while-parsing"])
def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, target, argv, exc):
    # the command body or the --grid type is replaced: no test allocates a
    # real array that large
    def raise_it(arg):
        raise exc

    if target is floatcmds:
        monkeypatch.setattr(floatcmds, "_cmd_chain_run", raise_it)
    else:  # a fresh parser, so that --grid takes the replaced type
        monkeypatch.setattr(cli, "_grid", raise_it)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


def test_a_key_error_is_a_defect_and_propagates(capsys, monkeypatch):
    # no bad input raises KeyError, so one is not reported as a usage error
    def body(args):
        raise KeyError("n")

    monkeypatch.setattr(floatcmds, "_cmd_chain_run", body)
    with pytest.raises(KeyError):
        cli.main(list(CHAIN_RUN))


# -- classical ---------------------------------------------------------------------


def test_classical_dump_jacobi(capsys):
    code, data = run_json(capsys, "classical", "dump", "--family", "jacobi",
                          "--n", "2", "--N", "1", "--M", "1")
    assert code == 0
    assert data["schema"] == 1
    got = poly_from_json(data["polynomial"])
    assert got == ExactPoly([Fraction(-3, 4), 0, Fraction(15, 4)])


def test_classical_dump_laguerre_negative_parameter(capsys):
    code, data = run_json(capsys, "classical", "dump", "--family", "laguerre",
                          "--n", "2", "--N", "-3")
    assert code == 0
    got = poly_from_json(data["polynomial"])
    assert got == ExactPoly([1, 1, Fraction(1, 2)])


def test_classical_jacobi_requires_m(capsys):
    code, out, err = run_cli(capsys, "classical", "dump", "--family", "jacobi",
                             "--n", "1", "--N", "1")
    assert code == 2
    assert "error:" in err


# -- tdpt -----------------------------------------------------------------------------


def test_tdpt_build_payload(capsys):
    code, data = run_json(capsys, "tdpt", "build", "--n", "0", "--N", "1",
                          "--M", "1", "--lambda1", "1")
    assert code == 0
    assert data["schema"] == 1
    assert data["threshold"] == "2/3"
    assert data["spec"] == {"n": 0, "N": 1, "M": 1, "lambda1": "1"}
    assert sorted(data["p_tilde"]) == ["0", "1", "2", "3", "4"]
    assert data["energies"][:4] == ["0", "16", "40", "72"]
    denom = poly_from_json(data["denominator"])
    assert denom(Fraction(-1)) == Fraction(1)  # Q(-1) = 0 so lambda1 survives
    assert denom(Fraction(1)) == Fraction(1, 3)  # 1 + Q(1) = 1 - 2/3


def test_tdpt_build_irregular_lambda_exit_2(capsys):
    code, out, err = run_cli(capsys, "tdpt", "build", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1/3")
    assert code == 2
    assert "error:" in err


def test_tdpt_table_row_count(capsys):
    code, out, err = run_cli(capsys, "tdpt", "table", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1",
                             "--x-points", "0.01:1.56:200")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("x,v_base,v_ext,psi_0")
    assert len(lines) == 201  # header + 200 sample rows


def test_tdpt_verify_all_suites(capsys):
    code, data = run_json(capsys, "tdpt", "verify", "--n", "1", "--N", "1",
                          "--M", "1", "--lambda1", "-1", "--grid-n", "1500")
    assert code == 0
    by_id = {c["check_id"]: c for c in data["checks"]}
    assert by_id["tdpt.regularity"]["status"] == "pass"
    assert by_id["tdpt.ode"]["status"] == "pass"
    assert by_id["tdpt.shape"]["status"] == "pass"
    assert by_id["tdpt.spectrum"]["status"] == "pass"
    assert data["counts"]["fail"] == 0


def test_tdpt_verify_single_suite(capsys):
    code, data = run_json(capsys, "tdpt", "verify", "--n", "0", "--N", "2",
                          "--M", "1", "--lambda1", "1", "--suite", "ode")
    assert code == 0
    assert [c["check_id"] for c in data["checks"]] == ["tdpt.ode"]


def test_tdpt_verify_shape_skips_at_n0(capsys):
    code, data = run_json(capsys, "tdpt", "verify", "--n", "0", "--N", "1",
                          "--M", "1", "--lambda1", "1", "--suite", "shape")
    assert code == 0  # a skip is not a failure
    assert data["checks"][0]["status"] == "skip"


# -- isotonic -------------------------------------------------------------------------


def test_isotonic_build_payload(capsys):
    code, data = run_json(capsys, "isotonic", "build", "--n", "1", "--N", "1")
    assert code == 0
    assert data["deleted_level"] == 1
    assert data["levels"] == [0, 2, 3, 4, 5]
    assert data["rootless"] is True
    assert data["q_at_zero"] == "-2"
    l0 = poly_from_json(data["l_tilde"]["0"])
    assert l0 == ExactPoly([-2, -2, -1])


def test_isotonic_verify_n0_suites(capsys):
    code, data = run_json(capsys, "isotonic", "verify", "--n", "0", "--N", "2",
                          "--suite", "n0-type2")
    assert code == 0
    assert data["checks"][0]["status"] == "pass"
    code, data = run_json(capsys, "isotonic", "verify", "--n", "0", "--N", "2",
                          "--suite", "n0-negative")
    assert code == 0
    assert data["checks"][0]["status"] == "pass"
    # and the same suites skip when a partner constant exists
    code, data = run_json(capsys, "isotonic", "verify", "--n", "2", "--N", "1",
                          "--suite", "n0-type2")
    assert data["checks"][0]["status"] == "skip"


def test_isotonic_table_skips_deleted_level(capsys):
    code, out, err = run_cli(capsys, "isotonic", "table", "--n", "1", "--N", "1",
                             "--omega", "2", "--x-points", "0.5:2:4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,v_base,v_ext,psi_0,psi_2,psi_3,psi_4"
    assert len(lines) == 5


def test_isotonic_table_spot_values_match_library(capsys):
    from confluent_dbt import isotonic

    code, out, err = run_cli(capsys, "isotonic", "table", "--n", "1", "--N", "1",
                             "--omega", "2", "--x-points", "0.5:2:4")
    spec = isotonic.IsotonicSpec(1, 1)
    pot = isotonic.extended_potential(spec)
    for line in out.strip().split("\n")[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[2] == pytest.approx(pot.v(cells[0], 2.0), rel=1e-14)


# the spec flags of a family's table, and its default points written out
_DEFAULT_POINTS = [
    ("tdpt", "--n 0 --N 1 --M 1 --lambda1 1", None, "0.01:1.56:200"),
    ("isotonic", "--n 1 --N 1", "1", "0.05:5:200"),
    ("isotonic", "--n 1 --N 1", "4", "0.025:2.5:200"),
]


@pytest.mark.parametrize("family,spec,omega,points", _DEFAULT_POINTS)
@pytest.mark.parametrize("kind", ["potential", "eigenfunction"])
def test_default_table_points_are_the_family_grid_in_its_units(
    capsys, family, spec, omega, points, kind
):
    # isotonic points are 0.05 to 5 in units of 1/sqrt(w); tdpt has no frequency
    argv = ["table", "--kind", kind, "--family", family, *spec.split()]
    argv += ["--omega", omega] if omega else []
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert default == run_cli(capsys, *argv, "--x-points", points)


def _sign_changes(values):
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def test_isotonic_default_table_shows_the_nodes_at_a_low_frequency(capsys):
    code, out, err = run_cli(capsys, "isotonic", "table", "--n", "1", "--N", "1",
                             "--omega", "1/100", "--kmax", "3")
    assert code == 0
    header, *lines = out.strip().split("\n")
    columns = list(zip(*([float(c) for c in line.split(",")] for line in lines)))
    psi = dict(zip(header.split(","), columns))
    assert len(lines) == 200 and psi["x"][0] == 0.5 and psi["x"][-1] == 50.0
    # the j-th state up the ladder has j nodes, and the points show them all
    nodes = [_sign_changes(psi[f"psi_{k}"]) for k in (0, 2, 3)]
    assert nodes == [0, 1, 2]


# -- chain ----------------------------------------------------------------------------


def test_chain_run_csv(capsys):
    code, out, err = run_cli(capsys, "chain", "run", "--base", "tdpt",
                             "--params", "0,1,1", "--lambdas", "1",
                             "--grid", "0.1:1.5:40")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,v_ext"
    assert len(lines) == 41
    assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:])


def test_chain_run_m3_smoke(capsys):
    # two constants, all denominators one-signed on the sample window
    code, out, err = run_cli(capsys, "chain", "run", "--base", "tdpt",
                             "--params", "0,1,1", "--m", "3",
                             "--lambdas", "1,1", "--grid", "0.05:1.45:200",
                             "--full")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,psi,dpsi,v_ext,v_ext_grouped"
    assert len(lines) == 201
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert all(math.isfinite(c) for c in cells)
        assert cells[3] == pytest.approx(cells[4], abs=1e-6)


def test_chain_run_m_mismatch_exit_2(capsys):
    code, out, err = run_cli(capsys, "chain", "run", "--base", "tdpt",
                             "--params", "0,1,1", "--m", "4", "--lambdas", "1")
    assert code == 2
    assert "disagrees" in err


@pytest.mark.parametrize("argv", [
    "chain run --base tdpt --params 0,1,2 --lambdas 1,1,1,1 --grid 0.05:1.45:2000",
    # the chain overflows on its way to the stall
    "chain run --base tdpt --params 0,1,1 --lambdas 1 --grid 1e-300:1e-299:3",
])
def test_chain_run_integration_failure_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: chain integration failed")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [
    "chain run --base tdpt --params 0,1,1 --lambdas 1 --grid 0.05:1.5:3 "
    "--x-start 1e-200",
    "chain run --base isotonic --params 0,1,1 --lambdas 1 --x-start 1000",
])
def test_chain_run_refuses_a_seed_that_vanishes_at_x_start(capsys, argv):
    # the seed underflows to 0 at x_start, and every auxiliary state of the
    # chain divides by it: refused with one line before the integration
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: chain seed is 0.0 at x_start = ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_chain_run_bad_params_exit_2(capsys):
    code, out, err = run_cli(capsys, "chain", "run", "--base", "tdpt",
                             "--params", "0,1")
    assert code == 2


def test_chain_crosscheck_two_step_tdpt(capsys):
    code, data = run_json(capsys, "chain", "crosscheck", "--base", "tdpt",
                          "--which", "two-step", "--params", "0,1,1",
                          "--lambda1", "1")
    assert code == 0
    check = data["checks"][0]
    assert check["check_id"] == "chain.two-step"
    assert check["status"] == "pass"
    assert float(check["witness"].split()[-1]) < 1e-9


def test_chain_crosscheck_two_step_isotonic(capsys):
    code, data = run_json(capsys, "chain", "crosscheck", "--base", "isotonic",
                          "--which", "two-step", "--params", "1,1,2",
                          "--lambda1", "0")
    assert code == 0
    assert data["checks"][0]["status"] == "pass"


def test_chain_crosscheck_isotonic_needs_lambda_zero(capsys):
    code, out, err = run_cli(capsys, "chain", "crosscheck", "--base", "isotonic",
                             "--which", "two-step", "--params", "1,1,2",
                             "--lambda1", "1")
    assert code == 2


def test_chain_crosscheck_matveev(capsys):
    code, data = run_json(capsys, "chain", "crosscheck", "--base", "tdpt",
                          "--which", "matveev", "--params", "0,1,1")
    assert code == 0
    check = data["checks"][0]
    assert check["status"] == "pass"


def test_chain_crosscheck_two_step_fails_on_a_shifted_lambda1(capsys, monkeypatch):
    # negative control: the exact potential at lambda1 - 1 is another extension
    exact = cli.tdpt.extended_potential
    monkeypatch.setattr(cli.tdpt, "extended_potential", lambda spec: exact(
        spec._replace(lambda1=spec.lambda1 - 1)))
    code, data = run_json(capsys, "chain", "crosscheck", "--base", "tdpt",
                          "--which", "two-step", "--params", "0,1,1",
                          "--lambda1", "1")
    assert code == 1
    check = data["checks"][0]
    assert check["status"] == "fail" and check["witness"] != ""


def test_chain_crosscheck_matveev_fails_on_a_wrong_energy(capsys, monkeypatch):
    # negative control: a seed energy off by 1/2 breaks both routes' agreement
    seed_of = chains.tdpt_seed

    def shifted(*params):
        seed, v = seed_of(*params)
        return seed._replace(energy=seed.energy + 0.5), v

    monkeypatch.setattr(chains, "tdpt_seed", shifted)
    code, data = run_json(capsys, "chain", "crosscheck", "--base", "tdpt",
                          "--which", "matveev", "--params", "0,1,1")
    assert code == 1
    check = data["checks"][0]
    assert check["status"] == "fail" and check["witness"] != ""


def test_chain_crosscheck_matveev_rejects_radial(capsys):
    code, out, err = run_cli(capsys, "chain", "crosscheck", "--base", "isotonic",
                             "--which", "matveev", "--params", "1,1,2")
    assert code == 2


# -- verify ---------------------------------------------------------------------------


def test_verify_parametrized_shape_check(capsys):
    code, data = run_json(capsys, "verify", "tdpt.shape",
                          "--n", "1", "--N", "1", "--M", "1")
    assert code == 0
    check = data["checks"][0]
    assert check["check_id"] == "tdpt.shape"
    assert check["status"] == "pass"
    assert "zero" in check["witness"]
    assert check["spec"]["n"] == 1


def test_verify_manifest_check_without_flags(capsys):
    code, data = run_json(capsys, "verify", "tdpt.shape")
    assert code == 0
    assert data["selector"] == "tdpt.shape"
    assert data["counts"]["pass"] == 1


def test_verify_module_selector(capsys):
    code, data = run_json(capsys, "verify", "exactalg")
    assert code == 0
    ids = [c["check_id"] for c in data["checks"]]
    assert ids == ["exactalg.antiderivative", "exactalg.sturm",
                   "exactalg.coprime", "exactalg.wronskian"]


def test_verify_params_file(capsys, tmp_path):
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"n": 1, "N": 2, "M": 1, "lambda1": "-1"}))
    code, data = run_json(capsys, "verify", "tdpt.ode",
                          "--params-file", str(pf))
    assert code == 0
    assert data["checks"][0]["status"] == "pass"


def test_verify_params_file_malformed(capsys, tmp_path):
    pf = tmp_path / "bad.json"
    pf.write_text("{nope")
    code, out, err = run_cli(capsys, "verify", "tdpt.ode",
                             "--params-file", str(pf))
    assert code == 2
    assert "malformed" in err


def test_verify_irregular_lambda_exit_2(capsys):
    # the same refusal, and the same message, as `tdpt verify`
    spec = ["--n", "0", "--N", "1", "--M", "1", "--lambda1", "1/3"]
    code, out, err = run_cli(capsys, "verify", "tdpt.ode", *spec)
    assert code == 2
    assert "irregular" in err and out == ""
    assert run_cli(capsys, "tdpt", "verify", "--suite", "ode", *spec) == (2, "", err)


@pytest.mark.parametrize("argv,unread", [
    (["tdpt.window", "--n", "1", "--N", "1", "--M", "1"], ["--n", "--N", "--M"]),
    (["all", "--params-file", "p.json"], ["--params-file"]),
    (["exactalg", "--kmax", "3"], ["--kmax"]),
    (["cli", "--omega", "2", "--lambda1", "1"], ["--lambda1", "--omega"]),
    (["spectrum", "--potential-json", "pot.json", "--levels", "4", "--n", "3"],
     ["--n"]),
    (["spectrum", "--potential-json", "pot.json", "--levels", "4", "--omega", "2",
      "--kmax", "2", "--lambda1", "1"], ["--lambda1", "--kmax"]),
    (["gram", "--family-json", "pot.json", "--N", "2", "--M", "1"], ["--N", "--M"]),
])
def test_verify_refuses_spec_flags_it_does_not_read(capsys, argv, unread):
    # refused before any file is read: none of these files exists
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[0]} does not read {', '.join(unread)}\n"


@pytest.mark.parametrize("selector", sorted(
    sel for family, checks in reports.SPEC_CHECKS.items()
    for sel in (f"{family}.{name}" for name in checks) if sel not in reports._by_id()
))
def test_per_spec_id_without_spec_names_the_flags_it_needs(capsys, selector):
    code, out, err = run_cli(capsys, "verify", selector)
    needs = "--n, --N and --M" if selector.startswith("tdpt.") else "--n and --N"
    assert (code, out) == (2, "")
    assert err == f"error: verify {selector} is a per-spec check and needs {needs}\n"


@pytest.mark.parametrize("argv,unread", [
    (["all", "--grid-n", "100"], "--grid-n"),
    (["exactalg", "--levels", "3"], "--levels"),
    (["exactalg", "--potential-json", "x.json"], "--potential-json"),
    (["tdpt.window", "--family-json", "x.json", "--grid-n", "100"],
     "--grid-n, --family-json"),
    # the manifest form runs on its own grid
    (["tdpt.spectrum", "--grid-n", "100"], "--grid-n"),
    (["tdpt.ode", "--n", "1", "--N", "1", "--M", "1", "--grid-n", "100"], "--grid-n"),
    (["isotonic.ortho", "--n", "1", "--N", "1", "--levels", "3"], "--levels"),
    (["spectrum", "--potential-json", "x.json", "--levels", "4",
      "--family-json", "x.json"], "--family-json"),
    (["gram", "--family-json", "x.json", "--grid-n", "100"], "--grid-n"),
])
def test_verify_refuses_inputs_it_does_not_read(capsys, argv, unread):
    # refused before any file is read: none of these files exists
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: verify {argv[0]} does not read {unread}\n"


@pytest.mark.parametrize("argv", [
    ["tdpt", "verify", "--n", "1", "--N", "1", "--M", "1", "--lambda1", "1",
     "--suite", "ode"],
    ["tdpt", "verify", "--n", "1", "--N", "1", "--M", "1", "--lambda1", "1",
     "--suite", "regularity"],
    ["isotonic", "verify", "--n", "1", "--N", "1", "--suite", "ortho"],
    ["isotonic", "verify", "--n", "0", "--N", "2", "--suite", "n0-type2"],
])
def test_family_verify_refuses_grid_n_on_suites_without_a_grid(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--grid-n", "100")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {argv[0]} verify --suite {argv[-1]} does not read --grid-n\n"
    )
    # the same command without the flag runs
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("family,spec", [
    ("tdpt", ["--n", "0", "--N", "1", "--M", "1", "--lambda1", "1"]),
    ("isotonic", ["--n", "1", "--N", "1"]),
])
def test_family_verify_grid_n_reaches_the_spectrum_suite(capsys, family, spec):
    code, data = run_json(capsys, family, "verify", *spec, "--suite", "spectrum",
                          "--grid-n", "1500")
    assert code == 0 and data["checks"][0]["spec"]["grid_n"] == 1500
    code, data = run_json(capsys, family, "verify", *spec, "--suite", "spectrum")
    assert code == 0 and data["checks"][0]["spec"]["grid_n"] == reports.GRID_N


def test_verify_grid_n_reaches_the_per_spec_spectrum(capsys):
    spec = ["--n", "0", "--N", "1", "--M", "1", "--lambda1", "1"]
    code, data = run_json(capsys, "verify", "tdpt.spectrum", *spec, "--grid-n", "1500")
    assert code == 0 and data["checks"][0]["spec"]["grid_n"] == 1500
    code, data = run_json(capsys, "verify", "tdpt.spectrum", *spec)
    assert code == 0 and data["checks"][0]["spec"]["grid_n"] == reports.GRID_N


# the spec flags of each family, and a value of every optional input of the
# per-spec forms (the value a report's spec shows, where it shows one)
SPEC_FLAGS = {
    "tdpt": {"n": "1", "N": "1", "M": "1", "lambda1": "1"},
    "isotonic": {"n": "1", "N": "1"},
}
INPUT_VALUES = {
    "n": "1", "N": "1", "M": "1", "lambda1": "1", "omega": "3", "kmax": "3",
    "grid_n": "1500", "levels": "3", "potential_json": "x.json",
    "family_json": "x.json", "params_file": "params.json",
}
SHOWN = {"omega": "3", "kmax": 3, "grid_n": 1500}


def _flag(key):
    return "--" + key.replace("_", "-")


def _per_spec_cases():
    """(argv, input, whether the form reads it) for every input each per-spec
    form takes: `<family> verify --suite <name>` (and `all`) and
    `verify <family>.<name>`, with what it reads taken from the `reads`
    declarations of the checks."""
    for family, checks in reports.SPEC_CHECKS.items():
        spec = [t for key, value in SPEC_FLAGS[family].items()
                for t in (_flag(key), value)]
        suite_inputs = ["kmax", "grid_n"] + ["omega"] * (family == "isotonic")
        for name in [*checks, "all"]:
            names = list(checks) if name == "all" else [name]
            # every per-spec report records kmax, so every form takes it
            reads = {"kmax"}.union(*(checks[s].reads for s in names))
            argv = [family, "verify", *spec, "--suite", name]
            for key in suite_inputs:
                yield argv, key, key in reads
            if name == "all":
                continue
            argv = ["verify", f"{family}.{name}", *spec]
            for key in sorted(INPUT_VALUES.keys() - SPEC_FLAGS[family].keys()):
                yield argv, key, key in reads | {"params_file"}


PER_SPEC_CASES = list(_per_spec_cases())


@pytest.mark.parametrize("argv,key,reads", PER_SPEC_CASES, ids=[
    f"{' '.join(a for a in argv if not a.startswith('-') and len(a) > 1)}:{key}"
    for argv, key, _ in PER_SPEC_CASES
])
def test_per_spec_forms_refuse_exactly_the_inputs_they_do_not_read(
    capsys, tmp_path, monkeypatch, argv, key, reads
):
    monkeypatch.chdir(tmp_path)
    family = argv[0] if argv[0] != "verify" else argv[1].split(".")[0]
    (tmp_path / "params.json").write_text(json.dumps(SPEC_FLAGS[family]))
    code, out, err = run_cli(capsys, *argv, _flag(key), INPUT_VALUES[key])
    if not reads:
        command = " ".join(argv[:2] if argv[0] == "verify" else argv[:2] + argv[-2:])
        assert (code, out) == (2, "")
        assert err == f"error: {command} does not read {_flag(key)}\n"
        return
    assert (code, err) == (0, "")
    if key in SHOWN:
        checks = json.loads(out)["checks"]
        assert SHOWN[key] in [c["spec"].get(key) for c in checks]


# (selector, key, whether it reads it) for every spec field a params file may
# hold besides the family's spec
PARAMS_FILE_CASES = [
    (f"{family}.{name}", key, key in {"kmax", *check.reads})
    for family, checks in reports.SPEC_CHECKS.items()
    for name, check in checks.items()
    for key in ("M", "lambda1", "omega", "kmax") if key not in SPEC_FLAGS[family]
]


@pytest.mark.parametrize("selector,key,reads", PARAMS_FILE_CASES)
def test_per_spec_params_file_keys_follow_the_flag_rule(
    capsys, tmp_path, monkeypatch, selector, key, reads
):
    monkeypatch.chdir(tmp_path)
    fields = dict(SPEC_FLAGS[selector.split(".")[0]], **{key: INPUT_VALUES[key]})
    (tmp_path / "params.json").write_text(json.dumps(fields))
    code, out, err = run_cli(capsys, "verify", selector, "--params-file", "params.json")
    if reads:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: verify {selector} does not read {_flag(key)}\n"


@pytest.mark.parametrize("key", ["grid_n", "bogus"])
def test_params_file_refuses_keys_that_are_not_spec_fields(
    capsys, tmp_path, monkeypatch, key
):
    # grid_n is read by the check as a flag, never from the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text(json.dumps({"n": 1, "N": 1, key: 900}))
    argv = ["verify", "isotonic.spectrum", "--params-file", "params.json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: verify isotonic.spectrum does not read {key} from --params-file\n"
    )


@pytest.mark.parametrize("argv,command,unread", [
    ("verify isotonic.ode --n 1 --N 1 --M 7 --lambda1 5",
     "verify isotonic.ode", ["--M", "--lambda1"]),
    ("verify tdpt.ode --n 1 --N 1 --M 1 --omega 3", "verify tdpt.ode", ["--omega"]),
    ("isotonic verify --n 1 --N 1 --suite ode --omega 3",
     "isotonic verify --suite ode", ["--omega"]),
    ("table --kind polynomial --family isotonic --n 1 --N 1 --M 5 --lambda1 3 "
     "--omega 2 --x-points 0.1:1:3", "table --kind polynomial --family isotonic",
     ["--M", "--lambda1", "--omega", "--x-points"]),
    ("table --kind potential --family tdpt --n 0 --N 1 --M 1 --lambda1 1 "
     "--omega 2 --x-points 0.1:1:3", "table --kind potential --family tdpt",
     ["--omega"]),
    ("table --kind potential --family tdpt --n 0 --N 1 --M 1 --lambda1 1 "
     "--kmax 7", "table --kind potential --family tdpt", ["--kmax"]),
    ("classical dump --family laguerre --n 2 --N 1 --M 4",
     "classical dump --family laguerre", ["--M"]),
    ("chain crosscheck --base tdpt --which matveev --params 0,1,1 --lambda1 5",
     "chain crosscheck --which matveev", ["--lambda1"]),
])
def test_commands_refuse_the_inputs_they_do_not_read(capsys, argv, command, unread):
    argv = shlex.split(argv)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {command} does not read {', '.join(unread)}\n"
    # the same command without them runs
    kept = [t for i, t in enumerate(argv)
            if t not in unread and (i == 0 or argv[i - 1] not in unread)]
    assert run_cli(capsys, *kept)[::2] == (0, "")


@pytest.mark.parametrize("argv", [
    "table --kind eigenfunction --family isotonic --n 1 --N 1 --omega 2 "
    "--x-points 0.1:1:3",
    "table --kind polynomial --family tdpt --n 0 --N 1 --M 1 --lambda1 1 --kmax 2",
    "table --kind eigenfunction --family tdpt --n 0 --N 1 --M 1 --lambda1 1 "
    "--kmax 2 --x-points 0.1:1:3",
    "classical dump --family jacobi --n 2 --N 1 --M 1",
    "chain crosscheck --base tdpt --which two-step --params 0,1,1 --lambda1 1",
])
def test_commands_accept_the_inputs_they_read(capsys, argv):
    assert run_cli(capsys, *shlex.split(argv))[::2] == (0, "")


def test_oracles_refuse_omega_on_a_tdpt_file(capsys, tmp_path, monkeypatch):
    # a tdpt potential has no frequency; what the oracles read depends on
    # the family of the file
    monkeypatch.chdir(tmp_path)
    build = "tdpt build --n 0 --N 1 --M 1 --lambda1 1 --kmax 2 --out pot.json"
    assert run_cli(capsys, *build.split())[0] == 0
    for argv, command in [
        ("spectrum --potential-json pot.json --levels 2",
         "verify spectrum of a tdpt potential"),
        ("gram --family-json pot.json", "verify gram of a tdpt family"),
    ]:
        code, out, err = run_cli(capsys, "verify", *argv.split(), "--omega", "3")
        assert (code, out) == (2, "")
        assert err == f"error: {command} does not read --omega\n"
        assert run_cli(capsys, "verify", *argv.split())[::2] == (0, "")


def test_verify_failing_check_exit_1(capsys, monkeypatch):
    check = reports._by_id()["tdpt.window"]
    monkeypatch.setitem(reports._by_id(), check.check_id, check._replace(
        run=lambda: (False, {}, "")))
    code, data = run_json(capsys, "verify", "tdpt.window")
    assert code == 1
    assert data["failed"] == ["tdpt.window"]
    assert data["checks"][0]["witness"] != ""


def test_bare_check_id_runs_the_per_spec_check(capsys):
    _, bare = run_json(capsys, "verify", "tdpt.spectrum")
    _, per_spec = run_json(capsys, "tdpt", "verify", "--suite", "spectrum",
                           "--n", "0", "--N", "1", "--M", "1", "--lambda1", "1")
    (a,), (b,) = bare["checks"], per_spec["checks"]
    assert a["status"] == b["status"] == "pass"
    assert a["witness"] == b["witness"]


def test_verify_spectrum_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "build.json"
    code, out, err = run_cli(capsys, "tdpt", "build", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1",
                             "--out", str(out_file))
    assert code == 0
    code, data = run_json(capsys, "verify", "spectrum",
                          "--potential-json", str(out_file),
                          "--levels", "4", "--grid-n", "2000")
    assert code == 0
    got = data["spectrum"]["energies"]
    for g, want in zip(got, [0.0, 16.0, 40.0, 72.0]):
        assert g == pytest.approx(want, abs=2e-4)
    assert data["spectrum"]["node_counts"] == [0, 1, 2, 3]


def test_verify_spectrum_radial_gap(capsys, tmp_path):
    out_file = tmp_path / "iso.json"
    run_cli(capsys, "isotonic", "build", "--n", "1", "--N", "1",
            "--out", str(out_file))
    code, data = run_json(capsys, "verify", "spectrum",
                          "--potential-json", str(out_file),
                          "--levels", "4", "--omega", "2", "--grid-n", "2000")
    assert code == 0
    got = data["spectrum"]["energies"]
    # punctured ladder: 2kw for k = 0, 2, 3, 4 and nothing at 4
    for g, want in zip(got, [0.0, 8.0, 12.0, 16.0]):
        assert g == pytest.approx(want, abs=2e-4)


@pytest.mark.parametrize("family, spec, flags, omega, xs", [
    ("tdpt", tdpt.TdptSpec(1, 2, 1, -2), "--n 1 --N 2 --M 1 --lambda1 -2", 1.0,
     (0.003, 1.567)),
    ("isotonic", isotonic.IsotonicSpec(1, 2), "--n 1 --N 2", 2.5, (0.003, 6.0)),
])
def test_verify_spectrum_rebuilds_the_potential_bit_for_bit(
    tmp_path, family, spec, flags, omega, xs
):
    # one x-map and one frequency scaling per family: the potential `verify
    # spectrum` rebuilds from a build JSON is `extended_potential(spec).v`,
    # point for point, and that is the z-form at z = cos 2x, or w times the
    # z-form at z = w x^2/2, in this operation order
    import numpy as np

    path = tmp_path / "build.json"
    assert cli.main([family, "build", *flags.split(), "--out", str(path)]) == 0
    _, loaded, rebuilt = floatcmds._load_build(str(path), "potential JSON")
    pot = cli._FAMILY[family].extended_potential(spec)
    points = np.linspace(*xs, 1001)
    want = pot.v(points, omega).tolist()
    assert loaded == family
    assert rebuilt.v(points, omega).tolist() == want
    assert [rebuilt.v(x, omega) for x in points.tolist()] == want
    by_hand = {
        "tdpt": lambda x: pot.z_form(math.cos(2.0 * x)),
        "isotonic": lambda x: omega * pot.z_form(omega * x * x / 2.0),
    }[family]
    assert [by_hand(x) for x in points.tolist()] == want


# the names of a family's numeric description, at the end of its module
DESCRIPTION = {"GAUGE", "INPUTS", "DOMAIN", "table_grid", "GRAM_INTERVAL",
               "exceptional", "levels", "energy", "window"}


@pytest.mark.parametrize("family", ["tdpt", "isotonic"])
def test_families_expose_one_description(family):
    module = cli._FAMILY[family]
    section = Path(module.__file__).read_text().split("# -- numeric description")[1]
    defined = set(re.findall(r"^(?:def )?(\w+)(?: = |\()", section, re.M))
    assert defined == DESCRIPTION
    assert all(hasattr(module, name) for name in DESCRIPTION)


def test_family_tables_share_their_keys():
    assert set(cli._SPEC_FIELDS) == set(cli._FAMILY) == set(reports.SPEC_CHECKS)


def test_verify_spectrum_needs_inputs(capsys):
    code, out, err = run_cli(capsys, "verify", "spectrum")
    assert code == 2


# 10^308 (1 + z): past the largest float near z = 1, so infinite on the grid;
# over z^2 + 10^308 z + 10^308, inf/inf there, so NaN
_HUGE = ExactPoly([10**308, 10**308])
_NONFINITE = {
    "inf": RationalFn(_HUGE),
    "nan": RationalFn(_HUGE, ExactPoly([10**308, 10**308, 1])),
}


@pytest.mark.parametrize("kind", sorted(_NONFINITE))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_spectrum_refuses_a_nonfinite_potential(capsys, tmp_path, kind):
    # LAPACK's results on NaN or infinite input are undefined; the
    # eigensolver refuses such input before the call, and the overflow on
    # the grid raises no warning on the way there
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"z_form": _NONFINITE[kind].to_json()}))
    code, out, err = run_cli(capsys, "verify", "spectrum", "--potential-json",
                             str(pot), "--levels", "2", "--grid-n", "50")
    assert code == 2 and out == ""
    assert err == "error: array must not contain infs or NaNs\n"


def test_verify_gram_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "iso.json"
    run_cli(capsys, "isotonic", "build", "--n", "1", "--N", "1",
            "--out", str(out_file))
    code, data = run_json(capsys, "verify", "gram",
                          "--family-json", str(out_file), "--omega", "2")
    assert code == 0
    assert data["levels"] == [0, 2, 3, 4, 5]
    assert data["max_offdiagonal_relative"] < 1e-10
    m = len(data["levels"])
    assert len(data["gram"]) == m and len(data["gram"][0]) == m


_ONE_LEVEL = "error: verify gram needs at least two levels; family JSON lists 1\n"
_REPEATED = ("error: verify gram needs distinct levels; family JSON lists 0 more "
             "than once\n")


@pytest.mark.parametrize("build,edit,err", [
    pytest.param("isotonic", _edit(levels=[0]), _ONE_LEVEL, id="isotonic"),
    pytest.param("tdpt", lambda data: dict(data, p_tilde={"2": data["p_tilde"]["2"]}),
                 _ONE_LEVEL, id="tdpt"),
    pytest.param("isotonic", _edit(levels=[0, 0]), _REPEATED, id="isotonic-repeated"),
    pytest.param("tdpt", lambda data: dict(data, p_tilde={
        "0": data["p_tilde"]["0"], "00": data["p_tilde"]["0"]}), _REPEATED,
        id="tdpt-repeated"),
])
def test_verify_gram_refuses_fewer_than_two_distinct_levels(capsys, tmp_path, build,
                                                            edit, err):
    # one level, or one level twice (its overlap with itself is 1), has no
    # off-diagonal entry to measure
    path = tmp_path / "family.json"
    assert cli.main(_BUILDS[build] + ["--out", str(path)]) == 0
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, out, got = run_cli(capsys, "verify", "gram", "--family-json", str(path))
    assert code == 2 and out == "" and got == err


def test_quadrature_cap_is_reported(capsys, tmp_path, monkeypatch):
    # negative control: no error estimate meets a zero tolerance, so every
    # quadrature runs to its subinterval cap
    out_file = tmp_path / "iso.json"
    run_cli(capsys, "isotonic", "build", "--n", "1", "--N", "1", "--out", str(out_file))
    code, data = run_json(capsys, "verify", "gram", "--family-json", str(out_file))
    assert code == 0 and data["converged"] is True
    monkeypatch.setattr(verify, "QUAD_TOL", 0.0)
    code, data = run_json(capsys, "verify", "gram", "--family-json", str(out_file))
    assert code == 0 and data["converged"] is False
    code, data = run_json(capsys, "verify", "verify.gram")
    assert code == 1
    assert "did not converge" in data["checks"][0]["witness"]
    code, out, err = run_cli(capsys, "chain", "crosscheck", "--base", "tdpt",
                             "--which", "two-step", "--params", "0,1,1")
    assert code == 1 and "did not converge" in out


# -- table ----------------------------------------------------------------------------


def test_table_polynomial_goldens(capsys):
    code, data = run_json(capsys, "table", "--kind", "polynomial",
                          "--family", "isotonic", "--n", "1", "--N", "1",
                          "--kmax", "2")
    assert code == 0
    p0 = poly_from_json(data["polynomials"]["0"])
    p2 = poly_from_json(data["polynomials"]["2"])
    assert p0 == ExactPoly([-2, -2, -1])
    assert p2 == ExactPoly([6, 0, -2, 0, Fraction(-1, 2)])
    assert "1" not in data["polynomials"]  # deleted level


def test_table_potential_rows(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "potential",
                             "--family", "tdpt", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1",
                             "--x-points", "0.01:1.56:200")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,v_base,v_ext"
    assert len(lines) == 201


def test_table_irregular_spec_rejected(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "potential",
                             "--family", "tdpt", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1/2")
    assert code == 2
    assert "error:" in err


def test_table_eigenfunction_matches_library(capsys):
    from confluent_dbt import tdpt

    code, out, err = run_cli(capsys, "table", "--kind", "eigenfunction",
                             "--family", "tdpt", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1", "--kmax", "1",
                             "--x-points", "0.3:1.2:3")
    assert code == 0
    spec = tdpt.TdptSpec(0, 1, 1, Fraction(1))
    psi0 = tdpt.confluent(spec).state(0)
    for line in out.strip().split("\n")[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[1] == pytest.approx(psi0.eval_x(cells[0]), rel=1e-14)


def test_csv_17_digit_formatting(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "potential",
                             "--family", "tdpt", "--n", "0", "--N", "1",
                             "--M", "1", "--lambda1", "1",
                             "--x-points", "0.1:1.5:3")
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "%.17g" % 0.1


def test_csv_row_bytes_pinned():
    # an int, a negative zero, the smallest subnormal, a value that needs
    # all 17 digits
    text = floatcmds._csv_text(["a", "b", "c", "d"], [(3, -0.0, 5e-324, 0.1 + 0.2)])
    assert text == "a,b,c,d\n3,-0,4.9406564584124654e-324,0.30000000000000004\n"


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "dump.json"
    code, out, err = run_cli(capsys, "classical", "dump", "--family", "laguerre",
                             "--n", "1", "--N", "0", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["schema"] == 1


# -- the JSON writer -----------------------------------------------------------------


class ListSub(list):
    pass


class DictSub(dict):
    pass


def reference_json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


json_strings = st.text() | st.sampled_from(
    ["", "café λ₁", "\x00\x1f\t\n\r\"\\/", " 😀\U0001f600"]
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**256), max_value=2**256),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    json_strings,
)
# numbers and bools compare with each other, so one object may mix them
json_number_keys = st.integers() | st.booleans() | st.floats(allow_nan=True)


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(ListSub),
        st.dictionaries(json_strings, children, max_size=4),
        st.dictionaries(json_strings, children, max_size=4).map(DictSub),
        st.dictionaries(json_number_keys, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(json_scalars, json_containers, max_leaves=24))
def test_json_text_equals_sorted_indented_dumps(payload):
    assert cli._json_text(payload) == reference_json_text(payload)


def test_json_text_refuses_what_json_refuses():
    for payload in ({"a": [1, Fraction(1, 3)]}, {"a": {(1, 2): 0}}):
        with pytest.raises(TypeError) as want:
            reference_json_text(payload)
        with pytest.raises(TypeError) as got:
            cli._json_text(payload)
        assert str(got.value) == str(want.value)


# -- pinned outputs --------------------------------------------------------------

# sha256 of stdout with every elapsed_ms set to 0, recorded before the
# per-spec checks moved into `reports` and the table commands were merged;
# the last four before the certificates and the chain integrator were merged
PINNED_OUTPUTS = [
    # both `--suite all` pins re-recorded when the ortho check moved onto
    # Gauss rules: its spec gained "nodes" and "quadrature_error" and its
    # witness number changed, nothing else did (the isotonic one was
    # re-recorded before when its spectrum report gained "tolerance": 1e-05)
    ("tdpt verify --n 1 --N 2 --M 1 --lambda1 -2 --suite all",
     "55c5675fc927eed1c3966499c454270418cdefe02e74841729f0d248bbed922c"),
    ("isotonic verify --n 1 --N 1 --suite all",
     "dada86e620860be8a4fdbcc9674cb3181286242d10c6e36dd248abb9fb4895ac"),
    ("verify isotonic.n0-type2 --n 0 --N 3",
     "48ea887d5b0c83bd497e911e2c376903abf44c1e94433189710451c6e84e20dc"),
    ("tdpt table --n 1 --N 2 --M 1 --lambda1 -2 --x-points 0.1:1.5:7",
     "64a85ed7958aa2ac5505875d9aafe7697f84e5fcd7144e77c583117645827144"),
    ("isotonic table --n 1 --N 1 --omega 2 --x-points 0.2:4:7",
     "ceacc77ff43ff81d1d2621ebb6b2060a7c00144d5f326ea86f5e416bcb97860e"),
    ("table --kind potential --family tdpt --n 1 --N 2 --M 1 --lambda1 -2 "
     "--x-points 0.1:1.5:7",
     "a2ef196ff02df0846ea2681ec0e4e6084a1e3425ae3b8605738b01cc8b86aa0b"),
    ("table --kind eigenfunction --family tdpt --n 1 --N 2 --M 1 --lambda1 -2 "
     "--x-points 0.1:1.5:7",
     "89b3d415388c555d825b60958ca462f6ac74e81b0c9c25c37ed325e643a4416b"),
    ("table --kind potential --family isotonic --n 1 --N 1 --x-points 0.2:4:7",
     "02c5a7414250bf59d24390fbb23083c4c9458087b3bd875ea2d1e5c05eb2974c"),
    ("table --kind eigenfunction --family isotonic --n 1 --N 1 --omega 2 "
     "--x-points 0.2:4:7",
     "b50f9ad48016c82517fde2997f3409e1ed11b61a408bd7d3e9d762c4a7dc450e"),
    # irregular: the only denominator root sits at z = 1
    ("tdpt verify --suite regularity --n 1 --N 1 --M 1 --lambda1 8/15",
     "c148c522573d88527a7feebe10c41a10576aa64e4517b829c5e0a9debae90dbb"),
    # irregular: one interior denominator root
    ("tdpt verify --suite regularity --n 1 --N 1 --M 1 --lambda1 4/15",
     "f637bf59d67839256f710e4ce38549dac6b1a7f1f03c7704ebf8166d14cd3de8"),
    ("chain run --base tdpt --params 0,1,1 --lambdas 1,1 --grid 0.05:1.45:50 "
     "--full",
     "43f277553e8c5463875c8e860361f3696fac5a778c2c4cdf89a5b6ddc17968b5"),
    # re-recorded when the three energies became one Cauchy solve, and again
    # for the package's own Gauss-Kronrod quadrature: only the two witness
    # numbers changed, the second time 7.165100884589733e-10 ->
    # 7.165101465619039e-10 and 6.4741844701376225e-09 -> 6.474184640338669e-09
    ("chain crosscheck --base tdpt --which matveev --params 0,1,1",
     "4499b2481adcef65ce911e3a51bd85b97f787c7c336e06cc9934ecdd5aed822c"),
    # exact residuals, recorded before they were decided without gcds
    ("tdpt verify --suite ode --n 5 --N 1 --M 1 --lambda1 -1 --kmax 4",
     "51c015bff20d937fc7b9dc811615c7e499b1e557156d8c121d269be6e10a86e0"),
    ("isotonic verify --suite ode --n 6 --N 2 --kmax 4",
     "8af36eb80eed052e6703364f342ec159919e19f726fd043c332fb1771a229a57"),
    # 10k-point tables, recorded while every column was evaluated point by
    # point: the array evaluation must give the same bits
    ("tdpt table --n 0 --N 1 --M 3 --lambda1=-1/2 --kmax 3 "
     "--x-points=0.02:1.53:10200",
     "c99e29fc8d4e82bc6d000d5fa1f1321c35ed35217b0840a627eaade7e37f0047"),
    ("isotonic table --n 1 --N 1 --omega=3/2 --kmax 3 "
     "--x-points=0.05715:3.919:10200",
     "f84be34ad20a5cbb184d4c58bc2d365eabda9f1f5dd38d8d9b82ca293eb3d5a0"),
    ("table --kind eigenfunction --family tdpt --n 0 --N 2 --M 2 --lambda1=-1/2 "
     "--kmax 3 --x-points=0.02:1.56:10400",
     "30219ed85cb016deb9e02e2fc5aa22589aa78797aefad46fb6a1ef100107ad00"),
]


@pytest.mark.parametrize("command,digest", PINNED_OUTPUTS)
def test_output_pinned(capsys, command, digest):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- reuse within one process ------------------------------------------------------

REUSE_SEQUENCE = [
    ("tdpt build --n 1 --N 1 --M 2 --lambda1 1 --kmax 2", 0),
    ("isotonic verify --n 1 --N 2 --kmax 2", 0),
    # --lambdas defaults to one list shared by every parse
    ("chain run --base tdpt --params 0,1,1 --lambdas 1 --grid 0.05:1.45:20", 0),
    ("chain run --base tdpt --params 0,1,1 --grid 0.05:1.45:20", 0),
    # refused spec: lambda1 inside the forbidden window
    ("tdpt build --n 1 --N 1 --M 1 --lambda1 4/15", 2),
    # argparse error: a required flag is missing
    ("tdpt build --n 1 --N 1", 2),
]


def _run_reused(capsys, command):
    try:
        code = cli.main(command.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', captured.out)
    return code, out, captured.err


def test_commands_reuse_parser_and_caches_in_either_order(capsys):
    reports._clear_constructor_caches()
    forward = [_run_reused(capsys, c) for c, _ in REUSE_SEQUENCE]
    backward = [_run_reused(capsys, c) for c, _ in reversed(REUSE_SEQUENCE)]
    assert [r[0] for r in forward] == [code for _, code in REUSE_SEQUENCE]
    assert forward == backward[::-1]
    # the two chain runs differ in their step count, not by leftover state
    assert forward[2][1] != forward[3][1]


def test_clearing_the_constructor_caches_empties_every_memo():
    # every lru_cache of the exact modules, found by its type rather than
    # listed, so a memo added later without being cleared fails here
    memos = {
        f"{module.__name__}.{name}": fn
        for module in (exactalg, classical, tdpt, isotonic)
        for name, fn in vars(module).items()
        if isinstance(fn, functools._lru_cache_wrapper)
    }
    for family, spec in (("tdpt", tdpt.TdptSpec(1, 1, 2, 1)),
                         ("isotonic", isotonic.IsotonicSpec(1, 1))):
        assert reports.run_spec_checks(family, ["ode"], spec)[0].status == "pass"
    assert {name for name, fn in memos.items() if fn.cache_info().currsize == 0} == set()
    reports._clear_constructor_caches()
    assert {name for name, fn in memos.items() if fn.cache_info().currsize > 0} == set()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("n,a,b", [(0, 0, 0), (3, 1, 2), (5, 2, 3)])
def test_memoized_constructors_match_sympy_after_clearing(n, a, b):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def from_expr(expr):
        cs = sympy.Poly(sympy.expand(expr), x, domain=sympy.QQ).all_coeffs()
        return ExactPoly([Fraction(int(c.p), int(c.q)) for c in reversed(cs)])

    classical.jacobi.cache_clear()
    classical.laguerre.cache_clear()
    cold_jacobi, cold_laguerre = classical.jacobi(n, a, b), classical.laguerre(n, a)
    assert cold_jacobi == from_expr(sympy.jacobi_poly(n, a, b, x))
    assert cold_laguerre == from_expr(sympy.assoc_laguerre(n, a, x))
    assert classical.jacobi(n, a, b) is cold_jacobi
    assert classical.laguerre(n, a) is cold_laguerre


# -- README examples -----------------------------------------------------------------


def readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("confluent-dbt "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    # the README runs `verify isotonic.ode --params-file params.json`
    (tmp_path / "params.json").write_text(json.dumps({"n": 1, "N": 1}))
    commands = readme_commands()
    assert len(commands) >= 20
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


# -- module execution ------------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "confluent_dbt", "classical", "dump",
         "--family", "jacobi", "--n", "1", "--N", "2", "--M", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["family"] == "jacobi"


def test_output_digests_names_its_package_and_refuses_without_one(tmp_path):
    root = Path(__file__).resolve().parent.parent
    tool = [sys.executable, str(root / "tools" / "output_digests.py")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # -S: no site-packages either, where an installed copy could be found
    proc = subprocess.run(
        [tool[0], "-S", *tool[1:]], capture_output=True, text=True, env=env,
        cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot import confluent_dbt")
    assert proc.stderr.count("\n") == 1
    pool = {"candidates": {"c1": {"argv": ["classical", "dump", "--family",
                                           "laguerre", "--n", "1", "--N", "1"]}}}
    (tmp_path / "pool.json").write_text(json.dumps(pool))
    (tmp_path / "README.md").write_text("no commands\n")
    proc = subprocess.run(
        tool + ["--pool", "pool.json", "--readme", "README.md"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**env, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0
    assert proc.stderr == f"digesting {root / 'src' / 'confluent_dbt'}\n"
    digest, total = proc.stdout.splitlines()
    assert digest.endswith("  c1") and total.startswith("total ")


_NO_SCIPY_RUN = """
import contextlib, io, json, os, sys
import confluent_dbt.cli as cli
from confluent_dbt import lapack

real, calls = lapack.eigh_tridiagonal, []

def counted(d, e, k=None, vectors=False):
    calls.append((k, vectors))
    return real(d, e, k, vectors)

lapack.eigh_tridiagonal = counted
for argv in (
    ["verify", "all"],
    ["tdpt", "verify", "--suite", "spectrum", "--n", "0", "--N", "1", "--M", "1",
     "--lambda1", "1"],
    ["isotonic", "verify", "--suite", "ortho", "--n", "1", "--N", "1"],
    ["chain", "run", "--base", "isotonic", "--params", "0,1,2", "--lambdas", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "gauss_rules": sum(k is None for k, _ in calls),
    "fd_spectra": sum(vectors for _, vectors in calls),
    "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def test_cli_runs_without_importing_scipy():
    # the quadrature and the ODE solver are the package's own, and the
    # tridiagonal eigensolvers load scipy's LAPACK wrappers from their file:
    # no scipy module is imported, even when the Gauss-rule and the
    # finite-difference eigensolves run
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["scipy"] == []
    assert seen["gauss_rules"] > 0 and seen["fd_spectra"] > 0
    assert seen["threads"] == "2"  # the caller's setting is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", "import os, confluent_dbt.cli; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout == "1\n", proc.stderr


_EXACT_ONLY_RUN = """
import contextlib, io, json, os, sys

class NumpyWatch:
    # records OPENBLAS_NUM_THREADS when numpy is first imported
    threads = "not imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            NumpyWatch.threads = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

sys.meta_path.insert(0, NumpyWatch())
import confluent_dbt.cli as cli

# what only a float command or a suite check loads (numpy itself imports
# inspect)
LATE = ("numpy", "confluent_dbt._flapack", "confluent_dbt.lapack",
        "confluent_dbt.dop853", "dataclasses", "inspect", "confluent_dbt.suite",
        "confluent_dbt.floatcmds")

def loaded():
    return sorted(m for m in sys.modules
                  if m in LATE or m.split(".")[0] in ("numpy", "scipy"))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv

tdpt = ["--n", "1", "--N", "1", "--M", "2", "--lambda1", "1"]
for argv in (
    ["classical", "dump", "--family", "jacobi", "--n", "2", "--N", "1", "--M", "2"],
    ["classical", "dump", "--family", "laguerre", "--n", "2", "--N", "1"],
    ["tdpt", "build", *tdpt],
    ["isotonic", "build", "--n", "1", "--N", "1"],
    ["table", "--family", "tdpt", "--kind", "polynomial", *tdpt],
    ["table", "--family", "isotonic", "--kind", "polynomial", "--n", "1", "--N", "1"],
    *(["tdpt", "verify", "--suite", s, *tdpt] for s in ("regularity", "ode", "shape")),
    *(["isotonic", "verify", "--suite", s, "--n", "1", "--N", "1"]
      for s in ("ode", "shape", "q-crosscheck")),
    *(["isotonic", "verify", "--suite", s, "--n", "0", "--N", "2"]
      for s in ("n0-type2", "n0-negative")),
):
    run(argv)
exact = loaded()
run(["tdpt", "verify", "--suite", "spectrum", "--n", "0", "--N", "1", "--M", "1",
     "--lambda1", "1"])
spectrum = loaded()
run(["verify", "all"])
suite = loaded()
run(["table", "--family", "isotonic", "--n", "1", "--N", "1"])
print(json.dumps({"exact": exact, "spectrum": spectrum, "suite": suite,
                  "table": loaded(), "threads": NumpyWatch.threads}))
"""


def test_exact_commands_do_not_import_numpy():
    # the exact layer proves its statements without floats: numpy, LAPACK,
    # the ODE solver and scipy load only when a float command first needs
    # them, and OpenBLAS is then capped at one thread; no command of the
    # exact layer loads dataclasses or inspect either.  The suite checks load
    # with the first suite run, and the float commands with the first
    # sampled table, not with a per-spec float check
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_ONLY_RUN], capture_output=True, text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["exact"] == []
    assert {"numpy", "confluent_dbt._flapack"} <= set(seen["spectrum"])
    assert not any(m.split(".")[0] == "scipy" for m in seen["spectrum"])
    assert seen["threads"] == "1"
    suite, floatcmds = "confluent_dbt.suite", "confluent_dbt.floatcmds"
    assert suite not in seen["spectrum"] and floatcmds not in seen["spectrum"]
    assert suite in seen["suite"] and floatcmds not in seen["suite"]
    assert {suite, floatcmds} <= set(seen["table"])


_STARTUP_RUN = """
import json, sys
import confluent_dbt.cli as cli

cli.build_parser()
# type() reads no attribute, so it leaves a lazy module unexecuted
print(json.dumps({name: type(module).__name__ for name, module in sys.modules.items()
                  if name.split(".")[0] == "confluent_dbt"}))
"""


def test_startup_loads_only_what_every_command_needs():
    # the suite checks and the float commands are compiled at their first
    # use, and `verify` and `chains` are entered but not executed
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_RUN], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    eager = ("exactalg", "classical", "tdpt", "isotonic", "reports", "cli")
    assert json.loads(proc.stdout) == {
        "confluent_dbt": "module",
        **{f"confluent_dbt.{name}": "module" for name in eager},
        **{f"confluent_dbt.{name}": "_LazyModule" for name in ("verify", "chains")},
    }


def test_two_interpreters_with_different_hash_seeds_agree():
    # set and dict orders of strings change with PYTHONHASHSEED; the report
    # of a fresh interpreter must not, apart from its timings
    def report(seed):
        proc = subprocess.run(
            [sys.executable, "-m", "confluent_dbt", "verify", "exactalg"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        for c in data["checks"]:
            c.pop("elapsed_ms")
        return data

    assert report("1") == report("2")
