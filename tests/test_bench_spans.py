"""The traced benchmark wraps program functions by name (`SPANS` in
`perfbench/spans.py`) and checks that each fires on the workloads `EXPECTED`
names; a rename or move in the package, or a command that stops calling
a span its workload expects, must fail here, not only in a traced bench
run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    # spans.py imports only the standard library; its tables are read,
    # nothing is installed
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [
    (name, owner, attr)
    for name, targets in _spans_module().SPANS.items()
    for owner, attr in targets
]


def test_span_table_is_nonempty():
    assert TARGETS


@pytest.mark.parametrize(
    "name, owner, attr", TARGETS, ids=[f"{n}:{o}.{a}" for n, o, a in TARGETS]
)
def test_span_target_resolves(name, owner, attr):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(f"confluent_dbt.{module_name}")
    if class_name:
        obj = getattr(obj, class_name)
        assert isinstance(obj, type), f"{owner} is not a class"
    assert callable(getattr(obj, attr, None)), f"{name}: {owner}.{attr} is missing"


# -- every span fires on every workload that expects it ----------------------------

# the build outputs the oracle rows read, written before the counters go in
BUILDS = {
    "tdpt.json": "tdpt build --n 1 --N 1 --M 2 --lambda1 1 --kmax 2",
    "isotonic.json": "isotonic build --n 1 --N 1 --kmax 3",
}

# spans that several rows below share
KERNELS = ("cli.main", "exactalg.poly_mul", "exactalg.poly_gcd", "exactalg.ratfn_canon")
TDPT = ("classical.jacobi", "tdpt.q_poly", "tdpt.p_tilde", "tdpt.extended_potential")
ISOTONIC = ("classical.laguerre", "isotonic.q_poly", "isotonic.l_tilde",
            "isotonic.extended_potential")
FLOAT = ("exactalg.poly_eval_float", "exactalg.gauged_eval")

# (workload, argv, the spans the command must call): one command of each
# group of the benchmark pool at cheap inputs, plus the oracle forms that
# read a build output
COMMANDS = [
    ("exact-verify", "tdpt verify --suite ode --n 1 --N 1 --M 1 --lambda1 -1 --kmax 2",
     (*KERNELS, *TDPT, "exactalg.poly_divmod", "exactalg.poly_eval_exact",
      "verify.exact_ode_residual")),
    ("exact-verify", "isotonic verify --suite ode --n 1 --N 1 --kmax 2",
     (*KERNELS, *ISOTONIC, "exactalg.poly_divmod", "exactalg.poly_eval_exact",
      "verify.exact_ode_residual")),
    ("exact-verify", "tdpt verify --suite regularity --n 0 --N 1 --M 1 --lambda1=2/3 "
     "--kmax 2", ("tdpt.certify_regularity", "exactalg.sturm")),
    ("exact-verify", "tdpt verify --suite regularity --n 0 --N 1 --M 1 --lambda1=-1 "
     "--kmax 2", ("tdpt.certify_regularity", "exactalg.sturm")),
    ("exact-verify", "tdpt verify --suite shape --n 1 --N 1 --M 1 --lambda1=-1/2 "
     "--kmax 6", ("tdpt.q_poly",)),
    ("exact-verify", "isotonic verify --suite q-crosscheck --n 1 --N 1",
     ("isotonic.rootless_certificate", "exactalg.sturm")),
    ("exact-verify", "isotonic verify --suite shape --n 1 --N 2", ("isotonic.q_poly",)),
    ("exact-verify", "isotonic verify --suite n0-type2 --n 0 --N 1",
     ("isotonic.extended_potential",)),
    ("exact-verify", "isotonic verify --suite n0-negative --n 0 --N 3",
     ("isotonic.q_poly",)),
    ("exact-build", "tdpt build --n 2 --N 1 --M 2 --lambda1 1 --kmax 4",
     (*KERNELS, *TDPT, "exactalg.poly_eval_exact")),
    ("exact-build", "isotonic build --n 2 --N 1 --kmax 4",
     (*ISOTONIC, "isotonic.rootless_certificate", "exactalg.sturm",
      "exactalg.poly_divmod")),
    ("exact-build", "table --kind polynomial --family tdpt --n 2 --N 1 --M 2 "
     "--lambda1 1 --kmax 4", ("tdpt.p_tilde",)),
    ("exact-build", "table --kind polynomial --family isotonic --n 2 --N 1 --kmax 4",
     ("isotonic.l_tilde",)),
    ("exact-build", "classical dump --family jacobi --n 2 --N 3 --M 1",
     ("classical.jacobi",)),
    ("exact-build", "classical dump --family laguerre --n 2 --N=0",
     ("classical.laguerre",)),
    ("numeric", "verify all",
     ("reports.run_suite", "reports.run_check", "exactalg.poly_divmod")),
    ("numeric", "tdpt table --n 1 --N 1 --M 3 --lambda1 -1 --kmax 3 "
     "--x-points 0.01:1.54:50", (*KERNELS, *TDPT, *FLOAT)),
    ("numeric", "isotonic table --n 1 --N 3 --omega 1 --kmax 3 "
     "--x-points 0.06:5:50", (*ISOTONIC, *FLOAT)),
    ("numeric", "tdpt verify --suite spectrum --n 0 --N 1 --M 1 --lambda1 1",
     ("tdpt.extended_potential", "verify.dirichlet_spectrum")),
    ("numeric", "isotonic verify --suite spectrum --n 1 --N 1 --omega 2",
     ("isotonic.extended_potential", "verify.dirichlet_spectrum")),
    ("numeric", "tdpt verify --suite ortho --n 1 --N 2 --M 1 --lambda1 -2 --kmax 3",
     ("tdpt.p_tilde",)),
    ("numeric", "isotonic verify --suite ortho --n 1 --N 1 --omega 2 --kmax 3",
     ("isotonic.l_tilde",)),
    ("numeric", "table --kind eigenfunction --family tdpt --n 1 --N 1 --M 3 "
     "--lambda1 -1 --kmax 3 --x-points 0.01:1.54:50", (*TDPT, *FLOAT)),
    ("numeric", "table --kind eigenfunction --family isotonic --n 1 --N 3 "
     "--omega 2 --kmax 3 --x-points 0.06:5:50", (*ISOTONIC, *FLOAT)),
    ("numeric", "verify spectrum --potential-json {dir}/tdpt.json --levels 3",
     ("verify.dirichlet_spectrum",)),
    ("numeric", "verify spectrum --potential-json {dir}/isotonic.json --levels 3 "
     "--omega 2", ("verify.dirichlet_spectrum",)),
    ("numeric", "verify gram --family-json {dir}/tdpt.json",
     ("tdpt.p_tilde", "verify.gram_matrix", "verify.quadrature")),
    ("numeric", "verify gram --family-json {dir}/isotonic.json --omega 2",
     ("isotonic.l_tilde", "verify.gram_matrix", "verify.quadrature")),
    ("numeric", "chain run --base isotonic --params=0,1,2 --lambdas=1 "
     "--grid=0.1:2.475:50 --full",
     ("chains.hyperconfluent_chain", "classical.laguerre", *FLOAT)),
    ("numeric", "chain crosscheck --base tdpt --which two-step --params=0,2,2 "
     "--lambda1=-1 --points 16", ("chains.integral_from_anchor", "verify.quadrature")),
    ("numeric", "chain crosscheck --base tdpt --which matveev --params=1,1,1 "
     "--points 24", ("chains.matveev_potential", "chains.integral_from_anchor")),
]


def _count_calls(monkeypatch) -> dict:
    """Wrap every span target with a call counter and rebind every name in
    the package's modules and classes that refers to it, as the traced
    benchmark does; returns span name -> [calls].  As there, a span with
    several targets counts them all, `exactalg.poly_eval` counts under
    `_exact` or `_float` by its argument (`spans._eval_kind`), and
    `reports.run_check` counts only the calls no other check makes."""
    spans = _spans_module()
    owners = [
        value
        for key, mod in sorted(sys.modules.items())
        if key.startswith("confluent_dbt") and mod is not None
        for value in [mod, *vars(mod).values()]
        if value is mod or (isinstance(value, type)
                            and value.__module__.startswith("confluent_dbt"))
    ]
    counts = {name: [0] for name in spans.EXPECTED}
    depth = [0]  # open run_check calls

    def count(name, args):
        if name == "exactalg.poly_eval":
            name = spans._eval_kind(None, args)
        if name in counts and not (name == "reports.run_check" and depth[0] > 1):
            counts[name][0] += 1

    for name, targets in spans.SPANS.items():
        for owner_path, attr in targets:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(f"confluent_dbt.{module_name}")
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                depth[0] += _name == "reports.run_check"
                try:
                    count(_name, args)
                    return _original(*args, **kwargs)
                finally:
                    depth[0] -= _name == "reports.run_check"

            wrapper.__wrapped__ = original  # the cache clearing walks wrappers
            for value in owners:
                for key, bound in list(vars(value).items()):
                    if bound is original:
                        monkeypatch.setattr(value, key, wrapper)
    return counts


@pytest.mark.parametrize(
    "workload, argv, must_call", COMMANDS, ids=[c[1] for c in COMMANDS]
)
def test_command_calls_its_spans(monkeypatch, capsys, tmp_path, workload, argv,
                                 must_call):
    from confluent_dbt import cli, reports

    for name, build in BUILDS.items():
        if name in argv:
            assert cli.main([*build.split(), "--out", str(tmp_path / name)]) == 0
    reports._clear_constructor_caches()  # a cached construction skips no span
    counts = _count_calls(monkeypatch)
    assert cli.main(argv.replace("{dir}", str(tmp_path)).split()) == 0
    capsys.readouterr()
    expected = _spans_module().EXPECTED
    assert all(workload in expected[name] for name in must_call)
    assert [name for name in must_call if not counts[name][0]] == []


def test_commands_cover_every_span_on_every_workload_that_expects_it():
    covered = {(workload, name) for workload, _, names in COMMANDS for name in names}
    expected = _spans_module().EXPECTED
    assert {(workload, name) for name, workloads in expected.items()
            for workload in workloads} <= covered
