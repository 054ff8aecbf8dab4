"""The traced benchmark wraps program functions by name (`SPANS` in
`perfbench/spans.py`) and checks that each fires on the workloads `EXPECTED`
names; a rename or move in the package, or a command that stops calling
one of the construction spans, must fail here, not only in a traced bench
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


# -- the construction spans fire on every workload that expects them -------------

CONSTRUCTION_SPANS = (
    "tdpt.p_tilde", "tdpt.extended_potential",
    "isotonic.l_tilde", "isotonic.extended_potential",
)
# the numeric oracles the family commands reach through the shared bodies
ORACLE_SPANS = ("verify.dirichlet_spectrum", "verify.gram_matrix")

# the build outputs the oracle rows read, written before the counters go in
BUILDS = {
    "tdpt.json": "tdpt build --n 1 --N 1 --M 2 --lambda1 1 --kmax 2",
    "isotonic.json": "isotonic build --n 1 --N 1 --kmax 3",
}

# (workload, argv, the construction spans the command must call)
COMMANDS = [
    ("exact-build", "tdpt build --n 2 --N 1 --M 2 --lambda1 1 --kmax 4",
     ("tdpt.p_tilde", "tdpt.extended_potential")),
    ("exact-build", "isotonic build --n 2 --N 1 --kmax 4",
     ("isotonic.l_tilde", "isotonic.extended_potential")),
    ("exact-build", "table --kind polynomial --family tdpt --n 2 --N 1 --M 2 "
     "--lambda1 1 --kmax 4", ("tdpt.p_tilde",)),
    ("exact-build", "table --kind polynomial --family isotonic --n 2 --N 1 --kmax 4",
     ("isotonic.l_tilde",)),
    ("exact-verify", "tdpt verify --suite ode --n 1 --N 1 --M 1 --lambda1 -1 --kmax 2",
     ("tdpt.p_tilde", "tdpt.extended_potential")),
    ("exact-verify", "isotonic verify --suite ode --n 1 --N 1 --kmax 2",
     ("isotonic.l_tilde", "isotonic.extended_potential")),
    ("numeric", "tdpt table --n 1 --N 1 --M 3 --lambda1 -1 --kmax 3 "
     "--x-points 0.01:1.54:50", ("tdpt.p_tilde", "tdpt.extended_potential")),
    ("numeric", "isotonic table --n 1 --N 3 --omega 1 --kmax 3 "
     "--x-points 0.06:5:50", ("isotonic.l_tilde", "isotonic.extended_potential")),
    ("numeric", "tdpt verify --suite spectrum --n 0 --N 1 --M 1 --lambda1 1",
     ("tdpt.extended_potential", "verify.dirichlet_spectrum")),
    ("numeric", "isotonic verify --suite spectrum --n 1 --N 1 --omega 2",
     ("isotonic.extended_potential", "verify.dirichlet_spectrum")),
    ("numeric", "tdpt verify --suite ortho --n 1 --N 2 --M 1 --lambda1 -2 --kmax 3",
     ("tdpt.p_tilde",)),
    ("numeric", "isotonic verify --suite ortho --n 1 --N 1 --omega 2 --kmax 3",
     ("isotonic.l_tilde",)),
    ("numeric", "table --kind eigenfunction --family tdpt --n 1 --N 1 --M 3 "
     "--lambda1 -1 --kmax 3 --x-points 0.01:1.54:50",
     ("tdpt.p_tilde", "tdpt.extended_potential")),
    ("numeric", "table --kind eigenfunction --family isotonic --n 1 --N 3 "
     "--omega 2 --kmax 3 --x-points 0.06:5:50",
     ("isotonic.l_tilde", "isotonic.extended_potential")),
    ("numeric", "verify spectrum --potential-json {dir}/tdpt.json --levels 3",
     ("verify.dirichlet_spectrum",)),
    ("numeric", "verify spectrum --potential-json {dir}/isotonic.json --levels 3 "
     "--omega 2", ("verify.dirichlet_spectrum",)),
    ("numeric", "verify gram --family-json {dir}/tdpt.json",
     ("tdpt.p_tilde", "verify.gram_matrix")),
    ("numeric", "verify gram --family-json {dir}/isotonic.json --omega 2",
     ("isotonic.l_tilde", "verify.gram_matrix")),
]


def _count_calls(monkeypatch, names) -> dict:
    """Wrap each named span target with a call counter and rebind every name
    in the package's modules and classes that refers to it, as the traced
    benchmark does; returns span name -> [calls]."""
    spans = _spans_module().SPANS
    owners = [
        value
        for key, mod in sorted(sys.modules.items())
        if key.startswith("confluent_dbt") and mod is not None
        for value in [mod, *vars(mod).values()]
        if value is mod or (isinstance(value, type)
                            and value.__module__.startswith("confluent_dbt"))
    ]
    counts = {}
    for name in names:
        ((owner_path, attr),) = spans[name]
        original = getattr(importlib.import_module(f"confluent_dbt.{owner_path}"), attr)
        counts[name] = calls = [0]

        def wrapper(*args, _original=original, _calls=calls, **kwargs):
            _calls[0] += 1
            return _original(*args, **kwargs)

        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    monkeypatch.setattr(owner, key, wrapper)
    return counts


@pytest.mark.parametrize(
    "workload, argv, must_call", COMMANDS, ids=[c[1] for c in COMMANDS]
)
def test_command_calls_the_construction_spans(monkeypatch, capsys, tmp_path,
                                              workload, argv, must_call):
    from confluent_dbt import cli, reports

    for name, build in BUILDS.items():
        if name in argv:
            assert cli.main([*build.split(), "--out", str(tmp_path / name)]) == 0
    reports._clear_constructor_caches()  # a cached construction skips no span
    counts = _count_calls(monkeypatch, CONSTRUCTION_SPANS + ORACLE_SPANS)
    assert cli.main(argv.replace("{dir}", str(tmp_path)).split()) == 0
    capsys.readouterr()
    assert [name for name in must_call if not counts[name][0]] == []


def test_commands_cover_every_workload_the_construction_spans_expect():
    expected = _spans_module().EXPECTED
    covered = {(workload, name) for workload, _, names in COMMANDS for name in names}
    assert {
        (workload, name)
        for name in CONSTRUCTION_SPANS + ORACLE_SPANS
        for workload in expected[name]
    } <= covered
