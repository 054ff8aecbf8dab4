"""The traced benchmark wraps program functions by name (`SPANS` in
`perfbench/spans.py`); a rename or move in the package must fail here, not
only in a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    # spans.py imports only the standard library; its SPANS table is read,
    # nothing is installed
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


TARGETS = [
    (name, owner, attr)
    for name, targets in _spans().items()
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
