import json
import re

import pytest

from confluent_dbt import reports


REQUIRED = set(reports.REQUIRED_INVARIANTS)


def test_manifest_covers_required_invariants():
    ids = [c.check_id for c in reports.MANIFEST]
    assert len(ids) == len(set(ids))
    assert REQUIRED <= set(ids)


def test_manifest_rows_well_formed():
    for check_id, module, description in reports.manifest_rows():
        assert check_id.split(".")[0] == module
        assert description.strip()
        # ids are lowercase dotted slugs
        assert re.fullmatch(r"[a-z0-9]+\.[a-z0-9-]+", check_id)


def test_manifest_modules_cover_all_layers():
    modules = {c.module for c in reports.MANIFEST}
    assert modules == {
        "exactalg", "classical", "tdpt", "isotonic", "chains", "verify", "cli",
    }


def test_run_single_check():
    report = reports.run_check("exactalg.antiderivative")
    assert report.status == "pass"
    assert report.check_id == "exactalg.antiderivative"
    assert isinstance(report.elapsed_ms, int)
    j = report.to_json()
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
