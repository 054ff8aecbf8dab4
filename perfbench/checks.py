"""Output checks for every command of a pass.

* verify-style commands (``tdpt verify``, ``isotonic verify``,
  ``verify all``, ``chain crosscheck``) must exit 0 with ``counts.fail == 0``;
* exact build commands are compared field by field against digests of the
  coefficient strings recorded at the calibrated commit; a new field is
  ignored, a changed coefficient string fails;
* CSV tables are re-evaluated on seeded sample rows against the exact
  rational functions recorded at the calibrated commit, evaluated here in
  ``Fraction`` arithmetic at the same float z; the largest error relative
  to each column's largest magnitude feeds ``eval_relerr_max`` and fails
  the command past `RELERR_BOUND`;
* chain CSVs must have the requested rows, finite values, and the two
  potential routes must agree within `CHAIN_ROUTE_BOUND`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

RELERR_BOUND = 1e-9
CHAIN_ROUTE_BOUND = 1e-6
SAMPLE_ROWS = 32

_POLY_FIELDS = ("q", "denominator", "correction", "z_form", "correction_units",
                "zform_units", "polynomial")
_FAMILY_FIELDS = ("p_tilde", "l_tilde", "polynomials")


def _exact_core(value):
    """Keep only the coefficient data of a serialized polynomial or
    rational function, so added metadata does not change the digest."""
    if isinstance(value, dict):
        return {k: _exact_core(v) for k, v in value.items()
                if k in ("coeffs", "num", "den")}
    return value


def digest(value) -> str:
    text = json.dumps(_exact_core(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_digests(payload: dict) -> dict:
    """field path -> digest for every exact-object field of a payload."""
    out = {}
    for key in _POLY_FIELDS:
        if key in payload:
            out[key] = digest(payload[key])
    for key in _FAMILY_FIELDS:
        for k, poly in payload.get(key, {}).items():
            out[f"{key}/{k}"] = digest(poly)
    return out


# -- exact evaluation of recorded objects ------------------------------------------


def _poly(obj) -> list:
    return [Fraction(int(p), int(q)) for p, q in obj["coeffs"]]


def _horner(coeffs, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _ratio(num, den, z: Fraction) -> float:
    return float(_horner(num, z) / _horner(den, z))


def _column_refs(family: str, spec: dict, exact: dict, header: list):
    """column name -> function(x) giving the reference value."""
    refs = {}
    if family == "tdpt":
        zf = exact["z_form"]
        num, den = _poly(zf["num"]), _poly(zf["den"])
        dpoly = _poly(exact["denominator"])
        a = float(Fraction(2 * spec["N"] + 1, 4))
        b = float(Fraction(2 * spec["M"] + 1, 4))

        def v_ext(x):
            z = math.cos(2.0 * x)
            return _ratio(num, den, Fraction(z))

        refs["v_ext"] = v_ext
        for k, p in exact["p_tilde"].items():
            pk = _poly(p)

            def psi(x, pk=pk):
                z = math.cos(2.0 * x)
                return (1.0 - z) ** a * (1.0 + z) ** b * _ratio(pk, dpoly, Fraction(z))

            refs[f"psi_{k}"] = psi
    else:
        omega = float(Fraction(spec["omega"]))
        zf = exact["zform_units"]
        num, den = _poly(zf["num"]), _poly(zf["den"])
        qpoly = _poly(exact["q"])
        c = float(Fraction(2 * spec["N"] + 1, 4))

        def v_ext(x):
            z = omega * x * x / 2.0
            return omega * _ratio(num, den, Fraction(z))

        refs["v_ext"] = v_ext
        for k, p in exact["l_tilde"].items():
            lk = _poly(p)

            def psi(x, lk=lk):
                z = omega * x * x / 2.0
                return z ** c * math.exp(-z / 2.0) * _ratio(lk, qpoly, Fraction(z))

            refs[f"psi_{k}"] = psi
    return {name: refs[name] for name in header if name in refs}


def _parse_csv(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# -- checks -----------------------------------------------------------------------


class Checker:
    """Checks one pass's outputs; keeps the largest table error seen."""

    def __init__(self, pool: dict, seed: int):
        self.refs = pool["refs"]
        self.exact = pool["exact"]
        self.seed = seed
        self.relerr_max = 0.0
        self.tables = 0

    def check(self, cand: dict, rc, out: str) -> str:
        """Return "" when the output is correct, else a one-line reason."""
        if rc != 0:
            return f"exit code {rc}"
        kind = cand["check"]["type"]
        try:
            if kind == "report":
                return self._report(out)
            if kind == "digest":
                return self._digest(cand, out)
            if kind == "table":
                return self._table(cand, out)
            if kind == "chain":
                return self._chain(cand, out)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return f"unknown check {kind}"

    def _report(self, out):
        payload = json.loads(out)
        if not payload.get("checks"):
            return "no checks reported"
        if payload["counts"]["fail"] != 0:
            return f"failed checks {payload.get('failed')}"
        return ""

    def _digest(self, cand, out):
        got = exact_digests(json.loads(out))
        want = self.refs[cand["id"]]
        bad = sorted(k for k, v in want.items() if got.get(k) != v)
        return f"exact fields differ from the reference: {bad}" if bad else ""

    def _table(self, cand, out):
        header, rows = _parse_csv(out)
        if len(rows) != cand["check"]["rows"]:
            return f"{len(rows)} rows, expected {cand['check']['rows']}"
        if not all(math.isfinite(v) for r in rows for v in r):
            return "non-finite value"
        spec = cand["spec"]
        refs = _column_refs(
            cand["check"]["family"], spec, self.exact[exact_key(spec)], header
        )
        if not any(name.startswith("psi_") for name in refs):
            return f"no eigenfunction columns in {header}"
        rng = random.Random(f"{self.seed}:{cand['id']}")
        picks = {0, len(rows) - 1} | set(rng.sample(range(len(rows)), SAMPLE_ROWS))
        worst = 0.0
        for name, ref in refs.items():
            j = header.index(name)
            scale = max(abs(r[j]) for r in rows)
            if scale == 0.0:
                return f"column {name} is all zero"
            for i in picks:
                x = rows[i][0]
                worst = max(worst, abs(rows[i][j] - ref(x)) / scale)
        self.tables += 1
        self.relerr_max = max(self.relerr_max, worst)
        if not worst <= RELERR_BOUND:
            return f"table error {worst!r} above {RELERR_BOUND}"
        return ""

    def _chain(self, cand, out):
        header, rows = _parse_csv(out)
        if len(rows) != cand["check"]["rows"]:
            return f"{len(rows)} rows, expected {cand['check']['rows']}"
        if not all(math.isfinite(v) for r in rows for v in r):
            return "non-finite value"
        a, b = header.index("v_ext"), header.index("v_ext_grouped")
        scale = max(1.0, max(abs(r[a]) for r in rows))
        gap = max(abs(r[a] - r[b]) for r in rows) / scale
        if not gap <= CHAIN_ROUTE_BOUND:
            return f"potential routes differ by {gap!r}"
        return ""


def exact_key(spec: dict) -> str:
    """Key of the recorded exact objects behind a table candidate."""
    if spec["family"] == "tdpt":
        return f"tdpt:{spec['n']},{spec['N']},{spec['M']},{spec['lambda1']}"
    return f"isotonic:{spec['n']},{spec['N']}"
