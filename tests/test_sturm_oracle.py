"""The Descartes root engine of `exactalg` against a frozen copy of the
Sturm-chain counting and isolation it replaced.

The frozen functions below are the former bodies of `count_roots` and
`isolate_roots`, verbatim apart from their names, on the integer kernels
that stay in `exactalg`; the remainder sequence they read (`_prs`, with
its `_strip`) is frozen here as well.  With both ends bounded the two
engines must give identical intervals, since both bisect at midpoints and
report a node's interval once it holds one root; with an unbounded end
they stand in different bounds (Cauchy's there, 2^k + 1 here), so only
the counts must agree.  The inputs are every polynomial that the benchmark pool's
`regularity` and `q-crosscheck` commands and the `tdpt.regularity`,
`isotonic.rootless` and `exactalg.sturm` suite checks isolate, recorded at
the engine's one entry point, and hypothesis-drawn rooted polynomials.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confluent_dbt import cli, exactalg, isotonic, reports, tdpt
from confluent_dbt.exactalg import (
    ExactPoly,
    _horner_at,
    _pdiv,
    _primitive,
    as_rat,
    count_roots,
    isolate_roots,
)

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


# -- the frozen Sturm engine ---------------------------------------------------------


def _strip(a) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _prs(a, b):
    while b:
        b = _primitive(b)
        yield b
        r = _strip(_pdiv(a, b)[1])
        a, b = b, [-c for c in r]


def sturm_chain(p: ExactPoly) -> list:
    a = _primitive(list(p._num))
    chain = (a, *_prs(a, [i * c for i, c in enumerate(a)][1:]))
    return [ExactPoly._from_ints(c) for c in chain]


def _sign_at(p: ExactPoly, x: Fraction) -> int:
    v = _horner_at(p._num, x)[0]
    return (v > 0) - (v < 0)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_data(p: ExactPoly) -> tuple:
    if p.is_zero:
        raise ValueError("root counting on the zero polynomial")
    if p.degree() == 0:
        return p.monic(), []
    q = (p // p.gcd(p.derivative())).monic()
    return q, sturm_chain(q)


def _open_count(q: ExactPoly, chain, x: Fraction, y: Fraction) -> int:
    n = _variations(chain, x) - _variations(chain, y)
    if q(y) == 0:
        n -= 1
    return n


def _cauchy_bound(p: ExactPoly) -> Fraction:
    num = p._num
    return 1 + Fraction(max(map(abs, num)), abs(num[-1]))


def _bracket(q: ExactPoly, lo, hi) -> tuple:
    a = -_cauchy_bound(q) if lo is None else as_rat(lo)
    b = _cauchy_bound(q) if hi is None else as_rat(hi)
    return a, b


def sturm_count(p: ExactPoly, lo=None, hi=None) -> int:
    q, chain = _sturm_data(p)
    a, b = _bracket(q, lo, hi)
    return _open_count(q, chain, a, b) if chain and a < b else 0


def sturm_isolate(p: ExactPoly, lo=None, hi=None) -> tuple:
    q, chain = _sturm_data(p)
    a, b = _bracket(q, lo, hi)
    out = []

    def rec(x, y):
        c = _open_count(q, chain, x, y)
        if c == 0:
            return
        if c == 1:
            out.append((x, y))
            return
        m = (x + y) / 2
        rec(x, m)
        if q(m) == 0:
            out.append((m, m))
        rec(m, y)

    if chain and a < b:
        rec(a, b)
    return tuple(out)


def assert_engines_agree(p, lo, hi):
    if lo is None or hi is None:
        assert count_roots(p, lo, hi) == sturm_count(p, lo, hi)
    else:
        assert isolate_roots(p, lo, hi) == sturm_isolate(p, lo, hi)
        assert count_roots(p, lo, hi) == sturm_count(p, lo, hi)


# -- every isolation the digest commands make --------------------------------------


def _pool_specs(suite: str) -> list:
    """The specs of the pool candidates that run the per-spec suite `suite`."""
    parser = cli.build_parser()
    specs = []
    for cand in json.loads(POOL.read_text())["candidates"].values():
        argv = cand["argv"]
        if argv[1:2] == ["verify"] and "--suite" in argv and suite in argv:
            specs.append(cli._spec(argv[0], parser.parse_args(argv)))
    return specs


def _recorded(run) -> list:
    """(q, lo, hi) of every call that `run()` makes to the root engine."""
    calls, real = [], exactalg._isolate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_isolate",
                   lambda q, lo, hi: calls.append((q, lo, hi)) or real(q, lo, hi))
        run()
    return calls


def test_pool_specs_are_found():
    regularity, qcross = _pool_specs("regularity"), _pool_specs("q-crosscheck")
    assert regularity and all(isinstance(s, tdpt.TdptSpec) for s in regularity)
    assert qcross and all(isinstance(s, isotonic.IsotonicSpec) for s in qcross)


@pytest.mark.parametrize("run", [
    lambda: [tdpt.certify_regularity(s) for s in _pool_specs("regularity")],
    lambda: [isotonic.rootless_certificate(s.n, s.N) for s in _pool_specs("q-crosscheck")],
    lambda: reports.run_check("tdpt.regularity"),
    lambda: reports.run_check("isotonic.rootless"),
    lambda: reports.run_check("exactalg.sturm"),
], ids=["pool-regularity", "pool-q-crosscheck", "tdpt.regularity", "isotonic.rootless",
        "exactalg.sturm"])
def test_digest_isolations_match_the_sturm_oracle(run):
    reports._clear_constructor_caches()
    calls = _recorded(run)
    assert calls
    for q, lo, hi in calls:
        assert_engines_agree(q, lo, hi)


# -- hypothesis-drawn rooted polynomials ---------------------------------------------

root_values = st.integers(min_value=-24, max_value=24).map(lambda k: Fraction(k, 4))


@st.composite
def rooted_polys(draw):
    """Products of linear factors at rational roots (with multiplicity),
    an optional rootless quadratic, and a rational scale; with the roots."""
    roots = draw(st.lists(root_values, min_size=1, max_size=7))
    p = ExactPoly([draw(st.fractions(min_value=1, max_value=20, max_denominator=7))
                   * draw(st.sampled_from([-1, 1]))])
    for r in roots:
        p = p * ExactPoly([-r, 1])
    if draw(st.booleans()):
        p = p * ExactPoly([draw(st.integers(1, 9)), 0, 1])
    return p, sorted(set(roots))


@given(rooted_polys(), st.data())
@settings(max_examples=200, deadline=None)
def test_rooted_polynomials_match_the_sturm_oracle(case, data):
    p, roots = case
    ends = st.one_of(st.sampled_from(roots), root_values,
                     st.fractions(min_value=-7, max_value=7, max_denominator=9))
    lo, hi = sorted([data.draw(ends), data.draw(ends)])
    assert_engines_agree(p, lo, hi)
    assert_engines_agree(p, None, hi)
    assert_engines_agree(p, lo, None)
    assert_engines_agree(p, None, None)


@given(rooted_polys())
@settings(max_examples=200, deadline=None)
def test_root_bound_is_never_below_a_root(case):
    p, roots = case
    c = list(p._num)
    upper = exactalg._root_bound(c)
    lower = -exactalg._root_bound([-x if i & 1 else x for i, x in enumerate(c)])
    # no root lies beyond 2^k, one below the odd end
    assert lower + 1 <= min(roots) and max(roots) <= upper - 1


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=9)
       .filter(lambda c: c[-1] != 0))
@settings(max_examples=200, deadline=None)
def test_root_bound_holds_on_dense_integer_polynomials(c):
    # roots need not be rational here: the frozen Sturm count finds none
    # beyond 2^k, with the Cauchy bound as its own end
    p = ExactPoly(c)
    upper = exactalg._root_bound(c)
    lower = -exactalg._root_bound([-x if i & 1 else x for i, x in enumerate(c)])
    assert sturm_count(p, upper - 1, None) == 0
    assert sturm_count(p, None, lower + 1) == 0
