from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confluent_dbt import isotonic, tdpt
from confluent_dbt.exactalg import (
    ExactPoly,
    RadialGauged,
    RationalFn,
    TrigGauged,
    count_roots,
    isolate_roots,
    refine_root,
    wronskian,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def poly_strategy(max_deg=6):
    return st.lists(rationals, min_size=0, max_size=max_deg + 1).map(ExactPoly)


# -- ExactPoly ---------------------------------------------------------------


def test_trailing_zeros_stripped():
    assert ExactPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert ExactPoly([0, 0]).is_zero
    assert ExactPoly().degree() == -1


@given(poly_strategy(), poly_strategy())
def test_mul_evaluates_consistently(p, q):
    z = Fraction(3, 7)
    assert (p * q)(z) == p(z) * q(z)
    assert (p + q)(z) == p(z) + q(z)
    assert (p - q)(z) == p(z) - q(z)


@given(poly_strategy())
def test_antiderivative_roundtrip(p):
    assert p.antiderivative().derivative() == p
    anchored = p.antiderivative(lower=Fraction(-1))
    assert anchored(Fraction(-1)) == 0
    assert anchored.derivative() == p


@given(poly_strategy(4), poly_strategy(4))
def test_divmod_identity(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree() < q.degree()


@given(poly_strategy(4), poly_strategy(4))
def test_gcd_divides_both(p, q):
    if p.is_zero and q.is_zero:
        return
    g = p.gcd(q)
    assert not g.is_zero
    assert (p % g).is_zero or p.is_zero
    assert (q % g).is_zero or q.is_zero
    assert g.lc() == 1


def test_power_and_monomial():
    p = ExactPoly([1, 1]) ** 3
    assert p == ExactPoly([1, 3, 3, 1])
    assert ExactPoly.x() ** 3 * Fraction(5, 2) == ExactPoly([0, 0, 0, Fraction(5, 2)])


POWER_BASES = [
    ExactPoly.x(),
    ExactPoly([1, -1]),
    ExactPoly([1, 1]),
    ExactPoly([Fraction(1, 2), Fraction(1, 3)]),  # (3 + 2z)/6
    ExactPoly([2, -5]),
    ExactPoly([0, Fraction(-3, 4)]),
    ExactPoly([Fraction(-7, 4)]),
    ExactPoly.one(),
    ExactPoly(),
    ExactPoly([1, 0, -1]),
    ExactPoly([Fraction(1, 2), -1, 0, Fraction(2, 3)]),
]


@pytest.mark.parametrize("base", POWER_BASES, ids=repr)
def test_power_equals_repeated_product(base):
    want = ExactPoly.one()
    for k in range(13):
        assert base**k == want
        want = want * base
    with pytest.raises(ValueError):
        base ** -1


@given(poly_strategy(3), st.integers(min_value=0, max_value=12))
def test_power_of_any_base_equals_repeated_product(p, k):
    want = ExactPoly.one()
    for _ in range(k):
        want = want * p
    assert p**k == want


def test_json_roundtrip():
    p = ExactPoly([Fraction(-1, 3), 0, Fraction(7, 2)])
    assert ExactPoly.from_json(p.to_json()) == p
    assert p.to_json() == {"coeffs": [["-1", "3"], ["0", "1"], ["7", "2"]]}


@given(poly_strategy())
@example(ExactPoly())
@example(ExactPoly([Fraction(-5, 6), 0, Fraction(3, 4), -2]))
def test_json_equals_the_fraction_route(p):
    assert p.to_json() == {
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in p.coeffs]
    }


# -- Sturm counting / isolation ----------------------------------------------


def _poly_from_roots(roots, quad_shifts=()):
    p = ExactPoly.one()
    for r in roots:
        p = p * ExactPoly([-r, 1])
    for c in quad_shifts:
        # z^2 + c with c > 0: no real roots
        p = p * ExactPoly([c, 0, 1])
    return p


@given(
    st.lists(
        st.integers(min_value=-30, max_value=30).map(lambda k: Fraction(k, 3)),
        min_size=0,
        max_size=6,
        unique=True,
    ),
    st.lists(st.integers(min_value=1, max_value=9).map(Fraction), max_size=2),
)
@settings(max_examples=150)
def test_count_roots_matches_construction(roots, shifts):
    p = _poly_from_roots(roots, shifts)
    assert count_roots(p) == len(roots)
    lo, hi = Fraction(-5), Fraction(5)
    expected = sum(1 for r in roots if lo < r < hi)
    assert count_roots(p, lo, hi) == expected
    # the closed count is the open one plus the endpoints that are roots
    expected_closed = sum(1 for r in roots if lo <= r <= hi)
    assert count_roots(p, lo, hi) + (p(lo) == 0) + (p(hi) == 0) == expected_closed


def test_count_roots_dense_sampling_oracle():
    # fixed seeded products of well-separated linear factors: a sign-sweep
    # at resolution finer than the root gap is a sound independent oracle
    import random

    rng = random.Random(20240817)
    for _ in range(25):
        k = rng.randint(1, 6)
        roots = sorted(rng.sample(range(-24, 24), k))
        roots = [Fraction(r, 2) for r in roots]
        p = _poly_from_roots(roots, (Fraction(rng.randint(1, 5)),))
        assert p.degree() <= 12
        lo, hi = Fraction(-13), Fraction(13)
        step = Fraction(1, 8)
        xs = []
        x = lo
        while x <= hi:
            xs.append(x)
            x += step
        vals = [p(x) for x in xs]
        hits = sum(1 for v in vals if v == 0)
        flips = sum(
            1
            for a, b in zip(vals, vals[1:])
            if a != 0 and b != 0 and (a > 0) != (b > 0)
        )
        assert count_roots(p, lo, hi) == hits + flips == len(roots)


def test_multiple_roots_counted_once():
    p = ExactPoly([-1, 1]) ** 3 * ExactPoly([2, 1])
    assert count_roots(p) == 2
    assert len(isolate_roots(p)) == 2


def test_isolation_separates_and_refines():
    roots = [Fraction(-3), Fraction(1, 2), Fraction(2), Fraction(7, 3)]
    p = _poly_from_roots(roots)
    iso = isolate_roots(p)
    assert len(iso) == 4
    # the intervals come left to right
    for (lo, hi), r in zip(iso, sorted(roots)):
        assert lo <= r <= hi
        if lo != hi:
            assert count_roots(p, lo, hi) + (p(lo) == 0) + (p(hi) == 0) == 1
        tight = refine_root(p, (lo, hi), Fraction(1, 10**6))
        assert tight[1] - tight[0] <= Fraction(1, 10**6)
        assert tight[0] <= r <= tight[1]


def test_isolation_window_endpoint_root():
    # a root exactly at the window edge must not leak into the open window
    p = _poly_from_roots([Fraction(-1), Fraction(0)])
    assert count_roots(p, Fraction(-1), Fraction(1)) == 1
    lo, hi = Fraction(-1), Fraction(1)
    assert count_roots(p, lo, hi) + (p(lo) == 0) + (p(hi) == 0) == 2  # closed
    assert len(isolate_roots(p, Fraction(-1), Fraction(1))) == 1


def test_half_line_count():
    p = _poly_from_roots([Fraction(-2), Fraction(5)])
    assert count_roots(p, Fraction(0), None) == 1
    assert count_roots(p, None, Fraction(0)) == 1
    assert isolate_roots(p, Fraction(0), None)[0][0] >= 0


Z = ExactPoly([0, 1])


@pytest.mark.parametrize("p,lo,hi", [
    (Z - 1, Fraction(1), Fraction(1)),
    ((Z - 1) * (Z + 2), Fraction(3), Fraction(-3)),
    ((Z - 1) * (Z + 2), Fraction(1), Fraction(-2)),
], ids=["point", "reversed", "reversed-between-roots"])
def test_empty_interval_holds_no_root(p, lo, hi):
    # an open interval with lo >= hi is empty
    assert count_roots(p, lo, hi) == 0
    assert isolate_roots(p, lo, hi) == ()


# an end given as None is unbounded; the roots 1 and -2 of (z - 1)(z + 2)
# lie inside its Cauchy bound 3, which stands in for that end
@pytest.mark.parametrize("lo,hi,roots", [
    (None, None, 2), (-100, None, 2), (None, 100, 2), (-2, None, 1), (None, 1, 1),
    (5, None, 0), (None, -5, 0), (1, None, 0), (None, -2, 0), (3, None, 0),
    (100, None, 0), (None, -100, 0),
])
def test_unbounded_end_counts_every_root_beyond(lo, hi, roots):
    p = (Z - 1) * (Z + 2)
    assert count_roots(p, lo, hi) == roots
    assert len(isolate_roots(p, lo, hi)) == roots


@pytest.mark.parametrize("interval", [(Fraction(3), Fraction(-3)), (Fraction(1), 0)])
def test_refine_root_refuses_a_reversed_interval(interval):
    # the second interval has the root at its left end
    with pytest.raises(ValueError):
        refine_root((Z - 1) * (Z + 2), interval, Fraction(1, 100))


# -- RationalFn ----------------------------------------------------------------


@given(poly_strategy(3), poly_strategy(3), poly_strategy(2))
@settings(max_examples=120)
def test_rationalfn_canonical_after_ops(a, b, c):
    if b.is_zero or c.is_zero:
        return
    r1 = RationalFn(a, b)
    r2 = RationalFn(c, b)
    for r in (r1 + r2, r1 * r2, r1 - r2, r1.derivative()):
        if not r.is_zero:
            assert r.num.gcd(r.den).degree() == 0
        assert r.den.lc() == 1


@given(poly_strategy(3), poly_strategy(3))
def test_rationalfn_eval_consistency(a, b):
    if b.is_zero:
        return
    r = RationalFn(a, b)
    z = Fraction(5, 3)
    if b(z) != 0:
        assert r(z) == a(z) / b(z)


def test_rationalfn_division_and_equality():
    z = ExactPoly([0, 1])
    r = RationalFn(z * z - 1, z + 1)
    assert r == RationalFn(z - 1)
    assert r.is_polynomial()
    assert (r / r) == RationalFn(ExactPoly.one())
    with pytest.raises(ZeroDivisionError):
        r / RationalFn(ExactPoly.zero())


def test_rationalfn_derivative_quotient_rule():
    z = ExactPoly([0, 1])
    r = RationalFn(z * z + 1, z)
    # d/dz [(z^2+1)/z] = 1 - 1/z^2
    assert r.derivative() == RationalFn(z * z - 1, z * z)


# -- Gauged functions ----------------------------------------------------------


def _fd_derivative(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_trig_gauged_derivative_matches_numeric():
    f = TrigGauged(
        Fraction(3, 4), Fraction(3, 4), RationalFn(ExactPoly([1, 2, 1]))
    )
    df = f.d_dx()
    for x in (0.3, 0.7, 1.1, 1.4):
        assert df.eval_x(x) == pytest.approx(
            _fd_derivative(f.eval_x, x), rel=1e-7
        )


def test_radial_gauged_derivative_matches_numeric():
    f = RadialGauged(
        Fraction(3, 4), -1, 0, RationalFn(ExactPoly([2, -1, 3]))
    )
    df = f.d_dx()
    for x in (0.4, 0.9, 1.7):
        for omega in (1.0, 2.0):
            got = df.eval_x(x, omega)
            want = _fd_derivative(lambda t: f.eval_x(t, omega), x)
            assert got == pytest.approx(want, rel=1e-6)


def test_trig_gauged_product_rule_exact():
    f = TrigGauged(Fraction(3, 4), Fraction(5, 4), RationalFn(ExactPoly([0, 1])))
    g = TrigGauged(Fraction(1, 4), Fraction(3, 4), RationalFn(ExactPoly([2, 1])))
    assert (f * g).d_dx() == f.d_dx() * g + f * g.d_dx()


def test_radial_gauged_product_rule_exact():
    f = RadialGauged(Fraction(3, 4), -1, 0, RationalFn(ExactPoly([0, 1, 1])))
    g = RadialGauged(Fraction(5, 4), -1, 0, RationalFn(ExactPoly([3, -2])))
    assert (f * g).d_dx() == f.d_dx() * g + f * g.d_dx()


def test_gauged_addition_alignment_rules():
    f = TrigGauged(Fraction(3, 4), Fraction(3, 4), RationalFn(ExactPoly([1])))
    g = TrigGauged(Fraction(7, 4), Fraction(3, 4), RationalFn(ExactPoly([1])))
    s = f + g
    # (1-z)^{3/4}(1+z)^{3/4} [1 + (1-z)]
    assert s.a == Fraction(3, 4)
    assert s.rat == RationalFn(ExactPoly([2, -1]))
    with pytest.raises(ValueError):
        f + TrigGauged(Fraction(1, 2), Fraction(3, 4), RationalFn(ExactPoly([1])))
    r = RadialGauged(Fraction(3, 4), -1, 0, RationalFn(ExactPoly([1])))
    with pytest.raises(TypeError):
        f + r
    with pytest.raises(ValueError):
        r + RadialGauged(Fraction(3, 4), 1, 0, RationalFn(ExactPoly([1])))
    with pytest.raises(ValueError):
        r + RadialGauged(Fraction(3, 4), -1, 2, RationalFn(ExactPoly([1])))


def test_wronskian_alternation():
    f = TrigGauged(Fraction(3, 4), Fraction(3, 4), RationalFn(ExactPoly([0, 1])))
    g = TrigGauged(Fraction(3, 4), Fraction(3, 4), RationalFn(ExactPoly([1, 0, 2])))
    h = TrigGauged(Fraction(3, 4), Fraction(3, 4), RationalFn(ExactPoly([-1, 3])))
    assert wronskian([f, g]) == -wronskian([g, f])
    assert wronskian([f, g, h]) == -wronskian([g, f, h])
    assert wronskian([f, g, h]) == -wronskian([f, h, g])


def test_wronskian_pair_is_fg_minus_gf():
    f = RadialGauged(Fraction(3, 4), -1, 0, RationalFn(ExactPoly([0, 1])))
    g = RadialGauged(Fraction(3, 4), -1, 0, RationalFn(ExactPoly([1, 2])))
    assert wronskian([f, g]) == f * g.d_dx() - f.d_dx() * g
    assert wronskian([f]) == f
    with pytest.raises(TypeError):
        wronskian([f, TrigGauged(Fraction(1, 4), Fraction(1, 4), RationalFn(ExactPoly([1])))])


def test_wronskian_of_dependent_functions_vanishes():
    f = TrigGauged(Fraction(3, 4), Fraction(3, 4), RationalFn(ExactPoly([1, 2])))
    assert wronskian([f, 3 * f]).is_zero


# -- gauged algebra: properties shared by both families ------------------------

# Each exponent is a small rational part shared by the operands plus an
# integer gap per operand.  Numerators have nonnegative coefficients and
# denominators no root on z >= 0, so the values sampled below (z in (0, 1)
# for the trigonometric map, z > 0 for the radial one) are positive and
# float evaluation keeps its relative accuracy.
exp_parts = st.fractions(min_value=-1, max_value=1, max_denominator=4)
exp_gaps = st.integers(0, 3)
positive_polys = st.lists(
    st.fractions(min_value=0, max_value=20, max_denominator=12),
    min_size=0, max_size=4,
).map(ExactPoly)
positive_ratfns = st.builds(
    RationalFn,
    positive_polys,
    st.sampled_from([ExactPoly([1]), ExactPoly([3, 1]), ExactPoly([2, 0, 1])]),
)


@st.composite
def trig_pairs(draw):
    a, b = draw(exp_parts), draw(exp_parts)
    return tuple(
        TrigGauged(a + draw(exp_gaps), b + draw(exp_gaps), draw(positive_ratfns))
        for _ in range(2)
    )


@st.composite
def radial_pairs(draw, same_s_p=True):
    c = draw(exp_parts)
    s, p = draw(st.integers(-2, 1)), draw(st.integers(0, 3))
    out = []
    for _ in range(2):
        if not same_s_p:
            s, p = draw(st.integers(-2, 1)), draw(st.integers(0, 3))
        out.append(RadialGauged(c + draw(exp_gaps), s, p, draw(positive_ratfns)))
    return tuple(out)


any_pairs = st.one_of(trig_pairs(), radial_pairs())
gauged_products = st.one_of(trig_pairs(), radial_pairs(same_s_p=False))


def _gauge_fields(f):
    return [getattr(f, name) for name in f._fields if name != "rat"]


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@given(any_pairs)
@settings(max_examples=80, deadline=None)
def test_gauged_sum_commutes_and_cancels(pair):
    f, g = pair
    assert f + g == g + f
    assert (f + g) - g == f
    assert (f - f).is_zero


@given(gauged_products)
@settings(max_examples=80, deadline=None)
def test_gauged_product_adds_every_gauge_field(pair):
    f, g = pair
    h = f * g
    assert type(h) is type(f)
    sums = [x + y for x, y in zip(_gauge_fields(f), _gauge_fields(g))]
    assert _gauge_fields(h) == sums
    assert h.rat == f.rat * g.rat


@given(trig_pairs(), st.floats(min_value=0.4, max_value=0.75))
@settings(max_examples=80, deadline=None)
def test_trig_gauged_values_of_sum_and_product(pair, x):
    f, g = pair
    fx, gx = f.eval_x(x), g.eval_x(x)
    assert _close((f + g).eval_x(x), fx + gx)
    assert _close((f * g).eval_x(x), fx * gx)


@given(radial_pairs(same_s_p=False), st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_radial_gauged_values_of_sum_and_product(pair, x):
    f, g = pair
    fx, gx = f.eval_x(x), g.eval_x(x)
    if f.s == g.s and f.p == g.p:
        assert _close((f + g).eval_x(x), fx + gx)
    assert _close((f * g).eval_x(x), fx * gx)


@given(exp_parts, exp_gaps, exp_parts, positive_ratfns)
def test_trig_gauge_exponent_moves_into_rat(a, gap, b, r):
    a += gap
    f, g = TrigGauged(a, b, r), TrigGauged(a - 1, b, r * (1 - ExactPoly.x()))
    # `!=` negates the gauge-aware `==`, not tuple comparison of the fields
    assert f == g and not f != g


def _nonzero(r):
    return r if not r.is_zero else RationalFn(ExactPoly([1]))


@given(trig_pairs(), radial_pairs())
@settings(max_examples=40, deadline=None)
def test_gauged_mixed_families_and_fractional_gaps_refused(tp, rp):
    f, r = (h._replace(rat=_nonzero(h.rat)) for h in (tp[0], rp[0]))
    for x, y in ((f, r), (r, f)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
        with pytest.raises(TypeError):
            x * y
    half = Fraction(1, 2)
    for g in (
        TrigGauged(f.a + half, f.b, f.rat),
        TrigGauged(f.a, f.b - half, f.rat),
        RadialGauged(r.c + half, r.s, r.p, r.rat),
    ):
        other = f if isinstance(g, TrigGauged) else r
        with pytest.raises(ValueError, match="non-integer"):
            g + other
        with pytest.raises(ValueError, match="non-integer"):
            other - g


@st.composite
def equal_pairs(draw):
    """Two equal gauged functions of one family: the second has an exponent
    lowered by an integer and the factor moved into `rat`, or both are
    zeros with unrelated gauges."""
    f = draw(st.one_of(trig_pairs(), radial_pairs()))[0]
    if draw(st.booleans()):
        zero = RationalFn(ExactPoly())
        g = draw(trig_pairs() if isinstance(f, TrigGauged) else radial_pairs())[0]
        return f._replace(rat=zero), g._replace(rat=zero)
    i, j = draw(exp_gaps), draw(exp_gaps)
    if isinstance(f, TrigGauged):
        lift = ExactPoly([1, -1]) ** i * ExactPoly([1, 1]) ** j
        return f, TrigGauged(f.a - i, f.b - j, f.rat * lift)
    return f, RadialGauged(f.c - i, f.s, f.p, f.rat * ExactPoly.x() ** i)


@given(equal_pairs())
@settings(max_examples=80, deadline=None)
def test_equal_gauged_functions_hash_alike(pair):
    f, g = pair
    assert f == g and g == f
    assert hash(f) == hash(g)


@given(st.one_of(any_pairs, gauged_products))
@settings(max_examples=80, deadline=None)
def test_gauged_equality_implies_equal_hash(pair):
    f, g = pair
    if f == g:
        assert hash(f) == hash(g)
    # a non-integer exponent gap leaves an irrational factor
    half = Fraction(1, 2)
    shifted = (
        g._replace(a=g.a + half) if isinstance(g, TrigGauged)
        else g._replace(c=g.c + half)
    )
    assert (f == shifted) == (f.is_zero and shifted.is_zero)


def test_gauged_zero_refuses_foreign_operands():
    one = RationalFn(ExactPoly([1]))
    trig = TrigGauged(Fraction(3, 4), Fraction(3, 4), RationalFn(0))
    radial = RadialGauged(Fraction(3, 4), -1, 0, RationalFn(0))
    for zero, other_family in ((trig, radial._replace(rat=one)),
                               (radial, trig._replace(rat=one))):
        for other in (5, Fraction(1, 2), one, other_family,
                      other_family._replace(rat=RationalFn(0))):
            with pytest.raises(TypeError, match="mixed gauge families"):
                zero + other
            with pytest.raises(TypeError, match="mixed gauge families"):
                zero - other


@given(radial_pairs(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_radial_s_and_p_mismatch(pair, shift):
    f, g = (h._replace(rat=_nonzero(h.rat)) for h in pair)
    for other, message in (
        (g._replace(s=g.s + shift), "incompatible exponential gauges"),
        (g._replace(p=g.p + shift), "incompatible frequency powers"),
        (g._replace(s=g.s + shift, p=g.p + 1), "incompatible exponential gauges"),
    ):
        assert not f == other
        assert f != other
        with pytest.raises(ValueError, match=message):
            f + other
        with pytest.raises(ValueError, match=message):
            other - f


ONE_MINUS, ONE_PLUS, Z = ExactPoly([1, -1]), ExactPoly([1, 1]), ExactPoly.x()
# factors with no root at 1, -1 or 0, where the lifts vanish
OFF_ROOT_DENS = [ExactPoly([1]), ExactPoly([3, 1]), ExactPoly([2, 0, 1])]


@st.composite
def lifted_cases(draw):
    """(f, low, lift): f's denominator is one of OFF_ROOT_DENS times powers
    0 to 2 of 1 - z and 1 + z (or of z), so it vanishes at none, some or all
    of the lift's roots; `low` lowers f's exponents by the lift's powers."""
    num = draw(poly_strategy(4))
    den = draw(st.sampled_from(OFF_ROOT_DENS))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        a, b, ga, gb = draw(exp_parts), draw(exp_parts), draw(exp_gaps), draw(exp_gaps)
        rat = RationalFn(num, den * ONE_MINUS**i * ONE_PLUS**j)
        return (TrigGauged(a + ga, b + gb, rat), {"a": a, "b": b},
                ONE_MINUS**ga * ONE_PLUS**gb)
    i, c, gc = draw(st.integers(0, 2)), draw(exp_parts), draw(exp_gaps)
    s, p = draw(st.integers(-2, 1)), draw(st.integers(0, 3))
    return RadialGauged(c + gc, s, p, RationalFn(num, den * Z**i)), {"c": c}, Z**gc


def _trig_case(rat, gaps):
    return TrigGauged(3 + gaps[0], 1 + gaps[1], rat), {"a": 3, "b": 1}, (
        ONE_MINUS ** gaps[0] * ONE_PLUS ** gaps[1])


@given(lifted_cases())
@example(_trig_case(RationalFn(ExactPoly([1]), ExactPoly([3, 1])), (1, 2)))
@example(_trig_case(RationalFn(ExactPoly([1]), ExactPoly([3, 4, 1])), (0, 2)))
@example(_trig_case(RationalFn(ExactPoly([0, 1]), ExactPoly([-1, 0, 1])), (1, 1)))
@example((RadialGauged(2, -1, 0, RationalFn(ExactPoly([1]), ExactPoly([0, 2, 0, 1]))),
          {"c": 1}, Z))
@settings(max_examples=80, deadline=None)
def test_rat_over_is_the_reduced_product_with_the_lift(case):
    # the lift shares a factor with a reduced denominator only where that
    # vanishes at 1, -1 or 0: rat_over skips the cancel elsewhere, and both
    # routes must give rat * lift, reduced as sympy.cancel reduces it
    sympy = pytest.importorskip("sympy")
    f, low, lift = case
    got = f.rat_over(low)
    assert got == f.rat * lift
    x = sympy.Symbol("x")

    def poly(p):
        cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        return sympy.Poly(cs or [0], x, domain=sympy.QQ)

    assert got.den.lc() == 1
    assert sympy.gcd(poly(got.num), poly(got.den)).degree() == 0
    value = poly(got.num).as_expr() / poly(got.den).as_expr()
    want = poly(f.rat.num * lift).as_expr() / poly(f.rat.den).as_expr()
    assert sympy.cancel(value - want) == 0


# -- array evaluation ----------------------------------------------------------

# The references are written out point by point on Python floats and libm:
# array and scalar results must both equal them bit for bit.


def horner_reference(p, z):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * z + float(c)
    return acc


def rat_reference(r, z):
    return horner_reference(r.num, z) / horner_reference(r.den, z)


def trig_reference(f, x):
    z = math.cos(2.0 * x)
    return (1.0 - z) ** float(f.a) * (1.0 + z) ** float(f.b) * rat_reference(f.rat, z)


def radial_reference(f, x, omega):
    z = omega * x * x / 2.0
    return (
        (2.0 * omega) ** (f.p / 2.0)
        * z ** float(f.c)
        * math.exp(f.s * z / 2.0)
        * rat_reference(f.rat, z)
    )


def assert_bit_identical(f, reference, xs, *args):
    """f on the array, and f at each point, equal the reference."""
    want = np.array([reference(t, *args) for t in xs.tolist()])
    assert np.array_equal(f(xs, *args), want)
    assert np.array_equal(np.array([f(t, *args) for t in xs.tolist()]), want)


quarters = st.integers(0, 12).map(lambda k: Fraction(k, 4))
unit_points = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=40
).map(np.array)
trig_points = st.lists(
    st.floats(min_value=1e-6, max_value=1.5707), min_size=1, max_size=40
).map(np.array)
radial_points = st.lists(
    st.floats(min_value=1e-6, max_value=8.0), min_size=1, max_size=40
).map(np.array)
omegas = st.sampled_from([0.5, 1.0, 1.5, 2.0])


@given(poly_strategy(8), poly_strategy(4), unit_points)
@settings(max_examples=150)
def test_array_evaluation_bit_identical_to_scalar(p, q, zs):
    assert_bit_identical(p, lambda z: horner_reference(p, z), zs)
    # a point where q vanishes raises on the scalar path: drop it
    zs = zs[np.array([q(t) != 0.0 for t in zs.tolist()], dtype=bool)]
    if len(zs):
        r = RationalFn(p, q)
        assert_bit_identical(r, lambda z: rat_reference(r, z), zs)


def test_array_evaluation_overflows_to_inf_silently_as_scalar_evaluation():
    # pytest turns a RuntimeWarning into an error
    big, r = ExactPoly([0, 10**300]), RationalFn(1, ExactPoly([0, 1]))
    assert big(1e300) == r(1e-320) == math.inf
    assert big(np.array([1e300, 1.0])).tolist() == [math.inf, 1e300]
    assert r(np.array([1e-320, 1.0])).tolist() == [math.inf, 1.0]


@given(quarters, quarters, poly_strategy(6), trig_points)
@settings(max_examples=100)
def test_trig_gauged_array_bit_identical(a, b, p, xs):
    f = TrigGauged(a, b, RationalFn(p, ExactPoly([3, 1])))
    assert_bit_identical(f.eval_x, lambda x: trig_reference(f, x), xs)


@given(quarters, st.integers(-2, 1), st.integers(0, 3), poly_strategy(6), omegas,
       radial_points)
@settings(max_examples=100)
def test_radial_gauged_array_bit_identical(c, s, p, poly, omega, xs):
    f = RadialGauged(c, s, p, RationalFn(poly, ExactPoly([1, 0, 1])))
    assert_bit_identical(
        f.eval_x, lambda x, w: radial_reference(f, x, w), xs, omega
    )


@given(
    st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
    st.fractions(min_value=-5, max_value=0, max_denominator=9), trig_points,
)
@settings(max_examples=40, deadline=None)
def test_tdpt_potentials_array_bit_identical(n, N, M, lam, xs):
    spec = tdpt.TdptSpec(n, N, M, lam)
    z_form = tdpt.extended_potential(spec).z_form
    assert_bit_identical(
        tdpt.extended_potential(spec).v,
        lambda x: rat_reference(z_form, math.cos(2.0 * x)),
        xs,
    )
    assert_bit_identical(
        spec.base.v,
        lambda x: (
            (N * N - 0.25) / math.sin(x) ** 2
            + (M * M - 0.25) / math.cos(x) ** 2
            - (N + M + 1) ** 2
        ),
        xs,
    )


@given(st.integers(0, 3), st.integers(1, 4), omegas, radial_points)
@settings(max_examples=40, deadline=None)
def test_isotonic_potentials_array_bit_identical(n, N, omega, xs):
    spec = isotonic.IsotonicSpec(n, N)
    units = isotonic.extended_potential(spec).z_form
    assert_bit_identical(
        isotonic.extended_potential(spec).v,
        lambda x, w: w * rat_reference(units, w * x * x / 2.0),
        xs,
        omega,
    )
    assert_bit_identical(
        spec.base.v,
        lambda x, w: w * w * x * x / 4.0 + (N * N - 0.25) / (x * x) - w * (N + 1),
        xs,
        omega,
    )


def test_zero_polynomial_evaluates_to_an_array():
    zs = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(ExactPoly()(zs), np.zeros(3))
    assert ExactPoly()(-2.0) == 0.0 and math.copysign(1.0, ExactPoly()(-2.0)) == 1.0


# numerators up to 2^1000 and denominators up to 2^1100: huge values and
# quotients that round into the subnormal range
wide_rationals = st.builds(
    Fraction, st.integers(-(2**1000), 2**1000), st.integers(1, 2**1100)
)


@given(st.lists(st.one_of(rationals, wide_rationals), max_size=8))
@example([Fraction(1, 3), Fraction(2**1000 + 1, 7), Fraction(-1, 2**1074)])
@settings(max_examples=200, deadline=None)
def test_float_coefficients_are_the_rounded_fractions(coeffs):
    # the float coefficients come from the stored integers, c / den; both
    # that and float(Fraction(c, den)) round correctly, so the bits agree
    p = ExactPoly(coeffs)
    p(0.5)
    want = [float(c) for c in reversed(p.coeffs)] or [0.0]
    assert [c.hex() for c in p._floats] == [c.hex() for c in want]
