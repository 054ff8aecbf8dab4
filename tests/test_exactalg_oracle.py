"""Differential tests of the integer exact core against sympy's `Poly`.

sympy is an independent oracle here and a test-only dependency: the module
is skipped where sympy is not installed.  Besides the polynomial kernels it
checks the Jacobi and Laguerre bases against sympy's own, and both
cumulative-norm polynomials Q against sympy's integral and ODE solution,
and the eigenfunctions against their Schroedinger equations at 40 digits
with mpmath (a sympy dependency).  The gcd tests cover both routes
of `ExactPoly.gcd`: the heuristic gcd from integer values at powers of two,
and the primitive remainder sequence over Z it falls back to, run alone
under a heuristic that always gives up and reached by one pair on which
every evaluation point fails.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from confluent_dbt import (  # noqa: E402
    cli,
    classical,
    exactalg,
    isotonic,
    tdpt,
    verify,
)
from confluent_dbt.classical import jacobi  # noqa: E402
from confluent_dbt.exactalg import (  # noqa: E402
    ExactPoly,
    RadialGauged,
    RationalFn,
    TrigGauged,
    count_roots,
    isolate_roots,
)

X = sympy.Symbol("x")

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
root_values = st.integers(min_value=-12, max_value=12).map(lambda k: Fraction(k, 4))


def polys(max_deg=7, coeffs=rationals):
    return st.lists(coeffs, max_size=max_deg + 1).map(ExactPoly)


def nonconstant(max_deg=3):
    return st.lists(small_rationals, min_size=2, max_size=max_deg + 1).map(
        ExactPoly
    ).filter(lambda p: p.degree() >= 1)


def to_sympy(p: ExactPoly):
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(cs or [0], X, domain=sympy.QQ)


def from_sympy(poly) -> ExactPoly:
    return ExactPoly(
        [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    )


def gcd_without_heuristic(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """`p.gcd(q)` with a heuristic that always gives up: the remainder
    sequence alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_heu_gcd", lambda a, b: None)
        return p.gcd(q)


def sympy_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    return from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)).monic())


# -- arithmetic ------------------------------------------------------------------


@given(polys(), polys())
@settings(deadline=None)
def test_mul_and_divmod_match_sympy(p, q):
    assert p * q == from_sympy(to_sympy(p) * to_sympy(q))
    assert p + q == from_sympy(to_sympy(p) + to_sympy(q))
    if q.is_zero:
        return
    quo, rem = divmod(p, q)
    s_quo, s_rem = sympy.div(to_sympy(p), to_sympy(q))
    assert quo == from_sympy(s_quo)
    assert rem == from_sympy(s_rem)


@given(polys(), st.fractions(max_denominator=50))
@settings(deadline=None)
def test_exact_evaluation_and_calculus_match_sympy(p, z):
    sp = to_sympy(p)
    assert p(z) == Fraction(str(sp.eval(sympy.Rational(z.numerator, z.denominator))))
    assert p.derivative() == from_sympy(sp.diff(X))
    assert p.antiderivative() == from_sympy(sp.integrate(X))


# -- gcd: the heuristic and its fallback --------------------------------------------


@given(polys(), polys())
@settings(deadline=None)
def test_gcd_matches_sympy(p, q):
    if p.is_zero and q.is_zero:
        return
    assert p.gcd(q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)).monic())


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_gcd_fallback_matches_sympy(p, q):
    if p.is_zero and q.is_zero:
        return
    assert gcd_without_heuristic(p, q) == sympy_gcd(p, q)


# integer contents and negative rational scalings
scales = st.one_of(
    st.integers(min_value=1, max_value=10**12),
    st.fractions(max_value=-Fraction(1, 10**6), max_denominator=10**6),
)


@given(polys(4, small_rationals), polys(4, small_rationals), nonconstant(),
       st.integers(min_value=1, max_value=3), scales, scales)
@settings(max_examples=60, deadline=None)
def test_gcd_of_planted_common_factor_matches_sympy(p, q, f, k, s, t):
    if p.is_zero or q.is_zero:
        return
    a, b = p * f**k * s, q * f**k * t
    want = sympy_gcd(a, b)
    assert want.degree() >= k * f.degree()
    for g in (a.gcd(b), gcd_without_heuristic(a, b)):
        assert g == want
        assert (a // g) * g == a and (b // g) * g == b


@given(polys(5, small_rationals), polys(5, small_rationals), nonconstant())
@settings(max_examples=60, deadline=None)
def test_heuristic_answer_is_the_gcd(p, q, f):
    # an answer of the heuristic alone is certified: it is the gcd
    a, b = p * f, q * f
    if a.degree() < 1 or b.degree() < 1:
        return
    g = exactalg._heu_gcd(
        exactalg._primitive(list(a._num)), exactalg._primitive(list(b._num))
    )
    if g is not None:
        assert ExactPoly._monic_of(g) == sympy_gcd(a, b)


@given(polys(3, small_rationals), polys(3, small_rationals), nonconstant(),
       st.integers(0, 40), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_gcd_at_power_of_two_points_matches_sympy(p, q, f, t, i, j):
    # values at xi = 2^k agree with the constant coefficient modulo 2^k, so
    # common powers of z and constant terms sharing 2^t are the hard inputs
    z = ExactPoly.x()
    a = z**i * f * (p * 2**t + z)
    b = z**j * f * (q * 2**t + z)
    want = sympy_gcd(a, b)
    assert a.gcd(b) == want
    g = exactalg._heu_gcd(
        exactalg._primitive(list(a._num)), exactalg._primitive(list(b._num))
    )
    if g is not None:
        assert ExactPoly._monic_of(g) == want


def test_gcd_heuristic_gives_up_to_the_remainder_sequence():
    # (z + 3)(z^2 - 3^17 z + 2^17) and (z + 3)(z^2 - 3^5 z + 2^17): the
    # cofactors' values share a large factor at each of the six points
    a = ExactPoly([-393216, 387289417, 129140160, -1])
    b = ExactPoly([-393216, -130343, 240, -1])
    assert exactalg._heu_gcd(list(a._num), list(b._num)) is None
    assert a.gcd(b) == sympy_gcd(a, b) == ExactPoly([3, 1])


@st.composite
def coprime_pairs(draw):
    """Scaled products of linear factors at disjoint sets of rational
    roots, the first also times a rootless quadratic."""
    roots = draw(st.lists(root_values, min_size=2, max_size=8, unique=True))
    cut = draw(st.integers(1, len(roots) - 1))
    a = ExactPoly([draw(scales)])
    b = ExactPoly([draw(scales)])
    for r in roots[:cut]:
        a = a * ExactPoly([-r, 1])
    for r in roots[cut:]:
        b = b * ExactPoly([-r, 1])
    return a * ExactPoly([draw(st.integers(1, 9)), 0, 1]), b


@given(coprime_pairs())
@settings(max_examples=60, deadline=None)
def test_gcd_of_coprime_pairs_is_one(pair):
    a, b = pair
    assert sympy_gcd(a, b) == ExactPoly.one()
    assert a.gcd(b) == gcd_without_heuristic(a, b) == ExactPoly.one()


def test_gcd_routes_on_coprime_pairs():
    z = ExactPoly.x()
    prime = 1073741789
    pairs = [
        (z * z + 1, z + Fraction(1, 3)),
        (z * prime + 1, z + 1),
        # z + prime and z (z - 2) share the root 0 modulo the prime only:
        # a gcd taken modulo that prime would not be constant
        (z + prime, z * (z - 2)),
    ]
    for a, b in pairs:
        assert a.gcd(b) == ExactPoly.one()
        assert gcd_without_heuristic(a, b) == ExactPoly.one()


@pytest.mark.parametrize("n,N,M,lam", [
    (1, 1, 1, Fraction(-1)),
    (2, 1, 2, Fraction(5, 3)),
    (3, 2, 1, Fraction(-3, 2)),
])
def test_gcd_of_denominator_powers(n, N, M, lam):
    # the shapes RationalFn canonicalisation meets in the ode residuals:
    # powers of D = lambda1 + Q against Jacobi factors
    d = tdpt.denominator_poly(tdpt.TdptSpec(n, N, M, lam))
    p = jacobi(n, N, M)
    a = d**3 * p * ExactPoly([1, -1]) ** N
    b = d**2 * (p.derivative() + d) * ExactPoly([1, 1]) ** M
    g = a.gcd(b)
    assert g == sympy_gcd(a, b)
    assert g.degree() >= 2 * d.degree()
    r = RationalFn(a, b)
    num, den = sympy.cancel(to_sympy(a).as_expr() / to_sympy(b).as_expr()).as_numer_denom()
    den_poly = sympy.Poly(den, X, domain=sympy.QQ)
    lead = den_poly.LC()
    assert r.den == from_sympy(den_poly.monic())
    assert r.num == from_sympy(sympy.Poly(num, X, domain=sympy.QQ) * (1 / lead))


# -- squarefree part, Sturm counting and isolation ----------------------------------


@st.composite
def rooted_polys(draw):
    """Products of linear factors at rational roots (with multiplicity),
    an optional rootless quadratic, and a rational scale."""
    roots = draw(st.lists(root_values, min_size=1, max_size=6))
    p = ExactPoly([draw(st.fractions(min_value=1, max_value=20,
                                     max_denominator=7))
                   * draw(st.sampled_from([-1, 1]))])
    for r in roots:
        p = p * ExactPoly([-r, 1])
    if draw(st.booleans()):
        p = p * ExactPoly([draw(st.integers(1, 9)), 0, 1])
    return p, sorted(set(roots))


@given(rooted_polys())
@settings(deadline=None)
def test_squarefree_part_matches_sympy(case):
    p, _ = case
    sqf = from_sympy(to_sympy(p).sqf_part().monic())
    assert exactalg._sturm_data(p)[0] == sqf


def sympy_open_count(sp, lo, hi):
    """Distinct roots in the open interval (lo, hi) from sympy's closed
    interval count."""
    lo_s = sympy.Rational(lo.numerator, lo.denominator)
    hi_s = sympy.Rational(hi.numerator, hi.denominator)
    n = sp.count_roots(lo_s, hi_s)
    n -= sum(1 for e in {lo_s, hi_s} if sp.eval(e) == 0)
    return n


@given(rooted_polys(), st.data())
@settings(max_examples=150, deadline=None)
def test_count_roots_matches_sympy(case, data):
    p, roots = case
    sp = to_sympy(p)
    # endpoints drawn from the exact roots too, to hit closed ends
    ends = st.one_of(st.sampled_from(roots), root_values,
                     st.fractions(min_value=-4, max_value=4, max_denominator=9))
    lo, hi = sorted([data.draw(ends), data.draw(ends)])
    assert count_roots(p) == sp.count_roots()
    if lo == hi:
        return
    want_open = sympy_open_count(sp, lo, hi)
    at_lo, at_hi = int(p(lo) == 0), int(p(hi) == 0)
    assert count_roots(p, lo, hi) == want_open
    # a closed count is the open one plus the endpoints that are roots
    assert count_roots(p, lo, hi) + at_lo + at_hi == (
        sp.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                       sympy.Rational(hi.numerator, hi.denominator))
    )
    assert count_roots(p, None, lo) + at_lo + count_roots(
        p, lo, None
    ) == sp.count_roots()


@given(rooted_polys(), st.data())
@settings(max_examples=100, deadline=None)
def test_isolate_roots_matches_sympy(case, data):
    p, roots = case
    sp = to_sympy(p)
    ends = st.one_of(st.sampled_from(roots), root_values)
    lo, hi = sorted([data.draw(ends), data.draw(ends)])
    if lo == hi:
        lo, hi = None, None
    elif data.draw(st.booleans()):  # one end unbounded
        lo, hi = data.draw(st.sampled_from([(None, hi), (lo, None)]))
    iso = isolate_roots(p, lo, hi)
    inside = [r for r in roots
              if (lo is None or r > lo) and (hi is None or r < hi)]
    assert len(iso) == len(inside)
    for (a, b), r in zip(iso, inside):
        if a == b:
            assert a == r and sp.eval(sympy.Rational(a.numerator, a.denominator)) == 0
        else:
            assert a < r < b
            assert sympy_open_count(sp, a, b) == 1


# -- classical bases and the cumulative-norm polynomials ---------------------------


def expr_poly(expr, var=X) -> ExactPoly:
    return from_sympy(sympy.Poly(sympy.expand(expr), var, domain=sympy.QQ))


@given(st.integers(0, 8), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_jacobi_matches_sympy(n, a, b):
    assert classical.jacobi(n, a, b) == expr_poly(sympy.jacobi(n, a, b, X))


@given(st.integers(0, 8), st.integers(-8, 6))
@settings(max_examples=40, deadline=None)
def test_laguerre_matches_sympy(n, alpha):
    # negative alpha included: the type-II states use L_N^(-N-1)
    assert classical.laguerre(n, alpha) == expr_poly(
        sympy.assoc_laguerre(n, alpha, X)
    )


@given(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_tdpt_q_poly_matches_sympy_integral(n, N, M):
    t = sympy.Symbol("t")
    integrand = (1 - t) ** N * (1 + t) ** M * sympy.jacobi(n, N, M, t) ** 2
    want = -sympy.Rational(1, 2) * sympy.integrate(sympy.expand(integrand), (t, -1, X))
    assert tdpt.q_poly(n, N, M) == expr_poly(want)


@given(st.integers(0, 4), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_isotonic_q_poly_matches_sympy_ode_solution(n, N):
    # the polynomial solution of Q' - Q = z^N (L_n^N)^2, by undetermined
    # coefficients: it is unique, since the homogeneous solutions are e^z
    rhs = sympy.expand(X**N * sympy.assoc_laguerre(n, N, X) ** 2)
    degree = sympy.degree(rhs, X)
    cs = sympy.symbols(f"c0:{degree + 1}")
    q = sum(c * X**i for i, c in enumerate(cs))
    eqs = sympy.Poly(sympy.diff(q, X) - q - rhs, X).all_coeffs()
    (solution,) = sympy.linsolve(eqs, cs)
    want = q.subs(dict(zip(cs, solution)))
    assert isotonic.q_poly(n, N) == expr_poly(want)


# -- eigenfunction residuals at 40 digits -------------------------------------------


def mp_rat(c: Fraction):
    return mpmath.mpf(c.numerator) / c.denominator


def mp_ratfn(r: RationalFn):
    # coefficients straight from the Fractions, never through a float
    num = [mp_rat(c) for c in reversed(r.num.coeffs)]
    den = [mp_rat(c) for c in reversed(r.den.coeffs)]
    return lambda z: mpmath.polyval(num, z) / mpmath.polyval(den, z)


def relative_residuals(psi, v, energy, xs):
    """|-psi'' + V psi - E psi| over the sum of the terms' sizes, with psi''
    from mpmath's numerical differentiation."""
    out = []
    for x in xs:
        x = mp_rat(x)
        d2, p, vx = mpmath.diff(psi, x, 2), psi(x), v(x)
        size = abs(d2) + abs(vx * p) + abs(energy * p)
        out.append(abs(-d2 + (vx - energy) * p) / size)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_tdpt_eigenfunctions_solve_the_extension_at_40_digits(seed):
    rng = random.Random(seed)
    n, N, M = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
    thr = tdpt.regularity_threshold(n, N, M)
    lam = rng.choice([-Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                      thr + Fraction(rng.randint(1, 9), rng.randint(1, 4))])
    spec = tdpt.TdptSpec(n, N, M, lam)
    with mpmath.workdps(40):
        vz = mp_ratfn(tdpt.extended_potential(spec).z_form)

        def v(x):
            return vz(mpmath.cos(2 * x))

        for k in rng.sample(range(6), 2):
            f = tdpt.confluent(spec).state(k)
            a, b, rat = mp_rat(f.a), mp_rat(f.b), mp_ratfn(f.rat)

            def psi(x):
                z = mpmath.cos(2 * x)
                return (1 - z) ** a * (1 + z) ** b * rat(z)

            energy = mp_rat(spec.base.energy(k))
            xs = [Fraction(rng.randint(1, 15), 10) for _ in range(3)]
            assert max(relative_residuals(psi, v, energy, xs)) < 1e-35
            # negative control: the wrong energy leaves a visible residual
            assert min(relative_residuals(psi, v, energy + 1, xs)) > 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_isotonic_eigenfunctions_solve_the_extension_at_40_digits(seed):
    rng = random.Random(seed)
    spec = isotonic.IsotonicSpec(rng.randint(0, 3), rng.randint(1, 3))
    omega = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    with mpmath.workdps(40):
        w = mp_rat(omega)
        zu = mp_ratfn(isotonic.extended_potential(spec).z_form)

        def v(x):
            return w * zu(w * x * x / 2)

        for k in rng.sample([k for k in range(6) if k != spec.n], 2):
            f = isotonic.confluent(spec).state(k)
            c, rat = mp_rat(f.c), mp_ratfn(f.rat)

            def psi(x):
                z = w * x * x / 2
                return (
                    (2 * w) ** (mpmath.mpf(f.p) / 2)
                    * z**c
                    * mpmath.exp(f.s * z / 2)
                    * rat(z)
                )

            energy = 2 * k * w
            xs = [Fraction(rng.randint(1, 30), 10) for _ in range(3)]
            assert max(relative_residuals(psi, v, energy, xs)) < 1e-35
            assert min(relative_residuals(psi, v, energy + 1, xs)) > 1e-6


# -- the exact residual against sympy in the z variable -----------------------------

FIELD, Z = sympy.field("z", sympy.QQ)  # sympy's own field Q(z)


def field_value(r: RationalFn):
    def poly(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * Z**i
             for i, c in enumerate(p.coeffs)),
            FIELD(0),
        )

    return poly(r.num) / poly(r.den)


def sympy_residual(f, v, energy):
    """psi'' + (E - V) psi over the gauge G of f, derived in Q(z) by sympy.

    With psi = G r and L = G'/G: psi' = G (r' + L r) and
    psi'' = G (r'' + 2 L r' + (L' + L^2) r) in z.  For z = cos 2x,
    d^2/dx^2 = 4 (1 - z^2) d^2/dz^2 - 4 z d/dz.  For z = w x^2 / 2, with V
    and E in units of w, d^2/dx^2 = 2w (z d^2/dz^2 + (1/2) d/dz), and the
    result is taken over 2w G."""
    r = field_value(f.rat)
    gap = sympy.Rational(str(energy)) - field_value(v)
    if isinstance(f, TrigGauged):
        a, b = sympy.Rational(str(f.a)), sympy.Rational(str(f.b))
        L = -a / (1 - Z) + b / (1 + Z)
    else:
        L = sympy.Rational(str(f.c)) / Z + sympy.Rational(f.s, 2)
    r1 = r.diff(Z)
    d1 = r1 + L * r
    d2 = r1.diff(Z) + 2 * L * r1 + (L.diff(Z) + L**2) * r
    if isinstance(f, TrigGauged):
        return 4 * (1 - Z**2) * d2 - 4 * Z * d1 + gap * r
    return Z * d2 + d1 / 2 + gap * r / 2


def stored(r: RationalFn) -> tuple:
    return r.num, r.den


VARIANTS = ("true", "energy+1", "gauge+1", "potential")
PERTURBATION = RationalFn(ExactPoly([1]), ExactPoly([3, 1]))  # 1/(z+3)


def vary(variant, f, v, energy):
    if variant == "energy+1":
        energy += 1
    elif variant == "gauge+1":
        if isinstance(f, TrigGauged):
            f = TrigGauged(f.a + 1, f.b, f.rat)
        else:
            f = RadialGauged(f.c + 1, f.s, f.p, f.rat)
    elif variant == "potential":
        v = v + PERTURBATION
    return f, v, energy


@st.composite
def tdpt_cases(draw):
    n, N, M = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    step = draw(st.fractions(min_value=Fraction(1, 7), max_value=9,
                             max_denominator=7))
    lam = draw(st.sampled_from([-step, tdpt.regularity_threshold(n, N, M) + step]))
    spec = tdpt.TdptSpec(n, N, M, lam)
    k = draw(st.integers(0, 4))
    return (tdpt.confluent(spec).state(k), tdpt.extended_potential(spec).z_form,
            spec.base.energy(k))


@st.composite
def isotonic_cases(draw):
    spec = isotonic.IsotonicSpec(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    k = draw(st.integers(0, 5))
    f = (isotonic.confluent(spec).restored() if k == spec.n
         else isotonic.confluent(spec).state(k))
    return f, isotonic.extended_potential(spec).z_form, 2 * k


@given(st.one_of(tdpt_cases(), isotonic_cases()), st.sampled_from(VARIANTS))
@settings(max_examples=60, deadline=None)
def test_ode_residual_matches_sympy(case, variant):
    f, v, energy = vary(variant, *case)
    res = verify.exact_ode_residual(f, v, energy)
    assert type(res) is type(f)
    assert res.is_zero == (variant == "true")
    # the residual sits two half powers below f's gauge
    if isinstance(f, TrigGauged):
        assert (res.a, res.b) == (f.a - 1, f.b - 1)
        lift = 1 / ((1 - Z) * (1 + Z))
    else:
        assert (res.c, res.s, res.p) == (f.c - 1, f.s, f.p + 2)
        lift = 1 / Z
    assert field_value(res.rat) * lift == sympy_residual(f, v, energy)
    # the stored form is reduced
    assert res.rat.den.lc() == 1
    assert sympy.gcd(to_sympy(res.rat.num), to_sympy(res.rat.den)).degree() <= 0


def sympy_value(r: RationalFn):
    return to_sympy(r.num).as_expr() / to_sympy(r.den).as_expr()


def assert_canonical(r: RationalFn, value):
    assert r.den.lc() == 1
    assert sympy.gcd(to_sympy(r.num), to_sympy(r.den)).degree() == 0
    assert sympy.cancel(sympy_value(r) - value) == 0


@given(polys(3, small_rationals), nonconstant(), polys(3, small_rationals),
       polys(2, small_rationals), nonconstant(2))
@example(ExactPoly([3, 0, 1]), ExactPoly([1, 1]), ExactPoly([1, 2]),
         ExactPoly([5]), ExactPoly([-2, 1]))
@settings(max_examples=25, deadline=None)
def test_canonical_arithmetic_stays_reduced(p, d, q, s, g):
    a = RationalFn(p, d)
    # b shares a's denominator, and a + b is the polynomial q: the
    # equal-denominator sum of two reduced values that itself reduces
    b = RationalFn(q) - a
    assert b.den == a.den
    c = RationalFn(s, d * d)
    # a repeated factor in the denominator: gcd(den, den') is not 1
    e = RationalFn(p, d * d * g)
    # u's numerator shares g with w's denominator, which a product cancels
    u, w = RationalFn(q * g, d), RationalFn(p, g)
    # t's denominator shares the proper factor d with a's and c's
    t = RationalFn(s, d * g)
    poly = RationalFn(q)  # a constant denominator
    va, vb, vc, ve, vu, vw, vt, vp = map(sympy_value, (a, b, c, e, u, w, t, poly))
    results = [
        (a + b, va + vb), (a + a, 2 * va), (b - a, vb - va), (a + c, va + vc),
        (a * c, va * vc), (-a, -va), (a.derivative(), sympy.diff(va, X)),
        (a + 1, va + 1), (2 * c, 2 * vc),
        (e.derivative(), sympy.diff(ve, X)), (c.derivative(), sympy.diff(vc, X)),
        (e + a, ve + va), (u * w, vu * vw), (w * u, vw * vu), (u * e, vu * ve),
        (a + t, va + vt), (t - c, vt - vc), (e - t, ve - vt),
        (poly + a, vp + va), (a - poly, va - vp), (poly * a, vp * va),
        (poly * poly, vp * vp), (poly.derivative(), sympy.diff(vp, X)),
        (a - a, 0), (e + (-e), 0), ((a + b) - poly, 0), (u * w - w * u, 0),
    ]
    for num, den in ((a, c), (u, w), (a, t), (poly, a), (a, poly), (e, u)):
        if not den.is_zero:
            results.append((num / den, sympy_value(num) / sympy_value(den)))
    for r, value in results:
        assert_canonical(r, value)
    assert stored(a + b) == stored(RationalFn(q))
    assert stored(a - a) == stored(e - e) == stored(RationalFn(0))


def test_equal_denominator_sum_reduces():
    d = ExactPoly([0, 1, 1])  # z (z + 1)
    a = RationalFn(ExactPoly([1]), d)
    b = RationalFn(ExactPoly([-1, 1]), d)
    assert a.den == b.den == d
    assert stored(a + b) == stored(RationalFn(ExactPoly([1]), ExactPoly([1, 1])))


# -- pinned CLI output -------------------------------------------------------------

# sha256 of the full stdout with elapsed_ms zeroed: the first two recorded
# with the Fraction-coefficient core, the rest, at degrees beyond the
# benchmark pool's where the heuristic gcd meets large coefficients, with
# the modular coprimality test and remainder sequence it replaced; any
# change to a coefficient string changes the digest
PINNED_BUILDS = [
    (["tdpt", "build", "--n", "3", "--N", "1", "--M", "2", "--lambda1", "-3/2",
      "--kmax", "4"],
     "ac20d5f860468da86b6175c98b18ad14597358292cc0cf93882676a1422ac420"),
    (["isotonic", "build", "--n", "3", "--N", "2", "--kmax", "5"],
     "2b81e42fa0a545ea090e13fba946125631fd1eacbdc51a6e212ac339efb9cca6"),
    (["tdpt", "build", "--n", "12", "--N", "1", "--M", "3", "--lambda1=-7/3",
      "--kmax", "4"],
     "be083624b52bc1d73b539712d2cd4b4c97d107213e84ab729aaa5144379f2b46"),
    (["isotonic", "build", "--n", "10", "--N", "3", "--kmax", "6"],
     "c7abbba2894786c8afea03ff167955df1ea269832100209b3990c650f6651233"),
    (["tdpt", "verify", "--suite", "ode", "--N", "3", "--M", "2", "--lambda1",
      "1", "--kmax", "6", "--n", "10"],
     "62e81d606b6427a1da553a1cbb7374454e7c81c27b69f7c5a16b842c6f2afbe8"),
]


@pytest.mark.parametrize("argv,digest", PINNED_BUILDS)
def test_build_coefficient_strings_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    data = json.loads(out)
    if data["spec"]["n"] == 3:  # the two builds at the pool's degrees
        if data["family"] == "tdpt":
            assert data["threshold"] == "8/15"
            assert data["denominator"]["coeffs"][:2] == [["-427", "240"], ["-1", "8"]]
        else:
            assert data["q_at_zero"] == "-20"
            assert data["q"]["coeffs"][:2] == [["-20", "1"], ["-20", "1"]]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
