"""Differential tests of the integer exact core against sympy's `Poly`.

sympy is an independent oracle here and a test-only dependency: the module
is skipped where sympy is not installed.  Besides the polynomial kernels it
checks the Jacobi and Laguerre bases against sympy's own, and both
cumulative-norm polynomials Q against sympy's integral and ODE solution,
and the eigenfunctions against their Schroedinger equations at 40 digits
with mpmath (a sympy dependency).  The gcd tests cover both routes
of `ExactPoly.gcd`: coprimality settled modulo a prime, and the primitive
remainder sequence over Z that runs when a common factor (or an unlucky
prime) leaves a nonconstant gcd modulo that prime.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    NEG_INF,
    POS_INF,
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


def route_is_modular(p: ExactPoly, q: ExactPoly) -> bool:
    """Whether `p.gcd(q)` settles coprimality modulo a prime."""
    a = exactalg._primitive(list(p._num))
    b = exactalg._primitive(list(q._num))
    return exactalg._coprime_mod_p(a, b)


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


# -- gcd: both routes --------------------------------------------------------------


@given(polys(), polys())
@settings(deadline=None)
def test_gcd_matches_sympy(p, q):
    if p.is_zero and q.is_zero:
        return
    assert p.gcd(q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)).monic())


@given(polys(4, small_rationals), polys(4, small_rationals), nonconstant(),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_gcd_common_factor_takes_prs_route(p, q, f, k):
    if p.is_zero or q.is_zero:
        return
    a, b = p * f**k, q * f**k
    assert not route_is_modular(a, b)
    want = sympy.gcd(to_sympy(a), to_sympy(b)).monic()
    assert a.gcd(b) == from_sympy(want)
    assert (a // a.gcd(b)) * a.gcd(b) == a


def test_gcd_routes_on_coprime_pairs():
    z = ExactPoly.x()
    prime = exactalg._PRIMES[0]
    # modular route: coprime mod the first prime
    a, b = z * z + 1, z + Fraction(1, 3)
    assert route_is_modular(a, b)
    assert a.gcd(b) == ExactPoly.one()
    # the first prime divides a leading coefficient: the next prime decides
    a, b = z * prime + 1, z + 1
    assert route_is_modular(a, b)
    assert a.gcd(b) == ExactPoly.one()
    # unlucky prime: z + prime and z share the root 0 mod prime only, so
    # the modular test decides nothing and the Z remainder sequence must
    # still find the trivial gcd
    a, b = z + prime, z * (z - 2)
    assert not route_is_modular(a, b)
    assert a.gcd(b) == ExactPoly.one()


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
    assert not route_is_modular(a, b)
    want = sympy.gcd(to_sympy(a), to_sympy(b)).monic()
    g = a.gcd(b)
    assert g == from_sympy(want)
    assert g.degree() >= 2 * d.degree()
    r = RationalFn(a, b)
    num, den = sympy.cancel(to_sympy(a).as_expr() / to_sympy(b).as_expr()).as_numer_denom()
    den_poly = sympy.Poly(den, X, domain=sympy.QQ)
    lead = den_poly.LC()
    assert r.den == from_sympy(den_poly.monic())
    assert r.num == from_sympy(sympy.Poly(num, X, domain=sympy.QQ) * (1 / lead))


# -- squarefree part, Sturm counting and isolation ----------------------------------


root_values = st.integers(min_value=-12, max_value=12).map(lambda k: Fraction(k, 4))


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
    assert p.squarefree_part() == from_sympy(to_sympy(p).sqf_part().monic())


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
    assert count_roots(p, lo, hi, lo_closed=True) == want_open + at_lo
    assert count_roots(p, lo, hi, hi_closed=True) == want_open + at_hi
    assert count_roots(p, lo, hi, lo_closed=True, hi_closed=True) == (
        sp.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                       sympy.Rational(hi.numerator, hi.denominator))
    )
    assert count_roots(p, NEG_INF, lo, hi_closed=True) + count_roots(
        p, lo, POS_INF
    ) == sp.count_roots()


@given(rooted_polys(), st.data())
@settings(max_examples=100, deadline=None)
def test_isolate_roots_matches_sympy(case, data):
    p, roots = case
    sp = to_sympy(p)
    ends = st.one_of(st.sampled_from(roots), root_values)
    lo, hi = sorted([data.draw(ends), data.draw(ends)])
    if lo == hi:
        lo, hi = NEG_INF, POS_INF
    iso = isolate_roots(p, lo, hi)
    inside = [r for r in roots
              if (lo is NEG_INF or r > lo) and (hi is POS_INF or r < hi)]
    assert iso.count == len(inside)
    assert iso.multiplicity_free == (to_sympy(p).sqf_part().degree() == p.degree())
    for (a, b), r in zip(iso.intervals, inside):
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
            f = tdpt.eigenfunction(spec, k)
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
        zu = mp_ratfn(isotonic.extended_potential(spec).zform_units)

        def v(x):
            return w * zu(w * x * x / 2)

        for k in rng.sample([k for k in range(6) if k != spec.n], 2):
            f = isotonic.eigenfunction(spec, k)
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


# -- the residual in the fraction field against canonical arithmetic --------------


def canonical_residual(f, v, energy):
    """psi'' + (E - V) psi with every intermediate reduced: the route
    `verify.exact_ode_residual` takes without gcds."""
    gap = RationalFn(energy) - v
    if isinstance(f, TrigGauged):
        return f.d_dx().d_dx() + f * gap
    g = gap * Fraction(1, 2)
    return f.d_dx().d_dx() + RadialGauged(f.c, f.s, f.p + 2, f.rat * g)


def stored(r: RationalFn) -> tuple:
    return r._canon, r.num, r.den


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
    return (tdpt.eigenfunction(spec, k), tdpt.extended_potential(spec).z_form,
            spec.base.energy(k))


@st.composite
def isotonic_cases(draw):
    spec = isotonic.IsotonicSpec(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    k = draw(st.integers(0, 5))
    f = (isotonic.deleted_state(spec) if k == spec.n
         else isotonic.eigenfunction(spec, k))
    return f, isotonic.extended_potential(spec).zform_units, 2 * k


@given(st.one_of(tdpt_cases(), isotonic_cases()), st.sampled_from(VARIANTS))
@settings(max_examples=60, deadline=None)
def test_fraction_field_residual_matches_canonical_route(case, variant):
    f, v, energy = vary(variant, *case)
    fast = verify.exact_ode_residual(f, v, energy)
    slow = canonical_residual(f, v, energy)
    assert fast.is_zero == slow.is_zero == (variant == "true")
    assert fast == slow
    # the same object, not only the same value: gauge and stored form
    assert type(fast) is type(slow)
    if isinstance(fast, TrigGauged):
        assert (fast.a, fast.b) == (slow.a, slow.b)
    else:
        assert (fast.c, fast.s, fast.p) == (slow.c, slow.s, slow.p)
    assert stored(fast.rat) == stored(slow.rat)


def sympy_value(r: RationalFn):
    return to_sympy(r.num).as_expr() / to_sympy(r.den).as_expr()


def assert_canonical(r: RationalFn, value):
    assert r._canon
    assert r.den.lc() == 1
    assert sympy.gcd(to_sympy(r.num), to_sympy(r.den)).degree() == 0
    assert sympy.cancel(sympy_value(r) - value) == 0


@given(polys(3, small_rationals), nonconstant(), polys(3, small_rationals),
       polys(2, small_rationals))
@settings(max_examples=25, deadline=None)
def test_canonical_arithmetic_stays_reduced(p, d, q, s):
    a = RationalFn(p, d)
    # b shares a's denominator, and a + b is the polynomial q: the
    # equal-denominator sum of two reduced values that itself reduces
    b = RationalFn(q) - a
    assert b.den == a.den
    c = RationalFn(s, d * d)
    va, vb, vc = sympy_value(a), sympy_value(b), sympy_value(c)
    results = [
        (a + b, va + vb), (a + a, 2 * va), (b - a, vb - va), (a + c, va + vc),
        (a * c, va * vc), (-a, -va), (a.derivative(), sympy.diff(va, X)),
        (a + 1, va + 1), (2 * c, 2 * vc),
    ]
    if not c.is_zero:
        results.append((a / c, va / vc))
    for r, value in results:
        assert_canonical(r, value)
    assert stored(a + b) == stored(RationalFn(q))
    # the same arithmetic in the unreduced mode reduces to the same objects
    ua, ub, uc = a._unreduced(), b._unreduced(), c._unreduced()
    for r, u in [(a + b, ua + b), (a + c, a + uc), (a * c, ua * uc),
                 (-a, -ua), (a.derivative(), ua.derivative()), (b - a, ub - a)]:
        assert not u._canon
        assert u == r and r == u and hash(u) == hash(r)
        assert stored(u._canonical()) == stored(r)


def test_equal_denominator_sum_reduces():
    d = ExactPoly([0, 1, 1])  # z (z + 1)
    a = RationalFn(ExactPoly([1]), d)
    b = RationalFn(ExactPoly([-1, 1]), d)
    assert a.den == b.den == d
    assert stored(a + b) == stored(RationalFn(ExactPoly([1]), ExactPoly([1, 1])))
    assert stored(a._unreduced() + b) == (False, ExactPoly([0, 1]), d)


# -- pinned CLI output -------------------------------------------------------------

# sha256 of the full stdout, recorded with the Fraction-coefficient core;
# any change to a coefficient string changes the digest
PINNED_BUILDS = [
    (["tdpt", "build", "--n", "3", "--N", "1", "--M", "2", "--lambda1", "-3/2",
      "--kmax", "4"],
     "ac20d5f860468da86b6175c98b18ad14597358292cc0cf93882676a1422ac420"),
    (["isotonic", "build", "--n", "3", "--N", "2", "--kmax", "5"],
     "2b81e42fa0a545ea090e13fba946125631fd1eacbdc51a6e212ac339efb9cca6"),
]


@pytest.mark.parametrize("argv,digest", PINNED_BUILDS)
def test_build_coefficient_strings_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    if data["family"] == "tdpt":
        assert data["threshold"] == "8/15"
        assert data["denominator"]["coeffs"][:2] == [["-427", "240"], ["-1", "8"]]
    else:
        assert data["q_at_zero"] == "-20"
        assert data["q"]["coeffs"][:2] == [["-20", "1"], ["-20", "1"]]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
