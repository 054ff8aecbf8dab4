"""Exact big-rational algebra: polynomials, rational functions, Sturm chains,
and gauged functions closed under the physical derivative.

Everything in this module is exact.  A polynomial is stored as integer
numerators over one positive common denominator, so its kernels (products,
division, gcd, Sturm chains, evaluation at a rational) run on Python ints;
coefficients are presented as `fractions.Fraction` and no floating point
enters until an explicit float evaluation is requested.  Float evaluation
takes a float or a numpy array of points and gives the same bits either
way: Horner runs in one operation order on float coefficients, each the
correctly rounded quotient of a stored numerator by the denominator and
cached, and transcendental factors stay on libm (`pointwise`).

A gcd comes from one big-integer gcd of values at a power of two
(GCDHEU), accepted only when trial division certifies it, with a primitive
remainder sequence as the fallback.  Every `RationalFn` operation returns
a reduced result by Henrici's formulas, which take gcds of the operands'
factors rather than of their cross products.  A power of a linear
polynomial comes from the binomial theorem, and the JSON form of a
coefficient is its reduced numerator and denominator read off the stored
integers.

The two gauged families are

* `TrigGauged`:   (1-z)^a (1+z)^b R(z)            with z = cos(2x), 0 < x < pi/2,
* `RadialGauged`: (2w)^{p/2} z^c e^{s z/2} R(z)   with z = w x^2 / 2, x > 0,

where R is a `RationalFn` and the exponents a, b, c are exact Fractions
(quarter-integers in practice), with arithmetic written once (`_Gauged`).
Both families are closed under d/dx (`d_dx`, by the family's `_law`): R
becomes u R + w R' and the exponents shift by a fixed step, (a, b) ->
(a - 1/2, b - 1/2) or (c, p) -> (c - 1/2, p + 1).  That turns Schroedinger
identities into decidable rational-function identities: `exact_ode_residual`
gives psi'' + (E - V) psi of a gauged state over one common denominator,
zero exactly when the state solves the equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from math import comb, gcd
from typing import Sequence

NEG_INF = object()  # interval endpoint sentinels for Sturm counting
POS_INF = object()

# Evaluation points the heuristic gcd tries before the remainder sequence
_HEU_TRIES = 6


def as_rat(value) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def pointwise(fn, x, *args):
    """fn(x, *args) for a float x; for a 1-D numpy array x, fn applied
    point by point.  Keeps transcendental factors on libm: numpy's own
    power and exponential round differently on a few percent of inputs."""
    if not getattr(x, "ndim", 0):
        return fn(x, *args)
    import numpy as np  # an array argument means numpy is loaded

    return np.fromiter(
        map(fn, x.tolist(), *map(repeat, args)), float, count=len(x)
    )


def _as_points(z):
    """A float, or a numpy array of points unchanged."""
    return z if getattr(z, "ndim", 0) else float(z)


# -- integer kernels (ascending coefficient lists of ints) ---------------------


def _convolve(a, b) -> list:
    """Product of two nonempty integer coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _pdiv(a, b) -> tuple:
    """Integer pseudo-division: (q, r, s) with s*a == q*b + r, s > 0 and
    len(r) == len(b) - 1 (r may carry trailing zeros).

    The scale s grows only when a leading coefficient is not divisible by
    lc(b), and then by the least positive factor that makes it so; r is
    therefore a positive multiple of the remainder over Q.
    """
    rem = list(a)
    nb = len(b) - 1
    lb = b[-1]
    dq = len(rem) - nb
    quo = [0] * dq
    s = 1
    for i in reversed(range(dq)):
        t = rem.pop()
        if not t:
            continue
        if t % lb:
            m = abs(lb) // gcd(t, lb)
            rem = [c * m for c in rem]
            quo = [c * m for c in quo]
            s *= m
            t *= m
        c = t // lb
        quo[i] = c
        for j in range(nb):
            rem[i + j] -= c * b[j]
    return quo, rem, s


def _strip(a) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a) -> list:
    """Nonzero integer list divided by its (positive) content."""
    g = gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _heu_gcd(a, b):
    """Primitive gcd of the primitive integer lists a, b by GCDHEU (Char,
    Geddes and Gonnet 1989), or None when every evaluation point fails.

    With xi >= 2 min(|a|, |b|) + 2 (max norms), the primitive part of the
    balanced base-xi expansion of gcd(a(xi), b(xi)) is the gcd of a and b
    exactly when it divides both, so an accepted answer is certified.
    Every xi is a power of two, 2^k, so evaluation is shift-and-add and the
    digits read back with a mask and a shift.  A value at 2^k is its
    constant coefficient modulo 2^k, so the power of z common to a and b
    is split off first: gcd(a, b) = z^m gcd(a / z^i, b / z^j), m = min(i, j).
    """
    i = next(i for i, c in enumerate(a) if c)
    j = next(j for j, c in enumerate(b) if c)
    low = [0] * min(i, j)
    a, b = a[i:], b[j:]
    if len(a) == 1 or len(b) == 1:
        return low + [1]
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    for _ in range(_HEU_TRIES):
        h = gcd(_shift_horner(a, k), _shift_horner(b, k))
        cand = []
        xi = 1 << k
        mask, half = xi - 1, xi >> 1
        while h:
            c = h & mask
            if c > half:
                c -= xi
            cand.append(c)
            h = (h - c) >> k
        cand = _primitive(cand)
        if len(cand) == 1 or (
            len(cand) <= min(len(a), len(b))
            and not any(_pdiv(a, cand)[1])
            and not any(_pdiv(b, cand)[1])
        ):
            return low + cand
        k += 1
    return None


def _shift_horner(num, k: int) -> int:
    """The value of the integer list num at 2^k."""
    acc = 0
    for c in reversed(num):
        acc = (acc << k) + c
    return acc


def _horner_at(num, z: Fraction) -> tuple:
    """(h, q^n) with sum num[i] z^i == h / q^n for z = p/q, n = len(num)-1:
    homogeneous Horner in ints."""
    p, q = z.numerator, z.denominator
    acc = num[-1]
    qk = 1
    for c in reversed(num[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc, qk


class ExactPoly:
    """Dense univariate polynomial over Q, ascending coefficients.

    Stored as integer numerators over one positive common denominator,
    reduced so that no integer > 1 divides the denominator and every
    numerator; the stored form of a polynomial is therefore unique.
    `coeffs` is the read-only tuple of Fraction coefficients.
    """

    __slots__ = ("_num", "_den", "_floats")

    def __init__(self, coeffs=()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        den = 1
        for c in cs:
            d = c.denominator
            if d != 1 and den % d:
                den = den // gcd(den, d) * d
        # den is the lcm of reduced denominators: already in lowest terms
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den
        self._floats = None

    @classmethod
    def _from_ints(cls, num, den: int = 1) -> "ExactPoly":
        """num/den from a list of ints (trailing zeros allowed), den > 0."""
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return cls._reduced(tuple(num), den)

    @classmethod
    def _reduced(cls, num: tuple, den: int) -> "ExactPoly":
        """Wrap a stored form that is already stripped and reduced."""
        out = cls.__new__(cls)
        out._num = num
        out._den = den
        out._floats = None
        return out

    @classmethod
    def _monic_of(cls, num) -> "ExactPoly":
        """The monic multiple of a nonzero integer list."""
        lead = num[-1]
        if lead < 0:
            return cls._from_ints([-c for c in num], -lead)
        return cls._from_ints(list(num), lead)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExactPoly":
        return ExactPoly()

    @staticmethod
    def one() -> "ExactPoly":
        return ExactPoly([1])

    @staticmethod
    def x() -> "ExactPoly":
        return ExactPoly([0, 1])

    @staticmethod
    def constant(c) -> "ExactPoly":
        return ExactPoly([as_rat(c)])

    @staticmethod
    def monomial(c, k: int) -> "ExactPoly":
        return ExactPoly([0] * k + [as_rat(c)])

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as Fractions, lowest degree first."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactPoly.constant(other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"ExactPoly({[str(c) for c in self.coeffs]})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactPoly.constant(other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        a, b = self._num, other._num
        da, db = self._den, other._den
        if da == db:
            ma = mb = 1
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
        den = da * ma
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [c * ma for c in a] if ma != 1 else list(a)
        for i, c in enumerate(b):
            out[i] += c * mb
        return ExactPoly._from_ints(out, den)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly._reduced(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactPoly.constant(other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactPoly._from_ints(
                [c * other.numerator for c in self._num],
                self._den * other.denominator,
            )
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ExactPoly()
        return ExactPoly._from_ints(
            _convolve(self._num, other._num), self._den * other._den
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if len(self._num) == 2:
            # (a + b z)^k / den^k by the binomial theorem
            a, b = self._num
            return ExactPoly._from_ints(
                [comb(k, i) * a ** (k - i) * b**i for i in range(k + 1)],
                self._den**k,
            )
        if not k:
            return ExactPoly.one()
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __divmod__(self, other: "ExactPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._num) < len(other._num):
            return ExactPoly(), self
        quo, rem, s = _pdiv(self._num, other._num)
        # s*num(self) = quo*num(other) + rem, with self = num/den each
        den = s * self._den
        return (
            ExactPoly._from_ints([c * other._den for c in quo], den),
            ExactPoly._from_ints(rem, den),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "ExactPoly":
        if self.is_zero:
            return self
        return ExactPoly._monic_of(self._num)

    def gcd(self, other: "ExactPoly") -> "ExactPoly":
        """Monic greatest common divisor.

        The heuristic gcd (`_heu_gcd`) settles it with big-integer gcds of
        values; when it gives up, a primitive polynomial remainder sequence
        over Z finds the gcd."""
        if other.is_zero:
            return self.monic()
        if self.is_zero:
            return other.monic()
        a, b = _primitive(list(self._num)), _primitive(list(other._num))
        if len(a) == 1 or len(b) == 1:
            return ExactPoly.one()
        g = _heu_gcd(a, b)
        if g is not None:
            return ExactPoly._monic_of(g)
        if len(a) < len(b):
            a, b = b, a
        while True:
            r = _strip(_pdiv(a, b)[1])
            if not r:
                return ExactPoly._monic_of(b)
            if len(r) == 1:
                return ExactPoly.one()
            a, b = b, _primitive(r)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "ExactPoly":
        return ExactPoly._from_ints(
            [i * c for i, c in enumerate(self._num)][1:], self._den
        )

    def antiderivative(self, lower=None) -> "ExactPoly":
        """Antiderivative; with `lower` given, the one vanishing there."""
        num = self._num
        scale = math.lcm(*range(1, len(num) + 1))
        out = ExactPoly._from_ints(
            [0] + [c * (scale // (i + 1)) for i, c in enumerate(num)],
            self._den * scale,
        )
        if lower is not None:
            out = out - out(as_rat(lower))
        return out

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation: exact for Fraction/int input; otherwise on
        floats, at a float or at every point of a numpy array."""
        if isinstance(z, (Fraction, int)):
            if not self._num:
                return Fraction(0)
            h, qn = _horner_at(self._num, z)
            return Fraction(h, qn * self._den)
        floats = self._floats
        if floats is None:
            # int / int rounds correctly, as float(Fraction(c, den)) does;
            # the zero polynomial still runs one step, so that an array
            # argument gives an array
            den = self._den
            floats = self._floats = (
                tuple(c / den for c in reversed(self._num)) or (0.0,)
            )
        acc = 0.0
        z = _as_points(z)
        for c in floats:
            acc = acc * z + c
        return acc

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        den = self._den
        return {
            "coeffs": [
                [str(c // g), str(den // g)]
                for c in self._num
                for g in (gcd(c, den),)
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "ExactPoly":
        return ExactPoly(
            [Fraction(int(nu), int(de)) for nu, de in obj["coeffs"]]
        )


def _cancel(num: ExactPoly, den: ExactPoly) -> tuple:
    """num and den divided by their gcd; a constant (or zero) one of them
    has no factor to cancel."""
    if num.degree() > 0 and den.degree() > 0:
        g = num.gcd(den)
        if g.degree() > 0:
            return num // g, den // g
    return num, den


def _monic_pair(num: ExactPoly, den: ExactPoly) -> tuple:
    """The coprime pair num, den scaled to a monic denominator (the zero
    numerator over 1)."""
    if num.is_zero:
        return ExactPoly(), ExactPoly.one()
    lead = den._num[-1]
    if lead == den._den:
        return num, den
    c = Fraction(den._den, lead)
    return num * c, den * c


class RationalFn:
    """Quotient of two ExactPoly, kept coprime with monic denominator.

    The constructor reduces any num/den pair.  The operators keep their
    operands' reduction instead (Henrici 1956; Knuth, TAOCP vol. 2,
    4.5.1): a sum reduces only against g = gcd(d1, d2), a product cancels
    gcd(n1, d2) and gcd(n2, d1) before it multiplies, and a derivative
    needs only gcd(D, D'); each result is then coprime already."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = ExactPoly.constant(num)
        if den is None:
            den = ExactPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = ExactPoly.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _monic_pair(*_cancel(num, den))

    @classmethod
    def _canonical(cls, num: ExactPoly, den: ExactPoly) -> "RationalFn":
        """num/den for a coprime pair: only makes the denominator monic."""
        out = cls.__new__(cls)
        out.num, out.den = _monic_pair(num, den)
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __eq__(self, other) -> bool:
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # Henrici: with g = gcd(d1, d2), only g can share a factor with
        # n1 (d2/g) + n2 (d1/g); a constant denominator is 1
        if d1.degree() > 0 and d2.degree() > 0:
            g = d1.gcd(d2)
            if g.degree() > 0:
                d1, d2 = d1 // g, d2 // g
                t, g = _cancel(n1 * d2 + n2 * d1, g)
                return RationalFn._canonical(t, d1 * d2 * g)
        return RationalFn._canonical(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn._canonical(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        # Henrici: cancel across the operands, then multiply
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RationalFn._canonical(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFn._canonical(other.den, other.num)

    def __rtruediv__(self, other):
        other = _coerce_rational(other)
        if other is None:
            return NotImplemented
        return other / self

    def derivative(self) -> "RationalFn":
        p, d = self.num, self.den
        # (P/D)' = (P' (D/g) - P (D'/g)) / (D (D/g)) with g = gcd(D, D') is
        # coprime already; g = 1 when D is squarefree
        s, dg = _cancel(d, d.derivative())
        return RationalFn._canonical(p.derivative() * s - p * dg, d * s)

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "RationalFn":
        return RationalFn(
            ExactPoly.from_json(obj["num"]), ExactPoly.from_json(obj["den"])
        )


def _coerce_rational(v):
    if isinstance(v, RationalFn):
        return v
    if isinstance(v, (ExactPoly, int, Fraction)):
        return RationalFn(v)
    return None


# ---------------------------------------------------------------------------
# Sturm chains: exact root counting, isolation, refinement
# ---------------------------------------------------------------------------


def sturm_chain(p: ExactPoly) -> list:
    """Signed-remainder Sturm chain of p (expects p squarefree).

    Entries are primitive integer polynomials, each a positive multiple of
    the classical entry (p, p', -rem, ...), so sign counts are unchanged."""
    a = _primitive(list(p._num))
    chain = [a]
    b = [i * c for i, c in enumerate(a)][1:]
    while b:
        b = _primitive(b)
        chain.append(b)
        r = _strip(_pdiv(a, b)[1])
        a, b = b, [-c for c in r]
    return [ExactPoly._from_ints(c) for c in chain]


def _sign_at(p: ExactPoly, x) -> int:
    if p.is_zero:
        return 0
    lead = p._num[-1]
    if x is POS_INF:
        return 1 if lead > 0 else -1
    if x is NEG_INF:
        s = 1 if lead > 0 else -1
        return s if p.degree() % 2 == 0 else -s
    v = _horner_at(p._num, x)[0]
    return (v > 0) - (v < 0)


def _variations(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_data(p: ExactPoly) -> tuple:
    """(squarefree part q, Sturm chain of q, multiplicity-free flag of p),
    all from one gcd(p, p').  The chain is empty when p has no root."""
    if p.is_zero:
        raise ValueError("root counting on the zero polynomial")
    if p.degree() == 0:
        return p.monic(), [], True
    g = p.gcd(p.derivative())
    q = (p // g).monic()
    return q, sturm_chain(q), g.degree() == 0


def _open_count(q: ExactPoly, chain, x, y) -> int:
    """Distinct roots of the squarefree q in the open interval (x, y): the
    Sturm count covers (x, y], so a root sitting at y is subtracted."""
    n = _variations(chain, x) - _variations(chain, y)
    if y is not POS_INF and q(y) == 0:
        n -= 1
    return n


def count_roots(
    p: ExactPoly,
    lo=NEG_INF,
    hi=POS_INF,
    lo_closed: bool = False,
    hi_closed: bool = False,
) -> int:
    """Number of distinct real roots of p in the requested interval.

    Endpoints are exact Fractions or the NEG_INF/POS_INF sentinels; open
    endpoints by default.  Multiplicities are ignored (the count is over
    distinct roots).
    """
    q, chain, _ = _sturm_data(p)
    if not chain:
        return 0
    n = _open_count(q, chain, lo, hi)
    if hi is not POS_INF and hi_closed and q(hi) == 0:
        n += 1
    if lo is not NEG_INF and lo_closed and q(lo) == 0:
        n += 1
    return n


@dataclass(frozen=True)
class RootIsolation:
    """Disjoint rational intervals, each holding exactly one distinct root.

    Degenerate intervals (lo == hi) mark exact rational roots.
    `multiplicity_free` certifies the input polynomial was squarefree.
    """

    intervals: tuple
    multiplicity_free: bool

    @property
    def count(self) -> int:
        return len(self.intervals)


def _cauchy_bound(p: ExactPoly) -> Fraction:
    num = p._num
    return 1 + Fraction(max(map(abs, num)), abs(num[-1]))


def isolate_roots(p: ExactPoly, lo=NEG_INF, hi=POS_INF) -> RootIsolation:
    """Isolate the distinct real roots of p inside the open interval."""
    q, chain, multiplicity_free = _sturm_data(p)
    if not chain:
        return RootIsolation((), multiplicity_free)
    a = -_cauchy_bound(q) if lo is NEG_INF else as_rat(lo)
    b = _cauchy_bound(q) if hi is POS_INF else as_rat(hi)
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

    rec(a, b)
    out.sort(key=lambda iv: iv[0])
    return RootIsolation(tuple(out), multiplicity_free)


def refine_root(p: ExactPoly, interval, width) -> tuple:
    """Shrink an isolating interval by bisection until it is narrower
    than `width`.  The interval must contain exactly one distinct root."""
    lo, hi = as_rat(interval[0]), as_rat(interval[1])
    if lo == hi:
        return (lo, hi)
    width = as_rat(width)
    q, chain, _ = _sturm_data(p)
    if _open_count(q, chain, lo, hi) != 1 and not (q(lo) == 0 or q(hi) == 0):
        raise ValueError("interval does not isolate a single root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if q(mid) == 0:
            return (mid, mid)
        if _open_count(q, chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


# ---------------------------------------------------------------------------
# Gauged functions
# ---------------------------------------------------------------------------

# the polynomials the gauge exponents power
ONE_MINUS = ExactPoly([1, -1])
ONE_PLUS = ExactPoly([1, 1])
Z = ExactPoly([0, 1])


class _Gauged:
    """A gauge times the rational function `rat`.

    A family is a frozen dataclass (``eq=False``) with its gauge fields,
    then `rat`.  It declares `_GAUGE`, the gauge fields, each adding under
    `*`; `_POWERS`, each exponent field with the polynomial it powers (a
    sum moves integer exponent gaps into `rat`); `_MATCH`, the fields a
    sum needs equal, with the message for a mismatch; and `_law`, giving
    d/dx as (u, w, lower): r -> u r + w r' over the gauge fields `lower`."""

    _MATCH = {}

    @property
    def is_zero(self) -> bool:
        return self.rat.is_zero

    def __hash__(self):
        # `==` ignores integer gaps between exponents (they move into
        # `rat`) and the gauge of a zero, so neither may enter the hash
        if self.is_zero:
            return hash(type(self))
        return hash((
            type(self),
            *(getattr(self, n) for n in self._MATCH),
            *(getattr(self, n) % 1 for n in self._POWERS),
        ))

    def _lifted(self, low: dict) -> RationalFn:
        """`rat` over the gauge whose exponents are `low`."""
        lift = None
        for name, poly in self._POWERS.items():
            gap = getattr(self, name) - low[name]
            if gap.denominator != 1:
                raise ValueError("gauge exponents differ by a non-integer")
            if gap:
                factor = poly ** int(gap)
                lift = factor if lift is None else lift * factor
        return self.rat if lift is None else self.rat * lift

    def d_dx(self):
        """Exact x-derivative by the family's law (`_law`)."""
        u, w, lower = self._law()
        rat = RationalFn(u) * self.rat + RationalFn(w) * self.rat.derivative()
        return replace(self, rat=rat, **lower)

    def _aligned(self, other):
        """(lowered exponents, self.rat, other.rat) over one common gauge."""
        if not isinstance(other, type(self)):
            raise TypeError("mixed gauge families")
        for name, message in self._MATCH.items():
            if getattr(self, name) != getattr(other, name):
                raise ValueError(message)
        low = {n: min(getattr(self, n), getattr(other, n)) for n in self._POWERS}
        return low, self._lifted(low), other._lifted(low)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            raise TypeError("mixed gauge families")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low, r1, r2 = self._aligned(other)
        return replace(self, rat=r1 + r2, **low)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return replace(self, rat=-self.rat)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            sums = {n: getattr(self, n) + getattr(other, n) for n in self._GAUGE}
            return replace(self, rat=self.rat * other.rat, **sums)
        r = _coerce_rational(other)
        if r is None:
            raise TypeError(f"cannot use {other!r} as a rational function")
        return replace(self, rat=self.rat * r)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if any(getattr(self, n) != getattr(other, n) for n in self._MATCH):
            return False
        # a non-integer exponent gap leaves an irrational factor: unequal
        if any(getattr(self, n) % 1 != getattr(other, n) % 1 for n in self._POWERS):
            return False
        _, r1, r2 = self._aligned(other)
        return r1 == r2


@dataclass(frozen=True, eq=False)
class TrigGauged(_Gauged):
    """(1-z)^a (1+z)^b * rat(z), z = cos 2x on the interval 0 < x < pi/2."""

    a: Fraction
    b: Fraction
    rat: RationalFn

    _GAUGE = ("a", "b")
    _POWERS = {"a": ONE_MINUS, "b": ONE_PLUS}

    def _law(self) -> tuple:
        """dz/dx = -2 sqrt(1-z^2) on 0 < x < pi/2: r becomes
        -2 [(b(1-z) - a(1+z)) r + (1-z^2) r'], one half power lower."""
        a, b, half = self.a, self.b, Fraction(1, 2)
        u = ExactPoly([2 * (a - b), 2 * (a + b)])
        return u, ExactPoly([-2, 0, 2]), {"a": a - half, "b": b - half}

    def eval_z(self, z):
        """Value at z: a float, or a numpy array of points."""
        z = _as_points(z)
        return (
            pointwise(math.pow, 1.0 - z, float(self.a))
            * pointwise(math.pow, 1.0 + z, float(self.b))
            * self.rat(z)
        )

    def eval_x(self, x):
        return self.eval_z(pointwise(math.cos, 2.0 * x))


@dataclass(frozen=True, eq=False)
class RadialGauged(_Gauged):
    """(2w)^{p/2} z^c e^{s z/2} * rat(z), z = w x^2/2 on the half line x > 0.

    `p` counts powers of sqrt(2w) (w is the oscillator frequency, left
    symbolic); `s` is an integer so e^{s z/2} covers e^{-z/2}, e^{z/2},
    e^{-z} and friends.
    """

    c: Fraction
    s: int
    p: int
    rat: RationalFn

    _GAUGE = ("c", "s", "p")
    _POWERS = {"c": Z}
    _MATCH = {
        "s": "incompatible exponential gauges",
        "p": "incompatible frequency powers",
    }

    def _law(self) -> tuple:
        """d/dx = sqrt(2w) sqrt(z) d/dz on x > 0: r becomes
        (c + (s/2) z) r + z r', z one half power lower, sqrt(2w) one higher."""
        u = ExactPoly([self.c, Fraction(self.s, 2)])
        return u, Z, {"c": self.c - Fraction(1, 2), "p": self.p + 1}

    def eval_z(self, z, omega: float = 1.0):
        """Value at z: a float, or a numpy array of points."""
        z = _as_points(z)
        return (
            (2.0 * omega) ** (self.p / 2.0)
            * pointwise(math.pow, z, float(self.c))
            * pointwise(math.exp, self.s * z / 2.0)
            * self.rat(z)
        )

    def eval_x(self, x, omega: float = 1.0):
        return self.eval_z(omega * x * x / 2.0, omega)


def wronskian(fs: Sequence[_Gauged]) -> _Gauged:
    """Exact Wronskian (in the x variable) of gauged functions.

    All entries must belong to the same gauge family; the result is again a
    gauged function of that family.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("empty Wronskian")
    fam = type(fs[0])
    if any(not isinstance(f, fam) for f in fs):
        raise TypeError("mixed gauge families")
    m = len(fs)
    rows = [fs]
    for _ in range(m - 1):
        rows.append([f.d_dx() for f in rows[-1]])
    return _det([[rows[i][j] for j in range(m)] for i in range(m)])


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = None
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def exact_ode_residual(f, v_zform: RationalFn, energy):
    """Exact residual psi'' + (E - V) psi as a gauged function.

    For a `TrigGauged` eigenfunction, `v_zform` is the potential in
    z = cos 2x and `energy` the exact eigenvalue.  For a `RadialGauged`
    one, both potential and energy are in units of the frequency w
    (V(x) = w * v_zform(z), E = w * energy), which cancels from the
    statement.  The identity holds iff the returned object `.is_zero`.

    The residual sits two derivatives below f's gauge: psi'' is N/D^3 by the
    family's law applied twice to f's P/D, (E - V) psi = G/H psi joins it
    over D lcm(D^2, H), and the sum is reduced once, by no gcd if it is zero.
    """
    if not isinstance(f, (TrigGauged, RadialGauged)):
        raise TypeError("eigenfunction must be a gauged function")
    e = as_rat(energy) if not isinstance(energy, RationalFn) else energy
    gap = e - v_zform  # E - V
    if isinstance(f, RadialGauged):
        gap = gap * Fraction(1, 2)  # (E - V) psi = (sqrt(2w))^2 (gap/2) psi
    num, d, g = f.rat.num, f.rat.den, f
    for j in (1, 2):
        # u r + w r' with r = num/D^j is (D (u num + w num') - j w num D')/D^(j+1)
        u, w, lower = g._law()
        num = d * (u * num + w * num.derivative()) - j * w * num * d.derivative()
        g = replace(g, **lower)
    h, d2 = _cancel(gap.den, d * d)  # H and D^2 over their gcd
    # P G from f's gauge onto the residual's, over the same denominator
    term = replace(f, rat=RationalFn(f.rat.num * gap.num * d2))._lifted(vars(g))
    num = num * h + term.num
    return replace(g, rat=RationalFn(num, d * d * d * h if num else None))
