"""Weil q-number conjugacy classes: validation, symmetric F/V-polynomials,
enumeration by trace polynomial, and slope types.

A class is stored as its monic minimal polynomial over Z together with the
context q = p^r.  No algebraic numbers are ever materialized: the root
conditions (every complex root of absolute value sqrt(q)) are decided
exactly through the trace polynomial, Sturm counts and quadratic-surd sign
tests.  Enumeration lists the trace polynomials of degree <= 4 by one
exact-window scan, which reads each admissible coefficient off an integer
interval and so needs no root test at its leaves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from . import zfactor
from .checks import verify
from .intpoly import (
    IntPolynomial,
    _in_open_surd_interval,
    eval_at_surd,
    roots_at_most,
    squarefree_part,
    surd_floor,
)
from .padic import newton_polygon, v_p


class NotWeilError(Exception):
    """Rejection with a machine-readable reason."""

    REASONS = (
        "reducible",
        "functional-equation-fails",
        "real-root-outside-bound",
        "real-but-not-sqrt-q",
    )

    def __init__(self, reason, detail=""):
        verify(reason in self.REASONS, "unknown rejection reason %r" % (reason,))
        super().__init__(reason if not detail else "%s: %s" % (reason, detail))
        self.reason = reason


@dataclass(frozen=True)
class GlobalContext:
    """The ground field F_q with q = p^r."""

    p: int
    r: int

    def __post_init__(self):
        if self.r < 1 or self.p < 2 or not _is_prime(self.p):
            raise ValueError("need a prime p and r >= 1")

    @property
    def q(self):
        return self.p ** self.r

    @classmethod
    def from_q(cls, q):
        if q < 2:
            raise ValueError("q must be a prime power > 1")
        # if q = p^r with p prime, q has an exact k-th root only for k | r,
        # so the first prime root, scanning k downwards, is p
        for k in range(q.bit_length(), 0, -1):
            p = _integer_root(q, k)
            if p ** k == q and _is_prime(p):
                return cls(p, k)
        raise ValueError("%d is not a prime power" % q)


# Miller-Rabin with the first 13 primes as bases is correct for every
# n < 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality test; ValueError for an n >= _MR_LIMIT that
    has no prime factor below 42."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise ValueError("%d is beyond the proven primality test" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n, r):
    """floor(n^(1/r)) for n >= 1, by Newton's iteration from above."""
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class WeilClass:
    """A conjugacy class of Weil q-numbers, keyed by its minimal polynomial."""

    context: GlobalContext
    polynomial: IntPolynomial
    is_real: bool
    half_degree: int | None  # deg = 2*half_degree for non-real classes

    @property
    def degree(self):
        return self.polynomial.degree

    @property
    def is_rational(self):
        return self.degree == 1

    def sort_key(self):
        return (self.degree, self.polynomial.coeffs)

    def __repr__(self):
        return "WeilClass(q=%d, %s)" % (self.context.q, self.polynomial)


# -- symmetric polynomials in F and V -------------------------------------


class SymmetricPolynomial:
    """Element of Z[F^(1/2), V^(1/2)] supported on pure powers.

    Keys of `support` are pairs (i, j) of half-unit exponents: (i, j)
    stands for F^(i/2) * V^(j/2).  Only (i, 0) and (0, j) occur for the
    generators; products keep general pairs.
    """

    __slots__ = ("support",)

    def __init__(self, support):
        cleaned = {k: v for k, v in support.items() if v != 0}
        object.__setattr__(self, "support", dict(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def __eq__(self, other):
        return isinstance(other, SymmetricPolynomial) and self.support == other.support

    def __hash__(self):
        return hash(frozenset(self.support.items()))

    def __mul__(self, other):
        out = {}
        for (i1, j1), c1 in self.support.items():
            for (i2, j2), c2 in other.support.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return SymmetricPolynomial(out)

    def __add__(self, other):
        out = dict(self.support)
        for k, v in other.support.items():
            out[k] = out.get(k, 0) + v
        return SymmetricPolynomial(out)

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    def substitute(self, ctx):
        """x^(deg/2) * h(x, q/x) as an IntPolynomial; deg is the half-unit
        F-degree needed to clear denominators (the class degree)."""
        # total degree in half units: max over keys of i + j is not the
        # right notion; the class/set degree is supplied by the caller via
        # the support itself: substitution sends (i, j) to
        # q^(j/2) * x^((i - j)/2), so multiply by x^(D/2) with D minus the
        # minimal (i - j).
        if not self.support:
            return IntPolynomial()
        diffs = [i - j for (i, j) in self.support]
        shift = -min(diffs)
        terms = {}
        for (i, j), c in self.support.items():
            # exponent in half units must be even after the shift
            if (i - j + shift) % 2:
                raise ValueError("substitution does not land in Z[x]")
            e = (i - j + shift) // 2
            if j % 2 == 0:
                coef = c * ctx.q ** (j // 2)
            else:
                if ctx.r % 2:
                    raise ValueError("half powers of q need even r")
                root_q = ctx.p ** (ctx.r // 2)
                coef = c * root_q ** j
            terms[e] = terms.get(e, 0) + coef
        out = [0] * (max(terms) + 1)
        for e, c in terms.items():
            out[e] = c
        return IntPolynomial(out)

    def monomials(self):
        """Sorted (i, j, coefficient) triples, half-unit exponents."""
        return sorted((i, j, c) for (i, j), c in self.support.items())

    def __repr__(self):
        def name(i, j):
            parts = []
            if i:
                parts.append("F^%s" % (Fraction(i, 2)))
            if j:
                parts.append("V^%s" % (Fraction(j, 2)))
            return "*".join(parts) if parts else "1"

        return " + ".join(
            "%d*%s" % (c, name(i, j)) for i, j, c in self.monomials()
        ) or "0"


def symmetric_polynomial(cls):
    """The F/V-polynomial h with x^(deg/2) h(x, q/x) = P(x)."""
    poly = cls.polynomial
    q = cls.context.q
    if cls.is_rational:
        # x - eps*sqrt(q): h = F^(1/2) - eps V^(1/2)
        eps = -poly.coeffs[0] // (cls.context.p ** (cls.context.r // 2))
        return SymmetricPolynomial({(1, 0): 1, (0, 1): -eps})
    n = poly.degree
    d = n // 2
    support = {(0, 0): poly[d]}
    for k in range(1, d + 1):
        support[(2 * k, 0)] = poly[d + k]
        lo = poly[d - k]
        qk = q ** k
        if lo % qk:
            raise ValueError("not a Weil-class polynomial")
        support[(0, 2 * k)] = lo // qk
    return SymmetricPolynomial(support)


# -- trace polynomial transforms -------------------------------------------


def trace_polynomial(poly, q):
    """Q with P(x) = x^d Q(x + q/x) for an even-degree P satisfying the
    coefficient functional equation, by back-substitution.

    For Q = sum_j b_j x^j, x^d Q(x + q/x) = sum_j b_j x^(d - j) (x^2 + q)^j,
    and the row x^(d - j) (x^2 + q)^j is monic of degree d + j, so the
    coefficients of x^d..x^(2d) form a unitriangular system.  Solved from
    the top: b_d = P[2d] and b_j = P[d + j] - sum_(t > j, t = j mod 2)
    C(t, (t - j)/2) q^((t - j)/2) b_t: the entries of column d + j of
    `_trace_columns`, read in closed form rather than build that matrix for
    one class, so this inverts `_from_trace`.  Only the top half of P is
    read; the functional equation fixes the rest.
    """
    return IntPolynomial(_trace_coefficients(poly.coeffs, q))


def _trace_coefficients(p, q):
    """`trace_polynomial` on coefficient tuples, constant term first."""
    d = (len(p) - 1) // 2
    b = [0] * (d + 1)
    for j in range(d, -1, -1):
        tail = range(1, (d - j) // 2 + 1)  # t = j + 2i > j
        b[j] = p[d + j] - sum([comb(j + 2 * i, i) * q ** i * b[j + 2 * i] for i in tail])
    return tuple(b)


def _trace_columns(d, q):
    """The columns of the integer rows x^(d - j) (x^2 + q)^j, j = 0..d, each
    of length 2d + 1: column k pairs with the coefficient of x^k."""
    rows = []
    power = [1]  # (x^2 + q)^j, constant term first
    for j in range(d + 1):
        rows.append([0] * (d - j) + power + [0] * (d - j))
        power = [q * a + b for a, b in zip(power + [0, 0], [0, 0] + power)]
    return list(zip(*rows))


def _from_trace(trace_coeffs, columns):
    """x^d Q(x + q/x) for Q's coefficients b_0..b_d: sum of b_j times the
    row x^(d - j) (x^2 + q)^j, read column by column."""
    return IntPolynomial([sum(map(mul, trace_coeffs, col)) for col in columns])


# -- validation ------------------------------------------------------------


def validate_weil(poly, ctx):
    """Accept a monic integer polynomial as a Weil class or raise
    NotWeilError with one of the four rejection reasons.

    Once the functional equation holds and every root of the trace
    polynomial Q lies in (-2 sqrt q, 2 sqrt q), irreducibility is decided on
    Q of degree d instead of P of degree 2d: Q(beta) is totally real and
    beta^2 - 4q totally negative, so P is irreducible exactly when Q is.
    Any other polynomial is tested on P first, so that a reducible one is
    rejected as reducible whatever else fails.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(poly)
    if not poly.is_monic:
        raise ValueError("monic polynomial required")
    q = ctx.q
    if poly.degree < 1:
        raise NotWeilError("reducible", "constant polynomial")
    cs = poly.coeffs
    if cs[0] == 0:
        raise NotWeilError("reducible", "zero is a root")
    n = poly.degree
    d = n // 2
    symmetric = n % 2 == 0 and all(cs[d - k] == q ** k * cs[d + k] for k in range(1, d + 1))
    trace = _trace_coefficients(cs, q) if symmetric else None
    if trace is not None and _in_open_surd_interval(trace, 2, q):
        if not zfactor.is_irreducible(IntPolynomial(trace)):
            raise NotWeilError("reducible")
        return WeilClass(ctx, poly, is_real=False, half_degree=d)
    if not zfactor.is_irreducible(poly):
        raise NotWeilError("reducible")
    if poly.degree == 1:
        c = -poly.coeffs[0]
        if ctx.r % 2 == 0 and abs(c) == ctx.p ** (ctx.r // 2):
            return WeilClass(ctx, poly, is_real=True, half_degree=None)
        raise NotWeilError("real-but-not-sqrt-q", "rational root %d" % c)
    if cs == (-q, 0, 1):
        # the real class {+-sqrt q}; r odd here since x^2 - q is irreducible
        return WeilClass(ctx, poly, is_real=True, half_degree=None)
    if n % 2:
        raise NotWeilError("functional-equation-fails", "odd degree %d" % n)
    if not symmetric:
        raise NotWeilError("functional-equation-fails")
    raise NotWeilError("real-root-outside-bound")


# -- Weil sets -------------------------------------------------------------


@dataclass(frozen=True)
class WeilSet:
    context: GlobalContext
    classes: tuple
    polynomial: IntPolynomial
    h: SymmetricPolynomial

    @property
    def degree(self):
        return self.polynomial.degree

    def __repr__(self):
        return "WeilSet(q=%d, %s)" % (self.context.q, self.polynomial)


def weil_set(classes):
    """Form the set w from pairwise distinct classes of one context."""
    classes = list(classes)
    if not classes:
        raise ValueError("nonempty set required")
    ctx = classes[0].context
    if any(c.context != ctx for c in classes):
        raise ValueError("mixed contexts")
    seen = set()
    for c in classes:
        if c.polynomial.coeffs in seen:
            raise ValueError("duplicate class %s" % (c.polynomial,))
        seen.add(c.polynomial.coeffs)
    ordered = tuple(sorted(classes, key=lambda c: c.sort_key()))
    pw = IntPolynomial((1,))
    h = SymmetricPolynomial.one()
    for c in ordered:
        pw = pw * c.polynomial
        h = h * symmetric_polynomial(c)
    return WeilSet(ctx, ordered, pw, h)


# -- enumeration -----------------------------------------------------------


def _trace_polys_degree(d, q):
    """All monic squarefree integer Q of degree d, 1 <= d <= 4, with every
    root in I = (-2 sqrt q, 2 sqrt q), in increasing order of
    (c_(d-1), ..., c_0): one exact-window scan (Kedlaya, "Search techniques
    for root-unitary polynomials", Contemp. Math. 463, 2008).

    Write Q = x^d + c_(d-1) x^(d-1) + ... + c_0 and, for l = 1..d,
    P_l = Q^(d-l) / (d-l)! = sum_m C(m, d-l) c_m x^(m-d+l): integer
    coefficients, degree l, leading coefficient C(d, l) > 0, constant term
    c_(d-l), derivative (d-l+1) P_(l-1), and P_d = Q.  Q is squarefree with
    every root in I exactly when every P_l is: when a polynomial of degree n
    has n distinct roots in I, Rolle's theorem puts a root of its derivative
    strictly between each two consecutive ones, so the derivative has n - 1
    distinct roots in I.

    The scan chooses c_(d-1), ..., c_0 in turn; level l chooses c_(d-l)
    once P_(l-1) has passed.  Then g = P_l - c_(d-l) has l - 1 distinct
    critical points xi_1 < ... < xi_(l-1) in I; put xi_0 = -2 sqrt q and
    xi_l = 2 sqrt q.  g + c is strictly monotone between consecutive xi_i,
    so it has l distinct roots in I exactly when its values there alternate
    strictly in sign, (-1)^(l-i) (g(xi_i) + c) > 0 for i = 0..l: c lies
    above -g(xi_i) for l - i even and below it for l - i odd.  The admissible
    c_(d-l) thus form one open interval, which `_window` reads exactly, and
    every leaf of the scan is admissible with no test at the leaf.  At
    l = 5 two local maxima would bound c from below, and the sorted
    critical values alone no longer give the window, so the scan stops at
    d = 4, the trace degree of `enumerate_weil`'s degree 8.
    """
    if not 1 <= d <= 4:
        raise ValueError("trace degree must be between 1 and 4")
    out = []

    def scan(top):
        # top = (c_(k+1), ..., c_d = 1), constant term first; choose c_k
        k = d - len(top)
        g = IntPolynomial((0,) + tuple(comb(k + 1 + i, k) * c for i, c in enumerate(top)))
        for c in _window(g, q):
            if k:
                scan((c,) + top)
            else:
                out.append(IntPolynomial((c,) + top))

    scan((1,))
    return out


def _window(g, q):
    """The integers c for which g + c has deg g <= 4 distinct roots in
    (-2 sqrt q, 2 sqrt q), as a range, when g(0) = 0, g has positive
    leading coefficient and g' has deg g - 1 distinct roots there (the proof
    is in `_trace_polys_degree`)."""
    n = g.degree
    # g(+-2 sqrt q) = u +- v sqrt q; c lies above -g(2 sqrt q), and above
    # -g(-2 sqrt q) for n even, below it for n odd
    u, v = eval_at_surd(g, 0, 2, q)
    lo = surd_floor(-u, -v, q, 1) + 1
    if n % 2:
        hi = -surd_floor(u, -v, q, 1) - 1
    else:
        lo = max(lo, surd_floor(-u, v, q, 1) + 1)
    if n == 2:
        # one minimum, at -g1 / (2 g2): c < g1^2 / (4 g2)
        hi = (g[1] * g[1] - 1) // (4 * g[2])
    elif n == 3:
        # 27 g3^2 g(xi) = t -+ 2 D sqrt D at xi = (-g2 +- sqrt D) / (3 g3), where
        # D = g2^2 - 3 g1 g3 > 0: c lies above -g at the maximum (the smaller
        # xi) and below -g at the minimum
        _, g1, g2, g3 = g.coeffs
        disc = g2 * g2 - 3 * g1 * g3
        t = 2 * g2 * disc - 3 * g1 * g2 * g3
        lo = max(lo, surd_floor(-t, -2 * disc, disc, 27 * g3 * g3) + 1)
        hi = min(hi, -surd_floor(t, -2 * disc, disc, 27 * g3 * g3) - 1)
    elif n == 4:
        # g + T has a repeated root exactly when T = -g(xi) for a critical
        # point xi, so the -g(xi_i) are the roots of the cubic disc_x(g + T)
        # in Z[T]: the discriminant of a x^4 + b x^3 + c x^2 + d x + T.  g
        # has its maximum at xi_2 and its minima at xi_1, xi_3, so the window
        # is (r_1, r_2) for the two smallest distinct roots r_1 < r_2, found
        # by integer Sturm bisection within |c| = |P_4(0)| < a (2 sqrt q)^4.
        _, d, c, b, a = g.coeffs
        disc = IntPolynomial((
            d * d * ((b * c) ** 2 - 4 * a * c ** 3 - 4 * b ** 3 * d + 18 * a * b * c * d
                     - 27 * (a * d) ** 2),
            16 * a * c ** 4 - 4 * b * b * c ** 3 - 80 * a * b * c * c * d + 18 * b ** 3 * c * d
            + 144 * a * a * c * d * d - 6 * a * b * b * d * d,
            144 * a * b * b * c - 27 * b ** 4 - 128 * (a * c) ** 2 - 192 * a * a * b * d,
            256 * a ** 3,
        ))
        at_most = roots_at_most(squarefree_part(disc))
        box = range(lo, 16 * a * q * q)
        # the first c with a root below it, and the last with at most one
        # root up to it
        lo = box.start + bisect_right(box, 0, key=lambda x: at_most(x) - (disc(x) == 0))
        hi = box.start + bisect_right(box, 1, key=at_most) - 1
    return range(lo, hi + 1)


def enumerate_weil(ctx, max_degree):
    """All Weil classes of degree <= max_degree, sorted by (degree,
    coefficients).  Rational classes appear when r is even; the real class
    x^2 - q of odd r is validated but never enumerated, matching the
    trace-polynomial parametrization.

    Each candidate P(x) = x^d Q(x + q/x) is kept when its trace polynomial Q
    is irreducible: every root beta of Q lies in (-2 sqrt q, 2 sqrt q), so
    Q(beta) is totally real and beta^2 - 4q totally negative, a root pi of
    x^2 - beta x + q generates a quadratic extension of Q(beta), and P is
    irreducible exactly when Q is."""
    if max_degree % 2 or not 2 <= max_degree <= 8:
        raise ValueError("max_degree must be even and between 2 and 8")
    q = ctx.q
    found = []
    if ctx.r % 2 == 0:
        m = ctx.p ** (ctx.r // 2)
        for eps in (1, -1):
            found.append(validate_weil(IntPolynomial((-eps * m, 1)), ctx))
    for d in range(1, max_degree // 2 + 1):
        columns = _trace_columns(d, q)
        for qb in _trace_polys_degree(d, q):
            if not zfactor.is_irreducible(qb):
                continue
            # the trace-polynomial construction already certifies the root
            # bound and functional equation
            poly = _from_trace(qb.coeffs, columns)
            found.append(WeilClass(ctx, poly, is_real=False, half_degree=d))
    found.sort(key=lambda c: c.sort_key())
    return found


# -- slope types -----------------------------------------------------------


def classify_slopes(vals, r):
    """Slope type of the root valuations `vals` (v(p) = 1) of a class over
    F_{p^r}: 'ordinary' iff every valuation is 0 or r, 'supersingular' iff
    every one is r/2, else 'mixed'.  Only which valuations occur matters."""
    if all(v == 0 or v == r for v in vals):
        return "ordinary"
    if all(2 * v == r for v in vals):
        return "supersingular"
    return "mixed"


def slope_type(cls):
    """(flag, valuation multiset) from the Newton polygon; the flag is
    `classify_slopes` of the multiset."""
    vals = newton_polygon(cls.polynomial, cls.context.p).root_valuations()
    return classify_slopes(vals, cls.context.r), tuple(vals)


def middle_coefficient_is_unit(cls):
    """Cross-check for ordinariness: the middle coefficient is prime to p.

    For the rational classes (degree 1) the relevant coefficient is the
    constant term, which has valuation r/2 > 0: never a unit, matching the
    supersingular slope type.
    """
    poly = cls.polynomial
    if cls.degree % 2:
        mid = poly.coeffs[0]
    else:
        mid = poly[cls.degree // 2]
    return mid % cls.context.p != 0
