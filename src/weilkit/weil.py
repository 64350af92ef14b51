"""Weil q-number conjugacy classes: validation, symmetric F/V-polynomials,
enumeration by trace polynomial, and slope types.

A class is stored as its monic minimal polynomial over Z together with the
context q = p^r.  No algebraic numbers are ever materialized: the root
conditions (every complex root of absolute value sqrt(q)) are decided
exactly through the trace polynomial, Sturm counts and quadratic-surd sign
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from operator import mul

from . import zfactor
from .checks import verify
from .intpoly import (
    IntPolynomial,
    all_roots_in_open_surd_interval,
    is_squarefree,
    surd_floor,
    surd_sign,
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
    coefficient functional equation."""
    n = poly.degree
    d = n // 2
    # T_k(beta) = x^k + (q/x)^k as a polynomial in beta = x + q/x:
    # T_0 = 2, T_1 = beta, T_k = beta T_{k-1} - q T_{k-2}
    t_prev = IntPolynomial((2,))
    t_cur = IntPolynomial((0, 1))
    out = IntPolynomial((poly[d],))
    for k in range(1, d + 1):
        if k > 1:
            t_prev, t_cur = t_cur, IntPolynomial((0, 1)) * t_cur - q * t_prev
        out = out + poly[d + k] * t_cur
    return out


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


def weil_polynomial_from_trace(trace_poly, q):
    """x^d Q(x + q/x) expanded: sum of b_j x^(d - j) (x^2 + q)^j."""
    return _from_trace(trace_poly.coeffs, _trace_columns(trace_poly.degree, q))


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
    if poly.coeffs[0] == 0:
        raise NotWeilError("reducible", "zero is a root")
    n = poly.degree
    d = n // 2
    symmetric = n % 2 == 0 and all(
        poly[d - k] == q ** k * poly[d + k] for k in range(1, d + 1)
    )
    qb = trace_polynomial(poly, q) if symmetric else None
    if qb is not None and all_roots_in_open_surd_interval(qb, 2, q):
        if not zfactor.is_irreducible(qb):
            raise NotWeilError("reducible")
        return WeilClass(ctx, poly, is_real=False, half_degree=d)
    if not zfactor.is_irreducible(poly):
        raise NotWeilError("reducible")
    if poly.degree == 1:
        c = -poly.coeffs[0]
        if ctx.r % 2 == 0 and abs(c) == ctx.p ** (ctx.r // 2):
            return WeilClass(ctx, poly, is_real=True, half_degree=None)
        raise NotWeilError("real-but-not-sqrt-q", "rational root %d" % c)
    if poly.degree == 2 and poly == IntPolynomial((-q, 0, 1)):
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


def _ceil_surd(num_a, num_b, s, den):
    """Exact ceil of (num_a + num_b*sqrt(s)) / den."""
    return -surd_floor(-num_a, -num_b, s, den)


def _coefficient_bound(d, k, q):
    """ceil(binom(d, k) * (2 sqrt q)^k), bounding the x^(d-k) coefficient."""
    c = comb(d, k) * 2 ** k
    if k % 2 == 0:
        return c * q ** (k // 2)
    inner = q ** k
    root = isqrt(inner)
    if root * root < inner:
        root += 1
    return c * root


def _trace_polys_degree(d, q):
    """All monic squarefree integer Q of degree d with every root real and
    inside (-2 sqrt q, 2 sqrt q), in lexicographic coefficient order."""
    if d == 1:
        # root -c0 in the open interval: c0^2 < 4q
        return [
            IntPolynomial((c0, 1))
            for c0 in range(-surd_floor(0, 2, q, 1), surd_floor(0, 2, q, 1) + 1)
            if c0 * c0 < 4 * q
        ]
    if d == 2:
        return _trace_quadratics(q)
    if d == 3:
        return _trace_cubics(q)
    return _trace_generic(d, q)


def _trace_quadratics(q):
    out = []
    b1 = _coefficient_bound(2, 1, q)
    for c1 in range(-b1, b1 + 1):
        if c1 * c1 >= 16 * q:
            continue  # vertex -c1/2 outside (-B, B)
        # roots real in (-B, B): c0 <= c1^2/4 (real), Q(+-B) > 0
        hi = (c1 * c1) // 4
        lo = max(
            surd_floor(-4 * q, -2 * c1, q, 1) + 1,
            surd_floor(-4 * q, 2 * c1, q, 1) + 1,
        )
        for c0 in range(lo, hi + 1):
            if c1 * c1 - 4 * c0 != 0:
                out.append(IntPolynomial((c0, c1, 1)))
    return out


def _sqrt_less_than(d, a, b, s):
    """Exact test sqrt(d) < a + b*sqrt(s) for integers d >= 0, b >= 0."""
    rhs = surd_sign(a, b, s)
    if rhs <= 0:
        return False
    # square both sides: d < a^2 + b^2 s + 2ab sqrt(s)
    return surd_sign(a * a + b * b * s - d, 2 * a * b, s) > 0


def _trace_cubics(q):
    """Valid c0 for fixed (c2, c1) form an integer interval determined by
    the critical points of the cubic (quadratic surds) and the interval
    endpoints; with the critical points confirmed inside the interval the
    window is exact, so only squarefreeness remains to check."""
    out = []
    b2 = _coefficient_bound(3, 1, q)
    for c2 in range(-b2, b2 + 1):
        # derivative 3x^2 + 2 c2 x + c1 needs real roots in (-B, B), B=2*sqrt(q):
        # discriminant >= 0 and Q'(+-B) = 12q +- 4 c2 sqrt(q) + c1 > 0
        hi1 = (c2 * c2) // 3
        lo1 = max(
            surd_floor(-12 * q, -4 * c2, q, 1) + 1,
            surd_floor(-12 * q, 4 * c2, q, 1) + 1,
        )
        for c1 in range(lo1, hi1 + 1):
            disc = c2 * c2 - 3 * c1
            if disc < 0:
                continue
            # critical points (-c2 +- sqrt(disc))/3 must lie in (-B, B):
            # sqrt(disc) < -+ c2 + 6 sqrt(q)
            if not _sqrt_less_than(disc, -c2, 6, q):
                continue
            if not _sqrt_less_than(disc, c2, 6, q):
                continue
            # 27*Q0(xi) = T -+ 2*disc*sqrt(disc) at the critical points,
            # T = 2 c2^3 - 9 c1 c2: the all-real window for c0 is
            # ceil((-T - 2 d sqrt d)/27) <= c0 <= floor((-T + 2 d sqrt d)/27)
            t_val = 2 * c2 ** 3 - 9 * c1 * c2
            lo = _ceil_surd(-t_val, -2 * disc, disc, 27)
            hi = surd_floor(-t_val, 2 * disc, disc, 27)
            # endpoint conditions: c0 > -Q0(B), c0 < -Q0(-B)
            lo = max(lo, surd_floor(-4 * q * c2, -(8 * q + 2 * c1), q, 1) + 1)
            hi = min(hi, _ceil_surd(-4 * q * c2, 8 * q + 2 * c1, q, 1) - 1)
            for c0 in range(lo, hi + 1):
                disc3 = (
                    18 * c2 * c1 * c0
                    - 4 * c2 ** 3 * c0
                    + c2 * c2 * c1 * c1
                    - 4 * c1 ** 3
                    - 27 * c0 * c0
                )
                if disc3 != 0:
                    out.append(IntPolynomial((c0, c1, c2, 1)))
    out.sort(key=lambda p: p.coeffs)
    return out


def _trace_generic(d, q):
    """Depth-first search over coefficients with derivative pruning."""
    out = []
    bounds = [_coefficient_bound(d, d - i, q) for i in range(d)]  # bound for c_i

    def derivative_poly(chosen, level):
        # polynomial whose roots must lie in the interval: the (d-level)-th
        # derivative of x^d + sum chosen coefficients, divided by nothing
        coeffs = {}
        coeffs[d] = 1
        for idx, c in chosen.items():
            coeffs[idx] = c
        order = d - level
        out_c = [0] * (level + 1)
        for m, c in coeffs.items():
            if m >= order:
                fall = 1
                for t in range(order):
                    fall *= m - t
                out_c[m - order] += c * fall
        return IntPolynomial(out_c)

    def rec(level, chosen):
        dp = derivative_poly(chosen, level)
        if not all_roots_in_open_surd_interval(dp, 2, q):
            return
        if level == d:
            qb = dp
            if is_squarefree(qb):
                out.append(qb)
            return
        idx = d - level - 1
        for c in range(-bounds[idx], bounds[idx] + 1):
            chosen[idx] = c
            rec(level + 1, chosen)
        del chosen[idx]

    rec(0, {})
    out.sort(key=lambda p: p.coeffs)
    return out


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
