"""Exact univariate polynomial arithmetic over Z.

Polynomials are stored as coefficient tuples with the constant term first;
the zero polynomial is the empty tuple.  Everything here is exact integer
arithmetic, never floating point: gcds, squarefree parts and Sturm chains
come from one primitive pseudo-remainder sequence over Z, and resultants
from a subresultant one.  This module also provides the two classical
exact-real-root tools the rest of the library leans on, Sturm counting on
rational intervals (int or Fraction endpoints) and sign evaluation at
quadratic surds a + b*sqrt(s).
"""

from __future__ import annotations

from math import gcd, isqrt


class IntPolynomial:
    """Immutable integer polynomial, coefficients constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("integer coefficients required, got %r" % (c,))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self):
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == IntPolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                parts.append("%+d" % c)
            elif i == 1:
                parts.append("%+d*x" % c if abs(c) != 1 else ("+x" if c == 1 else "-x"))
            else:
                parts.append("%+d*x^%d" % (c, i) if abs(c) != 1 else ("+x^%d" % i if c == 1 else "-x^%d" % i))
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, n):
        """Multiply by x^n."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * n + self.coeffs)

    def derivative(self):
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def reversed(self):
        """Coefficient reversal x^deg * p(1/x)."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def content(self):
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self):
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial(tuple(c // g for c in self.coeffs))


X = IntPolynomial((0, 1))


def _coerce(p):
    if isinstance(p, IntPolynomial):
        return p
    if isinstance(p, int):
        return IntPolynomial((p,))
    raise TypeError("expected IntPolynomial or int, got %r" % (p,))


# -- remainder sequences over Z -------------------------------------------


def _sturm_sequence(a, b):
    """Primitive Sturm remainder sequence of (a, b) over Z, zeros dropped.

    After a and b, each element is minus the pseudo-remainder of the two
    before it, scaled by |lc|^k rather than lc^k (Brown-Traub, J. ACM 18,
    1971; Cohen, GTM 138, 3.3) and divided by its content: a positive
    multiple of the Euclidean Sturm remainder, with its signs everywhere.
    The last element is gcd(a, b) up to a nonzero integer factor.
    """
    seq = [a, b]
    while not seq[-1].is_zero:
        u, v = seq[-2], seq[-1]
        r = _prem(u, v)
        e = u.degree - v.degree + 1
        scaled_negative = v.lc < 0 and e > 0 and e % 2  # _prem scales by lc(v)^e
        seq.append((r if scaled_negative else -r).primitive_part())
    seq.pop()
    return seq


def gcd_poly(a, b):
    """Primitive gcd over Q of two integer polynomials (monic-normalized sign)."""
    g = _sturm_sequence(a, b)[-1].primitive_part()
    return -g if g.lc < 0 else g


def is_squarefree(p):
    if p.is_zero:
        return False
    return gcd_poly(p, p.derivative()).degree <= 0


def squarefree_part(p):
    """p divided by gcd(p, p'), primitive."""
    g = gcd_poly(p, p.derivative())
    if g.degree <= 0:
        return p.primitive_part() if p.content() > 1 else p
    s = divmod_exact(p, g).primitive_part()
    return -s if s.lc < 0 else s


def divmod_exact(a, b):
    """Division in Z[x] when it is exact; raises ValueError otherwise, and
    ZeroDivisionError when b is zero."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a.coeffs)
    bc = b.coeffs
    db, lb = len(bc) - 1, bc[-1]
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c, r = divmod(a[-1], lb)
        if r:
            raise ValueError("division not exact over Z")
        shift = len(a) - 1 - db
        q[shift] = c
        for i in range(db):
            a[shift + i] -= c * bc[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    if a:
        raise ValueError("division not exact")
    return IntPolynomial(q)


# -- Sturm machinery -----------------------------------------------------


def sturm_chain(p):
    """Sturm chain of p as integer polynomials; when p is not squarefree
    it ends in gcd(p, p') up to a constant factor."""
    return _sturm_sequence(p, p.derivative())


def _variations(values):
    """Sign changes along a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x):
    """Sign variations of the chain at an exact rational x = n/d, d > 0,
    read from the integers d^deg(f) * f(n/d)."""
    n, d = x.as_integer_ratio()
    values = []
    for f in chain:
        acc, scale = 0, 1
        for c in reversed(f.coeffs):
            acc = acc * n + c * scale
            scale *= d
        values.append(acc)
    return _variations(values)


def _infinity_variations(chain):
    """Sign variations of the chain at -infinity and at +infinity."""
    plus = [1 if f.lc > 0 else -1 for f in chain]
    minus = [s if f.degree % 2 == 0 else -s for s, f in zip(plus, chain)]
    return _variations(minus), _variations(plus)


def _squarefree_chain(poly):
    chain = sturm_chain(poly)
    if poly.is_zero or chain[-1].degree > 0:
        raise ValueError("squarefree required")
    return chain


def roots_at_most(poly):
    """x -> the number of real roots of a squarefree polynomial in
    (-infinity, x], for int or Fraction x, all from one Sturm chain.
    Raises ValueError on non-squarefree input."""
    chain = _squarefree_chain(poly)
    minus, _plus = _infinity_variations(chain)
    return lambda x: minus - _variations_at(chain, x)


def sturm_count(poly, a, b):
    """Exact number of real roots of a squarefree polynomial in (a, b].

    `a` and `b` may be ints or Fractions with a < b.  Raises ValueError on
    non-squarefree input (callers are expected to divide out gcd(p, p')).
    """
    count = roots_at_most(poly)
    if not a < b:
        raise ValueError("need a < b")
    return count(b) - count(a)


# -- signs at quadratic surds --------------------------------------------


def eval_at_surd(poly, a, b, s):
    """Evaluate poly at a + b*sqrt(s) symbolically; returns (A, B) meaning A + B*sqrt(s).

    a, b integers, s a nonnegative integer (not necessarily squarefree).
    """
    A, B = 0, 0
    for c in reversed(poly.coeffs):
        A, B = A * a + B * b * s + c, A * b + B * a
    return A, B


def surd_sign(A, B, s):
    """Sign of A + B*sqrt(s), exactly."""
    if B == 0:
        return (A > 0) - (A < 0)
    if s == 0:
        return (A > 0) - (A < 0)
    if A == 0:
        return (B > 0) - (B < 0)
    if A > 0 and B > 0:
        return 1
    if A < 0 and B < 0:
        return -1
    # opposite signs: compare A^2 with B^2 s
    d = A * A - B * B * s
    if d == 0:
        return 0
    if A > 0:
        return 1 if d > 0 else -1
    return -1 if d > 0 else 1


def surd_floor(num_a, num_b, s, den):
    """Exact floor of (num_a + num_b*sqrt(s)) / den for integers, den > 0."""
    if den <= 0:
        raise ValueError("positive denominator required")
    # floor of num_b*sqrt(s): isqrt handles the principal part
    if num_b >= 0:
        t = isqrt(num_b * num_b * s)
        lo = (num_a + t) // den
    else:
        t = isqrt(num_b * num_b * s)
        # -floor is ceil of positive part
        if t * t == num_b * num_b * s:
            lo = (num_a - t) // den
        else:
            lo = (num_a - t - 1) // den
    # verify and adjust by direct sign comparison
    while surd_sign(num_a - den * (lo + 1), num_b, s) >= 0:
        lo += 1
    while surd_sign(num_a - den * lo, num_b, s) < 0:
        lo -= 1
    return lo


def all_roots_below_surd(poly, a, b, s):
    """For a real-rooted poly with positive lc: are all roots < a + b*sqrt(s)?

    Uses the derivative-sign criterion; the caller must have verified that
    every root of poly is real.
    """
    p = poly
    while p.degree > 0:
        A, B = eval_at_surd(p, a, b, s)
        if surd_sign(A, B, s) <= 0:
            return False
        p = p.derivative()
    return True


def all_roots_in_open_surd_interval(poly, bound_b, s):
    """All roots real and inside (-bound_b*sqrt(s), bound_b*sqrt(s))?

    Exact; `poly` need not be squarefree.  One Sturm sequence of (poly,
    poly') ends in g = gcd(poly, poly'), and every root is real exactly when
    the variations at -infinity minus those at +infinity, the number of
    distinct real roots, equal deg poly - deg g.  The derivative tests then
    run on poly / g, which has the same root set.  Works for any integer
    s >= 0, so the bound may be irrational.
    """
    if poly.degree <= 0:
        return True
    chain = sturm_chain(poly)
    g = chain[-1]
    minus, plus = _infinity_variations(chain)
    if minus - plus != poly.degree - g.degree:
        return False
    p = divmod_exact(poly, g.primitive_part()) if g.degree > 0 else poly
    if p.lc < 0:
        p = -p
    if not all_roots_below_surd(p, 0, bound_b, s):
        return False
    q = IntPolynomial(tuple(-c if i % 2 else c for i, c in enumerate(p.coeffs)))
    if q.lc < 0:
        q = -q
    return all_roots_below_surd(q, 0, bound_b, s)


# -- resultants ----------------------------------------------------------


def _prem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    a = list(a.coeffs)
    bc = b.coeffs
    db, lb = len(bc) - 1, bc[-1]
    e = len(a) - len(bc) + 1
    while len(a) - 1 >= db and a:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i in range(len(bc)):
            a[shift + i] -= la * bc[i]
        while a and a[-1] == 0:
            a.pop()
        e -= 1
    if e > 0:
        m = lb ** e
        a = [c * m for c in a]
    return IntPolynomial(a)


def resultant(p, q):
    """Exact resultant of two nonzero integer polynomials.

    Normalized as lc(q)^deg(p) times the product of p over the roots of q,
    which differs from the Sylvester determinant by (-1)^(deg p * deg q).
    Computed by a subresultant pseudo-remainder sequence (Cohen, Algorithm
    3.3.7) with a final sign correction for the chosen normalization.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("nonzero polynomials required")
    a, b = p, q
    s = -1 if (p.degree % 2 == 1 and q.degree % 2 == 1) else 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.lc ** a.degree
    g, h = 1, 1
    while True:
        d = a.degree - b.degree
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            s = -s
        r = _prem(a, b)
        a, b = b, r
        if b.is_zero:
            return 0
        denom = g * h ** d
        b = IntPolynomial(tuple(c // denom for c in b.coeffs))
        g = a.lc
        if d > 0:
            h = g ** d // h ** (d - 1)
        elif d == 0:
            pass
        if b.degree == 0:
            if a.degree == 0:
                raise AssertionError("unreachable")
            res = b.lc ** a.degree // h ** (a.degree - 1)
            return s * res


def discriminant(p):
    """Discriminant of a nonconstant integer polynomial."""
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    d = p.degree
    r = resultant(p, p.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    val = sign * r
    if val % p.lc:
        raise AssertionError("discriminant not divisible by leading coefficient")
    return val // p.lc
