"""Exact univariate polynomial arithmetic over Z.

Polynomials are stored as coefficient tuples with the constant term first;
the zero polynomial is the empty tuple.  Everything here is exact integer
arithmetic, never floating point: gcds, squarefree parts and Sturm chains
come from one primitive pseudo-remainder sequence over Z, and resultants
from a subresultant one.  This module also provides the two classical
exact-real-root tools the rest of the library leans on, Sturm counting on
rational intervals (int or Fraction endpoints) and sign evaluation at
quadratic surds a + b*sqrt(s).  The remainder sequences, exact division and
the root-interval test run on bare coefficient tuples; `IntPolynomial`
wraps only what a public function takes or returns.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import ne

from .checks import verify


class IntPolynomial:
    """Immutable integer polynomial, coefficients constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("integer coefficients required, got %r" % (c,))
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

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
        return IntPolynomial(_derivative(self.coeffs))

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


# -- remainder sequences over Z, on coefficient tuples ----------------------


def _derivative(cs):
    return tuple(i * c for i, c in enumerate(cs) if i)


def _normal(cs):
    """cs divided by its content, with a positive leading coefficient."""
    g = -gcd(*cs) if cs and cs[-1] < 0 else gcd(*cs)
    return tuple([c // g for c in cs]) if g not in (0, 1) else cs


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over Z, for
    coefficient tuples with b nonzero: one step, a scaling by lc(b) and a
    subtraction, per degree from deg a down to deg b."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la = a.pop()
        shift = len(a) - db
        a = [c * lb for c in a]
        for i in range(db):
            a[shift + i] -= la * b[i]
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _sturm_sequence(a, b):
    """Primitive Sturm remainder sequence of the tuples (a, b), zeros dropped.

    After a and b, each element is minus the pseudo-remainder of the two
    before it, scaled by |lc|^k rather than lc^k (Brown-Traub, J. ACM 18,
    1971; Cohen, GTM 138, 3.3) and divided by its content: a positive
    multiple of the Euclidean Sturm remainder, with its signs everywhere.
    The last element is gcd(a, b) up to a nonzero integer factor.
    """
    seq = [a, b]
    while seq[-1]:
        u, v = seq[-2], seq[-1]
        r = _prem(u, v)
        e = len(u) - len(v) + 1
        g = gcd(*r) or 1
        if not (v[-1] < 0 and e > 0 and e % 2):  # _prem scales by lc(v)^e
            g = -g
        seq.append(tuple([c // g for c in r]))
    seq.pop()
    return seq


def _divide(a, b):
    """The quotient a / b of coefficient tuples when it lies in Z[x], b
    nonzero; raises ValueError otherwise."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c, r = divmod(a.pop(), lb)
        if r:
            raise ValueError("division not exact over Z")
        shift = len(a) - db
        q[shift] = c
        for i in range(db):
            a[shift + i] -= c * b[i]
    if any(a):
        raise ValueError("division not exact")
    return tuple(q)


def is_squarefree(p):
    if p.is_zero:
        return False
    return len(_sturm_sequence(p.coeffs, _derivative(p.coeffs))[-1]) <= 1


def squarefree_part(p):
    """p divided by gcd(p, p'), primitive."""
    g = _sturm_sequence(p.coeffs, _derivative(p.coeffs))[-1]
    if len(g) <= 1:
        return p.primitive_part()
    return IntPolynomial(_normal(_divide(p.coeffs, _normal(g))))


def divmod_exact(a, b):
    """Division in Z[x] when it is exact; raises ValueError otherwise, and
    ZeroDivisionError when b is zero."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    return IntPolynomial(_divide(a.coeffs, b.coeffs))


# -- Sturm machinery -----------------------------------------------------


def _variations(values):
    """Sign changes along a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def _variations_at(chain, x):
    """Sign variations of the chain at an exact rational x = n/d, d > 0,
    read from the integers d^deg(f) * f(n/d)."""
    n, d = x.as_integer_ratio()
    values = []
    for f in chain:
        acc, scale = 0, 1
        for c in reversed(f):
            acc = acc * n + c * scale
            scale *= d
        values.append(acc)
    return _variations(values)


def _infinity_variations(chain):
    """Sign variations of the chain of tuples at -infinity and at +infinity."""
    plus = [f[-1] > 0 for f in chain]
    minus = [(f[-1] > 0) == len(f) % 2 for f in chain]
    return sum(map(ne, minus, minus[1:])), sum(map(ne, plus, plus[1:]))


def _squarefree_chain(poly):
    chain = _sturm_sequence(poly.coeffs, _derivative(poly.coeffs))
    if poly.is_zero or len(chain[-1]) > 1:
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
    return _at_surd(poly.coeffs, a, b, s)


def _at_surd(cs, a, b, s):
    A, B = 0, 0
    for c in reversed(cs):
        A, B = A * a + B * b * s + c, A * b + B * a
    return A, B


def surd_sign(A, B, s):
    """Sign of A + B*sqrt(s), exactly: when A and B have opposite signs,
    the larger of A^2 and B^2 s decides."""
    sa = (A > 0) - (A < 0)
    sb = (B > 0) - (B < 0) if s else 0
    if sa * sb >= 0:
        return sa or sb
    d = A * A - B * B * s
    return sa if d > 0 else sb if d < 0 else 0


def surd_floor(num_a, num_b, s, den):
    """Exact floor of (num_a + num_b*sqrt(s)) / den for integers, den > 0."""
    if den <= 0:
        raise ValueError("positive denominator required")
    # start from floor(|num_b| sqrt(s)) = isqrt(num_b^2 s), one below its
    # ceiling when num_b < 0, then adjust by direct sign comparison
    t = isqrt(num_b * num_b * s)
    lo = (num_a + (t if num_b >= 0 else -t - 1)) // den
    while surd_sign(num_a - den * (lo + 1), num_b, s) >= 0:
        lo += 1
    while surd_sign(num_a - den * lo, num_b, s) < 0:
        lo -= 1
    return lo


def _derivative_signs(cs, a, b, s):
    """Signs at a + b*sqrt(s) and at a - b*sqrt(s) of the tuple cs and its
    nonconstant derivatives; sqrt(s) -> -sqrt(s) is a ring map of Z[sqrt(s)]."""
    out = []
    while len(cs) > 1:
        A, B = _at_surd(cs, a, b, s)
        out.append((surd_sign(A, B, s), surd_sign(A, -B, s)))
        cs = _derivative(cs)
    return out


def all_roots_in_open_surd_interval(poly, bound_b, s):
    """All roots real and inside (-bound_b*sqrt(s), bound_b*sqrt(s))?

    Exact; `poly` need not be squarefree.  One Sturm sequence of (poly,
    poly') ends in g = gcd(poly, poly'), and every root is real exactly when
    the variations at -infinity minus those at +infinity, the number of
    distinct real roots, equal deg poly - deg g.  The derivative tests then
    run on p = poly / g, which has the same root set, with lc(p) > 0: every
    root is below x0 = bound_b*sqrt(s) exactly when p^(k)(x0) > 0 for
    k < n = deg p, and above -x0 exactly when the same holds for the mirror
    (-1)^n p(-x), that is when p^(k)(-x0) has the sign (-1)^(n - k).  Works
    for any integer s >= 0, so the bound may be irrational.
    """
    return _in_open_surd_interval(poly.coeffs, bound_b, s)


def _in_open_surd_interval(cs, bound_b, s):
    """`all_roots_in_open_surd_interval` on a coefficient tuple."""
    if len(cs) <= 1:
        return True
    chain = _sturm_sequence(cs, _derivative(cs))
    g = chain[-1]
    minus, plus = _infinity_variations(chain)
    if minus - plus != len(cs) - len(g):
        return False
    p = _normal(_divide(cs, _normal(g)) if len(g) > 1 else cs)
    signs = _derivative_signs(p, 0, bound_b, s)
    n = len(signs)
    return all(hi > 0 and lo == (-1) ** (n - k) for k, (hi, lo) in enumerate(signs))


# -- resultants ----------------------------------------------------------


def resultant(p, q):
    """Exact resultant of two nonzero integer polynomials.

    Normalized as lc(q)^deg(p) times the product of p over the roots of q,
    which differs from the Sylvester determinant by (-1)^(deg p * deg q).
    Computed by a subresultant pseudo-remainder sequence (Cohen, Algorithm
    3.3.7) on coefficient tuples, with a final sign correction for the
    chosen normalization.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("nonzero polynomials required")
    a, b = p.coeffs, q.coeffs
    s = -1 if (len(a) % 2 == 0 and len(b) % 2 == 0) else 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -s
        a, b = b, a
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    g, h = 1, 1
    while True:
        d = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -s
        a, b = b, _prem(a, b)
        if not b:
            return 0
        denom = g * h ** d
        b = tuple(c // denom for c in b)
        g = a[-1]
        if d > 0:
            h = g ** d // h ** (d - 1)
        if len(b) == 1:
            verify(len(a) > 1, "subresultant sequence reached a constant too early")
            return s * (b[0] ** (len(a) - 1) // h ** (len(a) - 2))


def discriminant(p):
    """Discriminant of a nonconstant integer polynomial."""
    if p.degree < 1:
        raise ValueError("degree >= 1 required")
    d = p.degree
    r = resultant(p, p.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    val = sign * r
    verify(val % p.lc == 0, "discriminant not divisible by leading coefficient")
    return val // p.lc
