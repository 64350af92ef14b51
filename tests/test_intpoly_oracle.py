"""Oracle test for intpoly's integer remainder sequence.

`gcd_poly`, `is_squarefree`, `squarefree_part`, `divmod_exact`,
`sturm_count`, `all_roots_in_open_surd_interval` and the test helper
`count_real_roots` all run on one primitive pseudo-remainder sequence over
Z.  The oracle below is the earlier kernel, kept verbatim: Euclidean
remainders over Q in `Fraction` lists, Sturm signs from `Fraction` Horner
evaluation, and real roots counted between minus and plus the Cauchy
bound.  The inputs are the trace polynomials of every acceptance-grid cell
and seeded random polynomials of degree 1-8 with squared factors, negative
and non-unit leading coefficients and zero constant terms.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from test_intpoly import count_real_roots, gcd_poly
from weilkit.intpoly import (
    IntPolynomial,
    _derivative,
    _derivative_signs,
    _sturm_sequence,
    all_roots_in_open_surd_interval,
    divmod_exact,
    is_squarefree,
    squarefree_part,
    sturm_count,
)
from weilkit.weil import _trace_polys_degree


def sturm_chain(p):
    """Sturm chain of p as integer polynomials; when p is not squarefree
    it ends in gcd(p, p') up to a constant factor."""
    return [IntPolynomial(f) for f in _sturm_sequence(p.coeffs, _derivative(p.coeffs))]


def all_roots_below_surd(poly, a, b, s):
    """For a real-rooted poly with positive lc: are all roots < a + b*sqrt(s)?

    Uses the derivative-sign criterion; the caller must have verified that
    every root of poly is real.
    """
    return all(hi > 0 for hi, _lo in _derivative_signs(poly.coeffs, a, b, s))


class old:
    """The `Fraction` kernel, verbatim (module functions as static methods)."""

    # -- rational-coefficient helpers (internal) -------------------------

    @staticmethod
    def _to_frac(p):
        return [Fraction(c) for c in p.coeffs]

    @staticmethod
    def _frac_strip(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    @staticmethod
    def _frac_rem(a, b):
        """Remainder of a by b, lists of Fractions, b nonzero."""
        a = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(a) - 1 >= db and a:
            q = a[-1] / lb
            shift = len(a) - 1 - db
            for i in range(len(b)):
                a[shift + i] -= q * b[i]
            a.pop()
            old._frac_strip(a)
        return a

    @staticmethod
    def _frac_to_primitive(cs):
        """Clear denominators and divide by content; returns IntPolynomial."""
        if not cs:
            return IntPolynomial()
        den = 1
        for c in cs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in cs]
        g = 0
        for c in ints:
            g = gcd(g, c)
        if g:
            ints = [c // g for c in ints]
        if ints and ints[-1] < 0:
            ints = [-c for c in ints]
        return IntPolynomial(ints)

    @staticmethod
    def gcd_poly(a, b):
        """Primitive gcd over Q of two integer polynomials (monic-normalized sign)."""
        fa, fb = old._to_frac(a), old._to_frac(b)
        while fb:
            fa, fb = fb, old._frac_rem(fa, fb)
        return old._frac_to_primitive(fa)

    @staticmethod
    def is_squarefree(p):
        if p.is_zero:
            return False
        return old.gcd_poly(p, p.derivative()).degree <= 0

    @staticmethod
    def squarefree_part(p):
        """p divided by gcd(p, p'), primitive."""
        g = old.gcd_poly(p, p.derivative())
        if g.degree <= 0:
            return p.primitive_part() if p.content() > 1 else p
        fa = old._to_frac(p)
        fg = old._to_frac(g)
        q, r = old._frac_divmod(fa, fg)
        assert not r, "exact division expected"
        return old._frac_to_primitive(q)

    @staticmethod
    def _frac_divmod(a, b):
        a = list(a)
        db, lb = len(b) - 1, b[-1]
        q = [Fraction(0)] * max(len(a) - db, 0)
        while len(a) - 1 >= db and a:
            c = a[-1] / lb
            shift = len(a) - 1 - db
            q[shift] = c
            for i in range(len(b)):
                a[shift + i] -= c * b[i]
            a.pop()
            old._frac_strip(a)
        return q, a

    @staticmethod
    def divmod_exact(a, b):
        """Division in Z[x] when it is exact; raises ValueError otherwise."""
        q, r = old._frac_divmod(old._to_frac(a), old._to_frac(b))
        if r:
            raise ValueError("division not exact")
        out = []
        for c in q:
            if c.denominator != 1:
                raise ValueError("division not exact over Z")
            out.append(int(c))
        return IntPolynomial(out)

    # -- Sturm machinery -------------------------------------------------

    @staticmethod
    def sturm_chain(p):
        """Sturm chain of a squarefree polynomial, as Fraction lists."""
        chain = [old._to_frac(p), old._to_frac(p.derivative())]
        while chain[-1]:
            r = old._frac_rem(chain[-2], chain[-1])
            chain.append([-c for c in r])
        chain.pop()
        return chain

    @staticmethod
    def _variations(chain, x):
        signs = []
        for cs in chain:
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * x + c
            if acc != 0:
                signs.append(1 if acc > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    @staticmethod
    def sturm_count(poly, a, b):
        """Exact number of real roots of a squarefree polynomial in (a, b].

        `a` and `b` may be ints or Fractions with a < b.  Raises ValueError on
        non-squarefree input (callers are expected to divide out gcd(p, p')).
        """
        if not old.is_squarefree(poly):
            raise ValueError("squarefree required")
        a, b = Fraction(a), Fraction(b)
        if not a < b:
            raise ValueError("need a < b")
        chain = old.sturm_chain(poly)
        return old._variations(chain, a) - old._variations(chain, b)

    @staticmethod
    def root_bound(poly):
        """Cauchy bound: all real roots lie in (-M, M)."""
        if poly.degree < 1:
            return 1
        lc = abs(poly.lc)
        m = max(abs(c) for c in poly.coeffs[:-1])
        return 1 + (m + lc - 1) // lc

    @staticmethod
    def count_real_roots(poly):
        """Number of distinct real roots of a squarefree polynomial."""
        m = old.root_bound(poly)
        return old.sturm_count(poly, -m, m)

    @staticmethod
    def all_roots_in_open_surd_interval(poly, bound_b, s):
        """All roots real and inside (-bound_b*sqrt(s), bound_b*sqrt(s))?

        Exact; `poly` need not be squarefree (the squarefree part is used, which
        has the same root set).  Works for any integer s >= 0, so the bound may
        be irrational.
        """
        p = old.squarefree_part(poly)
        if p.degree <= 0:
            return True
        if p.lc < 0:
            p = -p
        if old.count_real_roots(p) != p.degree:
            return False
        if not all_roots_below_surd(p, 0, bound_b, s):
            return False
        q = IntPolynomial(tuple(-c if i % 2 else c for i, c in enumerate(p.coeffs)))
        if q.lc < 0:
            q = -q
        return all_roots_below_surd(q, 0, bound_b, s)


GRID = [(2, 6), (3, 6), (4, 6), (9, 6), (32, 4)]
LEADING = (1, 1, -1, 2, -3, 5)


def outcome(fn, *args):
    """The value, or ValueError for a refused input."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _linear(rng):
    """A x - B with a small rational root B / A, A of either sign."""
    a = rng.choice((1, 1, 1, -1, 2, 3, -2))
    return IntPolynomial((-rng.randint(-6, 6), a))


def _random(rng, deg, zeros=0.0):
    cs = [0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(deg)]
    return IntPolynomial(cs + [rng.choice(LEADING)])


def random_polynomial(rng):
    """Degree 1-8: 30% squared factors, 20% real-rooted products of linear
    factors, 25% sparse (remainder degrees then skip, and the sign of
    lc^k matters), the rest dense; some scaled by a content and some with a
    zero constant term."""
    kind = rng.random()
    if kind < 0.3:
        f = _random(rng, rng.randint(1, 3))
        rest = rng.randint(0, 8 - 2 * f.degree)
        p = f * f * (_random(rng, rest) if rest else IntPolynomial((rng.choice(LEADING),)))
    elif kind < 0.5:
        p = IntPolynomial((rng.choice(LEADING),))
        for _ in range(rng.randint(1, 8)):
            p = p * _linear(rng)
    else:
        p = _random(rng, rng.randint(1, 8), 0.5 if kind < 0.75 else 0.0)
    if p.degree < 8 and rng.random() < 0.15:
        p = p.shift(1)
    if rng.random() < 0.1:
        p = p * rng.choice((2, 3, -4))
    return p


def endpoints(rng, p):
    """Interval ends: integers, fractions, and every rational root of p with
    denominator at most 3, so that some ends are roots."""
    pts = [rng.randint(-12, 12), Fraction(rng.randint(-30, 30), rng.choice((2, 3, 7)))]
    pts += [Fraction(-c0, c1) for c0, c1 in (_linear(rng).coeffs for _ in range(2))]
    pts += [Fraction(x, d) for d in (1, 2, 3) for x in range(-12, 13) if p(Fraction(x, d)) == 0]
    return pts


def compare(p, rng, q):
    """Mismatches between the integer kernel and the oracle on p."""
    bad = []
    dp = p.derivative()

    def check(name, new, ref):
        if new != ref:
            bad.append((name, p, new, ref))

    check("gcd_poly(p, p')", gcd_poly(p, dp), old.gcd_poly(p, dp))
    check("is_squarefree", is_squarefree(p), old.is_squarefree(p))
    check("squarefree_part", squarefree_part(p), old.squarefree_part(p))
    other = random_polynomial(rng)
    check("gcd_poly(p, r)", gcd_poly(p, other), old.gcd_poly(p, other))
    check("gcd_poly(p r, d r)", gcd_poly(p * other, dp * other), old.gcd_poly(p * other, dp * other))
    for b in (other, _linear(rng), p * 2, dp):
        if not b.is_zero:
            check("divmod_exact(p b, b)", outcome(divmod_exact, p * b, b), outcome(old.divmod_exact, p * b, b))
            check("divmod_exact(p, b)", outcome(divmod_exact, p, b), outcome(old.divmod_exact, p, b))
    check("count_real_roots", outcome(count_real_roots, p), outcome(old.count_real_roots, p))
    pts = endpoints(rng, p)
    for _ in range(4):
        a, b = rng.choice(pts), rng.choice(pts)
        check("sturm_count", outcome(sturm_count, p, a, b), outcome(old.sturm_count, p, a, b))
    for bound_b, s in ((2, q), (1, rng.randint(0, 40)), (rng.randint(1, 3), 1)):
        check(
            "all_roots_in_open_surd_interval",
            all_roots_in_open_surd_interval(p, bound_b, s),
            old.all_roots_in_open_surd_interval(p, bound_b, s),
        )
    return bad


def test_grid_trace_polynomials_match_oracle():
    """Every candidate trace polynomial of the acceptance grid through the
    root test; every fifth through gcd, squarefree part and Sturm counts."""
    rng = random.Random(6)
    bad, total = [], 0
    for q, bound in GRID:
        for d in range(1, bound // 2 + 1):
            for t in _trace_polys_degree(d, q):
                total += 1
                if all_roots_in_open_surd_interval(t, 2, q) != old.all_roots_in_open_surd_interval(t, 2, q):
                    bad.append(("all_roots_in_open_surd_interval", q, t))
                if total % 5:
                    continue
                dt = t.derivative()
                if gcd_poly(t, dt) != old.gcd_poly(t, dt) or squarefree_part(t) != old.squarefree_part(t):
                    bad.append(("gcd_poly/squarefree_part", q, t))
                if count_real_roots(t) != old.count_real_roots(t):
                    bad.append(("count_real_roots", q, t))
                a = Fraction(rng.randint(-24, 24), rng.choice((1, 2, 5)))
                b = a + Fraction(rng.randint(1, 40), rng.choice((1, 3)))
                if sturm_count(t, a, b) != old.sturm_count(t, a, b):
                    bad.append(("sturm_count", q, t, a, b))
    assert total == 21012
    assert bad == [], bad[:5]


@pytest.mark.parametrize("seed", [0, 1])
def test_random_polynomials_match_oracle(seed):
    rng = random.Random(seed)
    bad = []
    for i in range(400):
        bad += compare(random_polynomial(rng), rng, rng.choice((2, 3, 4, 9, 32)))
    assert bad == [], bad[:5]


def test_oracle_inputs_cover_the_hard_cases():
    """The random inputs reach every branch the integer sequence has."""
    rng = random.Random(0)
    polys = [random_polynomial(rng) for _ in range(400)]
    assert sum(not old.is_squarefree(p) for p in polys) > 120
    assert sum(p.lc < 0 for p in polys) > 100
    assert sum(abs(p.lc) > 1 for p in polys) > 200
    assert sum(p.coeffs[0] == 0 for p in polys) > 80
    assert sum(old.is_squarefree(p) and old.count_real_roots(p) == p.degree for p in polys) > 60
    assert {p.degree for p in polys} == set(range(1, 9))
    # a step u -> v of even degree drop scales by lc(v)^odd, negative here
    skips = [
        any((u.degree - v.degree) % 2 == 0 and v.lc < 0 for u, v in zip(chain, chain[1:]))
        for chain in map(sturm_chain, polys)
    ]
    assert sum(skips) >= 4


def test_edge_inputs_match_oracle():
    x = IntPolynomial((0, 1))
    cases = [
        IntPolynomial((5,)),
        IntPolynomial((-3,)),
        x ** 8,
        3 * x ** 4,
        -(x ** 2 - 2) ** 3,
        (2 * x - 1) ** 2 * (3 * x + 1),
        x ** 2 * (x - 1) ** 3,
        IntPolynomial((1, 0, 1)) ** 2,
    ]
    zero = IntPolynomial()
    for p in cases:
        dp = p.derivative()
        assert gcd_poly(p, dp) == old.gcd_poly(p, dp), p
        assert gcd_poly(zero, p) == old.gcd_poly(zero, p), p
        assert gcd_poly(p, zero) == old.gcd_poly(p, zero), p
        assert is_squarefree(p) == old.is_squarefree(p), p
        assert squarefree_part(p) == old.squarefree_part(p), p
        assert outcome(count_real_roots, p) == outcome(old.count_real_roots, p), p
        assert outcome(sturm_count, p, -1, 1) == outcome(old.sturm_count, p, -1, 1), p
        assert outcome(sturm_count, p, 1, 1) == outcome(old.sturm_count, p, 1, 1), p
        for s in (0, 1, 2, 4):
            assert all_roots_in_open_surd_interval(p, 2, s) == old.all_roots_in_open_surd_interval(p, 2, s), (p, s)
    assert gcd_poly(zero, zero) == old.gcd_poly(zero, zero)
    assert outcome(count_real_roots, zero) == outcome(old.count_real_roots, zero) == ValueError
    assert divmod_exact(zero, x) == old.divmod_exact(zero, x)
    assert outcome(divmod_exact, x, x * x) == outcome(old.divmod_exact, x, x * x) == ValueError
