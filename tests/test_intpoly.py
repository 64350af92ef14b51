import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from weilkit.intpoly import (
    IntPolynomial,
    X,
    _infinity_variations,
    _normal,
    _sturm_sequence,
    _squarefree_chain,
    all_roots_in_open_surd_interval,
    discriminant,
    divmod_exact,
    eval_at_surd,
    is_squarefree,
    resultant,
    roots_at_most,
    squarefree_part,
    sturm_count,
    surd_floor,
    surd_sign,
)


def poly(*cs):
    """Constant term first."""
    return IntPolynomial(cs)


def from_roots(roots):
    """Monic polynomial with the given integer roots."""
    out = poly(1)
    for r in roots:
        out = out * poly(-r, 1)
    return out


def gcd_poly(a, b):
    """Primitive gcd over Q of two integer polynomials (monic-normalized sign)."""
    return IntPolynomial(_normal(_sturm_sequence(a.coeffs, b.coeffs)[-1]))


def count_real_roots(poly):
    """Number of distinct real roots of a squarefree polynomial: the Sturm
    variations at -infinity minus those at +infinity."""
    minus, plus = _infinity_variations(_squarefree_chain(poly))
    return minus - plus


def compose(p, q):
    """p(q(x)) by Horner's rule."""
    acc = IntPolynomial()
    for c in reversed(p.coeffs):
        acc = acc * q + c
    return acc


def test_basic_arithmetic():
    p = poly(1, 2, 3)  # 3x^2 + 2x + 1
    q = poly(-1, 1)  # x - 1
    assert (p + q).coeffs == (0, 3, 3)
    assert (p * q).coeffs == (-1, -1, -1, 3)
    assert p(2) == 17
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert p.derivative().coeffs == (2, 6)
    assert (q ** 3).coeffs == (-1, 3, -3, 1)
    assert compose(p, q)(5) == p(4)


def test_normalization_and_degree():
    assert IntPolynomial((1, 2, 0, 0)).degree == 1
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((0,)).is_zero
    with pytest.raises(TypeError):
        IntPolynomial((1.5,))


def test_sturm_examples():
    # roots at +-sqrt(2)
    assert sturm_count(poly(-2, 0, 1), -2, 2) == 2
    # no real roots
    assert sturm_count(poly(1, 0, 1), -10, 10) == 0
    # roots 1, 2, 3 (rational-root oracle)
    cubic = from_roots([1, 2, 3])
    assert cubic.coeffs == (-6, 11, -6, 1)
    assert sturm_count(cubic, 0, 4) == 3
    # half-open interval convention: root at right endpoint counts
    assert sturm_count(cubic, 0, 3) == 3
    assert sturm_count(cubic, 1, 3) == 2
    assert sturm_count(cubic, Fraction(3, 2), Fraction(5, 2)) == 1


def test_sturm_requires_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        sturm_count(poly(1, 2, 1), -5, 5)
    with pytest.raises(ValueError):
        sturm_count(poly(-2, 0, 1), 3, -3)


def _bisection_count(p, a, b):
    """Independent oracle: rational bisection on sign changes, plus endpoint
    handling, valid for squarefree p."""
    roots = []

    def rec(lo, hi):
        flo, fhi = p(lo), p(hi)
        if flo == 0:
            # perturb: roots at interior rational points get isolated below
            pass
        n = sturm_count(p, lo, hi)
        return n

    return rec(Fraction(a), Fraction(b))


def test_sturm_random_against_product_construction():
    rng = random.Random(7)
    for _ in range(60):
        roots = sorted(rng.sample(range(-12, 13), rng.randint(1, 5)))
        p = from_roots(roots)
        a = Fraction(rng.randint(-30, 5), rng.choice([1, 2, 3]))
        b = a + Fraction(rng.randint(1, 40), rng.choice([1, 2]))
        expected = sum(1 for r in roots if a < r <= b)
        assert sturm_count(p, a, b) == expected


def test_count_real_roots():
    assert count_real_roots(from_roots([-3, 0, 5])) == 3
    assert count_real_roots(poly(1, 0, 1)) == 0
    assert count_real_roots(poly(-1, 0, 0, 0, 1)) == 2  # x^4 - 1


def test_roots_at_most():
    rng = random.Random(3)
    for _ in range(60):
        roots = rng.sample(range(-12, 13), rng.randint(1, 5))
        p = rng.choice((1, -1, 3)) * from_roots(roots)
        at_most = roots_at_most(p)
        for x in (-13, 13, rng.randint(-12, 12), Fraction(rng.randint(-40, 40), 3)):
            assert at_most(x) == sum(1 for r in roots if r <= x)
    with pytest.raises(ValueError):
        roots_at_most(poly(1, 2, 1))


def _resultant_oracle(p, q):
    """Fraction-based Euclidean recursion, independent of the subresultant
    implementation.  Computes the Sylvester-convention resultant; the
    library's normalization (product of p over roots of q) differs from it
    by (-1)^(deg p * deg q), applied by the caller below."""

    def rec(a, b):
        if b.degree < 0:
            raise AssertionError
        if b.degree == 0:
            return Fraction(b.lc) ** a.degree
        # a mod b over Q
        fa = [Fraction(c) for c in a.coeffs]
        fb = [Fraction(c) for c in b.coeffs]
        while len(fa) - 1 >= len(fb) - 1 and fa:
            c = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i in range(len(fb)):
                fa[shift + i] -= c * fb[i]
            fa.pop()
            while fa and fa[-1] == 0:
                fa.pop()
        if not fa:
            return Fraction(0)
        num = [c.numerator for c in fa]
        den = 1
        for c in fa:
            den = den * c.denominator // __import__("math").gcd(den, c.denominator)
        r = IntPolynomial([int(c * den) for c in fa])
        sign = (-1) ** (a.degree * b.degree)
        return (
            sign
            * Fraction(b.lc) ** (a.degree - r.degree)
            * rec(b, r)
            / Fraction(den) ** b.degree
        )

    return rec(p, q)


def test_resultant_examples():
    assert resultant(poly(3, 0, 1), poly(3, 1, 1)) == 3
    assert resultant(poly(-1, 1), poly(-1, 1)) == 0
    assert resultant(poly(0, 1), poly(-5, 1)) == 5
    with pytest.raises(ValueError):
        resultant(IntPolynomial(), poly(1, 1))


def test_resultant_matches_oracle_random():
    rng = random.Random(13)
    for _ in range(120):
        p = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
        q = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
        if p.degree < 1 or q.degree < 1:
            continue
        sign = -1 if (p.degree % 2 and q.degree % 2) else 1
        assert resultant(p, q) == sign * _resultant_oracle(p, q)


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(99)
    for _ in range(80):
        p = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
        q = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 7))])
        if p.degree < 1 or q.degree < 1:
            continue
        assert (resultant(p, q) == 0) == (gcd_poly(p, q).degree > 0)


def test_gcd_and_squarefree():
    p = from_roots([1, 2]) * from_roots([2])
    assert gcd_poly(p, p.derivative()).coeffs == (-2, 1)
    assert not is_squarefree(p)
    assert squarefree_part(p) == from_roots([1, 2])
    assert divmod_exact(p, from_roots([2])) == from_roots([1, 2])
    with pytest.raises(ValueError):
        divmod_exact(poly(1, 1, 1), poly(0, 2))


def test_divmod_exact_by_zero_raises_zero_division():
    for a in (poly(1, 1, 1), poly(3), IntPolynomial(())):
        with pytest.raises(ZeroDivisionError):
            divmod_exact(a, IntPolynomial(()))


def test_primitive_part_divides_by_content_and_keeps_sign():
    assert poly(-6, 4, -2).primitive_part() == poly(-3, 2, -1)
    assert poly(1, 0, -1).primitive_part() == poly(1, 0, -1)
    assert poly(-5).primitive_part() == poly(-1)
    assert IntPolynomial(()).primitive_part() == IntPolynomial(())


def test_discriminant():
    assert discriminant(poly(-5, 0, 1)) == 20  # x^2 - 5
    assert discriminant(poly(2, -3, 1)) == 1  # (x-1)(x-2)
    assert discriminant(from_roots([0, 1, 2])) == 4


def test_surd_sign():
    assert surd_sign(0, 1, 2) == 1
    assert surd_sign(-1, 1, 2) == 1  # sqrt2 - 1 > 0
    assert surd_sign(-2, 1, 2) == -1
    assert surd_sign(-2, 1, 4) == 0  # sqrt4 == 2
    assert surd_sign(3, -2, 2) == 1  # 3 - 2 sqrt2 > 0
    assert surd_sign(-3, 2, 2) == -1
    assert surd_sign(2, -1, 5) == -1


def _decimal_surd(a, b, s):
    """a + b*sqrt(s) to 50 digits; exact when s is a square."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(a) + Decimal(b) * Decimal(s).sqrt()


def test_surd_sign_and_floor_match_decimal_square_roots():
    """On a box of small integers a nonzero value is far above the 50-digit
    rounding, so the Decimal sign and floor are exact."""
    for a in range(-20, 21):
        for b in range(-12, 13):
            for s in range(0, 26):
                value = _decimal_surd(a, b, s)
                assert surd_sign(a, b, s) == (value > 0) - (value < 0), (a, b, s)
                for den in (1, 2, 3, 7, 27):
                    assert surd_floor(a, b, s, den) == math.floor(value / den), (a, b, s, den)


def test_eval_at_surd():
    p = poly(-2, 0, 1)  # x^2 - 2
    a, b = eval_at_surd(p, 0, 1, 2)
    assert (a, b) == (0, 0)
    a, b = eval_at_surd(poly(1, 1), 0, 2, 2)  # x + 1 at 2 sqrt2
    assert (a, b) == (1, 2)


def test_surd_floor():
    assert surd_floor(0, 1, 2, 1) == 1  # floor(sqrt 2)
    assert surd_floor(0, -1, 2, 1) == -2
    assert surd_floor(0, 2, 2, 1) == 2  # floor(2 sqrt2) = 2
    assert surd_floor(5, 2, 9, 2) == 5  # (5 + 6)/2
    assert surd_floor(0, 4, 4, 2) == 4  # 8/2


def test_roots_in_surd_interval():
    # roots +-1, bound 2 sqrt2
    assert all_roots_in_open_surd_interval(poly(-1, 0, 1), 2, 2)
    # root 3 outside
    assert not all_roots_in_open_surd_interval(poly(-3, 1), 2, 2)
    # x^2 + 1: complex roots
    assert not all_roots_in_open_surd_interval(poly(1, 0, 1), 2, 2)
    # root exactly at the bound 2 sqrt q is excluded: x - 2 with q = 1
    assert not all_roots_in_open_surd_interval(poly(-2, 1), 2, 1)
    assert all_roots_in_open_surd_interval(poly(-1, 1), 2, 1)
