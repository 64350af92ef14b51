import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from weilkit.checks import VerificationError
from weilkit.intpoly import IntPolynomial, divmod_exact
from weilkit.weil import (
    _MR_LIMIT,
    GlobalContext,
    NotWeilError,
    WeilClass,
    enumerate_weil,
    middle_coefficient_is_unit,
    slope_type,
    symmetric_polynomial,
    trace_polynomial,
    validate_weil,
    weil_set,
    _integer_root,
    _is_prime,
)

from test_trace_expansion_oracle import weil_polynomial_from_trace


def P(*cs):
    return IntPolynomial(cs)


C2 = GlobalContext.from_q(2)
C3 = GlobalContext.from_q(3)
C4 = GlobalContext.from_q(4)
C9 = GlobalContext.from_q(9)
C32 = GlobalContext.from_q(32)


def test_context():
    assert C32.p == 2 and C32.r == 5 and C32.q == 32
    with pytest.raises(ValueError):
        GlobalContext.from_q(12)
    with pytest.raises(ValueError):
        GlobalContext.from_q(1)
    with pytest.raises(ValueError):
        GlobalContext(4, 2)


def test_validate_accepts():
    w = validate_weil(P(32, -2, 1), C32)
    assert not w.is_real and w.half_degree == 1
    w = validate_weil(P(9, 0, 1), C9)
    assert not w.is_real and w.half_degree == 1
    assert validate_weil(P(-2, 0, 1), C2).is_real
    assert validate_weil(P(-2, 1), C4).is_real
    assert validate_weil(P(2, 1), C4).is_real


def test_not_weil_error_checks_reason():
    # a check, not an assert: it holds under python -O too
    with pytest.raises(VerificationError, match="unknown rejection reason"):
        NotWeilError("not-a-reason")
    assert NotWeilError("reducible", "zero is a root").reason == "reducible"


def test_validate_rejects():
    with pytest.raises(NotWeilError) as e:
        validate_weil(P(2, -5, 1), C2)
    assert e.value.reason == "real-root-outside-bound"
    with pytest.raises(NotWeilError) as e:
        validate_weil(P(4, 0, 0, 0, 1), C2)  # (x^2+2x+2)(x^2-2x+2)
    assert e.value.reason == "reducible"
    with pytest.raises(NotWeilError) as e:
        validate_weil(P(-3, 1), C3)
    assert e.value.reason == "real-but-not-sqrt-q"
    with pytest.raises(NotWeilError) as e:
        validate_weil(P(3, 1, 0, 1), C3)
    assert e.value.reason in ("functional-equation-fails", "reducible")
    with pytest.raises(NotWeilError) as e:
        validate_weil(P(5, 1, 1), C3)
    assert e.value.reason == "functional-equation-fails"
    with pytest.raises(ValueError):
        validate_weil(P(1, 2), C3)  # not monic


def test_symmetric_polynomial_examples():
    h = symmetric_polynomial(validate_weil(P(9, 0, 1), C9))
    assert h.support == {(2, 0): 1, (0, 2): 1}  # F + V
    h = symmetric_polynomial(validate_weil(P(3, -2, 1), C3))
    assert h.support == {(2, 0): 1, (0, 2): 1, (0, 0): -2}  # F + V - 2
    h = symmetric_polynomial(validate_weil(P(-2, 1), C4))
    assert h.support == {(1, 0): 1, (0, 1): -1}  # F^(1/2) - V^(1/2)
    h = symmetric_polynomial(validate_weil(P(2, 1), C4))
    assert h.support == {(1, 0): 1, (0, 1): 1}
    h = symmetric_polynomial(validate_weil(P(-2, 0, 1), C2))
    assert h.support == {(2, 0): 1, (0, 2): -1}  # F - V for the real class


def test_substitution_identity():
    for ctx, cs in [
        (C9, (9, 0, 1)),
        (C3, (3, 1, 1)),
        (C2, (-2, 0, 1)),
        (C4, (-2, 1)),
        (C32, (32, -2, 1)),
    ]:
        cls = validate_weil(P(*cs), ctx)
        h = symmetric_polynomial(cls)
        assert h.substitute(ctx) == cls.polynomial


def test_trace_roundtrip_random():
    rng = random.Random(5)
    for q in (2, 3, 4, 9):
        ctx = GlobalContext.from_q(q)
        for cls in enumerate_weil(ctx, 4):
            if cls.is_real:
                continue
            tp = trace_polynomial(cls.polynomial, q)
            assert weil_polynomial_from_trace(tp, q) == cls.polynomial


def test_enumerate_counts_and_membership():
    e2 = enumerate_weil(C2, 2)
    assert len(e2) == 5
    assert [c.polynomial.coeffs for c in e2] == [
        (2, t, 1) for t in range(-2, 3)
    ]
    e4 = enumerate_weil(C4, 2)
    polys = {c.polynomial.coeffs for c in e4}
    assert (-2, 1) in polys and (2, 1) in polys
    e3 = enumerate_weil(C3, 2)
    polys3 = {c.polynomial.coeffs for c in e3}
    assert (3, 0, 1) in polys3 and (3, 1, 1) in polys3


def test_enumerate_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_weil(C2, 3)
    with pytest.raises(ValueError):
        enumerate_weil(C2, 10)


def _brute_force_weil(ctx, max_degree):
    """Scan all monic integer polynomials of degree <= max_degree with the
    documented coefficient bounds; filter by functional equation, Sturm-based
    root bound, and irreducibility."""
    from math import comb, isqrt

    from weilkit import zfactor
    from weilkit.intpoly import all_roots_in_open_surd_interval

    q = ctx.q
    found = set()
    for deg in range(1, max_degree + 1):
        if deg == 1:
            if ctx.r % 2 == 0:
                m = ctx.p ** (ctx.r // 2)
                for eps in (1, -1):
                    found.add((-eps * m, 1))
            continue
        if deg % 2:
            continue
        d = deg // 2
        bounds = []
        for i in range(deg):
            k = deg - i
            b = comb(deg, k) * 2 ** k
            inner = q ** k
            root = isqrt(inner)
            if root * root < inner:
                root += 1
            bounds.append(b * root if k % 2 else b * q ** (k // 2))
        # scan only coefficients below the middle; the functional equation
        # determines the rest
        ranges = [range(-bounds[i], bounds[i] + 1) for i in range(d, deg)]
        for upper in itertools.product(*ranges):
            coeffs = [0] * (deg + 1)
            coeffs[deg] = 1
            for i, c in enumerate(upper):
                coeffs[d + i] = c
            for k in range(1, d + 1):
                coeffs[d - k] = q ** k * coeffs[d + k]
            poly = IntPolynomial(coeffs)
            if poly.degree != deg:
                continue
            tp = trace_polynomial(poly, q)
            if tp.degree != d:
                continue
            if not all_roots_in_open_surd_interval(tp, 2, q):
                continue
            if not zfactor.is_irreducible(poly):
                continue
            found.add(poly.coeffs)
    return found


def test_enumerate_matches_brute_force_q2():
    got = {c.polynomial.coeffs for c in enumerate_weil(C2, 4)}
    expected = _brute_force_weil(C2, 4)
    assert got == expected
    assert sum(1 for c in got if len(c) == 3) == 5


def test_enumerate_matches_brute_force_q4():
    got = {c.polynomial.coeffs for c in enumerate_weil(C4, 4)}
    expected = _brute_force_weil(C4, 4)
    assert got == expected


def test_enumerated_classes_all_validate():
    for ctx in (C2, C3, C4):
        for cls in enumerate_weil(ctx, 4):
            again = validate_weil(cls.polynomial, ctx)
            assert again == cls


def test_slope_types():
    assert slope_type(validate_weil(P(9, -1, 1), C9))[0] == "ordinary"
    flag, vals = slope_type(validate_weil(P(9, 0, 1), C9))
    assert flag == "supersingular" and vals == (1, 1)
    flag, vals = slope_type(validate_weil(P(32, -2, 1), C32))
    assert flag == "mixed" and vals == (1, 4)
    assert slope_type(validate_weil(P(-3, 1), C9))[0] == "supersingular"
    assert slope_type(validate_weil(P(-2, 0, 1), C2))[0] == "supersingular"


def test_ordinary_iff_middle_coefficient_unit():
    for ctx in (C2, C3, C4, C9):
        for cls in enumerate_weil(ctx, 6 if ctx.q <= 3 else 4):
            flag, _ = slope_type(cls)
            assert (flag == "ordinary") == middle_coefficient_is_unit(cls)


def test_weil_set_product_and_h():
    a = validate_weil(P(3, 0, 1), C3)
    b = validate_weil(P(3, 1, 1), C3)
    w = weil_set([a, b])
    assert w.polynomial == a.polynomial * b.polynomial
    assert w.degree == 4
    assert w.h.substitute(C3) == w.polynomial
    ha, hb = symmetric_polynomial(a), symmetric_polynomial(b)
    assert w.h == ha * hb
    with pytest.raises(ValueError):
        weil_set([a, a])
    with pytest.raises(ValueError):
        weil_set([a, validate_weil(P(9, 0, 1), C9)])


def test_weil_set_with_rational_class():
    w = weil_set([validate_weil(P(-3, 1), C9), validate_weil(P(3, 1), C9)])
    assert w.polynomial == P(-9, 0, 1)
    assert w.h.substitute(C9) == w.polynomial
    # odd-degree set: single rational class
    w1 = weil_set([validate_weil(P(-3, 1), C9)])
    assert w1.degree == 1
    assert w1.h.substitute(C9) == w1.polynomial


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if _is_prime(n)] == [
        n for n in range(-3, 20000) if _trial_division(n)
    ]


def test_is_prime_on_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the bases 2; 2, 3, 5, 7; 2, ..., 37
    for n in (2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161)
    assert not any(_is_prime(n) for n in carmichael)
    big_primes = (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 20 + 39, 3 ** 40 + 2 ** 32 + 1)
    assert [_is_prime(n) for n in big_primes] == [True, True, True, False]
    assert not _is_prime((2 ** 31 - 1) * (10 ** 9 + 7))
    with pytest.raises(ValueError):
        _is_prime(2 ** 89 - 1)  # prime, but beyond the proven range
    assert not _is_prime(2 ** 100)  # has a small factor, so decidable


def test_is_prime_matches_sympy_on_large_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    sample = [rng.randrange(10 ** 12, _MR_LIMIT) | 1 for _ in range(400)]
    sample += [sympy.nextprime(n) for n in sample[:100]]
    assert [_is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]


def test_integer_root_and_prime_powers():
    for n in range(1, 3000):
        for r in range(1, 12):
            x = _integer_root(n, r)
            assert x ** r <= n < (x + 1) ** r
    assert _integer_root(10 ** 60 - 1, 3) == 10 ** 20 - 1
    for p, r in ((2, 80), (3, 40), (2 ** 61 - 1, 3), (10 ** 20 + 39, 1), (10 ** 20 + 39, 2)):
        ctx = GlobalContext.from_q(p ** r)
        assert (ctx.p, ctx.r) == (p, r)
    for q in (6, 12, 3 * 2 ** 10, 2 ** 31 * 3 ** 5, (2 ** 31 - 1) * (10 ** 9 + 7)):
        with pytest.raises(ValueError, match="not a prime power"):
            GlobalContext.from_q(q)
    with pytest.raises(ValueError):
        GlobalContext.from_q(2 ** 89 - 1)
    assert 2 ** 89 - 1 > _MR_LIMIT
