"""Oracle tests for deciding irreducibility on the trace polynomial.

`enumerate_weil` and `validate_weil` test the trace polynomial Q instead of
P(x) = x^d Q(x + q/x), and `zfactor.is_irreducible` decides degrees 2 and 3
in integers.  The oracles below are the earlier routes: the general test on
P (squarefree, then trial factor reconstruction) and sympy.
"""

import itertools
import random

import pytest

from weilkit import zfactor
from weilkit.intpoly import IntPolynomial, all_roots_in_open_surd_interval, is_squarefree
from weilkit.weil import (
    GlobalContext,
    NotWeilError,
    WeilClass,
    _trace_polys_degree,
    enumerate_weil,
    trace_polynomial,
    validate_weil,
)

from test_trace_expansion_oracle import weil_polynomial_from_trace

CELLS = ((2, 6), (3, 4), (4, 4), (9, 4), (32, 2))


def generic_irreducible(poly):
    """Irreducibility over Q of a monic integer polynomial without the
    degree-2/3 shortcuts: squarefree test, then trial factor reconstruction."""
    if poly.degree <= 0:
        return False
    if poly.degree == 1:
        return True
    if poly.coeffs[0] == 0 or not is_squarefree(poly):
        return False
    return zfactor._zassenhaus_irreducible(poly)


def old_enumerate(ctx, max_degree):
    """The P-based filter: expand every trace candidate and test P."""
    q = ctx.q
    found = []
    if ctx.r % 2 == 0:
        m = ctx.p ** (ctx.r // 2)
        found.extend(IntPolynomial((-eps * m, 1)) for eps in (1, -1))
    for d in range(1, max_degree // 2 + 1):
        for qb in _trace_polys_degree(d, q):
            poly = weil_polynomial_from_trace(qb, q)
            if generic_irreducible(poly):
                found.append(poly)
    found.sort(key=lambda p: (p.degree, p.coeffs))
    return [p.coeffs for p in found]


def old_validate(poly, ctx):
    """Accept/reason of validate_weil with every irreducibility test on P."""
    q = ctx.q
    if poly.degree < 1 or poly.coeffs[0] == 0 or not generic_irreducible(poly):
        return "reducible"
    if poly.degree == 1:
        c = -poly.coeffs[0]
        if ctx.r % 2 == 0 and abs(c) == ctx.p ** (ctx.r // 2):
            return "accepted"
        return "real-but-not-sqrt-q"
    if poly == IntPolynomial((-q, 0, 1)):
        return "accepted"
    if poly.degree % 2:
        return "functional-equation-fails"
    d = poly.degree // 2
    if any(poly[d - k] != q ** k * poly[d + k] for k in range(1, d + 1)):
        return "functional-equation-fails"
    if not all_roots_in_open_surd_interval(trace_polynomial(poly, q), 2, q):
        return "real-root-outside-bound"
    return "accepted"


def new_validate(poly, ctx):
    try:
        validate_weil(poly, ctx)
    except NotWeilError as e:
        return e.reason
    return "accepted"


@pytest.mark.parametrize("q, max_degree", CELLS)
def test_enumeration_matches_p_based_filter(q, max_degree):
    ctx = GlobalContext.from_q(q)
    got = enumerate_weil(ctx, max_degree)
    assert all(isinstance(c, WeilClass) for c in got)
    assert [c.polynomial.coeffs for c in got] == old_enumerate(ctx, max_degree)


def test_validate_matches_on_products_of_classes():
    shortcut_reducible = 0
    for q in (2, 3, 4, 9, 32):
        ctx = GlobalContext.from_q(q)
        first = [c.polynomial for c in enumerate_weil(ctx, 4)[:10]]
        for a, b in itertools.combinations_with_replacement(first, 2):
            prod = a * b
            want = old_validate(prod, ctx)
            assert new_validate(prod, ctx) == want, (q, prod)
            assert want == "reducible"
            d = prod.degree // 2
            if (
                prod.degree % 2 == 0
                and all(prod[d - k] == q ** k * prod[d + k] for k in range(1, d + 1))
                and all_roots_in_open_surd_interval(trace_polynomial(prod, q), 2, q)
            ):
                shortcut_reducible += 1
    # most products satisfy the functional equation and the interval test,
    # so the decision falls to the trace polynomial
    assert shortcut_reducible > 200


def test_validate_matches_on_random_polynomials():
    rng = random.Random(20261018)
    reasons = set()
    for i in range(400):
        q = rng.choice((2, 3, 4, 8, 9, 25, 32))
        ctx = GlobalContext.from_q(q)
        forced = i % 2 == 0  # half satisfy the functional equation
        n = rng.choice((2, 4, 6)) if forced else rng.randint(1, 6)
        coeffs = [rng.randint(-3 * q, 3 * q) for _ in range(n)] + [1]
        if forced:
            d = n // 2
            for k in range(1, d):
                coeffs[d + k] = rng.randint(-2 * k * q, 2 * k * q) // rng.choice((1, q))
            for k in range(1, d + 1):
                coeffs[d - k] = q ** k * coeffs[d + k]
        poly = IntPolynomial(coeffs)
        want = old_validate(poly, ctx)
        assert new_validate(poly, ctx) == want, (q, coeffs)
        reasons.add(want)
    assert reasons == {
        "accepted",
        "reducible",
        "functional-equation-fails",
        "real-root-outside-bound",
        "real-but-not-sqrt-q",
    }


def _sympy_irreducible(coeffs):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list([ZZ(c) for c in reversed(coeffs)], ZZ)
    return len(factors) == 1 and factors[0][1] == 1


def _low_degree_cases():
    rng = random.Random(7)
    cases = set()
    for _ in range(2500):
        n = rng.choice((2, 3))
        bound = rng.choice((3, 20, 500))
        cases.add(tuple(rng.randint(-bound, bound) for _ in range(n)) + (1,))
    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        # square discriminants, repeated roots and c0 = +-1
        cases.add((a * b, -(a + b), 1))
        cases.add(tuple((IntPolynomial((-a, 1)) * IntPolynomial((-b, 1)) * IntPolynomial((-c, 1))).coeffs))
        cases.add((rng.choice((1, -1)), a, b, 1))
    for a in range(-4, 5):
        # a linear factor times an irreducible quadratic
        cases.add(tuple((IntPolynomial((-a, 1)) * IntPolynomial((2, 1, 1))).coeffs))
    # constant terms beyond the cubic divisor-scan limit
    cases.add(tuple((IntPolynomial((-2003, 1)) * IntPolynomial((1999, 0, 1))).coeffs))
    cases.add((10 ** 7 + 1, 0, 0, 1))
    return sorted(cases)


def test_low_degree_fast_paths_agree_with_sympy():
    cases = _low_degree_cases()
    assert len(cases) > 2500
    for coeffs in cases:
        want = _sympy_irreducible(coeffs)
        assert zfactor.is_irreducible(IntPolynomial(coeffs)) == want, coeffs
