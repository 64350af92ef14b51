"""Oracle tests for `validate_weil` and the trace transform it runs on.

`trace_polynomial` solves P = sum_j b_j x^(d - j) (x^2 + q)^j from the top
by back-substitution, and `validate_weil` runs the root-interval test on the
trace polynomial's coefficient tuple.  The oracles below are the earlier
route, kept verbatim: `old_trace_polynomial` builds Q through the Chebyshev
recursion T_k = beta T_(k-1) - q T_(k-2) on `IntPolynomial`s, and
`old_validate_weil` is the earlier `validate_weil`, which feeds that Q to
the `Fraction` interval test `old.all_roots_in_open_surd_interval` of
`test_intpoly_oracle`.  The inputs are every trace polynomial of the exact
window scan up to degree 3 (2 at q = 32), seeded symmetric polynomials
beyond it, and seeded monic polynomials of degree 1-10.
"""

import random

import pytest

from test_intpoly_oracle import old
from weilkit import zfactor
from weilkit.intpoly import IntPolynomial
from weilkit.weil import (
    GlobalContext,
    NotWeilError,
    WeilClass,
    _from_trace,
    _trace_columns,
    _trace_polys_degree,
    trace_polynomial,
    validate_weil,
)

QS = (2, 3, 4, 9, 32)


def old_trace_polynomial(poly, q):
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


def old_validate_weil(poly, ctx):
    """The earlier `validate_weil`, on the two oracles above."""
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
    qb = old_trace_polynomial(poly, q) if symmetric else None
    if qb is not None and old.all_roots_in_open_surd_interval(qb, 2, q):
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
        return WeilClass(ctx, poly, is_real=True, half_degree=None)
    if n % 2:
        raise NotWeilError("functional-equation-fails", "odd degree %d" % n)
    if not symmetric:
        raise NotWeilError("functional-equation-fails")
    raise NotWeilError("real-root-outside-bound")


def verdict(validate, poly, ctx):
    """("class", is_real, half_degree), ("rejected", reason) or ValueError."""
    try:
        cls = validate(poly, ctx)
    except NotWeilError as exc:
        return ("rejected", exc.reason)
    except ValueError:
        return ValueError
    return ("class", cls.is_real, cls.half_degree)


def from_trace(trace, q):
    return _from_trace(trace.coeffs, _trace_columns(trace.degree, q))


def test_trace_polynomial_inverts_the_trace_rows_on_the_scan():
    total = 0
    for q in QS:
        for d in range(1, (2 if q == 32 else 3) + 1):
            for t in _trace_polys_degree(d, q):
                total += 1
                poly = from_trace(t, q)
                assert trace_polynomial(poly, q) == t == old_trace_polynomial(poly, q), (q, t)
    assert total == 21012


def test_trace_polynomial_matches_oracle_beyond_the_scan():
    rng = random.Random(23)
    for _ in range(300):
        d = rng.choice((5, 6))
        q = rng.choice(QS)
        t = IntPolynomial([rng.randint(-60, 60) for _ in range(d)] + [1])
        poly = from_trace(t, q)
        assert poly.degree == 2 * d
        assert trace_polynomial(poly, q) == t == old_trace_polynomial(poly, q), (q, t)


def random_monic(rng, q):
    """Degree 1-10: symmetric x^d Q(x + q/x) for a random Q (some with
    squared factors or roots near +-2 sqrt q), products of two such,
    polynomials with a zero constant term, and plain random ones."""
    kind = rng.random()
    if kind < 0.45:
        d = rng.randint(1, 5)
        t = IntPolynomial([rng.randint(-2 * d - 2, 2 * d + 2) for _ in range(d)] + [1])
        if d <= 2 and rng.random() < 0.3:
            t = t * t
        return from_trace(t, q)
    if kind < 0.6:
        a, b = random_monic(rng, q), random_monic(rng, q)
        return a * b if a.degree + b.degree <= 10 else a
    n = rng.randint(1, 10)
    cs = [rng.randint(-12, 12) for _ in range(n)]
    if rng.random() < 0.1:
        cs[0] = 0
    return IntPolynomial(cs + [1])


def test_verdicts_match_oracle_on_random_monic_polynomials():
    rng = random.Random(2023)
    verdicts = []
    for _ in range(1500):
        q = rng.choice(QS)
        ctx = GlobalContext.from_q(q)
        poly = random_monic(rng, q)
        want = verdict(old_validate_weil, poly, ctx)
        assert verdict(validate_weil, poly, ctx) == want, (q, poly)
        verdicts.append(want)
    # every rejection reason occurs, and real classes and classes of half
    # degree 1-4
    assert {v[1] for v in verdicts if v[0] == "rejected"} == set(NotWeilError.REASONS)
    assert {v[2] for v in verdicts if v[0] == "class"} == {None, 1, 2, 3, 4}


@pytest.mark.parametrize(
    "q, coeffs, want",
    [
        # Q = (x - 1)^2 has every root inside, but P = (x^2 - x + 2)^2
        (2, (4, -4, 5, -2, 1), ("rejected", "reducible")),
        # Q = x - 4 has its root at 2 sqrt 4 exactly: P = (x - 2)^2
        (4, (4, -4, 1), ("rejected", "reducible")),
        (2, (0, 1, 1), ("rejected", "reducible")),
        (2, (3, 1, 1), ("rejected", "functional-equation-fails")),
        (2, (1, 1, 0, 1), ("rejected", "functional-equation-fails")),
        (2, (2, -5, 1), ("rejected", "real-root-outside-bound")),
        (4, (-3, 1), ("rejected", "real-but-not-sqrt-q")),
        (2, (2, 1, 1), ("class", False, 1)),
        (2, (-2, 0, 1), ("class", True, None)),
        (9, (-3, 1), ("class", True, None)),
        (2, (1, 2), ValueError),
        (2, (1, 2, -1), ValueError),
    ],
)
def test_pinned_verdicts(q, coeffs, want):
    ctx = GlobalContext.from_q(q)
    poly = IntPolynomial(coeffs)
    assert verdict(validate_weil, poly, ctx) == want
    assert verdict(old_validate_weil, poly, ctx) == want


def test_pinned_trace_polynomials():
    assert trace_polynomial(IntPolynomial((4, -4, 5, -2, 1)), 2) == IntPolynomial((1, -2, 1))
    assert IntPolynomial((2, -1, 1)) ** 2 == IntPolynomial((4, -4, 5, -2, 1))
    assert trace_polynomial(IntPolynomial((4, -4, 1)), 4) == IntPolynomial((-4, 1))
