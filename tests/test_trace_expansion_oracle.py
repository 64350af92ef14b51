"""Oracle test for the trace-to-Weil expansion P(x) = x^d Q(x + q/x).

`weil_polynomial_from_trace` below and `enumerate_weil` sum b_j times
integer rows of x^(d - j) (x^2 + q)^j that are built once per degree.  The
oracle below is the earlier expansion, kept verbatim: `IntPolynomial`
products and sums, one term at a time.  The inputs are every candidate trace
polynomial of the 14 acceptance-grid cells, the set that
`test_intpoly_oracle` walks, through both the helper and the
per-degree rows that `enumerate_weil` shares, and seeded random polynomials
with zero, negative and non-unit coefficients.
"""

import random

from weilkit.intpoly import IntPolynomial
from weilkit.weil import _from_trace, _trace_columns, _trace_polys_degree

GRID = [(2, 6), (3, 6), (4, 6), (9, 6), (32, 4)]


def weil_polynomial_from_trace(trace_poly, q):
    """x^d Q(x + q/x) expanded on the per-degree rows of `enumerate_weil`:
    sum of b_j x^(d - j) (x^2 + q)^j."""
    return _from_trace(trace_poly.coeffs, _trace_columns(trace_poly.degree, q))


def old_weil_polynomial_from_trace(trace_poly, q):
    """x^d Q(x + q/x) expanded: sum of b_j x^(d - j) (x^2 + q)^j."""
    d = trace_poly.degree
    x2q = IntPolynomial((q, 0, 1))
    power = IntPolynomial((1,))  # (x^2 + q)^j
    out = IntPolynomial()
    for j in range(d + 1):
        b = trace_poly[j]
        if b:
            out = out + b * power.shift(d - j)
        if j < d:
            power = power * x2q
    return out


def test_grid_candidates_match_oracle():
    bad, total = [], 0
    for q, bound in GRID:
        for d in range(1, bound // 2 + 1):
            columns = _trace_columns(d, q)
            for t in _trace_polys_degree(d, q):
                total += 1
                want = old_weil_polynomial_from_trace(t, q)
                if weil_polynomial_from_trace(t, q) != want or _from_trace(t.coeffs, columns) != want:
                    bad.append((q, t))
    assert total == 21012
    assert bad == [], bad[:5]


def test_random_trace_polynomials_match_oracle():
    rng = random.Random(8)
    for _ in range(500):
        d = rng.randint(0, 6)
        cs = [rng.choice((0, 0, rng.randint(-40, 40))) for _ in range(d)]
        t = IntPolynomial(cs + [rng.choice((1, -1, 2, -3, 7))])
        q = rng.choice((2, 3, 4, 5, 9, 25, 32, 49, 1024))
        assert weil_polynomial_from_trace(t, q) == old_weil_polynomial_from_trace(t, q), (t, q)
    assert weil_polynomial_from_trace(IntPolynomial(), 3) == IntPolynomial()
