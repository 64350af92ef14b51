"""The exact-window trace scan against the routes it replaced.

`weil._trace_polys_degree` lists the monic squarefree integer Q of degree
d <= 4 with every root in (-2 sqrt q, 2 sqrt q) by one scan whose level l
reads the admissible coefficient c_(d-l) off an exact window.  The oracles
below are the earlier routes, kept verbatim apart from an optional
restriction of the cubic and generic searches to one leading coefficient:
an inline loop for d = 1, closed-form windows for d = 2 and 3, and a
depth-first search with one Sturm test a node over the whole binomial box
for d >= 4.  A second, independent check asks `is_squarefree` and
`all_roots_in_open_surd_interval` about polynomials near the scan's outputs
and about products of integer linear factors.
"""

import itertools
import random
from math import comb, factorial, isqrt

import pytest

from weilkit.intpoly import (
    IntPolynomial,
    all_roots_in_open_surd_interval,
    is_squarefree,
    surd_floor,
    surd_sign,
)
from weilkit.weil import _trace_polys_degree, _window


# -- the earlier routes ------------------------------------------------------


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


def old_trace_polys_degree(d, q):
    """All monic squarefree integer Q of degree d with every root real and
    inside (-2 sqrt q, 2 sqrt q)."""
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


def _trace_cubics(q, top=None):
    """Valid c0 for fixed (c2, c1) form an integer interval determined by
    the critical points of the cubic (quadratic surds) and the interval
    endpoints; with the critical points confirmed inside the interval the
    window is exact, so only squarefreeness remains to check.  `top`, when
    given, fixes c2."""
    out = []
    b2 = _coefficient_bound(3, 1, q)
    for c2 in range(-b2, b2 + 1) if top is None else [top]:
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


def _trace_generic(d, q, top=None):
    """Depth-first search over coefficients with derivative pruning; `top`,
    when given, fixes the coefficient of x^(d-1)."""
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
        if level == 0 and top is not None:
            choices = [top]
        else:
            choices = range(-bounds[idx], bounds[idx] + 1)
        for c in choices:
            chosen[idx] = c
            rec(level + 1, chosen)
        del chosen[idx]

    rec(0, {})
    out.sort(key=lambda p: p.coeffs)
    return out


# -- the scan against the earlier routes ------------------------------------


def _ordered(polys):
    """The scan's one output order: increasing (c_(d-1), ..., c_0)."""
    keys = [p.coeffs[::-1] for p in polys]
    return all(a < b for a, b in zip(keys, keys[1:]))


def _same(new, old):
    return len(new) == len(old) and {p.coeffs for p in new} == {p.coeffs for p in old}


@pytest.mark.parametrize("q", [2, 3, 4, 9, 32])
def test_scan_matches_closed_form_routes(q):
    """Every d <= 3; at q = 32 the 746,141 cubics are compared for a few
    c2 (|c2| < 6 sqrt 32)."""
    for d in (1, 2, 3):
        new = _trace_polys_degree(d, q)
        assert _ordered(new), (d, q)
        if (d, q) != (3, 32):
            assert _same(new, old_trace_polys_degree(d, q)), (d, q)
    assert len(new) == {2: 185, 3: 621, 4: 1399, 9: 16391, 32: 746141}[q]
    if q == 32:
        for c2 in (-33, -20, -7, 0, 12, 29):
            assert _same([p for p in new if p[2] == c2], _trace_cubics(q, top=c2)), c2


def test_quartic_scan_matches_generic_search():
    """d = 4 at q = 2 for a few c3 (|c3| < 8 sqrt 2); the generic search
    takes about 18 s over the whole box."""
    new = _trace_polys_degree(4, 2)
    assert _ordered(new) and len(new) == 1431
    for c3 in (-9, -6, -3, 5):
        assert _same([p for p in new if p[3] == c3], _trace_generic(4, 2, top=c3)), c3


def test_scan_degree_range():
    for d in (0, 5):
        with pytest.raises(ValueError):
            _trace_polys_degree(d, 2)


# -- window membership against the root test --------------------------------


def _scaled_derivative(poly, k):
    """poly^(k) / k!, by differentiation."""
    for _ in range(k):
        poly = poly.derivative()
    return IntPolynomial(tuple(c // factorial(k) for c in poly.coeffs))


def scan_contains(poly, q):
    """Does the scan emit this monic poly?  The scan reaches a prefix only
    when each of its coefficients lay in its level's window, so it emits Q
    exactly when, for l = 1..d, the constant term of
    P_l = Q^(d-l) / (d-l)! lies in the window of P_l minus that term."""
    for k in range(poly.degree - 1, -1, -1):
        p = _scaled_derivative(poly, k)
        if p[0] not in _window(p - p[0], q):
            return False
    return True


def _random_outputs(rng, d, q, count):
    """Scan outputs reached by random descents through the windows."""
    out = []
    while len(out) < count:
        poly = IntPolynomial((0,) * d + (1,))
        for k in range(d - 1, -1, -1):
            window = _window(_scaled_derivative(poly, k), q)
            if not window:
                break
            poly = poly + IntPolynomial((0,) * k + (rng.choice(window),))
        else:
            out.append(poly)
    return out


def _near(poly):
    """poly with one non-leading coefficient moved by +-1 or +-2."""
    for i in range(poly.degree):
        for step in (-2, -1, 1, 2):
            yield poly + IntPolynomial((0,) * i + (step,))


def _linear_products(d, q):
    """Every monic product of d integer linear factors whose roots lie in
    [-2 sqrt q - 1, 2 sqrt q + 1], repeated roots included."""
    m = isqrt(4 * q) + 1
    for roots in itertools.combinations_with_replacement(range(-m, m + 1), d):
        poly = IntPolynomial((1,))
        for r in roots:
            poly = poly * IntPolynomial((-r, 1))
        yield poly


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_window_membership_matches_root_test(q):
    """A polynomial is in the scan exactly when it is squarefree with every
    root in (-2 sqrt q, 2 sqrt q).  Where the whole scan is cheap (d <= 3,
    and d = 4 for q <= 3) membership is read from its output as well."""
    rng = random.Random(1800 + q)
    bad, inside, total = [], 0, 0
    for d in (1, 2, 3, 4):
        full = None
        if d < 4 or q <= 3:
            full = {p.coeffs for p in _trace_polys_degree(d, q)}
        candidates = list(_linear_products(d, q))
        for poly in _random_outputs(rng, d, q, 12 * d):
            candidates.append(poly)
            candidates.extend(_near(poly))
        for poly in candidates:
            want = is_squarefree(poly) and all_roots_in_open_surd_interval(poly, 2, q)
            got = scan_contains(poly, q)
            if got != want or (full is not None and (poly.coeffs in full) != want):
                bad.append((d, poly, want, got))
            inside += want
            total += 1
    assert bad == [], bad[:5]
    # both answers occur often, so neither side of a window goes untested
    assert 0.2 * total < inside < 0.8 * total, (inside, total)
