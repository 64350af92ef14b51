"""Independent mathematics for the benchmark's output checks.

Nothing here imports weilkit: every check that the benchmark makes on a
weilkit result is computed again from first principles, with plain Python
integers and Fractions (and sympy for irreducibility over Q), so a fault
in the timed code cannot also hide in its own check.

Polynomials are lists of integers, constant term first, as on weilkit's
wire format.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, gcd, isqrt


# -- polynomial arithmetic ----------------------------------------------------


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return trim([x - y for x, y in zip(a, b)])


def poly_mod_monic(a, m):
    """Remainder of a (Fraction or int coefficients) modulo the monic m."""
    a = list(a)
    d = len(m) - 1
    while len(a) > d:
        top = a.pop()
        if top:
            for i in range(d):
                a[len(a) - d + i] -= top * m[i]
    return a + [0] * (d - len(a))


def valuation(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power(q):
    """(p, r) with q = p^r, by trial division."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = valuation(q, p)
    if p ** r != q:
        raise ValueError("%d is not a prime power" % q)
    return p, r


# -- the trace polynomial -----------------------------------------------------


def trace_polynomial(coeffs, q):
    """Q with P(x) = x^d Q(x + q/x) for a monic P of degree 2d, found by
    peeling the leading term against x^(d-j) (x^2 + q)^j; None when no such
    Q exists, i.e. when P fails the functional equation."""
    rest = trim(coeffs)
    n = len(rest) - 1
    if n % 2 or rest[-1] != 1:
        return None
    d = n // 2
    out = [0] * (d + 1)
    for j in range(d, -1, -1):
        c = rest[d + j] if d + j < len(rest) else 0
        out[j] = c
        if c:
            term = [0] * (d - j) + [c]
            for _ in range(j):
                term = poly_mul(term, [q, 0, 1])
            rest = poly_sub(rest, term)
    return out if not rest else None


def functional_equation_holds(coeffs, q):
    """a_(d-k) = q^k a_(d+k) for a monic polynomial of even degree 2d."""
    n = len(coeffs) - 1
    if n % 2 or coeffs[-1] != 1:
        return False
    d = n // 2
    return all(coeffs[d - k] == q ** k * coeffs[d + k] for k in range(1, d + 1))


# -- real roots inside (-2 sqrt q, 2 sqrt q) ----------------------------------


def _frac_rem(a, b):
    a = [Fraction(c) for c in a]
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
        a = trim(a)
    return a


def sturm_sequence(a):
    deriv = [i * c for i, c in enumerate(a)][1:]
    seq = [[Fraction(c) for c in a], [Fraction(c) for c in deriv]]
    while True:
        r = _frac_rem(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append([-c for c in r])


def _sign_at_two_root_q(a, q, sign):
    """Exact sign of a(sign * 2 sqrt q) for rational coefficients."""
    rational = Fraction(0)
    surd = Fraction(0)  # coefficient of sqrt q
    for k, c in enumerate(a):
        term = c * (sign * 2) ** k * Fraction(q) ** (k // 2)
        if k % 2:
            surd += term
        else:
            rational += term
    root = isqrt(q)
    if root * root == q:
        value = rational + surd * root
        return (value > 0) - (value < 0)
    # sign of rational + surd * sqrt(q), q not a square
    if rational >= 0 and surd >= 0:
        return 1 if rational or surd else 0
    if rational <= 0 and surd <= 0:
        return -1
    diff = rational * rational - surd * surd * q
    if rational > 0:
        return (diff > 0) - (diff < 0)
    return (diff < 0) - (diff > 0)


def _variations(signs):
    signs = [s for s in signs if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def all_roots_in_window(a, q):
    """Does the integer polynomial a have deg(a) distinct real roots, all in
    the open interval (-2 sqrt q, 2 sqrt q)?  Sturm's theorem with exact
    sign evaluation at the irrational endpoints."""
    a = trim(a)
    deg = len(a) - 1
    if deg < 1:
        return False
    if _sign_at_two_root_q(a, q, 1) == 0 or _sign_at_two_root_q(a, q, -1) == 0:
        return False
    seq = sturm_sequence(a)
    left = _variations([_sign_at_two_root_q(s, q, -1) for s in seq])
    right = _variations([_sign_at_two_root_q(s, q, 1) for s in seq])
    return left - right == deg


def is_irreducible_over_q(coeffs):
    """Irreducibility over Q by sympy's factorizer, apart from weilkit."""
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x, domain="ZZ").is_irreducible


# -- the coefficient-scan enumeration oracle ----------------------------------


def _coefficient_bound(d, k, q):
    c = comb(d, k) * 2 ** k
    if k % 2 == 0:
        return c * q ** (k // 2)
    root = isqrt(q ** k)
    if root * root < q ** k:
        root += 1
    return c * root


def scan_candidates(q, max_degree):
    """Number of polynomials the coefficient scan visits for one cell."""
    total = 0
    for deg in range(2, max_degree + 1, 2):
        n = 1
        for i in range(deg // 2, deg):
            n *= 2 * _coefficient_bound(deg, deg - i, q) + 1
        total += n
    return total


@functools.lru_cache(maxsize=None)
def scan_weil_classes(q, max_degree):
    """All Weil classes of degree <= max_degree over F_q by brute force:
    every monic polynomial satisfying the functional equation inside the
    binomial coefficient box, kept when its trace polynomial has its roots
    inside the window and sympy finds it irreducible; plus x -+ sqrt q for
    even r (criterion 8's oracle, extended to every degree bound)."""
    p, r = prime_power(q)
    found = set()
    if r % 2 == 0:
        m = p ** (r // 2)
        found.update({(-m, 1), (m, 1)})
    for deg in range(2, max_degree + 1, 2):
        d = deg // 2
        # free coefficients a_d .. a_(deg-1); the rest follow from the
        # functional equation a_(d-k) = q^k a_(d+k)
        ranges = [
            range(-_coefficient_bound(deg, deg - i, q), _coefficient_bound(deg, deg - i, q) + 1)
            for i in range(d, deg)
        ]
        for free in itertools.product(*ranges):
            coeffs = [0] * d + list(free) + [1]
            for k in range(1, d + 1):
                coeffs[d - k] = q ** k * coeffs[d + k]
            tp = trace_polynomial(coeffs, q)
            if tp is None or not all_roots_in_window(tp, q):
                continue
            if is_irreducible_over_q(coeffs):
                found.add(tuple(coeffs))
    return frozenset(found)


# -- Honda-Tate facts checked by closed forms ---------------------------------


def squarefree_part(n):
    """Signed squarefree part of a nonzero integer."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def splits_in_quadratic_field(disc, p):
    """Does p split in Q(sqrt disc)?  Decided by the Kronecker symbol of the
    field discriminant."""
    d0 = squarefree_part(disc)
    field_disc = d0 if d0 % 4 == 1 else 4 * d0
    if field_disc % p == 0:
        return False
    if p == 2:
        return field_disc % 8 == 1
    return pow(field_disc % p, (p - 1) // 2, p) == 1


def waterhouse_index(a, q):
    """Index s of the class x^2 - a x + q (Waterhouse 1969): with v = v_p(a),
    s = r / gcd(r, v) when 2v < r; otherwise s = 2 when p splits in Q(pi)
    and s = 1 when it does not."""
    p, r = prime_power(q)
    if a != 0 and 2 * valuation(a, p) < r:
        v = valuation(a, p)
        return r // gcd(r, v)
    return 2 if splits_in_quadratic_field(a * a - 4 * q, p) else 1


# -- exact linear algebra -----------------------------------------------------


def fraction_det(rows):
    m = [[Fraction(c) for c in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def solve_rows(rows, target):
    """Coefficients c with sum c_i rows[i] = target over Q, or None."""
    n = len(rows)
    width = len(target)
    # columns of the system: unknown i contributes rows[i]
    aug = [
        [Fraction(rows[i][j]) for i in range(n)] + [Fraction(target[j])]
        for j in range(width)
    ]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, width) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(width):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(aug[i][n] for i in range(r, width)):
        return None
    out = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        out[col] = aug[i][n]
    return out


def howell_form(rows, p, k):
    """Canonical generating set of the Z/p^k-submodule spanned by rows:
    echelon rows with pivots p^a, entries above each pivot reduced, closed
    under multiplication by p^(k - a) (the Howell property), so two spans
    are equal exactly when their forms are equal."""
    mod = p ** k
    width = len(rows[0]) if rows else 0
    work = [[c % mod for c in row] for row in rows]
    while True:
        ech = []
        pending = [row for row in work if any(row)]
        for col in range(width):
            best = None
            for idx, row in enumerate(pending):
                if row[col]:
                    v = valuation(row[col], p)
                    if best is None or v < best[0]:
                        best = (v, idx)
            if best is None:
                continue
            v, idx = best
            row = pending.pop(idx)
            unit = row[col] // p ** v
            inv = pow(unit, -1, mod)
            row = [(c * inv) % mod for c in row]
            rest = []
            for other in pending:
                f = other[col] // p ** v
                other = [(x - f * y) % mod for x, y in zip(other, row)]
                if any(other):
                    rest.append(other)
            pending = rest
            ech.append((col, v, row))
        # reduce entries above pivots
        for i, (col, v, row) in enumerate(ech):
            for j in range(i):
                pcol, pv, prow = ech[j]
                f = prow[col] // p ** v
                if f:
                    prow = [(x - f * y) % mod for x, y in zip(prow, row)]
                    ech[j] = (pcol, pv, prow)
        extra = []
        for col, v, row in ech:
            if v:
                shifted = [(c * p ** (k - v)) % mod for c in row]
                if any(shifted):
                    extra.append(shifted)
        rows_now = [row for _c, _v, row in ech]
        if not extra or all(_reduces_to_zero(e, ech, p, mod) for e in extra):
            return tuple(tuple(r) for r in rows_now)
        work = rows_now + extra


def _reduces_to_zero(vec, ech, p, mod):
    vec = list(vec)
    for col, v, row in ech:
        c = vec[col]
        if c % p ** v:
            return False
        f = c // p ** v
        vec = [(x - f * y) % mod for x, y in zip(vec, row)]
    return not any(vec)
