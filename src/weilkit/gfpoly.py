"""Polynomial arithmetic and factorization over the prime fields F_p.

Polynomials over F_p are plain lists of ints in [0, p), constant term
first, normalized so the last entry is nonzero ([] is zero).  Factorization
runs squarefree / distinct-degree / equal-degree splitting; the equal-degree
step draws its splitting candidates from a fixed deterministic sequence so
repeated runs factor identically, and `factor` memoizes its monic inputs.

`gf_normal`, `gf_add`, `gf_sub`, `gf_mul` and `gf_divmod`/`gf_mod` hold for
any modulus m, prime or not, when the divisor's leading coefficient is a
unit mod m (a monic divisor, say): Hensel lifting runs them mod p^k.  The
gcd, irreducibility and factorization routines need m prime.
"""

from __future__ import annotations

from functools import lru_cache

from .checks import VerificationError


def gf_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_normal(a, p):
    return gf_trim([c % p for c in a])


def gf_add(a, b, p):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        out.append(x % p)
    return gf_trim(out)


def gf_sub(a, b, p):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
        out.append(x % p)
    return gf_trim(out)


def gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return gf_trim([c % p for c in out])


def gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(a) - 1 - db, -1, -1):
        # b[-1] * inv = 1, so the top coefficient cancels: pop it
        c = a.pop() * inv % p
        if c:
            q[shift] = c
            for i in range(db):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
    return gf_trim(q), gf_trim(a)


def gf_mod(a, b, p):
    return gf_divmod(a, b, p)[1]


def gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, gf_mod(a, b, p)
    return gf_monic(a, p)


def gf_monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def gf_pow_mod(a, n, mod, p):
    result = [1]
    base = gf_mod(a, mod, p)
    while n:
        if n & 1:
            result = gf_mod(gf_mul(result, base, p), mod, p)
        n >>= 1
        if n:
            base = gf_mod(gf_mul(base, base, p), mod, p)
    return result


def gf_deriv(a, p):
    return gf_trim([(i * c) % p for i, c in enumerate(a) if i > 0])


def gf_pth_root(a, p):
    """p-th root of a polynomial in x^p; scalars are Frobenius-fixed in F_p."""
    return gf_trim([a[i] for i in range(0, len(a), p)])


def is_irreducible(a, p):
    """Irreducibility over F_p: a squarefree a whose distinct-degree split
    is one block of full degree."""
    return degree_pattern(a, p) == [len(a) - 1]


def lexicographically_smallest_irreducible(p, n):
    """Smallest monic irreducible of degree n over F_p, coefficient vectors
    (constant first) ordered lexicographically."""
    if n == 1:
        return [0, 1]
    # iterate constant-first coefficient tuples
    total = p ** n
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % p)
            c //= p
        poly = coeffs + [1]
        if poly[0] == 0:
            continue
        if is_irreducible(poly, p):
            return poly
    raise VerificationError("no irreducible of degree %d over F_%d" % (n, p))


# -- factorization -------------------------------------------------------


def squarefree_decomposition(a, p):
    """Yield (factor, multiplicity) with factor squarefree, product = a (monic)."""
    a = gf_monic(a, p)
    out = []

    def rec(f, mult):
        if len(f) - 1 <= 0:
            return
        g = gf_gcd(f, gf_deriv(f, p), p)
        if len(g) == 1:
            # gcd(f, f') = 1: f is squarefree, the common case
            out.append((f, mult))
            return
        w = gf_divmod(f, g, p)[0]  # product of factors with multiplicity not divisible by p
        i = 1
        while len(w) - 1 > 0:
            y = gf_gcd(w, g, p)
            z = gf_divmod(w, y, p)[0]
            if len(z) - 1 > 0:
                out.append((gf_monic(z, p), mult * i))
            w = y
            g = gf_divmod(g, y, p)[0]
            i += 1
        if len(g) - 1 > 0:
            # what is left is a perfect p-th power
            rec(gf_pth_root(g, p), mult * p)

    rec(a, 1)
    return out


def distinct_degree_split(a, p):
    """For squarefree monic a: list of (product_of_factors_of_degree_d, d)."""
    out = []
    f = list(a)
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, f, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), f, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            f = gf_divmod(f, g, p)[0]
            h = gf_mod(h, f, p)
    if len(f) - 1 > 0:
        out.append((gf_monic(f, p), len(f) - 1))
    return out


def degree_pattern(a, p):
    """Degrees (with multiplicity) of the irreducible factors mod p of a
    squarefree-mod-p polynomial, via distinct-degree splitting only; None
    when the reduction is not squarefree."""
    f = gf_monic(a, p)
    if len(gf_gcd(f, gf_deriv(f, p), p)) - 1 != 0:
        return None
    return [
        d for block, d in distinct_degree_split(f, p)
        for _ in range((len(block) - 1) // d)
    ]


def _candidate_sequence(p, degree_bound):
    """Deterministic sequence of nonconstant polynomials used for splitting."""
    code = p  # skip the constants
    while True:
        coeffs = []
        c = code
        while c:
            coeffs.append(c % p)
            c //= p
        if len(coeffs) - 1 <= degree_bound and len(coeffs) >= 2:
            yield coeffs
        code += 1


def equal_degree_split(a, d, p):
    """Split squarefree monic a whose irreducible factors all have degree d."""
    n = len(a) - 1
    if n == d:
        return [gf_monic(a, p)]
    for cand in _candidate_sequence(p, n - 1):
        if p == 2:
            # trace map sum_{i<d} cand^(2^i)
            t = list(cand)
            acc = list(cand)
            for _ in range(d - 1):
                t = gf_mod(gf_mul(t, t, p), a, p)
                acc = gf_add(acc, t, p)
            g = gf_gcd(acc, a, p)
        else:
            e = (p ** d - 1) // 2
            t = gf_pow_mod(cand, e, a, p)
            g = gf_gcd(gf_sub(t, [1], p), a, p)
        if 0 < len(g) - 1 < n:
            left = equal_degree_split(g, d, p)
            right = equal_degree_split(gf_divmod(a, g, p)[0], d, p)
            return left + right
    raise VerificationError("splitting sequence exhausted")


def factor(a, p):
    """Full factorization over F_p: returns (lc, [(monic_irreducible, mult)]).

    Factors are sorted by (degree, coefficient tuple) for determinism.  The
    factorization of the monic input is memoized: the same residual
    polynomials recur across Newton polygons, so most calls are lookups.
    The cache holds immutable tuples and each call gets a fresh list.
    """
    if not a:
        raise ValueError("zero polynomial")
    return a[-1] % p, list(_factor_monic(tuple(gf_monic(a, p)), p))


@lru_cache(maxsize=1024)
def _factor_monic(a, p):
    """The factors of a monic tuple, as a tuple in `factor`'s order."""
    if len(a) == 2:
        return ((a, 1),)
    found = []
    for sq, mult in squarefree_decomposition(a, p):
        for block, d in distinct_degree_split(sq, p):
            for irr in equal_degree_split(block, d, p):
                found.append((tuple(irr), mult))
    found.sort(key=lambda t: (len(t[0]), t[0]))
    return tuple(found)
