"""Hensel lifting of coprime factorizations from mod p to mod p^k.

All polynomials here are integer coefficient lists, constant term first,
with monic inputs.  Lifting is quadratic: each round squares the modulus,
so p^k takes about log2 k rounds, and every lift is checked: f = g h mod
p^k, by a division that leaves no remainder.  A monic coprime lift is
unique, so the result is the one a linear (one p-digit per round) lifter
gives.  Arithmetic mod p^k is
gfpoly's, which holds for any modulus when divisors are monic.
"""

from __future__ import annotations

from . import gfpoly as gp
from .checks import verify


def lift_pair(f, g0, h0, p, k):
    """Lift f = g0*h0 (mod p), gcd(g0, h0) = 1, to f = g*h (mod p^k).

    f, g0, h0 monic; returns (g, h) monic with g = g0, h = h0 (mod p).
    Each round squares the modulus m, capped at p^k (von zur Gathen-Gerhard,
    Modern Computer Algebra, 15.4): dividing f by g gives f = g h + e with
    e = 0 (mod m), and g gains t e mod g, where t is the inverse of h mod g,
    carried to precision m by one Newton step t <- t (2 - t h) mod g (the
    Bezout t is exact mod p in the first round).  The last division is the
    check: it must leave no remainder mod p^k.
    """
    g = gp.gf_normal(g0, p)
    t = _xgcd_poly(g, gp.gf_normal(h0, p), p)
    q = p ** k
    m = p
    while m < q:
        big = min(m * m, q)
        h, e = gp.gf_divmod(f, g, big)
        if m > p:
            th = gp.gf_mod(gp.gf_mul(t, h, m), g, m)
            t = gp.gf_mod(gp.gf_mul(t, gp.gf_sub([2], th, m), m), g, m)
        g = gp.gf_add(g, gp.gf_mod(gp.gf_mul(t, e, big), g, big), big)
        m = big
    h, e = gp.gf_divmod(f, g, q)
    verify(not e, "Hensel lift does not divide f")
    return g, h


def _xgcd_poly(a, b, p):
    """t with s*a + t*b = 1 mod p for coprime a, b (the cofactor s is not
    built)."""
    r0, r1 = list(a), list(b)
    t0, t1 = [], [1]
    while r1:
        q, r = gp.gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, gp.gf_sub(t0, gp.gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("factors not coprime mod p")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in t0]


def lift_factorization(f, parts, p, k):
    """Lift f = prod(parts) (mod p) with pairwise coprime monic parts.

    Returns the list of monic lifts mod p^k, in the order given.  f must be
    monic with integer coefficients.
    """
    q = p ** k
    coprime = True
    norm_parts = [gp.gf_normal(list(pt), p) for pt in parts]
    for i in range(len(norm_parts)):
        for j in range(i + 1, len(norm_parts)):
            if len(gp.gf_gcd(norm_parts[i], norm_parts[j], p)) - 1 != 0:
                coprime = False
    if not coprime:
        # accept parts given at full precision that multiply back exactly
        prod_k = [1]
        for pt in parts:
            prod_k = gp.gf_mul(pt, prod_k, q)
        if prod_k == gp.gf_normal(f, q):
            return [gp.gf_normal(pt, q) for pt in parts]
        raise ValueError("factors not coprime mod p")
    parts = norm_parts
    prod = [1]
    for pt in parts:
        prod = gp.gf_mul(prod, pt, p)
    if prod != gp.gf_normal(list(f), p):
        raise ValueError("parts do not multiply to f mod p")
    if len(parts) == 1:
        return [gp.gf_normal(f, q)]
    out = []
    rest_f = list(f)
    rest_parts = list(parts)
    while len(rest_parts) > 1:
        g0 = rest_parts[0]
        h0 = [1]
        for pt in rest_parts[1:]:
            h0 = gp.gf_mul(h0, pt, p)
        g, h = lift_pair(rest_f, g0, h0, p, k)
        out.append(g)
        rest_f = h
        rest_parts = rest_parts[1:]
    out.append(gp.gf_normal(rest_f, q))
    return out
