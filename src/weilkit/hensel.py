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

from functools import lru_cache

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
    t = _xgcd_poly(tuple(g), tuple(gp.gf_normal(h0, p)), p)
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


@lru_cache(maxsize=256)
def _xgcd_poly(a, b, p):
    """t with s*a + t*b = 1 mod p for tuples a, b, or ValueError when they are
    not coprime.  Memoized: `lift_factorization`'s coprimality test computes
    the t that `lift_pair` reads, and the Newton route has few such pairs."""
    r0, r1 = a, b
    t0, t1 = [], [1]
    while r1:
        q, r = gp.gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, gp.gf_sub(t0, gp.gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("factors not coprime mod p")
    inv = pow(r0[0], -1, p)
    return tuple(c * inv % p for c in t0)


def lift_factorization(f, parts, p, k):
    """Lift f = prod(parts) (mod p) with pairwise coprime monic parts.

    Returns the list of monic lifts mod p^k, in the order given.  f must be
    monic with integer coefficients.  The parts are pairwise coprime exactly
    when each is coprime to the product of the later ones, the cofactor its
    lifting step splits off, so that step's Bezout t decides it: parts
    that are not coprime mod p raise ValueError.
    """
    q = p ** k
    norm = [tuple(gp.gf_normal(pt, p)) for pt in parts]
    cofactors = [(1,)]  # cofactors[i] = prod(norm[i:]) mod p
    for pt in reversed(norm):
        cofactors.insert(0, tuple(gp.gf_mul(pt, cofactors[0], p)))
    steps = list(zip(norm, cofactors[1:]))[:-1]
    for g0, h0 in steps:
        _xgcd_poly(g0, h0, p)
    if list(cofactors[0]) != gp.gf_normal(f, p):
        raise ValueError("parts do not multiply to f mod p")
    out = []
    for g0, h0 in steps:
        g, f = lift_pair(f, g0, h0, p, k)
        out.append(g)
    out.append(gp.gf_normal(f, q))
    return out
