"""Hensel lifting of coprime factorizations from mod p to mod p^k.

All polynomials here are integer coefficient lists, constant term first,
with monic inputs.  Lifting is linear (one p-digit per round), which is
plenty fast at the precisions this library uses.  Arithmetic mod p^k is
gfpoly's, which holds for any modulus when divisors are monic.
"""

from __future__ import annotations

from . import gfpoly as gp


def lift_pair(f, g0, h0, p, k):
    """Lift f = g0*h0 (mod p), gcd(g0, h0) = 1, to f = g*h (mod p^k).

    f, g0, h0 monic; returns (g, h) monic with g = g0, h = h0 (mod p).
    """
    g0 = gp.gf_normal(list(g0), p)
    h0 = gp.gf_normal(list(h0), p)
    if len(gp.gf_gcd(g0, h0, p)) - 1 != 0:
        raise ValueError("factors not coprime mod p")
    # Bezout: s*g0 + t*h0 = 1 mod p
    s, t = _xgcd_poly(g0, h0, p)
    g, h = list(g0), list(h0)
    modulus = p
    while modulus < p ** k:
        modulus *= p
        e = gp.gf_sub(f, gp.gf_mul(g, h, modulus), modulus)
        # g += e*t mod g ; h += e*s mod h   (all mod modulus)
        dg = gp.gf_mod(gp.gf_mul(e, t, modulus), g, modulus)
        dh = gp.gf_mod(gp.gf_mul(e, s, modulus), h, modulus)
        g = _add_keep_monic(g, dg, modulus, len(g0) - 1)
        h = _add_keep_monic(h, dh, modulus, len(h0) - 1)
    q = p ** k
    return gp.gf_normal(g, q), gp.gf_normal(h, q)


def _add_keep_monic(a, d, m, deg):
    n = max(len(a), len(d), deg + 1)
    out = [((a[i] if i < len(a) else 0) + (d[i] if i < len(d) else 0)) % m for i in range(n)]
    out = out[: deg + 1]
    out[deg] = 1
    return out


def _xgcd_poly(a, b, p):
    """s, t with s*a + t*b = 1 mod p for coprime a, b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gp.gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gp.gf_sub(s0, gp.gf_mul(q, s1, p), p)
        t0, t1 = t1, gp.gf_sub(t0, gp.gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("inputs not coprime")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


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
