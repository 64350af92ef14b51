"""Quadratic Hensel lifting against the linear lifter it replaced.

`linear_lift_pair` is the earlier `hensel.lift_pair`, kept verbatim: it
gains one p-digit per round.  A monic coprime lift mod p^k is unique, so the
quadratic lifter must give the same factors on every input.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from weilkit import gfpoly as gp
from weilkit import hensel
from weilkit.hensel import lift_factorization, lift_pair


def linear_lift_pair(f, g0, h0, p, k):
    """Lift f = g0*h0 (mod p), gcd(g0, h0) = 1, to f = g*h (mod p^k).

    f, g0, h0 monic; returns (g, h) monic with g = g0, h = h0 (mod p).
    """
    g0 = gp.gf_normal(list(g0), p)
    h0 = gp.gf_normal(list(h0), p)
    if len(gp.gf_gcd(g0, h0, p)) - 1 != 0:
        raise ValueError("factors not coprime mod p")
    # Bezout: s*g0 + t*h0 = 1 mod p
    s, t = xgcd_poly(g0, h0, p)
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


def xgcd_poly(a, b, p):
    """s, t with s*a + t*b = 1 mod p for coprime a, b: the extended gcd the
    linear lifter needs both cofactors of."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gp.gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gp.gf_sub(s0, gp.gf_mul(q, s1, p), p)
        t0, t1 = t1, gp.gf_sub(t0, gp.gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("factors not coprime mod p")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _add_keep_monic(a, d, m, deg):
    n = max(len(a), len(d), deg + 1)
    out = [((a[i] if i < len(a) else 0) + (d[i] if i < len(d) else 0)) % m for i in range(n)]
    out = out[: deg + 1]
    out[deg] = 1
    return out


def linear_lift_factorization(f, parts, p, k, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(hensel, "lift_pair", linear_lift_pair)
        return lift_factorization(f, parts, p, k)


# powers of two and their neighbours 2^j +- 1, up to 64, plus a few others
PRECISIONS = sorted(
    {1, 5, 6, 10, 23, 26, 40, 50}
    | {2 ** j + d for j in range(7) for d in (-1, 0, 1) if 1 <= 2 ** j + d <= 64}
)


def _coprime_factors(rng, p, k, count):
    """`count` monic integer polynomials with coefficients in [0, p^k), of
    degrees 1-6, pairwise coprime mod p."""
    q = p ** k
    while True:
        factors = [
            [rng.randrange(q) for _ in range(rng.randint(1, 6))] + [1] for _ in range(count)
        ]
        residues = [gp.gf_normal(g, p) for g in factors]
        if all(
            len(gp.gf_gcd(residues[i], residues[j], p)) == 1
            for i in range(count)
            for j in range(i + 1, count)
        ):
            return factors


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_lift_matches_linear_oracle(p, monkeypatch):
    rng = random.Random(1400 + p)
    for k in PRECISIONS:
        q = p ** k
        for count in (2, 3):
            factors = _coprime_factors(rng, p, k, count)
            f = [1]
            for g in factors:
                f = gp.gf_mul(f, g, q)
            parts = [gp.gf_normal(g, p) for g in factors]
            new = lift_factorization(f, parts, p, k)
            old = linear_lift_factorization(f, parts, p, k, monkeypatch)
            assert len(new) == len(old) == count
            for i, (got, want, exact) in enumerate(zip(new, old, factors)):
                assert got == want, (p, k, count, i)
                # the lift is unique, so it is the factor f was built from
                assert got == gp.gf_normal(exact, q), (p, k, count, i)
            if count == 2:
                assert lift_pair(f, *parts, p, k) == linear_lift_pair(f, *parts, p, k)


# (f, parts, p, k) as the Newton route's refinement round asks for them on
# classes of the invariants benchmark cells (q = 2 up to degree 6, q = 3, 4
# and 9 up to degree 4)
REFINEMENT_LIFTS = (
    ((4, 0, 1, 0, 1), ((0, 0, 1), (1, 0, 1)), 2, 16),
    ((8, 0, 2097150, 2, 2097151, 0, 1), ((0, 0, 0, 0, 1), (1, 0, 1)), 2, 21),
    ((1388126, 6520397, 653336, 1), ((0, 1), (1, 0, 1)), 2, 23),
    ((16, 67108848, 9, 67108860, 1), ((0, 0, 1), (1, 0, 1)), 2, 26),
    ((9, 3, 1, 1, 1), ((0, 0, 1), (1, 1, 1)), 3, 16),
    ((263819337, 68445993541, 79993009190, 1), ((0, 1), (1, 2, 1)), 3, 23),
    ((81, 2541865828257, 31, 2541865828321, 1), ((0, 0, 1), (1, 1, 1)), 3, 26),
)


@pytest.mark.parametrize("f, parts, p, k", REFINEMENT_LIFTS)
def test_refinement_lifts_match_linear_oracle(f, parts, p, k, monkeypatch):
    f, parts = list(f), [list(pt) for pt in parts]
    new = lift_factorization(f, parts, p, k)
    old = linear_lift_factorization(f, parts, p, k, monkeypatch)
    assert len(new) == len(old) == len(parts)
    for got, want in zip(new, old):
        assert got == want


def test_lift_checks_survive_optimized_mode():
    """A lift that does not multiply back to f is refused under python -O
    too: a wrong Bezout cofactor leaves the factors unlifted."""
    script = (
        "from weilkit import hensel\n"
        "hensel._xgcd_poly = lambda a, b, p: []\n"
        "try:\n"
        "    hensel.lift_factorization([-1, 0, 1], [[6, 1], [1, 1]], 7, 2)\n"
        "except AssertionError as e:\n"
        "    print('%s: %s' % (type(e).__name__, e))\n"
        "else:\n"
        "    print('returned')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "VerificationError: Hensel lift does not divide f\n", flags
