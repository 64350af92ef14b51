"""The table ring over Z/p^k against independent computations in F_p[x].

For A = Z[x]/(f) on the power basis, A/pA = F_p[x]/(f mod p) is the product
of the F_p[x]/(g^m) over the factorization f = prod g^m mod p.  So its
primitive idempotents are one per distinct g (1 mod g^m, 0 mod the other
prime powers), its nilradical has dimension deg f - sum deg g, and x + c is
a unit exactly when f(-c) != 0 mod p.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilkit import gfpoly as gp
from weilkit.tablering import (
    TableRing,
    lift_idempotent,
    radical,
    split_idempotents,
    table_product,
)

# monic, constant term first
POLYS = (
    [1, 0, 1],  # x^2 + 1: split at 5, inert at 3 and 7, (x + 1)^2 at 2
    [-2, 0, 0, 1],  # x^3 - 2
    [1, 1, 0, 0, 1],  # x^4 + x + 1
    [9, 0, 3, 0, 1],  # x^4 + 3x^2 + 9, a Weil polynomial for q = 3
    [-2, 5, -3, -1, 1],  # (x - 1)^3 (x + 2)
    [3, 1, 6, 2, 3, 1],  # (x^2 + 1)^2 (x + 3)
    [-1, 0, 0, 0, 0, 0, 1],  # x^6 - 1
)
PRIMES = (2, 3, 5, 7)


def power_basis_table(f):
    """table[i][j] = coefficients of x^(i + j) mod f."""
    d = len(f) - 1
    powers = [[int(i == j) for j in range(d)] for i in range(d)]
    cur = powers[-1]
    for _ in range(d - 1):
        top = cur[-1]
        cur = [0] + cur[:-1]
        cur = [c - top * fc for c, fc in zip(cur, f)]
        powers.append(cur)
    return [[powers[i + j] for j in range(d)] for i in range(d)]


def ring_of(f, p, k=1):
    return TableRing(power_basis_table(f), [1] + [0] * (len(f) - 2), p, k)


def cases():
    return [(f, p) for f in POLYS for p in PRIMES]


def test_table_product_is_polynomial_multiplication():
    f = POLYS[5]
    table = power_basis_table(f)
    u, v = [2, -1, 0, 3, 0], [0, 5, 1, 0, -2]
    full = [0] * 9
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            full[i + j] += x * y
    # reduce the degree-8 product mod f over Z
    for top in range(8, 4, -1):
        c = full[top]
        for i in range(6):
            full[top - 5 + i] -= c * f[i]
    assert table_product(table, u, v) == full[:5]


@pytest.mark.parametrize("f,p", cases())
def test_idempotents_match_factorization(f, p):
    ring = ring_of(f, p)
    _, factors = gp.factor(f, p)
    idems = split_idempotents(ring)
    assert len(idems) == len(factors)
    # each idempotent is 1 mod exactly one g^m and 0 mod the others
    blocks = []
    for g, m in factors:
        gm = [1]
        for _ in range(m):
            gm = gp.gf_mul(gm, list(g), p)
        blocks.append(gm)
    hits = []
    for e in idems:
        residues = [gp.gf_mod(gp.gf_normal(list(e), p), gm, p) for gm in blocks]
        assert all(r in ([], [1]) for r in residues)
        assert residues.count([1]) == 1
        hits.append(residues.index([1]))
    assert sorted(hits) == list(range(len(factors)))


@pytest.mark.parametrize("f,p", cases())
def test_radical_dimension(f, p):
    _, factors = gp.factor(f, p)
    ring = ring_of(f, p)
    rad = radical(ring)
    assert len(rad) == (len(f) - 1) - sum(len(g) - 1 for g, _ in factors)
    for u in rad:
        assert not any(ring.power(u, len(f) - 1))


@pytest.mark.parametrize("f,p", cases())
def test_idempotents_orthogonal_complete_and_lift(f, p):
    ring = ring_of(f, p)
    idems = split_idempotents(ring)
    zero = (0,) * ring.d
    total = zero
    for i, e in enumerate(idems):
        assert ring.mul(e, e) == e
        for e2 in idems[i + 1:]:
            assert ring.mul(e, e2) == zero
        total = ring.add(total, e)
    assert total == ring.one
    for k in (2, 5):
        ring_k = ring_of(f, p, k)
        lifts = [lift_idempotent(ring_k, e) for e in idems]
        total = zero
        for e, lift in zip(idems, lifts):
            assert ring_k.mul(lift, lift) == lift
            assert tuple(c % p for c in lift) == e
            total = ring_k.add(total, lift)
        assert total == ring_k.one


@pytest.mark.parametrize("f,p", cases())
def test_inverse_of_units(f, p):
    ring = ring_of(f, p, 4)
    for c in range(p):
        u = ring.add(ring.scal(c, ring.one), ring.basis(1))  # x + c
        if sum(a * (-c) ** i for i, a in enumerate(f)) % p:  # f(-c) mod p
            assert ring.mul(u, ring.inv(u)) == ring.one
        else:
            with pytest.raises(ZeroDivisionError):
                ring.inv(u)


def test_lift_idempotent_refuses_non_idempotent_under_O():
    # 3 = 1/2 mod 5 is a fixed point of e -> 3e^2 - 2e^3 but not idempotent
    script = (
        "from weilkit.tablering import TableRing, lift_idempotent\n"
        "try:\n"
        "    lift_idempotent(TableRing([[[1]]], [1], 5), (3,))\n"
        "except Exception as e:\n"
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
        assert done.stdout == "VerificationError: idempotent lifting failed\n", flags
