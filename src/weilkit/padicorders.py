"""Place data via p-maximal orders.

Fallback route for the classes the one-round Newton-polygon pipeline cannot
finish (its working precision ran out, or a segment is still irregular):
compute a p-maximal order in Q[x]/(P) by the multiplier-ring (round-2)
iteration (Cohen, GTM 138, 6.1), split its reduction mod p into local
components through Frobenius kernels plus idempotent lifting, and read off
(e, f, v(pi)) per component.  Each order is an `intmatrix.IntegerLattice`,
whose multiplication table and coordinates of 1 and x come by exact integer
division; the p-radical and the multiplier ring use `Fraction` arithmetic.
The caller re-verifies the results against the degree and valuation-sum
invariants.  The mod-p and mod-p^N arithmetic runs in
`tablering.TableRing` on the order's integer multiplication table, and every
check raises `VerificationError`, also under `python -O`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .checks import VerificationError, verify
from .intmatrix import (
    IntegerLattice,
    det,
    hermite_rows,
    integer_inverse,
    integer_rows,
    nullspace_mod_p,
    poly_mod,
    rref_mod_p,
)
from .tablering import TableRing, lift_idempotent, radical, split_idempotents

# p_maximal_order gives up after this many rounds.  Each enlargement
# multiplies the index over Z[x] by a power of p, and its square divides
# disc(P), so a class needs at most v_p(disc(P)) / 2 + 1.
MAX_ROUNDS = 64


class _Field:
    """Q[x]/(P) with exact power-basis arithmetic, P monic."""

    def __init__(self, poly):
        self.poly = poly
        self.d = poly.degree
        self.red = {}
        cur = [-c for c in poly.coeffs[:-1]]
        if self.d >= 1:
            self.red[self.d] = list(cur)
        for j in range(self.d + 1, 2 * self.d - 1):
            top = cur[-1]
            cur = [0] + cur[:-1]
            for i in range(self.d):
                cur[i] -= top * poly.coeffs[i]
            self.red[j] = list(cur)

    def mul(self, a, b):
        d = self.d
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = list(prod[:d])
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                rj = self.red[j]
                for i in range(d):
                    out[i] += c * rj[i]
        return out


def _inverse_of_lattice(int_rows, den):
    """Exact inverse of the basis matrix int_rows / den: den X / e, for the
    integer solve X W = e I of W = int_rows."""
    x, e = integer_inverse(int_rows)
    return [[Fraction(den * c, e) for c in row] for row in x]


def _hnf_rational_lattice(rows, d):
    """Canonical (integer rows, denominator) basis of a full-rank lattice
    spanned by Fraction rows."""
    int_rows, den = integer_rows(rows)
    out = [list(r) for r in hermite_rows(int_rows)]
    verify(len(out) == d, "full-rank lattice expected")
    g = den
    for row in out:
        for c in row:
            g = gcd(g, c)
    if g > 1:
        out = [[c // g for c in row] for row in out]
        den //= g
    return out, den


class Order:
    """A full-rank ring lattice in Q[x]/(P): HNF integer rows over a common
    denominator, held as an `IntegerLattice`."""

    def __init__(self, field, int_rows, den):
        self.field = field
        self.lattice = IntegerLattice(int_rows, den)
        self.d = field.d

    @classmethod
    def equation_order(cls, field):
        rows = [[1 if i == j else 0 for j in range(field.d)] for i in range(field.d)]
        return cls(field, rows, 1)

    def basis_fractions(self):
        den = self.lattice.den
        return [[Fraction(c, den) for c in row] for row in self.lattice.rows]

    def multiplication_table(self):
        """table[i][j] = integer coordinates of b_i b_j in the order basis."""
        return self.lattice.closed_table(self.field.poly)

    def one_coords(self):
        out = self.lattice.exact_coords([1] + [0] * (self.d - 1))
        verify(out is not None, "1 outside the order")
        return out

    def x_coords(self):
        out = self.lattice.exact_coords(poly_mod([0, 1], self.field.poly))
        verify(out is not None, "x outside the order")
        return out

    def same_lattice(self, other):
        a, b = self.lattice, other.lattice
        return a.den == b.den and a.rows == b.rows


def p_radical_lattice(order, ring):
    """The p-radical ideal of the order, from its ring mod p: (rows, den)
    sublattice."""
    p = ring.p
    basis = order.basis_fractions()
    d = order.d
    rows = []
    for vec in radical(ring):
        lifted = [Fraction(0)] * d
        for i, c in enumerate(vec):
            if c:
                for j in range(d):
                    lifted[j] += c * basis[i][j]
        rows.append(lifted)
    for brow in basis:
        rows.append([p * c for c in brow])
    return _hnf_rational_lattice(rows, d)


def multiplier_ring(order, ideal_rows, ideal_den, p):
    """(I : I) for an ideal I with pO <= I <= O; contains the order, lies in
    O/p, so the enlargement is a mod-p kernel computation."""
    field = order.field
    d = order.d
    ideal_basis = [[Fraction(c, ideal_den) for c in row] for row in ideal_rows]
    inv_ideal = _inverse_of_lattice(ideal_rows, ideal_den)
    order_basis = order.basis_fractions()
    rows = []
    per_i = []
    for i in range(d):
        mats = []
        for j in range(d):
            prod = field.mul(order_basis[i], ideal_basis[j])
            coords = [
                sum(prod[u] * inv_ideal[u][t] for u in range(d)) for t in range(d)
            ]
            for c in coords:
                verify(c.denominator == 1, "ideal not stable under the order")
            mats.append([int(c) for c in coords])
        per_i.append(mats)
    for j in range(d):
        for t in range(d):
            rows.append([per_i[i][j][t] % p for i in range(d)])
    kernel = nullspace_mod_p(rows, p, d)
    new_rows = [list(b) for b in order.basis_fractions()]
    for vec in kernel:
        y = [Fraction(0)] * d
        for i, c in enumerate(vec):
            if c:
                for u in range(d):
                    y[u] += Fraction(c, p) * order_basis[i][u]
        new_rows.append(y)
    int_rows, den = _hnf_rational_lattice(new_rows, d)
    return Order(field, int_rows, den)


def p_maximal_order(poly, p):
    """A p-maximal order of Q[x]/(poly), by multiplier-ring iteration, with
    its ring mod p, whose radical the last round has computed."""
    order = Order.equation_order(_Field(poly))
    for _ in range(MAX_ROUNDS):
        ring = TableRing(order.multiplication_table(), order.one_coords(), p)
        rad_rows, rad_den = p_radical_lattice(order, ring)
        bigger = multiplier_ring(order, rad_rows, rad_den, p)
        if bigger.same_lattice(order):
            return order, ring
        order = bigger
    raise VerificationError("p-maximalization did not stabilize")


# -- assembling place data ---------------------------------------------------


def _component_valuation(ring, x_coords, e, dim_local):
    """v_p(pi) at the component of the idempotent e of O/pO: from the
    determinant of multiplication by x e + (1 - e) on the order mod p^N."""
    e = lift_idempotent(ring, e)
    target = ring.add(ring.mul(x_coords, e), ring.sub(ring.one, e))
    determinant = det([ring.mul(target, ring.basis(i)) for i in range(ring.d)])
    verify(determinant != 0, "determinant vanished at working precision")
    v = 0
    while determinant % ring.p == 0:
        determinant //= ring.p
        v += 1
    verify(v < ring.k - 1, "valuation at precision limit")
    return Fraction(v, dim_local)


def places_from_order(poly, p, r):
    """(e, f, v(pi)) triples for all places above p of Q[x]/(poly); exact and
    independent of the Newton-polygon pipeline.

    The component eO/peO of a primitive idempotent e has dimension e f, and
    its reduction modulo the nilradical J is the residue field, of dimension
    f = rank(J + eA) - rank(J)."""
    order, ring = p_maximal_order(poly, p)
    d = order.d
    idems = split_idempotents(ring)
    rest = ring.one
    for e in idems:
        rest = ring.sub(rest, e)
    verify(not any(rest), "idempotents do not sum to 1")
    for i in range(len(idems)):
        for j in range(i + 1, len(idems)):
            verify(not any(ring.mul(idems[i], idems[j])), "idempotents not orthogonal")

    rad = radical(ring)
    ring_n = TableRing(ring.table, order.one_coords(), p, 2 * r * d + 8)
    x_coords = order.x_coords()
    out = []
    for e in idems:
        e_rows = [ring.mul(e, ring.basis(i)) for i in range(d)]
        dim_local = len(rref_mod_p(e_rows, p)[1])
        f = len(rref_mod_p(rad + e_rows, p)[1]) - len(rad)
        verify(dim_local % f == 0, "component dimension not divisible by f")
        out.append((dim_local // f, f, _component_valuation(ring_n, x_coords, e, dim_local)))
    return out
