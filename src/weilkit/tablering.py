"""Commutative rings given by an integer multiplication table over Z/p^k.

An element is a tuple of d coordinates on a basis b_0 .. b_(d-1), and
table[i][j] holds the integer coordinates of b_i b_j.  One such ring serves
the local structure of every order in weilkit: O/pO of a p-maximal order
(its nilradical and primitive idempotents, one per place above p), the same
order mod p^N (the valuation at a place), and the central order mod p^k
under the Dieudonne matrix structure.  Over Z the product is
`table_product`, unreduced.  The inverse of a unit comes from
`intmatrix.integer_inverse` on its multiplication matrix.

The primitive idempotents of a ring A over F_p come from the Berlekamp
subalgebra of S = A/J, J the nilradical, split by Lagrange projectors, and
are lifted through J, and to p^k, by the Newton step e <- 3e^2 - 2e^3
(Cohen, GTM 138, 6.1).  Every check raises `VerificationError`, also under
`python -O`.
"""

from __future__ import annotations

from operator import mul

from . import gfpoly as gp
from .checks import verify
from .intmatrix import integer_inverse, nullspace_mod_p, rref_mod_p


def table_product(table, u, v):
    """Coordinates of u v over Z: the sum of u_i v_j table[i][j]."""
    out = [0] * len(table)
    for i, x in enumerate(u):
        if x:
            row = table[i]
            for j, y in enumerate(v):
                if y:
                    c = x * y
                    for t, z in enumerate(row[j]):
                        out[t] += c * z
    return out


class TableRing:
    """(Z/p^k)^d with the multiplication of `table`; elements are tuples of
    residues in [0, p^k)."""

    def __init__(self, table, one, p, k=1):
        self.table = table
        self.p = p
        self.k = k
        self.q = p ** k
        self.d = len(table)
        self.one = self.reduce(one)
        self._radical = None

    def reduce(self, u):
        q = self.q
        return tuple([c % q for c in u])

    def basis(self, i):
        return tuple(int(j == i) for j in range(self.d))

    def mul(self, u, v):
        return self.reduce(table_product(self.table, u, v))

    def add(self, u, v):
        return tuple((a + b) % self.q for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple((a - b) % self.q for a, b in zip(u, v))

    def scal(self, c, u):
        return tuple((c * a) % self.q for a in u)

    def power(self, u, n):
        """u^n for n >= 0 by repeated squaring."""
        result, base = None, self.reduce(u)
        while n:
            if n & 1:
                result = base if result is None else self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return self.one if result is None else result

    def inv(self, u):
        """Inverse of a unit.  u is a unit exactly when its multiplication
        matrix M (column i is u b_i) is invertible mod p, that is when p does
        not divide e = +-det M; then X M = e I from `integer_inverse` gives
        u^(-1) = e^(-1) X 1 mod p^k."""
        cols = [self.mul(u, self.basis(i)) for i in range(self.d)]
        try:
            x, e = integer_inverse(list(zip(*cols)))
            scale = pow(e, -1, self.q)
        except ValueError:  # det M = 0, or p divides it
            raise ZeroDivisionError("not a unit") from None
        inv = self.scal(scale, [sum(map(mul, row, self.one)) for row in x])
        verify(self.mul(u, inv) == self.one, "inverse check failed")
        return inv


def lift_idempotent(ring, e):
    """The idempotent of the ring congruent to e modulo p and the
    nilradical, for e idempotent there.  The error e^2 - e lies in J^(2^m)
    after m steps and J^(k d) = 0 mod p^k, so (k d).bit_length() + 3 steps
    reach the fixed point."""
    cur = ring.reduce(e)
    for _ in range((ring.k * ring.d).bit_length() + 3):
        sq = ring.mul(cur, cur)
        if sq == cur:
            return cur
        cur = tuple((3 * a - 2 * b) % ring.q for a, b in zip(sq, ring.mul(sq, cur)))
    verify(ring.mul(cur, cur) == cur, "idempotent lifting failed")
    return cur


def radical(ring):
    """Basis rows of the nilradical of a ring over F_p: the kernel of the
    Frobenius power u -> u^(p^m) with p^m >= d."""
    if ring._radical is None:
        size = ring.p
        while size < ring.d:
            size *= ring.p
        images = [ring.power(ring.basis(i), size) for i in range(ring.d)]
        ring._radical = nullspace_mod_p(list(zip(*images)), ring.p, ring.d)
    return ring._radical


def split_idempotents(ring):
    """Primitive idempotents of a commutative ring A over F_p: the Berlekamp
    subalgebra of S = A/J splits the unit by Lagrange projectors, and each
    block is lifted through J."""
    p, d = ring.p, ring.d
    ech_j, piv_j = rref_mod_p(radical(ring), p)

    def reduce_mod_j(u):
        for row, c in zip(ech_j, piv_j):
            if u[c]:
                f = u[c]
                u = tuple((x - f * y) % p for x, y in zip(u, row))
        return u

    comp = [i for i in range(d) if i not in piv_j]
    # Berlekamp subalgebra: kernel of (Frobenius - id) on S
    rows = []
    for i in comp:
        e = ring.basis(i)
        diff = ring.sub(reduce_mod_j(ring.power(e, p)), e)
        rows.append([diff[t] for t in comp])
    separators = []
    for vec in nullspace_mod_p(list(zip(*rows)), p, len(comp)):
        u = [0] * d
        for c, i in zip(vec, comp):
            u[i] = c
        separators.append(reduce_mod_j(tuple(u)))

    blocks = [reduce_mod_j(ring.one)]
    for b in separators:
        new_blocks = []
        for e in blocks:
            minpoly = _minimal_polynomial(ring, e, b, reduce_mod_j, len(comp))
            # b is Frobenius-fixed, so its minimal polynomial splits into
            # distinct linear factors over F_p
            _, factors = gp.factor(minpoly, p)
            verify(all(len(f) == 2 and mult == 1 for f, mult in factors), "separator not split")
            roots = [(-f[0]) % p for f, _ in factors]
            if len(roots) == 1:
                new_blocks.append(e)
                continue
            for c in roots:
                proj = e
                denom = 1
                for c2 in roots:
                    if c2 != c:
                        shifted = ring.sub(b, ring.scal(c2, ring.one))
                        proj = reduce_mod_j(ring.mul(proj, shifted))
                        denom = (denom * (c - c2)) % p
                new_blocks.append(ring.scal(pow(denom, -1, p), proj))
        blocks = new_blocks
    return [lift_idempotent(ring, e) for e in blocks]


def _minimal_polynomial(ring, e, b, reduce_mod_j, dim):
    """Monic minimal polynomial over F_p of b in the unital algebra eS, for
    S = A/J of dimension `dim`: the first linear dependence among e, e b,
    e b^2, ..., read off the echelon form of their columns."""
    powers = [e]
    for _ in range(dim):
        powers.append(reduce_mod_j(ring.mul(powers[-1], b)))
    ech, piv = rref_mod_p(list(zip(*powers)), ring.p)
    n = len(piv)
    verify(piv == list(range(n)), "powers not a Krylov sequence")
    return [(-row[n]) % ring.p for row in ech] + [1]
