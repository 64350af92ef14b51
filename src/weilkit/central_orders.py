"""The minimal central order R_w.

R_w is realized as a lattice inside Q[x]/(P_w) with F acting as x and V as
q/x.  For n = deg(w) its basis is F^(n//2) ... F, 1, V ... V^((n-1)//2):
F^d ... F, 1, V ... V^(d-1) in the even case n = 2d, and
F^(d0) ... 1 ... V^(d0) in the odd case n = 2 d0 + 1 (even r with exactly one
rational class).

Each order is an `intmatrix.IntegerLattice`: the basis times a common
denominator D gives integer rows W, solved once and exactly by fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968; Cohen, GTM 138,
2.2); a nonzero pivot at every step proves the embedding injective.  The
table is integral, i.e. the lattice is closed under multiplication, exactly
when none of its exact divisions leaves a remainder.  The defining relations
F V = q and the vanishing of the symmetric polynomial of w are then verified
on the integer table; `index_in` is a ratio of integer determinants and
`product_embedding_index` a resultant.  Every check raises
`VerificationError`, also under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .checks import verify
from .intmatrix import IntegerLattice, det, hermite_rows, integer_rows, mul_mod, poly_mod
from .intpoly import resultant
from .tablering import table_product
from .weil import WeilSet, weil_set


@dataclass(frozen=True)
class CentralOrder:
    weil_set: WeilSet
    basis_labels: tuple
    basis_vectors: tuple  # rows of Fractions, coordinates in Q[x]/(P_w)
    # integer 3-tensor: table[i][j] = coords of b_i b_j; derived from the
    # basis, with closure verified, when not given
    table: tuple = None
    # the basis as integer rows W = D * basis_vectors over D, solved once
    lattice: IntegerLattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lattice = IntegerLattice(*integer_rows(self.basis_vectors))
        object.__setattr__(self, "lattice", lattice)
        if self.table is None:
            object.__setattr__(self, "table", lattice.closed_table(self.weil_set.polynomial))

    @property
    def rank(self):
        return len(self.basis_labels)

    def multiply(self, a, b):
        """Product in order coordinates via the integer table."""
        return table_product(self.table, a, b)

    def evaluate_symmetric(self, h):
        """Evaluate a symmetric F/V polynomial with integer exponents via the
        table; returns order coordinates."""
        d = self.rank
        f, v, one = self.generators
        out = [0] * d
        for (i, j), c in h.support.items():
            if i % 2 or j % 2:
                raise ValueError("half powers need the rational-class relation")
            term = one
            for _ in range(i // 2):
                term = self.multiply(term, f)
            for _ in range(j // 2):
                term = self.multiply(term, v)
            out = [o + c * t for o, t in zip(out, term)]
        return out

    @cached_property
    def generators(self):
        """Order coordinates of F, V and 1, verified to be integers.  Every
        caller gets the same three lists, so none may change them."""
        poly = self.weil_set.polynomial
        cs = poly.coeffs
        # c0 V = -q (a_1 + a_2 x + ... + x^(n-1)), as in build_order
        f = self.lattice.exact_coords(poly_mod([0, 1], poly))
        v = self.lattice.exact_coords([-self.weil_set.context.q * c for c in cs[1:]], cs[0])
        one = self.lattice.exact_coords([1] + [0] * (poly.degree - 1))
        verify(None not in (f, v, one), "F, V or 1 is not in the order")
        return f, v, one

    def as_dict(self):
        return {
            "q": self.weil_set.context.q,
            "polys": [list(c.polynomial.coeffs) for c in self.weil_set.classes],
            "basis_labels": list(self.basis_labels),
            "mult_table": [
                [[int(c) for c in cell] for cell in row] for row in self.table
            ],
        }


def basis_exponents(n):
    """The basis F^(n//2) ... F, 1, V ... V^((n-1)//2) of R_w for deg w = n,
    as exponents k: F^k for k > 0, 1 for k = 0 and V^(-k) for k < 0."""
    return range(n // 2, -((n + 1) // 2), -1)


def build_order(w):
    """Construct R_w with verified closure and defining relations."""
    poly = w.polynomial
    n = poly.degree
    c0 = poly.coeffs[0]
    # x V = q, so c0 V = u = -q (a_1 + a_2 x + ... + x^(n-1))
    u = [-w.context.q * c for c in poly.coeffs[1:]]
    labels, vectors, power = [], [], [1] + [0] * (n - 1)
    for k in basis_exponents(n):
        name = "1" if k == 0 else "F" if k > 0 else "V"
        labels.append(name if abs(k) <= 1 else "%s^%d" % (name, abs(k)))
        if k >= 0:
            vectors.append(tuple(Fraction(int(i == k)) for i in range(n)))
        else:
            power = mul_mod(power, u, poly)
            vectors.append(tuple(Fraction(c, c0 ** -k) for c in power))
    order = CentralOrder(w, tuple(labels), tuple(vectors))
    _verify_relations(order)
    return order


def _verify_relations(order):
    w = order.weil_set
    q = w.context.q
    f, v, one = order.generators
    verify(order.multiply(f, v) == [q * c for c in one], "F V = q fails")
    h = w.h
    if all(i % 2 == 0 and j % 2 == 0 for (i, j) in h.support):
        res = order.evaluate_symmetric(h)
        verify(all(c == 0 for c in res), "h_w(F, V) = 0 fails")
    else:
        # odd case: h_w has half powers; the defining relations are
        # h_w0(F, V) (F - eps p^m) = 0 and its V-twin
        rational = [c for c in w.classes if c.is_rational]
        others = [c for c in w.classes if not c.is_rational]
        verify(len(rational) == 1, "odd degree needs exactly one rational class")
        eps_root = -rational[0].polynomial.coeffs[0]
        if others:
            h0_val = order.evaluate_symmetric(weil_set(others).h)
        else:
            h0_val = one
        f_minus = [a - eps_root * b for a, b in zip(f, one)]
        v_minus = [a - eps_root * b for a, b in zip(v, one)]
        verify(all(c == 0 for c in order.multiply(h0_val, f_minus)),
               "h_w0(F, V) (F - eps p^m) = 0 fails")
        verify(all(c == 0 for c in order.multiply(h0_val, v_minus)),
               "h_w0(F, V) (V - eps p^m) = 0 fails")


def index_in(order, overorder_vectors):
    """Index of the order inside the lattice spanned by `overorder_vectors`
    (rows of rationals in Q[x]/(P_w) coordinates).

    Both must span the same Q-vector space; the index is the absolute
    determinant of the change of basis, det(order basis) / det(overorder
    basis), a positive integer when the order is actually contained in the
    overorder.
    """
    d = order.rank
    over = [[Fraction(c) for c in row] for row in overorder_vectors]
    if len(over) != d:
        raise ValueError("overorder basis has wrong rank")
    rows, scale = integer_rows(over)
    det_over = det(rows)
    if det_over == 0:
        raise ValueError("singular basis matrix")
    lattice = order.lattice
    index = Fraction(abs(lattice.e) * scale ** d, lattice.den ** d * abs(det_over))
    if index.denominator != 1:
        raise ValueError("order is not contained in the overorder")
    return int(index)


def _image_coords(order_small, order_big):
    """Coordinates in order_small of the basis of order_big reduced modulo
    the polynomial of order_small, one integer row per basis vector."""
    big = order_big.lattice
    poly = order_small.weil_set.polynomial
    out = []
    for row in big.rows:
        coords = order_small.lattice.exact_coords(poly_mod(row, poly), big.den)
        verify(coords is not None, "image outside the small order")
        out.append(coords)
    return out


def quotient_map(w_small, w_big):
    """Matrix of the natural surjection R_{w_big} -> R_{w_small} on the
    chosen bases, as integer rows.  The images of the basis of R_{w_big}
    span Z^rank exactly when their Hermite form is the identity."""
    small_polys = {c.polynomial.coeffs for c in w_small.classes}
    big_polys = {c.polynomial.coeffs for c in w_big.classes}
    if not small_polys <= big_polys:
        raise ValueError("first set must be contained in the second")
    order_small = build_order(w_small)
    order_big = build_order(w_big)
    images = _image_coords(order_small, order_big)
    rank = order_small.rank
    identity = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    verify(hermite_rows(images) == identity, "quotient map not surjective")
    return tuple(zip(*images))


def _power_basis_index(n, c0, q):
    """i_w = [R_w : Z[F]] for P_w of degree n and constant term c0."""
    m = (n - 1) // 2
    return Fraction(abs(c0) ** m, q ** (m * (m + 1) // 2))


def product_embedding_index(cls_a, cls_b):
    """Index of R_{a,b} inside R_a x R_b under the CRT identification of
    Q[x]/(P_a P_b) with the product of the two fields: |Res(P_a, P_b)| i_a
    i_b / i_ab, where i_w = [R_w : Z[F]] = |c_0|^m / q^(m(m+1)/2) for P_w =
    x^n + c_(n-1) x^(n-1) + ... + c_0 and m = (n - 1) // 2.

    Proof.  F acts as x, so Z[F] = Z[x]/(P_w) lies in R_w.  The rows F^k of
    the basis of R_w are the power-basis vectors 1, ..., x^(n//2), and
    c_0 x^(-k) = -(x^(n-k) + c_(n-1) x^(n-k-1) + ... + c_k) - sum_(0<i<k)
    c_i x^(-(k-i)).  So modulo the earlier V rows, V^k = q^k x^(-k) has the
    leading entry -q^k / c_0 at x^(n-k), and n - k > n//2 for k <= m: the
    basis matrix is triangular up to row operations, with |det| =
    q^(m(m+1)/2) / |c_0|^m = 1 / i_w.  Then disc R_w = disc P_w / i_w^2
    (Cohen, GTM 138, 4.4), disc(P_a P_b) = disc P_a disc P_b Res(P_a,
    P_b)^2, and disc R_{a,b} = [R_a x R_b : R_{a,b}]^2 disc R_a disc R_b.
    """
    weil_set([cls_a, cls_b])  # refuses equal classes and mixed contexts
    return _embedding_index(cls_a.polynomial, cls_b.polynomial, cls_a.context.q)


def _embedding_index(poly_a, poly_b, q):
    res = resultant(poly_a, poly_b)
    verify(res != 0, "classes share a factor")
    (n_a, a0), (n_b, b0) = (poly_a.degree, poly_a.coeffs[0]), (poly_b.degree, poly_b.coeffs[0])
    index = abs(res) * _power_basis_index(n_a, a0, q) * _power_basis_index(n_b, b0, q)
    index /= _power_basis_index(n_a + n_b, a0 * b0, q)
    verify(index.denominator == 1, "embedding index is not an integer")
    return int(index)


def connected_components(w):
    """Partition of the classes of w by connectivity of Spec(R_w): two
    classes lie in one component iff the index of R_{a,b} inside
    R_a x R_b is not 1."""
    classes = list(w.classes)
    n = len(classes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    q = w.context.q
    for i in range(n):
        for j in range(i + 1, n):
            if _embedding_index(classes[i].polynomial, classes[j].polynomial, q) != 1:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(classes[i])
    out = [tuple(sorted(g, key=lambda c: c.sort_key())) for g in groups.values()]
    out.sort(key=lambda g: g[0].sort_key())
    return out

