"""The Fraction route of `weilkit.central_orders` as an oracle.

Until the integer solve replaced it, `central_orders` built every order with
`Fraction` Gauss-Jordan elimination: one inverse per `element_coords` call,
the CRT idempotents through a rational extended gcd, and indices as
`Fraction` determinants.  That route is kept below verbatim (the dataclass
renamed `FractionOrder`) and the integer route must agree with it exactly:
bases, tables, F/V/1 coordinates, coordinates of arbitrary vectors,
indices, quotient maps, embedding indices and error messages.

`central_orders.product_embedding_index` has since become a closed form, a
resultant times the indices of the orders over Z[F].  The lattice route it
replaced (build R_{a,b}, R_a and R_b, then |det| of the coordinates of the
basis of R_{a,b} in R_a x R_b) is kept below as `lattice_embedding_index`,
and the closed form must agree with it on every pair of classes tested.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from weilkit import central_orders
from weilkit.intmatrix import det, integer_rows, smith_normal_form
from weilkit.intpoly import IntPolynomial
from weilkit.weil import GlobalContext, WeilSet, enumerate_weil, validate_weil, weil_set


def _poly_mod(vec, poly):
    """Reduce a Fraction coefficient vector modulo the monic poly."""
    vec = list(vec)
    d = poly.degree
    while len(vec) > d:
        top = vec.pop()
        if top:
            for i in range(d):
                vec[-d + i] -= top * poly.coeffs[i]
    vec += [Fraction(0)] * (d - len(vec))
    return vec


def _mul_mod(a, b, poly):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_mod(out, poly)


def _x_inverse(poly):
    """Coefficient vector of x^(-1) mod poly (nonzero constant term)."""
    c0 = poly.coeffs[0]
    # x * u = 1 with u = -(P - c0)/(x * c0)
    u = [Fraction(-poly.coeffs[i + 1], c0) for i in range(poly.degree)]
    return _poly_mod(u, poly)


def _invert_matrix(rows):
    d = len(rows)
    a = [
        [Fraction(c) for c in row]
        + [Fraction(1 if i == j else 0) for j in range(d)]
        for i, row in enumerate(rows)
    ]
    for col in range(d):
        piv = next((i for i in range(col, d) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular basis matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for i in range(d):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [c - f * x for c, x in zip(a[i], a[col])]
    return [row[d:] for row in a]


@dataclass(frozen=True)
class FractionOrder:
    weil_set: WeilSet
    basis_labels: tuple
    basis_vectors: tuple  # rows of Fractions, coordinates in Q[x]/(P_w)
    table: tuple  # integer 3-tensor: table[i][j] = coords of b_i b_j

    @property
    def rank(self):
        return len(self.basis_labels)

    def element_coords(self, vec):
        """Coordinates of a power-basis Fraction vector in the order basis."""
        inv = _invert_matrix([list(r) for r in self.basis_vectors])
        d = self.rank
        return [
            sum(Fraction(vec[j]) * inv[j][i] for j in range(d)) for i in range(d)
        ]

    def multiply(self, a, b):
        """Product in order coordinates via the integer table."""
        d = self.rank
        out = [0] * d
        for i in range(d):
            if a[i]:
                for j in range(d):
                    if b[j]:
                        c = a[i] * b[j]
                        row = self.table[i][j]
                        for t in range(d):
                            out[t] += c * row[t]
        return out

    def evaluate_symmetric(self, h):
        """Evaluate a symmetric F/V polynomial with integer exponents via the
        table; returns order coordinates."""
        d = self.rank
        f = self._coords_of_label("F")
        v = self._coords_of_label("V")
        one = self._unit_coords()
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

    def _unit_coords(self):
        one = [Fraction(0)] * self.rank
        one[0] = Fraction(1)
        return [int(c) for c in self.element_coords(one)]

    def _coords_of_label(self, name):
        poly = self.weil_set.polynomial
        if name == "F":
            vec = _poly_mod([Fraction(0), Fraction(1)], poly)
        else:
            q = self.weil_set.context.q
            vec = [q * c for c in _x_inverse(poly)]
        coords = self.element_coords(vec)
        out = []
        for c in coords:
            assert c.denominator == 1
            out.append(int(c))
        return out

    def as_dict(self):
        return {
            "q": self.weil_set.context.q,
            "polys": [list(c.polynomial.coeffs) for c in self.weil_set.classes],
            "basis_labels": list(self.basis_labels),
            "mult_table": [
                [[int(c) for c in cell] for cell in row] for row in self.table
            ],
        }


def build_order(w):
    """Construct R_w with verified closure and defining relations."""
    poly = w.polynomial
    deg = poly.degree
    q = w.context.q
    xinv = _x_inverse(poly)
    v_vec = [q * c for c in xinv]

    def f_power(k):
        vec = [Fraction(0)] * deg
        if k == 0:
            vec[0] = Fraction(1)
            return vec
        out = [Fraction(1)]
        x = [Fraction(0), Fraction(1)]
        for _ in range(k):
            out = _mul_mod(out, x, poly)
        return _poly_mod(out, poly)

    def v_power(k):
        out = [Fraction(1)] + [Fraction(0)] * (deg - 1)
        for _ in range(k):
            out = _mul_mod(out, v_vec, poly)
        return out

    labels = []
    vectors = []
    if deg % 2 == 0:
        d = deg // 2
        for k in range(d, 0, -1):
            labels.append("F^%d" % k if k > 1 else "F")
            vectors.append(f_power(k))
        labels.append("1")
        vectors.append(f_power(0))
        for k in range(1, d):
            labels.append("V^%d" % k if k > 1 else "V")
            vectors.append(v_power(k))
    else:
        d0 = deg // 2
        for k in range(d0, 0, -1):
            labels.append("F^%d" % k if k > 1 else "F")
            vectors.append(f_power(k))
        labels.append("1")
        vectors.append(f_power(0))
        for k in range(1, d0 + 1):
            labels.append("V^%d" % k if k > 1 else "V")
            vectors.append(v_power(k))

    inv = _invert_matrix(vectors)  # injectivity of the embedding

    def coords(vec):
        return [
            sum(vec[j] * inv[j][i] for j in range(deg)) for i in range(deg)
        ]

    table = []
    for i in range(deg):
        row = []
        for j in range(deg):
            prod = _mul_mod(vectors[i], vectors[j], poly)
            cs = coords(prod)
            ints = []
            for c in cs:
                assert c.denominator == 1, "order not multiplicatively closed"
                ints.append(int(c))
            row.append(tuple(ints))
        table.append(tuple(row))

    order = FractionOrder(
        weil_set=w,
        basis_labels=tuple(labels),
        basis_vectors=tuple(tuple(v) for v in vectors),
        table=tuple(table),
    )
    _verify_relations(order)
    return order


def _verify_relations(order):
    w = order.weil_set
    q = w.context.q
    f = order._coords_of_label("F")
    v = order._coords_of_label("V")
    one = order._unit_coords()
    fv = order.multiply(f, v)
    assert fv == [q * c for c in one], "F V = q fails"
    h = w.h
    if all(i % 2 == 0 and j % 2 == 0 for (i, j) in h.support):
        res = order.evaluate_symmetric(h)
        assert all(c == 0 for c in res), "h_w(F, V) = 0 fails"
    else:
        # odd case: h_w has half powers; the defining relations are
        # h_w0(F, V) (F - eps p^m) = 0 and its V-twin
        rational = [c for c in w.classes if c.is_rational]
        others = [c for c in w.classes if not c.is_rational]
        assert len(rational) == 1
        ctx = w.context
        eps_root = -rational[0].polynomial.coeffs[0]
        if others:
            h0 = weil_set(others).h
            h0_val = order.evaluate_symmetric(h0)
        else:
            h0_val = order._unit_coords()
        f = order._coords_of_label("F")
        v = order._coords_of_label("V")
        one = order._unit_coords()
        f_minus = [a - eps_root * b for a, b in zip(f, one)]
        v_minus = [a - eps_root * b for a, b in zip(v, one)]
        assert all(c == 0 for c in order.multiply(h0_val, f_minus))
        assert all(c == 0 for c in order.multiply(h0_val, v_minus))


def index_in(order, overorder_vectors):
    """Index of the order inside the lattice spanned by `overorder_vectors`
    (rows of rationals in Q[x]/(P_w) coordinates).

    Both must span the same Q-vector space; the index is the absolute
    determinant of the change of basis, a positive integer when the order is
    actually contained in the overorder.
    """
    d = order.rank
    over = [list(map(Fraction, row)) for row in overorder_vectors]
    if len(over) != d:
        raise ValueError("overorder basis has wrong rank")
    inv = _invert_matrix(over)
    change = []
    for row in order.basis_vectors:
        change.append(
            [sum(Fraction(row[j]) * inv[j][i] for j in range(d)) for i in range(d)]
        )
    det = _fraction_det(change)
    if det == 0:
        raise ValueError("bases span different spaces")
    det = abs(det)
    if det.denominator != 1:
        raise ValueError("order is not contained in the overorder")
    return int(det)


def _fraction_det(rows):
    d = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(d):
        piv = next((i for i in range(col, d) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for i in range(col + 1, d):
            if a[i][col]:
                f = a[i][col]
                a[i] = [c - f * x for c, x in zip(a[i], a[col])]
    return det


def quotient_map(w_small, w_big):
    """Matrix of the natural surjection R_{w_big} -> R_{w_small} on the
    chosen bases; entries are integers and the elementary divisors are all 1."""
    small_polys = {c.polynomial.coeffs for c in w_small.classes}
    big_polys = {c.polynomial.coeffs for c in w_big.classes}
    if not small_polys <= big_polys:
        raise ValueError("first set must be contained in the second")
    order_small = build_order(w_small)
    order_big = build_order(w_big)
    p_small = w_small.polynomial
    cols = []
    for vec in order_big.basis_vectors:
        reduced = _poly_mod(list(vec), p_small)
        coords = order_small.element_coords(reduced)
        col = []
        for c in coords:
            assert c.denominator == 1, "image outside the small order"
            col.append(int(c))
        cols.append(col)
    matrix = tuple(tuple(cols[j][i] for j in range(len(cols)))
                   for i in range(order_small.rank))
    _, smith, _ = smith_normal_form(matrix)
    divisors = [smith[i][i] for i in range(order_small.rank) if smith[i][i] != 0]
    assert len(divisors) == order_small.rank and all(
        d == 1 for d in divisors
    ), "quotient map not surjective"
    return matrix


def product_embedding_index(cls_a, cls_b):
    """Index of R_{{a,b}} inside R_a x R_b under the CRT identification of
    Q[x]/(P_a P_b) with the product of the two fields."""
    pair = weil_set([cls_a, cls_b])
    order_pair = build_order(pair)
    poly_a, poly_b = cls_a.polynomial, cls_b.polynomial
    poly = pair.polynomial
    # CRT idempotent e_a: 1 mod P_a, 0 mod P_b
    g, u, v = _poly_xgcd(poly_a, poly_b)
    assert g.degree == 0, "classes share a factor"
    c = Fraction(1, g.coeffs[0])
    # e_a = v * P_b / g evaluated mod P
    e_a = _poly_mod([c * x for x in _poly_mul_list(v, poly_b)], poly)
    e_b = [Fraction(int(i == 0)) - x for i, x in enumerate(e_a)]
    order_a = build_order(weil_set([cls_a]))
    order_b = build_order(weil_set([cls_b]))
    prod_rows = []
    deg = poly.degree
    for vec in order_a.basis_vectors:
        lifted = _poly_mod(
            _mul_mod([Fraction(x) for x in _pad(vec, deg)], e_a, poly), poly
        )
        prod_rows.append(lifted)
    for vec in order_b.basis_vectors:
        lifted = _poly_mod(
            _mul_mod([Fraction(x) for x in _pad(vec, deg)], e_b, poly), poly
        )
        prod_rows.append(lifted)
    return index_in(order_pair, prod_rows)


def _pad(vec, n):
    out = list(vec) + [Fraction(0)] * (n - len(vec))
    return out


def _poly_mul_list(a, b):
    out = [Fraction(0)] * (len(a) + len(b.coeffs) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return out


def _poly_xgcd(a, b):
    """Extended gcd over Q for IntPolynomials: g, u, v with u a + v b = g."""
    r0 = [Fraction(c) for c in a.coeffs]
    r1 = [Fraction(c) for c in b.coeffs]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def strip(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    def sub_scaled(x, y, q_, shift):
        x = list(x) + [Fraction(0)] * max(0, len(y) + shift - len(x))
        for i, c in enumerate(y):
            x[i + shift] -= q_ * c
        return strip(x)

    while r1:
        q_list = []
        r = list(r0)
        while len(r) >= len(r1) and r:
            qc = r[-1] / r1[-1]
            shift = len(r) - len(r1)
            q_list = [Fraction(0)] * max(0, shift + 1 - len(q_list)) + q_list
            if len(q_list) < shift + 1:
                q_list += [Fraction(0)] * (shift + 1 - len(q_list))
            q_list[shift] += qc
            r = sub_scaled(r, r1, qc, shift)
        r0, r1 = r1, r
        new_s = list(s0)
        new_t = list(t0)
        for shift, qc in enumerate(q_list):
            if qc:
                new_s = sub_scaled(new_s, s1, qc, shift)
                new_t = sub_scaled(new_t, t1, qc, shift)
        s0, s1 = s1, new_s
        t0, t1 = t1, new_t
    lead = r0[-1]
    g_coeffs = [c / lead for c in r0]
    assert all(c.denominator == 1 for c in g_coeffs), "gcd not monic-integral"
    g_int = IntPolynomial([int(c) for c in g_coeffs])
    u = [c / lead for c in s0]
    v = [c / lead for c in t0]
    return g_int, u, v


# -- the comparison ----------------------------------------------------------

CELLS = ((2, 6), (3, 4), (4, 4), (9, 4), (32, 2), (9, 2))
_CLASSES = {}


def cell_classes(q, max_degree):
    if (q, max_degree) not in _CLASSES:
        _CLASSES[q, max_degree] = enumerate_weil(GlobalContext.from_q(q), max_degree)
    return _CLASSES[q, max_degree]


def outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def random_fraction_rows(rng, n, rows):
    return [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 9))) for _ in range(n)]
        for _ in range(rows)
    ]


def overorder(rng, order):
    """One of: a lattice of index m over the order (one basis row of a
    unimodular change of basis divided by m), a sublattice of index m + 1
    (not an overorder), or a random rational lattice."""
    n = order.rank
    rows = [list(r) for r in order.basis_vectors]
    for _ in range(n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    k, m = rng.randrange(n), rng.randint(1, 4)
    over = [list(r) for r in rows]
    over[k] = [c / m for c in over[k]]
    under = [list(r) for r in rows]
    under[k] = [c * (m + 1) for c in under[k]]
    return rng.choice((over, under, random_fraction_rows(rng, n, n)))


def element_coords(order, vec):
    """Coordinates of a power-basis Fraction vector in the basis of an
    integer-route order, the integer route's counterpart of
    `FractionOrder.element_coords`: for vec = ints / den, the lattice's
    coordinates of e ints, which are integers, over e den."""
    (ints,), den = integer_rows([[Fraction(c) for c in vec]])
    e = order.lattice.e
    return [Fraction(c, den * e) for c in order.lattice.exact_coords([e * c for c in ints])]


def assert_orders_agree(rng, w):
    new, old = central_orders.build_order(w), build_order(w)
    assert new.basis_labels == old.basis_labels
    assert new.basis_vectors == old.basis_vectors
    assert all(type(c) is Fraction for row in new.basis_vectors for c in row)
    assert new.table == old.table
    assert new.as_dict() == old.as_dict()
    assert new.generators == (
        old._coords_of_label("F"), old._coords_of_label("V"), old._unit_coords()
    )
    (vec,) = random_fraction_rows(rng, new.rank, 1)
    assert element_coords(new, vec) == old.element_coords(vec)
    rows = overorder(rng, new)
    assert outcome(central_orders.index_in, new, rows) == outcome(index_in, old, rows)
    return new


def test_every_class_of_the_invariant_cells():
    rng = random.Random(5)
    seen = set()
    for q, max_degree in CELLS:
        for cls in cell_classes(q, max_degree):
            assert_orders_agree(rng, weil_set([cls]))
            seen.add((q, cls.polynomial.coeffs))
    assert len(seen) == 466  # (9, 2) lies inside (9, 4)


def seeded_sets(rng, count, size):
    """Distinct seeded sets of `size` classes from one (q, 4) cell; a third of
    them contain a rational class, so that odd degrees occur."""
    out = []
    while len(out) < count:
        classes = cell_classes(rng.choice((3, 4, 9)), 4)
        rational = [c for c in classes if c.degree == 1]
        pool = [c for c in classes if c.degree <= 2]
        if rational and len(out) % 3 == 0:
            picked = [rng.choice(rational)] + rng.sample(
                [c for c in pool if c.degree == 2], size - 1
            )
        else:
            picked = rng.sample(pool, size)
        out.append(weil_set(picked))
    return out


def test_seeded_pairs_and_triples():
    rng = random.Random(11)
    odd = 0
    for w in seeded_sets(rng, 24, 2) + seeded_sets(rng, 12, 3):
        assert_orders_agree(rng, w)
        odd += w.degree % 2
        classes = list(w.classes)
        if len(classes) == 2:
            assert central_orders.product_embedding_index(*classes) == product_embedding_index(*classes)
        small = weil_set(rng.sample(classes, len(classes) - 1))
        assert central_orders.quotient_map(small, w) == quotient_map(small, w)
    assert odd >= 8


def test_value_errors_match():
    a, b = [c for c in cell_classes(3, 4) if c.polynomial.coeffs in ((3, 0, 1), (3, 1, 1))]
    w = weil_set([a, b])
    new, old = central_orders.build_order(w), build_order(w)
    rows = [list(r) for r in new.basis_vectors]
    cases = {
        "overorder basis has wrong rank": rows[:-1],
        "singular basis matrix": [rows[0], rows[0], rows[2], rows[3]],
        "order is not contained in the overorder": [[2 * c for c in r] for r in rows],
    }
    for message, over in cases.items():
        for order, fn in ((new, central_orders.index_in), (old, index_in)):
            with pytest.raises(ValueError) as e:
                fn(order, over)
            assert str(e.value) == message
    for fn in (central_orders.quotient_map, quotient_map):
        with pytest.raises(ValueError) as e:
            fn(w, weil_set([a]))
        assert str(e.value) == "first set must be contained in the second"


# -- the embedding index: closed form against the lattice route --------------


def lattice_embedding_index(cls_a, cls_b):
    """Index of R_{a,b} inside R_a x R_b: |det| of the coordinates in
    R_a x R_b of the basis of R_{a,b}, reduced modulo P_a and modulo P_b
    (the CRT identification of Q[x]/(P_a P_b) with the product of fields)."""
    order_pair = central_orders.build_order(weil_set([cls_a, cls_b]))
    order_a = central_orders.build_order(weil_set([cls_a]))
    order_b = central_orders.build_order(weil_set([cls_b]))
    rows = [
        a + b
        for a, b in zip(
            central_orders._image_coords(order_a, order_pair),
            central_orders._image_coords(order_b, order_pair),
        )
    ]
    index = abs(det(rows))
    assert index != 0, "classes share a factor"
    return index


def assert_indices_agree(pairs):
    """The closed form equals the lattice route on every pair; returns the
    set of indices seen."""
    seen = set()
    for a, b in pairs:
        index = central_orders.product_embedding_index(a, b)
        assert index == lattice_embedding_index(a, b), (a, b)
        seen.add(index)
    return seen


@pytest.mark.parametrize("q", (2, 3, 4))
def test_embedding_index_on_every_pair_of_a_cell(q):
    seen = assert_indices_agree(itertools.combinations(cell_classes(q, 4), 2))
    assert 1 in seen and len(seen) > 2


def test_embedding_index_on_the_q9_cell():
    """Every pair of total degree <= 6 of the (9, 4) cell and 600 seeded
    pairs of two degree-4 classes; the 24,090 degree-8 pairs take about
    25 s through the lattice route."""
    classes = cell_classes(9, 4)
    pairs = list(itertools.combinations(classes, 2))
    small = [(a, b) for a, b in pairs if a.degree + b.degree <= 6]
    large = [(a, b) for a, b in pairs if a.degree + b.degree == 8]
    assert (len(small), len(large)) == (2938, 24090)
    seen = assert_indices_agree(small + random.Random(26).sample(large, 600))
    assert 1 in seen and len(seen) > 2


@pytest.mark.parametrize("q", (2, 3, 8))
def test_embedding_index_of_the_real_class(q):
    """x^2 - q of odd r, which `enumerate_weil` never lists, with every
    class of the (q, 4) cell."""
    ctx = GlobalContext.from_q(q)
    real = validate_weil(IntPolynomial((-q, 0, 1)), ctx)
    assert_indices_agree((real, c) for c in enumerate_weil(ctx, 4))
