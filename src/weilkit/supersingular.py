"""The fully explicit supersingular elliptic engine over F_{p^2}, p = 3 mod 4.

For pi with minimal polynomial x^2 + p^2 the endomorphism world happens
inside 2x2 matrices over the Gaussian integers: the Dieudonne ring embeds
as the matrices with p | c and a congruent to conj(d) mod p, of index p^4;
there are exactly two lattice classes in the standard module, glued by a
congruence into a fiber product of colength one; and the endomorphism
order of the glued object is the same congruence order globally, with
center Z[ip].  Everything here is verified by exact computation, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import mul

from .checks import VerificationError, verify as _verify
from .intmatrix import IntegerMatrix, det, hermite_rows, kernel_basis, rref_mod_p


class GaussInt:
    """Gaussian integer a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", int(re))
        object.__setattr__(self, "im", int(im))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __add__(self, other):
        other = _coerce(other)
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__
    __radd__ = __add__

    def conj(self):
        return GaussInt(self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussInt(%d, %d)" % (self.re, self.im)


I_UNIT = GaussInt(0, 1)


def _coerce(x):
    if isinstance(x, GaussInt):
        return x
    if isinstance(x, int):
        return GaussInt(x, 0)
    raise TypeError("GaussInt or int expected")


def mat_mul(m1, m2):
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return (
        (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
        (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2),
    )


def mat_add(m1, m2):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def mat_eq(m1, m2):
    return all(x == y for r1, r2 in zip(m1, m2) for x, y in zip(r1, r2))


def psi_frobenius(p):
    return ((GaussInt(0), GaussInt(1)), (GaussInt(0, p), GaussInt(0)))


def psi_verschiebung(p):
    return ((GaussInt(0), GaussInt(0, -1)), (GaussInt(p), GaussInt(0)))


ZERO_MAT = ((GaussInt(0), GaussInt(0)), (GaussInt(0), GaussInt(0)))


def _diag(a, b):
    return ((a, GaussInt(0)), (GaussInt(0), b))


# -- symbolic semilinearity check -------------------------------------------


class _SymGauss:
    """Element of Z[i][A, Abar]: keys (deg_A, deg_Abar) -> GaussInt; the
    conjugation swaps A with Abar and conjugates coefficients."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v != GaussInt(0)}

    @classmethod
    def const(cls, g):
        return cls({(0, 0): _coerce(g)})

    @classmethod
    def sym_a(cls):
        return cls({(1, 0): GaussInt(1)})

    def conj(self):
        return _SymGauss({(j, i): v.conj() for (i, j), v in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, GaussInt(0)) + v
        return _SymGauss(out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, GaussInt(0)) + v1 * v2
        return _SymGauss(out)

    def __eq__(self, other):
        return self.terms == other.terms


def verify_psi_relations(p):
    """psi(F) psi(V) = p, psi(F)^2 + psi(V)^2 = 0, and sigma-semilinearity
    psi(F) diag(a, conj a) = diag(conj a, a) psi(F) with a symbolic."""
    if p % 4 != 3:
        raise ValueError("p = 3 mod 4 required")
    f = psi_frobenius(p)
    v = psi_verschiebung(p)
    _verify(mat_eq(mat_mul(f, v), _diag(GaussInt(p), GaussInt(p))), "psi(F) psi(V) != p")
    _verify(mat_eq(mat_mul(v, f), _diag(GaussInt(p), GaussInt(p))), "psi(V) psi(F) != p")
    _verify(mat_eq(mat_add(mat_mul(f, f), mat_mul(v, v)), ZERO_MAT), "psi(F)^2 + psi(V)^2 != 0")
    # symbolic check over Z[i][A, Abar]
    a = _SymGauss.sym_a()
    abar = a.conj()
    zero = _SymGauss({})

    def sym_mat_mul(m1, m2):
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                acc = zero
                for t in range(2):
                    acc = acc + m1[i][t] * m2[t][j]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    f_sym = tuple(tuple(_SymGauss.const(x) for x in row) for row in f)
    v_sym = tuple(tuple(_SymGauss.const(x) for x in row) for row in v)
    diag_a = ((a, zero), (zero, abar))
    diag_abar = ((abar, zero), (zero, a))
    for name, m in (("psi(F)", f_sym), ("psi(V)", v_sym)):
        left = sym_mat_mul(m, diag_a)
        right = sym_mat_mul(diag_abar, m)
        for i in range(2):
            for j in range(2):
                _verify(left[i][j] == right[i][j], "%s is not sigma-semilinear" % name)
    return True


# -- integer coordinates of M_2(Z[i]) ---------------------------------------
# coordinate order: (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im)


def matrix_to_coords(m):
    (a, b), (c, d) = m
    return (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im)


def coords_to_matrix(v):
    return (
        (GaussInt(v[0], v[1]), GaussInt(v[2], v[3])),
        (GaussInt(v[4], v[5]), GaussInt(v[6], v[7])),
    )


def _coord_mul(x, y):
    """The product of two matrices of M_2(Z[i]) on their integer coordinates:
    entry (i, j) is x_i1 y_1j + x_i2 y_2j with Gaussian products."""
    ar, ai, br, bi, cr, ci, dr, di = x
    er, ei, fr, fi, gr, gi, hr, hi = y
    return (
        ar * er - ai * ei + br * gr - bi * gi,
        ar * ei + ai * er + br * gi + bi * gr,
        ar * fr - ai * fi + br * hr - bi * hi,
        ar * fi + ai * fr + br * hi + bi * hr,
        cr * er - ci * ei + dr * gr - di * gi,
        cr * ei + ci * er + dr * gi + di * gr,
        cr * fr - ci * fi + dr * hr - di * hi,
        cr * fi + ci * fr + dr * hi + di * hr,
    )


def _congruent(x, p):
    """p | c and a = conj(d) mod p, on integer coordinates."""
    return not (x[4] % p or x[5] % p or (x[0] - x[6]) % p or (x[1] + x[7]) % p)


@dataclass(frozen=True)
class OrderPresentation:
    """A Z-order inside M_2(Z[i]): HNF basis rows in the 8 integer
    coordinates, the congruence predicate, and the index in M_2(Z[i])."""

    p: int
    basis: tuple  # 8 rows of 8 ints
    index: int
    description: str
    # (pivot column, row) of each nonzero basis row, by pivot column
    _pivots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pivots = [(next(j for j, c in enumerate(r) if c), r) for r in self.basis if any(r)]
        object.__setattr__(self, "_pivots", tuple(sorted(pivots)))

    def _spans(self, coords):
        """Whether the integer coordinates lie in the Z-span of the basis:
        exact back-substitution on the echelon rows."""
        work = list(coords)
        for col, row in self._pivots:
            c, rem = divmod(work[col], row[col])
            if rem:
                return False
            if c:
                for j in range(col, len(work)):
                    work[j] -= c * row[j]
        return not any(work)

    def contains(self, m):
        """Membership via exact solve against the HNF basis."""
        return self._spans(matrix_to_coords(m))


def _congruence_lattice(p):
    """HNF basis of {p | c, a = conj(d) mod p} and its index in M_2(Z[i])."""
    gens = []
    # a = 1, d = 1 and a = i, d = -i satisfy the congruence exactly
    gens.append((1, 0, 0, 0, 0, 0, 1, 0))
    gens.append((0, 1, 0, 0, 0, 0, 0, -1))
    gens.append((p, 0, 0, 0, 0, 0, 0, 0))
    gens.append((0, p, 0, 0, 0, 0, 0, 0))
    gens.append((0, 0, 1, 0, 0, 0, 0, 0))
    gens.append((0, 0, 0, 1, 0, 0, 0, 0))
    gens.append((0, 0, 0, 0, p, 0, 0, 0))
    gens.append((0, 0, 0, 0, 0, p, 0, 0))
    gens.append((0, 0, 0, 0, 0, 0, p, 0))
    gens.append((0, 0, 0, 0, 0, 0, 0, p))
    rows = tuple(hermite_rows(gens))
    _verify(len(rows) == 8, "congruence lattice is not of full rank")
    index = det(IntegerMatrix(rows))
    return rows, abs(index)


def dieudonne_matrix_order(p):
    """The image of the integral Dieudonne ring inside M_2(Z[i]): the
    congruence order of index p^4, with closure and predicate verified."""
    verify_psi_relations(p)
    rows, index = _congruence_lattice(p)
    _verify(index == p ** 4, "index is %d, expected p^4" % index)
    order = OrderPresentation(
        p=p,
        basis=rows,
        index=index,
        description="p | c and a = conj(d) (mod p) in M_2(Z[i])",
    )
    for x in rows:
        _verify(_congruent(x, p), "basis leaves the predicate")
    for x in rows:
        for y in rows:
            prod = _coord_mul(x, y)
            _verify(_congruent(prod, p), "order not closed")
            _verify(order._spans(prod), "product escapes the lattice")
    # the generators psi(F), psi(V) lie in the order
    _verify(order.contains(psi_frobenius(p)), "psi(F) is not in the order")
    _verify(order.contains(psi_verschiebung(p)), "psi(V) is not in the order")
    return order


def endomorphism_order(p):
    """S_pi: the same congruence order globally, with its center computed
    and identified as Z[ip] of index p in Z[i]."""
    order = dieudonne_matrix_order(p)
    center_rows = _center_lattice(order)
    _verify(len(center_rows) == 2, "center rank must be 2")
    # center = { (x + y*ip) * identity : x, y in Z }: the scalar z*I lies in
    # the order iff z = conj(z) mod p, i.e. p | Im(z)
    expected = [
        (1, 0, 0, 0, 0, 0, 1, 0),
        (0, p, 0, 0, 0, 0, 0, p),
    ]
    _verify(hermite_rows(expected) == hermite_rows(center_rows), "center is not Z[ip]")
    return order, center_rows


def _center_lattice(order):
    """Z-basis of the center of the order: elements commuting with all
    basis matrices."""
    # linear map per order-basis coordinate: z = sum t_j b_j, conditions
    # [z, b] = 0 for every basis matrix b
    columns = []
    for zt in order.basis:
        col = []
        for b in order.basis:
            col.extend(u - v for u, v in zip(_coord_mul(zt, b), _coord_mul(b, zt)))
        columns.append(col)
    mat = IntegerMatrix(
        [[columns[j][i] for j in range(8)] for i in range(len(columns[0]))]
    )
    kern = kernel_basis(mat)
    out = []
    for vec in kern:
        coords = [0] * 8
        for t, c in enumerate(vec):
            if c:
                for j in range(8):
                    coords[j] += c * order.basis[t][j]
        out.append(tuple(coords))
    return tuple(hermite_rows(out))


def center_index_in_gaussian_scalars(center_rows, p):
    """Index of the center inside Z[i] * identity."""
    mat = []
    for row in center_rows:
        # scalar matrices diag(z, z): b = c = 0 and d = a
        _verify(row[2] == row[3] == row[4] == row[5] == 0, "center row is not diagonal")
        _verify(row[0] == row[6] and row[1] == row[7], "center row is not scalar")
        mat.append([row[0], row[1]])
    return abs(det(IntegerMatrix(mat)))


# -- stable lattices mod p ---------------------------------------------------


@dataclass(frozen=True)
class LatticeModP:
    """An F_p-space with a family of commuting-or-not generator matrices."""

    p: int
    dim: int
    generators: tuple  # matrices as tuples of rows over F_p

    def act(self, g, v):
        return tuple(sum(map(mul, row, v)) % self.p for row in g)


def enumerate_stable_lattices(action):
    """All subspaces of F_p^dim stable under every generator; returns
    (all_subspaces, proper_nontrivial), each as canonical echelon-row tuples.

    Every stable W is the sum of the cyclic submodules C(w), w in W; C(w)
    depends only on the line through w; and a sum of stable subspaces is
    stable.  So C(v) is closed once per projective point v (first nonzero
    coordinate 1), and closing {0} under sums with these C(v) yields every
    stable subspace and nothing else (the submodule-lattice method of
    Lux-Mueller-Ringe, J. Symbolic Comput. 17, 1994).
    """
    if action.dim > 10:
        raise ValueError("ambient dimension capped at 10")
    p, n = action.p, action.dim

    def canon(rows):
        ech, _ = rref_mod_p(rows, p)
        return tuple(tuple(r) for r in ech)

    full = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def cyclic(v):
        # rows monic at their pivots, each reduced against the earlier ones;
        # every generator image of a new row is reduced the same way; n
        # independent rows span everything
        rows, todo = [], [v]
        while todo:
            w = todo.pop()
            for col, r in rows:
                f = w[col]
                if f:
                    w = [(x - f * y) % p for x, y in zip(w, r)]
            col = next((j for j, x in enumerate(w) if x), None)
            if col is not None:
                inv = pow(w[col], -1, p)
                w = [x * inv % p for x in w]
                rows.append((col, w))
                if len(rows) == n:
                    return full
                todo.extend(action.act(g, w) for g in action.generators)
        return canon([r for _, r in rows])

    cyclics = {
        cyclic((0,) * k + (1,) + tail)
        for k in range(n)
        for tail in product(range(p), repeat=n - k - 1)
    }
    found = {()}
    queue = [()]
    while queue:
        base = queue.pop()
        for c in cyclics:
            bigger = canon(base + c)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    all_sorted = sorted(found, key=lambda rows: (len(rows), rows))
    proper = [rows for rows in all_sorted if 0 < len(rows) < n]
    return all_sorted, proper


def standard_module_action(p):
    """The mod-p action of the Dieudonne matrix order on (Z[i]/p)^2 as an
    F_p-space of dimension 4: generated by psi(F), psi(V) and the scalar i."""
    if p % 4 != 3:
        raise ValueError("p = 3 mod 4 required")

    def as_real_matrix(m):
        # columns act on (x1.re, x1.im, x2.re, x2.im)
        cols = []
        for j in range(2):
            for part in (GaussInt(1), GaussInt(0, 1)):
                vec = [GaussInt(0), GaussInt(0)]
                vec[j] = part
                img = [
                    m[0][0] * vec[0] + m[0][1] * vec[1],
                    m[1][0] * vec[0] + m[1][1] * vec[1],
                ]
                cols.append(
                    (img[0].re % p, img[0].im % p, img[1].re % p, img[1].im % p)
                )
        return tuple(
            tuple(cols[j][i] for j in range(4)) for i in range(4)
        )

    gens = [
        as_real_matrix(psi_frobenius(p)),
        as_real_matrix(psi_verschiebung(p)),
        as_real_matrix(_diag(GaussInt(0, 1), GaussInt(0, -1))),  # a = i, conj
    ]
    return LatticeModP(p=p, dim=4, generators=tuple(gens))


def lattice_class_count(p):
    """Number of homothety classes of stable lattices in the standard
    module: one for the full lattice plus one per proper stable subspace."""
    action = standard_module_action(p)
    _, proper = enumerate_stable_lattices(action)
    return 1 + len(proper), proper


# -- fiber products ----------------------------------------------------------


@dataclass(frozen=True)
class FiberProductReport:
    basis: tuple
    index: int
    index_exponent: int
    witt_colength: int


def fiber_product_lattice(basis1, map1, basis2, map2, p, residue_dim):
    """Pullback of two lattices along surjections onto a common F_p^m
    quotient: returns the HNF basis inside the direct sum together with the
    index p^m and the Witt colength m / residue_dim.

    basis1/basis2: integer row-bases; map1/map2: matrices over F_p sending
    lattice coordinates to the quotient.
    """
    n1, n2 = len(basis1), len(basis2)
    m = len(map1)
    if len(map2) != m:
        raise ValueError("quotient targets differ")
    for mp, n in ((map1, n1), (map2, n2)):
        ech, _ = rref_mod_p([list(r) for r in mp], p)
        if len(ech) != m:
            raise ValueError("quotient map not surjective")
    if m % residue_dim:
        raise ValueError("quotient is not a Witt residue module")
    # sublattice of Z^(n1+n2): {(x, y): map1 x = map2 y mod p}
    gens = []
    # p times everything
    for i in range(n1 + n2):
        row = [0] * (n1 + n2)
        row[i] = p
        gens.append(row)
    # kernel representatives of the difference map
    from .intmatrix import nullspace_mod_p

    diff_rows = []
    for t in range(m):
        diff_rows.append(
            [map1[t][j] % p for j in range(n1)]
            + [(-map2[t][j]) % p for j in range(n2)]
        )
    for vec in nullspace_mod_p(diff_rows, p, n1 + n2):
        gens.append([c % p for c in vec])
    rows = tuple(hermite_rows(gens))
    _verify(len(rows) == n1 + n2, "pullback is not of full rank")
    index = abs(det(IntegerMatrix([list(r) for r in rows])))
    _verify(index == p ** m, "pullback index %d != p^%d" % (index, m))
    return FiberProductReport(
        basis=rows,
        index=index,
        index_exponent=m,
        witt_colength=m // residue_dim,
    )


def glued_lattice(p, order=None):
    """The fiber product of the two standard lattices along the Frobenius
    congruence a = conj(d) mod p; matches the column splitting of the
    Dieudonne matrix order.

    `order` is that verified order, `dieudonne_matrix_order(p)`, when the
    caller holds it already; it is built here otherwise."""
    if p % 4 != 3:
        raise ValueError("p = 3 mod 4 required")
    if order is None:
        order = dieudonne_matrix_order(p)
    elif order.p != p:
        raise ValueError("order is for p = %d, not %d" % (order.p, p))
    # lattice 1 = {(a, c): p | c} with coordinates (a.re, a.im, c.re/p, c.im/p)
    # presented abstractly by its own basis: use coordinates w.r.t. the
    # ambient (a.re, a.im, c.re, c.im) instead
    basis1 = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, p, 0),
        (0, 0, 0, p),
    ]
    basis2 = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]
    # quotient maps to F_q = F_p^2: lattice1 -> a mod p; lattice2 -> conj(d) mod p
    map1 = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    map2 = [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
    ]
    report = fiber_product_lattice(basis1, map1, basis2, map2, p, residue_dim=2)
    # cross-check: the pullback (in lattice coordinates) equals the column
    # splitting of the congruence order
    cols = []
    for row in order.basis:
        (a, b), (c, d) = coords_to_matrix(row)
        # first column (a, c) in lattice-1 coordinates, second (b, d) in
        # lattice-2 coordinates
        _verify(c.re % p == 0 and c.im % p == 0, "order row has p not dividing c")
        cols.append(
            (a.re, a.im, c.re // p, c.im // p, b.re, b.im, d.re, d.im)
        )
    _verify(
        hermite_rows(cols) == hermite_rows(report.basis),
        "fiber product does not match the order columns",
    )
    return report
