"""The fully explicit supersingular elliptic engine over F_{p^2}, p = 3 mod 4.

For pi with minimal polynomial x^2 + p^2 the endomorphism world happens
inside 2x2 matrices over the Gaussian integers: the Dieudonne ring embeds
as the matrices with p | c and a congruent to conj(d) mod p, of index p^4;
there are exactly two lattice classes in the standard module, glued by a
congruence into a fiber product of colength one; and the endomorphism
order of the glued object is the same congruence order globally, with
center Z[ip].  Everything here is verified by exact computation, not
assumed; the lattices come from one cyclic submodule per F_(p^2)-line.

A matrix [[a, b], [c, d]] of M_2(Z[i]) is always given by its 8 integer
coordinates (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im), and every
product, membership and semilinearity check runs on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import mul

from .checks import VerificationError, verify as _verify
from .intmatrix import det, hermite_rows, kernel_basis, nullspace_mod_p, rref_mod_p


# -- M_2(Z[i]) on its 8 integer coordinates ----------------------------------


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


def psi_frobenius(p):
    """psi(F) = [[0, 1], [ip, 0]]."""
    return (0, 0, 1, 0, 0, p, 0, 0)


def psi_verschiebung(p):
    """psi(V) = [[0, -i], [p, 0]]."""
    return (0, 0, 0, -1, p, 0, 0, 0)


_DIAG_I = (0, 1, 0, 0, 0, 0, 0, -1)  # diag(i, conj i)
_DIAG_I_CONJ = (0, -1, 0, 0, 0, 0, 0, 1)  # diag(conj i, i)


def _semilinear(m):
    """m diag(a, conj a) = diag(conj a, a) m for every a in Z[i].  Both sides
    are Z-linear in a, so the Z-basis {1, i} of Z[i] settles it; a = 1 holds
    for every m, which leaves the one pair of products at a = i."""
    return _coord_mul(m, _DIAG_I) == _coord_mul(_DIAG_I_CONJ, m)


def verify_psi_relations(p):
    """psi(F) psi(V) = psi(V) psi(F) = p, psi(F)^2 + psi(V)^2 = 0, and the
    sigma-semilinearity psi(F) diag(a, conj a) = diag(conj a, a) psi(F) of
    both generators, checked on the Z-basis {1, i} of a (see `_semilinear`)."""
    if p % 4 != 3:
        raise ValueError("p = 3 mod 4 required")
    f = psi_frobenius(p)
    v = psi_verschiebung(p)
    scalar_p = (p, 0, 0, 0, 0, 0, p, 0)
    _verify(_coord_mul(f, v) == scalar_p, "psi(F) psi(V) != p")
    _verify(_coord_mul(v, f) == scalar_p, "psi(V) psi(F) != p")
    squares = zip(_coord_mul(f, f), _coord_mul(v, v))
    _verify(not any(x + y for x, y in squares), "psi(F)^2 + psi(V)^2 != 0")
    for name, m in (("psi(F)", f), ("psi(V)", v)):
        _verify(_semilinear(m), "%s is not sigma-semilinear" % name)
    return True


def _congruent(x, p):
    """p | c and a = conj(d) mod p, on integer coordinates."""
    return not (x[4] % p or x[5] % p or (x[0] - x[6]) % p or (x[1] + x[7]) % p)


@dataclass(frozen=True)
class OrderPresentation:
    """A Z-order inside M_2(Z[i]): HNF basis rows in the 8 integer
    coordinates, the congruence predicate, the index in M_2(Z[i]) and the
    verified closure table."""

    p: int
    basis: tuple  # 8 rows of 8 ints
    index: int
    description: str
    # table[i][j] = the 8 coordinates of b_i b_j, verified to lie in the order
    table: tuple = field(repr=False, compare=False)
    # (pivot column, row) of each nonzero basis row, by pivot column
    _pivots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pivots = [(next(j for j, c in enumerate(r) if c), r) for r in self.basis if any(r)]
        object.__setattr__(self, "_pivots", tuple(sorted(pivots)))

    def contains(self, coords):
        """Whether a matrix, given by its 8 integer coordinates, lies in the
        order: exact back-substitution on the echelon rows of the basis."""
        work = list(coords)
        for col, row in self._pivots:
            c, rem = divmod(work[col], row[col])
            if rem:
                return False
            if c:
                for j in range(col, len(work)):
                    work[j] -= c * row[j]
        return not any(work)


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
    index = det(rows)
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
        table=tuple(tuple(_coord_mul(x, y) for y in rows) for x in rows),
    )
    for x in rows:
        _verify(_congruent(x, p), "basis leaves the predicate")
    for products in order.table:
        for prod in products:
            _verify(_congruent(prod, p), "order not closed")
            _verify(order.contains(prod), "product escapes the lattice")
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
    # the order iff z = conj(z) mod p, i.e. p | Im(z); in Hermite form, as
    # `_center_lattice` returns it
    expected = (
        (1, 0, 0, 0, 0, 0, 1, 0),
        (0, p, 0, 0, 0, 0, 0, p),
    )
    _verify(center_rows == expected, "center is not Z[ip]")
    return order, center_rows


def _center_lattice(order):
    """Z-basis of the center of the order, in Hermite form: the z = sum t_j
    b_j with [z, b_t] = sum t_j (b_j b_t - b_t b_j) = 0 for every basis
    matrix b_t, read from the closure table."""
    table = order.table
    n = len(table)
    equations = {
        tuple(table[j][t][c] - table[t][j][c] for j in range(n))
        for t in range(n)
        for c in range(8)
    }
    equations.discard((0,) * n)
    out = []
    for vec in kernel_basis(sorted(equations)):
        out.append(tuple(sum(c * b[j] for c, b in zip(vec, order.basis)) for j in range(8)))
    return tuple(hermite_rows(out))


def center_index_in_gaussian_scalars(center_rows, p):
    """Index of the center inside Z[i] * identity."""
    mat = []
    for row in center_rows:
        # scalar matrices diag(z, z): b = c = 0 and d = a
        _verify(row[2] == row[3] == row[4] == row[5] == 0, "center row is not diagonal")
        _verify(row[0] == row[6] and row[1] == row[7], "center row is not scalar")
        mat.append([row[0], row[1]])
    return abs(det(mat))


# -- stable lattices mod p ---------------------------------------------------


@dataclass(frozen=True)
class LatticeModP:
    """An F_p-space with a family of commuting-or-not generator matrices."""

    p: int
    dim: int
    generators: tuple  # matrices as tuples of rows over F_p

    def act(self, g, v):
        return tuple(sum(map(mul, row, v)) % self.p for row in g)


def _line_seeds(action):
    """One vector per line of F_p^dim over a field F in the generated algebra:
    F = F_p[g] = F_(p^2) if p = 3 mod 4 and a generator g has g^2 = -1, on an
    F_(p^2)-basis b greedy over the unit vectors e (the span of the blocks
    (b, g b) so far is g-stable, so a new e adds two dimensions); else F_p."""
    p, n = action.p, action.dim
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    blocks = [(e,) for e in units]
    for g in action.generators if p % 4 == 3 and n % 2 == 0 else ():
        # g e_j is column j of g
        if all(action.act(g, ge) == tuple(-x % p for x in e) for e, ge in zip(units, zip(*g))):
            blocks, span = [], []
            for e, ge in zip(units, zip(*g)):
                if list(e) not in span:  # reduced echelon rows span e iff e is one
                    blocks.append((e, ge))
                    span, _ = rref_mod_p(span + [e, ge], p)
            _verify(len(span) == n == 2 * len(blocks), "g^2 = -1 blocks are no basis")
            break
    # a block's first vector plus an F_p-combination of the later blocks'
    for k, block in enumerate(blocks):
        cols = list(zip(block[0], *(v for b in blocks[k + 1:] for v in b)))
        for tail in product(range(p), repeat=len(cols[0]) - 1):
            yield [sum(map(mul, (1,) + tail, col)) % p for col in cols]


def enumerate_stable_lattices(action):
    """All subspaces of F_p^dim stable under every generator; returns
    (all_subspaces, proper_nontrivial), each as canonical echelon-row tuples.

    Every stable W is the sum of the cyclic submodules C(w) = A w, w in W, A
    the algebra the generators span, and sums of stable subspaces are stable,
    so closing {0} under sums with the C(v) yields the stable subspaces (the
    submodule-lattice method of Lux-Mueller-Ringe, J. Symbolic Comput. 17,
    1994).  C(v) is closed once per line over a field F in A (`_line_seeds`):
    for u != 0 in F, C(u v) = A u v lies in C(v) and v = u^-1 (u v) lies in
    C(u v).  F = F_p gives the projective points; if p = 3 mod 4 and a
    generator g has g^2 = -1 (the scalar i of `standard_module_action`),
    x^2 + 1 is irreducible mod p and F = F_p[g] is F_(p^2): at dim 4 the
    p^2 + 1 lines (1, z), z in F_(p^2), and (0, 1) replace p^3 + p^2 + p + 1
    projective points, so the cost grows as p^2.
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

    cyclics = {cyclic(v) for v in _line_seeds(action)}
    found = {()} | cyclics
    queue = list(cyclics)
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
        # columns act on (x1.re, x1.im, x2.re, x2.im): the first column of
        # m x, where x holds x1 and x2 in its first column and zeros in the
        # second
        cols = []
        for k in (0, 1, 4, 5):
            x = [0] * 8
            x[k] = 1
            y = _coord_mul(m, x)
            cols.append((y[0] % p, y[1] % p, y[4] % p, y[5] % p))
        return tuple(zip(*cols))

    gens = (psi_frobenius(p), psi_verschiebung(p), _DIAG_I)
    return LatticeModP(p=p, dim=4, generators=tuple(map(as_real_matrix, gens)))


def lattice_class_count(p):
    """Number of homothety classes of stable lattices in the standard
    module: one for the full lattice plus one per proper stable subspace."""
    _, proper = enumerate_stable_lattices(standard_module_action(p))
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
        if any(len(r) != n for r in mp):
            raise ValueError("quotient map rows need one entry per basis row")
        ech, _ = rref_mod_p([list(r) for r in mp], p)
        if len(ech) != m:
            raise ValueError("quotient map not surjective")
    if m % residue_dim:
        raise ValueError("quotient is not a Witt residue module")
    # sublattice of Z^(n1+n2): {(x, y): map1 x = map2 y mod p}, spanned by p
    # times everything and kernel representatives of the difference map
    gens = [[p * int(i == j) for j in range(n1 + n2)] for i in range(n1 + n2)]
    diff_rows = [list(r1) + [-c for c in r2] for r1, r2 in zip(map1, map2)]
    gens += nullspace_mod_p(diff_rows, p, n1 + n2)
    rows = tuple(hermite_rows(gens))
    _verify(len(rows) == n1 + n2, "pullback is not of full rank")
    index = abs(det(rows))
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
    for ar, ai, br, bi, cr, ci, dr, di in order.basis:
        # first column (a, c) in lattice-1 coordinates, second (b, d) in
        # lattice-2 coordinates
        _verify(cr % p == 0 and ci % p == 0, "order row has p not dividing c")
        cols.append((ar, ai, cr // p, ci // p, br, bi, dr, di))
    _verify(
        tuple(hermite_rows(cols)) == report.basis,
        "fiber product does not match the order columns",
    )
    return report
