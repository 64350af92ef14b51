"""Exact integer matrices: Smith and Hermite normal forms, determinants.

Integer rows are the one matrix format: every function takes a matrix as
a sequence of int sequences, and `det`, `smith_normal_form`,
`hermite_normal_form` and `kernel_basis` refuse ragged rows.  The normal
forms come back as tuples of int tuples.  `integer_rows` clears the
denominators of Fraction rows.  `hermite_rows` is the one Hermite core: a
row HNF that carries no transform.  `hermite_normal_form` runs it on
[M | I] to read off U, and `kernel_basis` on [M^T | I]; the callers that
only need the rows call it directly.  The Smith form alternates
`hermite_normal_form` on the columns and on the rows, accumulating both
unimodular transforms.  Pivoting always selects a smallest-absolute-value
nonzero entry, which keeps intermediate growth tame at the sizes this
library works with.  `integer_inverse` is the one exact inverter: a
fraction-free Gauss-Jordan solve (Bareiss 1968).  On it,
`IntegerLattice`, the one integer type of the central and the p-maximal
orders, finds coordinates and multiplication tables by exact division;
a `tablering` unit's inverse and the Dieudonne ordinary pullback are
e^(-1) X mod p^k.  `mul_mod` is the one product modulo a monic over Z.  A
few mod-p and mod-p^k helpers live here as well; `rref_mod_p` is the one
echelon form mod p.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .checks import verify


def _shape(rows):
    """(nrows, ncols) of integer rows; ragged rows are refused."""
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    return len(rows), ncols


def integer_rows(vectors):
    """(W, D): rows of ints and Fractions times their least common
    denominator D."""
    scale = lcm(*(c.denominator for row in vectors for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in vectors], scale


def det(rows):
    """Determinant by fraction-free Bareiss elimination."""
    n, nc = _shape(rows)
    if n != nc:
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def integer_inverse(rows):
    """(X, e) with X W = W X = e I and e = +-det(W) for a square integer
    matrix W, by fraction-free Gauss-Jordan elimination on [W | I]: every
    division is exact, and a zero pivot column means W is singular."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("singular basis matrix")
        a[k], a[piv] = a[piv], a[k]
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(n):
            f = a[i][k]
            if i != k:
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pk
    # [W | I] is now [e I | e W^-1]
    return [row[n:] for row in a], prev


def poly_mod(vec, poly):
    """Reduce an integer coefficient vector modulo the monic poly."""
    vec = list(vec)
    cs = poly.coeffs
    n = poly.degree
    for top in range(len(vec) - 1, n - 1, -1):
        c = vec[top]
        if c:
            for i in range(n):
                vec[top - n + i] -= c * cs[i]
    return vec[:n] + [0] * (n - len(vec))


def mul_mod(a, b, poly):
    """Product of two coefficient vectors modulo the monic poly."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_mod(out, poly)


class IntegerLattice:
    """A full-rank lattice in Q^n with basis W_i / D: integer rows W over one
    denominator D, solved once by `integer_inverse` (X W = e I).

    The coordinates c of a vector v / m satisfy c W / D = v / m, so
    c = D (v X) / (m e): each is one exact integer division, and a nonzero
    remainder proves that v / m lies outside the lattice.  For a lattice in
    Q[x]/(P), P monic, the coordinates of b_i b_j = (W_i W_j mod P) / D^2
    are its multiplication table, integral exactly when the lattice is
    closed under multiplication (Cohen, GTM 138, 6.1)."""

    __slots__ = ("rows", "den", "e", "_cols")

    def __init__(self, rows, den):
        self.rows = tuple(tuple(r) for r in rows)
        self.den = den
        inverse, self.e = integer_inverse(self.rows)
        self._cols = tuple(zip(*inverse))

    def exact_coords(self, vec, den=1):
        """Integer coordinates of vec / den for an integer vector vec, or
        None when one of them is not an integer."""
        m, out = den * self.e, []
        for col in self._cols:
            c, rem = divmod(self.den * sum(map(mul, vec, col)), m)
            if rem:
                return None
            out.append(c)
        return out

    def closed_table(self, poly):
        """table[i][j] = coordinates of b_i b_j in Q[x]/(poly).  Each must be
        integral: that is the closure check."""
        rows, n = self.rows, len(self.rows)
        den = self.den * self.den
        cells = {}
        for i in range(n):
            for j in range(i, n):
                cell = self.exact_coords(mul_mod(rows[i], rows[j], poly), den)
                verify(cell is not None, "order not multiplicatively closed")
                cells[i, j] = cells[j, i] = tuple(cell)
        return tuple(tuple(cells[i, j] for j in range(n)) for i in range(n))


def smith_normal_form(rows):
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D.

    D is diagonal with d1 | d2 | ..., all diagonal entries nonnegative;
    U and V are unimodular.  Rounds of a column pass (`hermite_normal_form`
    of M^T, accumulating V) and a row pass (of M, accumulating U) run until
    M is diagonal; where d_i does not divide d_(i+1), row i+1 is added into
    row i and the rounds go on, the column pass first (a row pass would
    reduce the new entry away).  They end.  Call a pivot finished when it is
    positive, the rest of its row and column is zero and the pivots before
    it are finished; passes leave finished pivots alone.  After the first
    pass, each pass leaves M diagonal, finishes the first unfinished pivot
    or replaces it by a proper divisor (0 is a multiple of every integer),
    since it becomes the gcd of its row or column, and a row addition with
    the column pass after it replaces d_i by gcd(d_i, d_(i+1)).  So the
    diagonal falls in the lexicographic divisibility order, which has no
    infinite descent.
    """
    nr, nc = _shape(rows)
    n = min(nr, nc)
    a, u, v = [list(r) for r in rows], _identity(nr), _identity(nc)
    while True:
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            d = [a[i][i] for i in range(n)]
            bad = [i for i in range(n - 1) if (d[i + 1] % d[i] if d[i] else d[i + 1])]
            if not bad:
                break
            for m in (a, u):
                m[bad[0]] = [x + y for x, y in zip(m[bad[0]], m[bad[0] + 1])]
        h, w = hermite_normal_form(_transpose(a))  # W M^T = H, so M W^T = H^T
        a, v = _transpose(h), _matmul(v, _transpose(w))
        h, w = hermite_normal_form(a)
        a, u = [list(r) for r in h], _matmul(w, u)
    for i in range(n):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            for row in v:
                row[i] = -row[i]
    return tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v))


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _matmul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def hermite_rows(rows):
    """The nonzero rows of the row-style Hermite normal form of the integer
    rows, without the transform: echelon shape, positive pivots and entries
    above a pivot reduced to [0, pivot).  Every column below the current row
    is brought to its gcd by repeated division by a smallest-absolute-value
    entry."""
    a = [list(r) for r in rows]
    nr = len(a)
    r = 0
    for col in range(len(a[0]) if a else 0):
        if r == nr:
            break
        while True:
            live = [i for i in range(r, nr) if a[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(a[i][col]))
            a[r], a[piv] = a[piv], a[r]
            top, t = a[r], a[r][col]
            done = True
            for i in range(r + 1, nr):
                x = a[i][col]
                if x:
                    c = x // t
                    a[i] = [u - c * v for u, v in zip(a[i], top)]
                    done = done and not a[i][col]
            if done:
                break
        if a[r][col]:
            if a[r][col] < 0:
                a[r] = [-x for x in a[r]]
            top, t = a[r], a[r][col]
            for i in range(r):
                c = a[i][col] // t
                if c:
                    a[i] = [u - c * v for u, v in zip(a[i], top)]
            r += 1
    return [tuple(row) for row in a[:r]]


def hermite_normal_form(rows):
    """Row-style HNF: returns (H, U) with U*M = H, U unimodular.

    H is upper triangular in echelon shape with positive pivots and entries
    above a pivot reduced to [0, pivot); its zero rows come last.  Both come
    from `hermite_rows` on [M | I]: the M part of the Hermite form of
    [M | I] is H, and its I part is U.
    """
    nr, nc = _shape(rows)
    aug = hermite_rows(
        [list(row) + [int(i == j) for j in range(nr)] for i, row in enumerate(rows)]
    )
    return tuple(row[:nc] for row in aug), tuple(row[nc:] for row in aug)


def kernel_basis(rows):
    """Basis of the integer kernel {x : M x = 0}, as rows: the rows of the
    Hermite form of [M^T | I] whose M^T part is zero (Cohen, GTM 138, 2.4),
    with the zero rows of M, which impose nothing, dropped first."""
    _, n = _shape(rows)
    live = [row for row in rows if any(row)]
    k = len(live)
    h = hermite_rows(
        [[row[j] for row in live] + [int(i == j) for i in range(n)] for j in range(n)]
    )
    return [row[k:] for row in h if not any(row[:k])]


# -- modular helpers -----------------------------------------------------


def rref_mod_p(rows, p):
    """Reduced row echelon form mod p; returns (rows, pivot_columns)."""
    a = [[c % p for c in row] for row in rows]
    if not a:
        return [], []
    nc = len(a[0])
    pivots = []
    r = 0
    for col in range(nc):
        piv = None
        for i in range(r, len(a)):
            if a[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(c * inv) % p for c in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(c - f * d) % p for c, d in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def nullspace_mod_p(rows, p, ncols):
    """Basis of the right nullspace of the matrix mod p."""
    ech, pivots = rref_mod_p(rows, p)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in zip(ech, pivots):
            vec[c] = (-r[f]) % p
        basis.append(tuple(vec))
    return basis


def zpk_canonical(rows, p, k):
    """Canonical generating rows of the Z/p^k-module spanned by `rows`.

    Computed as the Hermite form of the rows stacked over p^k * identity,
    reduced mod p^k and stripped of zero rows.  Two spans are equal iff
    their canonical forms are equal.
    """
    q = p ** k
    if not rows:
        return ()
    nc = len(rows[0])
    stacked = [list(r) for r in rows] + [
        [q if i == j else 0 for j in range(nc)] for i in range(nc)
    ]
    out = []
    for r in hermite_rows(stacked):
        rr = tuple(c % q for c in r)
        if any(rr):
            out.append(rr)
    return tuple(out)


def zpk_smith(rows, p, k, ncols):
    """Smith form over the local ring Z/p^k: returns (exponents, V) with
    U*A*V = diag(p^exponents) mod p^k for some U; V square with unit
    determinant; exponents capped at k.  Entries stay reduced mod p^k, so
    there is no coefficient swell.
    """
    q = p ** k
    a = [[c % q for c in row] for row in rows]
    nr = len(a)
    v = _identity(ncols)

    def val(x):  # x != 0
        n = 0
        while x % p == 0:
            x //= p
            n += 1
        return n

    exps = []
    t = 0
    while t < min(nr, ncols):
        best = None
        best_v = k
        for i in range(t, nr):
            for j in range(t, ncols):
                if a[i][j]:
                    w = val(a[i][j])
                    if w < best_v:
                        best, best_v = (i, j), w
                        if w == 0:
                            break
            if best_v == 0:
                break
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        for row in v:
            row[t], row[bj] = row[bj], row[t]
        w = best_v
        unit = a[t][t] // p ** w
        # normalize the pivot to exactly p^w (unit row operation)
        if unit != 1:
            unit_inv = pow(unit, -1, q)
            for j in range(t, ncols):
                a[t][j] = (a[t][j] * unit_inv) % q
        for i in range(t + 1, nr):
            if a[i][t]:
                quot = (a[i][t] // p ** w) % (p ** (k - w))
                for j in range(t, ncols):
                    a[i][j] = (a[i][j] - quot * a[t][j]) % q
        for j in range(t + 1, ncols):
            if a[t][j]:
                quot = (a[t][j] // p ** w) % (p ** (k - w))
                for i in range(t, nr):
                    a[i][j] = (a[i][j] - quot * a[i][t]) % q
                for i in range(ncols):
                    v[i][j] = (v[i][j] - quot * v[i][t]) % q
        exps.append(w)
        t += 1
    return exps, v
