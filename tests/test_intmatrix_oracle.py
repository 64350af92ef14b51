"""Replaced exact-linear-algebra routes, kept as oracles.

`intmatrix.smith_normal_form` used to run its own elimination (pivot
search, row and column operations, block reduction and a divisibility
loop); it now alternates Hermite passes.  The Dieudonne layer solved linear
systems mod p^k through a Smith form that also tracked U (`zpk_solve`);
the trace-one element now has a closed form and the ordinary check's
pullback goes through `integer_inverse`.  `TableRing.inv` used a mod-p
echelon form and Newton doubling; it now goes through `integer_inverse`
too.  The three old routes are copied below, and the new ones must give
the same bytes: D is unique, and so are an inverse and the solution of an
invertible system.
"""

import random

import pytest

from weilkit.dieudonne import _trace_one_element
from weilkit.intmatrix import det, rref_mod_p, smith_normal_form
from weilkit.padic import WittRingModel

from test_hermite_oracle import random_matrix
from test_intmatrix import matmul
from test_tablering import cases, ring_of


def old_smith_normal_form(rows):
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i1, i2, c):  # row i1 -= c * row i2
        for j in range(nc):
            a[i1][j] -= c * a[i2][j]
        for j in range(nr):
            u[i1][j] -= c * u[i2][j]

    def col_op(j1, j2, c):  # col j1 -= c * col j2
        for i in range(nr):
            a[i][j1] -= c * a[i][j2]
        for i in range(nc):
            v[i][j1] -= c * v[i][j2]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for i in range(nr):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(nc):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    def reduce_block(t):
        """Diagonalize the trailing block starting at (t, t)."""
        while t < min(nr, nc):
            piv = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] != 0 and (
                        piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])
                    ):
                        piv = (i, j)
            if piv is None:
                return
            while piv is not None:
                swap_rows(t, piv[0])
                swap_cols(t, piv[1])
                for i in range(t + 1, nr):
                    if a[i][t]:
                        row_op(i, t, a[i][t] // a[t][t])
                for j in range(t + 1, nc):
                    if a[t][j]:
                        col_op(j, t, a[t][j] // a[t][t])
                rest = [(i, t) for i in range(t + 1, nr) if a[i][t]]
                rest += [(t, j) for j in range(t + 1, nc) if a[t][j]]
                piv = min(rest, key=lambda ij: abs(a[ij[0]][ij[1]]), default=None)
            t += 1

    reduce_block(0)
    n = min(nr, nc)
    while True:
        bad = None
        for i in range(n - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if (x == 0 and y != 0) or (x != 0 and y % x != 0):
                bad = i
                break
        if bad is None:
            break
        row_op(bad, bad + 1, -1)  # row i += row i+1
        reduce_block(bad)

    for i in range(n):
        if a[i][i] < 0:
            for j in range(nc):
                v[j][i] = -v[j][i]
            a[i][i] = -a[i][i]
    return tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v))


def old_zpk_smith(rows, p, k, ncols):
    """Smith form over Z/p^k: (exponents, V, U) with U*A*V = diag(p^exponents)
    mod p^k."""
    q = p ** k
    a = [[c % q for c in row] for row in rows]
    nr = len(a)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]

    def val(x):
        if x == 0:
            return k
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
        u[t], u[bi] = u[bi], u[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        for row in v:
            row[t], row[bj] = row[bj], row[t]
        w = best_v
        unit_inv = pow(a[t][t] // p ** w, -1, q)
        for j in range(t, ncols):
            a[t][j] = (a[t][j] * unit_inv) % q
        for j in range(nr):
            u[t][j] = (u[t][j] * unit_inv) % q
        for i in range(t + 1, nr):
            if a[i][t]:
                quot = (a[i][t] // p ** w) % (p ** (k - w))
                for j in range(t, ncols):
                    a[i][j] = (a[i][j] - quot * a[t][j]) % q
                for j in range(nr):
                    u[i][j] = (u[i][j] - quot * u[t][j]) % q
        for j in range(t + 1, ncols):
            if a[t][j]:
                quot = (a[t][j] // p ** w) % (p ** (k - w))
                for i in range(t, nr):
                    a[i][j] = (a[i][j] - quot * a[i][t]) % q
                for i in range(ncols):
                    v[i][j] = (v[i][j] - quot * v[i][t]) % q
        exps.append(w)
        t += 1
    return exps, v, u


def zpk_solve(rows, rhs, p, k, ncols):
    """One solution x of A x = rhs mod p^k, or None when inconsistent."""
    q = p ** k
    exps, v, u = old_zpk_smith(rows, p, k, ncols)
    nr = len(rows)
    # D y = U rhs with D = diag(p^exps)
    ub = [sum(u[i][j] * rhs[j] for j in range(nr)) % q for i in range(nr)]
    y = [0] * ncols
    for i in range(nr):
        e = exps[i] if i < len(exps) else k
        target = ub[i]
        if e >= k:
            if target % q:
                return None
            continue
        pe = p ** e
        if target % pe:
            return None
        y[i] = (target // pe) % (p ** (k - e))
    return [sum(v[i][j] * y[j] for j in range(ncols)) % q for i in range(ncols)]


def old_inv(ring, u):
    """Inverse of a unit of a `TableRing`: the echelon form of
    (u b_0 .. u b_(d-1) | 1) mod p, then Newton steps x <- x (2 - u x)."""
    d = ring.d
    cols = [ring.mul(u, ring.basis(i)) for i in range(d)]
    ech, piv = rref_mod_p([[col[t] for col in cols] + [ring.one[t]] for t in range(d)], ring.p)
    if piv != list(range(d)):
        raise ZeroDivisionError("not a unit")
    x = tuple(row[d] for row in ech)
    two = ring.scal(2, ring.one)
    prec = 1
    while prec < ring.k:
        x = ring.mul(x, ring.sub(two, ring.mul(u, x)))
        prec *= 2
    assert ring.mul(u, x) == ring.one
    return x


@pytest.mark.parametrize("seed", range(4))
def test_smith_matches_elimination_oracle(seed):
    """800 seeded matrices a seed: the same D, and new transforms that are
    unimodular with U M V = D."""
    rng = random.Random(seed)
    for _ in range(800):
        m = random_matrix(rng)
        u, d, v = smith_normal_form(m)
        assert d == old_smith_normal_form(m)[1]
        assert matmul(matmul(u, m), v) == d
        assert abs(det(u)) == abs(det(v)) == 1


def test_smith_edge_matrices():
    """Already diagonal with a negative entry or a broken chain, zero rows
    and columns first, and the empty shapes."""
    for m in (
        [[-3], [0]], [[-2, 0], [0, 3]], [[2, 0], [0, -4]], [[0, 0], [0, 3]],
        [[2, 0, 0], [0, 4, 0], [0, 0, 3]], [[0, 0, 0], [0, 0, 5]], [[0], [0], [7]],
        [[6, 0], [0, 0], [0, 4]], [[5, -7]], [[0]], [], [[], []],
    ):
        u, d, v = smith_normal_form(m)
        assert d == old_smith_normal_form(m)[1]
        if m and m[0]:
            assert matmul(matmul(u, m), v) == d
            assert abs(det(u)) == abs(det(v)) == 1


@pytest.mark.parametrize("f,p", cases())
def test_table_ring_inverse_matches_oracle(f, p):
    """Every element with coordinates in [0, p), that is every element at
    k = 1, or 0 and 999 seeded others where there are more than 1,000; at
    k = 4 each gets a seeded multiple of p added to every coordinate."""
    rng = random.Random(10 * p + len(f))
    for k in (1, 4):
        ring = ring_of(f, p, k)
        d = ring.d
        codes = range(p ** d) if p ** d <= 1000 else [0] + rng.sample(range(1, p ** d), 999)
        units = 0
        for code in codes:
            u = ring.reduce([(code // p ** i) % p + p * rng.randrange(p ** (k - 1))
                             for i in range(d)])
            try:
                expected = old_inv(ring, u)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    ring.inv(u)
                continue
            assert ring.inv(u) == expected
            units += 1
        assert 0 < units < len(codes)


# every (p, r) with p <= 13, r <= 7 and p^r <= 4096, at five precisions
WITT_MODELS = [
    (p, r, k)
    for p in (2, 3, 5, 7, 11, 13)
    for r in range(1, 8)
    if p ** r <= 4096
    for k in (1, 2, 3, 5, 8)
]


def old_trace_one_element(witt):
    """w0 with trace 1, by solving the r x r system of the traces of the
    t^j mod p^k."""
    r, p, k = witt.r, witt.p, witt.k
    if r == 1:
        return witt.one()
    rows = []
    for j in range(r):
        e = witt.from_coords([1 if t == j else 0 for t in range(r)])
        tr = witt.zero()
        for i in range(r):
            tr = witt.add(tr, witt.sigma(e, i))
        rows.append(tr)
    mat = [[rows[j][i] for j in range(r)] for i in range(r)]
    sol = zpk_solve(mat, [1] + [0] * (r - 1), p, k, r)
    assert sol is not None
    return witt.from_coords(sol)


def test_trace_one_element_matches_solve():
    """145 Witt models, among them p | r, where Tr(1) = r is no unit and the
    closed form takes a later t^j."""
    assert len(WITT_MODELS) == 145
    later = 0  # models whose w0 is c t^j with j > 0
    for p, r, k in WITT_MODELS:
        witt = WittRingModel(p, r, k)
        w0 = _trace_one_element(witt)
        assert w0 == old_trace_one_element(witt)
        trace = witt.zero()
        for i in range(r):
            trace = witt.add(trace, witt.sigma(w0, i))
        assert trace == witt.one()
        later += w0[0] == 0
    assert later == sum(r % p == 0 for p, r, _ in WITT_MODELS) == 30
