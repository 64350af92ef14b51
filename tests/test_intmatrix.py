import random

import pytest

from weilkit.intmatrix import (
    det,
    hermite_normal_form,
    kernel_basis,
    nullspace_mod_p,
    smith_normal_form,
    zpk_canonical,
    zpk_smith,
)


def matmul(a, b):
    """The product of two integer-row matrices, as a tuple of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _check_snf(m):
    u, d, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = tuple(d[i][i] for i in range(min(len(d), len(d[0]))))
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def _reduction_oracle(m):
    """Exhaustive elementary row/column reduction without transform tracking.

    Each pass moves the entry of least absolute value in the trailing block
    to the pivot and clears its row and column by division with remainder;
    a nonzero remainder is smaller than the pivot, so the next pass picks a
    smaller one, and the passes end."""
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if a else 0
    for t in range(min(nr, nc)):
        while True:
            cells = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
            if not cells:
                break
            _, pi, pj = min(cells)
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for i in range(t + 1, nr):
                q = a[i][t] // a[t][t]
                for j in range(t, nc):
                    a[i][j] -= q * a[t][j]
            for j in range(t + 1, nc):
                q = a[t][j] // a[t][t]
                for i in range(t, nr):
                    a[i][j] -= q * a[i][t]
            if not any(a[i][t] for i in range(t + 1, nr)) and not any(a[t][t + 1:]):
                break
    from math import gcd

    diag = [abs(a[i][i]) for i in range(min(nr, nc))]
    # oracle fixes the chain by gcd/lcm folding
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            l = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, l
    return sorted(diag)[: len(diag)]


def test_snf_examples():
    m = [[2, 4], [6, 8]]
    diag = _check_snf(m)
    assert tuple(diag) == (2, 4)
    assert _check_snf(identity(3)) == (1, 1, 1)
    assert _check_snf([[0, 0], [0, 0]]) == (0, 0)


def test_snf_rank_deficient_tall():
    # rank 5 with a zero and a repeated row: swapping every remainder into
    # the pivot at once grew the entries to thousands of bits
    rows = [
        [-20, 16, 4, 18, 5, -3, -11],
        [-8, -9, -19, 21, 13, -17, -7],
        [0, 0, 0, 0, 0, 0, 0],
        [22, -1, 7, -17, -1, 17, 3],
        [23, -50, -23, 22, 9, -28, -12],
        [19, -2, 17, 4, -19, 34, 4],
        [7, 5, 0, 4, 0, 18, 2],
        [-28, 37, 11, 15, 9, 7, -13],
        [23, -50, -23, 22, 9, -28, -12],
    ]
    diag = _check_snf(rows)
    assert sum(1 for x in diag if x) == 5
    assert sorted(abs(x) for x in diag) == _reduction_oracle(rows)
    assert _check_snf([[6 * c for c in r] for r in rows])[0] == 6 * diag[0]


def test_snf_random():
    rng = random.Random(5)
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if nr > 2 and rng.random() < 0.5:
            rows[rng.randrange(nr)] = [0] * nc
            rows[rng.randrange(nr)] = list(rows[rng.randrange(nr)])
        m = rows
        diag = _check_snf(m)
        oracle = _reduction_oracle(m)
        assert sorted(abs(x) for x in diag) == sorted(oracle)
        if nr == nc:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det(m))


def test_det():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [3, 4]]) == -2
    assert det(identity(4)) == 1
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    with pytest.raises(ValueError, match="square matrix required"):
        det([[1, 2, 3], [4, 5, 6]])


def test_ragged_rows_refused():
    ragged = [[1, 2], [3]]
    for fn in (det, smith_normal_form, hermite_normal_form, kernel_basis):
        with pytest.raises(ValueError, match="ragged rows"):
            fn(ragged)


def test_hnf():
    m = [[2, 4], [6, 8]]
    h, u = hermite_normal_form(m)
    assert matmul(u, m) == h
    assert abs(det(u)) == 1
    assert h[0][0] > 0
    # echelon: below-diagonal zero
    assert h[1][0] == 0


def test_hnf_canonical_for_equal_lattices():
    # two generating sets of the same row lattice
    m1 = [[1, 2], [0, 3]]
    m2 = [[1, 5], [1, 2], [0, 3]]
    h1, _ = hermite_normal_form(m1)
    h2, _ = hermite_normal_form(m2)
    rows1 = [r for r in h1 if any(r)]
    rows2 = [r for r in h2 if any(r)]
    assert rows1 == rows2


def test_kernel():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(m[i][j] * vec[j] for j in range(3)) == 0 for i in range(2)
        )


def test_nullspace_mod_p():
    basis = nullspace_mod_p([[1, 1, 0], [0, 1, 1]], 3, 3)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]) % 3 == 0 and (v[1] + v[2]) % 3 == 0


def test_zpk_canonical_module_equality():
    p, k = 3, 3
    gens1 = [(1, 3), (0, 9)]
    gens2 = [(1, 12), (0, 9), (3, 9)]
    assert zpk_canonical(gens1, p, k) == zpk_canonical(gens2, p, k)
    gens3 = [(1, 0), (0, 1)]
    assert zpk_canonical(gens1, p, k) != zpk_canonical(gens3, p, k)


def _valuation(x, p):
    n = 0
    while x % p == 0:
        x //= p
        n += 1
    return n


def test_zpk_smith_against_the_smith_form_over_z():
    """The exponents are min(v_p(d_i), k) for the d_i of the Smith form over
    Z, V is invertible mod p, and column j of A V is 0 mod p^(e_j)."""
    rng = random.Random(7)
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        p, k = rng.choice((2, 3, 5)), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5:  # entries with a common factor of p
            rows = [[p ** rng.randint(0, 2) * c for c in row] for row in rows]
        exps, v = zpk_smith(rows, p, k, nc)
        _, d, _ = smith_normal_form(rows)
        diag = [d[i][i] for i in range(min(nr, nc))]
        padded = exps + [k] * (min(nr, nc) - len(exps))
        assert padded == [min(_valuation(x, p), k) if x else k for x in diag]
        assert det(v) % p
        q = p ** k
        for j in range(nc):
            e = exps[j] if j < len(exps) else k
            col = [sum(a * v[i][j] for i, a in enumerate(row)) % q for row in rows]
            assert all(c % p ** e == 0 for c in col)
