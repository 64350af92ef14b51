"""Oracle test for intmatrix's one Hermite core.

`hermite_rows` is a row HNF without a transform; `hermite_normal_form` runs
it on [M | I] and `kernel_basis` on [M^T | I].  The oracle below is the
earlier `kernel_basis`, changed only to read integer rows: the last
columns of the Smith transform V.  Two kernel bases agree when their
Hermite forms do.  The inputs are seeded integer matrices: tall, wide,
square, rank-deficient products, and matrices with zero and repeated
rows.
"""

import random

import pytest

from weilkit.intmatrix import (
    det,
    hermite_normal_form,
    hermite_rows,
    kernel_basis,
    smith_normal_form,
)

from test_intmatrix import matmul


def old_kernel_basis(m):
    """Basis of the integer kernel {x : M x = 0}, as rows."""
    u, d, v = smith_normal_form(m)
    ncols = len(v)
    rank = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    cols = []
    for j in range(rank, ncols):
        cols.append(tuple(v[i][j] for i in range(ncols)))
    return cols


def _entries(rng, nr, nc, span=9):
    return [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)]


def random_matrix(rng):
    """Tall, wide or square; a third of them a product through a narrow
    middle (rank below both sizes); some with zero and repeated rows."""
    nr, nc = rng.randint(1, 8), rng.randint(1, 8)
    if rng.random() < 0.35:
        k = rng.randint(1, max(1, min(nr, nc) - 1))
        rows = matmul(_entries(rng, nr, k, 4), _entries(rng, k, nc, 4))
        rows = [list(r) for r in rows]
    else:
        rows = _entries(rng, nr, nc)
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * nc)
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    if rng.random() < 0.2:
        rows = [[c * 6 for c in r] for r in rows]
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_kernel_and_hermite_match_oracle(seed):
    rng = random.Random(seed)
    shapes = set()
    for _ in range(150):
        m = random_matrix(rng)
        nrows, ncols = len(m), len(m[0])
        h, u = hermite_normal_form(m)
        core = hermite_rows(m)
        rank = len(core)
        shapes.add((nrows > ncols, nrows < ncols, rank < min(nrows, ncols)))
        # the transform-free core is the H of hermite_normal_form
        assert list(h) == core + [(0,) * ncols] * (nrows - rank)
        assert matmul(u, m) == h
        assert abs(det(u)) == 1
        # kernels from the core and from the Smith oracle span one lattice
        new, old = kernel_basis(m), old_kernel_basis(m)
        assert len(new) == len(old) == ncols - rank
        assert hermite_rows(new) == hermite_rows(old)
        for vec in new:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
    # tall, wide, square, and rank-deficient inputs all occur
    assert {s[:2] for s in shapes} == {(True, False), (False, True), (False, False)}
    assert any(s[2] for s in shapes)


def test_edge_matrices():
    zero = [[0, 0, 0], [0, 0, 0]]
    assert hermite_rows(zero) == []
    assert hermite_rows(kernel_basis(zero)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    unit = [[0, -2, 4], [0, 3, -6]]
    assert hermite_rows(unit) == [(0, 1, -2)]
    assert hermite_rows(kernel_basis(unit)) == hermite_rows(old_kernel_basis(unit))
    h, u = hermite_normal_form(unit)
    assert h == ((0, 1, -2), (0, 0, 0)) and matmul(u, unit) == h
