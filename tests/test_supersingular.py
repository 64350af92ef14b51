import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from weilkit.intmatrix import hermite_rows, kernel_basis
from weilkit.supersingular import (
    LatticeModP,
    VerificationError,
    _center_lattice,
    _congruent,
    _coord_mul,
    _semilinear,
    center_index_in_gaussian_scalars,
    dieudonne_matrix_order,
    endomorphism_order,
    enumerate_stable_lattices,
    fiber_product_lattice,
    glued_lattice,
    lattice_class_count,
    psi_frobenius,
    psi_verschiebung,
    standard_module_action,
    verify_psi_relations,
)


# -- reference model: 2x2 matrices of Gaussian integers ----------------------


class GaussInt:
    """Gaussian integer a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = int(re)
        self.im = int(im)

    def __add__(self, other):
        return GaussInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return GaussInt(self.re, -self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im


def mat_mul(m1, m2):
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return (
        (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
        (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2),
    )


def matrix_to_coords(m):
    (a, b), (c, d) = m
    return (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im)


def coords_to_matrix(v):
    return (
        (GaussInt(v[0], v[1]), GaussInt(v[2], v[3])),
        (GaussInt(v[4], v[5]), GaussInt(v[6], v[7])),
    )


class SymGauss:
    """Element of Z[i][A, Abar]: keys (deg_A, deg_Abar) -> GaussInt; the
    conjugation swaps A with Abar and conjugates coefficients."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v != GaussInt(0)}

    @classmethod
    def const(cls, g):
        return cls({(0, 0): g})

    @classmethod
    def sym_a(cls):
        return cls({(1, 0): GaussInt(1)})

    def conj(self):
        return SymGauss({(j, i): v.conj() for (i, j), v in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, GaussInt(0)) + v
        return SymGauss(out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, GaussInt(0)) + v1 * v2
        return SymGauss(out)

    def __eq__(self, other):
        return self.terms == other.terms


def symbolically_semilinear(m):
    """m diag(A, conj A) = diag(conj A, A) m over Z[i][A, Abar], A symbolic."""
    a = SymGauss.sym_a()
    zero = SymGauss({})
    sym = tuple(tuple(SymGauss.const(x) for x in row) for row in m)
    left = mat_mul(sym, ((a, zero), (zero, a.conj())))
    right = mat_mul(((a.conj(), zero), (zero, a)), sym)
    return all(x == y for r1, r2 in zip(left, right) for x, y in zip(r1, r2))


def run_in_both_modes(script):
    """stdout of `script` under plain python and under `python -O`."""
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    return outs


def test_gauss_arithmetic():
    i = GaussInt(0, 1)
    assert i * i == GaussInt(-1, 0)
    assert (GaussInt(2, 3) * GaussInt(2, -3)) == GaussInt(13, 0)
    assert GaussInt(1, 2).conj() == GaussInt(1, -2)


def test_psi_relations():
    assert verify_psi_relations(3)
    assert verify_psi_relations(7)
    with pytest.raises(ValueError):
        verify_psi_relations(5)
    with pytest.raises(ValueError):
        verify_psi_relations(2)
    for p in (3, 7):
        f = ((GaussInt(0), GaussInt(1)), (GaussInt(0, p), GaussInt(0)))
        v = ((GaussInt(0), GaussInt(0, -1)), (GaussInt(p), GaussInt(0)))
        assert psi_frobenius(p) == matrix_to_coords(f)
        assert psi_verschiebung(p) == matrix_to_coords(v)


def test_semilinearity_basis_check_matches_symbolic_oracle():
    """Checking a = 1 and a = i decides sigma-semilinearity for every a: the
    symbolic check over Z[i][A, Abar] agrees on 600 seeded matrices, half of
    them with a = d = 0, which are exactly the semilinear ones."""
    rng = random.Random(53)
    semilinear = 0
    for k in range(600):
        x = [rng.randint(-9, 9) for _ in range(8)]
        if k % 2:
            x[0] = x[1] = x[6] = x[7] = 0
        want = symbolically_semilinear(coords_to_matrix(x))
        assert _semilinear(x) == want == (x[0] == x[1] == x[6] == x[7] == 0)
        semilinear += want
    assert semilinear >= 300


def test_non_semilinear_psi_is_rejected():
    """psi(F) = [[1, 1], [ip - 1, -1]] with psi(V) = -i psi(F) passes
    FV = VF = p and F^2 + V^2 = 0 but is not sigma-semilinear; the check
    raises under `python -O` too."""
    p = 7
    f = (1, 0, 1, 0, -1, p, -1, 0)
    v = (0, -1, 0, -1, p, 1, 0, 1)
    minus_i = coords_to_matrix((0, -1, 0, 0, 0, 0, 0, -1))
    assert v == matrix_to_coords(mat_mul(minus_i, coords_to_matrix(f)))
    assert _coord_mul(f, v) == _coord_mul(v, f) == (p, 0, 0, 0, 0, 0, p, 0)
    assert not any(x + y for x, y in zip(_coord_mul(f, f), _coord_mul(v, v)))
    script = (
        "import weilkit.supersingular as ss\n"
        "ss.psi_frobenius = lambda p: (1, 0, 1, 0, -1, p, -1, 0)\n"
        "ss.psi_verschiebung = lambda p: (0, -1, 0, -1, p, 1, 0, 1)\n"
        "try:\n"
        "    ss.verify_psi_relations(7)\n"
        "except ss.VerificationError as e:\n"
        "    print('raised:', e)\n"
        "else:\n"
        "    print('returned')\n"
    )
    for out in run_in_both_modes(script):
        assert out == "raised: psi(F) is not sigma-semilinear\n"


def test_matrix_order_index():
    for p in (3, 7):
        order = dieudonne_matrix_order(p)
        assert order.index == p ** 4
        assert order.contains(psi_frobenius(p))
        assert order.contains(psi_verschiebung(p))


def congruence_predicate(m, p):
    """p | c and a = conj(d) mod p, for the matrix m = [[a, b], [c, d]]."""
    (a, _), (c, d) = m
    return c.re % p == 0 and c.im % p == 0 and (a.re - d.re) % p == 0 and (a.im + d.im) % p == 0


def test_predicate_closure_probe():
    rng = random.Random(41)
    p = 3
    order = dieudonne_matrix_order(p)
    count = 0
    while count < 1000:
        coords = [rng.randint(-(p ** 2), p ** 2) for _ in range(8)]
        m = coords_to_matrix(coords)
        if not congruence_predicate(m, p):
            continue
        count += 1
        coords2 = [rng.randint(-(p ** 2), p ** 2) for _ in range(8)]
        m2 = coords_to_matrix(coords2)
        if not congruence_predicate(m2, p):
            continue
        prod = mat_mul(m, m2)
        assert congruence_predicate(prod, p)
        assert order.contains(coords) and order.contains(matrix_to_coords(prod))


def test_predicate_and_lattice_agree():
    rng = random.Random(17)
    p = 3
    order = dieudonne_matrix_order(p)
    for _ in range(1000):
        coords = [rng.randint(-(p ** 2), p ** 2) for _ in range(8)]
        assert order.contains(coords) == congruence_predicate(coords_to_matrix(coords), p)


def test_integer_coordinates_match_gaussian_matrices():
    """The order checks multiply and test the predicate on the 8 integer
    coordinates; GaussInt matrix arithmetic is the reference."""
    rng = random.Random(29)
    for _ in range(500):
        p = rng.choice((3, 7, 11))
        x, y = ([rng.randint(-2 * p, 2 * p) for _ in range(8)] for _ in range(2))
        if rng.random() < 0.5:  # bias towards the order, where the predicate holds
            x[4], x[5], x[6], x[7] = p * x[4], p * x[5], x[0] + p * x[6], -x[1] + p * x[7]
        mx, my = coords_to_matrix(x), coords_to_matrix(y)
        assert _coord_mul(x, y) == matrix_to_coords(mat_mul(mx, my))
        assert _congruent(x, p) == congruence_predicate(mx, p)


def test_endomorphism_order_center():
    for p in (3, 7):
        order, center = endomorphism_order(p)
        assert order.index == p ** 4
        assert center_index_in_gaussian_scalars(center, p) == p


def old_center_lattice(order):
    """The center route before the closure table: 128 fresh products, one
    column of 64 commutator entries per basis matrix, and the kernel of all
    64 rows."""
    columns = []
    for zt in order.basis:
        col = []
        for b in order.basis:
            col.extend(u - v for u, v in zip(_coord_mul(zt, b), _coord_mul(b, zt)))
        columns.append(col)
    kern = kernel_basis(tuple(zip(*columns)))
    out = []
    for vec in kern:
        coords = [0] * 8
        for t, c in enumerate(vec):
            if c:
                for j in range(8):
                    coords[j] += c * order.basis[t][j]
        out.append(tuple(coords))
    return tuple(hermite_rows(out))


@pytest.mark.parametrize("p", (3, 7, 11, 43, 127))
def test_center_from_the_table_matches_the_commutator_route(p):
    order = dieudonne_matrix_order(p)
    assert order.table == tuple(tuple(_coord_mul(x, y) for y in order.basis) for x in order.basis)
    center = _center_lattice(order)
    assert center == old_center_lattice(order)
    assert center == ((1, 0, 0, 0, 0, 0, 1, 0), (0, p, 0, 0, 0, 0, 0, p))
    assert endomorphism_order(p)[1] == center


def test_stable_lattices_standard_module():
    for p in (3, 7):
        count, proper = lattice_class_count(p)
        assert count == 2
        # the unique proper stable subspace is the image of the first
        # standard lattice: the a-coordinate plane
        assert proper == [((1, 0, 0, 0), (0, 1, 0, 0))]


def test_stable_lattices_full_and_zero_action():
    p = 3
    full = LatticeModP(
        p=p,
        dim=2,
        generators=(
            ((1, 0), (0, 0)),
            ((0, 1), (0, 0)),
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1)),
        ),
    )
    _, proper = enumerate_stable_lattices(full)
    assert proper == []
    zero = LatticeModP(p=p, dim=2, generators=(((0, 0), (0, 0)),))
    allsub, _ = enumerate_stable_lattices(zero)
    assert len(allsub) == p + 3


def test_stable_lattices_cap():
    with pytest.raises(ValueError):
        enumerate_stable_lattices(LatticeModP(p=2, dim=11, generators=()))


def test_stable_lattices_invariance():
    """Generator order and basis change do not affect the count."""
    rng = random.Random(3)
    p = 3
    action = standard_module_action(p)
    gens = list(action.generators)
    rng.shuffle(gens)
    shuffled = LatticeModP(p=p, dim=4, generators=tuple(gens))
    _, proper1 = enumerate_stable_lattices(shuffled)
    assert len(proper1) == 1
    # conjugate all generators by a random invertible matrix
    from weilkit.intmatrix import rref_mod_p

    while True:
        m = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        ech, _ = rref_mod_p(m, p)
        if len(ech) == 4:
            break
    # inverse mod p via adjoint-free elimination
    aug = [list(row) + [1 if i == j else 0 for j in range(4)] for i, row in enumerate(m)]
    ech, piv = rref_mod_p(aug, p)
    inv = [row[4:] for row in ech]

    def conj(g):
        def mul(a, b):
            return [
                [sum(a[i][t] * b[t][j] for t in range(4)) % p for j in range(4)]
                for i in range(4)
            ]

        return tuple(tuple(r) for r in mul(mul(m, [list(r) for r in g]), inv))

    conjugated = LatticeModP(
        p=p, dim=4, generators=tuple(conj(g) for g in action.generators)
    )
    _, proper2 = enumerate_stable_lattices(conjugated)
    assert len(proper2) == len(proper1) == 1


def test_fiber_product_spec_cases():
    rep = glued_lattice(3)
    assert rep.witt_colength == 1
    assert rep.index == 9
    rep7 = glued_lattice(7, dieudonne_matrix_order(7))
    assert rep7.witt_colength == 1 and rep7.index == 49
    with pytest.raises(ValueError):
        glued_lattice(7, dieudonne_matrix_order(3))


def test_fiber_product_identity_congruence():
    # diagonal-type sublattice of colength 1: same lattice, same map
    p = 3
    basis = [(1, 0), (0, 1)]
    mp = [[1, 0]]
    rep = fiber_product_lattice(basis, mp, basis, mp, p, residue_dim=1)
    assert rep.witt_colength == 1
    assert rep.index == p


def test_fiber_product_rejects_mismatch():
    p = 3
    with pytest.raises(ValueError):
        fiber_product_lattice(
            [(1, 0), (0, 1)], [[1, 0]], [(1, 0), (0, 1)], [[1, 0], [0, 1]], p, 1
        )
    with pytest.raises(ValueError):
        fiber_product_lattice(
            [(1, 0), (0, 1)], [[0, 0]], [(1, 0), (0, 1)], [[0, 0]], p, 1
        )
    # every row of map_i needs one entry per row of basis_i: a wider row once
    # passed as a map that is zero on the lattice, a shorter one raised
    # IndexError
    basis = [(1, 0), (0, 1)]
    for wrong in ([[0, 0, 1]], [[1]]):
        with pytest.raises(ValueError, match="one entry per basis row"):
            fiber_product_lattice(basis, wrong, basis, [[1, 0]], p, 1)
        with pytest.raises(ValueError, match="one entry per basis row"):
            fiber_product_lattice(basis, [[1, 0]], basis, wrong, p, 1)


def test_checks_survive_optimized_mode():
    """A wrong congruence-lattice index is caught under `python -O` too."""
    script = (
        "import weilkit.supersingular as ss\n"
        "real = ss._congruence_lattice\n"
        "def wrong(p):\n"
        "    rows, index = real(p)\n"
        "    return rows, index * p\n"
        "ss._congruence_lattice = wrong\n"
        "try:\n"
        "    ss.endomorphism_order(3)\n"
        "except ss.VerificationError as e:\n"
        "    print('raised:', e)\n"
        "else:\n"
        "    print('returned')\n"
    )
    for out in run_in_both_modes(script):
        assert out == "raised: index is 243, expected p^4\n"
    assert issubclass(VerificationError, AssertionError)
