import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from weilkit.supersingular import (
    GaussInt,
    LatticeModP,
    VerificationError,
    _congruent,
    center_index_in_gaussian_scalars,
    coords_to_matrix,
    dieudonne_matrix_order,
    endomorphism_order,
    enumerate_stable_lattices,
    fiber_product_lattice,
    glued_lattice,
    lattice_class_count,
    mat_mul,
    matrix_to_coords,
    psi_frobenius,
    psi_verschiebung,
    standard_module_action,
    verify_psi_relations,
)


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


def test_matrix_order_index():
    for p in (3, 7):
        order = dieudonne_matrix_order(p)
        assert order.index == p ** 4
        assert order.contains(psi_frobenius(p))
        assert order.contains(psi_verschiebung(p))


def congruence_predicate(m, p):
    """p | c and a = conj(d) mod p, for the matrix m = [[a, b], [c, d]]."""
    return _congruent(matrix_to_coords(m), p)


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
        assert order.contains(m) and order.contains(prod)


def test_predicate_and_lattice_agree():
    rng = random.Random(17)
    p = 3
    order = dieudonne_matrix_order(p)
    for _ in range(1000):
        coords = [rng.randint(-(p ** 2), p ** 2) for _ in range(8)]
        m = coords_to_matrix(coords)
        assert order.contains(m) == congruence_predicate(m, p)


def test_integer_coordinates_match_gaussian_matrices():
    """The order checks multiply and test the predicate on the 8 integer
    coordinates; GaussInt matrix arithmetic is the reference."""
    from weilkit.supersingular import _congruent, _coord_mul

    rng = random.Random(29)
    for _ in range(500):
        p = rng.choice((3, 7, 11))
        x, y = ([rng.randint(-2 * p, 2 * p) for _ in range(8)] for _ in range(2))
        if rng.random() < 0.5:  # bias towards the order, where the predicate holds
            x[4], x[5], x[6], x[7] = p * x[4], p * x[5], x[0] + p * x[6], -x[1] + p * x[7]
        mx, my = coords_to_matrix(x), coords_to_matrix(y)
        assert _coord_mul(x, y) == matrix_to_coords(mat_mul(mx, my))
        (a, _), (c, d) = mx
        want = c.re % p == 0 and c.im % p == 0 and (a.re - d.re) % p == 0 and (a.im + d.im) % p == 0
        assert _congruent(x, p) == want


def test_endomorphism_order_center():
    for p in (3, 7):
        order, center = endomorphism_order(p)
        assert order.index == p ** 4
        assert center_index_in_gaussian_scalars(center, p) == p


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
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: index is 243, expected p^4\n", flags
    assert issubclass(VerificationError, AssertionError)
