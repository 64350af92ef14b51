"""Oracle tests for the cyclic-submodule stable-lattice enumerator.

`supersingular.enumerate_stable_lattices` closes one cyclic submodule per
line over a field inside the generated algebra (F_(p^2) when a generator
squares to -1 and p = 3 mod 4, else F_p) and saturates {0} under sums with
them.  Two oracles below are earlier routes, kept verbatim: the brute force
re-closes a submodule for every vector of F_p^dim outside each subspace found
so far, and the all-points route closes one cyclic submodule per projective
point of F_p^dim.
"""

import random
from itertools import product

import pytest

from weilkit.intmatrix import rref_mod_p
from weilkit.supersingular import (
    LatticeModP,
    _line_seeds,
    enumerate_stable_lattices,
    standard_module_action,
)


def brute_force_stable_lattices(action):
    """All subspaces of F_p^dim stable under every generator, by closing
    cyclic submodules and saturating under sums; returns (all_subspaces,
    proper_nontrivial), each as canonical echelon-row tuples."""
    if action.dim > 10:
        raise ValueError("ambient dimension capped at 10")
    p, n = action.p, action.dim

    def canon(rows):
        ech, _ = rref_mod_p([list(r) for r in rows], p)
        return tuple(tuple(r) for r in ech)

    def closure(vectors):
        rows = [list(v) for v in vectors]
        ech, _ = rref_mod_p(rows, p)
        frontier = [tuple(r) for r in ech]
        space = list(frontier)
        while frontier:
            new = []
            for v in frontier:
                for g in action.generators:
                    w = action.act(g, v)
                    ech2, _ = rref_mod_p([list(r) for r in space] + [list(w)], p)
                    if len(ech2) > len(space):
                        space = [tuple(r) for r in ech2]
                        new.append(w)
            frontier = new
        return canon(space)

    def members(rows):
        """All vectors of the subspace spanned by echelon rows."""
        from itertools import product

        out = []
        for coeffs in product(range(p), repeat=len(rows)):
            v = tuple(
                sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n)
            )
            out.append(v)
        return out

    all_vectors = []
    from itertools import product as iproduct

    for digits in iproduct(range(p), repeat=n):
        if any(digits):
            all_vectors.append(tuple(digits))

    zero_space = ()
    found = {zero_space}
    queue = [zero_space]
    while queue:
        base = queue.pop()
        base_members = set(members(base)) if base else {tuple([0] * n)}
        for v in all_vectors:
            if v in base_members:
                continue
            bigger = closure(list(base) + [v])
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    all_sorted = sorted(found, key=lambda rows: (len(rows), rows))
    proper = [rows for rows in all_sorted if 0 < len(rows) < n]
    return all_sorted, proper


def all_points_stable_lattices(action):
    """All subspaces of F_p^dim stable under every generator, from one cyclic
    submodule C(v) per projective point v (first nonzero coordinate 1);
    returns (all_subspaces, proper_nontrivial), each as canonical echelon-row
    tuples."""
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


def _invariance_actions():
    """The shuffled and the conjugated standard actions at p = 3, built as
    in test_supersingular.test_stable_lattices_invariance (seed 3)."""
    rng = random.Random(3)
    p = 3
    action = standard_module_action(p)
    gens = list(action.generators)
    rng.shuffle(gens)
    shuffled = LatticeModP(p=p, dim=4, generators=tuple(gens))
    while True:
        m = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        ech, _ = rref_mod_p(m, p)
        if len(ech) == 4:
            break
    aug = [list(row) + [1 if i == j else 0 for j in range(4)] for i, row in enumerate(m)]
    ech, _ = rref_mod_p(aug, p)
    inv = [row[4:] for row in ech]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(4)) % p for j in range(4)] for i in range(4)]

    conjugated = LatticeModP(
        p=p,
        dim=4,
        generators=tuple(tuple(map(tuple, matmul(matmul(m, g), inv))) for g in action.generators),
    )
    return shuffled, conjugated


def _random_action(rng):
    """A seeded action with 0-3 sparse or dense generators on a scalar
    diagonal, so that the lattices range from {0, V} to every subspace.
    F_3^4 and F_5^3 are drawn at a sixth of the weight of the other spaces:
    the oracle takes up to 0.5 s on an action there."""
    cells = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
             (5, 1), (5, 2), (5, 3)]
    p, dim = rng.choices(cells, weights=[1 if cell in ((3, 4), (5, 3)) else 6 for cell in cells])[0]
    gens = []
    for _ in range(rng.randint(0, 3)):
        density = rng.choice((0.2, 0.4, 1.0))
        scalar = rng.randrange(p)
        gens.append(tuple(
            tuple(scalar if i == j else (rng.randrange(p) if rng.random() < density else 0)
                  for j in range(dim))
            for i in range(dim)
        ))
    return LatticeModP(p=p, dim=dim, generators=tuple(gens))


def _full_and_zero(p, dim):
    units = tuple(
        tuple(tuple(1 if (i, j) == (a, b) else 0 for j in range(dim)) for i in range(dim))
        for a in range(dim) for b in range(dim)
    )
    zero = tuple(tuple(0 for _ in range(dim)) for _ in range(dim))
    return (LatticeModP(p=p, dim=dim, generators=units),
            LatticeModP(p=p, dim=dim, generators=(zero,)))


def test_cyclic_enumerator_matches_brute_force():
    actions = [standard_module_action(3), standard_module_action(7)]
    actions += _full_and_zero(3, 2) + _full_and_zero(2, 4) + _full_and_zero(5, 2)
    actions += _invariance_actions()
    rng = random.Random(20240)
    drawn = set()
    while len(drawn) < 150:  # distinct actions: 0 generators repeat often
        drawn.add(_random_action(rng))
    actions += sorted(drawn, key=repr)
    sizes = set()
    for action in actions:
        want = brute_force_stable_lattices(action)
        assert enumerate_stable_lattices(action) == want, action
        sizes.add(len(want[0]))
    # the sample reaches lattices from the bare {0, V} to every subspace
    assert 2 in sizes and max(sizes) >= 67


def _takes_line_path(action):
    """Whether the seeds are the (p^dim - 1)/(p^2 - 1) lines over F_(p^2)."""
    p, n = action.p, action.dim
    return sum(1 for _ in _line_seeds(action)) == (p ** n - 1) // (p * p - 1)


def _j(p):
    """[[0, -1], [1, 0]] mod p: the scalar i on F_p^2 = F_p[i], with j^2 = -1."""
    return ((0, p - 1), (1, 0))


def _line_path_actions():
    """Named actions with a generator J, J^2 = -1, at p = 3 mod 4: the
    standard actions up to p = 23, the shuffled and conjugated ones, and j
    at dim 2 (m = 1) with a rank-one generator."""
    actions = [("standard-%d" % p, standard_module_action(p)) for p in (3, 7, 11, 19, 23)]
    actions += zip(("shuffled-3", "conjugated-3"), _invariance_actions())
    for p in (3, 7):
        gens = (((1, 2), (0, 0)), _j(p))
        actions.append(("dim2-%d" % p, LatticeModP(p=p, dim=2, generators=gens)))
    return actions


@pytest.mark.parametrize("name, action", _line_path_actions())
def test_line_seeds_match_all_points(name, action):
    assert _takes_line_path(action), name
    want = all_points_stable_lattices(action)
    assert enumerate_stable_lattices(action) == want
    if action.p ** action.dim <= 81:
        assert brute_force_stable_lattices(action) == want


def test_line_path_needs_p_3_mod_4():
    """At p = 5, x^2 + 1 splits and j has the eigenlines spanned by (1, 2)
    and (1, 3): one seed per F_(p^2)-line would miss them."""
    action = LatticeModP(p=5, dim=2, generators=(_j(5),))
    assert not _takes_line_path(action)
    all_subspaces, proper = enumerate_stable_lattices(action)
    assert all_subspaces == brute_force_stable_lattices(action)[0]
    assert proper == [((1, 2),), ((1, 3),)]
