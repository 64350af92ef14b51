"""Oracles for the routes example-sec9 no longer takes.

- R_pi's index in Z[x/p]: `cli._r_pi_index` reads it from the closed form;
  the oracle builds R_pi and takes `index_in` against the Gaussian basis.
- Membership in the congruence order: `dieudonne_matrix_order` checks
  closure by the predicate alone; the oracle is back-substitution on the
  Hermite rows, `OrderPresentation.contains`.
- The center: `_center_lattice` solves for the centralizer of psi(F) and
  diag(i, -i); the oracle takes the kernel of every commutator read from
  the closure table.
"""

from fractions import Fraction

import pytest

from weilkit.central_orders import build_order, index_in
from weilkit.cli import _r_pi_index
from weilkit.intmatrix import hermite_rows, kernel_basis
from weilkit.intpoly import IntPolynomial
from weilkit.supersingular import (
    _center_lattice,
    _congruent,
    dieudonne_matrix_order,
    endomorphism_order,
)
from weilkit.weil import GlobalContext, validate_weil, weil_set

PRIMES = (3, 7, 11, 43, 127)


def primes_3_mod_4(limit):
    return [p for p in range(3, limit + 1, 4) if all(p % d for d in range(2, p))]


def built_r_pi_index(p):
    """[Z[x/p] : R_pi] from R_pi itself: build_order, then index_in."""
    cls = validate_weil(IntPolynomial((p * p, 0, 1)), GlobalContext(p, 2))
    gaussian = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, p)]]
    return index_in(build_order(weil_set([cls])), gaussian)


def test_r_pi_index_closed_form_matches_the_built_order():
    primes = primes_3_mod_4(127)
    assert len(primes) == 16 and primes[-1] == 127
    for p in primes:
        assert _r_pi_index(p) == built_r_pi_index(p) == p, p


@pytest.mark.parametrize("p", PRIMES)
def test_predicate_matches_back_substitution_on_the_closure_table(p):
    order = dieudonne_matrix_order(p)
    products = [prod for row in order.table for prod in row]
    assert len(products) == 64
    units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    for prod in products:
        assert _congruent(prod, p) and order.contains(prod)
        # one step off the product: half of these leave the order
        for e in units:
            moved = tuple(x + y for x, y in zip(prod, e))
            assert _congruent(moved, p) == order.contains(moved)


def table_center_lattice(order):
    """The center as the kernel of the commutators b_j b_t - b_t b_j of
    every pair of basis matrices, 512 differences read from the closure
    table."""
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


@pytest.mark.parametrize("p", PRIMES)
def test_two_generator_centralizer_matches_the_table_center(p):
    order = dieudonne_matrix_order(p)
    center = _center_lattice(order)
    assert center == table_center_lattice(order)
    assert center == endomorphism_order(p)[1]
