"""The `Fraction` coordinates of `weilkit.padicorders` as an oracle.

Until `intmatrix.IntegerLattice` took them over, `padicorders.Order` found
its multiplication table and the coordinates of 1 and x by solving each
vector in `Fraction` arithmetic against the inverse of its basis.  Those
methods are kept below verbatim (the class renamed `FractionOrder`, the
basis inverse by `Fraction` Gauss-Jordan elimination), and on every round of
the p-maximal-order iteration the integer route must give the same table and
the same coordinates of 1 and x, on the pinned round-2 classes and on a
seeded sample of the acceptance grid's round-2 classes.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_padic import GRID_ROUND2_SAMPLE, ROUND2_CLASSES
from weilkit import padicorders
from weilkit.checks import verify
from weilkit.intpoly import IntPolynomial
from weilkit.weil import GlobalContext


def _inverse_of_lattice(int_rows, den):
    """Inverse of the basis matrix int_rows / den by Gauss-Jordan elimination
    over Q."""
    n = len(int_rows)
    a = [
        [Fraction(c, den) for c in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(int_rows)
    ]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [c * inv for c in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


class FractionOrder:
    """The `Fraction` methods of the old `padicorders.Order`, on the field,
    rows and denominator of a library order."""

    def __init__(self, order):
        self.field = order.field
        self.rows = [list(r) for r in order.lattice.rows]
        self.den = order.lattice.den
        self.d = order.d
        self._inv = None
        self._table = None

    def basis_fractions(self):
        return [[Fraction(c, self.den) for c in row] for row in self.rows]

    def coords(self, vec):
        """Coordinates of a power-basis Fraction vector in the order basis."""
        if self._inv is None:
            self._inv = _inverse_of_lattice(self.rows, self.den)
        inv = self._inv
        # vec * inv (row vector times matrix): basis rows B, solving x B = vec
        return [
            sum(Fraction(vec[j]) * inv[j][i] for j in range(self.d))
            for i in range(self.d)
        ]

    def multiplication_table(self):
        """table[i][j] = integer coordinates of b_i b_j in the order basis."""
        if self._table is not None:
            return self._table
        basis = self.basis_fractions()
        table = []
        for i in range(self.d):
            row = []
            for j in range(self.d):
                coords = self.coords(self.field.mul(basis[i], basis[j]))
                ints = []
                for c in coords:
                    verify(c.denominator == 1, "not multiplicatively closed")
                    ints.append(int(c))
                row.append(ints)
            table.append(row)
        self._table = table
        return table

    def one_coords(self):
        out = []
        for c in self.coords([Fraction(1)] + [Fraction(0)] * (self.d - 1)):
            verify(c.denominator == 1, "1 outside the order")
            out.append(int(c))
        return out

    def x_coords(self):
        vec = [Fraction(0)] * self.d
        if self.d > 1:
            vec[1] = Fraction(1)
        else:
            vec[0] = Fraction(-self.field.poly.coeffs[0])
        out = []
        for c in self.coords(vec):
            verify(c.denominator == 1, "x outside the order")
            out.append(int(c))
        return out


def _rounds(monkeypatch, q, coeffs):
    """The orders of every round of the p-maximal-order iteration, the last
    (p-maximal) one included: each goes through `multiplier_ring` once."""
    seen = []
    honest = padicorders.multiplier_ring

    def spy(order, *args):
        seen.append(order)
        return honest(order, *args)

    monkeypatch.setattr(padicorders, "multiplier_ring", spy)
    ctx = GlobalContext.from_q(q)
    padicorders.places_from_order(IntPolynomial(coeffs), ctx.p, ctx.r)
    return seen


@pytest.mark.parametrize(
    "q, coeffs",
    ROUND2_CLASSES + GRID_ROUND2_SAMPLE,
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else "q%d" % v,
)
def test_exact_division_matches_fraction_coords(monkeypatch, q, coeffs):
    rng = random.Random(repr((q, coeffs)))
    orders = _rounds(monkeypatch, q, coeffs)
    assert len(orders) >= 2
    for order in orders:
        old = FractionOrder(order)
        assert [list(map(list, row)) for row in order.multiplication_table()] == (
            old.multiplication_table()
        )
        assert order.one_coords() == old.one_coords()
        assert order.x_coords() == old.x_coords()
        # an integer vector over den lies in the lattice exactly when the
        # Fraction solve gives integer coordinates
        lattice, d = order.lattice, order.d
        inside = [rng.randint(-9, 9) for _ in range(d)]
        vec = [sum(c * row[j] for c, row in zip(inside, lattice.rows)) for j in range(d)]
        assert lattice.exact_coords(vec, lattice.den) == inside
        vec[rng.randrange(d)] += 1
        want = old.coords([Fraction(c, lattice.den) for c in vec])
        got = lattice.exact_coords(vec, lattice.den)
        if all(c.denominator == 1 for c in want):
            assert got == want
        else:
            assert got is None


NOT_AN_ORDER = """
from weilkit.intpoly import IntPolynomial
from weilkit.padicorders import Order, _Field

field = _Field(IntPolynomial((9, 0, 3, 0, 1)))
unit = [[int(i == j) for j in range(4)] for i in range(4)]
cases = [
    (Order(field, unit, 2), "multiplication_table"),  # (1/2) Z[x]
    (Order(field, [[3 * c for c in row] for row in unit], 1), "one_coords"),  # 3 Z[x]
    (Order(field, [[3 * c for c in row] for row in unit], 1), "x_coords"),
]
for order, method in cases:
    try:
        getattr(order, method)()
    except AssertionError as e:
        print("%s: %s" % (type(e).__name__, e))
    else:
        print("returned")
"""


def test_lattice_checks_survive_optimized_mode():
    """(1/2) Z[x] is not closed under multiplication, and 3 Z[x] holds
    neither 1 nor x; all three are caught under `python -O` too."""
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", NOT_AN_ORDER],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == (
            "VerificationError: order not multiplicatively closed\n"
            "VerificationError: 1 outside the order\n"
            "VerificationError: x outside the order\n"
        ), flags
