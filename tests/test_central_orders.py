import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weilkit import central_orders
from weilkit.central_orders import (
    build_order,
    connected_components,
    index_in,
    product_embedding_index,
    quotient_map,
)
from weilkit.checks import VerificationError
from weilkit.intmatrix import rref_mod_p
from weilkit.intpoly import IntPolynomial
from weilkit.weil import GlobalContext, enumerate_weil, slope_type, validate_weil, weil_set

from test_intmatrix import identity, matmul


def P(*cs):
    return IntPolynomial(cs)


C2 = GlobalContext.from_q(2)
C3 = GlobalContext.from_q(3)
C9 = GlobalContext.from_q(9)


def test_rank_two_gaussian_order():
    w = weil_set([validate_weil(P(9, 0, 1), C9)])
    order = build_order(w)
    assert order.rank == 2
    assert order.basis_labels == ("F", "1")
    f, v, one = order.generators
    assert v == [-c for c in f]  # V = -F since F^2 = -9
    assert order.multiply(f, f) == [-9 * c for c in one]


def test_rank_four_pair():
    w = weil_set([validate_weil(P(3, 0, 1), C3), validate_weil(P(3, 1, 1), C3)])
    order = build_order(w)
    assert order.rank == 4
    assert order.basis_labels == ("F^2", "F", "1", "V")


def test_both_rational_classes_even_case():
    w = weil_set([validate_weil(P(-3, 1), C9), validate_weil(P(3, 1), C9)])
    order = build_order(w)
    assert order.rank == 2
    assert order.basis_labels == ("F", "1")


def test_odd_case_basis():
    w = weil_set([validate_weil(P(-3, 1), C9), validate_weil(P(9, 0, 1), C9)])
    order = build_order(w)
    assert order.rank == 3
    assert order.basis_labels == ("F", "1", "V")


def test_closure_and_embedding_on_enumerated_sets():
    rng = random.Random(9)
    for ctx in (C2, C3, C9):
        classes = enumerate_weil(ctx, 4)
        for _ in range(6):
            size = rng.randint(1, min(3, len(classes)))
            subset = rng.sample(classes, size)
            try:
                w = weil_set(subset)
            except ValueError:
                continue
            order = build_order(w)  # construction verifies closure
            assert order.rank == w.degree
            # associativity spot check through the table
            a = [rng.randint(-3, 3) for _ in range(order.rank)]
            b = [rng.randint(-3, 3) for _ in range(order.rank)]
            c = [rng.randint(-3, 3) for _ in range(order.rank)]
            left = order.multiply(order.multiply(a, b), c)
            right = order.multiply(a, order.multiply(b, c))
            assert left == right


def test_index_in_gaussian_integers():
    w = weil_set([validate_weil(P(9, 0, 1), C9)])
    order = build_order(w)
    zi = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    assert index_in(order, zi) == 3
    assert index_in(order, [list(r) for r in order.basis_vectors]) == 1


def test_index_in_scaled_sublattice_oracle():
    # Z[2x] in Z[x] mod x^2+1: det diag(1, 2) = 2
    w = weil_set([validate_weil(P(9, 0, 1), C9)])
    order = build_order(w)
    # the order is Z[3i]; the overorder spanned by 1 and 3i/2 wraps it with
    # index 2 by the determinant oracle
    half = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    assert index_in(order, half) == 2
    with pytest.raises(ValueError):
        index_in(order, [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]])


def test_quotient_maps():
    a = validate_weil(P(3, 0, 1), C3)
    b = validate_weil(P(3, 1, 1), C3)
    pair = weil_set([a, b])
    m = quotient_map(weil_set([a]), pair)
    assert len(m) == 2 and len(m[0]) == 4
    m2 = quotient_map(weil_set([b]), pair)
    assert len(m2) == 2
    # identity map on equal sets
    ident = quotient_map(pair, pair)
    assert ident == identity(4)
    with pytest.raises(ValueError):
        quotient_map(pair, weil_set([a]))


def test_quotient_map_refuses_images_that_do_not_span(monkeypatch):
    a = validate_weil(P(3, 0, 1), C3)
    b = validate_weil(P(3, 1, 1), C3)
    image_coords = central_orders._image_coords
    monkeypatch.setattr(
        central_orders,
        "_image_coords",
        lambda small, big: [[2 * c for c in row] for row in image_coords(small, big)],
    )
    with pytest.raises(VerificationError, match="quotient map not surjective"):
        quotient_map(weil_set([a]), weil_set([a, b]))


def test_quotient_map_composition():
    a = validate_weil(P(3, 0, 1), C3)
    b = validate_weil(P(3, 1, 1), C3)
    c = validate_weil(P(3, -1, 1), C3)
    w_ab = weil_set([a, b])
    w_abc = weil_set([a, b, c])
    m_small = quotient_map(weil_set([a]), w_ab)
    m_mid = quotient_map(w_ab, w_abc)
    m_direct = quotient_map(weil_set([a]), w_abc)
    assert matmul(m_small, m_mid) == m_direct


def test_components_spec_pair():
    w = weil_set([validate_weil(P(3, 0, 1), C3), validate_weil(P(3, 1, 1), C3)])
    comps = connected_components(w)
    assert len(comps) == 2
    assert product_embedding_index(*w.classes) == 1


def test_components_control_pair():
    a = validate_weil(P(3, 0, 1), C3)
    b = validate_weil(P(3, -3, 1), C3)
    assert product_embedding_index(a, b) == 9  # |N(-3)| oracle
    comps = connected_components(weil_set([a, b]))
    assert len(comps) == 1


def test_components_build_no_order(monkeypatch):
    calls = []
    monkeypatch.setattr(central_orders, "build_order", lambda w: calls.append(w))
    w = weil_set(enumerate_weil(C3, 4)[:12])
    assert len(connected_components(w)) >= 1
    assert calls == []


def test_components_of_sixteen_degree_four_classes():
    """The first 16 degree-4 classes at q = 2 (total degree 64) form one
    component."""
    quartics = [c for c in enumerate_weil(C2, 4) if c.degree == 4][:16]
    assert len(quartics) == 16
    (component,) = connected_components(weil_set(quartics))
    assert len(component) == 16


def test_components_singleton():
    w = weil_set([validate_weil(P(9, 0, 1), C9)])
    assert len(connected_components(w)) == 1


def supersingular_point_test(order):
    """Is (F, V, p) the unit ideal in R_w/pR_w?  True exactly when every
    class of w is ordinary; otherwise the quotient by (F, V, p) is F_p."""
    p = order.weil_set.context.p
    d = order.rank
    f, v, _one = order.generators
    rows = []
    for i in range(d):
        e = [1 if j == i else 0 for j in range(d)]
        rows.append([c % p for c in order.multiply(f, e)])
        rows.append([c % p for c in order.multiply(v, e)])
    ech, _piv = rref_mod_p(rows, p)
    return len(ech) == d, d - len(ech)


def test_supersingular_point():
    ordinary = weil_set([validate_weil(P(9, -1, 1), C9)])
    unit, codim = supersingular_point_test(build_order(ordinary))
    assert unit and codim == 0
    ss = weil_set([validate_weil(P(9, 0, 1), C9)])
    unit, codim = supersingular_point_test(build_order(ss))
    assert not unit and codim == 1
    # any set containing a non-ordinary class has residue field F_p there
    mixed = weil_set(
        [validate_weil(P(9, -1, 1), C9), validate_weil(P(9, 0, 1), C9)]
    )
    unit, codim = supersingular_point_test(build_order(mixed))
    assert not unit and codim == 1


def test_supersingular_point_matches_slope_types():
    for ctx in (C2, C3):
        for cls in enumerate_weil(ctx, 4):
            order = build_order(weil_set([cls]))
            unit, _ = supersingular_point_test(order)
            assert unit == (slope_type(cls)[0] == "ordinary")


def test_export_roundtrip():
    w = weil_set([validate_weil(P(9, 0, 1), C9)])
    data = build_order(w).as_dict()
    assert data["q"] == 9
    assert data["basis_labels"] == ["F", "1"]
    assert len(data["mult_table"]) == 2
    # rebuilding from the exported identification gives the identical export
    ctx = GlobalContext.from_q(data["q"])
    rebuilt = build_order(
        weil_set([validate_weil(IntPolynomial(cs), ctx) for cs in data["polys"]])
    )
    assert rebuilt.as_dict() == data


def test_checks_survive_optimized_mode():
    """A lattice that is not closed under multiplication and a table with
    F V != q are caught under `python -O` too."""
    script = (
        "import dataclasses\n"
        "from weilkit import central_orders as co\n"
        "from weilkit.intpoly import IntPolynomial\n"
        "from weilkit.weil import GlobalContext, validate_weil, weil_set\n"
        "ctx = GlobalContext.from_q(3)\n"
        "w = weil_set([validate_weil(IntPolynomial(c), ctx) for c in ((3, 0, 1), (3, 1, 1))])\n"
        "order = co.build_order(w)\n"
        "f, v = order.basis_labels.index('F'), order.basis_labels.index('V')\n"
        "table = [list(row) for row in order.table]\n"
        "table[f][v] = table[v][f] = tuple(c + 1 for c in table[f][v])\n"
        "cases = [\n"
        "    (co.build_order, dataclasses.replace(w, polynomial=IntPolynomial((2, 3, 6, 1, 1)))),\n"
        "    (co._verify_relations, dataclasses.replace(order, table=tuple(map(tuple, table)))),\n"
        "]\n"
        "for fn, arg in cases:\n"
        "    try:\n"
        "        fn(arg)\n"
        "    except AssertionError as e:\n"
        "        print('%s: %s' % (type(e).__name__, e))\n"
        "    else:\n"
        "        print('returned')\n"
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
        assert done.stdout == (
            "VerificationError: order not multiplicatively closed\n"
            "VerificationError: F V = q fails\n"
        ), flags
