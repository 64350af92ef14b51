"""Acceptance suite: the package's exit criteria, one test per criterion.

Every assertion is exact (integer or Fraction equality); nothing is
tolerance-based.  Criteria 6, 7 and 9 sweep enumerated class grids; the
default grid keeps degree 6 for q <= 9 and degree 4 for q = 32, which runs
in about a minute.  Set WEILKIT_ACCEPT_FULL=1 to push q = 32 to degree 6 as
well (millions of candidate polynomials; expect a very long run)."""

import os
from fractions import Fraction
from math import lcm

import pytest

from weilkit.central_orders import (
    build_order,
    connected_components,
    index_in,
    product_embedding_index,
)
from weilkit.dieudonne import associativity_report, build_dieudonne, verify_center
from weilkit.hondatate import (
    gamma_witnesses,
    honda_tate_record,
    rank_of_hom_lattice,
    reciprocity_sum,
)
from weilkit.intmatrix import zpk_canonical
from weilkit.intpoly import IntPolynomial
from weilkit.padic import newton_polygon
from weilkit.supersingular import (
    center_index_in_gaussian_scalars,
    endomorphism_order,
    glued_lattice,
    lattice_class_count,
    verify_psi_relations,
)
from weilkit.weil import (
    GlobalContext,
    enumerate_weil,
    middle_coefficient_is_unit,
    slope_type,
    validate_weil,
    weil_set,
)

FULL_GRID = os.environ.get("WEILKIT_ACCEPT_FULL") == "1"
GRID = [(2, 6), (3, 6), (4, 6), (9, 6), (32, 6 if FULL_GRID else 4)]


def P(*cs):
    return IntPolynomial(cs)


_ENUM_CACHE = {}


def grid_classes():
    for q, bound in GRID:
        key = (q, bound)
        if key not in _ENUM_CACHE:
            ctx = GlobalContext.from_q(q)
            _ENUM_CACHE[key] = (ctx, enumerate_weil(ctx, bound))
        yield _ENUM_CACHE[key]


_RECORD_CACHE = {}


def grid_records():
    for ctx, classes in grid_classes():
        if ctx.q not in _RECORD_CACHE:
            _RECORD_CACHE[ctx.q] = [(c, honda_tate_record(c)) for c in classes]
        yield ctx, _RECORD_CACHE[ctx.q]


def _report(criterion, text):
    print("PASS criterion %2d: %s" % (criterion, text))


def test_criterion_01_supersingular_example_p3():
    p = 3
    ctx = GlobalContext.from_q(9)
    cls = validate_weil(P(9, 0, 1), ctx)
    rec = honda_tate_record(cls)
    assert rec.s == 1
    assert len(rec.places) == 1
    place = rec.places[0]
    assert (place.e, place.f) == (1, 2)  # one inert place
    assert place.invariant == 0
    order_r = build_order(weil_set([cls]))
    gaussian = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    assert index_in(order_r, gaussian) == 3
    assert verify_psi_relations(p)
    count, proper = lattice_class_count(p)
    assert count == 2 and len(proper) == 1
    order, center = endomorphism_order(p)
    assert order.index == 81
    assert center_index_in_gaussian_scalars(center, p) == 3
    _report(1, "supersingular example at p=3: s=1, inert place, index 81, center Z[3i]")


def test_criterion_02_index_attained_q32():
    ctx = GlobalContext.from_q(32)
    poly = P(32, -2, 1)
    assert newton_polygon(poly, 2).root_valuations() == [1, 4]
    rec = honda_tate_record(validate_weil(poly, ctx))
    assert rec.s == 5
    assert rec.dim == 5
    assert rec.multiplicity == 2
    assert rec.reduced_multiplicity == 1
    _report(2, "x^2-2x+32: valuations {1,4}, s=5, dim=5, m=2, reduced 1")


def test_criterion_03_gamma_witnesses():
    expected = {8: 12, 32: 20}
    for q, divisor in expected.items():
        ctx = GlobalContext.from_q(q)
        w = gamma_witnesses(ctx)
        assert w.divisor == divisor
        assert w.index_r_witness is not None
        assert w.index_r_witness.s == ctx.r
        assert w.index_two_witness.s == 2
    _report(3, "index witnesses for q in {8, 32} with divisors {12, 20}")


def test_criterion_04_connected_components():
    ctx = GlobalContext.from_q(3)
    a = validate_weil(P(3, 0, 1), ctx)
    b = validate_weil(P(3, 1, 1), ctx)
    assert product_embedding_index(a, b) == 1
    comps = connected_components(weil_set([a, b]))
    assert len(comps) == 2
    c = validate_weil(P(3, -3, 1), ctx)
    comps2 = connected_components(weil_set([a, c]))
    assert len(comps2) == 1
    _report(4, "disconnected pair splits with product index 1; control pair is connected")


def test_criterion_05_center_verification_two_precisions():
    ctx = GlobalContext.from_q(9)
    families = [
        [P(9, 0, 1)],
        [P(9, -1, 1)],
        [P(-3, 1), P(3, 1)],
    ]
    base_k = 5
    for polys in families:
        w = weil_set([validate_weil(poly, ctx) for poly in polys])
        rep_low = verify_center(build_dieudonne(w, base_k))
        rep_high = verify_center(build_dieudonne(w, base_k + 2))
        assert rep_low.passed and rep_high.passed
        assert rep_low.rank == rep_high.rank == w.degree
        eff = min(rep_low.effective_precision, rep_high.effective_precision)
        q_eff = ctx.p ** eff
        low = [tuple(c % q_eff for c in row) for row in rep_low.center_rows]
        high = [tuple(c % q_eff for c in row) for row in rep_high.center_rows]
        assert zpk_canonical(low, ctx.p, eff) == zpk_canonical(high, ctx.p, eff)
    _report(5, "center equals the central order image at k and k+2, ranks deg(w)")


def test_criterion_06_rank_formulas():
    for r in (1, 2, 5):
        ctx = GlobalContext(2, r)
        for dim in (1, 2, 5):
            assert rank_of_hom_lattice(dim, ctx) == 4 * r * dim
            assert rank_of_hom_lattice(dim, ctx, reduced=True) == 2 * r * dim
    for ctx, records in grid_records():
        for cls, rec in records:
            assert rec.multiplicity * rec.s == 2 * ctx.r
    _report(6, "rank grid 4r*dim / 2r*dim; m*s = 2r on the enumerated grid")


def test_criterion_07_property_suite():
    checked = 0
    for ctx, records in grid_records():
        for cls, rec in records:
            assert lcm(ctx.r, 2) % rec.s == 0
            assert 2 * rec.dim == rec.s * cls.degree
            assert reciprocity_sum(rec).denominator == 1
            flag, vals = slope_type(cls)
            mirrored = tuple(sorted(ctx.r - v for v in vals))
            assert tuple(sorted(vals)) == mirrored
            assert (flag == "ordinary") == middle_coefficient_is_unit(cls)
            if flag == "ordinary":
                assert rec.s == 1
            checked += 1
    _report(7, "property suite, zero violations over %d classes" % checked)


def test_criterion_08_enumeration_oracle_q2():
    import itertools
    from math import comb, isqrt

    from weilkit import zfactor
    from weilkit.intpoly import all_roots_in_open_surd_interval
    from weilkit.weil import trace_polynomial

    ctx = GlobalContext.from_q(2)
    q = 2
    got = {c.polynomial.coeffs for c in enumerate_weil(ctx, 4)}

    expected = set()
    for deg in (2, 4):
        d = deg // 2
        bounds = []
        for k in range(1, deg + 1):
            b = comb(deg, k) * 2 ** k
            inner = q ** k
            root = isqrt(inner)
            if root * root < inner:
                root += 1
            bounds.append(b * root if k % 2 else b * q ** (k // 2))
        uppers = [range(-bounds[deg - 1 - i], bounds[deg - 1 - i] + 1) for i in range(d, deg)]
        for upper in itertools.product(*uppers):
            coeffs = [0] * (deg + 1)
            coeffs[deg] = 1
            for i, c in enumerate(upper):
                coeffs[d + i] = c
            for k in range(1, d + 1):
                coeffs[d - k] = q ** k * coeffs[d + k]
            poly = IntPolynomial(coeffs)
            if poly.degree != deg:
                continue
            tp = trace_polynomial(poly, q)
            if tp.degree != d:
                continue
            if not all_roots_in_open_surd_interval(tp, 2, q):
                continue
            if not zfactor.is_irreducible(poly):
                continue
            expected.add(poly.coeffs)
    assert got == expected
    assert sum(1 for cs in got if len(cs) == 3) == 5
    _report(8, "q=2 degree<=4 enumeration equals the coefficient-scan oracle; 5 quadratics")


def test_criterion_09_dieudonne_structure_suite():
    families = [
        (9, [(9, 0, 1)], 4),
        (9, [(9, -1, 1)], 4),
        (9, [(-3, 1), (3, 1)], 4),
        (9, [(-3, 1), (9, 0, 1)], 3),
        (3, [(3, 0, 1), (3, 1, 1)], 3),
        (4, [(-2, 1)], 4),
        (32, [(32, -2, 1)], 4),
    ]
    total = 0
    for q, polys, k in families:
        ctx = GlobalContext.from_q(q)
        w = weil_set([validate_weil(P(*cs), ctx) for cs in polys])
        alg = build_dieudonne(w, k)  # asserts F V = V F = p
        total += associativity_report(alg)
        assert alg.zp_rank == ctx.r ** 2 * w.degree
        # sigma has exact order r on the Witt model
        probe = alg.witt.from_coords(list(range(1, ctx.r + 1)))
        cur = probe
        for _ in range(ctx.r):
            cur = alg.witt.sigma(cur)
        assert cur == probe
        for i in range(-alg.n_bound, alg.n_bound):
            for j in range(-alg.n_bound, alg.n_bound):
                e2 = abs(i) + abs(j) - abs(i + j)
                assert e2 >= 0 and e2 % 2 == 0
    _report(9, "structure suite on %d triples over %d algebras" % (total, len(families)))


def test_criterion_10_fiber_product():
    rep = glued_lattice(3)
    assert rep.witt_colength == 1
    assert rep.index == 9
    _report(10, "fiber product has Witt colength 1 and index 9 at p=3")


def test_criterion_10_beyond_p7():
    for p in (11, 19):
        count, proper = lattice_class_count(p)
        assert count == 2
        assert proper == [((1, 0, 0, 0), (0, 1, 0, 0))]  # the a-plane
        order, center = endomorphism_order(p)
        assert order.index == p ** 4
        assert center_index_in_gaussian_scalars(center, p) == p
        rep = glued_lattice(p, order)
        assert rep.index == p ** 2 and rep.witt_colength == 1
    _report(10, "two lattice classes, index p^4, center index p, fiber product at p = 11, 19")
