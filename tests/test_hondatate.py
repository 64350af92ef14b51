from fractions import Fraction
from math import lcm

import pytest

from weilkit import hondatate, padic
from weilkit.hondatate import (
    HondaTateRecord,
    commutative_classifier,
    gamma_witnesses,
    honda_tate_record,
    minimal_cogenerator_dimension_supersingular_elliptic,
    rank_of_hom_lattice,
    reciprocity_sum,
)
from weilkit.intpoly import IntPolynomial
from weilkit import padicorders
from weilkit.padic import IrregularPlacesError, decompose_places
from weilkit.weil import GlobalContext, enumerate_weil, slope_type, validate_weil


def P(*cs):
    return IntPolynomial(cs)


C2 = GlobalContext.from_q(2)
C3 = GlobalContext.from_q(3)
C9 = GlobalContext.from_q(9)
C32 = GlobalContext.from_q(32)


def test_record_supersingular_elliptic_q9():
    rec = honda_tate_record(validate_weil(P(9, 0, 1), C9))
    assert rec.s == 1
    assert rec.dim == 1
    assert rec.multiplicity == 4
    assert rec.reduced_multiplicity == 2
    assert rec.slope_kind == "supersingular"
    assert len(rec.places) == 1
    pl = rec.places[0]
    assert (pl.e, pl.f, pl.invariant) == (1, 2, 0)


def test_record_index_five_q32():
    rec = honda_tate_record(validate_weil(P(32, -2, 1), C32))
    assert rec.s == 5
    assert rec.dim == 5
    assert rec.multiplicity == 2
    assert rec.reduced_multiplicity == 1
    invs = sorted(pl.invariant for pl in rec.places)
    assert invs == [Fraction(1, 5), Fraction(4, 5)]


def test_record_real_class_q3():
    rec = honda_tate_record(validate_weil(P(-3, 0, 1), C3))
    assert rec.s == 2
    assert rec.dim == 2
    # m = 2r/s = 1 for the odd real class (the type invariant m*s = 2r)
    assert rec.multiplicity * rec.s == 2 * C3.r
    assert rec.reduced_multiplicity is None
    assert rec.real_place_count == 2


def test_record_rational_class_q9():
    rec = honda_tate_record(validate_weil(P(-3, 1), C9))
    assert rec.s == 2
    assert rec.dim == 1
    assert rec.multiplicity == 2
    assert rec.reduced_multiplicity == 1
    assert rec.real_place_count == 1
    assert rec.places[0].invariant == Fraction(1, 2)


def test_rank_formula():
    assert rank_of_hom_lattice(2, GlobalContext.from_q(4)) == 16
    assert rank_of_hom_lattice(1, GlobalContext.from_q(2), reduced=True) == 2
    assert rank_of_hom_lattice(5, C32) == 100
    with pytest.raises(ValueError):
        rank_of_hom_lattice(0, C2)


def test_commutative_classifier():
    assert commutative_classifier([validate_weil(P(9, -1, 1), C9)]) == (
        "commutative_ordinary"
    )
    assert commutative_classifier([validate_weil(P(3, 0, 1), C3)]) == (
        "commutative_p_nonreal"
    )
    assert commutative_classifier([validate_weil(P(9, 0, 1), C9)]) == (
        "noncommutative"
    )
    # real class over r = 1 is noncommutative
    assert commutative_classifier([validate_weil(P(-3, 0, 1), C3)]) == (
        "noncommutative"
    )


def test_gamma_witnesses_q32():
    w = gamma_witnesses(C32)
    assert w.divisor == 20
    assert w.index_r_witness.s == 5
    assert w.index_r_witness.weil_class.polynomial == P(32, -2, 1)
    assert w.index_two_witness.s == 2
    assert w.index_two_witness.weil_class.polynomial == P(-32, 0, 1)


def test_gamma_witnesses_q8():
    w = gamma_witnesses(GlobalContext.from_q(8))
    assert w.divisor == 12
    assert w.index_r_witness.s == 3
    assert w.index_two_witness.s == 2


def test_gamma_witnesses_small_r():
    w3 = gamma_witnesses(C3)
    assert w3.divisor == 4
    assert w3.index_r_witness is None
    assert w3.index_two_witness.weil_class.polynomial == P(-3, 0, 1)
    # divisor is 2*lcm(r, 2) = 4 for r = 2
    w9 = gamma_witnesses(C9)
    assert w9.divisor == 4
    assert w9.index_r_witness is None
    assert w9.index_two_witness.weil_class.is_rational


def test_minimal_cogenerator_dimension():
    assert (
        minimal_cogenerator_dimension_supersingular_elliptic(
            validate_weil(P(9, 0, 1), C9)
        )
        == 2
    )
    c16 = GlobalContext.from_q(16)
    assert (
        minimal_cogenerator_dimension_supersingular_elliptic(
            validate_weil(P(-4, 1), c16)
        )
        == 2
    )
    with pytest.raises(ValueError):
        minimal_cogenerator_dimension_supersingular_elliptic(
            validate_weil(P(9, -1, 1), C9)
        )


def test_property_suite_small_grid():
    """Index, dimension, reciprocity, and symmetry invariants on a small
    enumeration grid (the acceptance suite runs the full one)."""
    for q in (2, 3, 4, 9):
        ctx = GlobalContext.from_q(q)
        for cls in enumerate_weil(ctx, 4):
            rec = honda_tate_record(cls)
            assert lcm(ctx.r, 2) % rec.s == 0
            assert 2 * rec.dim == rec.s * cls.degree
            assert rec.multiplicity * rec.s == 2 * ctx.r
            assert reciprocity_sum(rec).denominator == 1
            if rec.slope_kind == "ordinary":
                assert rec.s == 1
            vals = sorted(
                v for pl in rec.places for v in [pl.root_valuation] * pl.degree
            )
            mirrored = sorted(ctx.r - v for v in vals)
            assert vals == mirrored


def test_slope_type_from_places_matches_newton_polygon(monkeypatch):
    """The record reads its slope type off the verified places: they carry
    exactly the Newton polygon's root valuations, round-2 classes included,
    so the flag is `slope_type`'s."""
    fallbacks = []
    places_from_order = padicorders.places_from_order

    def counted(poly, p, r):
        fallbacks.append(poly)
        return places_from_order(poly, p, r)

    monkeypatch.setattr(padicorders, "places_from_order", counted)
    for q, max_degree in ((2, 4), (3, 4), (4, 4), (9, 4), (32, 2)):
        ctx = GlobalContext.from_q(q)
        for cls in enumerate_weil(ctx, max_degree):
            rec = honda_tate_record(cls)
            flag, polygon_vals = slope_type(cls)
            assert rec.slope_kind == flag, cls.polynomial
            vals = sorted(v for pl in rec.places for v in [pl.root_valuation] * pl.degree)
            assert tuple(vals) == polygon_vals, cls.polynomial
    assert fallbacks, "no class took the round-2 route"


def uncached_record(cls):
    """The record from `decompose_places` and `hondatate._fields`, with no
    lookup in the record cache."""
    ctx = cls.context
    places = tuple(decompose_places(cls.polynomial, ctx.p, ctx.r))
    return HondaTateRecord(cls, places, *hondatate._fields(places, ctx.r, cls.is_real, cls.degree))


def test_record_cache_equals_uncached_path():
    """honda_tate_record serves a regular class from a cache on (p, r,
    valuation-digit map, is_real).  On every class of degree <= 4 at q = 2,
    3, 4, 9 and 32 and on the real classes, on a cold and a warm cache, it
    gives the uncached path's record, and on the warm cache nothing misses."""
    classes = [cls for q in (2, 3, 4, 9, 32) for cls in enumerate_weil(GlobalContext.from_q(q), 4)]
    real = [validate_weil(P(-q, 0, 1), GlobalContext.from_q(q)) for q in (2, 3, 32)]
    real += [
        validate_weil(P(-e * m, 1), GlobalContext.from_q(m * m)) for m in (2, 3) for e in (1, -1)
    ]
    assert all(cls.is_real for cls in real)
    classes += real
    wants = [uncached_record(cls) for cls in classes]
    cache = hondatate._regular_fields
    cache.cache_clear()
    for warm in (False, True):
        misses = cache.cache_info().misses
        for cls, want in zip(classes, wants):
            got = honda_tate_record(cls)
            assert got == want, (cls, warm)
            assert got.as_dict() == want.as_dict(), (cls, warm)
        if warm:
            assert cache.cache_info().misses == misses
    info = cache.cache_info()
    assert info.hits > len(classes)
    assert info.maxsize == 1024 and info.currsize <= info.maxsize


@pytest.mark.parametrize("order", [(-2, 2), (2, -2)])
def test_record_cache_keys_on_is_real(order):
    """x^2 - 2 (real, two real places) and x^2 + 2 at q = 2 share the
    valuation-digit map ((0, (1, 1)), (2, (0, 1))) and the place, yet have
    s = 2 and s = 1: asked for in either order, each gets its own record."""
    want_s = {-2: 2, 2: 1}
    hondatate._regular_fields.cache_clear()
    for c0 in order:
        cls = validate_weil(P(c0, 0, 1), C2)
        assert padic.digit_map(cls.polynomial, 2) == ((0, (1, 1)), (2, (0, 1)))
        rec = honda_tate_record(cls)
        assert (rec.s, rec.real_place_count) == (want_s[c0], 2 if c0 < 0 else 0)
        assert rec == uncached_record(cls)


def test_record_irregular_key_raises_on_every_call(monkeypatch):
    """A key whose places fail the sum check caches nothing: the record
    raises IrregularPlacesError on every call, and the honest record is
    served once the fault is gone."""
    cls = validate_weil(P(9, -1, 1), C9)  # two segments, valuations 0 and 2
    honest = padic._first_round

    def last_segment_lost(p, cap, digits):
        return honest(p, cap, digits)[:-1]

    hondatate._regular_fields.cache_clear()
    padic._regular_places.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(padic, "_first_round", last_segment_lost)
        for _ in range(2):
            with pytest.raises(IrregularPlacesError, match="degrees sum to 1, expected 2$"):
                honda_tate_record(cls)
            assert hondatate._regular_fields.cache_info().currsize == 0
    assert honda_tate_record(cls) == uncached_record(cls)
    assert honda_tate_record(cls).s == 1
