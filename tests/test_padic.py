import random
from fractions import Fraction
from math import lcm

import pytest

from weilkit import gfpoly as gp
from weilkit import padic, padicorders
from weilkit.hensel import lift_factorization
from weilkit.intpoly import IntPolynomial, discriminant, is_squarefree
from weilkit.padic import (
    IrregularPlacesError,
    PlaceAboveP,
    WittRingModel,
    decompose_places,
    make_place,
    newton_polygon,
    v_p,
)

F = Fraction


def P(*cs):
    return IntPolynomial(cs)


# -- Newton polygons -------------------------------------------------------


def test_polygon_examples():
    assert newton_polygon(P(32, -2, 1), 2).root_valuations() == [1, 4]
    assert newton_polygon(P(9, 0, 1), 3).root_valuations() == [1, 1]
    # oracle: hull of (0,2), (1,0), (2,0)
    np = newton_polygon(P(9, -1, 1), 3)
    assert np.vertices == ((0, 2), (1, 0), (2, 0))
    assert np.root_valuations() == [0, 2]


def test_polygon_rejects_zero_constant():
    with pytest.raises(ValueError, match="zero roots"):
        newton_polygon(P(0, 1, 1), 5)
    with pytest.raises(ValueError):
        newton_polygon(P(3, 1, 2), 5)  # not monic


def test_polygon_fractional_slope():
    np = newton_polygon(P(-3, 0, 1), 3)
    assert np.segments == ((F(1, 2), 2),)


def test_polygon_sum_rule_random():
    rng = random.Random(17)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(1, 400)] + [
            rng.randint(-400, 400) for _ in range(deg - 1)
        ] + [1]
        poly = IntPolynomial(coeffs)
        np = newton_polygon(poly, p)
        # sum of valuations = v_p(constant term)
        assert sum(v * l for v, l in np.segments) == v_p(coeffs[0], p)
        assert sum(l for _, l in np.segments) == deg


# -- Witt model ------------------------------------------------------------


def test_witt_model_modulus_and_frobenius():
    w = WittRingModel(3, 2, 2)
    assert w.modulus == (1, 0, 1)
    t = w.from_coords([0, 1])
    # t^3 = -t mod (t^2+1): the Frobenius fixed point
    assert w.sigma(t) == w.from_coords([0, -1])
    assert w.sigma(w.one()) == w.one()


def test_witt_sigma_order_and_multiplicativity():
    w = WittRingModel(2, 5, 6)
    rng = random.Random(3)
    for _ in range(10):
        a = w.from_coords([rng.randrange(64) for _ in range(5)])
        b = w.from_coords([rng.randrange(64) for _ in range(5)])
        assert w.sigma(w.mul(a, b)) == w.mul(w.sigma(a), w.sigma(b))
        assert w.sigma(w.add(a, b)) == w.add(w.sigma(a), w.sigma(b))
        s = a
        for _ in range(5):
            s = w.sigma(s)
        assert s == a
        # sigma is p-th power mod p
        assert [c % 2 for c in w.sigma(a)] == [c % 2 for c in w.mul(a, a)]


def test_witt_inverse():
    w = WittRingModel(3, 3, 5)
    u = w.from_coords([2, 1, 1])
    assert w.mul(u, w.inv(u)) == w.one()
    with pytest.raises(ZeroDivisionError):
        w.inv(w.from_int(3))


# -- Hensel splitting ------------------------------------------------------


def test_hensel_split_examples():
    assert lift_factorization(P(0, 1, 1).coeffs, [[0, 1], [1, 1]], 3, 2) == [[0, 1], [1, 1]]
    assert lift_factorization(P(-1, 0, 1).coeffs, [[6, 1], [1, 1]], 7, 2) == [[48, 1], [1, 1]]
    # exact parts at full precision, congruent mod 5, are not coprime mod 5
    with pytest.raises(ValueError, match="factors not coprime mod p"):
        lift_factorization(P(6, -7, 1).coeffs, [[-1, 1], [-6, 1]], 5, 2)


def test_hensel_split_rejects_noncoprime():
    # congruent parts that do not multiply back exactly are refused
    with pytest.raises(ValueError, match="coprime"):
        lift_factorization(P(1, 2, 1).coeffs, [[2, 1], [2, 1]], 3, 3)
    # so are congruent parts that multiply back exactly
    with pytest.raises(ValueError, match="factors not coprime mod p"):
        lift_factorization(P(1, 2, 1).coeffs, [[1, 1], [1, 1]], 3, 3)


def test_hensel_split_random_reconstruction():
    rng = random.Random(23)
    from weilkit.gfpoly import gf_mul

    for _ in range(40):
        p = rng.choice([2, 3, 5])
        k = rng.randint(2, 6)
        # random monic coprime-mod-p pair
        g = [rng.randrange(p ** k) for _ in range(rng.randint(1, 3))] + [1]
        h = [rng.randrange(p ** k) for _ in range(rng.randint(1, 3))] + [1]
        from weilkit import gfpoly as gp

        if len(gp.gf_gcd([c % p for c in g], [c % p for c in h], p)) != 1:
            continue
        f = gf_mul(g, h, p ** k)
        lifted = lift_factorization(f, [[c % p for c in g], [c % p for c in h]], p, k)
        prod = [1]
        for piece in lifted:
            prod = gf_mul(piece, prod, p ** k)
        assert prod == f
        for piece, part in zip(lifted, [g, h]):
            assert [c % p for c in piece] == [c % p for c in part]


# -- place decomposition ---------------------------------------------------


def places_tuple(poly, p, r):
    return [
        (pl.e, pl.f, pl.root_valuation, pl.invariant)
        for pl in decompose_places(poly, p, r)
    ]


def default_precision(poly, p, r):
    """A generous cap from v_p(disc), against which the working one is checked."""
    vd = v_p(discriminant(poly), p) if is_squarefree(poly) else 0
    return 2 * (r * poly.degree + vd) + 4


SPEC_EXAMPLES = (
    ((9, 0, 1), 3, 2, [(1, 2, F(1), F(0))]),
    ((32, -2, 1), 2, 5, [(1, 1, F(1), F(1, 5)), (1, 1, F(4), F(4, 5))]),
    # Eisenstein: totally ramified
    ((-3, 0, 1), 3, 1, [(2, 1, F(1, 2), F(0))]),
)

# segments with repeated linear residual factors force one refinement
REFINEMENT_CASES = (
    ((9, 3, 1), 3, 2, [(2, 1, F(1), F(0))]),
    ((9, -3, 1), 3, 2, [(2, 1, F(1), F(0))]),
    ((4, 0, 1), 2, 2, [(2, 1, F(1), F(0))]),
    ((4, 2, 1), 2, 2, [(1, 2, F(1), F(0))]),
)


def test_places_spec_examples():
    for coeffs, p, r, want in SPEC_EXAMPLES:
        assert places_tuple(P(*coeffs), p, r) == want


def test_places_refinement_cases():
    for coeffs, p, r, want in REFINEMENT_CASES:
        assert places_tuple(P(*coeffs), p, r) == want


def test_places_degree_one():
    assert places_tuple(P(-3, 1), 3, 2) == [(1, 1, F(1), F(1, 2))]
    assert places_tuple(P(4, 1), 2, 4) == [(1, 1, F(2), F(1, 2))]


def test_places_ordinary_split():
    assert places_tuple(P(9, -1, 1), 3, 2) == [
        (1, 1, F(0), F(0)),
        (1, 1, F(2), F(0)),
    ]


def test_places_inert_unramified_quartic():
    # x^4 - 2x^2 + 4: all roots of 2-adic valuation 1/2, residual irreducible
    assert places_tuple(P(4, 0, -2, 0, 1), 2, 1) == [(2, 2, F(1, 2), F(0))]


def test_places_precision_stability():
    """Raising the working precision never changes (e, f, val, inv)."""
    from weilkit.padic import _analyze

    for poly, p, r in [(P(9, 3, 1), 3, 2), (P(32, -2, 1), 2, 5), (P(4, 0, 1), 2, 2)]:
        base = places_tuple(poly, p, r)
        k = default_precision(poly, p, r)
        assert k >= 4
        results = []
        for cap in (k, k + 2, 2 * k):
            triples = []
            _analyze(list(poly.coeffs), p, cap, 0, triples)
            results.append(sorted(triples))
        assert results[0] == results[1] == results[2]


def test_make_place_invariant():
    pl = make_place(1, 1, 4, 1, 5)
    assert (pl.root_valuation, pl.invariant) == (F(4), F(4, 5))
    pl = make_place(2, 1, 1, 2, 1)
    assert (pl.root_valuation, pl.invariant) == (F(1, 2), 0)
    pl = make_place(1, 1, 1, 1, 2)
    assert (pl.root_valuation, pl.invariant) == (F(1), F(1, 2))


def test_interned_places_equal_fresh_ones():
    """make_place hands out shared instances from a bounded cache; each must
    equal a place built afresh, with the invariant e f v / r mod 1 taken in
    Fractions, on every class of degree <= 4 at q = 2, 3, 4 and 9."""
    from weilkit.weil import GlobalContext, enumerate_weil

    for q in (2, 3, 4, 9):
        ctx = GlobalContext.from_q(q)
        for cls in enumerate_weil(ctx, 4):
            for pl in decompose_places(cls.polynomial, ctx.p, ctx.r):
                v = pl.root_valuation
                inv = pl.e * pl.f * v / ctx.r % 1
                fresh = PlaceAboveP(pl.e, pl.f, F(v.numerator, v.denominator), inv)
                assert pl == fresh, (q, cls.polynomial.coeffs)
                assert make_place(pl.e, pl.f, v.numerator, v.denominator, ctx.r) == fresh
    info = make_place.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def uncached_first_round(coeffs, p, cap):
    """The Newton route's first round as it ran before it was memoized, with
    nothing shared: valuations and unit digits of the coefficients mod
    p^cap, the lower hull, each segment's residual polynomial and its
    factorization by gfpoly's uncached core; "hand-over" where the route
    gives the class up."""
    mod = p ** cap
    units = {}
    for i, c in enumerate(coeffs):
        if c % mod:
            v = v_p(c % mod, p)
            units[i, v] = c % mod // p ** v % p
    pts = sorted(units)
    if not pts or pts[0][0] != 0:
        return "hand-over"
    hull = padic._lower_hull(pts)
    if hull[-1][0] != len(coeffs) - 1 or any(v >= cap - 1 for _, v in hull):
        return "hand-over"
    out = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        val = F(v0 - v1, i1 - i0)
        a, b = val.numerator, val.denominator
        res = [units.get((i0 + j * b, v0 - j * a), 0) for j in range((i1 - i0) // b + 1)]
        factors = gp._factor_monic.__wrapped__(tuple(gp.gf_monic(res, p)), p)
        out.append((a, b, (i0, v0), factors))
    return tuple(out)


def memoized_first_round(p, cap, digits):
    try:
        return padic._first_round(p, cap, tuple(digits.items()))
    except padic._HandOver:
        return "hand-over"


def test_memoized_first_round_equals_uncached(monkeypatch):
    """Every polynomial the Newton route analyzes for the classes of degree
    <= 4 at q = 2, 3, 4 and 9 (the classes themselves, their peeled blocks
    and their refinements) gets from the memoized first round what the
    uncached analysis gives, on a cold and on a warm cache; a class's own
    key may hold its exact valuations or those mod p^cap."""
    from weilkit.weil import GlobalContext, enumerate_weil

    seen = []
    analyze, refined = padic._analyze, padic._analyze_refined

    def spy_analyze(coeffs, p, cap, offset, out, digits=None):
        seen.append((list(coeffs), p, cap))
        return analyze(coeffs, p, cap, offset, out, digits)

    def spy_refined(coeffs, p, cap, pinned_val, out):
        seen.append((list(coeffs), p, cap))
        return refined(coeffs, p, cap, pinned_val, out)

    with monkeypatch.context() as m:
        m.setattr(padic, "_analyze", spy_analyze)
        m.setattr(padic, "_analyze_refined", spy_refined)
        for q in (2, 3, 4, 9):
            ctx = GlobalContext.from_q(q)
            for cls in enumerate_weil(ctx, 4):
                # a class whose first round is regular never reaches
                # _analyze: decompose_places reads that round through
                # _regular_places, so record the class where it enters
                poly = cls.polynomial
                v0 = v_p(poly.coeffs[0], ctx.p)
                cap = padic._working_precision(poly.degree, v0, ctx.r)
                seen.append((list(poly.coeffs), ctx.p, cap))
                decompose_places(poly, ctx.p, ctx.r)
    assert len(seen) > 500
    # at the edges of the cap: a vertex at cap - 2 and at cap - 1, the
    # constant term lost, a middle point lost above the hull
    seen += [([4, 0, 1], 2, 4), ([8, 0, 1], 2, 4), ([16, 0, 1], 2, 4), ([9, 27, 1], 3, 3)]
    padic._first_round.cache_clear()
    for warm in (False, True):
        misses, handed_over = padic._first_round.cache_info().misses, 0
        for coeffs, p, cap in seen:
            want = uncached_first_round(coeffs, p, cap)
            for digits in (padic._poly_val(coeffs, p, cap), padic._poly_val(coeffs, p)):
                assert memoized_first_round(p, cap, digits) == want, (coeffs, p, cap, warm)
                handed_over += want == "hand-over"
        if warm:
            # a hand-over is not cached; every other key now is
            assert padic._first_round.cache_info().misses == misses + handed_over
    info = padic._first_round.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_first_round_results_cannot_be_changed_by_callers():
    """The cache hands every caller the same object, so it is tuples
    throughout: hashable, and refusing item assignment."""
    coeffs, p = [4, 0, 1], 2  # x^2 + 4 at q = 4: a repeated residual factor
    cap = padic._working_precision(2, 2, 2)
    digits = tuple(padic._poly_val(coeffs, p, cap).items())
    first = padic._first_round(p, cap, digits)
    assert first == ((1, 1, (0, 2), (((1, 1), 2),)),)
    hash(first)
    with pytest.raises(TypeError):
        first[0][3][0] = ((0, 1), 1)
    places = decompose_places(P(*coeffs), p, 2)
    places.clear()
    assert padic._first_round(p, cap, digits) is first
    assert places_tuple(P(*coeffs), p, 2) == [(2, 1, F(1), F(0))]


def uncached_places(poly, p, r):
    """decompose_places without its regular-places cache: `_analyze` at the
    working precision (the order route on a hand-over), the sum checks, a
    sort by Fraction and the interned places; and whether it handed over."""
    coeffs = list(poly.coeffs)
    v0 = v_p(coeffs[0], p)
    triples = []
    try:
        padic._analyze(coeffs, p, padic._working_precision(poly.degree, v0, r), 0, triples)
        handed_over = False
    except padic._HandOver:
        triples = [
            (e, f, (v.numerator, v.denominator))
            for e, f, v in padicorders.places_from_order(poly, p, r)
        ]
        handed_over = True
    padic._check_place_sums(triples, lcm(*(den for *_, (_, den) in triples)), poly.degree, v0)
    triples.sort(key=lambda t: (F(*t[2]), t[1], t[0]))
    return [make_place(e, f, num, den, r) for e, f, (num, den) in triples], handed_over


def test_regular_places_cache_equals_uncached_path():
    """decompose_places serves a class whose first round is regular from a
    cache on (p, r, valuation-digit map).  On every class of degree <= 4 at
    q = 2, 3, 4, 9 and 32, on a cold and a warm cache, it gives what the
    uncached path gives, a list the caller may change without changing the
    next answer, and on the warm cache only a hand-over misses.  Weil classes
    at q = 2 and q = 4 never share a digit map (v0 = r d / 2), so one
    polynomial is also asked for at r = 1 and r = 2: x^2 + 3 is Eisenstein
    at 3, with invariant 1 / r."""
    from weilkit.weil import GlobalContext, enumerate_weil

    cases = [
        (cls.polynomial, cls.context.p, cls.context.r)
        for q in (2, 3, 4, 9, 32)
        for cls in enumerate_weil(GlobalContext.from_q(q), 4)
    ]
    cases += [(P(3, 0, 1), 3, 1), (P(3, 0, 1), 3, 2)]
    wants = [uncached_places(*case) for case in cases]
    cache = padic._regular_places
    cache.cache_clear()
    for warm in (False, True):
        for (poly, p, r), (want, handed_over) in zip(cases, wants):
            misses = cache.cache_info().misses
            got = decompose_places(poly, p, r)
            assert got == want, (poly.coeffs, p, r, warm)
            if handed_over:
                continue
            if warm:
                assert cache.cache_info().misses == misses, (poly.coeffs, p, r)
            got.clear()
            assert decompose_places(poly, p, r) == want, (poly.coeffs, p, r, warm)
    assert [places_tuple(*case) for case in cases[-2:]] == [
        [(2, 1, F(1, 2), F(0))],
        [(2, 1, F(1, 2), F(1, 2))],
    ]
    info = cache.cache_info()
    assert info.hits > len(cases)
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_irregular_key_raises_on_every_call(monkeypatch):
    """Places that fail the sum checks are not cached: the same key raises
    IrregularPlacesError again on the next call."""
    poly, p, r = P(9, -1, 1), 3, 2  # two segments, valuations 0 and 2
    honest = padic._first_round

    def last_segment_lost(p, cap, digits):
        return honest(p, cap, digits)[:-1]

    padic._regular_places.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(padic, "_first_round", last_segment_lost)
        for _ in range(2):
            with pytest.raises(IrregularPlacesError, match="degrees sum to 1, expected 2$"):
                decompose_places(poly, p, r)
            assert padic._regular_places.cache_info().currsize == 0
    assert places_tuple(poly, p, r) == [(1, 1, F(0), F(0)), (1, 1, F(2), F(0))]


def _check_sums(triples, poly, p):
    common = lcm(*(den for _e, _f, (_num, den) in triples))
    padic._check_place_sums(triples, common, poly.degree, v_p(poly.coeffs[0], p))


def test_place_sums_in_integers():
    sextic, quintic = P(27, 0, 0, 0, 0, 0, 1), P(4, 0, 0, 0, 0, 1)
    # 3 roots of valuation 1/3 and 3 of 2/3; then 2 of 1/2 and 3 of 1/3
    _check_sums([(3, 1, (1, 3)), (3, 1, (2, 3))], sextic, 3)
    _check_sums([(2, 1, (1, 2)), (1, 3, (1, 3))], quintic, 2)
    with pytest.raises(IrregularPlacesError, match="degrees sum to 5, expected 6$"):
        _check_sums([(3, 1, (1, 3)), (2, 1, (1, 1))], sextic, 3)
    with pytest.raises(IrregularPlacesError, match="valuation sum 4, expected 3$"):
        _check_sums([(3, 1, (1, 3)), (3, 1, (1, 1))], sextic, 3)
    with pytest.raises(IrregularPlacesError, match="valuation sum 5/2, expected 2$"):
        _check_sums([(2, 1, (1, 2)), (3, 1, (1, 2))], quintic, 2)


# -- the two place routes ----------------------------------------------------

# classes whose places need the p-maximal-order route because one refinement
# round of the Newton-polygon method cannot separate them
ROUND2_CLASSES = (
    (2, (8, -8, 2, 0, 1, -2, 1)),
    (2, (8, -8, 6, -6, 3, -2, 1)),
    (2, (8, -4, 0, 0, 0, -1, 1)),
    (2, (8, 0, -2, -2, -1, 0, 1)),
    (2, (8, 0, -2, 2, -1, 0, 1)),
    (2, (8, 4, 0, 0, 0, 1, 1)),
    (2, (8, 8, 2, 0, 1, 2, 1)),
    (2, (8, 8, 6, 6, 3, 2, 1)),
    (3, (9, 0, 3, 0, 1)),
    (4, (16, -4, 4, -1, 1)),
    (4, (16, 0, -4, 0, 1)),
    (4, (16, 8, 1, 2, 1)),
    (9, (81, 0, -9, 0, 1)),
)

# 16 of the 417 classes of the acceptance grid (degree <= 6 for q in
# {2, 3, 4, 9}, degree <= 4 for q = 32) that go to the order route:
# random.Random(417).sample(others, 16), where others are the 404 not pinned
# above in enumerate_weil order; listed so that no test enumerates degree 6
GRID_ROUND2_SAMPLE = (
    (9, (729, 162, 117, 39, 13, 2, 1)),
    (32, (1024, -64, -15, -2, 1)),
    (4, (64, -32, 4, 4, 1, -2, 1)),
    (3, (27, 9, 0, 3, 0, 1, 1)),
    (32, (1024, 64, -31, 2, 1)),
    (9, (729, -81, -18, 0, -2, -1, 1)),
    (9, (729, -243, 63, -12, 7, -3, 1)),
    (9, (729, 324, 180, 71, 20, 4, 1)),
    (3, (27, 9, 9, 3, 3, 1, 1)),
    (9, (729, -162, 72, -24, 8, -2, 1)),
    (3, (27, -18, 3, 0, 1, -2, 1)),
    (9, (729, 324, 90, 39, 10, 4, 1)),
    (9, (729, 0, 27, -18, 3, 0, 1)),
    (3, (27, -36, 30, -21, 10, -4, 1)),
    (32, (1024, 192, 13, 6, 1)),
    (3, (27, 0, 0, -9, 0, 0, 1)),
)


def _newton_route_classes(count, seed):
    from weilkit.weil import GlobalContext, enumerate_weil

    round2 = set(ROUND2_CLASSES)
    pool = []
    for q, max_degree in ((2, 6), (3, 4), (4, 4), (9, 4), (32, 2)):
        for cls in enumerate_weil(GlobalContext.from_q(q), max_degree):
            key = (q, cls.polynomial.coeffs)
            if cls.degree >= 2 and key not in round2:
                pool.append(key)
    return random.Random(seed).sample(pool, count)


@pytest.mark.parametrize(
    "q, coeffs",
    ROUND2_CLASSES + GRID_ROUND2_SAMPLE + tuple(_newton_route_classes(40, 3)),
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else "q%d" % v,
)
def test_place_routes_agree(q, coeffs):
    from weilkit.padicorders import places_from_order
    from weilkit.weil import GlobalContext

    ctx = GlobalContext.from_q(q)
    poly = IntPolynomial(coeffs)
    got = sorted((pl.e, pl.f, pl.root_valuation) for pl in decompose_places(poly, ctx.p, ctx.r))
    want = sorted((e, f, F(v)) for e, f, v in places_from_order(poly, ctx.p, ctx.r))
    assert got == want


def test_out_of_precision_class_goes_to_the_order_route(monkeypatch):
    """At a cap that loses the constant term, the Newton route hands the
    class to the order route, which finds the same places."""
    from weilkit.weil import GlobalContext

    cases = [(P(*c), p, r) for c, p, r, _ in SPEC_EXAMPLES + REFINEMENT_CASES]
    for q, coeffs in (ROUND2_CLASSES[0], ROUND2_CLASSES[8], ROUND2_CLASSES[12]):
        ctx = GlobalContext.from_q(q)
        cases.append((P(*coeffs), ctx.p, ctx.r))
    want = [places_tuple(poly, p, r) for poly, p, r in cases]

    honest = padicorders.places_from_order
    calls = []

    def spy(poly, p, r):
        calls.append(poly.coeffs)
        return honest(poly, p, r)

    monkeypatch.setattr(padicorders, "places_from_order", spy)
    monkeypatch.setattr(padic, "_working_precision", lambda degree, v0, r: v0)
    # the regular-places cache reads the working precision as a function of
    # its key, so its entries from before the patch would still be served
    padic._regular_places.cache_clear()
    for (poly, p, r), places in zip(cases, want):
        calls.clear()
        assert places_tuple(poly, p, r) == places, poly
        assert calls == [poly.coeffs]
