"""Finite-precision p-adic tools: Newton polygons, a Witt-vector model of
the unramified extension W(F_{p^r})/p^k with its Frobenius, Hensel
splitting, and decomposition of an irreducible Weil-class polynomial into
p-adic place data (ramification e, inertia f, root valuation, local
invariant).

Valuations are normalized with v(p) = 1.  The place decomposition runs the
classical Newton-polygon/residual-polynomial method once, at one working
precision, with at most one refinement round (integral slope, repeated
linear residual factor, split off by quadratic Hensel lifting).  Each
coefficient's valuation and unit digit are read once per polynomial, and
the hull, the residual polynomials and the scaling all use them.  A round's
segments and residual factorizations depend on that valuation-digit map
alone, so they are memoized on it: the acceptance grid has few distinct
maps.  When the first round leaves every residual factor squarefree (the
regular case: by Ore's theorem the polygon and the factor degrees give every
place), a class's finished places are memoized too, on (p, r, digit map),
and `hondatate` memoizes its record on that key and is_real.  A class the
route cannot finish (precision ran out, or a segment is still irregular)
goes to the exact p-maximal-order route of `padicorders`.  Either route's
places must pass the degree and valuation-sum checks, or
IrregularPlacesError is raised.  Inside the decomposition a root valuation
is an integer pair (num, den), and the checks and the sort cross-multiply;
only the returned `PlaceAboveP`s hold it, and the invariant, as exact
Fractions, built once per distinct place and shared (they are frozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import gfpoly as gp
from .checks import verify
from .hensel import lift_factorization
from .tablering import TableRing


class IrregularPlacesError(Exception):
    """Raised when place data fails the degree or valuation-sum check."""


class _HandOver(Exception):
    """The Newton route cannot finish a class: the working precision ran out
    or a segment is still irregular after one refinement round."""


def v_p(n, p):
    """Exact p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- Newton polygons -----------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of p-adic coefficient valuations.

    `vertices` are the hull lattice points (index, valuation) left to right;
    `segments` lists (root_valuation, length) pairs, root valuations
    decreasing along the hull (they are the negated slopes).
    """

    vertices: tuple
    segments: tuple

    def root_valuations(self):
        """Multiset of root valuations as a sorted list with multiplicity."""
        out = []
        for val, length in self.segments:
            out.extend([val] * length)
        return sorted(out)


def _lower_hull(points):
    """Lower convex hull of (x, y) points with strictly increasing x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if pt is below or on the line hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(poly, p):
    """Newton polygon of a monic integer polynomial with p-unit leading term.

    Requires a nonzero constant term: zero roots have no finite valuation.
    """
    if poly.is_zero or not poly.is_monic:
        raise ValueError("monic polynomial required")
    if poly.coeffs[0] == 0:
        raise ValueError("remove zero roots first")
    pts = []
    for i, c in enumerate(poly.coeffs):
        if c != 0:
            pts.append((i, v_p(c, p)))
    return _polygon_from_points(pts)


def _polygon_from_points(pts):
    hull = _lower_hull(pts)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        val = Fraction(y1 - y2, x2 - x1)
        segments.append((val, x2 - x1))
    return NewtonPolygon(tuple(hull), tuple(segments))


# -- Witt-vector model of W(F_q) at finite precision ----------------------


class WittRingModel:
    """(Z/p^k)[t]/(m(t)) with m monic of degree r, irreducible mod p, and a
    Hensel-lifted Frobenius sigma with sigma(t) = t^p (mod p).

    Elements are tuples of r integers mod p^k (coordinates in the power
    basis of t).  The modulus is the lexicographically smallest monic
    irreducible of its degree, making models reproducible without a table.
    Sums, products and inverses are those of `ring`, the `TableRing` on the
    integer table of Z[t]/(m).
    """

    def __init__(self, p, r, k):
        if r < 1 or k < 1:
            raise ValueError("need r >= 1 and k >= 1")
        self.p = p
        self.r = r
        self.k = k
        self.pk = p ** k
        self.modulus = tuple(gp.lexicographically_smallest_irreducible(p, r))
        self.ring = ring = TableRing(_power_basis_table(self.modulus), self.one(), p, k)
        self.add, self.sub, self.scal = ring.add, ring.sub, ring.scal
        self.mul, self.inv = ring.mul, ring.inv
        self.frobenius_image = self._lift_frobenius()
        self._sigma_mats = self._sigma_matrices()

    # elements are tuples of length r with entries in [0, p^k)

    def zero(self):
        return (0,) * self.r

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return (n % self.pk,) + (0,) * (self.r - 1)

    def from_coords(self, cs):
        cs = list(cs)
        if len(cs) > self.r:
            raise ValueError("too many coordinates")
        cs += [0] * (self.r - len(cs))
        return tuple(c % self.pk for c in cs)

    def poly_eval(self, coeffs, a):
        """Evaluate an integer-coefficient polynomial at a ring element."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.mul(acc, a)
            acc = self.add(acc, self.from_int(c))
        return acc

    def _lift_frobenius(self):
        """The root rho of the modulus m congruent to y0 = t^p mod p, by
        Newton steps on one inverse z = m'(y0)^(-1): y <- y - m(y) z at most
        k - 1 times from y0, stopping at m(y) = 0.  If y = rho mod p^a with
        a >= 1, then m(y) = m'(rho) (y - rho) mod p^(a+1) and
        m'(rho) z = m'(y0) z = 1 mod p, so y - m(y) z = rho mod p^(a+1)."""
        if self.r == 1:
            return self.from_int(0)  # t is absent; sigma is identity on Z_p
        y = self.ring.power(self.from_coords([0, 1]), self.p)
        m = self.modulus
        z = self.inv(self.poly_eval([i * m[i] for i in range(1, len(m))], y))
        for _ in range(self.k - 1):
            fy = self.poly_eval(m, y)
            if not any(fy):
                break
            y = self.sub(y, self.mul(fy, z))
        verify(self.poly_eval(m, y) == self.zero(), "Frobenius lift failed")
        return y

    def _sigma_matrices(self):
        """Coordinate matrices of sigma^i for i in [0, r): column j of
        sigma^i is sigma^i(t)^j, and sigma^(i+1)(t) is sigma^i(t), a
        polynomial in t, evaluated at sigma(t)."""
        if self.r == 1:
            return [((1,),)]
        mats, image = [], self.from_coords([0, 1])
        for _ in range(self.r):
            mats.append(tuple(zip(*(self.ring.power(image, j) for j in range(self.r)))))
            image = self.poly_eval(image, self.frobenius_image)
        return mats

    def sigma(self, a, power=1):
        """Arithmetic Frobenius sigma^power applied to a ring element."""
        mat = self._sigma_mats[power % self.r]
        return tuple(
            sum(mat[i][j] * a[j] for j in range(self.r)) % self.pk
            for i in range(self.r)
        )


def _power_basis_table(m):
    """Integer table of Z[t]/(m) on 1, t, .., t^(r-1) for m monic of degree
    r: t^i t^j is t^(i+j) with t^r replaced by -(m_0 + .. + m_(r-1) t^(r-1))."""
    r = len(m) - 1
    powers = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    for _ in range(r - 1):
        top = powers[-1]
        powers.append(tuple(s - top[-1] * c for s, c in zip((0,) + top[:-1], m)))
    return tuple(tuple(powers[i + j] for j in range(r)) for i in range(r))


# -- place decomposition ---------------------------------------------------


@dataclass(frozen=True)
class PlaceAboveP:
    """One p-adic place of the field of a Weil class.

    e, f are ramification and inertia; root_valuation is v_p(pi) with
    v(p) = 1; degree = e*f; invariant is the local Brauer invariant of the
    endomorphism algebra, an exact fraction in [0, 1).
    """

    e: int
    f: int
    root_valuation: Fraction
    invariant: Fraction

    @property
    def degree(self):
        return self.e * self.f

    def as_dict(self):
        return {
            "e": self.e,
            "f": self.f,
            "val": [self.root_valuation.numerator, self.root_valuation.denominator],
            "inv": [self.invariant.numerator, self.invariant.denominator],
        }


@lru_cache(maxsize=1024)
def make_place(e, f, num, den, r):
    """The place of e, f and root valuation num/den; its invariant
    e f v / r mod 1 is computed in integers.  Places are interned: a grid
    pass asks for a few dozen distinct ones thousands of times."""
    return PlaceAboveP(e, f, Fraction(num, den), Fraction(num * e * f % (den * r), den * r))


def _working_precision(degree, v0, r):
    """Cheap cap with no discriminant, from the degree and v0 = v_p(P(0)):
    every polygon/residual conclusion is precision-checked, and a class that
    outruns it goes to the order route."""
    return 2 * r * degree + v0 + 6


def _poly_val(coeffs, p, cap=None):
    """{index: (valuation, unit digit)} of a coefficient list, the unit digit
    of c being c / p^v(c) mod p.  With a cap the list is taken mod p^cap and
    entries that vanish are treated as +infinity (omitted); with none the
    valuations are exact, and an entry of valuation >= cap can only lie above
    a hull whose vertices all lie below cap - 1, so it changes no analysis."""
    digits = {}
    mod = p ** cap if cap else 0
    for i, c in enumerate(coeffs):
        if mod:
            c %= mod
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            digits[i] = (v, c % p)
    return digits


def _residual(digits, seg_left, seg_right, a, b):
    """Residual polynomial of the segment from seg_left to seg_right with
    slope -a/b, over F_p (constant first): the unit digits of the points on
    the segment (no point lies below it)."""
    (i0, v0), (i1, _v1) = seg_left, seg_right
    out = []
    for j in range((i1 - i0) // b + 1):
        v, u = digits.get(i0 + j * b, (None, 0))
        out.append(u if v == v0 - j * a else 0)
    return gp.gf_trim(out)


def _segments_of(digits, cap):
    """Hull segments [(a, b, left_pt, right_pt)], of root valuation a/b in
    lowest terms, of a monic polynomial's `_poly_val` items; its leading
    term (n, 0) survives any cap, so it ends the hull."""
    pts = [(i, v) for i, (v, _u) in digits]
    if pts[0][0] != 0:
        raise _HandOver("constant term lost at working precision")
    hull = _lower_hull(pts)
    for _, v in hull:
        if v >= cap - 1:
            raise _HandOver("hull vertex at working precision")
    segs = []
    for left, right in zip(hull, hull[1:]):
        rise = left[1] - right[1]
        run = right[0] - left[0]
        g = gcd(rise, run)  # run when rise is 0, so a flat segment is 0/1
        segs.append((rise // g, run // g, left, right))
    return segs


@lru_cache(maxsize=1024)
def _first_round(p, cap, digits):
    """((a, b, left_pt, factors), ..) per hull segment of the `_poly_val`
    items `digits`, `factors` being the residual's monic irreducible factors
    over F_p with multiplicities; raises _HandOver as `_segments_of` does.

    Memoized, because every output is a function of the key: the hull
    points and their cap - 1 checks are the (index, valuation) pairs of
    `digits`, the residuals are read from its unit digits, and their
    factorizations from the residuals and p.  A grid pass finishes 12,220
    classes in this round with 467 distinct keys; the refinement round and
    the peeled blocks read it too.  The result is tuples throughout, so no
    caller can change what the cache holds."""
    items = dict(digits)
    return tuple(
        (a, b, left, tuple(gp.factor(_residual(items, left, right, a, b), p)[1]))
        for a, b, left, right in _segments_of(digits, cap)
    )


def _shift_poly(coeffs, c, mod):
    """Substitute y + c into a coefficient-list polynomial, mod `mod`."""
    out = []
    for coef in reversed(coeffs):
        # out <- out*(y+c) + coef
        new = [0] * (len(out) + 1)
        for i, x in enumerate(out):
            new[i + 1] = (new[i + 1] + x) % mod
            new[i] = (new[i] + x * c) % mod
        new[0] = (new[0] + coef) % mod
        out = new
    return out


def _scale_down(coeffs, digits, p, a, cap):
    """G(p^a y) / p^c with c chosen minimal, `digits` being G's
    `_poly_val` items; returns (scaled, c, new_cap)."""
    mod = p ** cap
    c = min(v + a * j for j, (v, _u) in digits)
    if cap <= c:
        raise _HandOver("scaling exhausted precision")
    mod_out = p ** (cap - c)
    out = []
    for j, coef in enumerate(coeffs):
        num = (coef % mod) * p ** (a * j)
        verify(num % p ** c == 0, "support line violated")
        out.append((num // p ** c) % mod_out)
    return out, c, cap - c


def _analyze(coeffs, p, cap, offset, out, digits=None):
    """Emit (e, f, (num, den)) triples, the root valuation being num/den,
    for the roots of the monic coefficient list `coeffs` (all of nonnegative
    valuation), shifted by the integer `offset`; `digits` is its `_poly_val`
    items when the caller has them."""
    if len(coeffs) - 1 <= 0:
        return
    if digits is None:
        digits = tuple(_poly_val(coeffs, p, cap).items())
    analysis = _first_round(p, cap, digits)
    if all(m == 1 for *_, factors in analysis for _, m in factors):
        for a, b, _left, factors in analysis:
            for irr, _m in factors:
                out.append((b, len(irr) - 1, (offset * b + a, b)))
        return
    # peel at the minimal-valuation segment: valuations fall along the hull,
    # so it is the last one
    a, b, left, seg_factors = analysis[-1]
    if b != 1:
        raise _HandOver("repeated residual factor on a non-integral slope")
    scaled, _c, cap2 = _scale_down(coeffs, digits, p, a, cap)
    # reduction mod p of scaled = y^{i0} * residual(y)
    i0 = left[0]
    parts = []
    if i0 > 0:
        parts.append([0] * i0 + [1])  # y^{i0}: the steeper-slope block
    for irr, m in seg_factors:
        piece = [1]
        for _ in range(m):
            piece = gp.gf_mul(piece, list(irr), p)
        parts.append(piece)
    if len(parts) == 1:
        lifted = [list(scaled)]
    else:
        lifted = lift_factorization(scaled, parts, p, cap2)
    if i0 > 0:
        _analyze(lifted.pop(0), p, cap2, offset + a, out)
    for (irr, m), factor_poly in zip(seg_factors, lifted):
        if m == 1:
            out.append((1, len(irr) - 1, (offset + a, 1)))
            continue
        if len(irr) - 1 > 1:
            raise _HandOver("repeated nonlinear residual factor")
        c0 = (-irr[0]) % p
        shifted = _shift_poly(factor_poly, c0, p ** cap2)
        # one refinement round: analyze with the valuation pinned to offset+a
        _analyze_refined(shifted, p, cap2, offset + a, out)


def _analyze_refined(coeffs, p, cap, pinned_val, out):
    """Second-round analysis: slopes of `coeffs` only determine (e, f); the
    root valuation of the original class is already pinned to an integer."""
    digits = tuple(_poly_val(coeffs, p, cap).items())
    for _a, b, _left, factors in _first_round(p, cap, digits):
        for irr, m in factors:
            if m > 1:
                raise _HandOver("repeated residual factor after one refinement")
            out.append((b, len(irr) - 1, (pinned_val, 1)))


@lru_cache(maxsize=1024)
def _regular_places(p, r, digits):
    """The checked, sorted places of the monic polynomial whose `_poly_val`
    items are `digits` when its first round is regular, else None; raises
    as `_first_round` does.  The key fixes them: `digits` holds the degree
    (its last index) and v0, hence the working precision, and r gives the
    invariants.  Places that fail the check raise again on the next call:
    exceptions are not cached.  The grid has 705 keys in 17,266 classes."""
    degree, v0 = digits[-1][0], digits[0][1][0]
    analysis = _first_round(p, _working_precision(degree, v0, r), digits)
    if any(m > 1 for *_, factors in analysis for _, m in factors):
        return None
    triples = [(b, len(irr) - 1, (a, b)) for a, b, _l, fs in analysis for irr, _m in fs]
    return _finished_places(triples, degree, v0, r)


def digit_map(poly, p):
    """The exact `_poly_val` items of a monic nonconstant polynomial with
    nonzero constant term: the key of the Newton route's caches."""
    if not poly.is_monic or poly.degree < 1:
        raise ValueError("monic nonconstant polynomial required")
    if poly.coeffs[0] == 0:
        raise ValueError("remove zero roots first")
    return tuple(_poly_val(poly.coeffs, p).items())


def decompose_places(poly, p, r):
    """All p-adic places of the number field of an irreducible Weil-class
    polynomial: returns a list of PlaceAboveP sorted by root valuation.

    The Newton route runs once at the working precision; a class it cannot
    finish goes to the exact p-maximal-order route, which needs no precision.
    """
    return _places(poly, p, r, digit_map(poly, p))


def _places(poly, p, r, digits):
    """`decompose_places` on the class's `digit_map`, read once per record."""
    v0 = digits[0][1][0]
    try:
        places = _regular_places(p, r, digits)
        if places is not None:
            return list(places)
        triples = []
        _analyze(list(poly.coeffs), p, _working_precision(poly.degree, v0, r), 0, triples, digits)
    except _HandOver:
        from .padicorders import places_from_order

        triples = [
            (e, f, (v.numerator, v.denominator)) for e, f, v in places_from_order(poly, p, r)
        ]
    return list(_finished_places(triples, poly.degree, v0, r))


def _finished_places(triples, degree, v0, r):
    """The (e, f, (num, den)) triples checked by `_check_place_sums`, sorted
    by root valuation, as a tuple of interned places."""
    # valuations over one common denominator: sums and order in integers
    common = lcm(*(den for _e, _f, (_num, den) in triples))
    _check_place_sums(triples, common, degree, v0)
    triples.sort(key=lambda t: (t[2][0] * (common // t[2][1]), t[1], t[0]))
    return tuple(make_place(e, f, num, den, r) for e, f, (num, den) in triples)


def _check_place_sums(triples, common, degree, expected):
    """Raise IrregularPlacesError unless the degrees e f of the (e, f,
    (num, den)) triples sum to `degree` and the degree-weighted root
    valuations to `expected` = v_p(P(0)), counted in units of 1/common
    (every den divides common).  The test is explicit rather than an assert
    so that it also runs under python -O."""
    total_deg = sum(e * f for e, f, _val in triples)
    vsum = sum(e * f * num * (common // den) for e, f, (num, den) in triples)
    if total_deg != degree:
        problem = "degrees sum to %d, expected %d" % (total_deg, degree)
    elif vsum != expected * common:
        problem = "valuation sum %s, expected %s" % (Fraction(vsum, common), expected)
    else:
        return
    raise IrregularPlacesError("place data failed invariant checks: %s" % problem)
