"""Honda-Tate numerical invariants of Weil classes.

For a class pi this computes the local invariants of the endomorphism
algebra of the associated simple abelian variety, its index s (the lcm of
the invariant denominators, with 1/2 at each real place), the dimension
from 2*dim = s*deg, and the multiplicities m = 2r/s and, when defined,
m_reduced = r/s that make the localized module theory free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .checks import verify
from .intpoly import IntPolynomial
from . import padic
from .padic import digit_map
from .weil import GlobalContext, WeilClass, classify_slopes, slope_type, validate_weil


@dataclass(frozen=True)
class HondaTateRecord:
    weil_class: WeilClass
    places: tuple
    real_place_count: int
    s: int
    dim: int
    multiplicity: int
    reduced_multiplicity: int | None
    slope_kind: str

    def as_dict(self):
        ctx = self.weil_class.context
        return {
            "q": ctx.q,
            "p": ctx.p,
            "r": ctx.r,
            "poly": list(self.weil_class.polynomial.coeffs),
            "places": [pl.as_dict() for pl in self.places],
            "real_places": self.real_place_count,
            "s": self.s,
            "dim": self.dim,
            "m": self.multiplicity,
            "m_reduced": self.reduced_multiplicity,
            "slope_type": self.slope_kind,
        }


def honda_tate_record(cls):
    """Invariants of one Weil class; raises IrregularPlacesError when its
    place data fails the degree or valuation-sum check."""
    ctx = cls.context
    digits = digit_map(cls.polynomial, ctx.p)
    found = _regular_fields(ctx.p, ctx.r, digits, cls.is_real)
    if found is None:
        places = tuple(padic._places(cls.polynomial, ctx.p, ctx.r, digits))
        found = places, _fields(places, ctx.r, cls.is_real, cls.degree)
    return HondaTateRecord(cls, found[0], *found[1])


@lru_cache(maxsize=1024)
def _regular_fields(p, r, digits, is_real):
    """(places, fields) of a class whose first round is regular, from the
    interned places of `padic._regular_places` and `_fields`; None when the
    first round is not regular or hands the class over, and an
    IrregularPlacesError propagates and is not cached.

    The key fixes the record's numbers, so each check runs once per key, on
    the miss that fills it: the digit map holds the degree (its last index)
    and v0, hence the working precision, r gives the invariants, and is_real
    the real places, which the map does not see: x^2 - 2 and x^2 + 2 at
    q = 2 share the map ((0, (1, 1)), (2, (0, 1))) but have s = 2 and 1."""
    try:
        places = padic._regular_places(p, r, digits)
    except padic._HandOver:
        return None
    return None if places is None else (places, _fields(places, r, is_real, digits[-1][0]))


def _fields(places, r, is_real, degree):
    """(real places, s, dim, m, m_reduced, slope kind) of a class of the
    given degree over F_(p^r) with these verified places."""
    # non-real classes are totally imaginary; the real class x^2 - q has two
    # real embeddings and a rational class one
    real_places = (1 if degree == 1 else 2) if is_real else 0
    s = lcm(2 if is_real else 1, *(pl.invariant.denominator for pl in places))
    two_dim = s * degree
    verify(two_dim % 2 == 0, "s*deg must be even")
    verify((2 * r) % s == 0, "s must divide 2r")
    reduced = None
    if not (r % 2 == 1 and is_real):
        verify(r % s == 0, "s must divide r away from the odd real class")
        reduced = r // s
    # the places are verified: a place carries e*f roots of valuation v
    kind = classify_slopes([pl.root_valuation for pl in places], r)
    return real_places, s, two_dim // 2, 2 * r // s, reduced, kind


def reciprocity_sum(record):
    """Sum of all local invariants including 1/2 per real place; an integer
    by Brauer reciprocity."""
    total = sum((pl.invariant for pl in record.places), Fraction(0))
    total += Fraction(record.real_place_count, 2)
    return total


def rank_of_hom_lattice(dim_x, ctx, reduced=False):
    """Z-rank of the lattice attached to a dim_x-dimensional object:
    4*r*dim, or 2*r*dim for the reduced variant."""
    if dim_x < 1:
        raise ValueError("positive dimension required")
    factor = 2 if reduced else 4
    return factor * ctx.r * dim_x


def commutative_classifier(classes):
    """Which commutative regime a family of classes falls into.

    'commutative_ordinary' when every class is ordinary,
    'commutative_p_nonreal' when r = 1 and no class is real,
    'noncommutative' otherwise.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("nonempty family required")
    ctx = classes[0].context
    kinds = [slope_type(c)[0] for c in classes]
    if all(k == "ordinary" for k in kinds):
        return "commutative_ordinary"
    if ctx.r == 1 and not any(c.is_real for c in classes):
        return "commutative_p_nonreal"
    return "noncommutative"


@dataclass(frozen=True)
class GammaWitnesses:
    """Certificates that the rank constant is divisible by 2*lcm(r, 2)."""

    context: GlobalContext
    index_r_witness: HondaTateRecord | None
    index_two_witness: HondaTateRecord
    divisor: int
    note: str = ""


def gamma_witnesses(ctx):
    """Witness classes with s = r (when r > 2) and s = 2, certifying the
    divisor 2*lcm(r, 2) of any uniform rank constant."""
    divisor = 2 * lcm(ctx.r, 2)
    # s = 2 from the real class: x^2 - q for odd r, x -+ sqrt(q) for even r
    if ctx.r % 2:
        real_cls = validate_weil(IntPolynomial((-ctx.q, 0, 1)), ctx)
    else:
        real_cls = validate_weil(IntPolynomial((-ctx.p ** (ctx.r // 2), 1)), ctx)
    rec2 = honda_tate_record(real_cls)
    verify(rec2.s == 2, "real witness must have index 2")
    if ctx.r <= 2:
        return GammaWitnesses(
            ctx, None, rec2, divisor, note="s = r witness needs r > 2"
        )
    witness = validate_weil(IntPolynomial((ctx.q, -ctx.p, 1)), ctx)
    rec_r = honda_tate_record(witness)
    verify(rec_r.s == ctx.r, "x^2 - px + q must have index r")
    verify(lcm(2 * rec_r.s, 2 * rec2.s) == divisor, "witness indices do not give the divisor")
    return GammaWitnesses(ctx, rec_r, rec2, divisor)


def minimal_cogenerator_dimension_supersingular_elliptic(cls):
    """Minimal dimension of an object whose hom functor classifies the
    modules of a supersingular elliptic class: r for irrational pi, r/2 for
    rational pi."""
    record = honda_tate_record(cls)
    if record.dim != 1 or cls.degree > 2:
        raise ValueError("elliptic class required")
    if record.slope_kind != "supersingular":
        raise ValueError("supersingular class required")
    if cls.is_rational:
        verify(cls.context.r % 2 == 0, "a rational class needs even r")
        return cls.context.r // 2
    return cls.context.r
