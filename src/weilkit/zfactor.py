"""Irreducibility over Q for monic integer polynomials of small degree.

Strategy: factor modulo several good primes and intersect the attainable
factor-degree sets; if only the trivial split survives, the polynomial is
irreducible.  Otherwise candidate factors are reconstructed from a
Hensel-lifted factorization at one prime and verified by exact trial
division (a small-scale Zassenhaus round, entirely adequate below degree
ten).
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt

from . import gfpoly as gp
from .checks import VerificationError
from .hensel import lift_factorization
from .intpoly import IntPolynomial, divmod_exact, is_squarefree

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# the divisor scan of a cubic takes isqrt(|c0|) steps: about 0.1 ms at this
# limit, against 0.2-0.5 ms for the general test
_CUBIC_C0_LIMIT = 10 ** 6


def _degree_sums(degrees):
    """All degrees realizable as sums of sub-multisets (excluding 0 and all)."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    total = sum(degrees)
    return {s for s in sums if 0 < s < total}


def _mignotte_bound(poly):
    """Bound on the absolute coefficients of any monic factor."""
    norm_sq = sum(c * c for c in poly.coeffs)
    # ceil(sqrt()) via isqrt
    root = isqrt(norm_sq)
    if root * root < norm_sq:
        root += 1
    return (2 ** poly.degree) * (root + abs(poly.lc))


def _has_integer_root(poly):
    """Does a monic integer polynomial with nonzero constant term vanish at
    a +-divisor of that term?"""
    m = abs(poly.coeffs[0])
    for d in range(1, isqrt(m) + 1):
        if m % d == 0 and any(poly(t) == 0 for t in (d, -d, m // d, -m // d)):
            return True
    return False


def is_irreducible(poly):
    """Irreducibility over Q of a monic integer polynomial, of any degree.

    Degrees 2 and 3 are decided in integers: a monic quadratic is
    irreducible iff its discriminant is not a square, and a monic cubic iff
    it has no integer root, which divides c0 (a repeated root of a monic
    integer cubic is an integer too).  Weil classes reach this function as
    their trace polynomial Q rather than P(x) = x^d Q(x + q/x): when every
    root beta of Q lies in (-2 sqrt q, 2 sqrt q), Q(beta) is totally real
    and beta^2 - 4q totally negative, so [Q(pi):Q] = 2 [Q(beta):Q] and P is
    irreducible exactly when Q is.

    Higher degrees are settled by degree patterns mod a few primes when they
    can be, and otherwise by a Zassenhaus subset search whose cost grows
    exponentially in the number of modular factors: a degree-32 trace
    polynomial of Swinnerton-Dyer type, with roots +-sqrt 2 +- ... +-
    sqrt 11, takes seconds.
    """
    if not poly.is_monic:
        raise ValueError("monic polynomial required")
    n = poly.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    coeffs = poly.coeffs
    if coeffs[0] == 0:
        return False  # x divides
    if n == 2:
        disc = coeffs[1] * coeffs[1] - 4 * coeffs[0]
        return disc < 0 or isqrt(disc) ** 2 != disc
    if n == 3 and abs(coeffs[0]) <= _CUBIC_C0_LIMIT:
        return not _has_integer_root(poly)
    if not is_squarefree(poly):
        return False

    candidates = None
    good = 0
    for p in _PRIMES:
        degrees = gp.degree_pattern(list(poly.coeffs), p)
        if degrees is None:
            continue  # ramified prime, degree pattern unusable
        if len(degrees) == 1:
            return True  # irreducible mod p
        sums = _degree_sums(degrees)
        candidates = sums if candidates is None else candidates & sums
        if not candidates:
            return True
        good += 1
        if good >= 4:
            break

    return _zassenhaus_irreducible(poly)


def _zassenhaus_irreducible(poly):
    """Certify (ir)reducibility by trial factor reconstruction at one prime."""
    n = poly.degree
    for p in _PRIMES:
        reduced = gp.gf_normal(list(poly.coeffs), p)
        if len(reduced) - 1 != n:
            continue
        _, factors = gp.factor(reduced, p)
        if any(mult > 1 for _, mult in factors):
            continue
        mod_factors = [list(f) for f, _ in factors]
        if len(mod_factors) == 1:
            return True
        bound = _mignotte_bound(poly)
        k = 1
        pk = p
        while pk <= 2 * bound:
            pk *= p
            k += 1
        lifted = lift_factorization(list(poly.coeffs), mod_factors, p, k)
        half = pk // 2
        indices = range(len(lifted))
        # try all proper subsets up to half the factors
        for size in range(1, len(lifted) // 2 + 1):
            for subset in combinations(indices, size):
                prod = [1]
                for i in subset:
                    prod = gp.gf_mul(prod, lifted[i], pk)
                cand = [c - pk if c > half else c for c in prod]
                candidate = IntPolynomial(cand)
                if candidate.degree == 0 or candidate.degree == n:
                    continue
                try:
                    divmod_exact(poly, candidate)
                    return False
                except ValueError:
                    continue
        return True
    raise VerificationError("no usable prime found for %r" % (poly,))
