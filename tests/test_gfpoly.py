import random

import pytest

from weilkit import gfpoly as gp


def test_basic_ops():
    p = 5
    a = [1, 2, 3]
    b = [4, 1]
    assert gp.gf_add(a, b, p) == [0, 3, 3]
    assert gp.gf_mul([1, 1], [1, 4], p) == [1, 0, 4]
    q, r = gp.gf_divmod([1, 0, 1], [2, 1], p)
    assert gp.gf_add(gp.gf_mul(q, [2, 1], p), r, p) == [1, 0, 1]


def general_divmod(a, b, p):
    """gf_divmod before its monic shortcut, kept verbatim: it inverts the
    leading coefficient of every divisor and trims the dividend each step."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv) % p
        shift = len(a) - 1 - db
        q[shift] = c
        for i in range(len(b)):
            a[shift + i] = (a[shift + i] - c * b[i]) % p
        gp.gf_trim(a)
    return gp.gf_trim(q), a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_divmod_matches_general_path(p):
    # seeded dividends and divisors mod p^k, monic and with another unit
    # leading coefficient; dividends reduced mod p^k give the same quotient
    # and remainder, and dividends reduced only mod p^(k+2) (as Hensel
    # lifting passes them) the same quotient and remainder mod p^k
    rng = random.Random(p)
    for k in (1, 2, 3, 5, 8, 13):
        m = p ** k
        for _ in range(150):
            lead = 1 if rng.random() < 0.7 else rng.randrange(1, p) + p * rng.randrange(p ** (k - 1))
            b = [rng.randrange(m) for _ in range(rng.randint(0, 4))] + [lead]
            a = gp.gf_trim([rng.randrange(m) for _ in range(rng.randint(0, 9))])
            want = general_divmod(a, b, m)
            assert gp.gf_divmod(a, b, m) == want, (a, b, m)
            q, r = want
            assert gp.gf_add(gp.gf_mul(q, b, m), r, m) == a and len(r) < len(b)
            raw = gp.gf_trim([c + m * rng.randrange(p * p) for c in a])
            got, want = gp.gf_divmod(raw, b, m), general_divmod(raw, b, m)
            assert got[0] == want[0] and gp.gf_normal(got[1], m) == gp.gf_normal(want[1], m)
    with pytest.raises(ZeroDivisionError):
        gp.gf_divmod([1, 1], [], p)


def test_gcd():
    p = 7
    a = gp.gf_mul([1, 1], [2, 1], p)
    b = gp.gf_mul([1, 1], [3, 1], p)
    assert gp.gf_gcd(a, b, p) == [1, 1]


def test_irreducibility():
    assert gp.is_irreducible([1, 0, 1], 3)  # x^2 + 1 mod 3
    assert not gp.is_irreducible([1, 0, 1], 5)  # (x+2)(x+3) mod 5
    assert gp.is_irreducible([1, 0, 1, 0, 0, 1], 2)  # x^5 + x^2 + 1
    assert gp.is_irreducible([1, 1, 1], 2)
    assert not gp.is_irreducible([1, 0, 1], 2)  # (x+1)^2


def rabin_is_irreducible(a, p):
    """Rabin's irreducibility test over F_p, the earlier
    `gfpoly.is_irreducible`: x^(p^n) = x mod a, and gcd(x^(p^(n/l)) - x, a)
    = 1 for every prime l dividing n = deg a."""
    n = len(a) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    a = gp.gf_monic(a, p)
    x = [0, 1]
    h = x
    for _ in range(n):
        h = gp.gf_pow_mod(h, p, a, p)
    if gp.gf_sub(h, x, p):
        return False
    for ell in (q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))):
        h = x
        for _ in range(n // ell):
            h = gp.gf_pow_mod(h, p, a, p)
        if len(gp.gf_gcd(gp.gf_sub(h, x, p), a, p)) - 1 != 0:
            return False
    return True


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 6), (5, 4), (7, 4)])
def test_is_irreducible_matches_rabin(p, max_degree):
    """The distinct-degree test agrees with Rabin on every monic polynomial
    of degree 1..max_degree over F_p, and the counts N_d of monic
    irreducibles of degree d satisfy Gauss's sum_(d | n) d N_d = p^n."""
    counts = {}
    for n in range(1, max_degree + 1):
        for code in range(p ** n):
            poly = [code // p ** i % p for i in range(n)] + [1]
            expected = rabin_is_irreducible(poly, p)
            assert gp.is_irreducible(poly, p) == expected, poly
            counts[n] = counts.get(n, 0) + expected
        assert sum(d * counts[d] for d in counts if n % d == 0) == p ** n


def test_x5_x_1_reducible_mod_2():
    prod = gp.gf_mul([1, 1, 1], [1, 0, 1, 1], 2)
    assert prod == [1, 1, 0, 0, 0, 1]
    assert not gp.is_irreducible([1, 1, 0, 0, 0, 1], 2)


def test_lexicographically_smallest_irreducible():
    assert gp.lexicographically_smallest_irreducible(3, 2) == [1, 0, 1]
    m = gp.lexicographically_smallest_irreducible(2, 5)
    assert m == [1, 0, 1, 0, 0, 1]  # x^5 + x^2 + 1
    assert gp.is_irreducible(m, 2)


def gf_eval(a, x, p):
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _exhaustive_irreducible(poly, p):
    """Oracle for degree <= 3: irreducible iff no roots (deg 2, 3) or no
    divisor of degree 1 (deg 1 trivially irreducible)."""
    d = len(poly) - 1
    if d <= 1:
        return d == 1
    if d <= 3:
        return all(gf_eval(poly, x, p) != 0 for x in range(p))
    raise NotImplementedError


def _check_factorization(poly, p):
    lc, factors = gp.factor(poly, p)
    prod = [lc]
    for f, mult in factors:
        assert f[-1] == 1
        for _ in range(mult):
            prod = gp.gf_mul(prod, list(f), p)
        if len(f) - 1 <= 3:
            assert _exhaustive_irreducible(list(f), p)
        else:
            assert gp.is_irreducible(list(f), p)
    assert prod == gp.gf_normal(list(poly), p)
    # distinct factors, in the documented (degree, coefficients) order
    assert factors == sorted(factors, key=lambda t: (len(t[0]), t[0]))
    assert len({f for f, _ in factors}) == len(factors)
    return factors


def test_factor_examples():
    # x^2 + 1 irreducible mod 3
    factors = _check_factorization([1, 0, 1], 3)
    assert factors == [((1, 0, 1), 1)]
    # x^2 + x mod 3
    factors = _check_factorization([0, 1, 1], 3)
    assert factors == [((0, 1), 1), ((1, 1), 1)]
    # x^4 - 1 mod 5 splits into linear factors (evaluation oracle)
    factors = _check_factorization([4, 0, 0, 0, 1], 5)
    assert [f for f, _ in factors] == [(1, 1), (2, 1), (3, 1), (4, 1)]
    roots = {(-f[0]) % 5 for f, _ in factors}
    assert roots == {x for x in range(1, 5) if pow(x, 4, 5) == 1}


def test_factor_with_multiplicities():
    # (x+1)^2 (x^2+1) mod 3
    sq = gp.gf_mul([1, 1], [1, 1], 3)
    poly = gp.gf_mul(sq, [1, 0, 1], 3)
    factors = _check_factorization(poly, 3)
    assert ((1, 1), 2) in factors
    assert ((1, 0, 1), 1) in factors


def test_factor_p_power_multiplicity():
    # (x+1)^3 mod 3 has zero derivative handling
    poly = gp.gf_mul(gp.gf_mul([1, 1], [1, 1], 3), [1, 1], 3)
    factors = _check_factorization(poly, 3)
    assert factors == [((1, 1), 3)]


def test_factor_random():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            deg = rng.randint(1, 8)
            poly = [rng.randrange(p) for _ in range(deg)] + [1]
            _check_factorization(poly, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_every_polynomial_up_to_degree_4(p):
    # covers the linear and gcd(f, f') = 1 shortcuts next to the full path
    for d in range(5):
        for code in range(p ** d):
            for lc in range(1, p):
                poly = [code // p ** i % p for i in range(d)] + [lc]
                _check_factorization(poly, p)


def test_factor_determinism():
    poly = [2, 0, 1, 0, 0, 0, 1, 1]
    assert gp.factor(poly, 3) == gp.factor(poly, 3)


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        gp.factor([], 7)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cached_factor_matches_uncached_core(p):
    # every monic polynomial of degree <= 4, on a cold and on a warm cache
    gp._factor_monic.cache_clear()
    core = gp._factor_monic.__wrapped__
    for repeat in range(2):
        for d in range(5):
            for code in range(p ** d):
                poly = [code // p ** i % p for i in range(d)] + [1]
                assert gp.factor(poly, p) == (1, list(core(tuple(poly), p))), (repeat, poly)
    assert gp._factor_monic.cache_info().hits >= sum(p ** d for d in range(5))


def test_factor_result_is_the_callers_own():
    poly = gp.gf_mul([1, 1], [1, 0, 1], 3)
    lc, factors = gp.factor(poly, 3)
    want = list(factors)
    factors.append(((2, 1), 7))
    factors[0] = ((0, 1), 1)
    assert gp.factor(poly, 3) == (lc, want)
    assert gp.factor([2 * c for c in poly], 3) == (2, want)


def test_residual_factorizations_repeat_across_the_grid():
    # one pass of the place decomposition over every class of degree <= 4
    # of the acceptance grid's fields: residual polynomials recur across
    # classes, so the cache serves nearly all calls on the first pass.  The
    # padic caches above it start cold too, or what earlier tests left in
    # them would decide which residuals reach the factorizer
    from weilkit import padic
    from weilkit.padic import decompose_places
    from weilkit.weil import GlobalContext, enumerate_weil

    classes = [
        cls for q in (2, 3, 4, 9, 32) for cls in enumerate_weil(GlobalContext.from_q(q), 4)
    ]
    gp._factor_monic.cache_clear()
    padic._first_round.cache_clear()
    padic._regular_places.cache_clear()
    for cls in classes:
        decompose_places(cls.polynomial, cls.context.p, cls.context.r)
    info = gp._factor_monic.cache_info()
    assert info.hits >= 0.95 * (info.hits + info.misses), info
