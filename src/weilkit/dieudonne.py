"""The Dieudonne ring quotient of a Weil set at finite precision.

The algebra is a free module over the Witt model W = W(F_q)/p^k with basis
F_i for -N <= i < N, N = deg(w) r / 2, where F_i means F^i for i > 0, 1 for
i = 0 and V^(-i) for i < 0.  Multiplication is sigma-twisted,
F_i a = sigma^i(a) F_i, with F_i F_j = p^((|i|+|j|-|i+j|)/2) F_(i+j) and
out-of-range indices rewritten through the defining relation obtained by
evaluating the symmetric polynomial of w at F^(r/2), V^(r/2).

The center is verified against the span of the images of the central-order
basis by exact linear algebra over Z/p^k, with a precision margin derived
from the elementary divisors of the commutator matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .central_orders import basis_exponents, build_order
from .checks import verify
from .intmatrix import integer_inverse, zpk_canonical, zpk_smith
from .padic import WittRingModel
from .tablering import TableRing, lift_idempotent, split_idempotents
from .weil import slope_type


class DieudonneAlgebra:
    """Structure constants of the Dieudonne quotient for a Weil set."""

    def __init__(self, weil_set, precision):
        if precision < 2:
            raise ValueError("precision >= 2 required")
        ctx = weil_set.context
        self.weil_set = weil_set
        self.p = ctx.p
        self.r = ctx.r
        self.k = precision
        two_n = weil_set.degree * ctx.r
        verify(two_n % 2 == 0, "deg(w) * r must be even")
        self.n_bound = two_n // 2
        self.witt = WittRingModel(ctx.p, ctx.r, precision)
        self.slots = 2 * self.n_bound
        self.relation = self._relation_vector()
        self.rewrites = self._build_rewrites()

    # elements: tuples of `slots` Witt elements, slot s <-> index s - n_bound

    def index_of_slot(self, s):
        return s - self.n_bound

    def slot_of_index(self, i):
        return i + self.n_bound

    def zero(self):
        return tuple(self.witt.zero() for _ in range(self.slots))

    def one(self):
        return self.basis_element(0)

    def basis_element(self, i, coeff=None):
        out = [self.witt.zero() for _ in range(self.slots)]
        out[self.slot_of_index(i)] = coeff if coeff is not None else self.witt.one()
        return tuple(out)

    def element_for_index(self, i):
        """F_i as an element, rewritten when i falls outside the basis."""
        if -self.n_bound <= i < self.n_bound:
            return self.basis_element(i)
        return tuple(self.rewrites[i])

    def frobenius_gen(self):
        return self.element_for_index(1)

    def verschiebung_gen(self):
        return self.element_for_index(-1)

    def from_int(self, n):
        return self.basis_element(0, self.witt.from_int(n))

    def add(self, x, y):
        return tuple(self.witt.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.witt.sub(a, b) for a, b in zip(x, y))

    def _relation_vector(self):
        """Integer coefficients t_j, j in [-N, N], of the defining relation
        sum t_j F_j = 0, from the symmetric polynomial of w evaluated at
        F^(r/2), V^(r/2) (integral exponents by the parity constraint)."""
        n = self.n_bound
        t = {}
        for (i, j), c in self.weil_set.h.support.items():
            num_a = self.r * i
            num_b = self.r * j
            verify(num_a % 2 == 0 and num_b % 2 == 0, "parity violation")
            a, b = num_a // 2, num_b // 2
            idx = a - b
            t[idx] = t.get(idx, 0) + c * self.p ** min(a, b)
        verify(t.get(n) == 1, "relation not monic at the top")
        verify(abs(t.get(-n, 0)) == 1, "relation bottom coefficient not a unit")
        return t

    def _exp_rule(self, i, j):
        e2 = abs(i) + abs(j) - abs(i + j)
        verify(e2 % 2 == 0 and e2 >= 0, "F_i F_j exponent not a natural number")
        return e2 // 2

    def _build_rewrites(self):
        """Slot vectors expressing F_m for m outside [-N, N-1]."""
        n = self.n_bound
        rewrites = {}
        # F_N from the relation
        top = [self.witt.zero() for _ in range(self.slots)]
        for j, t in self.relation.items():
            if j == n or t == 0:
                continue
            top[self.slot_of_index(j)] = self.witt.from_int(-t)
        rewrites[n] = tuple(top)
        self.rewrites = rewrites  # used by mul during the recursion
        for m in range(n + 1, 2 * n - 1):
            rewrites[m] = self.mul(self.basis_element(1), rewrites[m - 1])
        # F_(-N-1) from V * relation: 0 = sum t_j p^(e(-1,j)) F_(j-1), where
        # j - 1 < N
        bottom = [self.witt.zero() for _ in range(self.slots)]
        t_bot = self.relation[-n]
        for j, t in self.relation.items():
            if j == -n or t == 0:
                continue
            e = self._exp_rule(-1, j)
            val = -t * self.p ** e * t_bot  # t_bot = +-1 so this divides by it
            bottom[self.slot_of_index(j - 1)] = self.witt.from_int(val)
        rewrites[-n - 1] = tuple(bottom)
        for m in range(-n - 2, -2 * n - 1, -1):
            rewrites[m] = self.mul(self.basis_element(-1), rewrites[m + 1])
        return rewrites

    def mul(self, x, y):
        n = self.n_bound
        out = [self.witt.zero() for _ in range(self.slots)]
        for si, ci in enumerate(x):
            if not any(ci):
                continue
            i = self.index_of_slot(si)
            sig = i % self.r
            for sj, cj in enumerate(y):
                if not any(cj):
                    continue
                j = self.index_of_slot(sj)
                coeff = self.witt.mul(ci, self.witt.sigma(cj, sig))
                e = self._exp_rule(i, j)
                if e:
                    coeff = self.witt.scal(self.p ** e, coeff)
                target = i + j
                if -n <= target < n:
                    s2 = self.slot_of_index(target)
                    out[s2] = self.witt.add(out[s2], coeff)
                else:
                    rew = self.rewrites[target]
                    for s2 in range(self.slots):
                        if any(rew[s2]):
                            out[s2] = self.witt.add(
                                out[s2], self.witt.mul(coeff, rew[s2])
                            )
        return tuple(out)

    # -- coordinates over Z/p^k ------------------------------------------

    @property
    def zp_rank(self):
        """r^2 * deg(w): the Z/p^k-coordinate dimension."""
        return self.slots * self.r

    def to_coords(self, x):
        out = []
        for c in x:
            out.extend(c)
        return tuple(out)

    def from_coords(self, coords):
        r = self.r
        return tuple(
            tuple(coords[s * r + t] % self.witt.pk for t in range(r))
            for s in range(self.slots)
        )


def build_dieudonne(weil_set, precision):
    """Construct the algebra and verify its structural invariants."""
    alg = DieudonneAlgebra(weil_set, precision)
    # F V = p
    fv = alg.mul(alg.frobenius_gen(), alg.verschiebung_gen())
    verify(fv == alg.from_int(alg.p), "F V = p fails")
    vf = alg.mul(alg.verschiebung_gen(), alg.frobenius_gen())
    verify(vf == alg.from_int(alg.p), "V F = p fails")
    return alg


def associativity_report(alg):
    """Check (F_a F_b) F_c = F_a (F_b F_c) on all basis triples, plus, when
    r > 1, a sigma-twisted variant with the Witt generator inserted; returns
    the number of triples checked."""
    indices = range(-alg.n_bound, alg.n_bound)
    basis = {i: alg.basis_element(i) for i in indices}
    count = 0
    for a in indices:
        for b in indices:
            ab = alg.mul(basis[a], basis[b])
            for c in indices:
                left = alg.mul(ab, basis[c])
                right = alg.mul(basis[a], alg.mul(basis[b], basis[c]))
                verify(left == right, "associativity fails at (%d,%d,%d)" % (a, b, c))
                count += 1
    if alg.r > 1:
        t_elem = alg.basis_element(0, alg.witt.from_coords([0, 1]))
        for a in indices:
            for b in indices:
                tb = alg.mul(t_elem, basis[b])
                left = alg.mul(alg.mul(basis[a], t_elem), basis[b])
                right = alg.mul(basis[a], tb)
                verify(left == right, "twisted associativity fails at (%d,%d)" % (a, b))
                count += 1
    return count


@dataclass(frozen=True)
class OrdinaryMatrixReport:
    verdict: str  # "verified" | "inconclusive"
    detail: str
    idempotents: tuple = ()


def ordinary_matrix_check(alg, search_cap=20000):
    """Attempt to realize the algebra as full r x r matrices over the
    p-adic central order when every class of w is ordinary: constructs a
    sigma-semilinear module via a norm equation, checks the induced map is
    an isomorphism at the working precision, and pulls back the r diagonal
    matrix idempotents.  Best effort: returns 'inconclusive' rather than
    guessing when a step fails."""
    for cls in alg.weil_set.classes:
        if slope_type(cls)[0] != "ordinary":
            raise ValueError("ordinary classes required")
    p, k, r, witt = alg.p, alg.k, alg.r, alg.witt
    order = build_order(alg.weil_set)
    deg = order.rank
    f_coords, v_coords, one_coords = order.generators
    ring = TableRing(order.table, one_coords, p, k)
    f_im = ring.reduce(f_coords)
    v_im = ring.reduce(v_coords)

    # split off the part where F is a unit: the sum of the primitive
    # idempotents mod p at which F is not nilpotent, lifted to p^k
    modp = TableRing(order.table, ring.one, p)
    e_f = tuple([0] * deg)
    for e in split_idempotents(modp):
        if any(modp.power(modp.mul(f_im, e), deg + 2)):
            e_f = ring.add(e_f, e)
    e_f = lift_idempotent(ring, e_f)
    e_v = ring.sub(ring.one, e_f)
    if not any(e_f) or not any(e_v):
        return OrdinaryMatrixReport(
            "inconclusive", "degenerate unit/non-unit splitting"
        )

    tensor = _witt_tensor(witt, ring)
    zero = (0,) * tensor.d

    def at(i, a):
        """t^i tensor a, for a in the central order."""
        return (0,) * (i * deg) + tuple(a) + (0,) * ((r - 1 - i) * deg)

    def witt_scalar(w):
        """w tensor 1, for w in the Witt model."""
        return tensor.reduce([c * a for c in w for a in ring.one])

    w0 = witt_scalar(_trace_one_element(witt))
    target1 = at(0, ring.add(ring.mul(f_im, e_f), e_v))
    target2 = at(0, ring.add(ring.mul(v_im, e_v), e_f))
    mu1 = _solve_norm_equation(witt, tensor, target1, w0, search_cap)
    mu2 = _solve_norm_equation(witt, tensor, target2, w0, search_cap)
    if mu1 is None or mu2 is None:
        return OrdinaryMatrixReport("inconclusive", "norm equation seed not found")
    ef_t, ev_t = at(0, e_f), at(0, e_v)
    p_t = tensor.scal(p, tensor.one)
    mu = tensor.add(
        tensor.mul(mu1, ef_t),
        tensor.mul(tensor.mul(p_t, tensor.inv(mu2)), ev_t),
    )
    if _norm(witt, tensor, mu) != at(0, f_im):
        return OrdinaryMatrixReport("inconclusive", "norm of mu is not F")
    # sigma(nu) = p/mu blockwise
    sigma_nu = tensor.add(
        tensor.mul(tensor.mul(p_t, tensor.inv(mu1)), ef_t),
        tensor.mul(mu2, ev_t),
    )
    nu = _sigma(witt, sigma_nu, r - 1)
    if tensor.mul(mu, _sigma(witt, nu)) != p_t:
        return OrdinaryMatrixReport("inconclusive", "mu sigma(nu) != p")
    if _norm(witt, tensor, nu) != at(0, v_im):
        return OrdinaryMatrixReport("inconclusive", "norm of nu is not V")

    # matrices over the ring for the F, V and Witt-scalar actions: column i
    # is the image of t^i tensor 1, its block j the ring entry at t^j
    def action_matrix(act):
        return [act(at(i, ring.one)) for i in range(r)]

    mat_f = action_matrix(lambda x: tensor.mul(mu, _sigma(witt, x)))
    mat_v = action_matrix(lambda x: tensor.mul(nu, _sigma(witt, x, r - 1)))

    def mat_mul(a, b):
        # (a o b)(e_i) = a(b(e_i)) = sum_j b(e_i)_j a(e_j)
        cols = []
        for col in b:
            acc = zero
            for j in range(r):
                acc = tensor.add(acc, tensor.mul(at(0, col[j * deg:(j + 1) * deg]), a[j]))
            cols.append(acc)
        return cols

    def mat_scal_ring(c):
        return [at(j, c) for j in range(r)]

    # relations
    fv = mat_mul(mat_f, mat_v)
    if fv != mat_scal_ring(ring.scal(p, ring.one)):
        return OrdinaryMatrixReport("inconclusive", "matrix F V != p")
    power = mat_f
    for _ in range(r - 1):
        power = mat_mul(mat_f, power)
    if power != mat_scal_ring(f_im):
        return OrdinaryMatrixReport("inconclusive", "matrix F^r != F")

    # assemble the linear map Phi on the whole algebra and invert it on the
    # diagonal matrix idempotents
    t_t = witt_scalar(witt.from_coords([0, 1] if r > 1 else [1]))
    mat_t = action_matrix(lambda x: tensor.mul(t_t, x))

    dim = alg.zp_rank
    columns = []
    for s in range(alg.slots):
        idx = alg.index_of_slot(s)
        base = mat_scal_ring(ring.one)
        gen = mat_f if idx >= 0 else mat_v
        for _ in range(abs(idx)):
            base = mat_mul(gen, base)
        twist = base
        for t in range(r):
            if t > 0:
                twist = mat_mul(mat_t, twist)
            columns.append(_vec_of_matrix(twist))
    phi_rows = [[columns[j][i] for j in range(dim)] for i in range(dim)]

    try:  # X Phi = e I; Phi is invertible mod p exactly when p does not divide e
        x, e = integer_inverse(phi_rows)
        scale = pow(e, -1, p ** k)
    except ValueError:
        return OrdinaryMatrixReport("inconclusive", "module map not invertible")
    idem_elements = []
    for j in range(r):
        target = _vec_of_matrix([at(j, ring.one) if i == j else zero for i in range(r)])
        idem_elements.append(alg.from_coords([scale * sum(map(mul, row, target)) for row in x]))
    # verify inside the algebra
    total = alg.zero()
    for e in idem_elements:
        if alg.mul(e, e) != e:
            return OrdinaryMatrixReport("inconclusive", "pulled-back element not idempotent")
        total = alg.add(total, e)
    for i in range(r):
        for j in range(i + 1, r):
            if alg.mul(idem_elements[i], idem_elements[j]) != alg.zero():
                return OrdinaryMatrixReport("inconclusive", "idempotents not orthogonal")
    if total != alg.one():
        return OrdinaryMatrixReport("inconclusive", "idempotents do not sum to 1")
    return OrdinaryMatrixReport("verified", "", tuple(idem_elements))


def _vec_of_matrix(cols):
    return [c for col in cols for c in col]


def _witt_tensor(witt, ring):
    """W tensor A as a ring of rank r d over Z/p^k, for A a `TableRing` of
    rank d: coordinate i d + t holds t^i tensor b_t, so the table is the
    Kronecker product of the Witt products of basis pairs with A's table."""
    r, d = witt.r, ring.d
    basis = [witt.from_coords([int(i == j) for j in range(r)]) for i in range(r)]
    table = tuple(
        tuple(
            tuple(w * a for w in witt.mul(basis[i], basis[j]) for a in ring.table[t][u])
            for j in range(r)
            for u in range(d)
        )
        for i in range(r)
        for t in range(d)
    )
    return TableRing(table, ring.one + (0,) * ((r - 1) * d), ring.p, ring.k)


def _sigma(witt, x, power=1):
    """sigma^power on W tensor A: the Witt sigma on each of the d blocks
    x[t::d] of coordinates of t^i tensor b_t."""
    d = len(x) // witt.r
    out = list(x)
    for t in range(d):
        out[t::d] = witt.sigma(x[t::d], power)
    return tuple(out)


def _norm(witt, tensor, x):
    """x sigma(x) .. sigma^(r-1)(x) in W tensor A."""
    acc = x
    for i in range(1, witt.r):
        acc = tensor.mul(acc, _sigma(witt, x, i))
    return acc


def _solve_norm_equation(witt, tensor, target, w0, search_cap):
    """Unit mu of W tensor A with norm(mu) = target (a unit of the base
    ring), by a deterministic mod-p seed search plus Hensel lifting along
    w0, an element of trace 1."""
    p, k, n = tensor.p, tensor.k, tensor.d
    seed = None
    for code in range(min(p ** n, search_cap)):
        digits = []
        c = code
        for _ in range(n):
            digits.append(c % p)
            c //= p
        cand = tuple(digits)
        if any((a - b) % p for a, b in zip(_norm(witt, tensor, cand), target)):
            continue
        try:
            tensor.inv(cand)
        except ZeroDivisionError:
            continue
        seed = cand
        break
    if seed is None:
        return None
    mu = seed
    for _ in range(k.bit_length() + 3):
        nm = _norm(witt, tensor, mu)
        if nm == target:
            return mu
        delta = tensor.sub(tensor.mul(tensor.inv(nm), target), tensor.one)
        mu = tensor.mul(mu, tensor.add(tensor.one, tensor.mul(w0, delta)))
    return mu if _norm(witt, tensor, mu) == target else None


def _trace_one_element(witt):
    """w0 in the Witt model with trace sum sigma^i(w0) = 1, which exists
    because the trace of an unramified extension is onto: each Tr(t^j) lies
    in Z/p^k, one of them is a unit, and w0 = Tr(t^j)^(-1) t^j for the first
    such j."""
    for j in range(witt.r):
        e = witt.from_coords([1 if t == j else 0 for t in range(witt.r)])
        tr = witt.zero()
        for i in range(witt.r):
            tr = witt.add(tr, witt.sigma(e, i))
        verify(not any(tr[1:]), "a trace of the Witt model is not in Z/p^k")
        if tr[0] % witt.p:
            return witt.scal(pow(tr[0], -1, witt.pk), e)
    verify(False, "the trace of the Witt model is not onto")


@dataclass(frozen=True)
class CenterReport:
    passed: bool
    rank: int
    effective_precision: int
    center_rows: tuple
    image_rows: tuple
    witness: tuple | None


def _commutator_rows(alg, generators):
    """Rows of the matrix over Z/p^k of x -> (x g - g x for g in generators),
    zp_rank rows per g, built block by block from the two rules of `mul`.

    For x = c F_i and a term g_j F_j of g, x g_j F_j = p^e c sigma^i(g_j)
    F_(i+j) and g_j F_j x = p^e g_j sigma^j(c) F_(i+j), with one
    e = e(i, j) = e(j, i).  Both are linear in c, and sigma^i depends only on
    i mod r, so the columns of slot i are p^e D_(i mod r, j), where D_(s, j)
    is c -> c sigma^s(g_j) - g_j sigma^j(c), placed at F_(i+j) as
    `element_for_index` writes it: slot i + j, or each slot s2 of its rewrite
    times rew[s2] (W is commutative).  These are the entries of the product
    loop, for every g: when N = 1, F = F_1 is itself a rewritten vector."""
    witt, r, pk, dim, one = alg.witt, alg.r, alg.witt.pk, alg.zp_rank, alg.witt.one()
    units = [witt.from_coords([int(u == t) for u in range(r)]) for t in range(r)]
    rows = [[0] * dim for _ in range(len(generators) * dim)]
    for off, g in zip(range(0, len(rows), dim), generators):
        for j, gj in zip(range(-alg.n_bound, alg.n_bound), g):
            if not any(gj):
                continue
            right = [witt.mul(gj, witt.sigma(e, j)) for e in units]
            blocks = [[witt.sub(witt.mul(e, a), b) for e, b in zip(units, right)]
                      for a in (witt.sigma(gj, s) for s in range(r))]
            for si, i in enumerate(range(-alg.n_bound, alg.n_bound)):
                scale = alg.p ** alg._exp_rule(i, j)
                target = [(s2, c) for s2, c in enumerate(alg.element_for_index(i + j)) if any(c)]
                for t, col in enumerate(blocks[i % r]):
                    for s2, c in target:
                        img = col if c == one else witt.mul(col, c)
                        for u, a in enumerate(img):
                            row = rows[off + s2 * r + u]
                            row[si * r + t] = (row[si * r + t] + scale * a) % pk
    return rows


def verify_center(alg):
    """Solve the centralizer system mod p^k and compare with the span of the
    central-order images, at a precision reduced by the largest elementary
    divisor of the commutator matrix (which bounds the lifting defect); that
    matrix, for F, V and (r > 1) the Witt generator, is `_commutator_rows`."""
    p, k = alg.p, alg.k
    dim = alg.zp_rank
    generators = [alg.frobenius_gen(), alg.verschiebung_gen()]
    if alg.r > 1:
        generators.append(alg.basis_element(0, alg.witt.from_coords([0, 1])))
    rows = _commutator_rows(alg, generators)
    exps, v = zpk_smith(rows, p, k, dim)
    slack = max((e for e in exps if e < k), default=0)
    effective = k - slack
    if effective < 2:
        raise ValueError("precision too low for a conclusive center check")
    q_eff = p ** effective
    # kernel generators mod p^k from the local Smith form
    gens = []
    for j in range(dim):
        ej = exps[j] if j < len(exps) else k
        mult = p ** max(k - ej, 0)
        col = tuple((v[i][j] * mult) % (p ** k) for i in range(dim))
        if any(c % q_eff for c in col):
            gens.append(tuple(c % q_eff for c in col))
    center_canon = zpk_canonical(gens, p, effective)
    # the central-order basis, F^k at index k r (out-of-range powers rewritten)
    images = [alg.element_for_index(k * alg.r) for k in basis_exponents(alg.weil_set.degree)]
    image_rows = [tuple(c % q_eff for c in alg.to_coords(im)) for im in images]
    image_canon = zpk_canonical(image_rows, p, effective)
    passed = center_canon == image_canon
    witness = None
    if not passed:
        extra = [row for row in center_canon if row not in image_canon]
        witness = extra[0] if extra else None
    return CenterReport(
        passed=passed,
        rank=len(image_canon),
        effective_precision=effective,
        center_rows=center_canon,
        image_rows=image_canon,
        witness=witness,
    )
