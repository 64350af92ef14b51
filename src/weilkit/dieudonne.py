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
from fractions import Fraction

from .central_orders import build_order
from .intmatrix import zpk_canonical, zpk_smith
from .padic import WittRingModel
from .tablering import TableRing, lift_idempotent, split_idempotents
from .weil import WeilSet


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
        assert two_n % 2 == 0, "deg(w) * r must be even"
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

    def scal_int(self, c, x):
        return tuple(self.witt.scal(c, a) for a in x)

    def _relation_vector(self):
        """Integer coefficients t_j, j in [-N, N], of the defining relation
        sum t_j F_j = 0, from the symmetric polynomial of w evaluated at
        F^(r/2), V^(r/2) (integral exponents by the parity constraint)."""
        n = self.n_bound
        t = {}
        for (i, j), c in self.weil_set.h.support.items():
            num_a = self.r * i
            num_b = self.r * j
            assert num_a % 2 == 0 and num_b % 2 == 0, "parity violation"
            a, b = num_a // 2, num_b // 2
            idx = a - b
            t[idx] = t.get(idx, 0) + c * self.p ** min(a, b)
        assert t.get(n) == 1, "relation not monic at the top"
        assert abs(t.get(-n, 0)) == 1, "relation bottom coefficient not a unit"
        return t

    def _exp_rule(self, i, j):
        e2 = abs(i) + abs(j) - abs(i + j)
        assert e2 % 2 == 0 and e2 >= 0
        return e2 // 2

    def _mul_f_left(self, vec):
        """F * (sum c_j F_j) as a slot vector, using rewrites for the top."""
        n = self.n_bound
        out = [self.witt.zero() for _ in range(self.slots)]
        for s, c in enumerate(vec):
            if not any(c):
                continue
            j = self.index_of_slot(s)
            coeff = self.witt.sigma(c, 1)
            e = self._exp_rule(1, j)
            if e:
                coeff = self.witt.scal(self.p ** e, coeff)
            target = j + 1
            if target < n:
                out[self.slot_of_index(target)] = self.witt.add(
                    out[self.slot_of_index(target)], coeff
                )
            else:
                rew = self.rewrites[target]
                for s2 in range(self.slots):
                    if any(rew[s2]):
                        out[s2] = self.witt.add(out[s2], self.witt.mul(coeff, rew[s2]))
        return tuple(out)

    def _mul_v_left(self, vec):
        n = self.n_bound
        out = [self.witt.zero() for _ in range(self.slots)]
        for s, c in enumerate(vec):
            if not any(c):
                continue
            j = self.index_of_slot(s)
            coeff = self.witt.sigma(c, self.r - 1)  # sigma^(-1)
            e = self._exp_rule(-1, j)
            if e:
                coeff = self.witt.scal(self.p ** e, coeff)
            target = j - 1
            if target >= -n:
                out[self.slot_of_index(target)] = self.witt.add(
                    out[self.slot_of_index(target)], coeff
                )
            else:
                rew = self.rewrites[target]
                for s2 in range(self.slots):
                    if any(rew[s2]):
                        out[s2] = self.witt.add(out[s2], self.witt.mul(coeff, rew[s2]))
        return tuple(out)

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
        self.rewrites = rewrites  # used by _mul_f_left during the recursion
        for m in range(n + 1, 2 * n - 1):
            rewrites[m] = self._mul_f_left(rewrites[m - 1])
        # F_(-N-1) from V * relation: 0 = sum t_j p^(e(-1,j)) F_(j-1)
        bottom = [self.witt.zero() for _ in range(self.slots)]
        t_bot = self.relation[-n]
        for j, t in self.relation.items():
            if j == -n or t == 0:
                continue
            e = self._exp_rule(-1, j)
            val = -t * self.p ** e * t_bot  # t_bot = +-1 so this divides by it
            if j - 1 == n:
                # fold through the top rewrite
                rew = rewrites[n]
                for s2 in range(self.slots):
                    if any(rew[s2]):
                        bottom[s2] = self.witt.add(
                            bottom[s2], self.witt.scal(val, rew[s2])
                        )
            else:
                slot = self.slot_of_index(j - 1)
                bottom[slot] = self.witt.add(bottom[slot], self.witt.from_int(val))
        rewrites[-n - 1] = tuple(bottom)
        for m in range(-n - 2, -2 * n - 1, -1):
            rewrites[m] = self._mul_v_left(rewrites[m + 1])
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

    def central_order_images(self):
        """Slot vectors of the central-order basis F^a, 1, V^b inside the
        algebra (out-of-range powers rewritten)."""
        order = build_order(self.weil_set)
        images = []
        for label in order.basis_labels:
            if label == "1":
                images.append(self.one())
                continue
            name = label[0]
            power = 1 if "^" not in label else int(label.split("^")[1])
            idx = self.r * power * (1 if name == "F" else -1)
            if -self.n_bound <= idx < self.n_bound:
                images.append(self.basis_element(idx))
            else:
                images.append(tuple(self.rewrites[idx]))
        return order, images

    def export(self):
        table = []
        for si in range(self.slots):
            row = []
            for sj in range(self.slots):
                prod = self.mul(
                    self.basis_element(self.index_of_slot(si)),
                    self.basis_element(self.index_of_slot(sj)),
                )
                row.append([list(c) for c in prod])
            table.append(row)
        return {
            "q": self.weil_set.context.q,
            "polys": [list(c.polynomial.coeffs) for c in self.weil_set.classes],
            "k": self.k,
            "N": self.n_bound,
            "witt_modulus": list(self.witt.modulus),
            "structure_constants": table,
        }


def build_dieudonne(weil_set, precision):
    """Construct the algebra and verify its structural invariants."""
    alg = DieudonneAlgebra(weil_set, precision)
    # F V = p
    fv = alg.mul(alg.frobenius_gen(), alg.verschiebung_gen())
    assert fv == alg.from_int(alg.p), "F V = p fails"
    vf = alg.mul(alg.verschiebung_gen(), alg.frobenius_gen())
    assert vf == alg.from_int(alg.p), "V F = p fails"
    return alg


def associativity_report(alg, with_witt_coefficient=True):
    """Check (F_a F_b) F_c = F_a (F_b F_c) on all basis triples, plus a
    sigma-twisted variant with the Witt generator inserted; returns the
    number of triples checked."""
    indices = range(-alg.n_bound, alg.n_bound)
    basis = {i: alg.basis_element(i) for i in indices}
    t_elem = alg.basis_element(0, alg.witt.from_coords([0, 1] if alg.r > 1 else [1]))
    count = 0
    for a in indices:
        for b in indices:
            ab = alg.mul(basis[a], basis[b])
            for c in indices:
                left = alg.mul(ab, basis[c])
                right = alg.mul(basis[a], alg.mul(basis[b], basis[c]))
                assert left == right, "associativity fails at (%d,%d,%d)" % (a, b, c)
                count += 1
    if with_witt_coefficient and alg.r > 1:
        for a in indices:
            for b in indices:
                tb = alg.mul(t_elem, basis[b])
                left = alg.mul(alg.mul(basis[a], t_elem), basis[b])
                right = alg.mul(basis[a], tb)
                assert left == right, "twisted associativity fails at (%d,%d)" % (a, b)
                count += 1
    return count


class _WittTensor:
    """W tensor A: free A-module on the Witt power basis with the twisted
    ring structure; elements are tuples of r ring elements."""

    def __init__(self, witt, ring):
        self.witt = witt
        self.ring = ring
        self.r = witt.r

    def zero(self):
        return tuple(tuple(0 for _ in range(self.ring.d)) for _ in range(self.r))

    def one(self):
        out = [tuple(0 for _ in range(self.ring.d)) for _ in range(self.r)]
        out[0] = self.ring.one
        return tuple(out)

    def from_ring(self, a):
        out = [tuple(0 for _ in range(self.ring.d)) for _ in range(self.r)]
        out[0] = tuple(a)
        return tuple(out)

    def add(self, x, y):
        return tuple(self.ring.add(a, b) for a, b in zip(x, y))

    def mul(self, x, y):
        r = self.r
        ring = self.ring
        prod = [None] * (2 * r - 1)
        for i in range(r):
            if any(x[i]):
                for j in range(r):
                    if any(y[j]):
                        term = ring.mul(x[i], y[j])
                        prod[i + j] = (
                            term
                            if prod[i + j] is None
                            else ring.add(prod[i + j], term)
                        )
        out = [prod[s] if prod[s] is not None else tuple([0] * ring.d) for s in range(r)]
        for j in range(r, 2 * r - 1):
            if prod[j] is not None and any(prod[j]):
                red = self.witt._red[j]
                for s in range(r):
                    if red[s]:
                        out[s] = ring.add(out[s], ring.scal(red[s], prod[j]))
        return tuple(out)

    def sigma(self, x, power=1):
        mat = self.witt._sigma_mats[power % self.r]
        ring = self.ring
        out = []
        for i in range(self.r):
            acc = tuple([0] * ring.d)
            for j in range(self.r):
                if mat[i][j] and any(x[j]):
                    acc = ring.add(acc, ring.scal(mat[i][j], x[j]))
            out.append(acc)
        return tuple(out)

    def norm(self, x):
        acc = x
        for i in range(1, self.r):
            acc = self.mul(acc, self.sigma(x, i))
        return acc

    def is_unit(self, x):
        try:
            self.inv(x)
            return True
        except ZeroDivisionError:
            return False

    def inv(self, x):
        from .intmatrix import zpk_solve

        p, k = self.ring.p, self.ring.k
        dim = self.r * self.ring.d
        cols = []
        for i in range(self.r):
            for t in range(self.ring.d):
                e = [tuple([0] * self.ring.d) for _ in range(self.r)]
                vec = [0] * self.ring.d
                vec[t] = 1
                e[i] = tuple(vec)
                img = self.mul(x, tuple(e))
                cols.append([c for part in img for c in part])
        mat = [[cols[j][i] % p for j in range(dim)] for i in range(dim)]
        target = [c % p for part in self.one() for c in part]
        x0 = zpk_solve(mat, target, p, 1, dim)
        if x0 is None:
            raise ZeroDivisionError("not a unit")
        inv = tuple(
            tuple(x0[i * self.ring.d + t] for t in range(self.ring.d))
            for i in range(self.r)
        )
        prec = 1
        two = self.add(self.one(), self.one())
        while prec < self.ring.k:
            ux = self.mul(x, inv)
            inv = self.mul(inv, self.add(two, tuple(self.ring.scal(-1, c) for c in ux)))
            prec *= 2
        assert self.mul(x, inv) == self.one()
        return inv


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
    from .weil import slope_type

    for cls in alg.weil_set.classes:
        if slope_type(cls)[0] != "ordinary":
            raise ValueError("ordinary classes required")
    p, k, r = alg.p, alg.k, alg.r
    order = build_order(alg.weil_set)
    deg = order.rank
    ring = TableRing(order.table, order._unit_coords(), p, k)
    f_im = ring.reduce(order._coords_of_label("F"))
    v_im = ring.reduce(order._coords_of_label("V"))

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

    tensor = _WittTensor(alg.witt, ring)
    target1 = ring.add(ring.mul(f_im, e_f), e_v)
    target2 = ring.add(ring.mul(v_im, e_v), e_f)
    mu1 = _solve_norm_equation(tensor, target1, search_cap)
    mu2 = _solve_norm_equation(tensor, target2, search_cap)
    if mu1 is None or mu2 is None:
        return OrdinaryMatrixReport("inconclusive", "norm equation seed not found")
    ef_t = tensor.from_ring(e_f)
    ev_t = tensor.from_ring(e_v)
    mu = tensor.add(
        tensor.mul(mu1, ef_t),
        tensor.mul(tensor.mul(tensor.from_ring(ring.scal(p, ring.one)), tensor.inv(mu2)), ev_t),
    )
    if tensor.norm(mu) != tensor.from_ring(f_im):
        return OrdinaryMatrixReport("inconclusive", "norm of mu is not F")
    # sigma(nu) = p/mu blockwise
    sigma_nu = tensor.add(
        tensor.mul(tensor.mul(tensor.from_ring(ring.scal(p, ring.one)), tensor.inv(mu1)), ef_t),
        tensor.mul(mu2, ev_t),
    )
    nu = tensor.sigma(sigma_nu, r - 1)
    if tensor.mul(mu, tensor.sigma(nu)) != tensor.from_ring(ring.scal(p, ring.one)):
        return OrdinaryMatrixReport("inconclusive", "mu sigma(nu) != p")
    if tensor.norm(nu) != tensor.from_ring(v_im):
        return OrdinaryMatrixReport("inconclusive", "norm of nu is not V")

    # matrices over the ring for the F, V and Witt-scalar actions
    def basis_elt(i):
        out = [tuple([0] * deg) for _ in range(r)]
        out[i] = ring.one
        return tuple(out)

    def action_matrix(act):
        cols = []
        for i in range(r):
            img = act(basis_elt(i))
            cols.append(img)
        return cols  # cols[i] = image as length-r tuple of ring elements

    mat_f = action_matrix(lambda x: tensor.mul(mu, tensor.sigma(x)))
    mat_v = action_matrix(lambda x: tensor.mul(nu, tensor.sigma(x, r - 1)))

    def mat_mul(a, b):
        # (a o b)(e_i) = a(b(e_i))
        cols = []
        for i in range(r):
            vec = b[i]
            acc = [tuple([0] * deg) for _ in range(r)]
            for j in range(r):
                if any(vec[j]):
                    col = a[j]
                    for t in range(r):
                        acc[t] = ring.add(acc[t], ring.mul(vec[j], col[t]))
            cols.append(tuple(acc))
        return cols

    def mat_scal_ring(c):
        return [
            tuple(ring.mul(c, ring.one) if i == j else tuple([0] * deg) for i in range(r))
            for j in range(r)
        ]

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
    witt_t = alg.witt.from_coords([0, 1] if r > 1 else [1])
    mat_t = action_matrix(
        lambda x: tensor.mul(_witt_scalar(tensor, witt_t), x)
    )

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
            columns.append(_vec_of_matrix(twist, r, deg))
    phi_rows = [[columns[j][i] for j in range(dim)] for i in range(dim)]

    from .intmatrix import rref_mod_p, zpk_solve

    ech, piv = rref_mod_p([[c % p for c in row] for row in phi_rows], p)
    if len(ech) != dim:
        return OrdinaryMatrixReport("inconclusive", "module map not invertible")
    idem_elements = []
    for j in range(r):
        target_mat = [
            tuple(ring.one if (i == j and t == j) else tuple([0] * deg) for t in range(r))
            for i in range(r)
        ]
        target = _vec_of_matrix([tuple(row) for row in target_mat], r, deg)
        sol = zpk_solve(phi_rows, target, p, k, dim)
        if sol is None:
            return OrdinaryMatrixReport("inconclusive", "idempotent pullback failed")
        idem_elements.append(alg.from_coords(sol))
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


def _vec_of_matrix(cols, r, deg):
    out = []
    for col in cols:
        for part in col:
            out.extend(part)
    return out


def _witt_scalar(tensor, witt_elt):
    out = [tensor.ring.scal(c, tensor.ring.one) for c in witt_elt]
    return tuple(out)


def _solve_norm_equation(tensor, target, search_cap):
    """Unit mu with norm(mu) = target (a unit of the base ring), by a
    deterministic mod-p seed search plus trace-based Hensel lifting."""
    ring = tensor.ring
    p, k = ring.p, ring.k
    r = tensor.r
    deg = ring.d
    # seed mod p
    total = p ** (r * deg)
    seed = None
    target_t = tensor.from_ring(target)
    for code in range(min(total, search_cap)):
        digits = []
        c = code
        for _ in range(r * deg):
            digits.append(c % p)
            c //= p
        cand = tuple(
            tuple(digits[i * deg + t] for t in range(deg)) for i in range(r)
        )
        nm = tensor.norm(cand)
        if _mod_p_equal(nm, target_t, p):
            if tensor.is_unit(cand):
                seed = cand
                break
    if seed is None:
        return None
    # trace-one element of W
    w0 = _trace_one_element(tensor)
    if w0 is None:
        return None
    mu = seed
    for _ in range(k.bit_length() + 3):
        nm = tensor.norm(mu)
        if nm == target_t:
            return mu
        delta = tensor.add(
            tensor.mul(tensor.inv(nm), target_t),
            tuple(ring.scal(-1, c) for c in tensor.one()),
        )
        h = tensor.mul(_witt_scalar(tensor, w0), delta)
        mu = tensor.mul(mu, tensor.add(tensor.one(), h))
    return mu if tensor.norm(mu) == target_t else None


def _trace_one_element(tensor):
    """w0 in the Witt model with trace sum sigma^i(w0) = 1."""
    from .intmatrix import zpk_solve

    witt = tensor.witt
    r, p, k = witt.r, witt.p, witt.k
    if r == 1:
        return witt.one()
    rows = []
    for j in range(r):
        e = witt.from_coords([1 if t == j else 0 for t in range(r)])
        tr = witt.zero()
        for i in range(r):
            tr = witt.add(tr, witt.sigma(e, i))
        rows.append(tr)
    mat = [[rows[j][i] for j in range(r)] for i in range(r)]
    rhs = [1] + [0] * (r - 1)
    sol = zpk_solve(mat, rhs, p, k, r)
    if sol is None:
        return None
    return witt.from_coords(sol)


def _mod_p_equal(x, y, p):
    for a, b in zip(x, y):
        for c, d in zip(a, b):
            if (c - d) % p:
                return False
    return True


@dataclass(frozen=True)
class CenterReport:
    passed: bool
    rank: int
    effective_precision: int
    center_rows: tuple
    image_rows: tuple
    witness: tuple | None


def verify_center(alg):
    """Solve the centralizer system mod p^k and compare with the span of the
    central-order images, at a precision reduced by the largest elementary
    divisor of the commutator matrix (which bounds the lifting defect)."""
    p, k = alg.p, alg.k
    dim = alg.zp_rank
    generators = [alg.frobenius_gen(), alg.verschiebung_gen()]
    if alg.r > 1:
        generators.append(
            alg.basis_element(0, alg.witt.from_coords([0, 1]))
        )
    rows = []
    unit_basis = []
    for s in range(alg.slots):
        for t in range(alg.r):
            coeff = alg.witt.from_coords([1 if u == t else 0 for u in range(alg.r)])
            unit_basis.append(alg.basis_element(alg.index_of_slot(s), coeff))
    columns = []
    for e in unit_basis:
        col = []
        for g in generators:
            comm = alg.sub(alg.mul(e, g), alg.mul(g, e))
            col.extend(alg.to_coords(comm))
        columns.append(col)
    rows = [[columns[j][i] for j in range(dim)] for i in range(len(columns[0]))]
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
    _, images = alg.central_order_images()
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
