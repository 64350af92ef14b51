"""The four workloads: inputs from a seed, one round of operations, checks.

A workload is built once per set-up from the imported weilkit modules and a
seed.  `ops` is one round: a fixed list of (kind, callable) pairs, run in the
same order every round, so every round does the same work and fails the same
operations.  Each callable looks its weilkit function up on the module at
call time, so the tracer's wrappers see the call.  `check` takes the outputs
of one round and returns a list of problems, empty when all is well; every
check is computed apart from the timed code (see oracle.py) or is a property
the mathematics guarantees, and is an explicit test, never an `assert`, so
it also holds under `python -O`.

latency_tail_ms is the best time of the operation with `tail_beyond`
operations above it, and `min_rounds` makes that at least ten timed runs of
operations beyond it (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from fractions import Fraction

import oracle


def _rank(prefix, item_key):
    """A seeded, machine-independent sort key."""
    return hashlib.sha256(("%s:%s" % (prefix, item_key)).encode()).hexdigest()


def _sample_half(items, prefix, key):
    """The ceil(n/2) items whose seeded hash is smallest.  Ranking by a hash
    of the item, not by position, keeps the rest of a sample unchanged when
    one item joins or leaves the pool."""
    return sorted(items, key=lambda item: _rank(prefix, key(item)))[: (len(items) + 1) // 2]


class Workload:
    name = ""
    tail_beyond = 1
    min_rounds = 10

    def __init__(self, wk, seed, workdir):
        self.wk = wk
        self.workdir = workdir
        self.seed_key = "%s:%d" % (self.name, seed)
        self._ops = []

    def ops(self):
        return self._ops

    def begin_round(self):
        pass

    def end_round(self):
        return {}

    def failed(self, kind, output):
        """Did an operation that returned normally still fail?"""
        return False

    def check(self, outputs):
        raise NotImplementedError

    def _shuffle(self, ops):
        """A seeded order, the same for every round of a run."""
        return sorted(ops, key=lambda op: _rank(self.seed_key, op[0]))


# -- enumerate -------------------------------------------------------------------

# r = 1, 2, 3 and 5; degree 6 only at q = 2 (q = 2 at degree 8 takes minutes)
ENUMERATE_CELLS = (
    (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (5, 4), (7, 2), (11, 2),
    (4, 2), (4, 4), (9, 2), (9, 4), (25, 2),
    (8, 2), (27, 2),
    (32, 2),
)
# cells small enough for the coefficient-scan oracle in every run
ORACLE_LIMIT = 5000


class Enumerate(Workload):
    name = "enumerate"
    # the tail is the third-costliest of the 17 cells
    tail_beyond = 2
    min_rounds = 5

    def __init__(self, wk, seed, workdir):
        super().__init__(wk, seed, workdir)
        weil = wk.weil
        self.cells = [(q, d, weil.GlobalContext.from_q(q)) for q, d in ENUMERATE_CELLS]
        ops = []
        for q, d, ctx in self.cells:
            ops.append(("%d/%d" % (q, d), self._op(ctx, d)))
        self._ops = self._shuffle(ops)

    def _op(self, ctx, d):
        weil = self.wk.weil
        return lambda: weil.enumerate_weil(ctx, d)

    def check(self, outputs):
        problems = []
        by_cell = {kind: out for (kind, _fn), out in zip(self._ops, outputs)}
        for q, d, _ctx in self.cells:
            kind = "%d/%d" % (q, d)
            classes = by_cell[kind]
            p, r = oracle.prime_power(q)
            keys = [(len(c.polynomial.coeffs) - 1, tuple(c.polynomial.coeffs)) for c in classes]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                problems.append("%s: output not strictly sorted" % kind)
            for deg, coeffs in keys:
                if deg > d:
                    problems.append("%s: degree %d above the bound" % (kind, deg))
                elif deg == 1:
                    if r % 2 or abs(coeffs[0]) != p ** (r // 2):
                        problems.append("%s: %s is not x -+ sqrt q" % (kind, coeffs))
                elif not oracle.functional_equation_holds(list(coeffs), q):
                    problems.append("%s: %s fails the functional equation" % (kind, coeffs))
                else:
                    trace = oracle.trace_polynomial(list(coeffs), q)
                    if trace is None or not oracle.all_roots_in_window(trace, q):
                        problems.append("%s: %s has a root outside the window" % (kind, coeffs))
                    if not oracle.is_irreducible_over_q(list(coeffs)):
                        problems.append("%s: %s is reducible over Q" % (kind, coeffs))
            if oracle.scan_candidates(q, d) <= ORACLE_LIMIT:
                expected = oracle.scan_weil_classes(q, d)
                if set(c for _deg, c in keys) != expected:
                    problems.append("%s: differs from the coefficient-scan oracle" % kind)
        return problems


# -- invariants ------------------------------------------------------------------

# acceptance-grid cells for r = 1, 2 and 5 with degrees 2, 4 and 6; they
# stop below the grid's bounds (degree 4 for q = 3, 4 and 9, degree 2 for
# q = 32) to keep set-up, which enumerates them, near one second
INVARIANT_CELLS = ((2, 6), (3, 4), (4, 4), (9, 4), (32, 2))
PLACE_CROSS_CHECKS = 6


def _load_round2_classes():
    """Classes whose places needed the round-2 (p-maximal order) route when
    the benchmark was written; see README.md."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "round2_classes.json")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {(int(q), tuple(c)) for q, polys in data.items() for c in polys}


class Invariants(Workload):
    name = "invariants"
    # 244 classes a round, 13 of them on the round-2 route: the tail is the
    # sixth-costliest, inside the four degree-6 round-2 classes of about 40 ms
    tail_beyond = 5
    min_rounds = 4

    def __init__(self, wk, seed, workdir):
        super().__init__(wk, seed, workdir)
        weil = wk.weil
        round2 = _load_round2_classes()
        strata = {}
        for q, d in INVARIANT_CELLS:
            ctx = weil.GlobalContext.from_q(q)
            for cls in weil.enumerate_weil(ctx, d):
                coeffs = tuple(cls.polynomial.coeffs)
                key = (q, len(coeffs) - 1, (q, coeffs) in round2)
                strata.setdefault(key, []).append(cls)
        # every round-2 class, and a seeded half of each (q, degree) stratum
        # of the others: the costly classes are the same for every seed, so
        # the seed moves the common path only
        self.classes = []
        for key in sorted(strata):
            if key[2]:
                self.classes.extend(strata[key])
            else:
                self.classes.extend(
                    _sample_half(strata[key], self.seed_key, lambda c: c.polynomial.coeffs)
                )
        self.round2_share = sum(
            (c.context.q, tuple(c.polynomial.coeffs)) in round2 for c in self.classes
        ) / len(self.classes)
        ops = []
        for cls in self.classes:
            kind = "%d:%s" % (cls.context.q, ",".join(map(str, cls.polynomial.coeffs)))
            ops.append((kind, self._op(cls)))
        self._ops = self._shuffle(ops)

    def _op(self, cls):
        hondatate = self.wk.hondatate
        return lambda: hondatate.honda_tate_record(cls)

    def check(self, outputs):
        problems = []
        cross = []
        for (kind, _fn), rec in zip(self._ops, outputs):
            problems.extend("%s: %s" % (kind, msg) for msg in self._check_record(rec))
            if len(rec.weil_class.polynomial.coeffs) >= 3:
                cross.append(rec)
        sample = _sample_half(cross, self.seed_key, lambda r: r.weil_class.polynomial.coeffs)
        return problems + self.cross_check(sample[:PLACE_CROSS_CHECKS])

    def cross_check(self, records):
        """Places agree with the p-maximal-order route, run outside the
        timed rounds."""
        problems = []
        for rec in records:
            cls = rec.weil_class
            ctx = cls.context
            triples = self.wk.padicorders.places_from_order(cls.polynomial, ctx.p, ctx.r)
            want = sorted((e, f, Fraction(v)) for e, f, v in triples)
            got = sorted((pl.e, pl.f, pl.root_valuation) for pl in rec.places)
            if want != got:
                problems.append("%s: places differ from the p-maximal-order route" % (cls.polynomial.coeffs,))
        return problems

    @staticmethod
    def _check_record(rec):
        cls = rec.weil_class
        coeffs = list(cls.polynomial.coeffs)
        q = cls.context.q
        p, r = oracle.prime_power(q)
        deg = len(coeffs) - 1
        out = []
        s = rec.s
        if rec.multiplicity * s != 2 * r:
            out.append("m*s != 2r")
        if 2 * rec.dim != s * deg:
            out.append("2*dim != s*deg")
        if math.lcm(r, 2) % s:
            out.append("s does not divide lcm(r, 2)")
        places = rec.places
        if sum(pl.e * pl.f for pl in places) != deg:
            out.append("sum of e*f != deg")
        if sum(pl.e * pl.f * Fraction(pl.root_valuation) for pl in places) != oracle.valuation(coeffs[0], p):
            out.append("sum of deg*val != v_p(P(0))")
        if deg == 1:
            real = 1
        elif deg == 2 and coeffs[0] == -q and coeffs[1] == 0:
            real = 2
        else:
            real = 0
        if rec.real_place_count != real:
            out.append("%d real places, expected %d" % (rec.real_place_count, real))
        invariants = [(Fraction(pl.root_valuation) * pl.e * pl.f / r) % 1 for pl in places]
        if [pl.invariant for pl in places] != invariants:
            out.append("local invariant != val*e*f/r mod 1")
        total = sum((Fraction(pl.invariant) for pl in places), Fraction(rec.real_place_count, 2))
        if total.denominator != 1:
            out.append("reciprocity sum %s is not an integer" % total)
        expected_s = math.lcm(*[i.denominator for i in invariants], *([2] if real else []))
        if s != expected_s:
            out.append("s != lcm of invariant denominators")
        slopes = sorted(
            Fraction(pl.root_valuation) for pl in places for _ in range(pl.e * pl.f)
        )
        if slopes != sorted(r - v for v in slopes):
            out.append("slopes not symmetric under v -> r - v")
        ordinary = deg % 2 == 0 and coeffs[deg // 2] % p != 0
        if ordinary and s != 1:
            out.append("ordinary class with s != 1")
        if ordinary != (rec.slope_kind == "ordinary"):
            out.append("slope type disagrees with the middle coefficient")
        if deg == 2 and coeffs[0] == q and s != oracle.waterhouse_index(-coeffs[1], q):
            out.append("s differs from Waterhouse's closed form")
        return out


# -- structures ------------------------------------------------------------------

ORDER_SETS = (
    (9, ((9, 0, 1),)),
    (32, ((32, -2, 1),)),
    (4, ((-2, 1),)),
    (2, ((4, -4, 2, -2, 1),)),
    (3, ((27, -45, 39, -25, 13, -5, 1),)),
    (3, ((3, 0, 1), (3, 1, 1))),
    (9, ((-3, 1), (9, 0, 1))),
    (4, ((-2, 1), (2, 1))),
)
# criterion 4: a disconnected pair and a connected control pair
COMPONENT_SETS = (
    (3, ((3, 0, 1), (3, 1, 1)), 2),
    (3, ((3, 0, 1), (3, -3, 1)), 1),
)
# criterion 5 at k = 5 and the criterion 9 families at their k (the
# supersingular q = 9 family once); each operation builds and verifies at k
# and at k + 2
DIEUDONNE_FAMILIES = (
    (9, ((9, 0, 1),), 5),
    (9, ((9, -1, 1),), 5),
    (9, ((-3, 1), (3, 1)), 5),
    (9, ((9, -1, 1),), 4),
    (9, ((-3, 1), (3, 1)), 4),
    (9, ((-3, 1), (9, 0, 1)), 3),
    (3, ((3, 0, 1), (3, 1, 1)), 3),
    (4, ((-2, 1),), 4),
    (32, ((32, -2, 1),), 4),
)
SUPERSINGULAR_PRIMES = (3, 7)


class Structures(Workload):
    name = "structures"
    # the tail is the second-costliest of the 21 operations
    tail_beyond = 1
    min_rounds = 10

    def __init__(self, wk, seed, workdir):
        super().__init__(wk, seed, workdir)
        ops = []
        for q, polys in ORDER_SETS:
            ops.append(("order:%d:%s" % (q, polys), self._order_op(self._set(q, polys))))
        for q, polys, _count in COMPONENT_SETS:
            ops.append(("components:%d:%s" % (q, polys), self._components_op(self._set(q, polys))))
        for q, polys, k in DIEUDONNE_FAMILIES:
            ops.append(("dieudonne:%d:%s:%d" % (q, polys, k), self._dieudonne_op(self._set(q, polys), k)))
        for p in SUPERSINGULAR_PRIMES:
            ops.append(("supersingular:%d" % p, self._supersingular_op(p)))
        self._ops = self._shuffle(ops)

    def _set(self, q, polys):
        weil = self.wk.weil
        ctx = weil.GlobalContext.from_q(q)
        return weil.weil_set([weil.validate_weil(self.wk.intpoly.IntPolynomial(c), ctx) for c in polys])

    def _order_op(self, w):
        central_orders = self.wk.central_orders
        return lambda: central_orders.build_order(w)

    def _components_op(self, w):
        central_orders = self.wk.central_orders
        return lambda: central_orders.connected_components(w)

    def _dieudonne_op(self, w, k):
        dieudonne = self.wk.dieudonne

        def op():
            low = dieudonne.verify_center(dieudonne.build_dieudonne(w, k))
            high = dieudonne.verify_center(dieudonne.build_dieudonne(w, k + 2))
            return w, low, high

        return op

    def _supersingular_op(self, p):
        supersingular = self.wk.supersingular

        def op():
            order, center = supersingular.endomorphism_order(p)
            count, proper = supersingular.lattice_class_count(p)
            return p, order, center, count, proper, supersingular.glued_lattice(p)

        return op

    def check(self, outputs):
        problems = []
        component_counts = {"components:%d:%s" % (q, polys): n for q, polys, n in COMPONENT_SETS}
        for (kind, _fn), out in zip(self._ops, outputs):
            if kind.startswith("order:"):
                msgs = check_order_table(out)
                if kind == "order:9:((9, 0, 1),)":
                    msgs += check_gaussian_index(out, 3, 3)
            elif kind.startswith("components:"):
                msgs = check_components(out, component_counts[kind])
            elif kind.startswith("dieudonne:"):
                msgs = check_centers(*out)
            else:
                msgs = check_supersingular(*out)
            problems.extend("%s: %s" % (kind, m) for m in msgs)
        return problems


def _table_mul(table, a, b):
    d = len(table)
    out = [0] * d
    for i in range(d):
        if a[i]:
            for j in range(d):
                if b[j]:
                    c = a[i] * b[j]
                    for t, x in enumerate(table[i][j]):
                        out[t] += c * x
    return out


def _coords(basis, vec):
    sol = oracle.solve_rows(basis, vec)
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return [int(c) for c in sol]


def check_order_table(order):
    """The multiplication table is commutative and associative, matches
    multiplication in Q[x]/(P_w), and has F V = q."""
    out = []
    w = order.weil_set
    modulus = list(w.polynomial.coeffs)
    q = w.context.q
    basis = [list(v) for v in order.basis_vectors]
    table = order.table
    d = len(basis)
    pairs = [(i, j) for i in range(d) for j in range(d)]
    if any(list(table[i][j]) != list(table[j][i]) for i, j in pairs):
        out.append("table not commutative")
    for i, j in pairs:
        prod = oracle.poly_mod_monic(oracle.poly_mul(basis[i], basis[j]) or [0], modulus)
        combo = [sum(table[i][j][t] * basis[t][c] for t in range(d)) for c in range(d)]
        if [Fraction(x) for x in prod] != [Fraction(x) for x in combo]:
            out.append("table differs from multiplication mod P_w at (%d, %d)" % (i, j))
            break
    units = [[1 if t == i else 0 for t in range(d)] for i in range(d)]
    if any(
        _table_mul(table, _table_mul(table, a, b), c) != _table_mul(table, a, _table_mul(table, b, c))
        for a in units for b in units for c in units
    ):
        out.append("table not associative")
    x = oracle.poly_mod_monic([0, 1], modulus)
    # x^(-1) = -(a_1 + a_2 x + ... + x^(n-1)) / a_0 from P(x) = 0
    xinv = [Fraction(-c, modulus[0]) for c in modulus[1:]]
    v = oracle.poly_mod_monic([q * c for c in xinv], modulus)
    one = oracle.poly_mod_monic([1], modulus)
    f_c, v_c, one_c = _coords(basis, x), _coords(basis, v), _coords(basis, one)
    if f_c is None or v_c is None or one_c is None:
        out.append("F, V or 1 is not in the order")
    elif _table_mul(table, f_c, v_c) != [q * c for c in one_c]:
        out.append("F V != q in the table")
    return out


def check_gaussian_index(order, p, expected):
    """Index of R_w inside Z[x/p] for w = {x^2 + p^2} (criterion 1: 3)."""
    rows = [[v[0], v[1] * p] for v in order.basis_vectors]
    index = abs(oracle.fraction_det(rows))
    return [] if index == expected else ["index %s in the maximal order, expected %d" % (index, expected)]


def check_components(components, expected):
    out = []
    if len(components) != expected:
        out.append("%d components, expected %d" % (len(components), expected))
    return out


def check_centers(w, low, high):
    """Both center checks pass with rank deg(w), and the centers at k and
    k + 2 span the same module at the lower effective precision."""
    out = []
    deg = w.polynomial.degree
    if not (low.passed and high.passed):
        out.append("center verification failed")
    if low.rank != deg or high.rank != deg:
        out.append("center rank %d/%d, expected %d" % (low.rank, high.rank, deg))
    p = w.context.p
    eff = min(low.effective_precision, high.effective_precision)
    forms = [oracle.howell_form([list(r) for r in rep.center_rows], p, eff) for rep in (low, high)]
    if forms[0] != forms[1]:
        out.append("centers at k and k + 2 differ at precision %d" % eff)
    if len(forms[0]) != deg or any(
        next(c for c in row if c % p ** eff) % p == 0 for row in forms[0]
    ):
        out.append("center is not free of rank deg(w)")
    return out


def _stable_action(p):
    """psi(F), psi(V) and the scalar i on (Z[i]/p)^2 = F_p^4, coordinates
    (x1.re, x1.im, x2.re, x2.im): psi(F) = [[0, 1], [ip, 0]],
    psi(V) = [[0, -i], [p, 0]] reduce mod p to [[0, 1], [0, 0]] and
    [[0, -i], [0, 0]], and i acts as diag(i, -i)."""

    def gauss_matrix(m):
        cols = []
        for j in range(2):
            for unit in ((1, 0), (0, 1)):
                vec = [(0, 0), (0, 0)]
                vec[j] = unit
                img = []
                for i in range(2):
                    re = sum(m[i][t][0] * vec[t][0] - m[i][t][1] * vec[t][1] for t in range(2))
                    im = sum(m[i][t][0] * vec[t][1] + m[i][t][1] * vec[t][0] for t in range(2))
                    img += [re % p, im % p]
                cols.append(img)
        return [[cols[j][i] for j in range(4)] for i in range(4)]

    f = [[(0, 0), (1, 0)], [(0, p), (0, 0)]]
    v = [[(0, 0), (0, -1)], [(p, 0), (0, 0)]]
    i = [[(0, 1), (0, 0)], [(0, 0), (0, -1)]]
    return [gauss_matrix(m) for m in (f, v, i)]


def _in_span(vec, rows, p):
    vec = [c % p for c in vec]
    if not any(vec):
        return True
    return oracle.howell_form([list(r) for r in rows] + [vec], p, 1) == oracle.howell_form(
        [list(r) for r in rows], p, 1
    )


def check_supersingular(p, order, center, count, proper, glued):
    """Criteria 1 and 10 at every p: index p^4, center Z[ip] of index p, two
    lattice classes, and a fiber product of index p^2 and Witt colength 1."""
    out = []
    if abs(oracle.fraction_det([list(r) for r in order.basis])) != p ** 4 or order.index != p ** 4:
        out.append("order index is not p^4")
    scalar = all(
        row[2] == row[3] == row[4] == row[5] == 0 and row[0] == row[6] and row[1] == row[7]
        for row in center
    )
    if not scalar or len(center) != 2:
        out.append("center is not a rank-2 module of scalar matrices")
    elif abs(oracle.fraction_det([[row[0], row[1]] for row in center])) != p:
        out.append("center index in Z[i] is not p")
    if count != 2 or len(proper) != 1:
        out.append("%d lattice classes, expected 2" % count)
    else:
        for g in _stable_action(p):
            for row in proper[0]:
                image = [sum(g[i][j] * row[j] for j in range(4)) % p for i in range(4)]
                if not _in_span(image, proper[0], p):
                    out.append("proper subspace is not stable")
                    break
    if glued.index != p ** 2 or abs(oracle.fraction_det([list(r) for r in glued.basis])) != p ** 2:
        out.append("fiber product index is not p^2")
    if glued.witt_colength != 1:
        out.append("fiber product Witt colength is not 1")
    return out


# -- cli ---------------------------------------------------------------------------


class Cli(Workload):
    """Light requests through weilkit.cli.run in this process; each is a
    miss, a hit and a --verify-cache against a fresh cache directory."""

    name = "cli"
    # 11 good requests x 3 = 33 successful operations a round (until the
    # known faults are fixed); the tail is the third-costliest of them
    tail_beyond = 2
    min_rounds = 5

    def __init__(self, wk, seed, workdir):
        super().__init__(wk, seed, workdir)
        weil = wk.weil
        self._ipoly = wk.intpoly.IntPolynomial
        self.ctx2 = weil.GlobalContext.from_q(2)
        # degree-2 classes to validate: they cost the same to within a few
        # percent, so the seed does not move latency_p50_ms, which sits among
        # the misses of about 2 ms (a degree-4 class costs 2 to 3 ms)
        q3 = [c for c in weil.enumerate_weil(weil.GlobalContext.from_q(3), 2) if c.degree == 2]
        q32 = weil.enumerate_weil(weil.GlobalContext.from_q(32), 2)
        q2 = weil.enumerate_weil(self.ctx2, 4)
        pick3 = _sample_half(q3, self.seed_key, lambda c: c.polynomial.coeffs)[0]
        pick32 = _sample_half(q32, self.seed_key, lambda c: c.polynomial.coeffs)[0]
        chosen = _sample_half(q2, self.seed_key, lambda c: c.polynomial.coeffs)
        self.ingest_path = os.path.join(workdir, "ingest.csv")
        lines = ["# seeded ingest file"]
        lines += ["2," + ",".join(map(str, c.polynomial.coeffs)) for c in chosen]
        lines += ["2,-2,0,1", "2,2,-5,1", "2,a,b", "3,3,0,1"]
        with open(self.ingest_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.ingest_lines = lines
        wire = lambda c: ",".join(map(str, c.polynomial.coeffs))  # noqa: E731
        # (argv, documented exit code)
        self.requests = [
            (["validate", "--q", "2", "--poly", "2,-5,1"], 2),
            (["validate", "--q", "3", "--poly", wire(pick3)], 0),
            (["invariants", "--q", "32", "--poly", wire(pick32)], 0),
            (["invariants", "--q", "2", "--poly", "2,-5,1"], 2),
            (["order", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"], 0),
            (["components", "--q", "3", "--poly", "3,0,1", "--poly", "3,1,1"], 0),
            (["dieudonne-center", "--q", "9", "--poly", "9,0,1", "--precision", "5"], 0),
            (["example-sec9", "--p", "3"], 0),
            (["gamma-witness", "--q", "32"], 0),
            (["enumerate", "--q", "3", "--max-degree", "4"], 0),
            (["ingest", "--q", "2", "--path", self.ingest_path, "--max-degree", "4"], 0),
        ]
        # requests that fail every time because of faults in the CLI: the
        # first four raise out of run() instead of exiting 1 with one JSON
        # document, and argparse takes "-3,1" for an option and exits 2,
        # although x - 3 is a Weil class at q = 9.  They are counted as
        # failed; once fixed, they are checked like the others.
        self.known_faults = [
            (["enumerate", "--q", "3", "--max-degree", "5"], 1),
            (["dieudonne-center", "--q", "9", "--poly", "9,0,1", "--precision", "1"], 1),
            (["validate", "--q", "9", "--poly", "2,0,-1"], 1),
            (["ingest", "--q", "2", "--path", os.path.join(workdir, "missing.csv")], 1),
            (["validate", "--q", "9", "--poly", "-3,1"], 0),
        ]
        self._ops = []
        everything = self.requests + self.known_faults
        order = self._shuffle([(self._label(argv), (argv, code)) for argv, code in everything])
        for label, (argv, code) in order:
            for mode, flags in (("miss", []), ("hit", []), ("verify", ["--verify-cache"])):
                self._ops.append(("%s|%s" % (mode, label), self._op(flags + argv)))
        self.expected_code = {self._label(argv): code for argv, code in everything}
        self.cache_dir = None

    def _label(self, argv):
        """The request with its file names left out, so that labels (and the
        seeded order) do not depend on where the run writes."""
        return " ".join(os.path.basename(a) if a.startswith(self.workdir) else a for a in argv)

    def _op(self, argv):
        cli = self.wk.cli

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(argv))
                except SystemExit as e:
                    code = e.code
            return code, out.getvalue()

        return op

    def begin_round(self):
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        os.environ["WEILKIT_CACHE_DIR"] = self.cache_dir

    def end_round(self):
        files = len(os.listdir(self.cache_dir))
        shutil.rmtree(self.cache_dir)
        os.environ.pop("WEILKIT_CACHE_DIR", None)
        return {"cache_files": files}

    def failed(self, kind, output):
        code, text = output
        return code != self.expected_code[kind.split("|", 1)[1]] or _one_document(text) is None

    def check(self, outputs):
        problems = []
        texts = {}
        for (kind, _fn), output in zip(self._ops, outputs):
            mode, label = kind.split("|", 1)
            if isinstance(output, BaseException) or self.failed(kind, output):
                texts.setdefault(label, {})
            else:
                texts.setdefault(label, {})[mode] = output
        known = {self._label(argv) for argv, _code in self.known_faults}
        for argv, code in self.requests + self.known_faults:
            label = self._label(argv)
            got = texts[label]
            if len(got) != 3:
                # a known fault may fail in all three modes, nothing else may
                if got or label not in known:
                    problems.append("%s: only %s succeeded" % (label, sorted(got)))
                continue
            miss = got["miss"][1]
            if got["hit"][1] != miss or got["verify"][1] != miss:
                problems.append("%s: hit or verify response differs from the miss" % label)
            doc = _one_document(miss)
            if doc.get("schema") != "weilkit/1" or doc.get("command") != argv[0]:
                problems.append("%s: wrong schema or command" % label)
            elif code == 1:
                if set(doc) != {"schema", "command", "error"} or not isinstance(doc["error"], str):
                    problems.append("%s: exit code 1 without an error document" % label)
            elif argv[0] != "ingest" and doc.get("rejected") != (code == 2):
                # ingest's payload reuses "rejected" for its list of bad records
                problems.append("%s: rejected flag does not match exit code %d" % (label, code))
            else:
                problems.extend("%s: %s" % (label, m) for m in self._agrees(argv, doc))
        return problems

    def _agrees(self, argv, doc):
        """Compare a payload with the library called directly."""
        wk = self.wk
        opts = {}
        for flag, value in zip(argv[1::2], argv[2::2]):
            opts.setdefault(flag, []).append(value)
        cmd = argv[0]

        def ctx():
            return wk.weil.GlobalContext.from_q(int(opts["--q"][0]))

        def poly(text):
            return self._ipoly([int(t) for t in text.split(",")])

        def classes():
            return [wk.weil.validate_weil(poly(t), ctx()) for t in opts["--poly"]]

        def differs(field, want):
            return [] if doc.get(field) == want else ["%s is %r, library gives %r" % (field, doc.get(field), want)]

        if cmd in ("validate", "invariants") and doc["rejected"]:
            try:
                wk.weil.validate_weil(poly(opts["--poly"][0]), ctx())
            except wk.weil.NotWeilError as e:
                return differs("reason", e.reason)
            return ["rejected, but the library accepts the class"]
        if cmd == "validate":
            cls = classes()[0]
            return differs("accepted", True) + differs("degree", cls.degree) + differs("is_real", cls.is_real)
        if cmd == "invariants":
            want = wk.hondatate.honda_tate_record(classes()[0]).as_dict()
            return [] if all(doc.get(k) == v for k, v in want.items()) else ["record differs"]
        if cmd == "order":
            want = wk.central_orders.build_order(wk.weil.weil_set(classes())).as_dict()
            return [] if all(doc.get(k) == v for k, v in want.items()) else ["order differs"]
        if cmd == "components":
            comps = wk.central_orders.connected_components(wk.weil.weil_set(classes()))
            want = [[list(c.polynomial.coeffs) for c in comp] for comp in comps]
            return differs("components", want) + differs("count", len(comps))
        if cmd == "dieudonne-center":
            alg = wk.dieudonne.build_dieudonne(wk.weil.weil_set(classes()), int(opts["--precision"][0]))
            rep = wk.dieudonne.verify_center(alg)
            return (differs("passed", rep.passed) + differs("center_rank", rep.rank)
                    + differs("effective_precision", rep.effective_precision))
        if cmd == "example-sec9":
            p = int(opts["--p"][0])
            order, _center = wk.supersingular.endomorphism_order(p)
            count, _proper = wk.supersingular.lattice_class_count(p)
            glued = wk.supersingular.glued_lattice(p)
            return (differs("order_index", order.index) + differs("lattice_classes", count)
                    + differs("fiber_product", {"index": glued.index, "witt_colength": glued.witt_colength}))
        if cmd == "gamma-witness":
            w = wk.hondatate.gamma_witnesses(ctx())
            return (differs("divisor", w.divisor)
                    + differs("witness_s2", w.index_two_witness.as_dict())
                    + differs("witness_sr", w.index_r_witness.as_dict() if w.index_r_witness else None))
        if cmd == "enumerate":
            got = wk.weil.enumerate_weil(ctx(), int(opts["--max-degree"][0]))
            return differs("classes", [list(c.polynomial.coeffs) for c in got])
        if cmd == "ingest":
            return self._ingest_agrees(doc)
        return ["no library comparison for %s" % cmd]

    def _ingest_agrees(self, doc):
        weil = self.wk.weil
        valid = set()
        rejected = []
        rows = [line for line in self.ingest_lines if not line.startswith("#")]
        for lineno, line in enumerate(self.ingest_lines, 1):
            if line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                q, coeffs = int(parts[0]), [int(t) for t in parts[1:]]
            except ValueError:
                rejected.append({"line": lineno, "reason": "malformed"})
                continue
            if q != 2:
                rejected.append({"line": lineno, "reason": "wrong-q"})
                continue
            try:
                valid.add(tuple(weil.validate_weil(self._ipoly(coeffs), self.ctx2).polynomial.coeffs))
            except weil.NotWeilError as e:
                rejected.append({"line": lineno, "reason": e.reason})
        enumerated = {tuple(c.polynomial.coeffs) for c in weil.enumerate_weil(self.ctx2, 4)}
        want = {
            "records": len(rows),
            "valid": len(valid),
            "rejected": rejected,
            "not_in_enumeration": [list(c) for c in sorted(valid - enumerated)],
            "missing_from_file": [list(c) for c in sorted(enumerated - valid)],
        }
        return [] if all(doc.get(k) == v for k, v in want.items()) else ["ingest report differs"]


def _one_document(text):
    """The JSON object when text is exactly one JSON document, else None."""
    try:
        doc, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return None
    if text[end:].strip() or not isinstance(doc, dict):
        return None
    return doc


WORKLOADS = {w.name: w for w in (Enumerate, Invariants, Structures, Cli)}
