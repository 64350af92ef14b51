import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilkit.checks import VerificationError
from weilkit.dieudonne import (
    associativity_report,
    build_dieudonne,
    ordinary_matrix_check,
    verify_center,
)
from weilkit.intpoly import IntPolynomial
from weilkit.weil import GlobalContext, validate_weil, weil_set


def P(*cs):
    return IntPolynomial(cs)


C3 = GlobalContext.from_q(3)
C4 = GlobalContext.from_q(4)
C9 = GlobalContext.from_q(9)
C32 = GlobalContext.from_q(32)


def _set(ctx, *polys):
    return weil_set([validate_weil(P(*cs), ctx) for cs in polys])


def test_build_basic_invariants():
    alg = build_dieudonne(_set(C9, (9, 0, 1)), 3)
    assert alg.n_bound == 2
    assert alg.zp_rank == 8  # r^2 * deg(w) = 4 * 2
    assert alg.relation == {2: 1, -2: 1}
    # F V = p both ways (checked again explicitly)
    assert alg.mul(alg.frobenius_gen(), alg.verschiebung_gen()) == alg.from_int(3)
    assert alg.mul(alg.verschiebung_gen(), alg.frobenius_gen()) == alg.from_int(3)


def test_rank_formula_both_rational():
    alg = build_dieudonne(_set(C9, (-3, 1), (3, 1)), 3)
    assert alg.n_bound == 2
    assert alg.zp_rank == 8


def test_odd_case_single_rational():
    alg = build_dieudonne(_set(C4, (-2, 1)), 4)
    assert alg.n_bound == 1
    assert alg.zp_rank == 4
    f = alg.frobenius_gen()
    assert f == alg.verschiebung_gen()  # F = V from the defining relation
    assert alg.mul(f, f) == alg.from_int(2)


def test_exponent_rule_nonnegative():
    alg = build_dieudonne(_set(C9, (9, 0, 1)), 2)
    for i in range(-4, 4):
        for j in range(-4, 4):
            e2 = abs(i) + abs(j) - abs(i + j)
            assert e2 >= 0 and e2 % 2 == 0


def test_associativity_families():
    families = [
        (_set(C9, (9, 0, 1)), 3),
        (_set(C9, (9, -1, 1)), 3),
        (_set(C9, (-3, 1), (3, 1)), 3),
        (_set(C3, (3, 0, 1), (3, 1, 1)), 3),
        (_set(C4, (-2, 1)), 4),
        (_set(C9, (-3, 1), (9, 0, 1)), 3),
    ]
    for w, k in families:
        alg = build_dieudonne(w, k)
        count = associativity_report(alg)
        assert count > 0


def test_sigma_order_r():
    alg = build_dieudonne(_set(C32, (32, -2, 1)), 4)
    t = alg.witt.from_coords([0, 1, 0, 0, 0])
    cur = t
    for _ in range(5):
        cur = alg.witt.sigma(cur)
    assert cur == t


def test_center_families():
    for w, k in [
        (_set(C9, (9, 0, 1)), 4),
        (_set(C9, (9, -1, 1)), 4),
        (_set(C9, (-3, 1), (3, 1)), 4),
        (_set(C9, (-3, 1), (9, 0, 1)), 4),
        (_set(C32, (32, -2, 1)), 6),
    ]:
        rep = verify_center(build_dieudonne(w, k))
        assert rep.passed, (w, rep.witness)
        assert rep.rank == w.degree


def test_center_two_precision_agreement():
    for polys in [((9, 0, 1),), ((9, -1, 1),), ((-3, 1), (3, 1))]:
        w = _set(C9, *polys)
        k = 5
        rep_low = verify_center(build_dieudonne(w, k))
        rep_high = verify_center(build_dieudonne(w, k + 2))
        eff = min(rep_low.effective_precision, rep_high.effective_precision)
        q_eff = 3 ** eff
        low = sorted(tuple(c % q_eff for c in row) for row in rep_low.center_rows)
        high = sorted(tuple(c % q_eff for c in row) for row in rep_high.center_rows)
        # canonical forms agree after truncating to the common precision
        from weilkit.intmatrix import zpk_canonical

        assert zpk_canonical(low, 3, eff) == zpk_canonical(high, 3, eff)


def test_ordinary_matrix_check_verified():
    alg = build_dieudonne(_set(C9, (9, -1, 1)), 4)
    rep = ordinary_matrix_check(alg)
    assert rep.verdict == "verified"
    assert len(rep.idempotents) == 2
    e1, e2 = rep.idempotents
    assert alg.mul(e1, e1) == e1
    assert alg.mul(e2, e2) == e2
    assert alg.mul(e1, e2) == alg.zero()
    assert alg.add(e1, e2) == alg.one()
    # pinned before the mod-p and mod-p^k rings moved to `tablering`
    assert rep.idempotents == (
        ((0, 0), (53, 0), (41, 0), (53, 0)),
        ((0, 0), (28, 0), (41, 0), (28, 0)),
    )


def test_ordinary_matrix_check_rank_one():
    rep = ordinary_matrix_check(build_dieudonne(_set(C3, (3, -1, 1)), 4))
    assert rep.verdict == "verified"
    assert len(rep.idempotents) == 1


def test_ordinary_matrix_check_rejects_supersingular():
    with pytest.raises(ValueError):
        ordinary_matrix_check(build_dieudonne(_set(C9, (9, 0, 1)), 3))
    with pytest.raises(ValueError):
        ordinary_matrix_check(build_dieudonne(_set(C9, (-3, 1), (3, 1)), 3))


def export(alg):
    """The algebra as plain data: q, the class polynomials, k, N, the Witt
    modulus and the structure constants of every pair of basis slots."""
    table = []
    for si in range(alg.slots):
        row = []
        for sj in range(alg.slots):
            prod = alg.mul(
                alg.basis_element(alg.index_of_slot(si)),
                alg.basis_element(alg.index_of_slot(sj)),
            )
            row.append([list(c) for c in prod])
        table.append(row)
    return {
        "q": alg.weil_set.context.q,
        "polys": [list(c.polynomial.coeffs) for c in alg.weil_set.classes],
        "k": alg.k,
        "N": alg.n_bound,
        "witt_modulus": list(alg.witt.modulus),
        "structure_constants": table,
    }


def test_export_shape_and_roundtrip():
    alg = build_dieudonne(_set(C9, (9, 0, 1)), 3)
    data = export(alg)
    assert data["N"] == 2 and data["k"] == 3 and data["q"] == 9
    assert len(data["structure_constants"]) == 4
    assert len(data["structure_constants"][0][0]) == 4
    ctx = GlobalContext.from_q(data["q"])
    rebuilt = build_dieudonne(
        _set(ctx, *[tuple(cs) for cs in data["polys"]]), data["k"]
    )
    assert export(rebuilt) == data


def test_checks_survive_optimized_mode():
    """A corrupted rewrite of F_N fails the associativity check under
    `python -O` too."""
    script = (
        "from weilkit.dieudonne import associativity_report, build_dieudonne\n"
        "from weilkit.intpoly import IntPolynomial\n"
        "from weilkit.weil import GlobalContext, validate_weil, weil_set\n"
        "ctx = GlobalContext.from_q(9)\n"
        "w = weil_set([validate_weil(IntPolynomial((9, -1, 1)), ctx)])\n"
        "alg = build_dieudonne(w, 3)\n"
        "top = list(alg.rewrites[alg.n_bound])\n"
        "top[alg.slot_of_index(0)] = alg.witt.add(top[alg.slot_of_index(0)], alg.witt.from_int(3))\n"
        "alg.rewrites[alg.n_bound] = tuple(top)\n"
        "try:\n"
        "    associativity_report(alg)\n"
        "except AssertionError as e:\n"
        "    print('raised:', type(e).__name__, e)\n"
        "else:\n"
        "    print('returned')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: VerificationError associativity fails at (-2,-1,1)\n", flags
    assert issubclass(VerificationError, AssertionError)
