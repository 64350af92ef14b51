"""The benchmark's own tests: one round of every workload passes its checks,
and every check rejects a deliberately corrupted output.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def wk():
    # the modules already imported in this process; run.Weilkit would
    # re-import them and split class identities between test modules
    return SimpleNamespace(**{m: importlib.import_module("weilkit." + m) for m in run.MODULES})


@pytest.fixture(scope="module")
def tiny(wk, tmp_path_factory):
    """Each workload built at seed 7 with the outputs of one round."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(wk, 7, str(tmp_path_factory.mktemp(name)))
        out[name] = (w, run.Round(w, keep_outputs=True))
    return out


def problems_after(w, outputs, index, replacement):
    corrupted = list(outputs)
    corrupted[index] = replacement
    return w.check(corrupted)


def has(problems, text):
    return any(text in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_every_check(tiny, name):
    w, rnd = tiny[name]
    assert w.check(rnd.outputs) == []
    failed = [kind for kind, _t, bad in rnd.times if bad]
    if name == "cli":
        # the five malformed requests, each as miss, hit and verify
        assert len(failed) == 15
        assert {k.split("|", 1)[1] for k in failed} == {w._label(argv) for argv, _code in w.known_faults}
    else:
        assert failed == []


def test_seed_fixes_inputs(wk, tmp_path):
    a = workloads.Invariants(wk, 3, str(tmp_path))
    b = workloads.Invariants(wk, 3, str(tmp_path))
    c = workloads.Invariants(wk, 4, str(tmp_path))
    assert [k for k, _ in a.ops()] == [k for k, _ in b.ops()]
    assert sorted(k for k, _ in a.ops()) != sorted(k for k, _ in c.ops())
    assert 0.04 < a.round2_share < 0.07


# -- enumerate ---------------------------------------------------------------


def fake_class(coeffs):
    return SimpleNamespace(polynomial=SimpleNamespace(coeffs=tuple(coeffs)))


def cell_index(w, kind):
    return [k for k, _ in w.ops()].index(kind)


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("2/4", lambda cl: cl[1:2] + cl[:1] + cl[2:], "not strictly sorted"),
        ("2/4", lambda cl: cl[:1] + cl, "not strictly sorted"),
        ("4/4", lambda cl: [fake_class((-3, 1))] + cl[1:], "not x -+ sqrt q"),
        ("2/4", lambda cl: cl + [fake_class((4, 1, 0, 1, 1))], "functional equation"),
        ("9/2", lambda cl: cl + [fake_class((9, -7, 1))], "outside the window"),
        ("9/4", lambda cl: cl + [fake_class((81, 9, 18, 1, 1))], "reducible"),
        ("3/4", lambda cl: cl[:-1], "coefficient-scan oracle"),
        ("2/2", lambda cl: cl + [fake_class((8, 0, 0, 0, 1))], "above the bound"),
    ],
)
def test_enumerate_checks_reject(tiny, kind, edit, message):
    w, rnd = tiny["enumerate"]
    idx = cell_index(w, kind)
    assert has(problems_after(w, rnd.outputs, idx, edit(list(rnd.outputs[idx]))), message)


def test_trace_polynomial_and_window():
    # x^4 - x^3 + ... at q = 2 from its trace polynomial t^2 - t - 1
    assert oracle.trace_polynomial([4, -2, -1, -1, 1], 2) == [-5, -1, 1]
    assert oracle.all_roots_in_window([-5, -1, 1], 2)
    assert oracle.all_roots_in_window([-7, 0, 1], 2)  # sqrt 7 < 2 sqrt 2
    assert not oracle.all_roots_in_window([-9, 0, 1], 2)
    assert oracle.trace_polynomial([4, -2, -1, 1, 1], 2) is None


# -- invariants ----------------------------------------------------------------


def record_for(tiny, q, degree):
    w, rnd = tiny["invariants"]
    for rec in rnd.outputs:
        if rec.weil_class.context.q == q and rec.weil_class.degree == degree:
            return w, rec
    raise LookupError((q, degree))


def ordinary_record(tiny):
    w, rnd = tiny["invariants"]
    for rec in rnd.outputs:
        if rec.slope_kind == "ordinary" and rec.weil_class.context.r == 1 and rec.weil_class.degree == 4:
            return w, rec
    raise LookupError("ordinary")


def with_place(rec, index, **changes):
    places = list(rec.places)
    places[index] = dataclasses.replace(places[index], **changes)
    return dataclasses.replace(rec, places=tuple(places))


def test_invariant_checks_reject(tiny):
    check = workloads.Invariants._check_record
    _w, rec32 = record_for(tiny, 32, 2)
    assert check(rec32) == []
    assert has(check(dataclasses.replace(rec32, multiplicity=rec32.multiplicity + 1)), "m*s != 2r")
    assert has(check(dataclasses.replace(rec32, dim=rec32.dim + 1)), "2*dim != s*deg")
    assert has(check(with_place(rec32, 0, f=rec32.places[0].f + 1)), "sum of e*f != deg")
    val = rec32.places[0].root_valuation
    assert has(check(with_place(rec32, 0, root_valuation=val + 1)), "sum of deg*val")
    assert has(check(with_place(rec32, 0, invariant=Fraction(1, 3))), "local invariant")
    assert has(check(with_place(rec32, 0, invariant=Fraction(1, 3))), "reciprocity")
    assert has(check(dataclasses.replace(rec32, real_place_count=1)), "real places")
    s_bad = 10 if rec32.s != 10 else 5  # keeps m*s = 2r and 2*dim = s*deg
    assert has(check(dataclasses.replace(rec32, s=s_bad, multiplicity=10 // s_bad, dim=s_bad)), "Waterhouse")
    _w, rec9 = record_for(tiny, 9, 4)
    bad = dataclasses.replace(rec9, s=4, multiplicity=1, dim=8)
    assert has(check(bad), "s does not divide lcm(r, 2)")
    # s = 2 where every local invariant is integral and no place is real
    _w, rec4 = next(
        (w, r) for w, r in (record_for(tiny, q, 4) for q in (3, 4, 9))
        if r.s == 1 and r.real_place_count == 0
    )
    doubled = dataclasses.replace(rec4, s=2, multiplicity=rec4.multiplicity // 2, dim=4)
    assert has(check(doubled), "s != lcm of invariant denominators")
    _w, rec = ordinary_record(tiny)
    assert has(check(dataclasses.replace(rec, s=2, multiplicity=1, dim=4)), "ordinary class with s != 1")
    assert has(check(dataclasses.replace(rec, slope_kind="mixed")), "slope type")
    skew = (
        dataclasses.replace(rec.places[0], e=1, f=1, root_valuation=Fraction(0), invariant=Fraction(0)),
        dataclasses.replace(rec.places[0], e=3, f=1, root_valuation=Fraction(2, 3), invariant=Fraction(0)),
    )
    assert has(check(dataclasses.replace(rec, places=skew)), "not symmetric")


def test_place_cross_check_rejects(tiny):
    w, rec = record_for(tiny, 9, 4)
    assert w.cross_check([rec]) == []
    place = rec.places[0]
    swapped = with_place(rec, 0, e=place.f, f=place.e) if place.e != place.f else None
    if swapped is None:
        swapped = with_place(rec, 0, root_valuation=place.root_valuation + 1)
    assert has(w.cross_check([swapped]), "p-maximal-order route")


def test_waterhouse_closed_form():
    assert oracle.waterhouse_index(2, 32) == 5  # criterion 2
    assert oracle.waterhouse_index(0, 9) == 1  # criterion 1: inert place
    assert oracle.waterhouse_index(0, 2) == 1  # 2 ramifies in Q(sqrt -2)
    assert oracle.waterhouse_index(0, 25) == 2  # 5 splits in Q(i)


def test_howell_form_spans():
    assert oracle.howell_form([[3, 1]], 3, 2) == ((3, 1), (0, 3))
    assert oracle.howell_form([[1, 2], [0, 3]], 3, 2) == oracle.howell_form([[1, 5], [0, 3]], 3, 2)
    assert oracle.howell_form([[1, 2]], 3, 2) != oracle.howell_form([[1, 5]], 3, 2)


# -- structures ----------------------------------------------------------------


def structure_output(tiny, prefix):
    w, rnd = tiny["structures"]
    for idx, (kind, _fn) in enumerate(w.ops()):
        if kind.startswith(prefix):
            return w, rnd, idx, rnd.outputs[idx]
    raise LookupError(prefix)


def test_order_checks_reject(tiny):
    w, rnd, idx, order = structure_output(tiny, "order:3:((3, 0, 1), (3, 1, 1))")
    table = [list(row) for row in order.table]
    table[0][1], table[1][0] = table[1][0], tuple(c + 1 for c in table[1][0])
    bad = dataclasses.replace(order, table=tuple(tuple(r) for r in table))
    found = problems_after(w, rnd.outputs, idx, bad)
    for text in ("not commutative", "multiplication mod P_w", "not associative"):
        assert has(found, text), text
    f, v = order.basis_labels.index("F"), order.basis_labels.index("V")
    table = [list(row) for row in order.table]
    table[f][v] = table[v][f] = tuple(c + 1 for c in table[f][v])
    bad = dataclasses.replace(order, table=tuple(tuple(r) for r in table))
    assert has(problems_after(w, rnd.outputs, idx, bad), "F V != q")
    w, rnd, idx, order = structure_output(tiny, "order:9:((9, 0, 1),)")
    scaled = tuple(tuple(3 * c for c in v) for v in order.basis_vectors)
    found = problems_after(w, rnd.outputs, idx, dataclasses.replace(order, basis_vectors=scaled))
    assert has(found, "index")
    assert has(found, "F, V or 1 is not in the order")


def test_component_check_rejects(tiny):
    w, rnd, idx, comps = structure_output(tiny, "components:3:((3, 0, 1), (3, 1, 1))")
    merged = [tuple(c for comp in comps for c in comp)]
    assert has(problems_after(w, rnd.outputs, idx, merged), "components, expected 2")


def test_center_checks_reject(tiny):
    w, rnd, idx, (ws, low, high) = structure_output(tiny, "dieudonne:9:((9, -1, 1),):5")
    p = ws.context.p
    assert has(problems_after(w, rnd.outputs, idx, (ws, dataclasses.replace(low, passed=False), high)),
               "verification failed")
    assert has(problems_after(w, rnd.outputs, idx, (ws, dataclasses.replace(low, rank=1), high)), "rank")
    rows = [list(r) for r in high.center_rows]
    rows[0] = [(c + 1) for c in rows[0]]
    moved = dataclasses.replace(high, center_rows=tuple(tuple(r) for r in rows))
    assert has(problems_after(w, rnd.outputs, idx, (ws, low, moved)), "differ at precision")
    thin = tuple(tuple(p * c for c in r) for r in low.center_rows)
    both = (ws, dataclasses.replace(low, center_rows=thin), dataclasses.replace(high, center_rows=thin))
    assert has(problems_after(w, rnd.outputs, idx, both), "not free")


def test_supersingular_checks_reject(tiny):
    w, rnd, idx, out = structure_output(tiny, "supersingular:3")
    p, order, center, count, proper, glued = out

    def check(**changes):
        values = dict(p=p, order=order, center=center, count=count, proper=proper, glued=glued)
        values.update(changes)
        return problems_after(w, rnd.outputs, idx, tuple(values.values()))

    rows = [list(r) for r in order.basis]
    rows[0] = [2 * c for c in rows[0]]
    assert has(check(order=dataclasses.replace(order, basis=tuple(map(tuple, rows)))), "order index")
    assert has(check(center=((1, 0, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 1))), "center index")
    assert has(check(center=((1, 0, 1, 0, 0, 0, 1, 0),)), "scalar matrices")
    assert has(check(count=3), "lattice classes")
    assert has(check(proper=[((0, 0, 1, 0), (0, 0, 0, 1))]), "not stable")
    assert has(check(glued=dataclasses.replace(glued, index=p)), "fiber product index")
    assert has(check(glued=dataclasses.replace(glued, witt_colength=2)), "Witt colength")


# -- cli -------------------------------------------------------------------------


def cli_output(tiny, mode, command):
    """The first request whose label starts with `command`, in one mode."""
    w, rnd = tiny["cli"]
    for idx, (kind, _fn) in enumerate(w.ops()):
        if kind.startswith("%s|%s" % (mode, command)):
            return w, rnd, idx, kind, rnd.outputs[idx]
    raise LookupError(command)


def cli_problems(tiny, command, response):
    """Check a round in which every mode of one request gave `response`,
    or `response(mode, code, text)` when it is callable."""
    w, rnd = tiny["cli"]
    outputs = list(rnd.outputs)
    for mode in ("miss", "hit", "verify"):
        _w, _r, i, _k, out = cli_output(tiny, mode, command)
        code, text = out if isinstance(out, tuple) else (None, "")
        outputs[i] = response(mode, code, text) if callable(response) else response
    return w.check(outputs)


def test_cli_checks_reject(tiny):
    w, rnd, idx, kind, (code, text) = cli_output(tiny, "hit", "order ")
    assert has(problems_after(w, rnd.outputs, idx, (code, text.replace("\n", "\n\n", 1))), "differs from the miss")
    assert w.failed(kind, (1, text))
    assert w.failed(kind, (code, text + text))
    # the same wrong payload in all three responses
    for command, edit, message in (
        ("order ", lambda t: t.replace('"q": 3', '"q": 4'), "order differs"),
        ("order ", lambda t: t.replace("weilkit/1", "weilkit/2"), "schema"),
        ("order ", lambda t: t.replace('"rejected": false', '"rejected": true'), "rejected flag"),
        ("enumerate --q 3 --max-degree 4", lambda t: t.replace('"classes": [', '"classes": [[1],', 1), "classes is"),
        ("components ", lambda t: t.replace('"count": 2', '"count": 1'), "count is"),
        ("validate --q 3 ", lambda t: t.replace('"degree": 2', '"degree": 3'), "degree is"),
        ("validate --q 2 ", lambda t: t.replace("real-root-outside-bound", "not-monic"), "reason is"),
        ("invariants --q 32 ", lambda t: t.replace('"q": 32', '"q": 33'), "record differs"),
        ("invariants --q 2 ", lambda t: t.replace("real-root-outside-bound", "not-monic"), "reason is"),
        ("dieudonne-center --q 9 --poly 9,0,1 --precision 5", lambda t: t.replace('"passed": true', '"passed": false'),
         "passed is"),
        ("example-sec9 ", lambda t: t.replace('"lattice_classes": 2', '"lattice_classes": 3'), "lattice_classes is"),
        ("gamma-witness ", lambda t: t.replace('"divisor": 20', '"divisor": 21'), "divisor is"),
        ("ingest --q 2 --path ingest.csv", lambda t: t.replace('"valid": ', '"valid": 1'), "ingest report differs"),
    ):
        edited = cli_problems(tiny, command, lambda _m, c, t: (c, edit(t)))
        assert has(edited, message), message


def test_cli_checks_reject_failures(tiny):
    w, _rnd = tiny["cli"]
    # a documented request that fails, in one mode or in all three
    _w, rnd, idx, _kind, (_code, text) = cli_output(tiny, "verify", "order ")
    assert has(problems_after(w, rnd.outputs, idx, (1, text)), "only ['hit', 'miss'] succeeded")
    assert has(cli_problems(tiny, "gamma-witness ", RuntimeError("raised")), "only [] succeeded")
    # a known fault fixed in the miss only
    fixed = error_document(w, "enumerate")
    partial = cli_problems(tiny, "enumerate --q 3 --max-degree 5", lambda m, c, t: fixed if m == "miss" else (c, t))
    assert has(partial, "only ['miss'] succeeded")
    # exit 1 with a document that is not an error report
    flagged = (1, fixed[1].replace('"error"', '"rejected": false, "error"'))
    assert has(cli_problems(tiny, "enumerate --q 3 --max-degree 5", flagged), "without an error document")
    # a rejection the library does not make
    argv = ["validate", "--q", "9", "--poly", "9,0,1"]
    assert w._agrees(argv, {"rejected": True}) == ["rejected, but the library accepts the class"]


def error_document(w, command):
    return 1, w.wk.cli._render({"schema": "weilkit/1", "command": command, "error": "bad request"})


def test_cli_accepts_fixed_known_faults(tiny):
    """Each known fault answered as documented passes every check and no
    longer counts as failed."""
    w, _rnd = tiny["cli"]
    for argv, code in w.known_faults:
        label = w._label(argv)
        if code == 1:
            response = error_document(w, argv[0])
        else:
            # the fixed answer to "--poly -3,1" is today's answer to "--poly=-3,1"
            joined = argv[:3] + ["%s=%s" % tuple(argv[3:5])]
            response = w._op(joined)()
            assert response[0] == 0
        for mode in ("miss", "hit", "verify"):
            assert not w.failed("%s|%s" % (mode, label), response)
        assert cli_problems(tiny, label, response) == [], label


# -- tracing and the runner --------------------------------------------------------


def test_tracer_records_and_restores(wk):
    original = wk.weil.enumerate_weil
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wk.weil.enumerate_weil is not original
        ctx = wk.weil.GlobalContext.from_q(2)
        wk.weil.enumerate_weil(ctx, 2)
        metrics = tracing.layer_metrics(tracer.take())
    finally:
        tracer.remove()
    assert wk.weil.enumerate_weil is original
    assert metrics["weil.classes"][0] == 5
    assert metrics["zfactor.is_irreducible_calls"][0] >= 5
    assert metrics["weil.enumerate_self_s"][0] > 0


def test_best_times_and_quantile():
    r1 = SimpleNamespace(times=[("a", 2.0, False), ("b", 5.0, True)])
    r2 = SimpleNamespace(times=[("a", 1.0, False), ("b", 6.0, True)])
    assert run.best_times([r1, r2]) == [("a", 1.0, False), ("b", 5.0, True)]
    assert run.quantile([1, 2, 3, 4], 0.5) == 2.5
    assert run.quantile([5], 0.9) == 5


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]) == 2
