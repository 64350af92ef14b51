"""`ingest` against its route before it took enumerated records from the
enumeration: every record validated first, then the enumeration, compared
payload byte for byte with and without --max-degree."""

import json

import pytest

from weilkit import cli
from weilkit.cli import (
    RequestError,
    _enumerate_weil,
    _read_records,
    _render,
    build_parser,
    cmd_ingest,
    parse_context,
)
from weilkit.intpoly import IntPolynomial
from weilkit.weil import NotWeilError, validate_weil


def old_cmd_ingest(args):
    ctx = parse_context(args)
    records = _read_records(args.path)
    rejected = []
    valid = []
    for lineno, q, coeffs in records:
        if q is None or coeffs is None:
            rejected.append({"line": lineno, "reason": "malformed"})
            continue
        if q != ctx.q:
            rejected.append({"line": lineno, "reason": "wrong-q"})
            continue
        try:
            cls = validate_weil(IntPolynomial(coeffs), ctx)
        except (NotWeilError, ValueError, TypeError) as e:
            reason = e.reason if isinstance(e, NotWeilError) else "malformed"
            rejected.append({"line": lineno, "reason": reason})
            continue
        valid.append(cls)
    if args.max_degree is not None:
        bound = args.max_degree
    else:
        bound = max((c.degree for c in valid), default=2)
        bound = min(bound + (bound % 2), 8)
        bound = max(bound, 2)
    enumerated = {c.polynomial.coeffs for c in _enumerate_weil(ctx, bound)}
    file_polys = {c.polynomial.coeffs for c in valid}
    unknown = sorted(p for p in file_polys if p not in enumerated)
    missing = sorted(p for p in enumerated if p not in file_polys)
    return {
        "q": ctx.q,
        "degree_bound": bound,
        "records": len(records),
        "valid": len(valid),
        "rejected": rejected,
        "not_in_enumeration": [list(p) for p in unknown],
        "missing_from_file": [list(p) for p in missing],
    }


def outcome(cmd, argv):
    """The rendered payload, or the type and message of what was raised."""
    args = build_parser().parse_args(argv)
    try:
        return _render(cmd(args))
    except (RequestError, OSError, ValueError) as e:
        return type(e).__name__, str(e)


CSV = {
    "duplicates": "2,2,0,1\n2,2,0,1\n2,2,1,1\n# a comment\n\n2,2,0,1\n",
    "trailing-zeros": "2,2,2,1,0\n2,2,2,1\n2,4,2,0,1,0,0\n",
    "sqrt-q": "2,-2,0,1\n2,-2,1\n",
    "non-monic": "2,2,2,2\n2,4,-2,2\n2,-1\n",
    "mixed": "2,2,-5,1\ngarbage\n3,3,0,1\n2,a,b\n2\n2,0\n2,4,-4,2,-2,1\n2,1,0,1\n",
}
JSON_ENTRIES = [
    {"q": 2, "coefficients": [2, 0, 1]},
    {"q": 2, "coefficients": [2.0, 0, 1]},
    {"q": 2, "coefficients": [2, 0, True]},
    {"q": 2, "coefficients": ["2", "0", "1"]},
    {"q": 2, "coefficients": [2, 0, None]},
    {"q": 2, "coefficients": [[2], 0, 1]},
    {"q": 2, "coefficients": 5},
    {"q": 2, "coefficients": "2,0,1"},
    {"q": 2.0, "coefficients": [2, 1, 1]},
    {"q": 2},
    {"coefficients": [2, 1, 1]},
    {"q": 2, "coefficients": [2, 0, 1.5]},
    {"q": 2, "coefficients": [4, 0, 0, 0, 1]},
]
# enumerate_weil refuses an odd bound with a ValueError (a known fault of the
# cli: a traceback, not an error document); both routes raise the same
BOUNDS = (None, "1", "2", "4", "6")


def files(tmp_path):
    out = {}
    for name, text in CSV.items():
        path = tmp_path / (name + ".csv")
        path.write_text(text)
        out[name] = path
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(JSON_ENTRIES))
    out["json"] = path
    return out


def test_ingest_payloads_match_the_old_route(tmp_path):
    for name, path in files(tmp_path).items():
        for bound in BOUNDS:
            argv = ["ingest", "--q", "2", "--path", str(path)]
            if bound is not None:
                argv += ["--max-degree", bound]
            new, old = outcome(cmd_ingest, argv), outcome(old_cmd_ingest, argv)
            assert new == old, (name, bound)
            assert isinstance(new, str) == (bound != "1"), (name, bound, new)


def test_ingest_over_the_class_cap_matches_the_old_route(tmp_path):
    path = tmp_path / "nine.csv"
    path.write_text("9,9,0,1\n9,9,3,1\n9,1,1\n")
    for bound in ("8", None):
        argv = ["ingest", "--q", "9", "--path", str(path)] + (["--max-degree", bound] if bound else [])
        new, old = outcome(cmd_ingest, argv), outcome(old_cmd_ingest, argv)
        assert new == old, bound
    refused = outcome(cmd_ingest, ["ingest", "--q", "9", "--path", str(path), "--max-degree", "8"])
    assert refused == ("RequestError", "over %d classes at this q and degree" % cli.ENUMERATE_MAX_CLASSES)


@pytest.mark.parametrize("bound", (None, "4", "8"))
def test_ingest_missing_file_fails_first(tmp_path, bound, monkeypatch):
    # the file is read before the enumeration: a missing file fails the
    # same way whatever the bound, and nothing is enumerated
    monkeypatch.setattr(cli, "enumerate_weil", lambda *a: pytest.fail("enumerated"))
    argv = ["ingest", "--q", "9", "--path", str(tmp_path / "missing.csv")]
    argv += ["--max-degree", bound] if bound else []
    new = outcome(cmd_ingest, argv)
    assert new[0] == "FileNotFoundError"
    monkeypatch.undo()
    assert new == outcome(old_cmd_ingest, argv)


def test_ingest_takes_enumerated_records_without_validating(tmp_path, monkeypatch):
    calls = []
    real = cli.validate_weil

    def counted(poly, ctx):
        calls.append(poly.coeffs)
        return real(poly, ctx)

    monkeypatch.setattr(cli, "validate_weil", counted)
    path = tmp_path / "classes.csv"
    path.write_text("2,2,0,1\n2,2,1,1\n2,-2,0,1\n2,2,2,2\n2,4,2,0,1,0,0\n")
    argv = ["ingest", "--q", "2", "--path", str(path), "--max-degree", "2"]
    payload = json.loads(outcome(cmd_ingest, argv))
    assert payload["valid"] == 3
    # x^2 - 2 is a Weil class the enumeration does not hold; the non-monic
    # record and the cubic are not in it either
    assert calls == [(-2, 0, 1), (2, 2, 2), (4, 2, 0, 1)]
