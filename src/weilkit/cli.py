"""Command-line interface: deterministic JSON reports over the library.

Subcommands: validate, enumerate, invariants, order, components,
dieudonne-center, example-sec9, gamma-witness, ingest.  Every run prints a
single JSON document with a schema marker; identical requests produce
byte-identical output (lists are sorted and no timestamps are emitted), so
results can be cached content-addressed by request.  Exit codes: 0 success,
2 domain rejection (not a Weil polynomial, place data failing its degree or
valuation-sum check), 1 malformed requests and other errors.

Polynomials on the wire are comma-separated integers, constant term first.
The cache directory is taken from WEILKIT_CACHE_DIR; --no-cache disables
it and --verify-cache recomputes and compares byte for byte.  A cache file
is written under a temporary name and moved into place, so a reader sees
the whole file or none.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import threading

from . import __version__
from .central_orders import _power_basis_index, build_order, connected_components
from .dieudonne import build_dieudonne, verify_center
from .hondatate import (
    gamma_witnesses,
    honda_tate_record,
    rank_of_hom_lattice,
)
from .intpoly import IntPolynomial
from .padic import IrregularPlacesError
from .supersingular import (
    center_index_in_gaussian_scalars,
    endomorphism_order,
    glued_lattice,
    lattice_class_count,
)
from .weil import GlobalContext, NotWeilError, enumerate_weil, validate_weil, weil_set

SCHEMA = "weilkit/1"
# example-sec9 closes p^2 + 1 cyclic submodules: 0.30-0.44 s at p = 127 (one Xeon vCPU, Python 3.11)
SEC9_MAX_P = 127
# enumerate and ingest refuse a degree bound 2g with about 2^(g+1) q^(g(g+1)/4)
# classes (within 30% from (2, 8) to (256, 4)) over this: (4, 8) has 33,441, in
# 16 s (one Xeon vCPU, Python 3.11), and (9, 8) would have about 1.9 million
ENUMERATE_MAX_CLASSES = 50_000
# q is printed in decimal, and Python turns no int of more digits into a
# string by default
Q_MAX_DIGITS = 4300


class RequestError(Exception):
    pass


class DomainRejection(Exception):
    def __init__(self, payload):
        super().__init__("rejected")
        self.payload = payload


def parse_poly(text):
    try:
        coeffs = [int(t.strip()) for t in text.split(",")]
    except ValueError:
        raise RequestError("malformed polynomial %r" % text)
    if not coeffs:
        raise RequestError("empty polynomial")
    return IntPolynomial(coeffs)


def _context(make, *values):
    try:
        return make(*values)
    except ValueError as e:
        raise RequestError(str(e))


def parse_context(args):
    if args.q is not None and (args.p is not None or args.r is not None):
        raise RequestError("--q and --p/--r are mutually exclusive")
    if args.q is not None:
        return _context(GlobalContext.from_q, args.q)
    if args.p is not None and args.r is not None:
        if args.p >= 2 and args.r >= 1 and _q_too_large(args.p, args.r):
            raise RequestError("q = p^r has more than %d decimal digits" % Q_MAX_DIGITS)
        return _context(GlobalContext, args.p, args.r)
    raise RequestError("specify --q or both --p and --r")


def _q_too_large(p, r):
    """Whether q = p^r, for p >= 2 and r >= 1, has more than Q_MAX_DIGITS
    decimal digits.  q >= 2^(r (bits(p) - 1)), and 2^(4 Q_MAX_DIGITS) is over
    10^Q_MAX_DIGITS; below that exponent q has at most 8 Q_MAX_DIGITS bits
    and is compared exactly."""
    if r * (p.bit_length() - 1) > 4 * Q_MAX_DIGITS:
        return True
    return p ** r >= 10 ** Q_MAX_DIGITS


def _poly_list(poly):
    return list(poly.coeffs)


def _record_payload(rec):
    return rec.as_dict()


def _weil_class_of(text, ctx):
    """The Weil class of one --poly value, or DomainRejection when it is not
    one."""
    poly = parse_poly(text)
    try:
        return validate_weil(poly, ctx)
    except NotWeilError as e:
        raise DomainRejection({"poly": _poly_list(poly), "q": ctx.q, "reason": e.reason})


def _weil_set_of(texts, ctx):
    """The WeilSet of the --poly values, or DomainRejection at the first one
    that is not a Weil class."""
    return weil_set([_weil_class_of(text, ctx) for text in texts])


# -- subcommand implementations ---------------------------------------------


def cmd_validate(args):
    ctx = parse_context(args)
    poly = parse_poly(args.poly)
    try:
        cls = validate_weil(poly, ctx)
    except NotWeilError as e:
        raise DomainRejection(
            {
                "accepted": False,
                "poly": _poly_list(poly),
                "q": ctx.q,
                "reason": e.reason,
            }
        )
    return {
        "accepted": True,
        "poly": _poly_list(poly),
        "q": ctx.q,
        "is_real": cls.is_real,
        "half_degree": cls.half_degree,
        "degree": cls.degree,
    }


def _enumerate_weil(ctx, bound):
    """`enumerate_weil`, capped on the degree bounds 2g it accepts."""
    g = bound // 2
    if 2 <= bound <= 8 and 2 ** (4 * g + 4) * ctx.q ** (g * (g + 1)) > ENUMERATE_MAX_CLASSES ** 4:
        raise RequestError("over %d classes at this q and degree" % ENUMERATE_MAX_CLASSES)
    return enumerate_weil(ctx, bound)


def cmd_enumerate(args):
    ctx = parse_context(args)
    classes = _enumerate_weil(ctx, args.max_degree)
    return {
        "q": ctx.q,
        "max_degree": args.max_degree,
        "count": len(classes),
        "classes": [_poly_list(c.polynomial) for c in classes],
    }


def cmd_invariants(args):
    ctx = parse_context(args)
    cls = _weil_class_of(args.poly, ctx)
    try:
        rec = honda_tate_record(cls)
    except IrregularPlacesError as e:
        raise DomainRejection(
            {
                "poly": _poly_list(cls.polynomial),
                "q": ctx.q,
                "reason": "irregular",
                "detail": str(e),
            }
        )
    return _record_payload(rec)


def cmd_order(args):
    ctx = parse_context(args)
    w = _weil_set_of(args.poly, ctx)
    return build_order(w).as_dict()


def cmd_components(args):
    ctx = parse_context(args)
    w = _weil_set_of(args.poly, ctx)
    comps = connected_components(w)
    return {
        "q": ctx.q,
        "polys": [_poly_list(c.polynomial) for c in w.classes],
        "components": [
            [_poly_list(c.polynomial) for c in comp] for comp in comps
        ],
        "count": len(comps),
    }


def cmd_dieudonne_center(args):
    ctx = parse_context(args)
    w = _weil_set_of(args.poly, ctx)
    precision = args.precision or max(4, 2 * ctx.r + 2)
    alg = build_dieudonne(w, precision)
    try:
        report = verify_center(alg)
    except ValueError as e:  # precision too low for a conclusive center check
        raise RequestError(str(e))
    return {
        "q": ctx.q,
        "polys": [_poly_list(c.polynomial) for c in w.classes],
        "precision": precision,
        "effective_precision": report.effective_precision,
        "passed": report.passed,
        "center_rank": report.rank,
        "zp_rank": alg.zp_rank,
    }


def _r_pi_index(p):
    """[Z[x/p] : R_pi] for pi^2 = -p^2, as [Z[x/p] : Z[F]] / [R_pi : Z[F]]:
    the basis (1, 0), (0, 1/p) of Z[x/p] has determinant 1/p on the power
    basis of Z[F], and `_power_basis_index` is 1 at degree 2."""
    return int(p / _power_basis_index(2, p * p, p * p))


def cmd_example_sec9(args):
    p = args.p
    if p > SEC9_MAX_P:
        raise RequestError("p must be at most %d" % SEC9_MAX_P)
    ctx = _context(GlobalContext, p, 2)
    if p % 4 != 3:
        raise DomainRejection({"p": p, "reason": "p must be 3 mod 4"})
    cls = validate_weil(IntPolynomial((p * p, 0, 1)), ctx)
    rec = honda_tate_record(cls)
    order, center = endomorphism_order(p)
    count, proper = lattice_class_count(p)
    glued = glued_lattice(p, order)
    return {
        "p": p,
        "q": p * p,
        "poly": _poly_list(cls.polynomial),
        "invariants": _record_payload(rec),
        "r_pi_index_in_maximal": _r_pi_index(p),
        "order_index": order.index,
        "order_basis": [list(r) for r in order.basis],
        "order_predicate": order.description,
        "center_rows": [list(r) for r in center],
        "center_index_in_gaussian": center_index_in_gaussian_scalars(center, p),
        "lattice_classes": count,
        "proper_stable_subspaces": [[list(r) for r in rows] for rows in proper],
        "fiber_product": {
            "index": glued.index,
            "witt_colength": glued.witt_colength,
        },
    }


def cmd_gamma_witness(args):
    ctx = parse_context(args)
    w = gamma_witnesses(ctx)
    out = {
        "q": ctx.q,
        "r": ctx.r,
        "divisor": w.divisor,
        "witness_s2": _record_payload(w.index_two_witness),
        "rank_formula_examples": {
            "full": rank_of_hom_lattice(1, ctx),
            "reduced": rank_of_hom_lattice(1, ctx, reduced=True),
        },
    }
    if w.index_r_witness is not None:
        out["witness_sr"] = _record_payload(w.index_r_witness)
    else:
        out["witness_sr"] = None
        out["note"] = w.note
    return out


def _read_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    records = []
    stripped = text.lstrip()
    if stripped.startswith("["):
        data = json.loads(text)
        for idx, entry in enumerate(data):
            records.append((idx + 1, entry.get("q"), entry.get("coefficients")))
        return records
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            q = int(parts[0])
            coeffs = [int(t) for t in parts[1:]]
        except ValueError:
            records.append((lineno, None, None))
            continue
        records.append((lineno, q, coeffs))
    return records


def cmd_ingest(args):
    """Validate the records of a file and diff them with the enumeration.

    With --max-degree the enumeration comes first, and a record it holds is
    taken from it instead of being validated: an enumerated class is a Weil
    class, and `validate_weil` returns a class with the record's own
    polynomial, so only its coefficients, which are equal, reach the
    payload.  The file is read before anything else, so a missing file fails
    first."""
    ctx = parse_context(args)
    records = _read_records(args.path)
    bound = args.max_degree
    known = {} if bound is None else {c.polynomial.coeffs: c for c in _enumerate_weil(ctx, bound)}
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
            poly = IntPolynomial(coeffs)
            cls = known[poly.coeffs] if poly.coeffs in known else validate_weil(poly, ctx)
        except (NotWeilError, ValueError, TypeError) as e:
            reason = e.reason if isinstance(e, NotWeilError) else "malformed"
            rejected.append({"line": lineno, "reason": reason})
            continue
        valid.append(cls)
    if bound is None:
        bound = max((c.degree for c in valid), default=2)
        bound = min(bound + (bound % 2), 8)
        bound = max(bound, 2)
        known = {c.polynomial.coeffs for c in _enumerate_weil(ctx, bound)}
    file_polys = {c.polynomial.coeffs for c in valid}
    unknown = sorted(p for p in file_polys if p not in known)
    missing = sorted(p for p in known if p not in file_polys)
    return {
        "q": ctx.q,
        "degree_bound": bound,
        "records": len(records),
        "valid": len(valid),
        "rejected": rejected,
        "not_in_enumeration": [list(p) for p in unknown],
        "missing_from_file": [list(p) for p in missing],
    }


# -- plumbing -----------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state in it, and building it costs more than most cached requests."""
    parser = argparse.ArgumentParser(
        prog="weilkit",
        description="Exact Weil-number, Honda-Tate and Dieudonne-ring computations.",
        epilog="Polynomials are comma-separated integers, constant term first.",
    )
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument(
        "--verify-cache",
        action="store_true",
        help="recompute on cache hits and fail on byte mismatches",
    )
    parser.add_argument("--output", help="write the JSON document to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ctx(sp):
        sp.add_argument("--q", type=int)
        sp.add_argument("--p", type=int)
        sp.add_argument("--r", type=int)

    sp = sub.add_parser("validate", help="test a polynomial for the Weil property")
    add_ctx(sp)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("enumerate", help="list all classes up to a degree bound")
    add_ctx(sp)
    sp.add_argument("--max-degree", type=int, default=4)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("invariants", help="Honda-Tate record of one class")
    add_ctx(sp)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("order", help="minimal central order of a set of classes")
    add_ctx(sp)
    sp.add_argument("--poly", action="append", required=True)
    sp.set_defaults(func=cmd_order)

    sp = sub.add_parser("components", help="connected components of the spectrum")
    add_ctx(sp)
    sp.add_argument("--poly", action="append", required=True)
    sp.set_defaults(func=cmd_components)

    sp = sub.add_parser(
        "dieudonne-center", help="center verification for the Dieudonne quotient"
    )
    add_ctx(sp)
    sp.add_argument("--poly", action="append", required=True)
    sp.add_argument("--precision", type=int)
    sp.set_defaults(func=cmd_dieudonne_center)

    sp = sub.add_parser(
        "example-sec9",
        help="the fully explicit supersingular elliptic example over F_(p^2)",
    )
    sp.add_argument(
        "--p",
        type=int,
        required=True,
        help="a prime p = 3 mod 4, at most %d (the cost grows as p^2)" % SEC9_MAX_P,
    )
    sp.set_defaults(func=cmd_example_sec9)

    sp = sub.add_parser("gamma-witness", help="index witnesses for the rank divisor")
    add_ctx(sp)
    sp.set_defaults(func=cmd_gamma_witness)

    sp = sub.add_parser("ingest", help="validate and diff an external class list")
    add_ctx(sp)
    sp.add_argument("--path", required=True)
    sp.add_argument("--max-degree", type=int)
    sp.set_defaults(func=cmd_ingest)

    return parser


def _canonical_request(args):
    skip = {"func", "no_cache", "verify_cache", "output"}
    payload = {k: v for k, v in vars(args).items() if k not in skip}
    payload["version"] = __version__
    return json.dumps(payload, sort_keys=True)


def _render(document):
    return json.dumps(document, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = os.environ.get("WEILKIT_CACHE_DIR")
    use_cache = bool(cache_dir) and not args.no_cache
    key = None
    cached_text = None
    if use_cache:
        digest = hashlib.sha256(_canonical_request(args).encode()).hexdigest()
        key = os.path.join(cache_dir, digest + ".json")
        if os.path.exists(key):
            with open(key, "r", encoding="utf-8") as fh:
                cached_text = fh.read()
            if not args.verify_cache:
                _emit(cached_text, args.output)
                return 0 if '"rejected": true' not in cached_text else 2

    try:
        result = args.func(args)
        document = {"schema": SCHEMA, "command": args.command, "rejected": False}
        document.update(result)
        code = 0
    except DomainRejection as e:
        document = {"schema": SCHEMA, "command": args.command, "rejected": True}
        document.update(e.payload)
        code = 2
    except RequestError as e:
        document = {
            "schema": SCHEMA,
            "command": args.command,
            "error": str(e),
        }
        _emit(_render(document), args.output)
        return 1
    text = _render(document)
    if cached_text is not None and args.verify_cache and text != cached_text:
        document = {"schema": SCHEMA, "command": args.command, "error": "cache verification failed"}
        _emit(_render(document), args.output)
        return 1
    if use_cache and cached_text is None:
        # a verified hit already holds these bytes
        _write_cache(cache_dir, key, text)
    _emit(text, args.output)
    return code


def _write_cache(cache_dir, key, text):
    # a temporary name no other live process or thread writes at once
    tmp = "%s.%d.%d.tmp" % (key, os.getpid(), threading.get_ident())
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except FileNotFoundError:
        os.makedirs(cache_dir, exist_ok=True)
        fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, key)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main():
    sys.exit(run())
