"""In-memory spans around weilkit's public functions, from outside the library.

weilkit modules import one another's functions by name (`from .padic import
decompose_places`), so wrapping a function means replacing every module
attribute that refers to it, in the defining module and in each importing
one.  `Tracer.install` does that and `Tracer.remove` puts the originals
back.  A span is (name, start, end, parent, note); `note` keeps the one fact
about the result that a ratio needs (a truth value or a length).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name, note taken from the result)
TARGETS = (
    ("weil", "enumerate_weil", "weil.enumerate_weil", len),
    ("zfactor", "is_irreducible", "zfactor.is_irreducible", bool),
    ("intpoly", "is_squarefree", "intpoly.is_squarefree", None),
    ("gfpoly", "factor", "gfpoly.factor", None),
    ("hensel", "lift_factorization", "hensel.lift_factorization", None),
    ("padic", "decompose_places", "padic.decompose_places", None),
    ("padicorders", "places_from_order", "padicorders.places_from_order", None),
    ("hondatate", "honda_tate_record", "hondatate.honda_tate_record", None),
    ("central_orders", "build_order", "central_orders.build_order", None),
    ("central_orders", "connected_components", "central_orders.connected_components", None),
    ("intmatrix", "smith_normal_form", "intmatrix.smith_normal_form", None),
    ("intmatrix", "hermite_normal_form", "intmatrix.hermite_normal_form", None),
    ("intmatrix", "zpk_smith", "intmatrix.zpk_smith", None),
    ("intmatrix", "rref_mod_p", "intmatrix.rref_mod_p", None),
    ("dieudonne", "build_dieudonne", "dieudonne.build_dieudonne", None),
    ("dieudonne", "verify_center", "dieudonne.verify_center", None),
    ("supersingular", "enumerate_stable_lattices", "supersingular.enumerate_stable_lattices", None),
    ("supersingular", "endomorphism_order", "supersingular.endomorphism_order", None),
    ("supersingular", "glued_lattice", "supersingular.glued_lattice", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                noted = note(result) if note is not None and result is not None else None
                spans[idx] = (name, start, end, parent, noted)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "weilkit" or key.startswith("weilkit."))
        ]
        for mod_name, fn_name, span_name, note in TARGETS:
            original = getattr(sys.modules["weilkit." + mod_name], fn_name)
            wrapper = self._wrap(span_name, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = [s for s in self.spans if s is not None]
        self.spans.clear()
        return spans


def summarize(spans):
    """Per span name: calls, total seconds (outermost spans of that name
    only, so recursion is not counted twice), self seconds (duration minus
    the time covered by direct children), and the notes."""
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "notes": []})
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, note) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time[idx]
        entry["notes"].append(note)
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            entry["total"] += end - start
    return out


def time_under(spans, name, ancestor_name):
    """Seconds spent in spans called `name` that run inside `ancestor_name`."""
    total = 0.0
    for sname, start, end, parent, _note in spans:
        if sname != name:
            continue
        ancestor = parent
        while ancestor >= 0:
            if spans[ancestor][0] == ancestor_name:
                total += end - start
                break
            ancestor = spans[ancestor][3]
    return total


def layer_metrics(spans):
    """The per-layer metrics of one traced round, zero for a layer the
    workload does not reach."""
    s = summarize(spans)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def total(name):
        return s[name]["total"] if name in s else 0.0

    def self_time(name):
        return s[name]["self"] if name in s else 0.0

    def notes(name):
        return [n for n in s[name]["notes"] if n is not None] if name in s else []

    irreducible = notes("zfactor.is_irreducible")
    classes = notes("weil.enumerate_weil")
    decompose = calls("padic.decompose_places")
    fallback_inside = time_under(spans, "padicorders.places_from_order", "padic.decompose_places")
    return {
        "weil.enumerate_self_s": (self_time("weil.enumerate_weil"), "s"),
        "weil.classes": (sum(classes), "count"),
        "zfactor.is_irreducible_calls": (calls("zfactor.is_irreducible"), "count"),
        "zfactor.is_irreducible_s": (total("zfactor.is_irreducible"), "s"),
        "zfactor.kept_ratio": (sum(irreducible) / len(irreducible) if irreducible else 0.0, "ratio"),
        "intpoly.is_squarefree_calls": (calls("intpoly.is_squarefree"), "count"),
        "intpoly.is_squarefree_s": (total("intpoly.is_squarefree"), "s"),
        "gfpoly.factor_calls": (calls("gfpoly.factor"), "count"),
        "gfpoly.factor_s": (total("gfpoly.factor"), "s"),
        "hensel.lift_factorization_calls": (calls("hensel.lift_factorization"), "count"),
        "hensel.lift_factorization_s": (total("hensel.lift_factorization"), "s"),
        "padic.decompose_places_calls": (decompose, "count"),
        "padic.decompose_places_s": (total("padic.decompose_places"), "s"),
        "padic.newton_route_s": (total("padic.decompose_places") - fallback_inside, "s"),
        "padicorders.fallback_calls": (calls("padicorders.places_from_order"), "count"),
        "padicorders.fallback_s": (total("padicorders.places_from_order"), "s"),
        "padicorders.fallback_ratio": (
            calls("padicorders.places_from_order") / decompose if decompose else 0.0,
            "ratio",
        ),
        "hondatate.record_self_s": (self_time("hondatate.honda_tate_record"), "s"),
        "central_orders.build_order_calls": (calls("central_orders.build_order"), "count"),
        "central_orders.build_order_s": (total("central_orders.build_order"), "s"),
        "central_orders.connected_components_s": (total("central_orders.connected_components"), "s"),
        "intmatrix.smith_normal_form_s": (total("intmatrix.smith_normal_form"), "s"),
        "intmatrix.hermite_normal_form_s": (total("intmatrix.hermite_normal_form"), "s"),
        "intmatrix.zpk_smith_s": (total("intmatrix.zpk_smith"), "s"),
        "intmatrix.rref_mod_p_calls": (calls("intmatrix.rref_mod_p"), "count"),
        "dieudonne.build_s": (total("dieudonne.build_dieudonne"), "s"),
        "dieudonne.verify_center_s": (total("dieudonne.verify_center"), "s"),
        "supersingular.enumerate_stable_lattices_s": (total("supersingular.enumerate_stable_lattices"), "s"),
        "supersingular.endomorphism_order_s": (total("supersingular.endomorphism_order"), "s"),
        "supersingular.glued_lattice_s": (total("supersingular.glued_lattice"), "s"),
    }
