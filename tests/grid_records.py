"""Hash the Honda-Tate records of the acceptance grid and time its place routes.

A script, not a test module (pytest collects only `test_*.py`).  Run it from
the root of a checkout:

    PYTHONPATH=src python3 tests/grid_records.py

It enumerates the grid (`enumerate_weil` at q = 2, 3, 4, 9 up to degree 6
and q = 32 up to degree 4; 17,266 classes), builds `honda_tate_record` for
every class and prints:

- the sha256 of the records, each serialized as
  `json.dumps(record.as_dict(), sort_keys=True, default=str)` and
  concatenated in grid order with no separator;
- the hand-over count: classes whose Newton route could not finish and
  went to `padicorders.places_from_order`;
- the wall time of the records of the Newton-route classes and of the
  order-route classes;
- the hits and misses of the three caches on the valuation-digit map: the
  Newton route's memoized first round (`padic._first_round`, keyed with the
  working precision) and its finished regular places
  (`padic._regular_places`, keyed with r), and the finished record of a
  regular class (`hondatate._regular_fields`, keyed with r and is_real);
  the grid has few distinct maps.  The record cache answers first, so
  `_regular_places` is asked once per record-cache miss and once per
  class whose first round is not regular (through `decompose_places`):
  5,042 hits where it had 16,561 when records called `decompose_places`
  for every class.

Expected output at every commit since the one hand-over landed: sha256
e2979414aba4890fc8a20551ef6ed2ad4748d6f9501d90e8947124568d454a46 and 417
hand-overs.  A change to the place pipeline that claims byte-identical
answers must print both unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

from weilkit import hondatate, padic, padicorders
from weilkit.hondatate import honda_tate_record
from weilkit.weil import GlobalContext, enumerate_weil

GRID = ((2, 6), (3, 6), (4, 6), (9, 6), (32, 4))


def main():
    handed_over = []
    original = padicorders.places_from_order

    def counted(*args):
        handed_over.append(args)
        return original(*args)

    # padic imports places_from_order at the hand-over, so the module
    # attribute is the one it calls
    padicorders.places_from_order = counted
    digest = hashlib.sha256()
    times = {"newton": 0.0, "order": 0.0}
    count = 0
    try:
        for q, max_degree in GRID:
            for cls in enumerate_weil(GlobalContext.from_q(q), max_degree):
                before = len(handed_over)
                start = perf_counter()
                record = honda_tate_record(cls)
                elapsed = perf_counter() - start
                times["order" if len(handed_over) > before else "newton"] += elapsed
                line = json.dumps(record.as_dict(), sort_keys=True, default=str)
                digest.update(line.encode())
                count += 1
    finally:
        padicorders.places_from_order = original
    print("classes     %d" % count)
    print("sha256      %s" % digest.hexdigest())
    print("hand-overs  %d" % len(handed_over))
    print("newton_s    %.2f" % times["newton"])
    print("order_s     %.2f" % times["order"])
    caches = ((padic, "_first_round"), (padic, "_regular_places"), (hondatate, "_regular_fields"))
    for module, name in caches:
        info = getattr(module, name).cache_info()
        print("%-16s hits %d misses %d (maxsize %d)" % (name[1:], info.hits, info.misses, info.maxsize))
    return 0


if __name__ == "__main__":
    sys.exit(main())
