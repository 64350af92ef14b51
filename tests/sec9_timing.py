"""Time the stages of example-sec9 and count the stable-lattice work.

A script, not a test module (pytest collects only `test_*.py`).  Run it from
the root of a checkout:

    PYTHONPATH=src python3 tests/sec9_timing.py [P ...]

For each prime p (default 3, 7, 11, 43 and 127) it prints the best time,
over a few repetitions, of the four stages of `cli.cmd_example_sec9`:

- order: `dieudonne_matrix_order(p)`, the congruence order with its
  verified closure;
- center: `_center_lattice` on that order;
- lattices: `lattice_class_count(p)`, the stable-lattice enumeration;
- fiber: `glued_lattice(p, order)`, the fiber product and its cross-check;

then the enumeration once more with the pairing of `_cyclic_rows` switched
off (unpaired_ms), and the work of one enumeration: the cyclic closures it
runs and the generator products they take (one per image of a row under a
generator), with and without the pairing, and whether the closure pairs
rows with a square root of -1.  The counts come from untimed runs.  The
pairing is worth keeping only while lattices_ms stays at or below
unpaired_ms at p = 3; the stages run one after another, so compare them
over a few runs.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

from weilkit import supersingular
from weilkit.supersingular import (
    _center_lattice,
    dieudonne_matrix_order,
    glued_lattice,
    lattice_class_count,
    standard_module_action,
)

PRIMES = (3, 7, 11, 43, 127)


def best_ms(fn, budget=0.5, most=200):
    """The best of repeated calls, about `budget` seconds of them."""
    best, spent, n = float("inf"), 0.0, 0
    while n < 3 or (spent < budget and n < most):
        start = perf_counter()
        fn()
        took = perf_counter() - start
        best, spent, n = min(best, took), spent + took, n + 1
    return best * 1e3


class CountedMatrix(tuple):
    """A generator matrix that counts how often it is read row by row: a
    closure reads a generator once per image it takes."""

    reads = 0

    def __iter__(self):
        CountedMatrix.reads += 1
        return super().__iter__()


@contextmanager
def unpaired():
    """The closure with the pairing of `_cyclic_rows` switched off."""
    original = supersingular._paired_generator
    supersingular._paired_generator = lambda action: None
    try:
        yield
    finally:
        supersingular._paired_generator = original


def work(p):
    """(closures, generator products) of one enumeration."""
    original = supersingular._cyclic_rows
    closures = 0

    def counted(v, p, n, pair, others):
        nonlocal closures
        closures += 1
        pair = None if pair is None else CountedMatrix(pair)
        return original(v, p, n, pair, [CountedMatrix(g) for g in others])

    CountedMatrix.reads = 0
    supersingular._cyclic_rows = counted
    try:
        supersingular.enumerate_stable_lattices(standard_module_action(p))
    finally:
        supersingular._cyclic_rows = original
    return closures, CountedMatrix.reads


def main(primes):
    print("%5s %9s %9s %11s %9s %11s %9s %9s %9s %7s" % (
        "p", "order_ms", "center_ms", "lattices_ms", "fiber_ms", "unpaired_ms",
        "closures", "products", "unpaired", "paired"))
    for p in primes:
        order = dieudonne_matrix_order(p)
        times = [
            best_ms(lambda: dieudonne_matrix_order(p)),
            best_ms(lambda: _center_lattice(order)),
            best_ms(lambda: lattice_class_count(p)),
            best_ms(lambda: glued_lattice(p, order)),
        ]
        closures, products = work(p)
        with unpaired():
            times.append(best_ms(lambda: lattice_class_count(p)))
            _, unpaired_products = work(p)
        paired = supersingular._paired_generator(standard_module_action(p)) is not None
        print("%5d %9.3f %9.3f %11.3f %9.3f %11.3f %9d %9d %9d %7s" % (
            p, *times, closures, products, unpaired_products, paired))


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or PRIMES)
