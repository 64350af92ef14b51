"""weilkit benchmark: one workload per run, closed loop, one process, one thread.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; weilkit is imported from its `src/`.  A run
sets up (fresh import of weilkit plus the workload's inputs), runs one
untimed round whose outputs are checked, then times whole rounds until
--seconds have passed and at least the workload's minimum number of rounds
is done.  With --trace 0 the timed rounds come in four equal parts with a
set-up after each, and setup_s is the median of the five set-ups; the last
line of stdout is one JSON object with the end-to-end metrics.  With
--trace 1 untraced and traced rounds take turns, and the object holds the
per-layer metrics and the tracing overhead.  The exit code is 0 when every
check passed, 1 when one failed and 2 when weilkit cannot be imported from
the checkout.  Results and spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = (
    "intpoly", "intmatrix", "gfpoly", "hensel", "zfactor", "padic", "padicorders",
    "weil", "hondatate", "central_orders", "dieudonne", "supersingular", "cli",
)
# set-ups in an untraced run: one before the timed rounds and one after each
# of SETUPS - 1 equal parts of them, so that set-up is sampled across the
# run, as the operations are, and not only in the machine's state at its start
SETUPS = 5


class MissingProgram(Exception):
    pass


class Weilkit:
    """The freshly imported weilkit modules, by short name."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "weilkit" or n.startswith("weilkit.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        try:
            for name in MODULES:
                setattr(self, name, importlib.import_module("weilkit." + name))
        except ImportError as e:
            raise MissingProgram("cannot import weilkit: %s" % e)
        where = Path(sys.modules["weilkit"].__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise MissingProgram("weilkit imported from %s, not from %s" % (where, SRC))
        self.modules = {n: m for n, m in sys.modules.items() if n == "weilkit" or n.startswith("weilkit.")}

    def restore(self):
        """Make these modules the ones `import weilkit...` finds again, as a
        later Weilkit() replaces them; functions that import inside their
        bodies then keep meeting the modules their workload was built on."""
        for name in [n for n in sys.modules if n == "weilkit" or n.startswith("weilkit.")]:
            del sys.modules[name]
        sys.modules.update(self.modules)


def calibrate():
    """Best of ten runs of a fixed pure-Python integer loop, in ms.  It does
    not touch weilkit, so when it moves between two runs the machine's speed
    moved, not the program's; run_one prints it to stderr before set-up and
    after the timed rounds."""
    best = float("inf")
    for _ in range(10):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, perf_counter() - t0)
    return best * 1e3


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Round:
    def __init__(self, workload, keep_outputs):
        ops = workload.ops()
        workload.begin_round()
        self.times = []  # (kind, seconds, failed)
        self.outputs = [] if keep_outputs else None
        for kind, fn in ops:
            t0 = perf_counter()
            try:
                out = fn()
                t1 = perf_counter()
                bad = workload.failed(kind, out)
            except Exception as e:  # the operation failed; count it and go on
                t1 = perf_counter()
                out, bad = e, True
            self.times.append((kind, t1 - t0, bad))
            if keep_outputs:
                self.outputs.append(out)
        self.extra = workload.end_round()

    @property
    def failed(self):
        return sum(1 for _k, _t, bad in self.times if bad)


def run_rounds(workload, until, min_rounds):
    rounds = []
    while len(rounds) < min_rounds or perf_counter() < until:
        rounds.append(Round(workload, keep_outputs=False))
    return rounds


def run_traced(workload, until, tracer):
    """Untraced and traced rounds in turn, so that both see the same states
    of the machine and their ratio is the tracing overhead alone."""
    untraced, traced, spans = [], [], []
    while not traced or perf_counter() < until:
        untraced.append(Round(workload, keep_outputs=False))
        tracer.install()
        try:
            traced.append(Round(workload, keep_outputs=False))
        finally:
            tracer.remove()
        spans.append(tracer.take())
    return untraced, traced, spans


def best_times(rounds):
    """Each operation's fastest time over the rounds, as (kind, seconds,
    failed) in round order.  The machine's speed drifts by tens of percent
    over seconds to minutes when it is shared; contention only ever adds
    time, so the fastest of an operation's runs is its steadiest measure."""
    best = {}
    for r in rounds:
        for kind, t, _bad in r.times:
            best[kind] = min(best.get(kind, t), t)
    return [(kind, best[kind], bad) for kind, _t, bad in rounds[0].times]


def tail_quantile(workload, ops):
    """The quantile that lands exactly on the operation with
    `tail_beyond` successful operations above it."""
    ok = sum(1 for _k, _t, bad in ops if not bad)
    return 1 - workload.tail_beyond / (ok - 1)


def end_to_end(rounds, workload, setup_s, peak_rss_mb):
    ops = best_times(rounds)
    ok = [t for _k, t, bad in ops if not bad]
    return {
        "setup_s": (setup_s, "s"),
        # a round at every operation's best time, failed ones included
        "ops_per_s": (len(ok) / sum(t for _k, t, _bad in ops), "1/s"),
        "latency_p50_ms": (quantile(ok, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (quantile(ok, tail_quantile(workload, ops)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(untraced, traced, spans):
    import tracing

    by_round = [tracing.layer_metrics(s) for s in spans]
    out = {}
    for name, (value, unit) in by_round[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in by_round)
        out[name] = (value, unit)
    # the cli layer is timed by the benchmark itself, around cli.run
    plain = best_times(untraced)
    for mode in ("hit", "miss", "verify"):
        lat = [t for k, t, bad in plain if not bad and k.startswith(mode + "|")]
        out["cli.%s_ms" % mode] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    out["cli.cache_files"] = (untraced[0].extra.get("cache_files", 0), "count")
    out["trace.overhead_ratio"] = (
        sum(t for _k, t, _b in best_times(traced)) / sum(t for _k, t, _b in plain),
        "ratio",
    )
    return out


def run_one(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []

    def set_up():
        t0 = perf_counter()
        built = cls(Weilkit(), args.seed, str(workdir))
        setups.append(perf_counter() - t0)
        return built

    try:
        calibration = [calibrate()]
        workload = set_up()
        print("%s: %d operations a round" % (args.workload, len(workload.ops())), file=sys.stderr)
        first = Round(workload, keep_outputs=True)  # untimed; its outputs are checked
        start = perf_counter()
        traced, spans = [], []
        if args.trace:
            import tracing

            untraced, traced, spans = run_traced(workload, start + args.seconds, tracing.Tracer())
        else:
            untraced = []
            parts = SETUPS - 1
            for part in range(parts):
                untraced += run_rounds(workload, start + args.seconds * (part + 1) / parts,
                                       -(-cls.min_rounds // parts))
                set_up()
                workload.wk.restore()
                gc.collect()  # free the discarded set-up now, not whenever gc would
            print("%s: set-up %s s" % (args.workload, ", ".join("%.3f" % s for s in setups)), file=sys.stderr)
        setup_s = statistics.median(setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration.append(calibrate())
        rounds = untraced + traced
        metrics = (per_layer(untraced, traced, spans) if args.trace
                   else end_to_end(untraced, workload, setup_s, peak_rss_mb))
        try:
            problems = workload.check(first.outputs)
        except Exception:  # a check that crashes is a failed check
            problems = ["check raised:\n" + traceback.format_exc()]
        for msg in problems[:20]:
            print("CHECK FAILED: %s" % msg, file=sys.stderr)
        lat_count = sum(len(r.times) - r.failed for r in untraced)
        print("%s: %d timed rounds, %d timed operations, tail percentile %.4g, first-round failures %d" % (
            args.workload, len(rounds), lat_count, 100 * tail_quantile(workload, first.times),
            first.failed), file=sys.stderr)
        print("%s: calibration loop %.2f ms before set-up, %.2f ms after the timed rounds" % (
            args.workload, *calibration), file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": sum(len(r.times) for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        (OUT / ("result-%s.json" % stem)).write_text(json.dumps(result, indent=1) + "\n")
        if spans:
            t_base = spans[0][0][1] if spans[0] else 0.0
            doc = [[n, s - t_base, e - t_base, parent] for n, s, e, parent, _note in spans[0]]
            (OUT / ("trace-%s.json" % stem)).write_text(json.dumps({"round": 0, "spans": doc}) + "\n")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Every workload in its own interpreter, one after another."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            raise MissingProgram("workload %s did not run" % name)
        result = json.loads(lines[-1])
        print("%s %s" % (name, json.dumps(result)))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, metric)] = entry
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["enumerate", "invariants", "structures", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weilkit" / "__init__.py").is_file():
        print("no weilkit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except MissingProgram as e:
        print(str(e), file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
