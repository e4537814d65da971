"""Child-process tasks of the benchmark; each runs in a fresh interpreter.

  python3 perfbench/worker.py import
      prints the seconds a cold `import toeplitzlab.cli` takes
  python3 perfbench/worker.py verify SPEC
      runs `toeplitzlab verify all --json` in process with every layer
      traced, and prints the per-check and per-layer figures
  python3 perfbench/worker.py kernels SPEC
      times scalar eval, window builds and window file round trips on the
      workload's instances and checks every output.  It works in slices,
      one per "slice SECONDS" line on stdin, until "done".  With "traced"
      set it times the tower and skeleton probes and traces one window
      round instead, reading nothing from stdin

SPEC is a JSON file written by run.py.  The last line of stdout is JSON.
toeplitzlab is imported inside the tasks, so that `import` sees it cold.
"""

import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc

from expected import WINDOWS
from speed import burst, scale, timed
from tracer import J_SET_SPANS, Tracer

clock = time.perf_counter

EVAL_POINTS = 2000      # seeded draws per instance, all of them checked
EVAL_BATCH = 200        # eval calls per instance in one timed batch
EVAL_BATCHES = 1000     # so p99 has ten batches beyond it
EVAL_GROUP = 10         # batches between two bursts
TRACED_BATCHES = 200
PROBE_REPEATS = 5
PROBE_BATCHES = 20
MIN_ROUNDS = 3
UNDEFINED = 255         # the window kernels' code for an undecided cell


class Ledger:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def to_json(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


# -- instances ---------------------------------------------------------------


def load_tower(inst):
    from toeplitzlab import build_tower, preset_config
    from toeplitzlab.tower import TowerConfig

    if inst["preset"]:
        return build_tower(preset_config(inst["preset"]))
    return build_tower(TowerConfig.load(inst["path"]))


def draw(tower, depth, rng):
    """One seeded group element; integer draws span three copies of D_depth,
    so about two thirds of them fall outside it."""
    if tower.kind == "Generic":
        return rng.randrange(tower.size(tower.depth))

    def coord(axis):
        size, lo = axis.size(depth), axis.lo(depth)
        return rng.randrange(lo - size, lo + 2 * size)

    if tower.kind == "IntegerLattice":
        return tuple(coord(ax) for ax in tower.axes)
    return coord(tower)


def expected_values(skeleton, level, points):
    """The value each point must evaluate to, read off the D_level window.

    eval(g) depends on g only through r = reduce(g, depth).  When r lies in
    D_level the window holds it.  Otherwise (level = depth - 1) the cell
    q = reduce(g, level) settles g exactly when its own level is below
    `level`, and g is undefined when it is not.
    """
    from toeplitzlab import materialize_window
    from toeplitzlab.window import window_levels

    T, depth = skeleton.tower, skeleton.depth
    vals = materialize_window(skeleton, level).values_array()
    lvls = window_levels(skeleton, level)
    out = []
    for g in points:
        r = T.reduce(g, depth)
        if T.in_domain(r, level):
            out.append(int(vals[T.index_of(r, level)]))
            continue
        i = T.index_of(T.reduce(g, level), level)
        out.append(int(vals[i]) if 0 <= lvls[i] < level else UNDEFINED)
    return out


class Loaded:
    """A workload instance loaded in this process: tower, draws, reference."""

    def __init__(self, spec, rng):
        from toeplitzlab import build_skeleton

        self.spec = spec
        self.name = spec["name"]
        self.depth = spec["depth"]
        self.level = spec["window"]
        self.csv = spec["csv"]
        self.tower = load_tower(spec)
        self.points = [draw(self.tower, self.depth, rng)
                       for _ in range(EVAL_POINTS)]
        self.pinned = WINDOWS[spec["pinned"]]
        self.reference = None
        if spec["pinned"] != spec["name"]:
            # a relabelled copy: its window must equal the original's
            from toeplitzlab import IntegerLineTower, materialize_window
            from instances import LINE_REFERENCE

            line = IntegerLineTower(LINE_REFERENCE["indices"])
            self.reference = materialize_window(
                build_skeleton(line, self.depth), self.level)

    def skeleton(self):
        from toeplitzlab import build_skeleton

        return build_skeleton(self.tower, self.depth)


# -- the kernel operations ----------------------------------------------------


class EvalBatches:
    """Per-call eval cost in ns, one sample per batch of EVAL_BATCH calls on
    every instance, each batch on the next slice of the draws; groups of
    EVAL_GROUP batches lie between two bursts, which give the group's
    samples at the reference speed."""

    def __init__(self, insts):
        self.pairs = [(inst.skeleton(), inst.points) for inst in insts]
        self.samples = []
        self.ref_samples = []

    def run(self, until):
        calls = EVAL_BATCH * len(self.pairs)
        while len(self.samples) < until:
            group = []
            b0 = burst()
            while (len(group) < EVAL_GROUP
                   and len(self.samples) + len(group) < until):
                lo = (len(self.samples) + len(group)) * EVAL_BATCH \
                    % EVAL_POINTS
                t0 = clock()
                for sk, pts in self.pairs:
                    ev = sk.eval
                    for g in pts[lo:lo + EVAL_BATCH]:
                        ev(g)
                group.append((clock() - t0) / calls * 1e9)
            factor = scale((b0, burst()))
            self.samples += group
            self.ref_samples += [ns * factor for ns in group]
        return self.samples


def check_eval(insts, ledger):
    from toeplitzlab import Undefined

    for inst in insts:
        sk = inst.skeleton()
        want = expected_values(sk, inst.level, inst.points)
        got = [UNDEFINED if v is Undefined else int(v)
               for v in map(sk.eval, inst.points)]
        bad = [g for g, a, b in zip(inst.points, got, want) if a != b]
        ledger.check(not bad, f"{inst.name}: eval disagrees with the "
                              f"window at {bad[:3]}")


def kernel_round(insts, workdir, ledger):
    """One round over every instance; its window, density and io times,
    in wall and reference seconds."""
    times = dict.fromkeys(("window_s", "window_ref_s", "density_s",
                           "density_ref_s", "window_io_s",
                           "window_io_ref_s"), 0.0)
    for inst in insts:
        instance_round(inst, workdir, ledger, times)
    return times


def instance_round(inst, workdir, ledger, times):
    """Build the largest window on a fresh skeleton, compare density routes
    and round-trip windows through bits and csv files; add the three times
    to `times` and check every output."""
    # through the modules, so that a traced round sees these calls
    from toeplitzlab import density, window

    def add(name, fn):
        out, seconds, ref_seconds = timed(fn)
        times[name] += seconds
        times[name[:-2] + "_ref_s"] += ref_seconds
        return out

    sk = inst.skeleton()
    w = add("window_s", lambda: window.materialize_window(sk, inst.level))
    counts = w.counts()
    level, zeros, ones, undefined = inst.pinned
    ledger.check(
        (w.level, counts["zeros"], counts["ones"], counts["undefined"])
        == (level, zeros, ones, undefined),
        f"{inst.name}: window counts {counts} != pinned {inst.pinned}")
    if inst.reference is not None:
        ledger.check(w == inst.reference,
                     f"{inst.name}: window differs from the line tower's")

    routes = add("density_s",
                 lambda: density.density_methods(sk, inst.level))
    ledger.check(set(routes) == {"product", "recursion", "enumeration"}
                 and len(set(routes.values())) == 1,
                 f"{inst.name}: density routes disagree: {routes}")

    small = (w if inst.csv == inst.level
             else window.materialize_window(sk, inst.csv))
    bits = os.path.join(workdir, f"{inst.name}.bits")
    csv = os.path.join(workdir, f"{inst.name}.csv")

    def round_trips():
        w.to_bits(bits)
        back = window.SymbolWindow.from_bits(bits)
        small.to_csv(inst.tower, csv)
        return back, window.SymbolWindow.from_csv(inst.tower, csv)

    back, back_csv = add("window_io_s", round_trips)
    ledger.check(back == w, f"{inst.name}: bits round trip differs")
    ledger.check(back_csv == small, f"{inst.name}: csv round trip differs")


def window_peak_mib(inst):
    from toeplitzlab import materialize_window

    sk = inst.skeleton()
    tracemalloc.start()
    try:
        materialize_window(sk, inst.level)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_call_ns(fn, args, batches):
    """Median per-call ns of fn(*a) over `args`, in `batches` passes."""
    out = []
    for _ in range(batches):
        t0 = clock()
        for a in args:
            fn(*a)
        out.append((clock() - t0) / len(args) * 1e9)
    return statistics.median(out)


def probes(insts, rng):
    """Tower and skeleton set-up and op throughput, summed over instances
    (times) or pooled (per-call costs)."""
    from toeplitzlab import build_skeleton

    tower_s = skel_s = reduce_ns = in_domain_ns = 0.0
    for inst in insts:
        build = []
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            load_tower(inst.spec)
            build.append(clock() - t0)
        tower_s += statistics.median(build)
        build = []
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            build_skeleton(inst.tower, inst.depth)
            build.append(clock() - t0)
        skel_s += statistics.median(build)
        T = inst.tower
        ops = [(g, rng.randrange(inst.depth + 1)) for g in inst.points]
        reduce_ns += per_call_ns(T.reduce, ops, PROBE_BATCHES)
        in_domain_ns += per_call_ns(T.in_domain, ops, PROBE_BATCHES)
    n = len(insts)
    return {"tower.build_s": tower_s, "skeleton.build_s": skel_s,
            "tower.reduce_ns": reduce_ns / n,
            "tower.in_domain_ns": in_domain_ns / n}


# -- tasks ------------------------------------------------------------------


def task_import(_spec):
    t0 = clock()
    import toeplitzlab.cli  # noqa: F401
    return {"import_s": clock() - t0}


def task_verify(spec):
    tracer = Tracer()
    with tracer:
        from toeplitzlab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "all", "--json", *spec["args"]])
    j_set_s, j_cells = tracer.totals(J_SET_SPANS)
    return {"exit": code, "report": json.loads(out.getvalue()),
            "checks": tracer.checks(), "self_s": tracer.self_seconds(),
            "validate_s": tracer.totals(("tower.validate_tower",))[0],
            "j_set_s": j_set_s, "j_cells": j_cells, "spans": tracer.table()}


def measure_slices(insts, spec, ledger, out):
    """Serve "slice SECONDS" lines from stdin until "done".

    Each slice runs kernel rounds for that long, with the eval batches paced
    over the planned kernel time (spec["seconds"]), so that the samples of a
    run are spread between its verify ops instead of bunched in one stretch.
    """
    evals = EvalBatches(insts)
    rounds = out["rounds"] = []
    used = 0.0
    for line in sys.stdin:
        cmd, *arg = line.split()
        if cmd == "done":
            break
        t0 = clock()
        stop = t0 + float(arg[0])
        while True:
            rounds.append(kernel_round(insts, spec["workdir"], ledger))
            share = min(1.0, (used + clock() - t0) / spec["seconds"])
            evals.run(int(EVAL_BATCHES * share))
            if clock() >= stop:
                break
        used += clock() - t0
        print("ok", flush=True)
    while len(rounds) < MIN_ROUNDS:
        rounds.append(kernel_round(insts, spec["workdir"], ledger))
    out["eval_ns"] = evals.run(EVAL_BATCHES)
    out["eval_ref_ns"] = evals.ref_samples


def task_kernels(spec):
    import numpy

    rng = random.Random(spec["seed"])
    ledger = Ledger()
    insts = [Loaded(s, rng) for s in spec["instances"]]
    check_eval(insts, ledger)
    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    if spec["traced"]:
        out["eval_ns"] = EvalBatches(insts).run(TRACED_BATCHES)
        out["probes"] = probes(insts, rng)
        tracer = Tracer()
        with tracer:
            kernel_round(insts, spec["workdir"], ledger)
        values_s, values_cells = tracer.totals(("window.window_values",))
        levels_s, levels_cells = tracer.totals(("window.window_levels",))
        out["window"] = {"values_s": values_s, "levels_s": levels_s,
                         "cells": values_cells + levels_cells}
        out["self_s"] = tracer.self_seconds()
        out["spans"] = tracer.table()
    else:
        measure_slices(insts, spec, ledger, out)
        out["window_peak_mib"] = max(window_peak_mib(i) for i in insts)
    out.update(ledger.to_json())
    return out


TASKS = {"import": task_import, "verify": task_verify,
         "kernels": task_kernels}


def main(argv):
    spec = None
    if len(argv) > 2:
        with open(argv[2], encoding="utf-8") as fh:
            spec = json.load(fh)
    print(json.dumps(TASKS[argv[1]](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
