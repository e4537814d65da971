"""The toeplitzlab benchmark: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload small --seed 1 --seconds 50 --trace 0

Run it from the repository root; it imports toeplitzlab from ./src.  A run
is a closed loop with one client: every toeplitzlab invocation is a fresh
subprocess, started only after the previous one ended, so a run uses one
core.  Phases:

  cycles   a kernel slice, then for each instance a set-up sample (cold
           `toeplitzlab eta build --json`) and a verify op (`toeplitzlab
           verify all --json`, verdicts checked against expected.py); a
           cycle starts only if it should end within --seconds; each
           CLI child is timed with the speed of the CPU it runs on, and
           its time is also given at a fixed reference speed
  kernels  one worker process, fed the slices: the largest window,
           density routes and window file round trips in rounds, with
           seeded scalar eval batches paced across the slices

With --trace 1 the run records the per-layer figures instead (see
worker.py and tracer.py).  Every figure printed is measured by this
benchmark's own clock, never read from the program's output.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from expected import STEPS, VERDICTS
from instances import WORKLOADS, workload_instances
from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOEPLITZLAB = [sys.executable, "-m", "toeplitzlab"]
WORKER = [sys.executable, str(HERE / "worker.py")]

# the CLI copies its budget flags into these, so they must not leak in
BUDGET_VARS = ("TOEPLITZLAB_ENUM_BUDGET", "TOEPLITZLAB_WINDOW_BUDGET")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
KERNEL_SHARE = 0.15     # of a measured run's time, in kernel slices
RUN_LIMIT_S = 170       # every child is killed past this point of the run
CHECKS = [name for name, _, _ in VERDICTS["threeadic"]["checks"][1:]]
# end-to-end metric: (sample set, statistic per instance, how instances
# combine, unit).  Every time is taken at the reference speed (speed.py):
# a run is pinned to one CPU, and a CLI child's time is scaled by bursts
# this process times on that CPU while the child runs.
END_TO_END = {
    "setup_s": ("setup_ref_s", statistics.median, sum, "s"),
    "verify_all_ref_s": ("verify_all_ref_s", statistics.median, sum, "s"),
    "verify_peak_rss_mib": ("verify_peak_rss_mib", statistics.median, max,
                            "MiB"),
    "eval_ref_ns": ("eval_ref_ns", statistics.median, sum, "ns"),
    "window_ref_s": ("window_ref_s", statistics.median, sum, "s"),
    "window_io_ref_s": ("window_io_ref_s", statistics.median, sum, "s"),
}
clock = time.perf_counter


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in BUDGET_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """A finished subprocess: wall seconds, the same at the reference
    speed, peak RSS, exit code, output."""

    def __init__(self, seconds, ref_seconds, peak_mib, code, stdout,
                 stderr):
        self.seconds = seconds
        self.ref_seconds = ref_seconds
        self.peak_mib = peak_mib
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


class Run:
    """State of one benchmark run: work directory, deadline, tallies."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.deadline = clock() + RUN_LIMIT_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.scope_changed = 0
        self._n = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def child(self, argv):
        """Run argv to completion; wait4 gives this child's own peak RSS."""
        self._n += 1
        out = os.path.join(self.workdir, f"{self._n}.out")
        err = os.path.join(self.workdir, f"{self._n}.err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = clock()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                    env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.daemon = True
            timer.start()
            sampler = SpeedSampler()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = clock() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                scale = sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out, encoding="utf-8") as fo, \
                open(err, encoding="utf-8") as fe:
            return Child(seconds, seconds * scale, usage.ru_maxrss / 1024,
                         proc.returncode, fo.read(), fe.read())

    def worker(self, task, spec=None):
        """Run a worker task; its result, or None after counting a failure."""
        argv = WORKER + [task]
        if spec is not None:
            path = os.path.join(self.workdir, f"{task}-spec.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            argv.append(path)
        c = self.child(argv)
        return c, self.take(c.code, c.stdout, c.stderr, task)

    def take(self, code, stdout, stderr, task):
        """A worker's result: its last stdout line, with its own tally
        added to this run's; None after counting a failure."""
        lines = stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if code == 0 and lines else None
        except json.JSONDecodeError:
            res = None
        self.check(res is not None,
                   f"worker {task} exit {code}: {stderr[-400:]}")
        if res is not None and "attempted" in res:
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            self.errors += res["errors"]
        return res

    # -- output checks ---------------------------------------------------

    def check_build(self, c, inst):
        want = STEPS[inst.pinned]
        if inst.labels is not None:
            want = [h if h == "zero" else str(inst.labels[int(h)])
                    for h in want]
        try:
            got = [s["h"] if s["kind"] == "plant" else "zero"
                   for s in json.loads(c.stdout)["steps"]]
        except (json.JSONDecodeError, KeyError, TypeError):
            got = None
        self.check(c.code == 0 and got == want,
                   f"eta build {inst.name}: exit {c.code}, steps {got}")

    def check_report(self, code, report, inst):
        """Exit code and every status must match the pinned table; changed
        scopes are counted, not failed."""
        pinned = VERDICTS[inst.pinned]
        try:
            got = [(r["name"], r["status"], r["scope"])
                   for r in report["results"]]
        except (KeyError, TypeError):
            got = []
        want = pinned["checks"]
        self.check(code == pinned["exit"]
                   and [g[:2] for g in got] == [w[:2] for w in want],
                   f"verify {inst.name}: exit {code}, statuses "
                   f"{[g[:2] for g in got if g[:2] not in [w[:2] for w in want]]}")
        self.scope_changed += sum(g[2] != w[2] for g, w in zip(got, want))

    def setup(self, inst):
        """One cold `eta build` of the instance."""
        c = self.child(TOEPLITZLAB + ["eta", "build", "--json", *inst.args])
        self.check_build(c, inst)
        return c

    def verify_cli(self, inst):
        c = self.child(TOEPLITZLAB + ["verify", "all", "--json", *inst.args])
        try:
            report = json.loads(c.stdout)
        except json.JSONDecodeError:
            report = None
        self.check_report(c.code, report, inst)
        return c


# -- statistics --------------------------------------------------------------


def tail(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(samples, unit):
    t = tail(samples)
    tail_txt = (f"p{t[0]:g} {t[1]:.6g} {unit}" if t
                else "no percentile with ten samples beyond it")
    return (f"{len(samples)} samples: min {min(samples):.6g}, median "
            f"{statistics.median(samples):.6g}, {tail_txt}")


# -- the two kinds of run ----------------------------------------------------


class KernelSlices:
    """The kernels worker of a measured run, fed one time slice at a time
    between the verify ops; it sleeps on its stdin in between."""

    def __init__(self, run, insts, seed, seconds):
        spec = os.path.join(run.workdir, "kernels-spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"instances": [i.to_json() for i in insts],
                       "seed": seed, "seconds": seconds,
                       "workdir": run.workdir, "traced": False}, fh)
        self.run = run
        self.err = open(os.path.join(run.workdir, "kernels.err"), "w+",
                        encoding="utf-8")
        self.proc = subprocess.Popen(
            WORKER + ["kernels", spec], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT, env=run.env,
            text=True)
        self.timer = threading.Timer(max(1.0, run.deadline - clock()),
                                     self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def slice(self, seconds):
        try:
            self.proc.stdin.write(f"slice {seconds}\n")
            self.proc.stdin.flush()
            return self.proc.stdout.readline().strip() == "ok"
        except OSError:
            return False

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.timer.cancel()

    def finish(self):
        """Stop the worker; its result, or None after counting a failure."""
        try:
            out, _ = self.proc.communicate("done\n")
        except OSError:
            out = ""
            self.proc.wait()
        self.timer.cancel()
        self.err.seek(0)
        return self.run.take(self.proc.returncode, out, self.err.read(),
                             "kernels")


CLI_SAMPLES = ("setup_s", "setup_ref_s", "verify_all_s", "verify_all_ref_s",
               "verify_peak_rss_mib")


def add_setup(samples, c):
    samples["setup_s"].append(c.seconds)
    samples["setup_ref_s"].append(c.ref_seconds)


def measured_run(run, insts, seed, seconds):
    """Cycles of a kernel slice, then a set-up sample and a verify op on
    each instance, so that every sample set spans the run.  A cycle starts
    only if it and the closing slice should end within `seconds`; the
    closing slice takes what is left of them."""
    kernels = KernelSlices(run, insts, seed, KERNEL_SHARE * seconds)
    cli = {i.name: {name: [] for name in CLI_SAMPLES} for i in insts}
    start, cycle, slice_s = clock(), 0.0, KERNEL_SHARE * seconds / 4

    def owed_setup_s():
        """Seconds of the set-up samples still owed after one more cycle."""
        return sum(max(0, SETUP_REPEATS - len(c["setup_s"]) - 1)
                   * statistics.median(c["setup_s"]) for c in cli.values())

    try:
        while not cycle or (clock() - start + cycle + slice_s
                            + owed_setup_s() <= seconds):
            c0 = clock()
            if not kernels.slice(slice_s):
                break
            t0 = clock()
            for inst in insts:
                add_setup(cli[inst.name], run.setup(inst))
                c = run.verify_cli(inst)
                cli[inst.name]["verify_all_s"].append(c.seconds)
                cli[inst.name]["verify_all_ref_s"].append(c.ref_seconds)
                cli[inst.name]["verify_peak_rss_mib"].append(c.peak_mib)
            slice_s = (clock() - t0) * KERNEL_SHARE / (1 - KERNEL_SHARE)
            cycle = clock() - c0
        for inst in insts:
            while len(cli[inst.name]["setup_s"]) < SETUP_REPEATS:
                add_setup(cli[inst.name], run.setup(inst))
        kernels.slice(max(slice_s, seconds - (clock() - start)))
    except BaseException:
        kernels.kill()
        raise
    k = kernels.finish()
    if k is None or not cycle:
        return None, {}

    # CLI sample sets are kept per instance; kernel ones pool the instances
    rounds = k["rounds"]
    samples = {name: {i: s[name] for i, s in cli.items()}
               for name in CLI_SAMPLES}
    samples["eval_ns"] = {"all": k["eval_ns"]}
    samples["eval_ref_ns"] = {"all": k["eval_ref_ns"]}
    for name in ("window_s", "window_ref_s", "window_io_s",
                 "window_io_ref_s", "density_s", "density_ref_s"):
        samples[name] = {"all": [r[name] for r in rounds]}
    for name, sets in samples.items():
        unit = name.rsplit("_", 1)[1].replace("mib", "MiB")
        for inst, v in sets.items():
            print(f"  {name}[{inst}]: {describe(v, unit)}")
    metrics = {name: {"value": combine(stat(v) for v in samples[src].values()),
                      "unit": unit}
               for name, (src, stat, combine, unit) in END_TO_END.items()}
    metrics["window_peak_mib"] = {"value": k["window_peak_mib"],
                                  "unit": "MiB"}
    print(f"  verify.scope_changed: {run.scope_changed}")
    return k, metrics


def traced_run(run, insts, seed):
    imports = []
    for _ in range(IMPORT_REPEATS):
        _, res = run.worker("import")
        if res is not None:
            imports.append(res["import_s"])

    plain = traced = 0.0
    per = []
    for inst in insts:
        plain += run.verify_cli(inst).seconds
        c, res = run.worker("verify", {"args": inst.args})
        if res is None:
            return None, {}
        run.check_report(res["exit"], res["report"], inst)
        traced += c.seconds
        per.append(res)

    _, k = run.worker("kernels", {
        "instances": [i.to_json() for i in insts], "seed": seed,
        "seconds": 0, "workdir": run.workdir, "traced": True})
    if k is None or not imports:
        return None, {}

    m = {}
    for check in CHECKS:
        m[f"verify.{check}.s"] = (
            sum(r["checks"][check]["s"] for r in per), "s")
        m[f"verify.{check}.peak_mib"] = (
            max(r["checks"][check]["peak_mib"] for r in per), "MiB")
    m["verify.scope_changed"] = (run.scope_changed, "count")
    m["tower.validate_s"] = (sum(r["validate_s"] for r in per), "s")
    m["tower.build_s"] = (k["probes"]["tower.build_s"], "s")
    m["tower.reduce_ns"] = (k["probes"]["tower.reduce_ns"], "ns")
    m["tower.in_domain_ns"] = (k["probes"]["tower.in_domain_ns"], "ns")
    m["skeleton.build_s"] = (k["probes"]["skeleton.build_s"], "s")
    m["skeleton.j_set_s"] = (sum(r["j_set_s"] for r in per), "s")
    m["skeleton.j_cells"] = (sum(r["j_cells"] for r in per), "count")
    m["skeleton.eval_ns"] = (statistics.median(k["eval_ns"]), "ns")
    m["window.values_s"] = (k["window"]["values_s"], "s")
    m["window.levels_s"] = (k["window"]["levels_s"], "s")
    m["window.cells"] = (k["window"]["cells"], "count")
    for layer in ("periods", "cells", "measures", "density"):
        m[f"{layer}.self_s"] = (
            sum(r["self_s"][layer] for r in per + [k]), "s")
    m["cli.import_s"] = (statistics.median(imports), "s")
    m["trace.overhead_s"] = (traced - plain, "s")

    checks_s = sum(m[f"verify.{c}.s"][0] for c in CHECKS)
    print(f"  verify all: untraced {plain:.6g} s, traced {traced:.6g} s, "
          f"sum of checks {checks_s:.6g} s")
    for r in per + [k]:
        for row in r["spans"]:
            print(f"  span {row['span']}: {row['calls']} calls, "
                  f"self {row['self_s']:.6g} s")
    return k, {name: {"value": v, "unit": unit}
               for name, (v, unit) in m.items()}


def machine():
    info = {"nproc": os.cpu_count()}
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    info["l3"] = l3.read_text().strip() if l3.exists() else "unknown"
    return info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "toeplitzlab" / "__init__.py").is_file():
        print(f"no toeplitzlab sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # the CLI children and the speed sampler share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        run = Run(workdir)
        insts = workload_instances(args.workload, args.seed)
        for inst in insts:
            inst.write(workdir)
        print(f"workload {args.workload} seed {args.seed} "
              f"trace {args.trace}: {[i.name for i in insts]}")
        if args.trace:
            k, metrics = traced_run(run, insts, args.seed)
        else:
            k, metrics = measured_run(run, insts, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if k is None:
        print("a worker failed:", *run.errors, sep="\n  ", file=sys.stderr)
        return 1

    env = machine()
    env.update(python=k["python"], numpy=k["numpy"])
    print(f"env {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for e in run.errors[:20]:
        print(f"  failed: {e}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
