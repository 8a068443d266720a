"""padlog benchmark: one workload, closed loop, one operation in flight.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 25 --trace 0

Run from the root of a padlog checkout; the package is imported from
its `src/` directory.  The run repeats whole rounds of the workload's
operations (see `measure`), checks every output against the independent
reference, and prints one JSON line last:

  --trace 0: the end-to-end metrics of BENCHMARK.json;
  --trace 1: the per-layer metrics of BENCHMARK.json, from a run with
             the layer wrappers of layers.py installed.

Each result is also written to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_OPS = 100
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit "
                         "(used to time set-up in a fresh interpreter)")
    return ap.parse_args(argv)


def import_padlog():
    """Import padlog from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "padlog", "__init__.py")):
        fail(f"no padlog sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import padlog
    if os.path.dirname(os.path.dirname(os.path.abspath(padlog.__file__))) \
            != SRC:
        fail(f"padlog imported from {padlog.__file__}, not from {SRC}")


def cpu_now(children):
    t = time.process_time()
    if children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += ru.ru_utime + ru.ru_stime
    return t


def fingerprint(x):
    """A comparable copy of a library result, down to its scalars."""
    if x is None or isinstance(x, (bool, int, float, str, Fraction)):
        return x
    if isinstance(x, dict):
        return tuple((k, fingerprint(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(fingerprint(v) for v in x)
    fields = (getattr(x, "__dataclass_fields__", None)
              or getattr(type(x), "__slots__", None))
    if fields:
        return (type(x).__name__,) + tuple(fingerprint(getattr(x, f))
                                           for f in fields)
    return repr(x)


def run_round(ops, children, lat, cpu, record, verified, ticker):
    """Run every operation once, appending its wall and CPU time, scaled
    to reference speed (speed.py), to lat[i] and cpu[i].  Checks run
    outside the timed region; an output equal to one already verified
    for the same operation is not checked again."""
    from workloads import CheckFailed

    clock = time.perf_counter
    before = speed.probe()
    for i, op in enumerate(ops):
        error = result = None
        c0 = cpu_now(children)
        t0 = clock()
        with ticker or contextlib.nullcontext():
            try:
                result = op.call()
            except Exception as exc:  # an operation that raises has failed
                error = exc
        wall, used = clock() - t0, cpu_now(children) - c0
        after = speed.probe()
        ticks = ticker.ticks if ticker else []
        if children and error is None:
            # the child process probed its own speed (workloads.CLI_CHILD)
            probed, factor = result.probed, result.factor
        else:
            probed = sum(ticks)
            factor = speed.scale([before, *ticks, after])
        before = after
        lat[i].append((wall - probed) * factor)
        cpu[i].append((used - probed) * factor)
        record["raw_wall_s"] += wall
        record["attempted"] += 1
        if error is not None:
            record["failed"] += 1
            print(f"perfbench: {op.label} failed: {error!r}", file=sys.stderr)
            continue
        c0 = clock()
        fp = fingerprint(result) if op.pure else None
        if fp is None or verified.get(i) != fp:
            try:
                op.check(result)
            except CheckFailed as exc:
                record["incorrect"] += 1
                print(f"perfbench: {op.label} output rejected: {exc}",
                      file=sys.stderr)
            else:
                verified[i] = fp
        record["check_s"] += clock() - c0


def time_children(argv, repeats):
    """Start argv `repeats` times, one at a time; return each child's first
    output line and the wall time from its start to that line."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.strip():
            fail(f"child {argv[1:]} exited with {proc.returncode}")
        out.append((line.split(), wall))
    return out


def setup_only(args):
    """Import padlog and build the inputs, under the speed probe; print
    'ready', the seconds spent in probes and the scale factor they give
    (read by measure_setup)."""
    work = os.path.join(RESULTS, f"setup-{args.workload}-{os.getpid()}")
    ticker = speed.Ticker()
    first = speed.probe()
    try:
        with ticker:
            import_padlog()
            import workloads
            workloads.build(args.workload, args.seed, ROOT, work, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probes = [first, *ticker.ticks, speed.probe()]
    print("ready", sum(probes), speed.scale(probes), flush=True)
    return 0


def measure_setup(args):
    """Median over fresh interpreters of the time from process start to
    the first operation, less the child's probes, at reference speed."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    return statistics.median(
        (wall - float(probed)) * float(factor)
        for (_, probed, factor), wall in time_children(argv, SETUP_REPEATS))


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import padlog; "
                "print(time.perf_counter() - t)")


def measure_import():
    """Median over fresh interpreters of `import padlog`, as timed inside
    the child (not scaled)."""
    got = time_children([sys.executable, "-c", IMPORT_PROBE, SRC],
                        IMPORT_REPEATS)
    return statistics.median(float(line[0]) for line, _ in got)


def declared_metrics(kind):
    """(name, unit) of the `kind` metrics listed in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    import_padlog()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    work = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, ROOT, work,
                              traced=bool(args.trace))
        metrics, record = measure(args, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in declared}
    line = {"correct": record["incorrect"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": out}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({**line, "all_metrics": metrics, "seconds": args.seconds,
                   **{k: record[k] for k in ("rounds", "timed_phase_s",
                                             "check_s", "raw_wall_s",
                                             "op_s")}},
                  fh, indent=1, default=str)
    print(json.dumps(line))
    return 0


def measure(args, ops):
    """Run whole rounds, at least MIN_ROUNDS and MIN_OPS operations, until
    another round would overrun --seconds; then reduce each operation's
    samples to their median over the rounds.  Slow spells of a shared
    machine last a few seconds and so touch one sample of an operation,
    not its median."""
    children = args.workload == "cli" and not args.trace
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    # a CLI child probes itself; in-process operations are probed here
    ticker = None if children else speed.Ticker(
        on_tick=tracer.exclude if tracer else None)
    lat = [[] for _ in ops]
    cpu = [[] for _ in ops]
    per_round = []
    verified = {}
    record = {"attempted": 0, "failed": 0, "incorrect": 0, "rounds": 0,
              "check_s": 0.0, "raw_wall_s": 0.0}
    t0 = time.perf_counter()
    try:
        while True:
            r0 = time.perf_counter()
            before = tracer.snapshot() if tracer else None
            run_round(ops, children, lat, cpu, record, verified, ticker)
            if tracer:
                after = tracer.snapshot()
                per_round.append({k: after[k] - before[k] for k in after})
            record["rounds"] += 1
            now = time.perf_counter()
            if (record["rounds"] >= MIN_ROUNDS
                    and record["attempted"] >= MIN_OPS
                    and now - t0 + (now - r0) > args.seconds):
                break
    finally:
        if ticker:
            ticker.close()
        if tracer:
            tracer.uninstall()
    med = [statistics.median(x) for x in lat]
    record["op_s"] = {op.label: m for op, m in zip(ops, med)}
    record["timed_phase_s"] = time.perf_counter() - t0
    if tracer:
        metrics = {"trace.ops_per_s": len(ops) / sum(med),
                   "cli.import_s": measure_import()}
        for k in per_round[0]:
            values = [r[k] for r in per_round]
            if k.endswith("_s"):
                metrics[k] = statistics.median(values)
            elif len(set(values)) == 1:
                metrics[k] = values[0]
            else:
                fail(f"{k} differs between identical rounds: {values}")
        return metrics, record
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": len(ops) / sum(med),
        "op_p50_ms": statistics.median(med) * 1e3,
        "op_p90_ms": statistics.quantiles(
            med, n=10, method="inclusive")[8] * 1e3,
        "cpu_s": sum(statistics.median(x) for x in cpu),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": measure_setup(args),
    }
    return metrics, record


if __name__ == "__main__":
    sys.exit(main())
