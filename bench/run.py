"""consensus-lab benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep_power --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each run repeats the workload's body until --seconds have passed (at least
once), checks every repetition's output and prints one line per metric
followed, as the last line, by a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones (wall_s, setup_s, peak_rss_mib); with --trace 1 the repetitions
alternate between untraced and traced and the run reports the per-layer
metrics instead.
`failed / attempted` is the share of repetitions whose check failed
(failed_frac). --smoke shrinks every workload to a few seconds for the
benchmark's own tests. The program is imported from src/ next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
from spans import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("sweep_power", "example1_io", "scale_2000")
# Set-up probes per run, half before and half after the timed repetitions:
# the machine's speed shifts over seconds, and one burst of probes sees one
# phase of it.
SETUP_PROBES = 16


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the repository at ROOT, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def setup_probe(args):
    """Time importing the program and building one input set, in this process."""
    t = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, ROOT, args.smoke)
    inputs = wl.setup(args.seed, work_dir())
    elapsed = time.perf_counter() - t
    wl.cleanup(inputs)
    print(repr(elapsed))
    return 0


def work_dir():
    path = os.path.join(OUT, "work")
    os.makedirs(path, exist_ok=True)
    return path


def setup_probes(args, count):
    """Set-up times of `count` fresh processes, so the import is paid each time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def repeat(wl, seed, seconds, tracer=None):
    """Repeat set-up, body and check for about `seconds`, at least once.

    A repetition starts only if, at the pace of the previous one, it ends
    within `seconds`, so a run never overshoots by a whole repetition. With
    a tracer, repetitions alternate between untraced and traced (at least
    one of each), so both see the same machine. Returns the body wall times,
    whether each repetition was traced and each one's failed checks.
    """
    walls, traced, failures = [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(walls) < (2 if tracer else 1) or time.perf_counter() - start + last <= seconds:
        rep_start = time.perf_counter()
        on = tracer is not None and len(walls) % 2 == 1
        if on:
            layers.install(tracer)

        def span(name):
            return tracer.span(name, "bench") if on else contextlib.nullcontext()

        try:
            with span("bench.setup"):
                inputs = wl.setup(seed, work_dir())
            try:
                with span("bench.body"):
                    t = time.perf_counter()
                    try:
                        out = wl.body(inputs)
                    finally:
                        walls.append(time.perf_counter() - t)
                        traced.append(on)
                failures.append(wl.check(inputs, out))
                del out
            except Exception as exc:  # a run that raises is a failed run, not a crash
                traceback.print_exc()
                failures.append([f"{type(exc).__name__}: {exc}"])
            finally:
                wl.cleanup(inputs)
        finally:
            if on:
                tracer.restore()
        del inputs
        gc.collect()  # free this repetition's arrays before the next set-up
        last = time.perf_counter() - rep_start
    return walls, traced, failures


def run_one(args):
    import workloads  # imports numpy and consensus_lab from SRC

    import consensus_lab

    if not os.path.abspath(consensus_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: consensus_lab was imported from {consensus_lab.__file__}, not {SRC}")
    record = run_record(args)
    print("run " + json.dumps(record, sort_keys=True))
    wl = workloads.make(args.workload, ROOT, args.smoke)
    result = {"record": record}

    if args.trace:
        tracer = Tracer()
        walls, traced, failures = repeat(wl, args.seed, args.seconds, tracer)
        untraced_walls = [w for w, on in zip(walls, traced) if not on]
        traced_walls = [w for w, on in zip(walls, traced) if on]
        metrics = layers.layer_metrics(tracer.spans, untraced_walls, traced_walls)
        result.update(untraced_walls=untraced_walls, traced_walls=traced_walls)
    else:
        half = 1 if args.smoke else SETUP_PROBES // 2
        setup_samples = setup_probes(args, half)
        walls, _, failures = repeat(wl, args.seed, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_samples += setup_probes(args, half)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mib": (peak, "MiB"),
        }
        result.update(walls=walls, setup_samples=setup_samples)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for f in failures:
        for message in f:
            print(f"check failed: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g} ({failed} of {attempted} runs)")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result.update(failures=failures, **out)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


def run_all(args):
    """Every workload in a fresh process of its own; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {w} exited with {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{w}: {line}")
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{w}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "consensus_lab", "__init__.py")):
        print(f"error: no consensus_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the sweep's row pool must not exceed the CPUs this process may use;
    # os.cpu_count() can count CPUs outside the affinity mask
    os.environ["CONSENSUS_LAB_THREADS"] = str(len(os.sched_getaffinity(0)))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
