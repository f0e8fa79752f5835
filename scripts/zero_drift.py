"""Check that two source trees give byte-identical outputs.

Usage: python scripts/zero_drift.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the consensus_lab package, such as
the src directory of a checkout. With each of them alone on PYTHONPATH the
script runs

- consensus-lab benchmark --experiment 1 and --experiment 2, both with
  --sizes 25,50,100,200;
- consensus-lab benchmark --experiment 1 --sizes 25 --dt 1e-3
  --target-t 0.0001, which fails its calibration and exits 1, so the
  error path is compared too;
- consensus-lab simulate on configs/example1 with --dt 1e-4 --t-end 15
  --per-node --record-stride 1000, with --dt 1e-4 --t-end 10
  --record-stride 100, and with --dt 1e-3 --t-end 15 --epsilon 0.01
  --per-node;
- three simulate runs on configs/example1 that fail: with a linear law
  of gain 1002, which diverges at t = 7.224 and exits 2 (its --out
  directory must not appear); with --epsilon 1e-9, which does not settle
  and exits 3 after writing its files; and with --out naming an existing
  regular file, which exits 1;
- consensus-lab simulate on configs/example2/network_sigma2.json, whose
  ten members switch every 100 steps, with --dt 1e-4 --t-end 2
  --record-stride 1 (199 switches);
- example 1's graphs and protocol under a breakpoint signal from t0 = 0.1
  with switches at 0.25, 0.5 and 1.3, with --dt 1e-3 --t-end 3.1; and the
  same with the switch at 0.5005, off the steps, which exits 1.

Every run writes into its own temporary directory, which holds the files
of INPUTS before it starts, and the other inputs are this checkout's
configs for both trees. The exit code, stdout, stderr and every file and
directory of each run must be the same bytes for both trees. Exits 0 if
they are, and 1 after listing every difference otherwise. A full check
takes about a minute.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE1 = os.path.join(ROOT, "configs", "example1")
EXAMPLE2 = os.path.join(ROOT, "configs", "example2")
SIZES = "25,50,100,200"

_SIMULATE = [
    "simulate",
    os.path.join(EXAMPLE1, "network.json"),
    os.path.join(EXAMPLE1, "protocol.json"),
    "--x0-file",
    os.path.join(EXAMPLE1, "x0.txt"),
]
HERE = ["--out", "."]


def _example1_breakpoints(times):
    """Example 1's network text with its signal replaced by breakpoints at
    times from t0 = 0.1, alternating its two members."""
    with open(os.path.join(EXAMPLE1, "network.json")) as f:
        net = json.load(f)
    indices = [i % 2 for i in range(len(times) + 1)]
    net["signal"] = {"type": "breakpoints", "times": times, "indices": indices, "t0": 0.1}
    return json.dumps(net)


# written into each run's directory before the run
INPUTS = {
    "unstable-protocol.json": '{"direction": "aggregated", "f": {"type": "linear", "k": 1002.0}}\n',
    "a-file": "a regular file, not a directory\n",
    "breakpoints.json": _example1_breakpoints([0.25, 0.5, 1.3]),
    "breakpoint-off-step.json": _example1_breakpoints([0.25, 0.5005, 1.3]),
}
CASES = {
    "benchmark-experiment-1": ["benchmark", "--experiment", "1", "--sizes", SIZES] + HERE,
    "benchmark-experiment-2": ["benchmark", "--experiment", "2", "--sizes", SIZES] + HERE,
    "benchmark-calibration-error": [
        "benchmark", "--experiment", "1", "--sizes", "25", "--dt", "1e-3", "--target-t", "0.0001",
    ] + HERE,
    "example1-per-node-stride-1000": _SIMULATE
    + ["--dt", "1e-4", "--t-end", "15", "--per-node", "--record-stride", "1000"] + HERE,
    "example1-stride-100": _SIMULATE
    + ["--dt", "1e-4", "--t-end", "10", "--record-stride", "100"] + HERE,
    "example1-epsilon-per-node": _SIMULATE
    + ["--dt", "1e-3", "--t-end", "15", "--epsilon", "0.01", "--per-node"] + HERE,
    "example1-diverges": [
        _SIMULATE[0], _SIMULATE[1], "unstable-protocol.json", *_SIMULATE[3:],
        "--dt", "1e-3", "--t-end", "15", "--per-node", "--out", "run",
    ],
    "example1-no-settle": _SIMULATE
    + ["--dt", "1e-3", "--t-end", "15", "--epsilon", "1e-9", "--per-node"] + HERE,
    "example1-out-is-a-file": _SIMULATE + ["--dt", "1e-3", "--t-end", "1", "--out", "a-file"],
    "example2-fast-signal": [
        "simulate",
        os.path.join(EXAMPLE2, "network_sigma2.json"),
        os.path.join(EXAMPLE2, "protocol.json"),
        "--x0-file",
        os.path.join(EXAMPLE2, "x0.txt"),
        "--dt", "1e-4", "--t-end", "2", "--record-stride", "1",
    ] + HERE,
    "example1-breakpoints": [_SIMULATE[0], "breakpoints.json", *_SIMULATE[2:]]
    + ["--dt", "1e-3", "--t-end", "3.1"] + HERE,
    "example1-breakpoint-off-step": [_SIMULATE[0], "breakpoint-off-step.json", *_SIMULATE[2:]]
    + ["--dt", "1e-3", "--t-end", "3.1"] + HERE,
}

# what a failing case must not leave in its directory
ABSENT = {"example1-diverges": "run/"}


def run(src, args, out):
    """Run the CLI from src in the directory out, after writing INPUTS
    there; (exit code, stdout, stderr)."""
    for name, text in INPUTS.items():
        with open(os.path.join(out, name), "w") as f:
            f.write(text)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "consensus_lab"] + args,
        cwd=out,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    return proc.returncode, proc.stdout, proc.stderr


def files(top):
    """Every file under top, by its path relative to top, with its bytes,
    and every directory below top, by its path and a slash."""
    found = {}
    for folder, dirs, names in os.walk(top):
        for name in dirs:
            found[os.path.relpath(os.path.join(folder, name), top) + "/"] = "directory"
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, top)] = f.read()
    return found


def compare(parent_src, change_src):
    """Names of the outputs that differ, as case/file, case/stdout,
    case/stderr or case/exit code."""
    differ = []
    for case, args in CASES.items():
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            code_a, out_a, err_a = run(parent_src, args, a)
            code_b, out_b, err_b = run(change_src, args, b)
            files_a, files_b = files(a), files(b)
        names = [
            name for name in sorted(set(files_a) | set(files_b))
            if files_a.get(name) != files_b.get(name)
        ]
        if ABSENT.get(case) in set(files_a) | set(files_b):
            names.append(f"{ABSENT[case]} exists")
        if out_a != out_b:
            names.append("stdout")
        if err_a != err_b:
            names.append("stderr")
        if code_a != code_b:
            names.append(f"exit code ({code_a} != {code_b})")
        print(f"{case}: {'differs' if names else 'same'}", flush=True)
        differ += [f"{case}/{name}" for name in names]
    return differ


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    for src in argv:
        if not os.path.isdir(os.path.join(src, "consensus_lab")):
            sys.exit(f"error: {src} holds no consensus_lab package")
    differ = compare(*(os.path.abspath(src) for src in argv))
    if differ:
        print("outputs that differ:")
        for name in differ:
            print(f"  {name}")
        return 1
    print("every output is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
