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
  --per-node.

Every run writes into its own temporary directory, and the inputs are this
checkout's configs for both trees. The exit code, stdout, stderr and
every output file of each run must be the same bytes for both trees.
Exits 0 if they are, and 1 after listing every difference otherwise. A
full check takes about a minute.
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE1 = os.path.join(ROOT, "configs", "example1")
SIZES = "25,50,100,200"

_SIMULATE = [
    "simulate",
    os.path.join(EXAMPLE1, "network.json"),
    os.path.join(EXAMPLE1, "protocol.json"),
    "--x0-file",
    os.path.join(EXAMPLE1, "x0.txt"),
]
CASES = {
    "benchmark-experiment-1": ["benchmark", "--experiment", "1", "--sizes", SIZES],
    "benchmark-experiment-2": ["benchmark", "--experiment", "2", "--sizes", SIZES],
    "benchmark-calibration-error": [
        "benchmark", "--experiment", "1", "--sizes", "25", "--dt", "1e-3", "--target-t", "0.0001",
    ],
    "example1-per-node-stride-1000": _SIMULATE
    + ["--dt", "1e-4", "--t-end", "15", "--per-node", "--record-stride", "1000"],
    "example1-stride-100": _SIMULATE + ["--dt", "1e-4", "--t-end", "10", "--record-stride", "100"],
    "example1-epsilon-per-node": _SIMULATE
    + ["--dt", "1e-3", "--t-end", "15", "--epsilon", "0.01", "--per-node"],
}


def run(src, args, out):
    """Run the CLI from src in the directory out; (exit code, stdout,
    stderr)."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "consensus_lab"] + args + ["--out", "."],
        cwd=out,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    return proc.returncode, proc.stdout, proc.stderr


def files(top):
    """Every file under top, by its path relative to top, with its bytes."""
    found = {}
    for folder, _, names in os.walk(top):
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
