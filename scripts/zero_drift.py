"""Check that two source trees give byte-identical outputs.

Usage: python scripts/zero_drift.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the consensus_lab package, such as
the src directory of a checkout. With each of them alone on PYTHONPATH the
script runs

- consensus-lab benchmark --experiment 1 and --experiment 2, both with
  --sizes 25,50,100,200, and both again with --sizes 25,50 --dt 1e-3,
  which calibrate and run their sweep rows in a fraction of a second;
- consensus-lab benchmark --experiment 1 --sizes 25 --dt 1e-3
  --target-t 0.0001, which fails its calibration and exits 1, so the
  error path is compared too;
- consensus-lab benchmark --experiment 1 --sizes 25,50 --dt 1e-3
  --epsilon 1e-6, whose per-edge row at n = 25 does not settle, so the
  sweep's failure path is compared and the run exits 3;
- consensus-lab benchmark --experiment 2 --sizes 25 --dt 1e-3 --target-t
  0.5, which calibrates the fixed-time law at a coarse step against a
  short target;
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
  --record-stride 1 (199 switches), once without and once with
  --per-node, whose per-node rows cross every switch;
- example 1's graphs and protocol under a breakpoint signal from t0 = 0.1
  with switches at 0.25, 0.5 and 1.3, with --dt 1e-3 --t-end 3.1; and the
  same with the switch at 0.5005, off the steps, which exits 1;
- example 1's graphs with arc weights 0.5, 1.5 and 2.5 under a per-edge
  sign law with --dt 1e-3 --t-end 15 --per-node --record-stride 7, and
  under a per-edge linear law of gain 2 with --dt 1e-4 --t-end 10
  --per-node --record-stride 100;
- example 1's network and x0 under a per-edge fixed-time law with k1 = k2
  = 1, p = 0.5 and q = 1.5, which runs in the compiled stretch loop, and
  the same with q = 2, which runs on numpy, each with --dt 1e-3 --t-end 10
  --per-node --record-stride 10;
- consensus-lab simulate on the benchmark's 200-node network
  (benchmark_topology(200)) under a per-edge power law of gain 1 and
  exponent 0.5, with --x0-lcg --dt 1e-3 --t-end 0.7 --per-node
  --record-stride 7; at n = 200 a block holds 81 steps, so the per-node
  rows cross block edges off the 1024-step blocks of the 10-node runs;
- example 1's network under an aggregated linear law of gain 0.01 from an
  x0 that holds -0.0, the subnormal 5e-324, 1e-300, 3e-6, 2.5e-5, -4e-5,
  0.1, 7.5, 123456.789 and -1e11, with --dt 1e-5 --t-end 0.01 --per-node
  --record-stride 1, so that the CSV files print -0, a subnormal, values
  below 1e-5 and values from 1e-5 on in fixed and in exponent notation;
- example 1's network under an aggregated linear law of gain 10 from an
  x0 that sums to zero (example 1's with -5 in place of its last 4), with
  --dt 1e-3 --t-end 8 --per-node --record-stride 1: the states decay to
  about -1.3e-16 and V to 6e-26, so the CSV files print tens of thousands
  of values in every decade from 1e-5 down to 1e-16, and below it;
- consensus-lab verify on configs/example1 with --tau 1 and with --tau
  0.5 --horizon 20, which pass (each of its members is connected, so no
  tau fails), and with --tau 0, which exits 1;
- consensus-lab verify on configs/example2/network_sigma1.json with
  --tau 10, which passes, --tau 5, which fails, and --tau 8 --horizon
  40; and on network_sigma2.json, whose signal is 100 times faster, with
  --tau 0.1, --tau 0.05 and --tau 0.1 --horizon 1;
- consensus-lab verify on a directed family on 3 nodes that switches
  every second between the path 0->1->2, unilaterally but not strongly
  connected, and 0->1<-2, weakly but not unilaterally connected, with
  --tau 1, whose windows union both and pass, and --tau 0.5, which fails
  on the window that holds 0->1<-2 alone.

Each of the 35 runs writes into its own temporary directory, which holds
the files of INPUTS before it starts, and the other inputs are this
checkout's configs for both trees. The exit code, stdout, stderr and
every file and directory of each run must be the same bytes for both
trees. Exits 0 if they are, and 1 after listing every difference
otherwise. A full check takes about a minute.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark network of INPUTS is written by the package on the path,
# or else by this checkout's
sys.path.append(os.path.join(ROOT, "src"))
from consensus_lab.benchmark import benchmark_topology  # noqa: E402
from consensus_lab.switching import network_to_json  # noqa: E402

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
_VERIFY1 = ["verify", os.path.join(EXAMPLE1, "network.json")]
_SIGMA1 = ["verify", os.path.join(EXAMPLE2, "network_sigma1.json")]
_SIGMA2 = ["verify", os.path.join(EXAMPLE2, "network_sigma2.json")]


def _example1_network():
    with open(os.path.join(EXAMPLE1, "network.json")) as f:
        return json.load(f)


def _example1_breakpoints(times):
    """Example 1's network text with its signal replaced by breakpoints at
    times from t0 = 0.1, alternating its two members."""
    net = _example1_network()
    indices = [i % 2 for i in range(len(times) + 1)]
    net["signal"] = {"type": "breakpoints", "times": times, "indices": indices, "t0": 0.1}
    return json.dumps(net)


def _example1_weighted():
    """Example 1's network text with arc weights 0.5, 1.5 and 2.5 in turn."""
    net = _example1_network()
    for g in net["graphs"]:
        g["edges"] = [[i, j, 0.5 + a % 3] for a, (i, j, _) in enumerate(g["edges"])]
    return json.dumps(net)


def _directed_family():
    """A network text switching every second between the directed path
    0->1->2 and the arcs 0->1<-2."""
    graphs = [[[0, 1, 1.0], [1, 2, 1.0]], [[0, 1, 1.0], [2, 1, 1.0]]]
    return json.dumps({
        "signal": {"type": "floor_modulo", "rate": 1.0, "modulus": 2},
        "graphs": [{"n": 3, "undirected": False, "edges": edges} for edges in graphs],
    })


def _per_edge(law, k):
    return json.dumps({"direction": "per_edge", "f": {"type": law, "k": k}})


def _per_edge_fixed_time(q):
    law = {"type": "fixed_time", "k1": 1.0, "k2": 1.0, "p": 0.5, "q": q}
    return json.dumps({"direction": "per_edge", "f": law})


# written into each run's directory before the run
INPUTS = {
    "unstable-protocol.json": '{"direction": "aggregated", "f": {"type": "linear", "k": 1002.0}}\n',
    "a-file": "a regular file, not a directory\n",
    "breakpoints.json": _example1_breakpoints([0.25, 0.5, 1.3]),
    "breakpoint-off-step.json": _example1_breakpoints([0.25, 0.5005, 1.3]),
    "weighted.json": _example1_weighted(),
    "per-edge-sign.json": _per_edge("sign", 1.0),
    "per-edge-linear.json": _per_edge("linear", 2.0),
    "per-edge-fixed-time.json": _per_edge_fixed_time(1.5),
    "per-edge-fixed-time-q2.json": _per_edge_fixed_time(2.0),
    "directed.json": _directed_family(),
    "benchmark-200.json": json.dumps(network_to_json(benchmark_topology(200))),
    "per-edge-power.json": json.dumps(
        {"direction": "per_edge", "f": {"type": "power", "k": 1.0, "alpha": 0.5}}
    ),
    "small-gain-linear.json": '{"direction": "aggregated", "f": {"type": "linear", "k": 0.01}}\n',
    "float-extremes-x0.txt": "\n".join(
        ["-0.0", "5e-324", "1e-300", "3e-6", "7.5", "-1e11", "2.5e-5", "0.1", "123456.789", "-4e-5"]
    ) + "\n",
    "fast-linear.json": '{"direction": "aggregated", "f": {"type": "linear", "k": 10.0}}\n',
    "zero-sum-x0.txt": "\n".join(["0", "-5", "10", "3", "-8", "-2", "5", "3", "-1", "-5"]) + "\n",
}
CASES = {
    "benchmark-experiment-1": ["benchmark", "--experiment", "1", "--sizes", SIZES] + HERE,
    "benchmark-experiment-2": ["benchmark", "--experiment", "2", "--sizes", SIZES] + HERE,
    "benchmark-experiment-1-coarse": [
        "benchmark", "--experiment", "1", "--sizes", "25,50", "--dt", "1e-3",
    ] + HERE,
    "benchmark-experiment-2-coarse": [
        "benchmark", "--experiment", "2", "--sizes", "25,50", "--dt", "1e-3",
    ] + HERE,
    "benchmark-calibration-error": [
        "benchmark", "--experiment", "1", "--sizes", "25", "--dt", "1e-3", "--target-t", "0.0001",
    ] + HERE,
    "benchmark-sweep-row-fails": [
        "benchmark", "--experiment", "1", "--sizes", "25,50", "--dt", "1e-3", "--epsilon", "1e-6",
    ] + HERE,
    "benchmark-mispredicted-calibration": [
        "benchmark", "--experiment", "2", "--sizes", "25", "--dt", "1e-3", "--target-t", "0.5",
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
    "example2-fast-signal-per-node": [
        "simulate",
        os.path.join(EXAMPLE2, "network_sigma2.json"),
        os.path.join(EXAMPLE2, "protocol.json"),
        "--x0-file",
        os.path.join(EXAMPLE2, "x0.txt"),
        "--dt", "1e-4", "--t-end", "2", "--record-stride", "1", "--per-node",
    ] + HERE,
    "example1-breakpoints": [_SIMULATE[0], "breakpoints.json", *_SIMULATE[2:]]
    + ["--dt", "1e-3", "--t-end", "3.1"] + HERE,
    "example1-breakpoint-off-step": [_SIMULATE[0], "breakpoint-off-step.json", *_SIMULATE[2:]]
    + ["--dt", "1e-3", "--t-end", "3.1"] + HERE,
    "example1-weighted-per-edge-sign": [
        _SIMULATE[0], "weighted.json", "per-edge-sign.json", *_SIMULATE[3:],
        "--dt", "1e-3", "--t-end", "15", "--per-node", "--record-stride", "7",
    ] + HERE,
    "example1-weighted-per-edge-linear": [
        _SIMULATE[0], "weighted.json", "per-edge-linear.json", *_SIMULATE[3:],
        "--dt", "1e-4", "--t-end", "10", "--per-node", "--record-stride", "100",
    ] + HERE,
    "example1-per-edge-fixed-time": [
        _SIMULATE[0], _SIMULATE[1], "per-edge-fixed-time.json", *_SIMULATE[3:],
        "--dt", "1e-3", "--t-end", "10", "--per-node", "--record-stride", "10",
    ] + HERE,
    "example1-per-edge-fixed-time-q2": [
        _SIMULATE[0], _SIMULATE[1], "per-edge-fixed-time-q2.json", *_SIMULATE[3:],
        "--dt", "1e-3", "--t-end", "10", "--per-node", "--record-stride", "10",
    ] + HERE,
    "benchmark-200-per-edge-power": [
        "simulate", "benchmark-200.json", "per-edge-power.json", "--x0-lcg",
        "--dt", "1e-3", "--t-end", "0.7", "--per-node", "--record-stride", "7",
    ] + HERE,
    "example1-float-extremes": [
        "simulate", _SIMULATE[1], "small-gain-linear.json", "--x0-file", "float-extremes-x0.txt",
        "--dt", "1e-5", "--t-end", "0.01", "--per-node", "--record-stride", "1",
    ] + HERE,
    "example1-decays-to-zero": [
        "simulate", _SIMULATE[1], "fast-linear.json", "--x0-file", "zero-sum-x0.txt",
        "--dt", "1e-3", "--t-end", "8", "--per-node", "--record-stride", "1",
    ] + HERE,
    "verify-example1": _VERIFY1 + ["--tau", "1"],
    "verify-example1-horizon": _VERIFY1 + ["--tau", "0.5", "--horizon", "20"],
    "verify-example1-zero-tau": _VERIFY1 + ["--tau", "0"],
    "verify-example2-sigma1": _SIGMA1 + ["--tau", "10"],
    "verify-example2-sigma1-fails": _SIGMA1 + ["--tau", "5"],
    "verify-example2-sigma1-horizon": _SIGMA1 + ["--tau", "8", "--horizon", "40"],
    "verify-example2-sigma2": _SIGMA2 + ["--tau", "0.1"],
    "verify-example2-sigma2-fails": _SIGMA2 + ["--tau", "0.05"],
    "verify-example2-sigma2-horizon": _SIGMA2 + ["--tau", "0.1", "--horizon", "1"],
    "verify-directed": ["verify", "directed.json", "--tau", "1"],
    "verify-directed-fails": ["verify", "directed.json", "--tau", "0.5"],
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
