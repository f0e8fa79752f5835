"""Run a calibrated scaling sweep from a bundled experiment config.

Reads sizes and tolerances from configs/benchmark/experimentN.json; any of
them can be overridden on the command line. Results land in results.csv
plus a meta.json recording the calibration outcome.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experiment", type=int, default=1, choices=(1, 2))
    ap.add_argument("--sizes", default=None, help="comma list; default from config")
    ap.add_argument("--dt", type=float, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "configs", "benchmark",
                           f"experiment{args.experiment}.json")) as fh:
        cfg = json.load(fh)
    sizes = args.sizes or ",".join(str(n) for n in cfg["sizes"])
    dt = args.dt if args.dt is not None else cfg["dt"]
    out = args.out or f"out/benchmark{args.experiment}"

    cmd = [
        sys.executable, "-m", "consensus_lab", "benchmark",
        "--experiment", str(cfg["experiment"]),
        "--sizes", sizes,
        "--dt", str(dt),
        "--epsilon", str(cfg["epsilon"]),
        "--target-v", str(cfg["target_v"]),
        "--target-t", str(cfg["target_t"]),
        "--out", out,
    ]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
