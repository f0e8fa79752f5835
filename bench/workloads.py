"""The benchmark's three workloads: inputs, timed body and output check.

Each workload builds its inputs in `setup` (timed as set-up), runs the
program once in `body` (timed as wall time) and returns a list of failed
checks from `check` (untimed). Checks use tolerances, not byte hashes, so a
kernel change that moves last-bit rounding still passes. Why each workload
was chosen is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

import consensus_lab.benchmark as cl_benchmark
import consensus_lab.cli as cl_cli
import consensus_lab.simulate as cl_simulate
from consensus_lab.protocols import Direction, Power, Protocol

# Criterion 7 of the acceptance suite: the n = 25 rows of experiment 1
# settle within 0.01 of 1.00 and their E_tot is within 15 % of these.
ANCHOR_E_TOT = {"per_edge": 361.31, "aggregated": 273.57}
ANCHOR_SETTLE, ANCHOR_SETTLE_TOL, ANCHOR_E_TOT_TOL = 1.0, 0.01, 0.15

# Sweep rows against the stored reference. Calibration accepts any gain
# within 10 dt of the target, so rounding changes may pick another gain in
# that band; 2 % covers the resulting drift of every row.
ROW_REL_TOL = 0.02
ROW_SETTLE_DT = 5

# scale_2000 against the edge-list oracle below, which sums in another order
# than the program's dense matrices.
ORACLE_REL_TOL = 1e-6


def make(name, root, smoke=False):
    cls = {"sweep_power": SweepPower, "example1_io": Example1Io, "scale_2000": Scale2000}
    return cls[name](root, smoke)


class _Workload:
    def __init__(self, root, smoke):
        self.root = root
        self.smoke = smoke

    def cleanup(self, inputs):
        pass


class SweepPower(_Workload):
    """run_experiment(1, ...) on configs/benchmark/experiment1.json."""

    def setup(self, seed, workdir):
        with open(os.path.join(self.root, "configs", "benchmark", "experiment1.json")) as fh:
            cfg = json.load(fh)
        if self.smoke:
            cfg.update(sizes=[25, 50], dt=1e-3)
        return cfg

    def body(self, cfg):
        return cl_benchmark.run_experiment(
            cfg["experiment"],
            cfg["sizes"],
            dt=cfg["dt"],
            epsilon=cfg["epsilon"],
            target_v=cfg["target_v"],
            target_t=cfg["target_t"],
        )

    def check(self, cfg, out):
        rows, _meta = out
        with open(os.path.join(os.path.dirname(__file__), "reference.json")) as fh:
            ref_rows = json.load(fh)["sweep_power"]["smoke" if self.smoke else "full"]
        failures = []
        got = {(r.n, r.direction): r for r in rows}
        if set(got) != {(r["n"], r["direction"]) for r in ref_rows}:
            failures.append(f"rows {sorted(got)} differ from the reference rows")
        for direction, anchor in ANCHOR_E_TOT.items():
            r = got.get((25, direction))
            if r is None:
                continue
            if abs(r.settling_time - ANCHOR_SETTLE) > ANCHOR_SETTLE_TOL:
                failures.append(f"n=25 {direction}: settling time {r.settling_time} not 1.00")
            if abs(r.e_tot - anchor) > ANCHOR_E_TOT_TOL * anchor:
                failures.append(f"n=25 {direction}: E_tot {r.e_tot} vs anchor {anchor}")
        for ref in ref_rows:
            r = got.get((ref["n"], ref["direction"]))
            if r is None:
                continue
            tag = f"n={ref['n']} {ref['direction']}"
            settle_tol = ROW_REL_TOL * ref["settling_time"] + ROW_SETTLE_DT * cfg["dt"]
            if abs(r.settling_time - ref["settling_time"]) > settle_tol:
                failures.append(f"{tag}: settling time {r.settling_time} vs {ref['settling_time']}")
            for key, value in (("e_tot", r.e_tot), ("gain", r.gain)):
                if abs(value - ref[key]) > ROW_REL_TOL * abs(ref[key]):
                    failures.append(f"{tag}: {key} {value} vs {ref[key]}")
        return failures


class Example1Io(_Workload):
    """consensus-lab simulate on configs/example1 with per-node metrics."""

    T_END = 15.0

    def setup(self, seed, workdir):
        src = os.path.join(self.root, "configs", "example1")
        run_dir = tempfile.mkdtemp(prefix="example1_io-", dir=workdir)
        paths = {}
        for name in ("network.json", "protocol.json"):
            with open(os.path.join(src, name)) as fh:
                obj = json.load(fh)
            paths[name] = os.path.join(run_dir, name)
            with open(paths[name], "w") as fh:
                json.dump(obj, fh)
        with open(os.path.join(src, "x0.txt")) as fh:
            x0 = [float(v) for v in fh.read().split()]
        paths["x0.txt"] = os.path.join(run_dir, "x0.txt")
        with open(paths["x0.txt"], "w") as fh:
            fh.write("".join(f"{v!r}\n" for v in x0))
        dt, stride = (1e-3, 100) if self.smoke else (1e-4, 1000)
        out = os.path.join(run_dir, "out")
        argv = [
            "simulate", paths["network.json"], paths["protocol.json"],
            "--x0-file", paths["x0.txt"], "--dt", repr(dt), "--t-end", repr(self.T_END),
            "--per-node", "--record-stride", str(stride), "--out", out,
        ]
        return {"argv": argv, "run_dir": run_dir, "out": out, "n": len(x0),
                "steps": round(self.T_END / dt)}

    def body(self, inputs):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cl_cli.main(inputs["argv"])
        return code

    def check(self, inputs, code):
        if code != 0:
            return [f"exit code {code}"]
        header, last, lines = None, b"", 0
        with open(os.path.join(inputs["out"], "metrics.csv"), "rb") as fh:
            while chunk := fh.read(1 << 20):
                if header is None:
                    header = chunk[: chunk.index(b"\n")].split(b",")
                lines += chunk.count(b"\n")
                last = (last + chunk)[-4096:]
        last = last.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")
        failures = []
        if lines != inputs["steps"] + 2:
            failures.append(f"metrics.csv has {lines} lines, want {inputs['steps'] + 2}")
        if len(header) != 3 + inputs["n"] or len(last) != len(header):
            failures.append(f"metrics.csv has {len(header)} columns, want {3 + inputs['n']}")
        if not float(last[1]) < 0.01:
            failures.append(f"final V = {float(last[1])} is not below 0.01")
        return failures

    def cleanup(self, inputs):
        shutil.rmtree(inputs["run_dir"], ignore_errors=True)


class Scale2000(_Workload):
    """simulate on benchmark_topology(2000), power law, both directions."""

    # 700 steps cross the switches at t = 0.2, 0.4 and 0.6; no early stop.
    DT, T_END, SWITCHES = 1e-3, 0.7, 3

    def setup(self, seed, workdir):
        n = 200 if self.smoke else 2000
        net = cl_benchmark.benchmark_topology(n)
        x0 = np.random.default_rng(seed % 2**63).uniform(-10.0, 10.0, n)
        protocols = [Protocol(d, Power(1.0, 0.5)) for d in Direction]
        cfg = cl_simulate.SimConfig(t_end=self.T_END, dt=self.DT, record_stride=10**9)
        return {"net": net, "x0": x0, "protocols": protocols, "cfg": cfg}

    def body(self, inputs):
        return [
            cl_simulate.simulate(inputs["net"], p, inputs["x0"], inputs["cfg"])
            for p in inputs["protocols"]
        ]

    def check(self, inputs, trajs):
        failures = []
        for p, traj in zip(inputs["protocols"], trajs):
            tag = p.direction.value
            v_ref, e_ref = oracle(inputs["net"], p, inputs["x0"], self.DT, round(self.T_END / self.DT))
            v, e = float(traj.metrics.V[-1]), float(traj.metrics.E_tot[-1])
            if not np.isfinite(traj.states[-1]).all():
                failures.append(f"{tag}: final state is not finite")
            if abs(v - v_ref) > ORACLE_REL_TOL * abs(v_ref):
                failures.append(f"{tag}: final V {v} vs oracle {v_ref}")
            if abs(e - e_ref) > ORACLE_REL_TOL * abs(e_ref):
                failures.append(f"{tag}: final E_tot {e} vs oracle {e_ref}")
            if len(traj.events) != self.SWITCHES:
                failures.append(f"{tag}: {len(traj.events)} switches, want {self.SWITCHES}")
        return failures


def oracle(net, protocol, x0, dt, steps):
    """Final (V, E_tot) of the Euler run, recomputed on edge lists.

    An independent reference for the simulator: the active member is taken
    from the signal's fields at mid-step, and the control is summed with
    np.bincount over the public edge list instead of the cached matrices.
    Supports the FloorModulo power-law runs of scale_2000 only.
    """
    sig = net.signal
    f = protocol.f
    arrays = []
    for g in net.graphs:
        src, dst, w = (np.array(c) for c in zip(*g.edges))
        arrays.append((src.astype(np.intp), dst.astype(np.intp), w.astype(float)))
    n = net.n

    def power(v):
        return f.k * np.sign(v) * np.abs(v) ** f.alpha

    x = np.array(x0, dtype=float)
    s = np.zeros(n)
    for k in range(steps):
        member = math.floor(sig.rate * (sig.t0 + (k + 0.5) * dt)) % sig.modulus + sig.offset
        src, dst, w = arrays[member]
        if protocol.direction is Direction.AGGREGATED:
            u = power(np.bincount(dst, w * (x[src] - x[dst]), minlength=n))
        else:
            u = np.bincount(dst, w * power(x[src] - x[dst]), minlength=n)
        s += u * u * dt
        x = x + dt * u
    return float(x.max() - x.min()), float(np.sqrt(s).sum())
