"""Tracing wrappers for consensus_lab and the per-layer metrics they yield.

`install` wraps each public function at the name its caller looks up.
Private helpers (`_run_once`, `_sweep_row`, ...) are never touched: the time
they spend outside wrapped calls is self time of the enclosing span.
`layer_metrics` turns the recorded spans into the `<module>.<metric>` values
listed in BENCHMARK.json; see NOTES.md for which end-to-end metric each one
should move.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import ancestors, attribute

LAYERS = ("protocols", "simulate", "benchmark", "metrics", "graphs", "io", "cli")
LABEL_SIZES = (10, 25, 50, 100, 200, 2000)
DIRECTIONS = ("per_edge", "aggregated")
CSV_WRITERS = ("write_trajectory_csv", "write_metrics_csv", "write_events_csv")
WRITERS = CSV_WRITERS + ("write_meta_json",)

# name -> (unit, better); the order is the order of BENCHMARK.json.
METRICS = {
    "protocols.control.calls": ("count", "lower"),
    "protocols.control.us_per_call": ("us", "lower"),
    "protocols.control.first_call_ms": ("ms", "lower"),
    **{
        f"protocols.control.us_per_call.{d}.n{n}": ("us", "lower")
        for d in DIRECTIONS
        for n in LABEL_SIZES
    },
    "simulate.calls": ("count", "lower"),
    "simulate.steps": ("count", "lower"),
    "simulate.us_per_step": ("us", "lower"),
    "simulate.self_us_per_step": ("us", "lower"),
    "switching.events": ("count", "lower"),
    "benchmark.calibrate_s": ("s", "lower"),
    "benchmark.calibrate.sim_calls": ("count", "lower"),
    "benchmark.calibrate.steps": ("count", "lower"),
    "benchmark.sweep_s": ("s", "lower"),
    "benchmark.sweep.sim_calls": ("count", "lower"),
    "benchmark.sweep.useful_step_ratio": ("ratio", "higher"),
    "metrics.settling_time.calls": ("count", "lower"),
    "metrics.settling_time_ms": ("ms", "lower"),
    "io.write_s": ("s", "lower"),
    "io.rows_per_s": ("1/s", "higher"),
    "io.mb_per_s": ("MB/s", "higher"),
    "graphs.build_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS if layer != "cli"},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


# every caller passes these arguments positionally
def _simulate_label(args):
    net, protocol = args[0], args[1]
    return f"{protocol.direction.value}.n{net.n}"


def _simulate_info(span, args, traj):
    span.info["events"] = len(traj.events)


def _writer_info(span, args, result):
    span.info["bytes"] = os.path.getsize(args[0])
    if span.name.endswith("write_events_csv"):
        span.info["rows"] = len(args[1])
    elif span.name.endswith(CSV_WRITERS):
        span.info["rows"] = len(args[1].times)


def install(tracer):
    """Wrap every traced public name of consensus_lab; undo with tracer.restore()."""
    import consensus_lab.benchmark as benchmark
    import consensus_lab.cli as cli
    import consensus_lab.simulate as simulate

    # simulate.py binds control with a bare `from .protocols import control`
    tracer.wrap_leaf(simulate, "control", lambda a: (a[1], a[0].direction))
    for module in (simulate, benchmark, cli):
        tracer.wrap(module, "simulate", "simulate", _simulate_label, _simulate_info)
    tracer.wrap(benchmark, "run_experiment", "benchmark")
    tracer.wrap(benchmark, "calibrate_gain", "benchmark")
    tracer.wrap(benchmark, "settling_time", "metrics")
    tracer.wrap(cli, "settling_time", "metrics")
    tracer.wrap(benchmark, "benchmark_topology", "graphs")
    tracer.wrap(cli, "network_from_json", "graphs")
    tracer.wrap(cli, "protocol_from_json", "protocols")
    tracer.wrap(cli, "load_x0", "io")
    for writer in WRITERS:
        tracer.wrap(cli, writer, "io", inspect=_writer_info)
    tracer.wrap(cli, "main", "cli")


def layer_metrics(spans, untraced_walls, traced_walls):
    """Per-layer metrics, as a mean per traced repetition of the body."""
    reps = max(len(traced_walls), 1)
    attributed = attribute(spans)
    in_body = [("bench.body" in ancestors(spans, i)) for i in range(len(spans))]
    children_s = defaultdict(float)
    for s in spans:
        if s.parent >= 0 and spans[s.parent].tid == s.tid:
            children_s[s.parent] += s.t1 - s.t0

    self_s = defaultdict(float)
    control_calls = first_s = first_calls = 0
    by_label = defaultdict(lambda: [0.0, 0])  # label -> [steady seconds, calls]
    sim_calls = steps = events = 0
    sim_s = 0.0
    cal_s = sweep_s = settle_s = write_s = graph_s = 0.0
    cal_sims = cal_steps = sweep_sims = settle_calls = rows = nbytes = 0
    sweep_runs = defaultdict(list)  # label -> [(end, steps)]
    for i, s in enumerate(spans):
        if s.name.startswith("bench."):
            continue
        if s.name.endswith(("benchmark_topology", "network_from_json")):
            graph_s += s.t1 - s.t0
        if not in_body[i]:
            continue
        # split the span's wall share between its own code and its leaf calls
        raw_self = (s.t1 - s.t0) - children_s[i]
        leaf = attributed[i] * s.leaf_s / raw_self if raw_self > 0 else 0.0
        self_s[s.layer] += attributed[i] - leaf
        self_s["protocols"] += leaf
        if s.leaf_calls:
            control_calls += s.leaf_calls
            first_s += s.leaf_first_s
            first_calls += s.leaf_first_calls
            steady = by_label[s.label]
            steady[0] += leaf * (1.0 - s.leaf_first_s / s.leaf_s)
            steady[1] += s.leaf_calls - s.leaf_first_calls
        enclosing = ancestors(spans, i)
        if s.layer == "simulate":
            # one control() call per step plus one for the final sample
            run_steps = s.leaf_calls - (1 if s.ok else 0)
            sim_calls += 1
            steps += run_steps
            sim_s += attributed[i]
            events += s.info.get("events", 0)
            if "benchmark.calibrate_gain" in enclosing:
                cal_sims += 1
                cal_steps += run_steps
            elif "benchmark.run_experiment" in enclosing:
                sweep_sims += 1
                sweep_runs[s.label].append((s.t1, run_steps))
        elif s.name == "benchmark.calibrate_gain":
            cal_s += s.t1 - s.t0
        elif s.name == "benchmark.run_experiment":
            sweep_s += s.t1 - s.t0
        elif s.layer == "metrics":
            settle_calls += 1
            settle_s += attributed[i]
        elif s.name.endswith(WRITERS):
            write_s += attributed[i]
            rows += s.info.get("rows", 0)
            nbytes += s.info.get("bytes", 0)
    sweep_s -= cal_s
    sweep_steps = sum(st for runs in sweep_runs.values() for _, st in runs)
    # the last run of each (direction, n) row is the one that produced it
    useful = sum(max(runs)[1] for runs in sweep_runs.values())

    steady_s = sum(secs for secs, _ in by_label.values())
    steady_calls = sum(calls for _, calls in by_label.values())
    traced = statistics.median(traced_walls) if traced_walls else 0.0
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0
    body_total = sum(traced_walls)
    values = {
        "protocols.control.calls": control_calls / reps,
        "protocols.control.us_per_call": 1e6 * steady_s / steady_calls if steady_calls else 0.0,
        "protocols.control.first_call_ms": 1e3 * first_s / first_calls if first_calls else 0.0,
        "simulate.calls": sim_calls / reps,
        "simulate.steps": steps / reps,
        "simulate.us_per_step": 1e6 * sim_s / steps if steps else 0.0,
        "simulate.self_us_per_step": 1e6 * self_s["simulate"] / steps if steps else 0.0,
        "switching.events": events / reps,
        "benchmark.calibrate_s": cal_s / reps,
        "benchmark.calibrate.sim_calls": cal_sims / reps,
        "benchmark.calibrate.steps": cal_steps / reps,
        "benchmark.sweep_s": sweep_s / reps,
        "benchmark.sweep.sim_calls": sweep_sims / reps,
        "benchmark.sweep.useful_step_ratio": useful / sweep_steps if sweep_steps else 0.0,
        "metrics.settling_time.calls": settle_calls / reps,
        "metrics.settling_time_ms": 1e3 * settle_s / reps,
        "io.write_s": write_s / reps,
        "io.rows_per_s": rows / write_s if write_s else 0.0,
        "io.mb_per_s": nbytes / 1e6 / write_s if write_s else 0.0,
        "graphs.build_s": graph_s / reps,
        "cli.self_s": self_s["cli"] / reps,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.unattributed_s": (body_total - sum(self_s.values())) / reps,
    }
    for d in DIRECTIONS:
        for n in LABEL_SIZES:
            secs, calls = by_label.get(f"{d}.n{n}", (0.0, 0))
            values[f"protocols.control.us_per_call.{d}.n{n}"] = 1e6 * secs / calls if calls else 0.0
    for layer in LAYERS:
        if layer != "cli":
            values[f"{layer}.self_s"] = self_s[layer] / reps
    return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}
