"""End-to-end checks of the command-line interface, via subprocess and in process."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import consensus_lab.simulate as simulate_module
from consensus_lab import __version__, cli
from consensus_lab.graphs import WeightedDigraph, circulant_graph, edge_connectivity
from consensus_lab.io import (
    load_x0, write_events_csv, write_meta_json, write_metrics_csv, write_trajectory_csv,
)
from consensus_lab.protocols import (
    Direction, Linear, Power, Protocol, Sign, protocol_from_json, protocol_to_json,
)
from consensus_lab.simulate import SimConfig, simulate
from consensus_lab.switching import (
    Breakpoints, DynamicNetwork, network_from_json, network_to_json,
)

from gen import assert_no_child, divisors

EXAMPLE1 = Path(__file__).resolve().parent.parent / "configs" / "example1"
EXAMPLE2 = EXAMPLE1.parent / "example2"
# the exit codes of the README's table
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_DIVERGED, cli.EXIT_NO_SETTLE,
              cli.EXIT_VERIFY_FAIL}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "consensus_lab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def cycle_graph_json(n):
    edges = [[i, (i + 1) % n, 1.0] for i in range(n)]
    return {"n": n, "undirected": True,
            "edges": [[min(i, j), max(i, j), w] for i, j, w in edges]}


def static_network_json(graph_obj):
    return {
        "signal": {"type": "floor_modulo", "rate": 1.0, "modulus": 1},
        "graphs": [graph_obj],
    }


@pytest.fixture
def cycle4_net(tmp_path):
    return write_json(tmp_path / "net.json", static_network_json(cycle_graph_json(4)))


@pytest.fixture
def linear_protocol(tmp_path):
    return write_json(
        tmp_path / "proto.json",
        {"direction": "aggregated", "f": {"type": "linear", "k": 2.0}},
    )


@pytest.fixture
def x0_file(tmp_path):
    p = tmp_path / "x0.txt"
    p.write_text("1.0\n-1.0\n0.5\n-0.5\n")
    return str(p)


class TestSimulate:
    def test_settles_and_writes_outputs(self, tmp_path, cycle4_net, linear_protocol, x0_file):
        out = tmp_path / "run"
        res = run_cli(
            "simulate", cycle4_net, linear_protocol,
            "--x0-file", x0_file, "--dt", "1e-3", "--t-end", "10.0",
            "--epsilon", "1e-4", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert "settled at t=" in res.stdout
        for name in ("trajectory.csv", "metrics.csv", "events.csv", "meta.json"):
            assert (out / name).exists(), name
        with open(out / "trajectory.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "x_0", "x_1", "x_2", "x_3", "V", "E_tot"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["x0"] == [1.0, -1.0, 0.5, -0.5]
        assert meta["protocol"]["f"]["type"] == "linear"

    def test_no_settle_exit_code(self, tmp_path, cycle4_net, linear_protocol, x0_file):
        res = run_cli(
            "simulate", cycle4_net, linear_protocol,
            "--x0-file", x0_file, "--dt", "1e-3", "--t-end", "0.01",
            "--epsilon", "1e-9", "--out", str(tmp_path / "run"),
        )
        assert res.returncode == 3
        assert "did not settle" in res.stdout

    def test_no_epsilon_always_ok(self, tmp_path, cycle4_net, linear_protocol, x0_file):
        res = run_cli(
            "simulate", cycle4_net, linear_protocol,
            "--x0-file", x0_file, "--dt", "1e-3", "--t-end", "0.01",
            "--out", str(tmp_path / "run"),
        )
        assert res.returncode == 0
        assert "finished at" in res.stdout

    def test_missing_network_file(self, tmp_path, linear_protocol, x0_file):
        res = run_cli(
            "simulate", str(tmp_path / "absent.json"), linear_protocol,
            "--x0-file", x0_file, "--t-end", "1.0",
        )
        assert res.returncode == 1
        assert "absent.json" in res.stderr

    def test_x0_sources_exclusive(self, tmp_path, cycle4_net, linear_protocol, x0_file):
        res = run_cli(
            "simulate", cycle4_net, linear_protocol,
            "--x0-file", x0_file, "--x0-lcg", "--t-end", "1.0",
        )
        assert res.returncode == 1
        assert "mutually exclusive" in res.stderr

    def test_x0_required(self, cycle4_net, linear_protocol):
        res = run_cli("simulate", cycle4_net, linear_protocol, "--t-end", "1.0")
        assert res.returncode == 1

    def test_lcg_x0(self, tmp_path, cycle4_net, linear_protocol):
        out = tmp_path / "run"
        res = run_cli(
            "simulate", cycle4_net, linear_protocol,
            "--x0-lcg", "--dt", "1e-3", "--t-end", "0.01", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        meta = json.loads((out / "meta.json").read_text())
        assert meta["x0"][0] == -9.98046875
        assert meta["x0"][1] == -9.1015625

    def test_divergence_exit_code(self, tmp_path, cycle4_net):
        proto = write_json(
            tmp_path / "ft.json",
            {"direction": "aggregated",
             "f": {"type": "fixed_time", "k1": 1.0, "k2": 1000.0,
                   "p": 0.5, "q": 3.0}},
        )
        x0 = tmp_path / "big.txt"
        x0.write_text("1000.0\n0.0\n0.0\n-1000.0\n")
        res = run_cli(
            "simulate", cycle4_net, proto,
            "--x0-file", str(x0), "--dt", "1e-3", "--t-end", "5.0",
            "--out", str(tmp_path / "run"),
        )
        assert res.returncode == 2
        assert "diverged" in res.stderr.lower()

    def test_byte_identical_reruns(self, tmp_path, cycle4_net, linear_protocol, x0_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = run_cli(
                "simulate", cycle4_net, linear_protocol,
                "--x0-file", x0_file, "--dt", "1e-3", "--t-end", "2.0",
                "--record-stride", "10", "--out", str(out),
            )
            assert res.returncode == 0, res.stderr
            outs.append(out)
        for name in ("trajectory.csv", "metrics.csv", "events.csv", "meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()



@st.composite
def streamed_runs(draw):
    """A switched run (net, protocol, x0, cfg), per-node effort on or off,
    and the number of steps in a block. The run may be shorter than one
    block, and may stop early."""
    dt = 1e-3
    block = draw(st.integers(1, 64))
    if draw(st.booleans()):
        steps = draw(st.integers(1, max(1, block - 1)))
    else:
        steps = draw(st.integers(block, 600))
    n = draw(st.integers(4, 6))
    members = [
        circulant_graph(n, {1}),
        WeightedDigraph.undirected(n, [(0, 1)]),
        circulant_graph(n, {1, 2}),
    ]
    # a block observes steps [k block, (k + 1) block): switch at the steps
    # next to and on its edges
    edges = sorted({k * block + d for k in range(1, steps // block + 2) for d in (-1, 0, 1)})
    cuts = draw(st.lists(st.sampled_from([c for c in edges if c >= 1]), min_size=1,
                         max_size=4, unique=True))
    indices = [draw(st.integers(0, 2))]
    for _ in cuts:
        indices.append((indices[-1] + draw(st.integers(1, 2))) % 3)
    t0 = dt * draw(st.integers(0, 300))
    signal = Breakpoints(
        times=tuple(t0 + dt * c for c in sorted(cuts)), indices=tuple(indices), t0=t0
    )
    f = draw(st.sampled_from([Power(20.0, 0.5), Linear(20.0), Sign(2.0)]))
    protocol = Protocol(draw(st.sampled_from(list(Direction))), f)
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    cfg = SimConfig(
        t_end=t0 + dt * steps,
        dt=dt,
        stop_epsilon=draw(st.sampled_from([None, 0.05, 0.5])),
        record_stride=draw(st.integers(1, 40)),
        track_per_node=draw(st.booleans()),
    )
    return DynamicNetwork(members, signal), protocol, x0, cfg, block


class TestStreamedMetrics:
    """simulate formats metrics.csv block by block as the run integrates;
    every output keeps the bytes of one simulate call."""

    OUTPUTS = ("trajectory.csv", "metrics.csv", "events.csv", "meta.json")

    @staticmethod
    def example1(*flags):
        return ["simulate", str(EXAMPLE1 / "network.json"), str(EXAMPLE1 / "protocol.json"),
                "--x0-file", str(EXAMPLE1 / "x0.txt"), "--dt", "1e-3", "--t-end", "15",
                "--per-node", *flags]

    @settings(max_examples=60, deadline=None)
    @given(case=streamed_runs(), data=st.data())
    def test_files_equal_the_writers_of_one_simulate(self, case, data):
        net, protocol, x0, cfg, block = case
        traj = simulate(net, protocol, x0, cfg)
        last = len(traj.metrics.times) - 1
        if cfg.stop_epsilon is not None and last < round((cfg.t_end - net.signal.t0) / cfg.dt):
            # the sticky stop at step `last` ends a block or starts one
            if data.draw(st.booleans(), label="stop on a block edge"):
                block = data.draw(st.sampled_from(divisors(last) + divisors(last + 1)))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "x0.txt").write_text("".join(f"{v!r}\n" for v in x0))
            argv = [
                "simulate",
                write_json(tmp / "net.json", network_to_json(net)),
                write_json(tmp / "proto.json", protocol_to_json(protocol)),
                "--x0-file", str(tmp / "x0.txt"), "--dt", repr(cfg.dt),
                "--t-end", repr(cfg.t_end), "--record-stride", str(cfg.record_stride),
                "--out", str(tmp / "out"),
            ]
            if cfg.stop_epsilon is not None:
                argv += ["--epsilon", repr(cfg.stop_epsilon)]
            if cfg.track_per_node:
                argv.append("--per-node")
            with mock.patch.object(simulate_module, "BLOCK_STEPS", block):
                code, err = _main_quietly(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_NO_SETTLE), err
            write_trajectory_csv(tmp / "trajectory.csv", traj)
            write_metrics_csv(tmp / "metrics.csv", traj.metrics, per_node=cfg.track_per_node)
            write_events_csv(tmp / "events.csv", traj.events)
            for name in ("trajectory.csv", "metrics.csv", "events.csv"):
                assert (tmp / "out" / name).read_bytes() == (tmp / name).read_bytes(), name
        assert_no_child()

    def test_divergence_leaves_nothing(self, tmp_path, monkeypatch):
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        unstable = write_json(
            tmp_path / "unstable.json",
            {"direction": "aggregated", "f": {"type": "linear", "k": 1002.0}},
        )
        old = tmp_path / "old"
        old.mkdir()
        for name in self.OUTPUTS:
            (old / name).write_text(f"old {name}\n")
        fds = sorted(os.listdir("/proc/self/fd"))
        for out in (tmp_path / "new", old):
            argv = self.example1("--out", str(out))
            argv[2] = unstable
            code, err = _main_quietly(argv)
            # the run diverges with its first blocks formatted
            assert code == cli.EXIT_DIVERGED
            assert err == "error: state diverged at t=7.224: max |x_i| = 1e+12 exceeds 1e+12\n"
            assert_no_child()
        assert not (tmp_path / "new").exists()
        assert {p.name: p.read_text() for p in old.iterdir()} == {
            name: f"old {name}\n" for name in self.OUTPUTS
        }
        # the metrics rows went to a file beside each --out, which is gone
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old", "temp", "unstable.json"]
        assert not any(temp.iterdir())
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_same_bytes_as_one_simulate_without_a_child(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: (forks.append(None), fork())[1])
        out = tmp_path / "out"
        code, err = _main_quietly(self.example1("--epsilon", "0.01", "--out", str(out)))
        assert code == cli.EXIT_OK, err
        assert forks == []
        net, protocol, x0 = _example1_system()
        traj = simulate(net, protocol, x0, SimConfig(
            t_end=15.0, dt=1e-3, stop_epsilon=0.01, track_per_node=True,
        ))
        write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        write_metrics_csv(tmp_path / "metrics.csv", traj.metrics, per_node=True)
        write_events_csv(tmp_path / "events.csv", traj.events)
        write_meta_json(tmp_path / "meta.json", {
            "command": "simulate", "dt": 1e-3, "t_end": 15.0, "epsilon": 0.01,
            "record_stride": 1, "network": network_to_json(net),
            "protocol": protocol_to_json(protocol), "x0": [float(v) for v in x0],
            "version": __version__,
        })
        for name in self.OUTPUTS:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_per_node_rows_are_held_for_one_block(self, tmp_path):
        # 4100 steps of 100 nodes: 4096 rows of E_i alone would take 3.3 MB.
        # The run holds its E_i block buffer (2^14 floats), one block of
        # rows as it formats them, and V, E_tot and the step times (24
        # bytes a step, 0.1 MB here)
        net = write_json(tmp_path / "net.json", static_network_json(cycle_graph_json(100)))
        proto = write_json(
            tmp_path / "proto.json",
            {"direction": "aggregated", "f": {"type": "power", "k": 1.0, "alpha": 0.5}},
        )
        argv = ["simulate", net, proto, "--x0-lcg", "--dt", "1e-3", "--per-node",
                "--record-stride", "1000", "--t-end"]
        # the compiled stretch loop is loaded before the trace starts
        assert _main_quietly(argv + ["0.01", "--out", str(tmp_path / "warm")])[0] == cli.EXIT_OK
        tracemalloc.start()
        try:
            code, err = _main_quietly(argv + ["4.1", "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK, err
        assert peak < 2 * 2**20
        rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 4102 and len(rows[0].split(",")) == 103

    def test_metrics_csv_is_renamed_in_beside_the_others(self, tmp_path):
        # into a new --out, whose nearest existing ancestor holds the
        # temporary file, and again into the existing one
        out = tmp_path / "a" / "out"
        for _ in range(2):
            assert _main_quietly(self.example1("--out", str(out)))[0] == cli.EXIT_OK
            assert sorted(p.name for p in out.iterdir()) == sorted(self.OUTPUTS)
            assert [p.name for p in tmp_path.iterdir()] == ["a"]
            modes = {(out / name).stat().st_mode for name in self.OUTPUTS}
            assert len(modes) == 1

    def test_metrics_csv_that_is_a_directory(self, tmp_path):
        done, out = tmp_path / "done", tmp_path / "out"
        assert _main_quietly(self.example1("--out", str(done)))[0] == cli.EXIT_OK
        (out / "metrics.csv").mkdir(parents=True)
        code, err = _main_quietly(self.example1("--out", str(out)))
        assert code == cli.EXIT_INPUT
        assert err == f"error: [Errno 21] Is a directory: '{out / 'metrics.csv'}'\n"
        assert (out / "trajectory.csv").read_bytes() == (done / "trajectory.csv").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "trajectory.csv"]
        assert_no_child()


def test_keeps_the_names_the_benchmark_traces(monkeypatch):
    """bench/layers.py wraps names looked up on cli, write_metrics_csv
    among them, which cli itself no longer calls; a name cli drops stops
    every traced benchmark run in layers.install."""
    monkeypatch.syspath_prepend(str(EXAMPLE1.parent.parent / "bench"))
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()


class TestBenchmark:
    def test_sizes_must_include_anchor(self, tmp_path):
        res = run_cli(
            "benchmark", "--experiment", "1", "--sizes", "30",
            "--out", str(tmp_path),
        )
        assert res.returncode == 1
        assert "25" in res.stderr

    def test_bad_sizes_string(self, tmp_path):
        res = run_cli(
            "benchmark", "--experiment", "1", "--sizes", "a,b",
            "--out", str(tmp_path),
        )
        assert res.returncode == 1

    def test_coarse_sweep(self, tmp_path):
        res = run_cli(
            "benchmark", "--experiment", "1", "--sizes", "25",
            "--dt", "1e-3", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["direction"]) for r in rows] == [
            ("25", "per_edge"), ("25", "aggregated")
        ]
        assert all(r["protocol"] == "power" for r in rows)
        assert all(r["k1"] == "" and r["k2"] == "" for r in rows)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["experiment"] == 1
        assert "calibration" in meta


class TestVerify:
    def test_spectral_small_cycle(self, tmp_path):
        g = write_json(tmp_path / "c6.json", cycle_graph_json(6))
        res = run_cli("verify", g, "--spectral")
        assert res.returncode == 0, res.stderr
        assert "connected: yes" in res.stdout
        lam2 = next(
            float(line.split("=")[1])
            for line in res.stdout.splitlines()
            if line.startswith("lambda2 =")
        )
        assert lam2 == pytest.approx(1.0, abs=1e-9)
        assert "kappa1 = 2" in res.stdout
        assert "lambda2 <= kappa1: ok" in res.stdout

    def test_spectral_large_cycle_skips_kappa(self, tmp_path):
        g = write_json(tmp_path / "c25.json", cycle_graph_json(25))
        res = run_cli("verify", g, "--spectral")
        assert res.returncode == 0, res.stderr
        assert "kappa1" not in res.stdout

    def test_spectral_complete_graph_skips_bound(self, tmp_path):
        edges = [[i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]
        g = write_json(tmp_path / "k4.json",
                       {"n": 4, "undirected": True, "edges": edges})
        res = run_cli("verify", g, "--spectral")
        assert res.returncode == 0, res.stderr
        assert "skipped (complete graph)" in res.stdout

    @pytest.mark.parametrize("n", [9, 12])
    def test_spectral_complete_graph_without_the_search(self, tmp_path, monkeypatch, capsys, n):
        # the brute force search would run for minutes on K9 and beyond
        def no_search(g):
            raise AssertionError("edge_connectivity called on a complete graph")

        monkeypatch.setattr(cli, "edge_connectivity", no_search)
        edges = [[i, j, 1.0] for i in range(n) for j in range(i + 1, n)]
        g = write_json(tmp_path / f"k{n}.json", {"n": n, "undirected": True, "edges": edges})
        assert cli.main(["verify", g, "--spectral"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert f"kappa1 = {n - 1}\n" in out
        assert out.endswith("lambda2 <= kappa1: skipped (complete graph)\n")

    def test_spectral_complete_graph_prints_the_searched_kappa(self, tmp_path, capsys):
        edges = [[i, j, 1.0] for i in range(5) for j in range(i + 1, 5)]
        path = write_json(tmp_path / "k5.json", {"n": 5, "undirected": True, "edges": edges})
        assert cli.main(["verify", path, "--spectral"]) == cli.EXIT_OK
        kappa = edge_connectivity(WeightedDigraph.undirected(5, [(i, j) for i, j, _ in edges]))
        assert f"kappa1 = {kappa:.17g}\n" in capsys.readouterr().out

    def test_spectral_rejects_directed(self, tmp_path):
        g = write_json(tmp_path / "dir.json",
                       {"n": 3, "undirected": False,
                        "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
        res = run_cli("verify", g, "--spectral")
        assert res.returncode == 1
        assert "undirected" in res.stderr

    @pytest.fixture
    def phased_net(self, tmp_path):
        # each member alone is disconnected; their union is a path on 3 nodes
        g0 = {"n": 3, "undirected": True, "edges": [[0, 1, 1.0]]}
        g1 = {"n": 3, "undirected": True, "edges": [[1, 2, 1.0]]}
        return write_json(
            tmp_path / "phased.json",
            {"signal": {"type": "floor_modulo", "rate": 1.0, "modulus": 2},
             "graphs": [g0, g1]},
        )

    def test_joint_connectivity_pass(self, phased_net):
        res = run_cli("verify", phased_net, "--tau", "2.0")
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("disconnected (2 components)") == 2
        assert "tau-jointly connected" in res.stdout

    # one static member on 3 nodes: the member line and the window verdict
    # agree under the unilateral notion they both name
    @pytest.mark.parametrize(
        "edges, state, code",
        [
            ([[0, 1, 1.0], [2, 1, 1.0]], "disconnected", 4),
            ([[0, 1, 1.0], [0, 2, 1.0]], "disconnected", 4),
            ([[0, 1, 1.0], [1, 2, 1.0]], "connected", 0),
        ],
        ids=["in-star", "out-star", "directed-path"],
    )
    def test_digraph_member_lines_match_the_verdict(self, tmp_path, edges, state, code):
        net = write_json(
            tmp_path / "digraph.json",
            {"signal": {"type": "floor_modulo", "rate": 1.0, "modulus": 1},
             "graphs": [{"n": 3, "undirected": False, "edges": edges}]},
        )
        res = run_cli("verify", net, "--tau", "1")
        assert res.returncode == code, res.stderr
        verdict = (
            "tau-jointly connected: tau=1, horizon=3" if code == 0
            else "FAIL: union over [0, 1] is disconnected (tau=1, horizon=3)"
        )
        assert res.stdout.splitlines() == [
            "connectivity: unilateral (each pair of nodes joined by a path one way or the other)",
            f"member 0: {state}",
            verdict,
        ]

    def test_joint_connectivity_fail(self, phased_net):
        res = run_cli("verify", phased_net, "--tau", "0.5")
        assert res.returncode == 4
        assert "FAIL" in res.stdout

    @staticmethod
    def _ring_and_pairs(tmp_path, signal):
        """A network of a 4-ring (member 0) and the two edges {0,1} and
        {2,3} (member 1) under signal."""
        ring = cycle_graph_json(4)
        pairs = {"n": 4, "undirected": True, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}
        return write_json(tmp_path / "ring-pairs.json", {"signal": signal, "graphs": [ring, pairs]})

    # windows hold members by dwell number, so a float floor at a switch
    # instant cannot pick the wrong one
    def test_fast_example2_windows_hold_every_member(self, capsys):
        argv = ["verify", str(EXAMPLE2 / "network_sigma2.json"), "--tau", "0.1", "--horizon", "40"]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            "tau-jointly connected: tau=0.1, horizon=40"
        )

    def test_window_of_the_disconnected_member_alone_fails(self, tmp_path, capsys):
        net = self._ring_and_pairs(tmp_path, {"type": "floor_modulo", "rate": 1.9, "modulus": 2})
        assert cli.main(["verify", net, "--tau", "0.3"]) == cli.EXIT_VERIFY_FAIL
        assert capsys.readouterr().out.splitlines()[-1] == (
            "FAIL: union over [0.52631578947368418, 0.82631578947368411] "
            "is disconnected (tau=0.3, horizon=0.9)"
        )

    def test_horizon_equal_to_tau_after_a_late_t0(self, tmp_path, capsys):
        # t0 + horizon - tau rounds below t0: the window at t0 alone
        signal = {"type": "floor_modulo", "rate": 2.0, "modulus": 2, "t0": 0.25}
        net = self._ring_and_pairs(tmp_path, signal)
        assert cli.main(["verify", net, "--tau", "0.1", "--horizon", "0.1"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            "tau-jointly connected: tau=0.1, horizon=0.1"
        )

    def test_tau_required(self, phased_net):
        res = run_cli("verify", phased_net)
        assert res.returncode == 1
        assert "--tau" in res.stderr


class TestParsing:
    def test_unknown_subcommand(self):
        res = run_cli("frobnicate")
        assert res.returncode == 1

    def test_no_arguments(self):
        res = run_cli()
        assert res.returncode == 1

    def test_bad_flag_value(self, tmp_path):
        res = run_cli("benchmark", "--experiment", "7", "--sizes", "25",
                      "--out", str(tmp_path))
        assert res.returncode == 1


class TestMalformedInput:
    """Malformed JSON inputs are input errors (exit 1) that name the file
    and the field; main returns instead of raising."""

    @pytest.fixture
    def files(self, tmp_path):
        graph = {"n": 3, "undirected": True, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
        no_flag = {k: v for k, v in graph.items() if k != "undirected"}
        no_n = {k: v for k, v in graph.items() if k != "n"}
        proto = {"direction": "aggregated", "f": {"type": "linear", "k": 1.0}}
        p = tmp_path
        (p / "x0.txt").write_text("1.0\n0.0\n-1.0\n")
        return {
            "net": write_json(p / "net.json", static_network_json(graph)),
            "net_no_flag": write_json(p / "net_no_flag.json", static_network_json(no_flag)),
            "graph_no_n": write_json(p / "graph_no_n.json", no_n),
            "proto": write_json(p / "proto.json", proto),
            "proto_no_k": write_json(
                p / "proto_no_k.json",
                {"direction": "aggregated", "f": {"type": "power", "alpha": 0.5}},
            ),
            "proto_list": write_json(p / "proto_list.json", [proto]),
            "x0": str(p / "x0.txt"),
        }

    @pytest.mark.parametrize(
        "argv, file, field",
        [
            (["simulate", "net", "proto_no_k"], "proto_no_k", "'k'"),
            (["simulate", "net_no_flag", "proto"], "net_no_flag", "'undirected'"),
            (["verify", "graph_no_n", "--spectral"], "graph_no_n", "'n'"),
            (["simulate", "net", "proto_list"], "proto_list", "JSON object"),
        ],
        ids=["power-without-k", "graph-without-flag", "spectral-without-n", "protocol-list"],
    )
    def test_exit_one_without_traceback(self, files, capsys, tmp_path, argv, file, field):
        args = [files.get(a, a) for a in argv]
        if argv[0] == "simulate":
            args += ["--x0-file", files["x0"], "--t-end", "0.01", "--out", str(tmp_path / "o")]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in err
        assert files[file] in err and field in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--epsilon", "nan"], "stop_epsilon must be positive and finite, got nan"),
            (["simulate", "--epsilon", "inf"], "stop_epsilon must be positive and finite, got inf"),
            (["benchmark", "--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
            (["benchmark", "--target-v", "nan"], "target_v must be positive and finite, got nan"),
            (["benchmark", "--target-t", "nan"], "target_t must be positive and finite, got nan"),
            (["benchmark", "--target-t", "-1"], "target_t must be positive and finite, got -1.0"),
            (["benchmark", "--dt", "nan"], "dt must be positive and finite, got nan"),
            (["benchmark", "--dt", "inf"], "dt must be positive and finite, got inf"),
            (["verify", "--tau", "nan"], "--tau must be positive and finite, got nan"),
        ],
        ids=["simulate-epsilon-nan", "simulate-epsilon-inf", "benchmark-epsilon-nan",
             "target-v-nan", "target-t-nan", "target-t-negative", "dt-nan", "dt-inf",
             "tau-nan"],
    )
    def test_thresholds_that_are_not_positive_and_finite(self, capsys, tmp_path, argv, message):
        command, flags = argv[0], argv[1:]
        out = ["--out", str(tmp_path / "o")]
        if command == "simulate":
            args = TestStreamedMetrics.example1("--t-end", "0.01", *flags, *out)
        elif command == "benchmark":
            args = ["benchmark", "--experiment", "1", "--sizes", "25", *flags, *out]
        else:
            args = ["verify", str(EXAMPLE1 / "network.json"), *flags]
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_well_formed_files_run(self, files, capsys, tmp_path):
        args = ["simulate", files["net"], files["proto"], "--x0-file", files["x0"],
                "--t-end", "0.01", "--out", str(tmp_path / "o")]
        assert cli.main(args) == cli.EXIT_OK

    def test_too_many_steps(self, capsys, tmp_path):
        # (t_end - t0) / dt overflows a float
        args = ["simulate", str(EXAMPLE1 / "network.json"), str(EXAMPLE1 / "protocol.json"),
                "--x0-file", str(EXAMPLE1 / "x0.txt"), "--t-end", "1e300", "--dt", "1e-300",
                "--out", str(tmp_path / "o")]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in err
        assert "t_end = 1e+300" in err and "dt = 1e-300" in err

    def test_too_many_steps_to_record(self, capsys, tmp_path):
        # 1e16 steps count fine, but their per-step record cannot be allocated
        args = ["simulate", str(EXAMPLE1 / "network.json"), str(EXAMPLE1 / "protocol.json"),
                "--x0-file", str(EXAMPLE1 / "x0.txt"), "--t-end", "1e12", "--dt", "1e-4",
                "--out", str(tmp_path / "o")]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in err
        assert "10000000000000000 steps" in err and "dt = 0.0001" in err and "t_end = " in err

    # each array is 800 TB, past the 128 TiB of any address space, so it
    # fails at its allocation, before any work over the nodes, whatever
    # the host's overcommit setting
    def test_initial_state_too_large_to_hold(self, capsys, tmp_path):
        n = 10**14
        network = static_network_json({"n": n, "undirected": True, "edges": []})
        args = ["simulate", write_json(tmp_path / "net.json", network),
                str(EXAMPLE1 / "protocol.json"), "--x0-lcg", "--t-end", "0.01", "--dt", "1e-3",
                "--out", str(tmp_path / "o")]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in err
        assert err.startswith("error: ") and f"initial state of {n} nodes" in err
        assert f"({n} floats)" in err and not (tmp_path / "o").exists()

    def test_spectral_graph_too_large_to_hold(self, capsys, tmp_path, monkeypatch):
        n = 10**7
        graph = write_json(tmp_path / "g.json", {"n": n, "undirected": True, "edges": []})
        # lambda2 comes first, so no search over the vertices runs
        monkeypatch.setattr(cli, "weak_components", None)
        code = cli.main(["verify", graph, "--spectral"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in captured.err and captured.out == ""
        assert captured.err.startswith("error: ") and f"matrix of {n} nodes" in captured.err
        assert f"({n * n} floats)" in captured.err

    @pytest.mark.parametrize(
        "signal",
        [
            {"type": "floor_modulo", "rate": 5e-324, "modulus": 2},
            {"type": "floor_modulo", "rate": 1e-306, "modulus": 2},
            {"type": "floor_modulo", "rate": 1.0, "modulus": 2, "t0": 1e308},
            {"type": "breakpoints", "times": [1e308], "indices": [0, 1], "t0": -1e308},
        ],
        ids=["rate-underflow", "period-overflow", "t0-overflow", "breakpoint-overflow"],
    )
    def test_signal_too_far_for_the_step_grid(self, capsys, tmp_path, signal):
        network = json.loads((EXAMPLE1 / "network.json").read_text())
        network["signal"] = signal
        args = ["simulate", write_json(tmp_path / "net.json", network),
                str(EXAMPLE1 / "protocol.json"), "--x0-file", str(EXAMPLE1 / "x0.txt"),
                "--t-end", "0.01", "--dt", "1e-3", "--out", str(tmp_path / "o")]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert "Traceback" not in err
        assert "step" in err


def _example1_system():
    """configs/example1's network, protocol and initial state."""
    net = network_from_json(json.loads((EXAMPLE1 / "network.json").read_text()))
    protocol = protocol_from_json(json.loads((EXAMPLE1 / "protocol.json").read_text()))
    return net, protocol, load_x0(EXAMPLE1 / "x0.txt")


def _main_quietly(argv):
    """cli.main in process; returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check_inputs(network, protocol):
    """Run simulate and verify on the given JSON values; every run must end
    with an exit code of the README's table and print no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        net = write_json(tmp / "net.json", network)
        proto = write_json(tmp / "proto.json", protocol)
        runs = [
            ["simulate", net, proto, "--x0-lcg", "--dt", "1e-3", "--t-end", "0.01",
             "--epsilon", "0.01", "--out", str(tmp / "o")],
            ["verify", net, "--tau", "0.5"],
            ["verify", net, "--spectral"],
        ]
        for argv in runs:
            code, err = _main_quietly(argv)
            assert code in EXIT_CODES, (argv[0], code, err)
            assert "Traceback" not in err, err


# keys and string values of the network, graph and protocol schemas, so that
# arbitrary values reach past the first field check
_VOCABULARY = [
    "signal", "graphs", "type", "floor_modulo", "breakpoints", "rate", "modulus",
    "offset", "t0", "times", "indices", "n", "undirected", "edges", "direction",
    "aggregated", "per_edge", "f", "linear", "sign", "power", "fixed_time", "k",
    "alpha", "k1", "k2", "p", "q",
]
# integers stay small: a graph's n sizes dense matrices in verify --spectral
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-100.0, 100.0)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from(_VOCABULARY)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_VOCABULARY) | st.text(max_size=3), children, max_size=5),
    max_leaves=24,
)


def _field_paths(obj, path=()):
    """Path of every object field and array element below obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


_DROP = object()
# dropped, null, a string, a list, nan, a negative and the smallest positive
# float: a tiny switching rate once overflowed the switching period
MUTATIONS = [_DROP, None, "x", [], math.nan, -1.0, 5e-324]


def _mutated(obj, path, value):
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


class TestArbitraryInput:
    """No JSON input makes the CLI print a traceback (see the README's exit
    code table)."""

    @settings(max_examples=100, deadline=None)
    @given(network=JSON_VALUES, protocol=JSON_VALUES)
    def test_arbitrary_json_values(self, network, protocol):
        _check_inputs(network, protocol)

    def test_single_field_mutations_of_example1(self):
        network = json.loads((EXAMPLE1 / "network.json").read_text())
        protocol = json.loads((EXAMPLE1 / "protocol.json").read_text())
        for path in _field_paths(network):
            for value in MUTATIONS:
                _check_inputs(_mutated(network, path, value), protocol)
        for path in _field_paths(protocol):
            for value in MUTATIONS:
                _check_inputs(network, _mutated(protocol, path, value))
