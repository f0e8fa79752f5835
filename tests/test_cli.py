"""End-to-end checks of the command-line interface, via subprocess and in process."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from consensus_lab import cli
from consensus_lab.graphs import WeightedDigraph, circulant_graph
from consensus_lab.io import load_x0, write_events_csv, write_metrics_csv, write_trajectory_csv
from consensus_lab.protocols import (
    Direction, Linear, Power, Protocol, Sign, protocol_from_json, protocol_to_json,
)
from consensus_lab.simulate import SimConfig, simulate
from consensus_lab.switching import (
    Breakpoints, DynamicNetwork, network_from_json, network_to_json,
)

from gen import assert_no_child

EXAMPLE1 = Path(__file__).resolve().parent.parent / "configs" / "example1"
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



def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@st.composite
def streamed_runs(draw):
    """A switched run (net, protocol, x0, cfg), per-node effort on or off,
    and the number of steps in a piece. The run may be shorter than one
    piece, and may stop early."""
    dt = 1e-3
    piece = draw(st.integers(1, 64))
    if draw(st.booleans()):
        steps = draw(st.integers(1, max(1, piece - 1)))
    else:
        steps = draw(st.integers(piece, 600))
    n = draw(st.integers(4, 6))
    members = [
        circulant_graph(n, {1}),
        WeightedDigraph.undirected(n, [(0, 1)]),
        circulant_graph(n, {1, 2}),
    ]
    # a piece observes steps [k piece, (k + 1) piece): switch at the steps
    # next to and on its edges
    edges = sorted({k * piece + d for k in range(1, steps // piece + 2) for d in (-1, 0, 1)})
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
    return DynamicNetwork(members, signal), protocol, x0, cfg, piece


class TestStreamedMetrics:
    """simulate formats metrics.csv in a forked child while the run
    integrates; every output keeps the bytes of one simulate call."""

    OUTPUTS = ("trajectory.csv", "metrics.csv", "events.csv", "meta.json")

    @staticmethod
    def example1(*flags):
        return ["simulate", str(EXAMPLE1 / "network.json"), str(EXAMPLE1 / "protocol.json"),
                "--x0-file", str(EXAMPLE1 / "x0.txt"), "--dt", "1e-3", "--t-end", "15",
                "--per-node", *flags]

    @settings(max_examples=60, deadline=None)
    @given(case=streamed_runs(), data=st.data())
    def test_files_equal_the_writers_of_one_simulate(self, case, data):
        net, protocol, x0, cfg, piece = case
        traj = simulate(net, protocol, x0, cfg)
        last = len(traj.metrics.times) - 1
        if cfg.stop_epsilon is not None and last < round((cfg.t_end - net.signal.t0) / cfg.dt):
            # the sticky stop at step `last` ends a piece or starts one
            if data.draw(st.booleans(), label="stop on a piece edge"):
                piece = data.draw(st.sampled_from(_divisors(last) + _divisors(last + 1)))
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
            # without os.fork, each piece is formatted in this process
            in_process = data.draw(st.booleans(), label="without os.fork")
            fork = _without_fork() if in_process else contextlib.nullcontext()
            with mock.patch.object(cli, "PIECE_STEPS", piece), fork:
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
            # the run diverges in its second piece, with the writer busy
            assert code == cli.EXIT_DIVERGED
            assert err == "error: state diverged at t=7.224: max |x_i| = 1e+12 exceeds 1e+12\n"
            assert_no_child()
        assert not (tmp_path / "new").exists()
        assert {p.name: p.read_text() for p in old.iterdir()} == {
            name: f"old {name}\n" for name in self.OUTPUTS
        }
        assert not any(temp.iterdir())
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_same_bytes_without_fork(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: (forks.append(None), fork())[1])
        outs = []
        for name in ("forked", "in-process"):
            if name == "in-process":
                monkeypatch.delattr(os, "fork")
            outs.append(tmp_path / name)
            code, err = _main_quietly(self.example1("--epsilon", "0.01", "--out", str(outs[-1])))
            assert code == cli.EXIT_OK, err
            assert len(forks) == 1
        assert_no_child()
        for name in self.OUTPUTS:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_run_holds_one_piece_of_per_node_rows(self, tmp_path, monkeypatch):
        held, runs = [], []
        send = cli._MetricsWriter.send

        def watched_send(writer):
            send(writer)
            runs.append(writer._run)
            held.append(len(writer._run.components[0].E_i))

        monkeypatch.setattr(cli, "PIECE_STEPS", 100)
        monkeypatch.setattr(cli._MetricsWriter, "send", watched_send)
        outs = []
        for name in ("forked", "in-process"):
            if name == "in-process":
                monkeypatch.delattr(os, "fork")
            outs.append(tmp_path / name)
            # 1001 steps: ten full pieces and one of a single step
            code, err = _main_quietly(self.example1("--t-end", "1", "--out", str(outs[-1])))
            assert code == cli.EXIT_OK, err
            assert len(held) == 11
            # after every send the run holds at most one piece of E_i rows
            assert max(held) <= 100
            # and never reports a partial E_i
            run = runs[-1]
            assert run.metrics().E_i is None
            assert run.trajectory().metrics.E_i is None
            assert len(run.metrics().V) == 1001
            held.clear()
        assert_no_child()
        traj = simulate(*_example1_system(), SimConfig(t_end=1.0, dt=1e-3, track_per_node=True))
        write_metrics_csv(tmp_path / "metrics.csv", traj.metrics, per_node=True)
        for out in outs:
            assert (out / "metrics.csv").read_bytes() == (tmp_path / "metrics.csv").read_bytes()

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

    def test_writer_that_dies(self, tmp_path):
        def die(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        with mock.patch.object(cli, "_format_metrics", die):
            code, err = _main_quietly(self.example1("--out", str(tmp_path / "out")))
        assert code == cli.EXIT_INPUT
        assert err.endswith(f"sent no result: wait status {signal.SIGKILL}\n")
        assert not (tmp_path / "out").exists()
        assert_no_child()


def test_keeps_the_names_the_benchmark_traces(monkeypatch):
    """bench/layers.py wraps names looked up on cli, write_metrics_csv and
    simulate among them, which cli itself no longer calls; a name cli drops
    stops every traced benchmark run in layers.install."""
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

    def test_joint_connectivity_fail(self, phased_net):
        res = run_cli("verify", phased_net, "--tau", "0.5")
        assert res.returncode == 4
        assert "FAIL" in res.stdout

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


@contextlib.contextmanager
def _without_fork():
    """os.fork removed, as on a platform that has none."""
    fork = os.fork
    del os.fork
    try:
        yield
    finally:
        os.fork = fork


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
