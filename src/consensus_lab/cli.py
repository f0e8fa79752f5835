"""Command-line surface: simulate, benchmark, verify.

Exit codes: 0 ok, 1 input or I/O error, 2 divergence, 3 no settle, 4
verification failed. Outputs are deterministic; identical invocations write
byte-identical files.

simulate advances simulate's run in pieces of PIECE_STEPS steps and sends
each piece's rows to a forked child, which formats metrics.csv while the
run goes on (see _MetricsWriter). This process still creates every output
file itself, in the order trajectory.csv, metrics.csv, events.csv,
meta.json, and only after the run: a run that diverges writes nothing, and
an unwritable path fails where it always did.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__
from .benchmark import (
    CalibrationError,
    LcgConfig,
    lcg_initial_conditions,
    run_experiment,
)
from .forked import ForkedCall, can_fork
from .graphs import (
    algebraic_connectivity,
    edge_connectivity,
    graph_from_json,
    weak_components,
)
from .io import (
    load_x0,
    write_events_csv,
    write_meta_json,
    write_metrics_csv,
    write_metrics_rows,
    write_results_csv,
    write_trajectory_csv,
)
from .metrics import MetricSeries, settling_time
from .protocols import protocol_from_json, protocol_to_json
# bench/layers.py traces consensus_lab.cli.simulate, so the name stays
from .simulate import (  # noqa: F401
    DivergenceError,
    SimConfig,
    _open_run,
    _step_times,
    simulate,
)
from .switching import is_tau_jointly_connected, network_from_json, network_to_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_NO_SETTLE = 3
EXIT_VERIFY_FAIL = 4

# steps a simulate run advances between two sends to the metrics writer:
# at 32768 the writer's tail after the run's last piece was too long
PIECE_STEPS = 4096


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of argparse's default sys.exit(2): bad flags are input
    # errors and must map to exit code 1
    def error(self, message):
        raise CliError(message)


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} file {path} is not valid JSON: {exc}") from None


def _read(path, what, parse):
    """Parse a JSON input file; a malformed one is an input error naming it."""
    obj = _load_json(path, what)
    try:
        return parse(obj)
    except ValueError as exc:
        raise CliError(f"{what} file {path}: {exc}") from None


def _lcg_from_args(args):
    return LcgConfig(
        r=args.lcg_r, s=args.lcg_s, M=args.lcg_modulus,
        l=args.lcg_l, m=args.lcg_m, z0=args.lcg_z0,
    )


def cmd_simulate(args) -> int:
    net = _read(args.network, "network", network_from_json)
    protocol = _read(args.protocol, "protocol", protocol_from_json)
    if args.x0_file and args.x0_lcg:
        raise CliError("--x0-file and --x0-lcg are mutually exclusive")
    if args.x0_file:
        try:
            x0 = load_x0(args.x0_file)
        except FileNotFoundError:
            raise CliError(f"x0 file not found: {args.x0_file}") from None
    elif args.x0_lcg:
        x0 = lcg_initial_conditions(_lcg_from_args(args), net.n)
    else:
        raise CliError("one of --x0-file or --x0-lcg is required")

    cfg = SimConfig(
        t_end=args.t_end,
        dt=args.dt,
        stop_epsilon=args.epsilon,
        record_stride=args.record_stride,
        track_per_node=args.per_node,
    )
    # simulate's run, advanced in pieces so that metrics.csv is formatted
    # in a forked child while the run goes on
    run, last = _open_run([(net, protocol, x0)], cfg)
    writer = _MetricsWriter(run, args.per_node)
    try:
        # fork before the records are reserved, so the child holds none
        writer.start()
        run.reserve(last)
        c = run.components[0]
        for first in range(0, last + 1, PIECE_STEPS):
            run.advance(min(first + PIECE_STEPS, last + 1) - 1)
            writer.send()
            if c.ended:
                break
        if c.error is not None:
            raise c.error
        traj = run.trajectory()

        os.makedirs(args.out, exist_ok=True)
        write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), traj)
        writer.write(os.path.join(args.out, "metrics.csv"))
    finally:
        writer.close()
    write_events_csv(os.path.join(args.out, "events.csv"), traj.events)
    write_meta_json(
        os.path.join(args.out, "meta.json"),
        {
            "command": "simulate",
            "dt": args.dt,
            "t_end": args.t_end,
            "epsilon": args.epsilon,
            "record_stride": args.record_stride,
            "network": network_to_json(net),
            "protocol": protocol_to_json(protocol),
            "x0": [float(v) for v in x0],
            "version": __version__,
        },
    )
    final_v = float(traj.metrics.V[-1])
    if args.epsilon is not None:
        t_star = settling_time(traj.metrics, args.epsilon)
        if t_star is None:
            print(
                f"did not settle below epsilon={args.epsilon:g} by "
                f"t={traj.metrics.times[-1]:g} (final V={final_v:g})"
            )
            return EXIT_NO_SETTLE
        print(f"settled at t={t_star:.17g} (epsilon={args.epsilon:g})")
    else:
        print(f"finished at t={traj.metrics.times[-1]:g} with V={final_v:.17g}")
    return EXIT_OK


class _MetricsWriter:
    """metrics.csv of a one-system run, formatted by a forked child while
    the run integrates.

    start() forks the child; send() passes it the rows the run observed
    since the last send, as the raw bytes of the run's V, E_tot and E_i
    records after the piece's end step. The child rebuilds each piece's
    times and formats it with io.write_metrics_rows into an unlinked
    temporary file. write(path) creates path here, in this process, waits
    for the child and copies its bytes into path. close() kills and reaps
    a child that has not finished and frees the pipe and the file. Where
    os.fork does not exist, start() and send() do nothing, and write(path)
    formats the run's metrics here, after the run.
    """

    def __init__(self, run, per_node):
        self._run, self._per_node = run, per_node
        self._sent = 0  # first step not yet sent
        self._child = self._wfd = self._tmp = None

    def start(self):
        if not can_fork():
            return
        self._tmp = tempfile.TemporaryFile()
        rfd, self._wfd = os.pipe()
        try:
            self._child = ForkedCall(
                functools.partial(
                    _format_metrics, rfd, self._wfd, self._tmp.fileno(),
                    self._run.components[0].n, self._per_node, self._run.dt, self._run.t0,
                )
            )
        finally:
            os.close(rfd)

    def send(self):
        if self._wfd is None:
            return
        c = self._run.components[0]
        a, e = self._sent, c.next
        piece = [e.to_bytes(8, "little"), c.V[a:e], c.E_tot[a:e]]
        if self._per_node:
            piece.append(c.E_i[a:e])
        try:
            for data in piece:
                view = memoryview(data).cast("B")
                while view:
                    view = view[os.write(self._wfd, view):]
        except BrokenPipeError:
            self._wait()  # raises what stopped the child
            raise
        self._sent = e

    def _wait(self):
        """Close the pipe and wait for the child to format what it was
        sent; raise the error it met, if any."""
        os.close(self._wfd)
        self._wfd = None
        error = self._child.result()
        if error is not None:
            raise error

    def write(self, path):
        if self._child is None:
            write_metrics_csv(path, self._run.metrics(), per_node=self._per_node)
            return
        with open(path, "wb") as fh:
            self._wait()
            self._tmp.seek(0)
            shutil.copyfileobj(self._tmp, fh)

    def close(self):
        if self._child is not None:
            self._child.close()
        if self._wfd is not None:
            os.close(self._wfd)
        if self._tmp is not None:
            self._tmp.close()


def _format_metrics(rfd, wfd, tmp_fd, n, per_node, dt, t0):
    """Body of the _MetricsWriter child: format the pieces read from rfd
    into tmp_fd until the sender closes the pipe. Returns None, or the
    OSError that stopped it."""
    os.close(wfd)  # the sender's end, or the pipe never reports its end

    def pieces(pipe):
        a = 0
        while head := pipe.read(8):
            e = int.from_bytes(head, "little")
            rows = e - a
            V = np.frombuffer(pipe.read(8 * rows))
            E_tot = np.frombuffer(pipe.read(8 * rows))
            E_i = np.frombuffer(pipe.read(8 * rows * n)).reshape(rows, n) if per_node else None
            yield MetricSeries(_step_times(a, e, dt, t0), V, E_tot, E_i)
            a = e

    try:
        with open(rfd, "rb") as pipe, open(tmp_fd, "w", newline="", closefd=False) as fh:
            write_metrics_rows(fh, pieces(pipe), per_node)
    except OSError as exc:
        return exc
    return None


def cmd_benchmark(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--sizes must be a comma list of integers, got {args.sizes!r}") from None
    if not sizes:
        raise CliError("--sizes is empty")
    rows, meta = run_experiment(
        args.experiment,
        sizes,
        dt=args.dt,
        epsilon=args.epsilon,
        target_v=args.target_v,
        target_t=args.target_t,
    )
    os.makedirs(args.out, exist_ok=True)
    write_results_csv(os.path.join(args.out, "results.csv"), rows)
    write_meta_json(os.path.join(args.out, "meta.json"), meta)
    for r in rows:
        print(
            f"n={r.n} {r.direction}: k={r.gain:.6g} "
            f"T={r.settling_time:.6g} E_tot={r.e_tot:.6g}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.spectral:
        g = _read(args.input, "graph", graph_from_json)
        if not g.undirected:
            raise CliError("--spectral needs an undirected graph")
        comps = weak_components(g)
        lam2 = algebraic_connectivity(g)
        print(f"n = {g.n}")
        print("connected: " + ("yes" if len(comps) == 1 else f"no ({len(comps)} components)"))
        print(f"lambda2 = {lam2:.17g}")
        if g.n <= 12:
            kappa = edge_connectivity(g)
            print(f"kappa1 = {kappa:.17g}")
            if len(g.edges) == g.n * (g.n - 1):
                # the spectral lower bound does not cover complete graphs
                print("lambda2 <= kappa1: skipped (complete graph)")
            elif lam2 > kappa + 1e-9:
                print(f"FAIL: lambda2 = {lam2:.17g} exceeds kappa1 = {kappa:.17g}")
                return EXIT_VERIFY_FAIL
            else:
                print("lambda2 <= kappa1: ok")
        return EXIT_OK

    if args.tau is None:
        raise CliError("--tau is required unless --spectral is given")
    if args.tau <= 0:
        raise CliError(f"--tau must be positive, got {args.tau}")
    net = _read(args.input, "network", network_from_json)
    horizon = args.horizon if args.horizon is not None else 3.0 * args.tau
    for i, g in enumerate(net.graphs):
        comps = weak_components(g)
        state = "connected" if len(comps) == 1 else f"disconnected ({len(comps)} components)"
        print(f"member {i}: {state}")
    ok, witness = is_tau_jointly_connected(net, args.tau, horizon)
    if ok:
        print(f"tau-jointly connected: tau={args.tau:g}, horizon={horizon:g}")
        return EXIT_OK
    print(
        f"FAIL: union over [{witness:.17g}, {witness + args.tau:.17g}] "
        f"is disconnected (tau={args.tau:g}, horizon={horizon:g})"
    )
    return EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    parser = _Parser(
        prog="consensus-lab",
        description="Finite- and fixed-time consensus on switched networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="integrate one closed-loop run")
    ps.add_argument("network", help="network JSON (graph family + signal)")
    ps.add_argument("protocol", help="protocol JSON (direction + node function)")
    ps.add_argument("--x0-file", help="initial state, one float per line")
    ps.add_argument("--x0-lcg", action="store_true", help="LCG initial state")
    ps.add_argument("--lcg-r", type=int, default=45)
    ps.add_argument("--lcg-s", type=int, default=1)
    ps.add_argument("--lcg-modulus", type=int, default=1024)
    ps.add_argument("--lcg-l", type=float, default=20.0)
    ps.add_argument("--lcg-m", type=float, default=10.0)
    ps.add_argument("--lcg-z0", type=int, default=1024)
    ps.add_argument("--dt", type=float, default=1e-4)
    ps.add_argument("--t-end", type=float, required=True)
    ps.add_argument("--epsilon", type=float, default=None,
                    help="stop threshold; also selects the settle exit code")
    ps.add_argument("--record-stride", type=int, default=1)
    ps.add_argument("--per-node", action="store_true",
                    help="track and write per-node effort columns")
    ps.add_argument("--out", default=".")
    ps.set_defaults(func=cmd_simulate)

    pb = sub.add_parser("benchmark", help="run a calibrated scaling sweep")
    pb.add_argument("--experiment", type=int, required=True, choices=(1, 2))
    pb.add_argument("--sizes", required=True, help="comma list; must include 25")
    pb.add_argument("--dt", type=float, default=1e-4)
    pb.add_argument("--epsilon", type=float, default=0.05)
    pb.add_argument("--target-v", type=float, default=0.05)
    pb.add_argument("--target-t", type=float, default=1.0)
    pb.add_argument("--out", default=".")
    pb.set_defaults(func=cmd_benchmark)

    pv = sub.add_parser("verify", help="connectivity and spectral checks")
    pv.add_argument("input", help="network JSON, or graph JSON with --spectral")
    pv.add_argument("--spectral", action="store_true",
                    help="report lambda2 (and kappa1 for n <= 12) of one graph")
    pv.add_argument("--tau", type=float, default=None)
    pv.add_argument("--horizon", type=float, default=None,
                    help="window sweep horizon (default 3*tau)")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SETTLE


if __name__ == "__main__":
    sys.exit(main())
