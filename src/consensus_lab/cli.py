"""Command-line surface: simulate, benchmark, verify.

Exit codes: 0 ok, 1 input or I/O error, 2 divergence, 3 no settle, 4
verification failed. Outputs are deterministic; identical invocations write
byte-identical files.

simulate runs simulate() once and formats the rows of metrics.csv of
each block of steps the run hands it, into a temporary file on the
filesystem of --out, which is renamed into place after the run. So the
per-node effort E_i is held for one block at a time, in the run's block
buffers; simulate() gathers V and E_tot whole, for trajectory.csv and the
settling time. The output files appear in the order
trajectory.csv, metrics.csv, events.csv, meta.json, and only after the
run: a run that diverges leaves nothing, not even the temporary file.
"""

from __future__ import annotations

import argparse
import json
import contextlib
import math
import os
import sys
import tempfile

from . import __version__
from .benchmark import (
    CalibrationError,
    LcgConfig,
    lcg_initial_conditions,
    run_experiment,
)
from .graphs import (
    algebraic_connectivity,
    edge_connectivity,
    graph_from_json,
    is_connected,
    weak_components,
)
# bench/layers.py traces consensus_lab.cli.write_metrics_csv, so the name stays
from .io import (  # noqa: F401
    load_x0,
    write_events_csv,
    write_meta_json,
    write_metrics_csv,
    write_metrics_header,
    write_metrics_rows,
    write_results_csv,
    write_trajectory_csv,
)
from .metrics import settling_time
from .protocols import protocol_from_json, protocol_to_json
from .simulate import DivergenceError, SimConfig, simulate
from .switching import is_tau_jointly_connected, network_from_json, network_to_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_NO_SETTLE = 3
EXIT_VERIFY_FAIL = 4


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


def _named_os_error(exc, path):
    """exc, an OSError, as one that names path."""
    return OSError(exc.errno, exc.strerror, path)


def _temporary_beside(out):
    """(file, path): a new file, open for binary writing, on
    the filesystem of the directory out, so that it can be renamed into
    out: in out if it is a directory, and otherwise in its nearest
    ancestor that is. Its mode is that of a file open() creates, 0o666
    less the umask."""
    where = os.path.abspath(out)
    while not os.path.isdir(where):
        where = os.path.dirname(where)
    try:
        fd, path = tempfile.mkstemp(prefix=".metrics-", suffix=".csv", dir=where)
    except OSError as exc:
        raise _named_os_error(exc, out) from None
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    return os.fdopen(fd, "wb"), path


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
    tmp, tmp_path = _temporary_beside(args.out)
    try:
        with tmp:
            write_metrics_header(tmp, net.n if args.per_node else 0)
            traj = simulate(
                net, protocol, x0, cfg,
                rows=lambda block: write_metrics_rows(tmp, block, args.per_node),
            )

        os.makedirs(args.out, exist_ok=True)
        write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), traj)
        metrics_path = os.path.join(args.out, "metrics.csv")
        try:
            os.replace(tmp_path, metrics_path)
        except OSError as exc:
            raise _named_os_error(exc, metrics_path) from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
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
        # first, so a graph too large for its Laplacian fails before any O(n) work
        lam2 = algebraic_connectivity(g)
        comps = weak_components(g)
        print(f"n = {g.n}")
        print("connected: " + ("yes" if len(comps) == 1 else f"no ({len(comps)} components)"))
        print(f"lambda2 = {lam2:.17g}")
        if g.n <= 12:
            complete = len(g.edges) == g.n * (g.n - 1)
            # a complete graph's edge connectivity is n - 1, which the brute
            # force search would take minutes to find from n = 9 on
            kappa = g.n - 1 if complete else edge_connectivity(g)
            print(f"kappa1 = {kappa:.17g}")
            if complete:
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
    if not (args.tau > 0 and math.isfinite(args.tau)):
        raise CliError(f"--tau must be positive and finite, got {args.tau}")
    net = _read(args.input, "network", network_from_json)
    horizon = args.horizon if args.horizon is not None else 3.0 * args.tau
    # the member lines and the window verdict judge by the same notion
    print("connectivity: unilateral (each pair of nodes joined by a path one way or the other)")
    for i, g in enumerate(net.graphs):
        if is_connected(g):
            state = "connected"
        elif g.undirected:
            state = f"disconnected ({len(weak_components(g))} components)"
        else:
            state = "disconnected"
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
