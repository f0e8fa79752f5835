"""Scaling benchmark: circulant topologies, LCG initial states, calibration.

The sweep alternates two unit-weight circulants, the ring C_n{1} and the
chorded ring C_n{1, h} with h the largest offset <= n/2 coprime to n, under
the signal floor(5t) mod 2. Gains are calibrated at n = 25 so both
directions of a protocol family settle to V = 0.05 at 1.00 s, then held
fixed across sizes so settling time and control effort can be compared as
the algebraic connectivity falls.

Calibration probes and sweep rows are independent systems that share the
signal, dt and the law, so each calibration round and each direction's
sweep runs as one union (see simulate._Run); every gain, settling time and
E_tot is that of a serial run. The two directions share nothing at all, so
run_experiment calibrates and sweeps the per-edge direction in a forked
child process beside the aggregated one, and raises the first failure in
serial order.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .metrics import settling_time
from .protocols import Direction, FixedTime, Power, Protocol
# bench/layers.py traces consensus_lab.benchmark.simulate, so the name stays
from .simulate import DivergenceError, _Run, _step_count, simulate  # noqa: F401
from .switching import DynamicNetwork, FloorModulo

__all__ = [
    "LcgConfig",
    "BenchmarkRow",
    "CalibrationError",
    "lcg_initial_conditions",
    "coprime_offset",
    "benchmark_topology",
    "benchmark_protocol",
    "calibrate_gain",
    "run_experiment",
]

GAIN_BRACKET = (1e-3, 1e3)
RETIRED = "> target_t + band"
BISECTION_STEPS = 48
# a bisection round probes the midpoints of the next PATH_LEVELS levels on
# the path toward the predicted gain, then every midpoint of the
# HEDGE_LEVELS levels below it: PATH_LEVELS + 2^HEDGE_LEVELS - 1 probes
PATH_LEVELS = 4
HEDGE_LEVELS = 2
H_RULE = "largest h <= floor(n/2) with gcd(h, n) = 1; member 1 = C_n{1, h}"


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class LcgConfig:
    r: int = 45
    s: int = 1
    M: int = 1024
    l: float = 20.0
    m: float = 10.0
    z0: int = 1024

    def __post_init__(self):
        if self.M <= 0:
            raise ValueError(f"modulus must be positive, got M={self.M}")


@dataclass(frozen=True)
class BenchmarkRow:
    n: int
    lambda2: float
    protocol: str
    direction: str
    gain: float
    settling_time: float
    e_tot: float
    dt: float
    epsilon: float


def lcg_initial_conditions(cfg: LcgConfig, n: int) -> np.ndarray:
    """States x_i = l z_i / M - m from z_{i+1} = (r z_i + s) mod M.

    z0 seeds the recurrence but is not emitted; x uses z_1 ... z_n.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    xs = np.empty(n)
    z = cfg.z0
    for i in range(n):
        z = (cfg.r * z + cfg.s) % cfg.M
        xs[i] = cfg.l * z / cfg.M - cfg.m
    return xs


def coprime_offset(n: int) -> int:
    """Largest h <= n/2 with gcd(h, n) = 1; the long-chord circulant offset."""
    for h in range(n // 2, 0, -1):
        if math.gcd(h, n) == 1:
            return h
    raise ValueError(f"no coprime offset for n={n}")


def benchmark_topology(n: int) -> DynamicNetwork:
    """Ring and chorded ring, switched by floor(5t) mod 2.

    The second member keeps the ring edges and adds the long chords
    (offsets {1, h}); the n = 25 reference control-effort anchors need
    the chords on top of the ring, not instead of it.
    """
    if n < 5:
        raise ValueError(f"benchmark topology needs n >= 5, got {n}")
    from .graphs import circulant_graph

    members = [
        circulant_graph(n, {1}),
        circulant_graph(n, {1, coprime_offset(n)}),
    ]
    return DynamicNetwork(members, FloorModulo(rate=5.0, modulus=2))


def benchmark_protocol(family: str, direction: Direction, k: float) -> Protocol:
    if family == "power":
        return Protocol(direction, Power(k, 0.5))
    if family == "fixed_time":
        return Protocol(direction, FixedTime(k, k, 0.5, 1.5))
    raise ValueError(f"unknown protocol family {family!r}")


def _snap_horizon(horizon: float, dt: float) -> float:
    return max(1, math.ceil(horizon / dt - 1e-9)) * dt


def _cut_step(t0, dt, target_t, band, last_step):
    """First step c < last_step whose successor time t_{c+1} is past target_t
    and fails the acceptance band test; None if no such step exists.

    The times and the test are the float expressions the settling time and
    the bisection use, so a run still above target_v at step c settles at
    t_{c+1} or later and can pass neither `T <= target_t` nor the band.
    """
    t = t0 + dt * np.arange(1, last_step + 1)
    past = (t > target_t) & ~(np.abs(t - target_t) <= band)
    return int(np.argmax(past)) if past.any() else None


def _bisection_midpoints(lo, hi, levels):
    """Every midpoint the next `levels` bisection levels from (lo, hi) may
    probe, in the floats the bisection computes them in."""
    if not levels:
        return []
    mid = 0.5 * (lo + hi)
    return (
        [mid]
        + _bisection_midpoints(lo, mid, levels - 1)
        + _bisection_midpoints(mid, hi, levels - 1)
    )


def _predict_gain(hi, t_hi, target_t):
    """Gain predicted to settle at target_t from the fast end hi of the
    bisection bracket, which settles at t_hi <= target_t.

    T(k) falls roughly like 1/k, so the prediction is hi t_hi / target_t.
    The bracket's end is used, not the slowest fast probe so far, because
    T(k) rises again at high gains, where Euler chatter delays the stop.
    """
    return hi * t_hi / target_t


def _predicted_path(lo, hi, k_hat, levels):
    """Midpoints of the next `levels` bisection levels from (lo, hi) on the
    path a predicted gain k_hat takes, and the bracket at its end.

    The path steps to the fast half, (lo, mid), when mid >= k_hat, and to
    the slow half otherwise; a NaN prediction steps to the slow half. The
    midpoints are the floats the bisection computes.
    """
    path = []
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if mid >= k_hat:
            hi = mid
        else:
            lo = mid
    return path, (lo, hi)


def calibrate_gain(family, direction, n, target_v, target_t, dt=1e-4, lcg=None):
    """Bisect the gain so settling_time(eps=target_v) hits target_t.

    k = k1 = k2 for the fixed-time family. Returns (gain, achieved time);
    the bisection exits early once the achieved time is within 10 dt of the
    target. Raises CalibrationError when the bracket endpoints do not
    straddle the target; its report of the pre-scan lists the gains a
    serial scan probes, with None for probes that diverged or never settled
    and RETIRED for retired ones.

    Probes run in rounds, each round one union run (see simulate._Run)
    that integrates no effort. Every probe first runs to the cut step (see
    _cut_step). If V is still above target_v there, the probe retires and
    leaves the union: its settling time lies past target_t + band, which
    every pre-scan and bisection test treats like a probe that never
    settles. Other probes run the full 4 target_t horizon. The pre-scan is
    one round of all seven grid gains. Each bisection round probes the
    midpoints of the next PATH_LEVELS levels on the path toward the gain
    that _predict_gain predicts from the bracket's fast end, and every
    midpoint of the HEDGE_LEVELS levels below that path's last bracket:
    up to PATH_LEVELS + HEDGE_LEVELS levels in one round. The serial
    decisions, including the early exit, are then replayed on the probed
    times, level by level, up to the first level whose midpoint was not
    probed; the next round starts from that level's bracket. A wrong
    prediction costs a round, never a decision: the returned gain and time
    are those of serial full-horizon probes.
    """
    if target_v <= 0 or target_t <= 0:
        raise ValueError("target_v and target_t must be positive")
    benchmark_protocol(family, direction, 1.0)  # validates the family name
    lcg = lcg or LcgConfig()
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(lcg, n)
    horizon = _snap_horizon(max(4 * target_t, 20 * dt), dt)
    band = 10 * dt
    last = _step_count(horizon, net.signal.t0, dt)
    cut = _cut_step(net.signal.t0, dt, target_t, band, last)

    def probe(gains):
        # settling time per gain; math.inf stands for a retired probe: past
        # the band, exact time unknown
        systems = [(net, benchmark_protocol(family, direction, k), x0) for k in gains]
        run = _Run(systems, dt, stop_epsilon=target_v, record_stride=10**9, effort=None)
        times = [None] * len(gains)
        if cut is not None:
            run.advance(cut)
            for i, c in enumerate(run.components):
                if c.error is None and run.metrics(i).V[-1] > target_v:
                    times[i] = math.inf
                    run.drop(i)
        run.advance(last)
        for i, c in enumerate(run.components):
            if times[i] is None and c.error is None:
                times[i] = settling_time(run.metrics(i), target_v)
        return dict(zip(gains, times))

    # T(k) falls like 1/k in the useful range but stops settling again at
    # extreme gains, where the Euler chatter amplitude outgrows target_v.
    # A geometric pre-scan picks the monotone sub-bracket before bisecting.
    grid = [GAIN_BRACKET[0]]
    while grid[-1] < GAIN_BRACKET[1]:
        grid.append(min(grid[-1] * 10.0, GAIN_BRACKET[1]))
    times = probe(grid)
    scanned = {}
    t_first = times[grid[0]]
    scanned[grid[0]] = t_first
    if t_first is not None and t_first <= target_t:
        raise CalibrationError(
            f"T({grid[0]}) = {t_first} is already at or below "
            f"target_t={target_t}; no slow endpoint to bracket from"
        )
    bracket = None
    lo = grid[0]
    for g in grid[1:]:
        t_g = times[g]
        scanned[g] = t_g
        if t_g is not None and t_g <= target_t:
            bracket = (lo, g, t_g)
            break
        lo = g
    if bracket is None:
        report = {g: RETIRED if t == math.inf else t for g, t in scanned.items()}
        raise CalibrationError(
            f"no gain in {GAIN_BRACKET} settles within target_t={target_t}; "
            f"scanned {report}"
        )
    lo, hi, t_hi = bracket
    step = 0
    while step < BISECTION_STEPS:
        left = BISECTION_STEPS - step
        path, (p_lo, p_hi) = _predicted_path(
            lo, hi, _predict_gain(hi, t_hi, target_t), min(PATH_LEVELS, left)
        )
        hedge = _bisection_midpoints(p_lo, p_hi, min(HEDGE_LEVELS, left - len(path)))
        times.update(probe([g for g in path + hedge if g not in times]))
        while step < BISECTION_STEPS:
            mid = 0.5 * (lo + hi)
            if mid not in times:
                break
            step += 1
            t_mid = times[mid]
            if t_mid is not None and abs(t_mid - target_t) <= band:
                return mid, t_mid
            if t_mid is not None and t_mid <= target_t:
                hi, t_hi = mid, t_mid
            else:
                lo = mid
    if abs(t_hi - target_t) <= band:
        return hi, t_hi
    raise CalibrationError(
        f"bisection exhausted without reaching target_t={target_t} within "
        f"{band}: best T({hi}) = {t_hi}"
    )


def _experiment_family(experiment: int) -> str:
    if experiment == 1:
        return "power"
    if experiment == 2:
        return "fixed_time"
    raise ValueError(f"experiment must be 1 or 2, got {experiment}")


def _settled(run, i, epsilon, dt):
    """(settling time, E_tot at it) of system i of the run, or None if it
    has not settled."""
    metrics = run.metrics(i)
    t_star = settling_time(metrics, epsilon)
    if t_star is None:
        return None
    idx = int(round((t_star - metrics.times[0]) / dt))
    return t_star, float(metrics.E_tot[idx])


def _sweep_rows(family, direction, k, sizes, epsilon, dt, lcg, base_horizon):
    """Settling time and E_tot of one direction's sweep rows, one per size.

    The rows run as one union (see simulate._Run), advanced to base_horizon
    and then on through doubled horizons, up to ten times, until every row
    is resolved. At each horizon a row that diverged gets its
    DivergenceError, and one that has settled gets (settling time, E_tot)
    and leaves the union, so it costs no further steps. A resolved row's
    record is freed, so it holds no memory while the others run on. A row
    unresolved after the last horizon gets a RuntimeError.
    Returns the outcome of each row in the order of sizes; each is that of
    a serial run of the row alone resumed through the same horizons, since
    a run's prefix does not depend on where it ends or on the rows beside
    it.
    """
    systems = [
        (
            benchmark_topology(n),
            benchmark_protocol(family, direction, k),
            lcg_initial_conditions(lcg, n),
        )
        for n in sizes
    ]
    run = _Run(systems, dt, stop_epsilon=epsilon, record_stride=10**9)
    outcomes = [None] * len(sizes)
    horizon = base_horizon
    for _ in range(11):
        run.advance(_step_count(horizon, run.t0, dt))
        for i, (n, c) in enumerate(zip(sizes, run.components)):
            if c is None:
                continue
            if c.error is not None:
                outcomes[i] = DivergenceError(
                    c.error.time,
                    c.error.max_abs,
                    context=f"benchmark row n={n} direction={direction.value}",
                )
                outcomes[i].__cause__ = c.error
            else:
                outcomes[i] = _settled(run, i, epsilon, dt)
                if outcomes[i] is None:
                    continue
                run.drop(i)
            # the row is resolved: free its record while the others run on
            run.components[i] = None
        if None not in outcomes:
            return outcomes
        horizon *= 2
    for i, n in enumerate(sizes):
        if outcomes[i] is None:
            outcomes[i] = RuntimeError(
                f"benchmark row n={n} direction={direction.value} did not settle "
                f"within {horizon / 2} s"
            )
    return outcomes


def _direction_outcomes(
    family, direction, sizes, epsilon, dt, target_v, target_t, lcg, base_horizon
):
    """Calibrate one direction at n = 25, then run its sweep rows.

    Returns (calibration, rows). calibration is calibrate_gain's (k,
    achieved time) or the exception it raised; rows is _sweep_rows' list of
    row outcomes, the exception it raised, or None after a failed
    calibration. Exceptions are returned, not raised, so run_experiment
    can raise the first failure of all directions in serial order.
    """
    try:
        k, achieved = calibrate_gain(
            family, direction, 25, target_v, target_t, dt=dt, lcg=lcg
        )
    except Exception as exc:  # carried to run_experiment, which raises it
        return exc, None
    try:
        rows = _sweep_rows(family, direction, k, sizes, epsilon, dt, lcg, base_horizon)
    except Exception as exc:  # carried to run_experiment, which raises it
        rows = exc
    return (k, achieved), rows


class _ForkedCall:
    """fn() run in a child process made with os.fork, its return value sent
    back pickled over a pipe; where os.fork does not exist, fn() runs here,
    at once.

    The child shares nothing with this process after the fork, so it runs
    beside it without the interpreter lock. It always leaves through
    os._exit, so it never returns into the caller's code or runs exit
    handlers, and it exits 0 only once the whole result is written.
    result() waits for the child and returns fn's value; close() kills and
    reaps a child whose result was not read.
    """

    def __init__(self, fn):
        fork = getattr(os, "fork", None)
        if fork is None:
            self._pid, self._pipe, self._value = None, None, fn()
            return
        rfd, wfd = os.pipe()
        try:
            pid = fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:
            os.close(rfd)
            _child_main(fn, wfd)
        os.close(wfd)
        self._pid, self._pipe = pid, os.fdopen(rfd, "rb")

    def result(self):
        if self._pipe is None:
            return self._value
        data = self._pipe.read()
        self._pipe.close()
        pid = self._pid
        _, status = os.waitpid(pid, 0)
        self._pid = None
        if status:
            raise RuntimeError(
                f"child process {pid} sent no result: wait status {status}"
            )
        return pickle.loads(data)

    def close(self):
        if self._pipe is not None:
            self._pipe.close()
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _child_main(fn, wfd):
    """Body of a _ForkedCall child: send fn()'s value through wfd, then
    leave without returning."""
    code = 1
    try:
        data = pickle.dumps(fn())
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except Exception:
        # the parent sees the exit status; the traceback goes to fd 2
        # directly, past the stderr buffer the child shares with the parent
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def run_experiment(
    experiment,
    sizes,
    dt=1e-4,
    epsilon=0.05,
    target_v=0.05,
    target_t=1.0,
    lcg=None,
):
    """Calibrate at n=25 and sweep both directions over the given sizes.

    Returns (rows, meta): rows sorted by n with the per-edge row first at
    each size, meta a JSON-ready record of everything needed to replay.
    The directions share nothing, so each one's calibration and rows (see
    _direction_outcomes) run side by side: every direction but the last in
    a forked child (see _ForkedCall), the last in this process. Their
    outcomes are then read in serial order: the per-edge calibration, the
    aggregated one, and the rows by size with the per-edge row first. The
    first failure raises, unchanged, as in a serial run: a CalibrationError,
    a row's DivergenceError or RuntimeError, or whatever else a direction
    raised.
    """
    family = _experiment_family(experiment)
    sizes = sorted(set(int(s) for s in sizes))
    if 25 not in sizes:
        raise ValueError("sizes must include the calibration anchor n=25")
    lcg = lcg or LcgConfig()

    directions = (Direction.PER_EDGE, Direction.AGGREGATED)
    base_horizon = _snap_horizon(max(4 * target_t, 20 * dt), dt)
    chains = [
        functools.partial(
            _direction_outcomes,
            family, d, sizes, epsilon, dt, target_v, target_t, lcg, base_horizon,
        )
        for d in directions
    ]
    children = [_ForkedCall(chain) for chain in chains[:-1]]
    try:
        last = chains[-1]()
        outcomes = [child.result() for child in children] + [last]
    finally:
        for child in children:
            child.close()

    calibration = {}
    for d, (cal, _) in zip(directions, outcomes):
        if isinstance(cal, Exception):
            raise cal
        calibration[d.value] = {"k": cal[0], "achieved_settling": cal[1]}
    for _, sweep in outcomes:
        if isinstance(sweep, Exception):
            raise sweep
    rows = []
    for i, n in enumerate(sizes):
        for d, (_, sweep) in zip(directions, outcomes):
            out = sweep[i]
            if isinstance(out, Exception):
                raise out
            t_star, e_tot = out
            rows.append(
                BenchmarkRow(
                    n=n,
                    lambda2=2.0 - 2.0 * math.cos(2.0 * math.pi / n),
                    protocol=family,
                    direction=d.value,
                    gain=calibration[d.value]["k"],
                    settling_time=t_star,
                    e_tot=e_tot,
                    dt=dt,
                    epsilon=epsilon,
                )
            )

    meta = {
        "experiment": experiment,
        "family": family,
        "lcg": asdict(lcg),
        "h_rule": H_RULE,
        "calibration": calibration,
        "dt": dt,
        "epsilon": epsilon,
        "target_v": target_v,
        "target_t": target_t,
        "version": __version__,
    }
    return rows, meta
