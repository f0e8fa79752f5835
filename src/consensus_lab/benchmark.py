"""Scaling benchmark: circulant topologies, LCG initial states, calibration.

The sweep alternates two unit-weight circulants, the ring C_n{1} and the
chorded ring C_n{1, h} with h the largest offset <= n/2 coprime to n, under
the signal floor(5t) mod 2. Gains are calibrated at n = 25 so both
directions of a protocol family settle to V = 0.05 at 1.00 s, then held
fixed across sizes so settling time and control effort can be compared as
the algebraic connectivity falls.

Each calibration probe and each sweep row is one run of one system (see
simulate._Run), and reads its settling time from the run's own count of
the steps at or below epsilon. A failing row raises, and its direction
runs no later row. The two directions share nothing at all, so
run_experiment calibrates and sweeps the per-edge direction in a thread
beside the aggregated one, and raises the first failure in serial order.
A run spends nearly all its time in compiled stretches, which release
the interpreter lock, so the two threads overlap.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, _stretch
# bench/layers.py traces consensus_lab.benchmark.settling_time, so the name
# stays, although the runs read their settling steps themselves
from .metrics import _allocate, _require_positive, settling_time  # noqa: F401
from .protocols import Direction, FixedTime, Power, Protocol
# bench/layers.py traces consensus_lab.benchmark.simulate, so the name stays
from .simulate import DivergenceError, _Run, _step_times, simulate  # noqa: F401
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
    xs = _allocate((n,), f"an initial state of {n} nodes")
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


def _base_steps(target_t, dt):
    """Steps of the base horizon of calibration probes and sweep rows:
    4 target_t, at least 20 steps, rounded up to a whole step."""
    return math.ceil(max(4 * target_t, 20 * dt) / dt - 1e-9)


def _cut_step(t0, dt, target_t, band, last_step):
    """First step c < last_step whose successor time t_{c+1} is past target_t
    and fails the acceptance band test; None if no such step exists.

    The times and the test are the float expressions the settling time and
    the bisection use, so a run still above target_v at step c settles at
    t_{c+1} or later and can pass neither `T <= target_t` nor the band.
    """
    t = _step_times(1, last_step + 1, dt, t0)
    past = (t > target_t) & ~(np.abs(t - target_t) <= band)
    return int(np.argmax(past)) if past.any() else None


def calibrate_gain(family, direction, n, target_v, target_t, dt=1e-4, lcg=None):
    """Bisect the gain so settling_time(eps=target_v) hits target_t.

    k = k1 = k2 for the fixed-time family. Returns (gain, achieved time);
    the bisection exits early once the achieved time is within 10 dt of the
    target. Raises CalibrationError when the bracket endpoints do not
    straddle the target; its report of the pre-scan lists the gains probed,
    with None for probes that diverged or never settled and RETIRED for
    retired ones.

    Each probe is one run that integrates no effort and records no state.
    It first runs to the cut step (see _cut_step). If V is still above
    target_v there, the probe retires: its settling time lies past
    target_t + band, which every pre-scan and bisection test treats like
    a probe that never settles. Other probes run the full 4 target_t
    horizon. The pre-scan probes the geometric grid up to the first gain
    that settles by target_t; plain bisection follows.
    """
    for name, value in (("target_v", target_v), ("target_t", target_t), ("dt", dt)):
        _require_positive(name, value)
    benchmark_protocol(family, direction, 1.0)  # validates the family name
    lcg = lcg or LcgConfig()
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(lcg, n)
    band = 10 * dt
    last = _base_steps(target_t, dt)
    cut = _cut_step(net.signal.t0, dt, target_t, band, last)

    def probe(k):
        # the settling time; math.inf stands for a retired probe: past the
        # band, exact time unknown
        protocol = benchmark_protocol(family, direction, k)
        run = _Run(net, protocol, x0, dt, stop_epsilon=target_v, effort=False)
        if cut is not None:
            run.advance(cut)
            if run.error is None and run.settling_step() is None:
                return math.inf
        run.advance(last)
        step = None if run.error else run.settling_step()
        return None if step is None else float(run.t0 + run.dt * step)

    def fast(t):
        return t is not None and t <= target_t

    # T(k) falls like 1/k in the useful range but stops settling again at
    # extreme gains, where the Euler chatter amplitude outgrows target_v.
    # A geometric pre-scan picks the monotone sub-bracket before bisecting.
    grid = [GAIN_BRACKET[0]]
    while grid[-1] < GAIN_BRACKET[1]:
        grid.append(min(grid[-1] * 10.0, GAIN_BRACKET[1]))
    scanned = {}
    for hi in grid:
        scanned[hi] = t_hi = probe(hi)
        if fast(t_hi):
            break
    else:
        report = {g: RETIRED if t == math.inf else t for g, t in scanned.items()}
        raise CalibrationError(
            f"no gain in {GAIN_BRACKET} settles within target_t={target_t}; "
            f"scanned {report}"
        )
    if hi == grid[0]:
        raise CalibrationError(
            f"T({grid[0]}) = {t_hi} is already at or below "
            f"target_t={target_t}; no slow endpoint to bracket from"
        )
    lo = grid[len(scanned) - 2]
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        t_mid = probe(mid)
        if t_mid is not None and abs(t_mid - target_t) <= band:
            return mid, t_mid
        if fast(t_mid):
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


def _sweep_row(family, direction, k, n, epsilon, dt, lcg, base_steps):
    """Settling time and E_tot of one direction's sweep row at size n.

    The row's run is advanced base_steps steps and then on through doubled
    step counts, up to ten times, until it is resolved. Returns (settling
    time, E_tot) once it has settled. Raises its DivergenceError if it
    diverged, or a RuntimeError if it is unresolved after the last horizon.
    The outcome is that of a fresh run at each horizon, since a run's
    prefix does not depend on where it ends. The run records no state;
    E_tot is read from the block that observed the settling step, as the
    run hands it over.
    """
    protocol = benchmark_protocol(family, direction, k)
    x0 = lcg_initial_conditions(lcg, n)
    run = _Run(benchmark_topology(n), protocol, x0, dt, stop_epsilon=epsilon)
    context = f"benchmark row n={n} direction={direction.value}"
    e_tot = {}  # the E_tot of each settling step a block ended on

    def rows(block):
        first, step = run.next - len(block.V), run.settling_step()
        if step is not None and step >= first:
            e_tot[step] = block.E_tot[step - first]

    steps = base_steps
    for _ in range(11):
        run.advance(steps, rows)
        if run.error is not None:
            raise DivergenceError(run.error.time, run.error.max_abs, context=context) from run.error
        step = run.settling_step()
        if step is not None:
            return float(run.t0 + run.dt * step), float(e_tot[step])
        steps *= 2
    raise RuntimeError(f"{context} did not settle within {steps // 2 * dt} s")


def _direction_outcomes(
    family, direction, sizes, epsilon, dt, target_v, target_t, lcg, base_steps
):
    """Calibrate one direction at n = 25, then run its sweep rows in the
    order of sizes.

    Returns (calibration, rows). calibration is calibrate_gain's (k,
    achieved time) or the exception it raised, and rows is None after a
    failed calibration. Otherwise rows lists each row's (settling time,
    E_tot) up to the first row that raises, and then that exception; no
    later row runs. Exceptions are returned, not raised, so run_experiment
    can raise the first failure of both directions in serial order.
    """
    try:
        k, achieved = calibrate_gain(
            family, direction, 25, target_v, target_t, dt=dt, lcg=lcg
        )
    except Exception as exc:  # carried to run_experiment, which raises it
        return exc, None
    rows = []
    try:
        for n in sizes:
            rows.append(_sweep_row(family, direction, k, n, epsilon, dt, lcg, base_steps))
    except Exception as exc:  # carried to run_experiment, which raises it
        rows.append(exc)
    return (k, achieved), rows


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
    _direction_outcomes) run side by side: the per-edge ones in a daemon
    thread, the aggregated ones in the calling thread. Their outcomes are
    then read in serial order: the per-edge calibration, the aggregated
    one, and the rows by size with the per-edge row first. The first
    failure raises, unchanged, as in a serial run: a CalibrationError, a
    row's DivergenceError or RuntimeError, or whatever else a calibration
    or a row raised, each in its place in that order. An exception the
    calling thread's chain raises, such as a KeyboardInterrupt, leaves at
    once, and the per-edge thread finishes in the background.
    """
    family = _experiment_family(experiment)
    sizes = sorted(set(int(s) for s in sizes))
    if 25 not in sizes:
        raise ValueError("sizes must include the calibration anchor n=25")
    for name, value in (
        ("dt", dt), ("epsilon", epsilon), ("target_v", target_v), ("target_t", target_t)
    ):
        _require_positive(name, value)
    lcg = lcg or LcgConfig()

    directions = (Direction.PER_EDGE, Direction.AGGREGATED)
    base_steps = _base_steps(target_t, dt)
    outcomes = [None] * len(directions)

    def chain(i):
        outcomes[i] = _direction_outcomes(
            family, directions[i], sizes, epsilon, dt, target_v, target_t, lcg, base_steps
        )

    # build the compiled stretch loop here, so the two threads do not both
    # build it
    _stretch.load()
    worker = threading.Thread(target=chain, args=(0,), daemon=True)
    worker.start()
    chain(1)
    worker.join()

    calibration = {}
    for d, (cal, _) in zip(directions, outcomes):
        if isinstance(cal, Exception):
            raise cal
        calibration[d.value] = {"k": cal[0], "achieved_settling": cal[1]}
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
