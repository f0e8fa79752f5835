"""Scaling benchmark: circulant topologies, LCG initial states, calibration.

The sweep alternates two unit-weight circulants, the ring C_n{1} and the
chorded ring C_n{1, h} with h the largest offset <= n/2 coprime to n, under
the signal floor(5t) mod 2. Gains are calibrated at n = 25 so both
directions of a protocol family settle to V = 0.05 at 1.00 s, then held
fixed across sizes so settling time and control effort can be compared as
the algebraic connectivity falls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .metrics import settling_time
from .protocols import Direction, FixedTime, Power, Protocol
from .simulate import DivergenceError, SimConfig, simulate
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


def _run_once(family, direction, k, net, x0, epsilon, t_end, dt):
    protocol = benchmark_protocol(family, direction, k)
    cfg = SimConfig(t_end=t_end, dt=dt, stop_epsilon=epsilon, record_stride=10**9)
    return simulate(net, protocol, x0, cfg)


def calibrate_gain(family, direction, n, target_v, target_t, dt=1e-4, lcg=None):
    """Bisect the gain so settling_time(eps=target_v) hits target_t.

    k = k1 = k2 for the fixed-time family. Returns (gain, achieved time);
    the bisection exits early once the achieved time is within 10 dt of the
    target. Raises CalibrationError when the bracket endpoints do not
    straddle the target. Probes that diverge count as never settling.
    """
    if target_v <= 0 or target_t <= 0:
        raise ValueError("target_v and target_t must be positive")
    benchmark_protocol(family, direction, 1.0)  # validates the family name
    lcg = lcg or LcgConfig()
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(lcg, n)
    horizon = _snap_horizon(max(4 * target_t, 20 * dt), dt)
    band = 10 * dt

    def probe(k):
        try:
            traj = _run_once(family, direction, k, net, x0, target_v, horizon, dt)
        except DivergenceError:
            return None
        return settling_time(traj.metrics, target_v)

    # T(k) falls like 1/k in the useful range but stops settling again at
    # extreme gains, where the Euler chatter amplitude outgrows target_v.
    # A geometric pre-scan picks the monotone sub-bracket before bisecting.
    grid = [GAIN_BRACKET[0]]
    while grid[-1] < GAIN_BRACKET[1]:
        grid.append(min(grid[-1] * 10.0, GAIN_BRACKET[1]))
    scanned = {}
    t_first = probe(grid[0])
    scanned[grid[0]] = t_first
    if t_first is not None and t_first <= target_t:
        raise CalibrationError(
            f"T({grid[0]}) = {t_first} is already at or below "
            f"target_t={target_t}; no slow endpoint to bracket from"
        )
    bracket = None
    lo = grid[0]
    for g in grid[1:]:
        t_g = probe(g)
        scanned[g] = t_g
        if t_g is not None and t_g <= target_t:
            bracket = (lo, g, t_g)
            break
        lo = g
    if bracket is None:
        raise CalibrationError(
            f"no gain in {GAIN_BRACKET} settles within target_t={target_t}; "
            f"scanned {scanned}"
        )
    lo, hi, t_hi = bracket
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        t_mid = probe(mid)
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


def _sweep_row(family, direction, k, n, epsilon, dt, lcg, base_horizon):
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(lcg, n)
    horizon = base_horizon
    for _ in range(11):
        try:
            traj = _run_once(family, direction, k, net, x0, epsilon, horizon, dt)
        except DivergenceError as exc:
            raise DivergenceError(
                exc.time,
                exc.max_abs,
                context=f"benchmark row n={n} direction={direction.value}",
            ) from exc
        t_star = settling_time(traj.metrics, epsilon)
        if t_star is not None:
            idx = int(round((t_star - traj.metrics.times[0]) / dt))
            return t_star, float(traj.metrics.E_tot[idx])
        horizon *= 2
    raise RuntimeError(
        f"benchmark row n={n} direction={direction.value} did not settle "
        f"within {horizon / 2} s"
    )


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
    """
    family = _experiment_family(experiment)
    sizes = sorted(set(int(s) for s in sizes))
    if 25 not in sizes:
        raise ValueError("sizes must include the calibration anchor n=25")
    lcg = lcg or LcgConfig()

    directions = (Direction.PER_EDGE, Direction.AGGREGATED)
    calibration = {}
    for direction in directions:
        k, achieved = calibrate_gain(
            family, direction, 25, target_v, target_t, dt=dt, lcg=lcg
        )
        calibration[direction.value] = {"k": k, "achieved_settling": achieved}

    base_horizon = _snap_horizon(max(4 * target_t, 20 * dt), dt)

    def row(n, direction):
        k = calibration[direction.value]["k"]
        t_star, e_tot = _sweep_row(
            family, direction, k, n, epsilon, dt, lcg, base_horizon
        )
        return BenchmarkRow(
            n=n,
            lambda2=2.0 - 2.0 * math.cos(2.0 * math.pi / n),
            protocol=family,
            direction=direction.value,
            gain=k,
            settling_time=t_star,
            e_tot=e_tot,
            dt=dt,
            epsilon=epsilon,
        )

    rows = [row(n, d) for n in sizes for d in directions]

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
