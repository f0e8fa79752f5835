"""Fixed-step explicit-Euler integration of x' = u over a switched network.

The integrator insists that every switching instant lands on a step
boundary, so a topology change never smears across a step. The active graph
is resolved with integer step arithmetic rather than floating time, which
keeps the schedule exact over long horizons.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .metrics import MetricSeries
from .protocols import Protocol, control
from .switching import Breakpoints, DynamicNetwork, FloorModulo

__all__ = [
    "SimConfig",
    "Trajectory",
    "DivergenceError",
    "simulate",
    "replay_check",
]

DIVERGENCE_LIMIT = 1e12
STICKY_STEPS = 100


class DivergenceError(RuntimeError):
    """State magnitude blew past the guard during integration."""

    def __init__(self, time, max_abs, context=""):
        msg = (
            f"state diverged at t={time:.6g}: max |x_i| = {max_abs:.3g} "
            f"exceeds {DIVERGENCE_LIMIT:.0e}"
        )
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)
        self.time = float(time)
        self.max_abs = float(max_abs)


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float = 1e-4
    stop_epsilon: Optional[float] = None
    record_stride: int = 1
    track_per_node: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.stop_epsilon is not None and self.stop_epsilon <= 0:
            raise ValueError(f"stop_epsilon must be positive, got {self.stop_epsilon}")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")


@dataclass
class Trajectory:
    """Sampled closed-loop run.

    times/states/controls are the strided samples (the final state is always
    included); metrics covers every integrator step; events lists topology
    switches as (time, from_index, to_index).
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    metrics: MetricSeries
    events: List[Tuple[float, int, int]] = field(default_factory=list)


def _step_indexer(signal, dt):
    """Map a step counter k (time t0 + k dt) to the active family index.

    Raises when a switch instant does not land on a step boundary.
    """
    if isinstance(signal, FloorModulo):
        per = 1.0 / (signal.rate * dt)
        spt = int(round(per))
        if spt < 1 or abs(per - spt) > 1e-6:
            raise ValueError(
                f"switching period 1/rate = {1.0 / signal.rate} is not a whole "
                f"number of steps at dt = {dt}"
            )
        start = signal.t0 / dt
        k0 = int(round(start))
        if abs(start - k0) > 1e-6:
            raise ValueError(f"signal t0 = {signal.t0} is not on a step boundary at dt = {dt}")
        m, off = signal.modulus, signal.offset
        return lambda k: (k0 + k) // spt % m + off
    if isinstance(signal, Breakpoints):
        steps = []
        for bt in signal.times:
            s = int(round((bt - signal.t0) / dt))
            if abs(bt - (signal.t0 + s * dt)) > 1e-12:
                raise ValueError(f"breakpoint {bt} is not on a step boundary at dt = {dt}")
            steps.append(s)
        steps = tuple(steps)
        indices = signal.indices
        return lambda k: indices[bisect_right(steps, k)]
    raise TypeError(f"unknown signal type: {signal!r}")


def simulate(net: DynamicNetwork, protocol: Protocol, x0, cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop from x0 until t_end or the sticky stop.

    Per step k at time t_k: the state is checked against the divergence
    guard and metrics are recorded for it (also at the final step), the
    active graph is resolved, u = control(...) is applied, effort integrals
    advance by the left-endpoint rule, and x steps by dt*u. The sticky stop
    ends the run once the spread stayed at or below stop_epsilon for
    STICKY_STEPS consecutive steps.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (net.n,):
        raise ValueError(f"x0 has shape {x.shape}, network has {net.n} nodes")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")

    sig = net.signal
    t0 = sig.t0
    dt = cfg.dt
    if cfg.t_end <= t0:
        raise ValueError(f"t_end = {cfg.t_end} must exceed the signal start t0 = {t0}")
    span = (cfg.t_end - t0) / dt
    total_steps = int(round(span))
    if total_steps < 1 or abs(span - total_steps) > 1e-6:
        raise ValueError(
            f"t_end - t0 = {cfg.t_end - t0} is not a whole number of steps at dt = {dt}"
        )

    indexer = _step_indexer(sig, dt)
    n = net.n
    times_all = t0 + dt * np.arange(total_steps + 1)
    V_all = np.empty(total_steps + 1)
    E_tot_all = np.empty(total_steps + 1)
    E_i_all = np.empty((total_steps + 1, n)) if cfg.track_per_node else None

    rec_steps: List[int] = []
    rec_states: List[np.ndarray] = []
    rec_controls: List[np.ndarray] = []
    events: List[Tuple[float, int, int]] = []

    s_accum = np.zeros(n)
    e_i_now = np.zeros(n)
    e_tot_now = 0.0
    eps = cfg.stop_epsilon
    stride = cfg.record_stride
    cur_idx = indexer(0)
    g_active = net.graphs[cur_idx]
    run_below = 0
    last_step = total_steps

    for k in range(total_steps + 1):
        x_max = float(x.max())
        x_min = float(x.min())
        v = x_max - x_min
        if not math.isfinite(v) or x_max > DIVERGENCE_LIMIT or x_min < -DIVERGENCE_LIMIT:
            raise DivergenceError(times_all[k], max(abs(x_max), abs(x_min)))
        V_all[k] = v
        E_tot_all[k] = e_tot_now
        if E_i_all is not None:
            E_i_all[k] = e_i_now
        if eps is not None:
            run_below = run_below + 1 if v <= eps else 0
            if run_below >= STICKY_STEPS:
                last_step = k
                break
        if k == total_steps:
            break
        idx = indexer(k)
        if idx != cur_idx:
            events.append((float(times_all[k]), cur_idx, idx))
            cur_idx = idx
            g_active = net.graphs[idx]
        u = control(protocol, g_active, x)
        if k % stride == 0:
            rec_steps.append(k)
            rec_states.append(x.copy())
            rec_controls.append(u)
        s_accum += u * u * dt
        e_i_now = np.sqrt(s_accum)
        e_tot_now = float(e_i_now.sum())
        x = x + dt * u

    # final sample, also covering early stops that fall between strides
    u_final = control(protocol, net.graphs[indexer(last_step)], x)
    rec_steps.append(last_step)
    rec_states.append(x.copy())
    rec_controls.append(u_final)

    metrics = MetricSeries(
        times=times_all[: last_step + 1],
        V=V_all[: last_step + 1],
        E_tot=E_tot_all[: last_step + 1],
        E_i=E_i_all[: last_step + 1] if E_i_all is not None else None,
    )
    return Trajectory(
        times=times_all[rec_steps],
        states=np.vstack(rec_states),
        controls=np.vstack(rec_controls),
        metrics=metrics,
        events=events,
    )


def replay_check(traj: Trajectory, net: DynamicNetwork, protocol: Protocol, cfg: SimConfig):
    """Re-derive every recorded transition; (True, None) iff all match.

    Requires a stride-1 trajectory. Returns (False, m) at the first sample m
    whose successor deviates from states[m] + dt*control(...) by more than
    1e-12 in any coordinate.
    """
    if cfg.record_stride != 1:
        raise ValueError("replay_check needs a record_stride of 1")
    dt = cfg.dt
    t0 = net.signal.t0
    indexer = _step_indexer(net.signal, dt)
    for m in range(len(traj.times) - 1):
        k = int(round((traj.times[m] - t0) / dt))
        g = net.graphs[indexer(k)]
        predicted = traj.states[m] + dt * control(protocol, g, traj.states[m])
        if np.max(np.abs(predicted - traj.states[m + 1])) > 1e-12:
            return False, m
    return True, None
