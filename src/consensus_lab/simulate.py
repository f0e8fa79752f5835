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


def _step_count(t_end, t0, dt):
    """Number of steps from t0 to t_end, which must be a whole number."""
    if t_end <= t0:
        raise ValueError(f"t_end = {t_end} must exceed the signal start t0 = {t0}")
    span = (t_end - t0) / dt
    steps = int(round(span))
    if steps < 1 or abs(span - steps) > 1e-6:
        raise ValueError(
            f"t_end - t0 = {t_end - t0} is not a whole number of steps at dt = {dt}"
        )
    return steps


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


class _Run:
    """One closed-loop integration from x0 that can be advanced in pieces.

    advance(last_step) integrates up to step last_step and may be called
    again with a later step; the pieces give exactly the numbers of one
    uninterrupted run. Per step k at time t_k: the state is checked
    against the divergence guard and metrics are recorded for it, the
    active graph is resolved, u = control(...) is applied, effort
    integrals advance by the left-endpoint rule, and x steps by dt*u.
    The sticky stop ends the run for good once the spread stayed at or
    below stop_epsilon for STICKY_STEPS consecutive steps.
    """

    def __init__(
        self, net, protocol, x0, dt, stop_epsilon=None, record_stride=1, track_per_node=False
    ):
        x = np.array(x0, dtype=float)
        if x.shape != (net.n,):
            raise ValueError(f"x0 has shape {x.shape}, network has {net.n} nodes")
        if not np.isfinite(x).all():
            raise ValueError("x0 must be finite")
        self.net = net
        self.protocol = protocol
        self.dt = dt
        self.t0 = net.signal.t0
        self.stopped = False
        self._indexer = _step_indexer(net.signal, dt)
        self._eps = stop_epsilon
        self._stride = record_stride
        self._next = 0  # first step not yet observed
        self._x = x
        self._V = np.empty(0)
        self._E_tot = np.empty(0)
        self._E_i = np.empty((0, net.n)) if track_per_node else None
        self._s_accum = np.zeros(net.n)
        self._e_i = np.zeros(net.n)
        self._e_tot = 0.0
        self._cur_idx = self._indexer(0)
        self._run_below = 0
        self._events: List[Tuple[float, int, int]] = []
        self._rec_steps: List[int] = []
        self._rec_states: List[np.ndarray] = []
        self._rec_controls: List[np.ndarray] = []

    def advance(self, last_step):
        """Integrate to step last_step, or to the sticky stop if it comes first."""
        if self.stopped or last_step < self._next:
            return
        if len(self._V) <= last_step:
            self._grow(last_step + 1)
        ctrl = control
        indexer, graphs, protocol = self._indexer, self.net.graphs, self.protocol
        dt, t0, eps, stride = self.dt, self.t0, self._eps, self._stride
        V_all, E_tot_all, E_i_all = self._V, self._E_tot, self._E_i
        events = self._events
        rec_steps, rec_states, rec_controls = self._rec_steps, self._rec_states, self._rec_controls
        x, s_accum, e_i_now, e_tot_now = self._x, self._s_accum, self._e_i, self._e_tot
        cur_idx, run_below = self._cur_idx, self._run_below
        g_active = graphs[cur_idx]

        for k in range(self._next, last_step + 1):
            if k:
                # Euler step from t_{k-1} on the graph active over [t_{k-1}, t_k)
                j = k - 1
                idx = indexer(j)
                if idx != cur_idx:
                    events.append((t0 + dt * j, cur_idx, idx))
                    cur_idx = idx
                    g_active = graphs[idx]
                u = ctrl(protocol, g_active, x)
                if j % stride == 0:
                    rec_steps.append(j)
                    rec_states.append(x.copy())
                    rec_controls.append(u)
                s_accum += u * u * dt
                e_i_now = np.sqrt(s_accum)
                e_tot_now = float(e_i_now.sum())
                x = x + dt * u
            x_max = float(x.max())
            x_min = float(x.min())
            v = x_max - x_min
            if not math.isfinite(v) or x_max > DIVERGENCE_LIMIT or x_min < -DIVERGENCE_LIMIT:
                raise DivergenceError(t0 + dt * k, max(abs(x_max), abs(x_min)))
            V_all[k] = v
            E_tot_all[k] = e_tot_now
            if E_i_all is not None:
                E_i_all[k] = e_i_now
            if eps is not None:
                run_below = run_below + 1 if v <= eps else 0
                if run_below >= STICKY_STEPS:
                    self.stopped = True
                    break

        self._next = k + 1
        self._x, self._s_accum, self._e_i, self._e_tot = x, s_accum, e_i_now, e_tot_now
        self._cur_idx, self._run_below = cur_idx, run_below

    def _grow(self, size):
        keep = self._next
        for name in ("_V", "_E_tot", "_E_i"):
            old = getattr(self, name)
            if old is None:
                continue
            new = np.empty((size,) + old.shape[1:])
            new[:keep] = old[:keep]
            setattr(self, name, new)

    def metrics(self) -> MetricSeries:
        """Per-step record of the steps observed so far."""
        end = self._next
        # t0 + dt k, built in one buffer
        times = np.arange(end, dtype=float)
        times *= self.dt
        times += self.t0
        return MetricSeries(
            times=times,
            V=self._V[:end],
            E_tot=self._E_tot[:end],
            E_i=self._E_i[:end] if self._E_i is not None else None,
        )

    def trajectory(self) -> Trajectory:
        """Package the run so far; the current state is always the last sample."""
        last = self._next - 1
        u_final = control(self.protocol, self.net.graphs[self._indexer(last)], self._x)
        steps = self._rec_steps + [last]
        return Trajectory(
            times=self.t0 + self.dt * np.array(steps),
            states=np.vstack(self._rec_states + [self._x.copy()]),
            controls=np.vstack(self._rec_controls + [u_final]),
            metrics=self.metrics(),
            events=list(self._events),
        )


def simulate(net: DynamicNetwork, protocol: Protocol, x0, cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop from x0 until t_end or the sticky stop.

    The step rules are those of _Run; the final state is always a sample,
    also when an early stop falls between strides.
    """
    run = _Run(
        net,
        protocol,
        x0,
        cfg.dt,
        stop_epsilon=cfg.stop_epsilon,
        record_stride=cfg.record_stride,
        track_per_node=cfg.track_per_node,
    )
    run.advance(_step_count(cfg.t_end, run.t0, cfg.dt))
    return run.trajectory()


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
