"""Fixed-step explicit-Euler integration of x' = u over a switched network.

The integrator insists that every switching instant lands on a step
boundary, so a topology change never smears across a step. The active graph
is resolved with integer step arithmetic rather than floating time, which
keeps the schedule exact over long horizons.

The step loop does only the Euler update with a kernel bound once per
family member. The spread, the divergence guard, the sticky stop and the
effort integrals are evaluated once per block of steps, with the metrics
module's block forms; the step at which a run stops or diverges, and every
number it records, are those of a check after every step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .metrics import MetricSeries, isce_accumulate, lyapunov_v
from .protocols import Protocol, _kernel, control
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
# a block of Euler steps holds at most this many steps and state entries
BLOCK_STEPS = 1024
BLOCK_ELEMENTS = 2**14


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


def _sticky_stop(V, eps, run_below):
    """Row of V at which the sticky stop falls, or None, and the run of
    steps at or below eps after V, given run_below such steps before it."""
    rows = np.arange(len(V))
    # index of the last row above eps at or before each row; the carried
    # run counts as rows before V
    last_above = np.where(V <= eps, -1 - run_below, rows)
    np.maximum.accumulate(last_above, out=last_above)
    run = rows - last_above
    hits = np.flatnonzero(run >= STICKY_STEPS)
    if hits.size:
        return int(hits[0]), STICKY_STEPS
    return None, int(run[-1])


class _Run:
    """One closed-loop integration from x0 that can be advanced in pieces.

    advance(last_step) integrates up to step last_step and may be called
    again with a later step; the pieces give exactly the numbers of one
    uninterrupted run. Each Euler step from t_j resolves the member active
    over [t_j, t_{j+1}), applies its kernel u = f(x), bound once per member
    at construction, and steps x by dt*u; effort integrals advance by the
    left-endpoint rule.

    The steps run in blocks of at most BLOCK_STEPS steps and BLOCK_ELEMENTS
    state entries, into buffers allocated once per run. Once per block the
    spread V, the divergence guard, the sticky stop and the effort are
    evaluated for every step of the block at once. The guard raises at the
    first step whose state fails it, and the sticky stop ends the run for
    good at the first step where the spread has stayed at or below
    stop_epsilon for STICKY_STEPS consecutive steps: both steps, and every
    number recorded up to them, are those of a step-by-step check. Steps
    the block computed past a stop are discarded.
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
        self._kernels = [_kernel(protocol, g) for g in net.graphs]
        self._eps = stop_epsilon
        self._stride = record_stride
        self._next = 0  # first step not yet observed
        self._x = x
        self._V = np.empty(0)
        self._E_tot = np.empty(0)
        self._E_i = np.empty((0, net.n)) if track_per_node else None
        self._s_accum = np.zeros(net.n)
        self._cur_idx = self._indexer(0)
        self._run_below = 0
        self._events: List[Tuple[float, int, int]] = []
        self._rec_steps: List[int] = []
        self._rec_states: List[np.ndarray] = []
        self._rec_controls: List[np.ndarray] = []
        block = max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // net.n))
        self._X = np.empty((block, net.n))  # state observed at each step of a block
        self._U = np.empty((block, net.n))  # control of the step into it, then effort

    def advance(self, last_step):
        """Integrate to step last_step, or to the sticky stop if it comes first."""
        if self.stopped or last_step < self._next:
            return
        if len(self._V) <= last_step:
            self._grow(last_step + 1)
        block = len(self._X)
        with np.errstate(all="ignore"):
            while not self.stopped and self._next <= last_step:
                self._block(self._next, min(self._next + block, last_step + 1))

    def _block(self, first, end):
        """Observe steps first..end-1: run their Euler steps, then check and
        record them in one pass."""
        X, U = self._X[: end - first], self._U[: end - first]
        indexer, kernels = self._indexer, self._kernels
        dt, stride = self.dt, self._stride
        x, cur_idx = self._x, self._cur_idx
        kern = kernels[cur_idx]
        switches = []
        records = []
        i0 = 0
        if first == 0:
            # step 0 is observed before any Euler step, with zero effort
            X[0] = x
            U[0] = 0.0
            i0 = 1
        for i in range(i0, end - first):
            j = first + i - 1  # Euler step from t_j to t_{j+1}
            idx = indexer(j)
            if idx != cur_idx:
                switches.append((j, cur_idx, idx))
                cur_idx = idx
                kern = kernels[idx]
            u = kern(x)
            if j % stride == 0:
                records.append((j, x.copy(), u))
            U[i] = u
            x = np.add(x, dt * u, out=X[i])

        V = lyapunov_v(X)
        # the first step that fails the guard raises unless the sticky stop
        # came before it; steps past either are discarded
        ok = (X.max(axis=1) <= DIVERGENCE_LIMIT) & (X.min(axis=1) >= -DIVERGENCE_LIMIT)
        bad = None if ok.all() else int(np.argmin(ok))
        stop = None
        if self._eps is not None:
            stop, self._run_below = _sticky_stop(V, self._eps, self._run_below)
        if bad is not None and (stop is None or bad <= stop):
            x_max, x_min = float(X[bad].max()), float(X[bad].min())
            raise DivergenceError(self.t0 + dt * (first + bad), max(abs(x_max), abs(x_min)))
        m = len(X) if stop is None else stop + 1
        last = first + m - 1

        S = isce_accumulate(self._s_accum, U[:m], dt, out=U[:m])
        self._s_accum = S[-1].copy()
        # without per-node tracking the square roots overwrite S
        E = S if self._E_i is None else self._E_i[first : last + 1]
        np.sqrt(S, out=E)
        np.sum(E, axis=1, out=self._E_tot[first : last + 1])
        self._V[first : last + 1] = V[:m]

        # Euler steps from the last observed step on belong to later blocks
        t0 = self.t0
        self._events.extend((t0 + dt * j, a, b) for j, a, b in switches if j < last)
        for j, state, u in records:
            if j < last:
                self._rec_steps.append(j)
                self._rec_states.append(state)
                self._rec_controls.append(u)
        self._x = X[m - 1].copy()
        self._cur_idx = cur_idx
        self._next = last + 1
        self.stopped = stop is not None

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
