"""Fixed-step explicit-Euler integration of x' = u over a switched network.

Every switching instant must land on a step boundary, so a topology change
never smears across a step. switching.step_schedule owns the schedule in
integer steps, exact over long horizons; this module knows no signal type.

The step loop runs in stretches of steps under one member, each one call
of _stretch.stretch's run: compiled where the law's arithmetic in C is
numpy's and the library builds, and protocols._kernel step by step
otherwise, with the same bytes. A stretch decides the divergence guard
and the sticky stop itself and ends the run on its step, writes each
state's spread, the effort E_tot and the strided records straight into
the run's records, and carries the state in a buffer of n floats. The
compiled loop does all of it inside its steps, and the numpy loop in
chunks, with the metrics module's forms, which stay the formula of both.
The step at which a run stops or diverges, and every number it records,
are those of a check after every step. A run whose caller reads no
effort, such as a calibration probe, skips the effort integrals
altogether, and only a caller that reads the per-node effort E_i has its
rows written, into one block of steps at a time. Each run integrates one
system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import _stretch
from .metrics import MetricSeries, _require_int, _require_positive, spread_and_peak
from .protocols import Protocol, control
from .switching import DynamicNetwork, _whole_steps, step_schedule

__all__ = [
    "SimConfig",
    "Trajectory",
    "DivergenceError",
    "simulate",
    "replay_check",
]

DIVERGENCE_LIMIT = 1e12
STICKY_STEPS = 100
# a block of steps whose per-node effort E_i a caller reads holds at most
# this many steps and E_i entries
BLOCK_STEPS = 1024
BLOCK_ELEMENTS = 2**14
# the work a run counts (see _Run)
COUNTERS = ("steps", "blocks", "switches", "stretches_compiled", "stretches_numpy", "discarded")


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
        self.context = context


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    dt: float = 1e-4
    stop_epsilon: Optional[float] = None
    record_stride: int = 1
    track_per_node: bool = False

    def __post_init__(self):
        _require_positive("dt", self.dt)
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.stop_epsilon is not None:
            _require_positive("stop_epsilon", self.stop_epsilon)
        stride = _require_int("record_stride", self.record_stride)
        if stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {stride}")
        object.__setattr__(self, "record_stride", stride)


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
    if not math.isfinite(span):
        raise ValueError(f"t_end = {t_end} and dt = {dt} give too many steps to count")
    steps = _whole_steps(span)
    if steps is None or steps < 1:
        raise ValueError(
            f"t_end - t0 = {t_end - t0} is not a whole number of steps at dt = {dt}"
        )
    return steps


def _step_times(first, end, dt, t0):
    """Times t0 + dt k of the steps k = first..end-1, built in one buffer."""
    times = np.arange(first, end, dtype=float)
    times *= dt
    times += t0
    return times


class _Run:
    """Closed-loop integration of one system from its initial state, which
    can be advanced in pieces.

    advance(last_step, rows) integrates up to step last_step and may be
    called again with a later step; the pieces give exactly the numbers of
    one uninterrupted run. The run keeps V and E_tot for every step it
    observed, and, with per_node, the per-node effort E_i only for the
    block it observed last: a caller that wants E_i, such as simulate, or
    the command line's simulate as it formats metrics.csv, reads it from
    each block that advance hands to rows.

    Each Euler step from t_j applies the kernel u = f(x) of the member
    active over [t_j, t_{j+1}) and steps x by dt*u; effort integrals
    advance by the left-endpoint rule. A stretch of steps under one member
    runs in one call of its _stretch.stretch, which writes the spread V,
    E_tot and, with per_node, E_i of each state straight into the run's
    records, and the state and control of each recorded step into the
    strided records. The current state stays in one buffer, self.x, which
    each step swaps with a second one. Without effort the run integrates
    none, and E_tot and E_i are None. V, the stop and the divergence do
    not depend on it.

    The stretch also decides, after every step, the divergence guard and
    the sticky stop, and ends there. A state that fails the guard ends the
    run with its DivergenceError as error, and a spread that has stayed at
    or below stop_epsilon for STICKY_STEPS consecutive steps stops it for
    good; the steps before either are observed. Without per_node a block is
    the whole advance, one stretch per dwell; with it, a block holds at
    most BLOCK_STEPS steps and BLOCK_ELEMENTS entries of E_i.

    counters counts the run's work: Euler steps, blocks, switches,
    stretches run compiled and on numpy, and discarded, the steps that the
    numpy loop computed past the sticky stop or the divergence.
    """

    def __init__(
        self, net, protocol, x0, dt, stop_epsilon=None, record_stride=1, effort=True,
        per_node=False,
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
        self._schedule = step_schedule(net.signal, dt)
        self._eps = stop_epsilon
        self._stride = record_stride
        self.x = x  # the state at step next - 1
        self._y = np.empty(net.n)  # the buffer a stretch steps x through
        self.next = 0  # first step not yet observed
        self.stopped = False
        self.error: Optional[DivergenceError] = None
        self.V = np.empty(0)
        self.E_tot = np.empty(0) if effort else None
        self.events: List[Tuple[float, int, int]] = []
        # the state and control of each recorded step, rows of the steps 0,
        # record_stride, ... before the last observed step
        self._states = np.empty((0, net.n))
        self._controls = np.empty((0, net.n))
        self._s_accum = np.zeros(net.n) if effort else None
        self._run_below = 0  # steps at or below epsilon up to step next - 1
        self._member = self._schedule(0)[0]  # member of the latest Euler step
        self._stretches = [
            _stretch.stretch(protocol, g, dt, record_stride, stop_epsilon, DIVERGENCE_LIMIT,
                             STICKY_STEPS)
            for g in net.graphs
        ]
        self._E_i = None  # E_i of the steps of a block
        if per_node and effort:
            self._E_i = np.empty((max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // net.n)), net.n))
        self.counters = dict.fromkeys(COUNTERS, 0)

    @property
    def ended(self):
        return self.stopped or self.error is not None

    def settling_step(self):
        """The first step from which on every observed spread is at or
        below stop_epsilon, read from the run of such steps the stretches
        carry: the step whose time metrics.settling_time gives for that
        epsilon. None if the last observed spread is above it, or without
        stop_epsilon."""
        return self.next - self._run_below if self._run_below else None

    def _record(self, last_step, *width, every=1):
        """An empty record of the steps 0, every, 2 every, ... up to
        last_step, each a row of the given width."""
        try:
            return np.empty((last_step // every + 1,) + width)
        except MemoryError:
            raise ValueError(
                f"t_end = {self.t0 + self.dt * last_step} and dt = {self.dt} give "
                f"{last_step} steps, too many to record"
            ) from None

    def _kept(self):
        """The number of recorded steps so far: those before the last
        observed step."""
        return -(-max(self.next - 1, 0) // self._stride)

    def _grow(self, last_step):
        """Make room in V and E_tot for the steps up to last_step, and in
        the state and control records for the recorded steps before it."""
        n, stride, kept = self.net.n, self._stride, self._kept()
        for name, width, every, used in (
            ("V", (), 1, self.next),
            ("E_tot", (), 1, self.next),
            ("_states", (n,), stride, kept),
            ("_controls", (n,), stride, kept),
        ):
            old = getattr(self, name)
            if old is not None and len(old) <= last_step // every:
                new = self._record(last_step, *width, every=every)
                new[:used] = old[:used]
                setattr(self, name, new)

    def advance(self, last_step, rows=None):
        """Integrate to step last_step, or to the run's end if that comes
        first.

        rows, if given, is called after each block with the MetricSeries
        of the steps the block observed. Its E_i, with per_node, is a view
        of the block buffer, which the next block overwrites, and None
        otherwise.
        """
        if self.ended or last_step < self.next:
            return
        self._grow(last_step)
        E_i = self._E_i
        with np.errstate(all="ignore"):
            while not self.ended and self.next <= last_step:
                first = self.next
                end = last_step + 1 if E_i is None else min(first + len(E_i), last_step + 1)
                self._block(first, end)
                if rows is not None and self.next > first:
                    block = None if E_i is None else E_i[: self.next - first]
                    rows(self._series(first, self.next, block))

    def _block(self, first, end):
        """Observe steps first..end-1, or up to the run's end: run the
        Euler steps into them, one stretch per member."""
        counters, E_i, stride = self.counters, self._E_i, self._stride
        counters["blocks"] += 1
        j = first - 1  # the Euler step from t_j fills step j + 1
        if first == 0:
            # step 0 is observed before any Euler step, with zero effort
            j = 0
            spread, peak = spread_and_peak(self.x[None])
            self.V[0] = spread[0]
            if self.E_tot is not None:
                self.E_tot[0] = 0.0
            if E_i is not None:
                E_i[0] = 0.0
            if not peak[0] <= DIVERGENCE_LIMIT:
                self.error = DivergenceError(self.t0, peak[0])
                return
            if self._eps is not None and spread[0] <= self._eps:
                self._run_below = 1
        while j < end - 1:
            now, change = self._schedule(j)
            if now != self._member:
                self.events.append((self.t0 + self.dt * j, self._member, now))
                counters["switches"] += 1
                self._member = now
            b = min(change, end - 1)  # the stretch's Euler steps are j..b-1
            keep = -(-j // stride) * stride  # its first recorded step, if below b
            rec = slice(keep // stride, None) if keep < b else None
            run, compiled = self._stretches[now]
            steps, self._run_below, peak, discarded = run(
                self.x,
                self._y,
                keep - j,
                None if rec is None else self._states[rec],
                None if rec is None else self._controls[rec],
                self.V[j + 1 : b + 1],
                self._s_accum,
                None if E_i is None else E_i[j + 1 - first : b + 1 - first],
                None if self.E_tot is None else self.E_tot[j + 1 : b + 1],
                self._run_below,
            )
            counters["stretches_compiled" if compiled else "stretches_numpy"] += 1
            counters["steps"] += steps + discarded
            counters["discarded"] += discarded
            j += steps
            if not peak <= DIVERGENCE_LIMIT:
                # the steps before the one that fails the guard are observed
                self.error = DivergenceError(self.t0 + self.dt * j, peak)
                self.next = j
                return
            if self._run_below >= STICKY_STEPS:
                self.stopped = True
                break
        self.next = j + 1

    def _series(self, first, end, E_i=None) -> MetricSeries:
        return MetricSeries(
            times=_step_times(first, end, self.dt, self.t0),
            V=self.V[first:end],
            E_tot=self.E_tot[first:end] if self.E_tot is not None else None,
            E_i=E_i,
        )

    def metrics(self) -> MetricSeries:
        """Per-step record of the steps observed so far, without E_i."""
        return self._series(0, self.next)

    def trajectory(self) -> Trajectory:
        """Package the run so far; its current state is always the last sample."""
        last, kept = self.next - 1, self._kept()
        u_final = control(self.protocol, self.net.graphs[self._schedule(last)[0]], self.x)
        return Trajectory(
            times=self.t0 + self.dt * np.append(np.arange(0, last, self._stride), last),
            states=np.vstack((self._states[:kept], self.x)),
            controls=np.vstack((self._controls[:kept], u_final)),
            metrics=self.metrics(),
            events=list(self.events),
        )


def _open_run(net, protocol, x0, cfg: SimConfig):
    """The _Run that simulate integrates, not yet advanced, and the last
    step it runs to."""
    run = _Run(
        net,
        protocol,
        x0,
        cfg.dt,
        stop_epsilon=cfg.stop_epsilon,
        record_stride=cfg.record_stride,
        per_node=cfg.track_per_node,
    )
    return run, _step_count(cfg.t_end, run.t0, cfg.dt)


def simulate(net: DynamicNetwork, protocol: Protocol, x0, cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop from x0 until t_end or the sticky stop.

    The step rules are those of _Run; the final state is always a sample,
    also when an early stop falls between strides. With track_per_node,
    metrics.E_i is gathered from the blocks the run hands over. Raises
    DivergenceError when the state fails the guard.
    """
    run, last = _open_run(net, protocol, x0, cfg)
    rows = E_i = None
    if cfg.track_per_node:
        E_i = run._record(last, net.n)

        def rows(block):
            E_i[run.next - len(block.V) : run.next] = block.E_i

    run.advance(last, rows)
    if run.error is not None:
        raise run.error
    traj = run.trajectory()
    if E_i is not None:
        traj.metrics.E_i = E_i[: run.next]
    return traj


def replay_check(traj: Trajectory, net: DynamicNetwork, protocol: Protocol, cfg: SimConfig):
    """Re-derive every recorded transition; (True, None) iff all match.

    Requires a stride-1 trajectory. Returns (False, m) at the first sample m
    whose successor deviates from states[m] + dt*control(...) by more than
    1e-12 in any coordinate.
    """
    if cfg.record_stride != 1:
        raise ValueError("replay_check needs a record_stride of 1")
    dt, t0 = cfg.dt, net.signal.t0
    schedule = step_schedule(net.signal, dt)
    for m in range(len(traj.times) - 1):
        k = int(round((traj.times[m] - t0) / dt))
        g = net.graphs[schedule(k)[0]]
        predicted = traj.states[m] + dt * control(protocol, g, traj.states[m])
        if np.max(np.abs(predicted - traj.states[m + 1])) > 1e-12:
            return False, m
    return True, None
