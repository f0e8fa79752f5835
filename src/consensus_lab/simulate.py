"""Fixed-step explicit-Euler integration of x' = u over a switched network.

Every switching instant must land on a step boundary, so a topology change
never smears across a step. switching.step_schedule owns the schedule in
integer steps, exact over long horizons; this module knows no signal type.

The step loop runs in stretches of steps under one member, each one call
of _stretch.stretch's run: compiled where the law's arithmetic in C is
numpy's and the library builds, and protocols._kernel step by step
otherwise, with the same bytes. A stretch decides the divergence guard
and the sticky stop itself and ends the run on its step, writes each
state's spread V and the effort E_tot straight into the run's buffers,
and the strided states and controls into records its caller owns, and
carries the state in a buffer of n floats. The compiled loop does all of
it inside its steps, and the numpy loop in chunks, with the metrics
module's forms, which stay the formula of both. The step at which a run
stops or diverges, and every number it records, are those of a check
after every step. A run whose caller reads no effort, such as a
calibration probe, skips the effort integrals altogether, and only a
caller that reads the per-node effort E_i has it written. The per-step
records are kept for one block of steps at a time, which the run hands
to its caller; simulate owns the strided records of the whole run and
gathers the rest from the blocks. Each run integrates one system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import _stretch
from .metrics import MetricSeries, _allocate, _require_int, _require_positive, spread_and_peak
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
# a block of steps holds at most BLOCK_ELEMENTS steps, and where a caller
# reads the per-node effort E_i, at most BLOCK_STEPS steps and
# BLOCK_ELEMENTS entries of E_i
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
    one uninterrupted run. The run keeps the per-step records V, E_tot
    and, with per_node, the per-node effort E_i only for the block of
    steps it observed last, in one set of block buffers written at the
    same offset: a caller that reads them, such as simulate, or a sweep
    row for the E_tot of its settling step, reads them from each block
    that advance hands to rows.

    The state and control of the recorded steps 0, record_stride, ...
    before the last observed step go into records the caller owns and
    sets before the first advance, states and controls: rows of n floats,
    one per recorded step up to the last step advanced to. A run given
    none, such as a calibration probe or a sweep row, records nothing.

    Each Euler step from t_j applies the kernel u = f(x) of the member
    active over [t_j, t_{j+1}) and steps x by dt*u; effort integrals
    advance by the left-endpoint rule. A stretch of steps under one member
    runs in one call of its _stretch.stretch, which writes the spread V,
    E_tot and, with per_node, E_i of each state straight into the block
    buffers, and the state and control of each recorded step into the
    caller's records. The current state stays in one buffer, self.x, which
    each step swaps with a second one. Without effort the run integrates
    none, and E_tot and E_i are None. V, the stop and the divergence do
    not depend on it.

    The stretch also decides, after every step, the divergence guard and
    the sticky stop, and ends there. A state that fails the guard ends the
    run with its DivergenceError as error, and a spread that has stayed at
    or below stop_epsilon for STICKY_STEPS consecutive steps stops it for
    good; the steps before either are observed. With per_node a block
    holds at most BLOCK_STEPS steps and BLOCK_ELEMENTS entries of E_i, and
    without it at most BLOCK_ELEMENTS steps; the buffers never hold more
    steps than an advance observes.

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
        self.events: List[Tuple[float, int, int]] = []
        # the caller's records of the recorded steps' states and controls
        self.states = self.controls = None
        self._s_accum = np.zeros(net.n) if effort else None
        self._run_below = 0  # steps at or below epsilon up to step next - 1
        self._member = self._schedule(0)[0]  # member of the latest Euler step
        self._stretches = [
            _stretch.stretch(protocol, g, dt, record_stride, stop_epsilon, DIVERGENCE_LIMIT,
                             STICKY_STEPS)
            for g in net.graphs
        ]
        # the block buffers of V, E_tot and E_i, a row per step of a block
        self._V = np.empty(0)
        self._E_tot = np.empty(0) if effort else None
        self._E_i = np.empty((0, net.n)) if per_node and effort else None
        self._block_steps = BLOCK_ELEMENTS
        if self._E_i is not None:
            self._block_steps = max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // net.n))
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

    def advance(self, last_step, rows=None):
        """Integrate to step last_step, or to the run's end if that comes
        first.

        rows, if given, is called after each block with the MetricSeries
        of the steps the block observed. Its V, E_tot and E_i are views of
        the block buffers, which the next block overwrites; E_tot is None
        without effort, and E_i without per_node. Records too short for
        last_step are a ValueError.
        """
        if self.ended or last_step < self.next:
            return
        if self.states is not None and len(self.states) <= (last_step - 1) // self._stride:
            raise ValueError(f"the records hold too few rows for step {last_step}")
        size = min(self._block_steps, last_step + 1 - self.next)
        if len(self._V) < size:
            self._V, self._E_tot, self._E_i = (
                None if b is None else np.empty((size,) + b.shape[1:])
                for b in (self._V, self._E_tot, self._E_i)
            )
        with np.errstate(all="ignore"):
            while not self.ended and self.next <= last_step:
                first = self.next
                self._block(first, min(first + self._block_steps, last_step + 1))
                if rows is not None and self.next > first:
                    k = self.next - first
                    rows(MetricSeries(
                        _step_times(first, self.next, self.dt, self.t0),
                        *(None if b is None else b[:k] for b in (self._V, self._E_tot, self._E_i)),
                    ))

    def _block(self, first, end):
        """Observe steps first..end-1, or up to the run's end: run the
        Euler steps into them, one stretch per member. Step k is row
        k - first of the block buffers."""
        counters, stride = self.counters, self._stride
        V, E_tot, E_i = self._V, self._E_tot, self._E_i
        counters["blocks"] += 1
        j = first - 1  # the Euler step from t_j fills step j + 1
        if first == 0:
            # step 0 is observed before any Euler step, with zero effort
            j = 0
            spread, peak = spread_and_peak(self.x[None])
            V[0] = spread[0]
            if E_tot is not None:
                E_tot[0] = 0.0
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
            # its first recorded step, if below b; without records none is
            keep = b if self.states is None else -(-j // stride) * stride
            rec = slice(keep // stride, None) if keep < b else None
            at = slice(j + 1 - first, b + 1 - first)  # the rows of steps j+1..b
            run, compiled = self._stretches[now]
            steps, self._run_below, peak, discarded = run(
                self.x,
                self._y,
                keep - j,
                None if rec is None else self.states[rec],
                None if rec is None else self.controls[rec],
                V[at],
                self._s_accum,
                None if E_i is None else E_i[at],
                None if E_tot is None else E_tot[at],
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


def simulate(net: DynamicNetwork, protocol: Protocol, x0, cfg: SimConfig, rows=None) -> Trajectory:
    """Integrate the closed loop from x0 until t_end or the sticky stop.

    The step rules are those of _Run; the final state is always a sample,
    also when an early stop falls between strides. simulate owns the
    records of the whole horizon: the strided states and controls, which
    the run writes in place, and metrics, gathered from the blocks the run
    hands over, with E_i where track_per_node asks for it; records too
    large for memory are a ValueError. rows, if given, is called with each
    of those blocks, as _Run.advance hands it, and metrics.E_i is then
    None: a caller that formats the blocks, such as the command line's
    simulate, reads E_i there. Raises DivergenceError when the state fails
    the guard.
    """
    stride = cfg.record_stride
    run = _Run(net, protocol, x0, cfg.dt, stop_epsilon=cfg.stop_epsilon,
               record_stride=stride, per_node=cfg.track_per_node)
    last = _step_count(cfg.t_end, run.t0, cfg.dt)
    what = f"t_end = {cfg.t_end} and dt = {cfg.dt} give {last} steps"
    V, E_tot = _allocate((last + 1,), what), _allocate((last + 1,), what)
    E_i = _allocate((last + 1, net.n), what) if cfg.track_per_node and rows is None else None
    samples = -(-last // stride) + 1  # the recorded steps before the last, and the last
    run.states, run.controls = (_allocate((samples, net.n), what) for _ in range(2))

    def gather(block):
        at = slice(run.next - len(block.V), run.next)
        V[at], E_tot[at] = block.V, block.E_tot
        if E_i is not None:
            E_i[at] = block.E_i
        if rows is not None:
            rows(block)

    run.advance(last, gather)
    if run.error is not None:
        raise run.error
    end = run.next
    kept = -(-(end - 1) // stride)  # the recorded steps before the last
    run.states[kept] = run.x
    run.controls[kept] = control(protocol, net.graphs[run._schedule(end - 1)[0]], run.x)
    return Trajectory(
        times=run.t0 + cfg.dt * np.append(np.arange(0, end - 1, stride), end - 1),
        states=run.states[: kept + 1],
        controls=run.controls[: kept + 1],
        metrics=MetricSeries(
            times=_step_times(0, end, cfg.dt, run.t0),
            V=V[:end],
            E_tot=E_tot[:end],
            E_i=None if E_i is None else E_i[:end],
        ),
        events=run.events,
    )


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
