"""Fixed-step explicit-Euler integration of x' = u over a switched network.

Every switching instant must land on a step boundary, so a topology change
never smears across a step. switching.step_schedule owns the schedule in
integer steps, exact over long horizons; this module knows no signal type.

The step loop runs in stretches of steps under one member, each one call
of _stretch.stretch's run: compiled where the law's arithmetic in C is
numpy's and the library builds, and protocols._kernel step by step
otherwise, with the same bytes. Besides each state, a stretch gives its
spread and largest magnitude and advances the squared-effort integrals,
the compiled loop inside its steps and the numpy loop with the metrics
module's forms, which stay the formula of both. The strided records are
read off the block's states and controls afterwards. The divergence guard
and the sticky stop are decided once per block of steps, on those
spreads and magnitudes; the step at which a run stops or diverges, and
every number it records, are those of a check after every step. A run
whose caller reads no effort, such as a calibration probe, skips the
effort integrals altogether. Each run integrates one system;
simulate_batch runs independent systems one after another.
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
    "simulate_batch",
    "replay_check",
]

DIVERGENCE_LIMIT = 1e12
STICKY_STEPS = 100
# a block of Euler steps holds at most this many steps and state entries
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

    def __reduce__(self):
        # the default pickles the message as the only argument and drops
        # __cause__; a sweep row's error crosses a process boundary with both
        return (
            type(self),
            (self.time, self.max_abs, self.context),
            {"__cause__": self.__cause__},
        )


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


def _sticky_stop(V, eps, run_below):
    """The sticky stop in a block of spreads V.

    Returns the row at which the sticky stop falls (len(V) if none) and the
    run of steps at or below eps after V, given run_below such steps before
    it.
    """
    rows = np.arange(len(V))
    # index of the last row above eps at or before each row; the carried
    # run counts as rows before V
    last_above = np.where(V <= eps, -1 - run_below, rows)
    np.maximum.accumulate(last_above, out=last_above)
    run = rows - last_above
    hit = np.flatnonzero(run >= STICKY_STEPS)
    if hit.size:
        return int(hit[0]), STICKY_STEPS
    return len(V), int(run[-1])


class _Run:
    """Closed-loop integration of one system from its initial state, which
    can be advanced in pieces.

    advance(last_step, rows) integrates up to step last_step and may be
    called again with a later step; the pieces give exactly the numbers of
    one uninterrupted run. The run keeps V and E_tot for every step it
    observed, and the per-node effort E_i only for the block it observed
    last: a caller that wants E_i, such as simulate, or the command line's
    simulate as it formats metrics.csv, reads it from each block that
    advance hands to rows.

    Each Euler step from t_j applies the kernel u = f(x) of the member
    active over [t_j, t_{j+1}) and steps x by dt*u; effort integrals
    advance by the left-endpoint rule. A stretch of steps under one member
    runs in one call of its _stretch.stretch, which also gives the spread V
    and the largest magnitude of each state and advances the run's
    squared-effort integrals in place. It writes the controls of the
    recorded steps alone, so a block with none leaves its control buffer
    untouched. Without effort the run integrates none, and E_tot and E_i
    are None. V, the stop and the divergence do not depend on it.

    The steps run in blocks of at most BLOCK_STEPS steps and BLOCK_ELEMENTS
    state entries. Once per block the divergence guard and the sticky stop
    are decided for every step of the block at once, and E_i and E_tot are
    taken from the integrals of the steps kept. A state that fails the
    guard ends the run with its DivergenceError as error, and a spread that
    has stayed at or below stop_epsilon for STICKY_STEPS consecutive steps
    stops it for good: both steps, and every number recorded up to them,
    are those of a check after every step. Steps a block computed past the
    end are discarded; their effort went into the integrals too, but the
    run ends there.

    counters counts the run's work: Euler steps, blocks, switches,
    stretches run compiled and on numpy, and discarded, the steps that
    blocks computed past the sticky stop or the divergence.
    """

    def __init__(self, net, protocol, x0, dt, stop_epsilon=None, record_stride=1, effort=True):
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
        self._effort = effort
        self.x = x  # the state at step next - 1
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
        self._s_accum = np.zeros(net.n)
        self._run_below = 0  # steps at or below epsilon up to step next - 1
        self._member = self._schedule(0)[0]  # member of the latest Euler step
        self._stretches = [_stretch.stretch(protocol, g, dt, record_stride) for g in net.graphs]
        block = max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // net.n))
        self._X = np.empty((block, net.n))  # state observed at each step of a block
        self._P = np.empty(block)  # its largest magnitude
        self._U = np.empty((block, net.n))  # control of the step into it
        # its squared effort integrals, then E_i
        self._E = np.empty((block, net.n)) if effort else None
        self.counters = dict.fromkeys(COUNTERS, 0)

    @property
    def ended(self):
        return self.stopped or self.error is not None

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
        of the steps the block observed. Its E_i is a view of the block
        buffer, which the next block overwrites.
        """
        if self.ended or last_step < self.next:
            return
        self._grow(last_step)
        with np.errstate(all="ignore"):
            while not self.ended and self.next <= last_step:
                first = self.next
                self._block(first, min(first + len(self._X), last_step + 1))
                if rows is not None and self.next > first:
                    E_i = self._E[: self.next - first] if self._effort else None
                    rows(self._series(first, self.next, E_i))

    def _block(self, first, end):
        """Observe steps first..end-1: run their Euler steps, which give
        the spread, peak and effort of each, then check and record them in
        one pass."""
        rows = end - first
        X, U, P, V = self._X[:rows], self._U[:rows], self._P[:rows], self.V[first:end]
        schedule, stretches, counters = self._schedule, self._stretches, self.counters
        dt, t0, stride = self.dt, self.t0, self._stride
        x, member = self.x, self._member
        S, E = (self._s_accum, self._E[:rows]) if self._effort else (None, None)
        if first == 0:
            # step 0 is observed before any Euler step, with zero effort
            X[0] = x
            V[:1], P[:1] = spread_and_peak(X[:1])
            if E is not None:
                E[0] = 0.0
        shift = first - 1  # the Euler step from t_j to t_{j+1} fills row j - shift
        j = max(shift, 0)
        counters["steps"] += end - 1 - j
        # the recorded steps among the Euler steps j..end-2, whose controls
        # alone are kept
        recorded = np.arange(-(-j // stride) * stride, end - 1, stride)
        switches = []
        while j < end - 1:
            now, change = schedule(j)
            if now != member:
                switches.append((j, member, now))
                member = now
            a, b = j - shift, min(change, end - 1) - shift  # the stretch's rows
            keep = -(-j // stride) * stride - j  # its first row of a recorded step
            run, compiled = stretches[member]
            run(x, X[a:b], U[a:b], keep, V[a:b], P[a:b], S, None if E is None else E[a:b])
            x = X[b - 1]
            counters["stretches_compiled" if compiled else "stretches_numpy"] += 1
            j = b + shift
        self._member = member
        counters["blocks"] += 1
        counters["switches"] += len(switches)

        # the first step that fails the guard ends the run unless the sticky
        # stop came before it; steps past either are discarded, and so is
        # their effort, already added to S
        bad = np.flatnonzero(~(P <= DIVERGENCE_LIMIT))
        bad = int(bad[0]) if bad.size else rows
        stop = rows
        if self._eps is not None:
            stop, self._run_below = _sticky_stop(V, self._eps, self._run_below)
        if bad < rows and bad <= stop:
            self.error = DivergenceError(t0 + dt * (first + bad), P[bad])
            counters["discarded"] += rows - 1 - bad
            return
        k = min(stop + 1, rows)  # the rows kept
        last = first + k - 1
        if E is not None:
            # the square roots, E_i, overwrite the integrals
            E_i = np.sqrt(E[:k], out=E[:k])
            np.sum(E_i, axis=1, out=self.E_tot[first : last + 1])
        # Euler steps from the last observed step on belong to later blocks
        self.events.extend((t0 + dt * j, a, b) for j, a, b in switches if j < last)
        kept = int(np.searchsorted(recorded, last))
        if kept:
            # the state and control of each recorded step kept, in its rows
            # of the records; the Euler step out of the block's first step
            # (row 0) starts from the state before it
            at = recorded[:kept] - shift
            rec = slice(recorded[0] // stride, recorded[0] // stride + kept)
            self._states[rec] = X[at - 1]
            self._controls[rec] = U[at]
            if at[0] == 0:
                self._states[rec.start] = self.x
        self.next = last + 1
        self.x = X[k - 1].copy()
        if stop < rows:
            self.stopped = True
            counters["discarded"] += rows - k

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


def simulate_batch(systems, cfg: SimConfig) -> list:
    """Integrate independent closed loops, each from its x0 until t_end or
    its own sticky stop.

    systems lists (net, protocol, x0) triples. Returns, per system, its
    Trajectory, or the DivergenceError that ended it, as simulate gives
    them.
    """
    outcomes = []
    for system in systems:
        try:
            outcomes.append(simulate(*system, cfg))
        except DivergenceError as exc:
            outcomes.append(exc)
    return outcomes


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
