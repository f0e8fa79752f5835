"""Fixed-step explicit-Euler integration of x' = u over a switched network.

Every switching instant must land on a step boundary, so a topology change
never smears across a step. switching.step_schedule owns the schedule in
integer steps, exact over long horizons; this module knows no signal type.

The step loop does only the Euler update, in stretches of steps under one
member with its kernel bound once. The spread, the divergence guard, the
sticky stop and the effort integrals are evaluated once per block of
steps, with the metrics module's block forms; the step at which a run stops
or diverges, and every number it records, are those of a check after every
step. A run whose caller reads no effort, such as a calibration probe,
skips the effort integrals altogether.

Independent systems that share the signal, dt and the protocol's law up to
its gains run as one union (simulate_batch): one state vector, one kernel
per member over the disjoint union of their arcs, and per-system spread,
stop, divergence and effort. Each system gets the numbers of its own run
for far less than one run each; simulate is the one-system case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .metrics import MetricSeries, isce_accumulate, segment_spread
from .protocols import Protocol, _kernel, control
from .switching import DynamicNetwork, step_schedule

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
# what a run integrates of the control effort: nothing, E_tot, or E_tot and E_i
EFFORTS = (None, "total", "per_node")


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
    if not math.isfinite(span):
        raise ValueError(f"t_end = {t_end} and dt = {dt} give too many steps to count")
    steps = int(round(span))
    if steps < 1 or abs(span - steps) > 1e-6:
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
    """Sticky stops in a block of spreads, one column per component.

    Returns, per column of V, the row at which the sticky stop falls
    (len(V) if none) and the run of steps at or below eps after V, given
    run_below such steps before it.
    """
    rows = np.arange(len(V))[:, None]
    # index of the last row above eps at or before each row; the carried
    # run counts as rows before V
    last_above = np.where(V <= eps, -1 - run_below, rows)
    np.maximum.accumulate(last_above, axis=0, out=last_above)
    run = rows - last_above
    hit = run >= STICKY_STEPS
    stop = np.where(hit.any(axis=0), hit.argmax(axis=0), len(V))
    return stop, np.where(stop < len(V), STICKY_STEPS, run[-1])


class _Component:
    """One system of a run and the record of its steps observed so far."""

    def __init__(self, net, protocol, x, effort):
        self.net = net
        self.protocol = protocol
        self.n = net.n
        self.x = x  # the state at step next - 1 once the component has ended
        self.next = 0  # first step not yet observed
        self.stopped = False
        self.error: Optional[DivergenceError] = None
        self.ended = False
        self.V = np.empty(0)
        self.E_tot = np.empty(0) if effort else None
        self.E_i = np.empty((0, net.n)) if effort == "per_node" else None
        self.events: List[Tuple[float, int, int]] = []
        self.rec_steps: List[int] = []
        self.rec_states: List[np.ndarray] = []
        self.rec_controls: List[np.ndarray] = []

    def grow(self, size):
        if len(self.V) >= size:
            return
        for name in ("V", "E_tot", "E_i"):
            old = getattr(self, name)
            if old is None:
                continue
            new = np.empty((size,) + old.shape[1:])
            new[: self.next] = old[: self.next]
            setattr(self, name, new)


class _Run:
    """Closed-loop integration of one or more independent systems from their
    initial states, which can be advanced in pieces.

    systems lists (net, protocol, x0) triples. They share the switching
    signal, the number of family members, the protocol direction, the law
    type and its exponents; each brings its own member graphs, x0 and
    gains. They run as one union: the state stacks their states, and each
    member's kernel acts on the disjoint union of their arcs (see
    protocols._kernel), so every system computes the numbers it computes
    alone.

    advance(last_step) integrates up to step last_step and may be called
    again with a later step; the pieces give exactly the numbers of one
    uninterrupted run. reserve(last_step) sizes the records for every step
    up to last_step at once; advance sizes them only to the step it is
    given, so a run advanced in many pieces reserves first and copies no
    record. Each Euler step from t_j applies the kernel u = f(x) of the
    member active over [t_j, t_{j+1}), bound once per stretch of steps under
    one member, and steps x by dt*u; effort integrals advance by the
    left-endpoint rule. effort, one of EFFORTS, says which effort the run
    keeps: None keeps none, so the loop neither stores the controls nor
    integrates them and metrics() reports E_tot as None; "total" keeps
    E_tot, and "per_node" also E_i. V, the stop and the divergence do not
    depend on it.

    The steps run in blocks of at most BLOCK_STEPS steps and BLOCK_ELEMENTS
    state entries. Once per block the spread V, the divergence guard, the
    sticky stop and the effort are evaluated for every step and system of
    the block at once, with segmented reductions over the systems' nodes.
    A system whose state fails the guard ends with its DivergenceError as
    its outcome, and one whose spread has stayed at or below stop_epsilon
    for STICKY_STEPS consecutive steps stops for good: both steps, and every
    number recorded up to them, are those of a step-by-step check of the
    system alone. Steps a block computed past a system's end are discarded.
    A system that ends, or that drop() removes, leaves the union before the
    next block, so the others no longer pay for it.
    """

    def __init__(self, systems, dt, stop_epsilon=None, record_stride=1, effort="total"):
        if effort not in EFFORTS:
            raise ValueError(f"effort must be one of {EFFORTS}, got {effort!r}")
        systems = list(systems)
        if not systems:
            raise ValueError("a run needs at least one system")
        signal, members = systems[0][0].signal, len(systems[0][0].graphs)
        self.components = []
        for net, protocol, x0 in systems:
            x = np.array(x0, dtype=float)
            if x.shape != (net.n,):
                raise ValueError(f"x0 has shape {x.shape}, network has {net.n} nodes")
            if not np.isfinite(x).all():
                raise ValueError("x0 must be finite")
            if net.signal != signal or len(net.graphs) != members:
                raise ValueError(
                    "the systems of one run must share the switching signal "
                    "and the number of family members"
                )
            self.components.append(_Component(net, protocol, x, effort))
        self.dt = dt
        self.t0 = signal.t0
        self._schedule = step_schedule(signal, dt)
        self._members = members
        self._eps = stop_epsilon
        self._stride = record_stride
        self._effort = effort
        self._next = 0  # first step not yet observed by the union
        self._member = self._schedule(0)[0]  # member of the latest Euler step
        comps = self.components
        self._pack(
            list(comps),
            np.concatenate([c.x for c in comps]),
            np.zeros(sum(c.n for c in comps)),
            np.zeros(len(comps), dtype=int),
        )

    def _pack(self, live, x, s_accum, run_below):
        """Make the union of the live components, with their state, effort
        accumulators and carried runs below epsilon in component order."""
        self._live = live
        self._x, self._s_accum, self._run_below = x, s_accum, run_below
        sizes = [c.n for c in live]
        self._starts = np.cumsum([0] + sizes[:-1])
        self._slices = [slice(a, a + n) for a, n in zip(self._starts.tolist(), sizes)]
        if not live:
            return
        protocols = [c.protocol for c in live]
        self._kernels = [
            _kernel(protocols, [c.net.graphs[m] for c in live]) for m in range(self._members)
        ]
        n = sum(sizes)
        block = max(1, min(BLOCK_STEPS, BLOCK_ELEMENTS // n))
        self._X = np.empty((block, n))  # state observed at each step of a block
        # control of the step into it, then effort
        self._U = np.empty((block, n)) if self._effort else None

    def _repack(self):
        """Take the components that have ended out of the union."""
        keep = np.array([not c.ended for c in self._live])
        cols = np.repeat(keep, [c.n for c in self._live])
        live = [c for c in self._live if not c.ended]
        self._pack(live, self._x[cols], self._s_accum[cols], self._run_below[keep])

    def reserve(self, last_step):
        """Make room in every live system's record for the steps up to
        last_step, so that advancing to it in pieces copies no record."""
        try:
            for c in self._live:
                c.grow(last_step + 1)
        except MemoryError:
            raise ValueError(
                f"t_end = {self.t0 + self.dt * last_step} and dt = {self.dt} give "
                f"{last_step} steps, too many to record"
            ) from None

    def advance(self, last_step):
        """Integrate every live system to step last_step, or to its end if
        that comes first."""
        if last_step < self._next:
            return
        self.reserve(last_step)
        with np.errstate(all="ignore"):
            while self._live and self._next <= last_step:
                self._block(self._next, min(self._next + len(self._X), last_step + 1))

    def drop(self, i):
        """End system i where it stands, at the last step observed."""
        c = self.components[i]
        if c.ended:
            return
        c.x = self._x[self._slices[self._live.index(c)]].copy()
        c.ended = True
        self._repack()

    def _block(self, first, end):
        """Observe steps first..end-1: run their Euler steps, then check and
        record them in one pass."""
        X = self._X[: end - first]
        U = self._U[: end - first] if self._effort else None
        schedule, kernels = self._schedule, self._kernels
        dt, stride = self.dt, self._stride
        x, member = self._x, self._member
        switches, records = [], []
        if first == 0:
            # step 0 is observed before any Euler step, with zero effort
            X[0] = x
            if U is not None:
                U[0] = 0.0
        shift = first - 1  # the Euler step from t_j to t_{j+1} fills row j - shift
        j = max(shift, 0)
        while j < end - 1:
            now, change = schedule(j)
            if now != member:
                switches.append((j, member, now))
                member = now
            kern = kernels[member]
            stretch_end = min(change, end - 1)
            for j in range(j, stretch_end):
                u = kern(x)
                if j % stride == 0:
                    records.append((j, x.copy(), u))
                if U is not None:
                    U[j - shift] = u
                x = np.add(x, dt * u, out=X[j - shift])
            j = stretch_end
        self._member = member

        # spread and largest |x_i| of each system at each step
        rows = len(X)
        V, peak = segment_spread(X, self._starts)
        ok = peak <= DIVERGENCE_LIMIT
        # the first step that fails the guard ends a system unless the sticky
        # stop came before it; steps past either are discarded
        bad = np.where(ok.all(axis=0), rows, np.argmin(ok, axis=0)).tolist()
        stop = [rows] * len(self._live)
        if self._eps is not None:
            stop, self._run_below = _sticky_stop(V, self._eps, self._run_below)
            stop = stop.tolist()
        diverged = [b < rows and b <= s for b, s in zip(bad, stop)]
        kept = [min(s + 1, rows) for s in stop]
        m = max((k for k, d in zip(kept, diverged) if not d), default=0)

        effort = self._effort
        if effort:
            S = isce_accumulate(self._s_accum, U[:m], dt, out=U[:m])
            if m == rows:
                self._s_accum = S[-1].copy()
            if effort == "total":
                # without per-node tracking the square roots overwrite S
                np.sqrt(S, out=S)
        t0 = self.t0
        for i, (c, sl) in enumerate(zip(self._live, self._slices)):
            if diverged[i]:
                b = bad[i]
                c.error = DivergenceError(t0 + dt * (first + b), peak[b, i])
                c.ended = True
                continue
            k = kept[i]
            last = first + k - 1
            if effort:
                E = S[:k, sl]
                if effort == "per_node":
                    E = np.sqrt(E, out=c.E_i[first : last + 1])
                np.sum(E, axis=1, out=c.E_tot[first : last + 1])
            c.V[first : last + 1] = V[:k, i]
            # Euler steps from the last observed step on belong to later blocks
            c.events.extend((t0 + dt * j, a, b) for j, a, b in switches if j < last)
            for j, state, u in records:
                if j < last:
                    c.rec_steps.append(j)
                    c.rec_states.append(state[sl])
                    c.rec_controls.append(u[sl])
            c.next = last + 1
            if stop[i] < rows:
                c.stopped = c.ended = True
                c.x = X[k - 1, sl].copy()

        self._next = end
        self._x = X[-1].copy()
        if any(c.ended for c in self._live):
            self._repack()

    def metrics(self, i=0) -> MetricSeries:
        """Per-step record of the steps of system i observed so far."""
        c = self.components[i]
        end = c.next
        return MetricSeries(
            times=_step_times(0, end, self.dt, self.t0),
            V=c.V[:end],
            E_tot=c.E_tot[:end] if c.E_tot is not None else None,
            E_i=c.E_i[:end] if c.E_i is not None else None,
        )

    def trajectory(self, i=0) -> Trajectory:
        """Package system i so far; its current state is always the last sample."""
        c = self.components[i]
        if c.ended:
            x = c.x
        else:
            x = self._x[self._slices[self._live.index(c)]]
        last = c.next - 1
        u_final = control(c.protocol, c.net.graphs[self._schedule(last)[0]], x)
        return Trajectory(
            times=self.t0 + self.dt * np.array(c.rec_steps + [last]),
            states=np.vstack(c.rec_states + [x.copy()]),
            controls=np.vstack(c.rec_controls + [u_final]),
            metrics=self.metrics(i),
            events=list(c.events),
        )


def _open_run(systems, cfg: SimConfig):
    """The _Run that simulate_batch integrates, not yet advanced, and the
    last step it runs to."""
    run = _Run(
        systems,
        cfg.dt,
        stop_epsilon=cfg.stop_epsilon,
        record_stride=cfg.record_stride,
        effort="per_node" if cfg.track_per_node else "total",
    )
    return run, _step_count(cfg.t_end, run.t0, cfg.dt)


def simulate_batch(systems, cfg: SimConfig) -> list:
    """Integrate independent closed loops as one union run, each from its x0
    until t_end or its own sticky stop.

    systems lists (net, protocol, x0) triples that share the switching
    signal, the number of family members, the protocol direction, the law
    type and its exponents (see _Run). Returns, per system, its Trajectory,
    or the DivergenceError that ended it; every number is the one simulate
    gives for that system alone.
    """
    run, last = _open_run(systems, cfg)
    run.advance(last)
    return [c.error or run.trajectory(i) for i, c in enumerate(run.components)]


def simulate(net: DynamicNetwork, protocol: Protocol, x0, cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop from x0 until t_end or the sticky stop.

    The one-system case of simulate_batch: the step rules are those of
    _Run; the final state is always a sample, also when an early stop falls
    between strides. Raises DivergenceError when the state fails the guard.
    """
    (out,) = simulate_batch([(net, protocol, x0)], cfg)
    if isinstance(out, DivergenceError):
        raise out
    return out


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
