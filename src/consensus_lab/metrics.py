"""Trajectory metrics: Lyapunov spread, control effort, settling time.

The spread V(x) = max(x) - min(x) is the Lyapunov function all convergence
statements are phrased in. Control effort is the per-node integrated squared
control effort E_i = (int u_i^2 dt)^(1/2), accumulated with the left-endpoint
rule at the integrator step so the accounting matches the Euler update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "MetricSeries",
    "lyapunov_v",
    "segment_spread",
    "isce_accumulate",
    "settling_time",
    "consensus_value",
]


@dataclass
class MetricSeries:
    """Per-step metric record of one trajectory.

    times, V, E_tot cover every integrator step. E_tot is None for a run
    that integrated no effort. E_i is the per-node effort at the same
    times, (len(times), n) shaped, kept only when per-node tracking was
    requested; None otherwise. Fields are filled by the simulator and not
    revalidated here.
    """

    times: np.ndarray
    V: np.ndarray
    E_tot: Optional[np.ndarray]
    E_i: Optional[np.ndarray] = None


def _require_positive(name, value):
    """Raise ValueError, naming the value, unless it is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def lyapunov_v(x):
    """Spread max(x) - min(x) along the last axis; zero exactly at consensus.

    A float for one state; for a block of states, one row per step, the
    array of their spreads.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("state vector is empty")
    v = np.max(x, axis=-1) - np.min(x, axis=-1)
    return float(v) if x.ndim == 1 else v


def segment_spread(x, starts):
    """Spread and largest magnitude of each segment of the last axis.

    The last axis of x is cut into segments that begin at the indices
    starts, such as the states of independent systems stacked in one
    vector. Returns (V, peak): each segment's spread max - min, as
    lyapunov_v gives it, and its largest |x_i|, both taken from one max
    and one min reduction per segment.
    """
    hi = np.maximum.reduceat(x, starts, axis=-1)
    lo = np.minimum.reduceat(x, starts, axis=-1)
    return hi - lo, np.maximum(hi, -lo)


def isce_accumulate(s_accum: np.ndarray, u, dt: float, out=None) -> np.ndarray:
    """Advance the squared-effort integrals S_i by left-endpoint steps.

    For one control vector u, returns s_accum + u*u*dt. For a block of
    controls, one row per step, returns the accumulator after each step:
    row r is row r-1 (s_accum for r = 0) plus u[r]*u[r]*dt, in that
    operand order, so every row has the bits of the one-step update. The
    block may be written into out, which can be u itself. E_i = sqrt(S_i)
    and E_tot = sum(E_i) are derived wherever a metric point is
    materialized.
    """
    _require_positive("dt", dt)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return s_accum + u * u * dt
    s = np.multiply(u, u, out=out)
    s *= dt
    rows, cols = s.shape
    # np.add.accumulate runs one inner loop per column, the loop one numpy
    # call per row: each is the cheaper one on its side of rows = cols
    if rows > cols:
        np.add(s_accum, s[0], out=s[0])
        np.add.accumulate(s, axis=0, out=s)
    else:
        prev = s_accum
        for row in s:
            prev = np.add(prev, row, out=row)
    return s


def settling_time(series: MetricSeries, epsilon: float):
    """Earliest recorded time after which V stays at or below epsilon.

    The rule is the last up-crossing: the answer is the time of the sample
    right after the last violation, so chattering that re-crosses a small
    threshold does not produce a spuriously early time. None if V is still
    above epsilon at the final sample.
    """
    _require_positive("epsilon", epsilon)
    violations = np.nonzero(series.V > epsilon)[0]
    if violations.size == 0:
        return float(series.times[0])
    last = int(violations[-1])
    if last == len(series.V) - 1:
        return None
    return float(series.times[last + 1])


def consensus_value(series: MetricSeries, x_final, epsilon: float) -> float:
    """Mean of the final state, guarded by the settledness check V <= epsilon."""
    v_final = float(series.V[-1])
    if v_final > epsilon:
        raise ValueError(
            f"trajectory not settled: final V = {v_final} exceeds epsilon = {epsilon}"
        )
    return float(np.mean(np.asarray(x_final, dtype=float)))
