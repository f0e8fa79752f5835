"""Piecewise-constant switching signals and switched dynamic networks.

Signals are right-continuous: at a switch instant the new index already
applies. FloorModulo realizes sigma(t) = floor(rate*t) (mod modulus) + offset
with dwell time 1/rate; Breakpoints lists explicit switch times. Both
guarantee a strictly positive minimum dwell, so any finite interval holds
finitely many switches.

This module owns the schedule: step_schedule, in integer steps, drives the
simulator; active_index and switch_times, in float time, serve
is_tau_jointly_connected, since verify has no dt.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .graphs import graph_from_json, graph_to_json, is_connected, union_graph
from .io import json_field


@dataclass(frozen=True)
class FloorModulo:
    rate: float
    modulus: int
    offset: int = 0
    t0: float = 0.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")

    @property
    def tau_min(self):
        return 1.0 / self.rate

    def index_range(self):
        return self.offset, self.offset + self.modulus - 1


@dataclass(frozen=True)
class Breakpoints:
    times: tuple
    indices: tuple
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) != len(self.times) + 1:
            raise ValueError("need exactly one more index than switch times")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("switch times must be strictly increasing")
        if self.times and self.times[0] <= self.t0:
            raise ValueError("first switch time must come after t0")
        if any(a == b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("consecutive indices must differ")

    @property
    def tau_min(self):
        pts = (self.t0,) + self.times
        return min(b - a for a, b in zip(pts, pts[1:])) if self.times else math.inf

    def index_range(self):
        return min(self.indices), max(self.indices)


def active_index(sig, t):
    """Graph index selected by the signal at time t (right-continuous)."""
    if t < sig.t0:
        raise ValueError(f"t={t} precedes the signal start t0={sig.t0}")
    if isinstance(sig, FloorModulo):
        return math.floor(sig.rate * t) % sig.modulus + sig.offset
    return sig.indices[bisect_right(sig.times, t)]


def switch_times(sig, t_a, t_b):
    """All switch instants inside the half-open interval (t_a, t_b]."""
    if t_b < t_a:
        raise ValueError("inverted interval")
    if isinstance(sig, FloorModulo):
        if sig.modulus == 1:
            return []
        c = sig.rate
        # smallest j with j/c > t_a; float guard loops absorb rounding at
        # the boundary
        j = math.floor(t_a * c) + 1
        while j - 1 >= 0 and (j - 1) / c > t_a:
            j -= 1
        while j / c <= t_a:
            j += 1
        jh = math.floor(t_b * c)
        while jh / c > t_b:
            jh -= 1
        while (jh + 1) / c <= t_b:
            jh += 1
        return [k / c for k in range(j, jh + 1)]
    lo = bisect_right(sig.times, t_a)
    hi = bisect_right(sig.times, t_b)
    return list(sig.times[lo:hi])


def _nearest_int(value):
    """value rounded to an int, or None if it is not finite."""
    return int(round(value)) if math.isfinite(value) else None


def step_schedule(sig, dt):
    """schedule(k) -> (member, change) on the steps t_k = t0 + k dt: the
    index active over [t_k, t_{k+1}) and the first step after k at which it
    can change (math.inf after the last breakpoint). Raises ValueError when
    a switch instant does not land on a step boundary."""
    if isinstance(sig, FloorModulo):
        # a tiny rate * dt underflows to 0, or its inverse overflows to inf
        per = 1.0 / (sig.rate * dt) if sig.rate * dt > 0 else math.inf
        spt = _nearest_int(per)
        if spt is None or spt < 1 or abs(per - spt) > 1e-6:
            raise ValueError(
                f"switching period 1/rate = {1.0 / sig.rate} is not a whole "
                f"number of steps at dt = {dt}"
            )
        start = sig.t0 / dt
        k0 = _nearest_int(start)
        if k0 is None or abs(start - k0) > 1e-6:
            raise ValueError(f"signal t0 = {sig.t0} is not on a step boundary at dt = {dt}")

        def schedule(k):
            dwell, into = divmod(k0 + k, spt)
            return dwell % sig.modulus + sig.offset, k + spt - into

        return schedule
    if isinstance(sig, Breakpoints):
        steps = []
        for bt in sig.times:
            s = _nearest_int((bt - sig.t0) / dt)
            if s is None or abs(bt - (sig.t0 + s * dt)) > 1e-12:
                raise ValueError(f"breakpoint {bt} is not on a step boundary at dt = {dt}")
            steps.append(s)
        ends = (*steps, math.inf)

        def schedule(k):
            i = bisect_right(ends, k)
            return sig.indices[i], ends[i]

        return schedule
    raise TypeError(f"unknown signal type: {sig!r}")


class DynamicNetwork:
    """A graph family plus the signal that schedules it."""

    def __init__(self, graphs, signal):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("family must be nonempty")
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise ValueError("family members must share the vertex count")
        lo, hi = signal.index_range()
        if lo < 0 or hi >= len(graphs):
            raise ValueError(
                f"signal indices span [{lo},{hi}] but the family has "
                f"{len(graphs)} members"
            )
        self.graphs = graphs
        self.signal = signal
        self.n = n


def is_tau_jointly_connected(net, tau, horizon):
    """Check every window [t_bar, t_bar+tau] unions to a connected graph.

    Window starts are anchored at t0 and the switch times in
    [t0, t0+horizon-tau]; active sets only change at switch instants, so
    this equals the dense quantification over all t_bar in that range.
    Returns (verdict, earliest violating window start or None).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if horizon < tau:
        raise ValueError("horizon must be at least tau")
    sig = net.signal
    t0 = sig.t0
    anchors = [t0] + switch_times(sig, t0, t0 + horizon - tau)
    for t_bar in anchors:
        idxs = {active_index(sig, t_bar)}
        idxs.update(active_index(sig, s) for s in switch_times(sig, t_bar, t_bar + tau))
        if not is_connected(union_graph([net.graphs[i] for i in idxs])):
            return False, t_bar
    return True, None


def signal_to_json(sig):
    if isinstance(sig, FloorModulo):
        obj = {
            "type": "floor_modulo",
            "rate": sig.rate,
            "modulus": sig.modulus,
            "offset": sig.offset,
        }
    else:
        obj = {
            "type": "breakpoints",
            "times": list(sig.times),
            "indices": list(sig.indices),
        }
    if sig.t0 != 0.0:
        obj["t0"] = sig.t0
    return obj


def signal_from_json(obj):
    kind = json_field(obj, "type", "string", "signal")
    t0 = json_field(obj, "t0", "number", "signal", default=0.0)
    if kind == "floor_modulo":
        return FloorModulo(
            rate=json_field(obj, "rate", "number", "signal"),
            modulus=json_field(obj, "modulus", "integer", "signal"),
            offset=json_field(obj, "offset", "integer", "signal", default=0),
            t0=t0,
        )
    if kind == "breakpoints":
        times = json_field(obj, "times", "array", "signal")
        indices = json_field(obj, "indices", "array", "signal")
        return Breakpoints(
            times=tuple(json_field(t, None, "number", "signal switch time") for t in times),
            indices=tuple(json_field(i, None, "integer", "signal index") for i in indices),
            t0=t0,
        )
    raise ValueError(f"unknown signal type {kind!r}")


def network_to_json(net):
    return {
        "signal": signal_to_json(net.signal),
        "graphs": [graph_to_json(g) for g in net.graphs],
    }


def network_from_json(obj):
    graphs = json_field(obj, "graphs", "array", "network")
    signal = json_field(obj, "signal", "object", "network")
    return DynamicNetwork([graph_from_json(g) for g in graphs], signal_from_json(signal))
