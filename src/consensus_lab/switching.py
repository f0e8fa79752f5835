"""Piecewise-constant switching signals and switched dynamic networks.

Signals are right-continuous: at a switch instant the new index already
applies. FloorModulo realizes sigma(t) = floor(rate*t) (mod modulus) + offset
with dwell time 1/rate; Breakpoints lists explicit switch times. Both
guarantee a strictly positive minimum dwell, so any finite interval holds
finitely many switches.

dwell_member gives each numbered dwell's member; step_schedule steps the
dwells for the simulator and dwells walks them for verify, which has no dt.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import count, takewhile, tee

from .graphs import graph_from_json, graph_to_json, is_connected, union_graph
from .io import json_field
from .metrics import _require_int, _require_positive


def _require_finite(name, value):
    """Raise ValueError, naming the value, unless it is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class FloorModulo:
    rate: float
    modulus: int
    offset: int = 0
    t0: float = 0.0

    def __post_init__(self):
        _require_positive("rate", self.rate)
        _require_finite("t0", self.t0)
        object.__setattr__(self, "modulus", _require_int("modulus", self.modulus))
        object.__setattr__(self, "offset", _require_int("offset", self.offset))
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
        indices = tuple(_require_int("signal index", i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        _require_finite("t0", self.t0)
        for t in self.times:
            _require_finite("switch time", t)
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


def dwell_member(sig, dwell):
    """Graph index that the signal selects over its dwell number dwell."""
    if isinstance(sig, FloorModulo):
        return dwell % sig.modulus + sig.offset
    return sig.indices[dwell]


def active_index(sig, t):
    """Graph index selected by the signal at time t (right-continuous)."""
    if t < sig.t0:
        raise ValueError(f"t={t} precedes the signal start t0={sig.t0}")
    fm = isinstance(sig, FloorModulo)
    return dwell_member(sig, math.floor(sig.rate * t) if fm else bisect_right(sig.times, t))


def _whole_steps(span):
    """span, a time in steps or dwells, as an int where it lies on their
    grid (to 1e-6 of one, at any distance from t0); None where it does not."""
    steps = round(span) if math.isfinite(span) else None
    return steps if steps is not None and abs(span - steps) <= 1e-6 else None


def step_schedule(sig, dt):
    """schedule(k) -> (member, change) on the steps t_k = t0 + k dt: the
    index active over [t_k, t_{k+1}) and the first step after k at which it
    can change (math.inf after the last breakpoint). Raises ValueError when
    a switch instant does not land on a step boundary."""
    if isinstance(sig, FloorModulo):
        # a tiny rate * dt underflows to 0, or its inverse overflows to inf
        per = 1.0 / (sig.rate * dt) if sig.rate * dt > 0 else math.inf
        spt = _whole_steps(per)
        if spt is None or spt < 1:
            raise ValueError(
                f"switching period 1/rate = {1.0 / sig.rate} is not a whole "
                f"number of steps at dt = {dt}"
            )
        k0 = _whole_steps(sig.t0 / dt)
        if k0 is None:
            raise ValueError(f"signal t0 = {sig.t0} is not on a step boundary at dt = {dt}")

        def schedule(k):
            dwell, into = divmod(k0 + k, spt)
            return dwell_member(sig, dwell), k + spt - into

        return schedule
    steps = []
    for bt in sig.times:
        s = _whole_steps((bt - sig.t0) / dt)
        if s is None:
            raise ValueError(f"breakpoint {bt} is not on a step boundary at dt = {dt}")
        steps.append(s)
    ends = (*steps, math.inf)

    def schedule(k):
        i = bisect_right(ends, k)
        return dwell_member(sig, i), ends[i]

    return schedule


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


def dwells(sig):
    """Yield (start, member) of each dwell from the one active at t0, whose
    start is given as t0; dwell d starts at d / rate or at times[d - 1]."""
    if isinstance(sig, FloorModulo):
        # a t0 within 1e-6 dwell of a switch instant is on it, as in step_schedule
        d = _whole_steps(sig.rate * sig.t0)
        d = math.floor(sig.rate * sig.t0) if d is None else d
        starts = (k / sig.rate for k in count(d + 1))
    else:
        d, starts = 0, sig.times
    yield sig.t0, dwell_member(sig, d)
    for d, start in enumerate(starts, d + 1):
        yield start, dwell_member(sig, d)


def is_tau_jointly_connected(net, tau, horizon):
    """Check every window [t_bar, t_bar+tau] unions to a connected graph.

    A window holds the dwell active at t_bar and each dwell starting in it.
    Moving t_bar off a dwell start only adds dwells, so the windows anchored
    at t0 and at the dwell starts in (t0, t0+horizon-tau] decide. Returns
    (verdict, earliest violating window start or None)."""
    _require_positive("tau", tau)
    if not (horizon >= tau and math.isfinite(horizon)):
        raise ValueError(f"horizon must be finite and at least tau = {tau}, got {horizon}")
    lo, hi = net.signal.index_range()
    if lo == hi:  # one member throughout: every window holds it alone
        return (True, None) if is_connected(net.graphs[lo]) else (False, net.signal.t0)
    last = max(net.signal.t0, net.signal.t0 + horizon - tau)  # the sum can round below t0
    anchors, ends = tee(dwells(net.signal))  # a window's first dwell, the next past it
    end = next(ends)
    held, connected = Counter(), set()  # window members by count; sets known connected
    for t_bar, member in takewhile(lambda dwell: dwell[0] <= last, anchors):
        while end is not None and end[0] <= t_bar + tau:
            held[end[1]] += 1
            end = next(ends, None)
        members = frozenset(+held)
        if members not in connected:
            if not is_connected(union_graph([net.graphs[m] for m in members])):
                return False, t_bar
            connected.add(members)
        held[member] -= 1
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
