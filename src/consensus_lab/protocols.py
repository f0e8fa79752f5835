"""Consensus control laws and the two ways of applying them on a graph.

A node function f maps a scalar disagreement to a control contribution and
is odd with f(0) = 0. The per-edge direction applies f to every pairwise
difference before the weighted sum; the aggregated direction applies f once
to the stacked consensus error e = -Q x. Both coincide for the linear law
and differ otherwise. Both directions sum the edge differences
x_src - x_dst into their destination rows with np.bincount, so every row
is exactly zero at consensus whatever the weights. Each law's formula is
written once in Python, in the pre-bound evaluator that eval_f, control
and _kernel share. _stretch.stretch runs _kernel, the reference, or its
compiled loop (_stretch.c), which repeats the formulas of Linear, Sign and
Power with alpha = 0.5 and which the tests hold bit-equal to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from .graphs import WeightedDigraph
from .io import json_field
from .metrics import _require_positive

__all__ = [
    "Linear",
    "Sign",
    "Power",
    "FixedTime",
    "NodeFunction",
    "Direction",
    "Protocol",
    "eval_f",
    "consensus_error",
    "control",
    "homogeneity_degree_estimate",
    "limit_function",
    "protocol_to_json",
    "protocol_from_json",
]


def _signed_power(x, alpha):
    # |x|^alpha sign(x), the odd power that keeps f(0) = 0
    return np.copysign(np.abs(x) ** alpha, x)


@dataclass(frozen=True)
class Linear:
    """f(x) = k x."""

    k: float

    def __post_init__(self):
        _require_positive("k", self.k)


@dataclass(frozen=True)
class Sign:
    """f(x) = k sign(x) with sign(0) = 0."""

    k: float

    def __post_init__(self):
        _require_positive("k", self.k)


@dataclass(frozen=True)
class Power:
    """f(x) = k |x|^alpha sign(x).

    The finite-time law uses alpha in (0, 1). Exponents above one are
    admitted as well because the infinity limit of the fixed-time law is
    carried by this same representation; alpha = 1 is spelled Linear and
    alpha <= 0 is rejected.
    """

    k: float
    alpha: float

    def __post_init__(self):
        _require_positive("k", self.k)
        if not (0 < self.alpha < math.inf) or self.alpha == 1.0:
            raise ValueError(f"exponent must lie in (0, 1) or (1, inf), got {self.alpha}")


@dataclass(frozen=True)
class FixedTime:
    """f(x) = k1 |x|^p sign(x) + k2 |x|^q sign(x) with 0 < p < 1 < q."""

    k1: float
    k2: float
    p: float
    q: float

    def __post_init__(self):
        _require_positive("k1", self.k1)
        _require_positive("k2", self.k2)
        if not 0 < self.p < 1:
            raise ValueError(f"low exponent must lie in (0, 1), got p={self.p}")
        if not 1 < self.q < math.inf:
            raise ValueError(f"high exponent must be finite and exceed 1, got q={self.q}")


NodeFunction = Union[Linear, Sign, Power, FixedTime]


class Direction(Enum):
    PER_EDGE = "per_edge"
    AGGREGATED = "aggregated"


@dataclass(frozen=True)
class Protocol:
    direction: Direction
    f: NodeFunction


def _split_law(f):
    """(gains, shape) of a node function: its gains in the order
    _node_function takes them, and its type with its exponents."""
    if isinstance(f, (Linear, Sign)):
        return (f.k,), (type(f),)
    if isinstance(f, Power):
        return (f.k,), (Power, f.alpha)
    if isinstance(f, FixedTime):
        return (f.k1, f.k2), (FixedTime, f.p, f.q)
    raise TypeError(f"not a node function: {f!r}")


def _node_function(f, gains=None):
    """Elementwise evaluator of a node function with its parameters bound.

    gains, if given, replace the law's own gains (see _split_law); they may
    be arrays that match the evaluated array elementwise.
    """
    if gains is None:
        gains = _split_law(f)[0]
    if isinstance(f, Linear):
        (k,) = gains
        return lambda x: k * x
    if isinstance(f, Sign):
        (k,) = gains
        return lambda x: k * np.sign(x)
    if isinstance(f, Power):
        (k,), alpha = gains, f.alpha
        return lambda x: k * _signed_power(x, alpha)
    (k1, k2), p, q = gains, f.p, f.q
    return lambda x: k1 * _signed_power(x, p) + k2 * _signed_power(x, q)


def eval_f(f, x):
    """Evaluate a node function elementwise on x (scalar or array)."""
    return _node_function(f)(np.asarray(x, dtype=float))


def _check_state(g, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"state has shape {x.shape}, graph has {g.n} nodes")
    return x


def consensus_error(g: WeightedDigraph, x) -> np.ndarray:
    """Stacked consensus error e = -Q x, e_i = sum_j a_ij (x_j - x_i)."""
    x = _check_state(g, x)
    src, dst, w = g._edge_arrays
    if not dst.size:
        return np.zeros(g.n)
    return np.bincount(dst, w * (x[src] - x[dst]), minlength=g.n)


class _Union(NamedTuple):
    """One member of a disjoint union of systems, ready to act on a state.

    src, dst and w are the arcs of the components in component order, with
    node offsets; w is None when every weight is exactly 1.0. gains are the
    law's gains in _split_law's order, each a scalar shared by every
    component or a per-arc or per-node array (see _union).
    """

    direction: Direction
    f: NodeFunction
    n: int
    src: np.ndarray
    dst: np.ndarray
    w: Optional[np.ndarray]
    gains: tuple


def _union(protocols, graphs):
    """The disjoint union of systems: graphs[c] under protocols[c], with the
    nodes of component c after those of c - 1.

    The protocols share the direction, the law type and its exponents, and
    each brings its own gains. The arcs are concatenated in component order
    with node offsets, so np.bincount sums every destination in the order of
    its component alone. A gain that differs between components becomes a
    per-arc or per-node array, whose product with a value is the scalar
    product elementwise; a shared gain stays a scalar.
    """
    direction = protocols[0].direction
    f = protocols[0].f
    shape = _split_law(f)[1]
    gains, sizes, srcs, dsts, ws = [], [], [], [], []
    n = 0
    for p, g in zip(protocols, graphs):
        k, law = _split_law(p.f)
        if p.direction is not direction or law != shape:
            raise ValueError(
                "the systems of one run must share the direction, the law "
                "type and its exponents"
            )
        src, dst, w = g._edge_arrays
        srcs.append(src + n)
        dsts.append(dst + n)
        ws.append(w)
        gains.append(k)
        sizes.append((g.n, len(dst)))
        n += g.n
    src, dst, w = np.concatenate(srcs), np.concatenate(dsts), np.concatenate(ws)
    if len(set(gains)) > 1:
        per_node = direction is Direction.AGGREGATED or isinstance(f, Sign)
        counts = [nodes if per_node else arcs for nodes, arcs in sizes]
        gains = tuple(np.repeat(ks, counts) for ks in zip(*gains))
    else:
        gains = gains[0]
    unit = bool((w == 1.0).all())
    return _Union(direction, f, n, src, dst, None if unit else w, gains)


def _kernel(u):
    """The map x -> u(x) of a union (see _union), which applies the law's
    node function with numpy. The weight multiply is skipped when every
    arc weight is exactly 1.0, which changes no bit. x must be a float
    state of the union's size.
    """
    n, src, dst, w, f = u.n, u.src, u.dst, u.w, u.f
    if not dst.size:
        # bincount would give integer zeros here; f(0) = 0 for every law
        return lambda x: np.zeros(n)
    fn = _node_function(f, u.gains)
    if u.direction is Direction.AGGREGATED:
        if w is None:
            return lambda x: fn(np.bincount(dst, x[src] - x[dst], minlength=n))
        return lambda x: fn(np.bincount(dst, w * (x[src] - x[dst]), minlength=n))
    if isinstance(f, Sign):
        # per-edge sign sums bare signs of the differences, weights drop out
        (k,) = u.gains
        return lambda x: k * np.bincount(dst, np.sign(x[src] - x[dst]), minlength=n)
    if w is None:
        return lambda x: np.bincount(dst, fn(x[src] - x[dst]), minlength=n)
    return lambda x: np.bincount(dst, w * fn(x[src] - x[dst]), minlength=n)


def control(protocol: Protocol, g: WeightedDigraph, x) -> np.ndarray:
    """Control input of every node under the given protocol on graph g."""
    return _kernel(_union([protocol], [g]))(_check_state(g, x))


def homogeneity_degree_estimate(f, x_samples, lam_samples):
    """Fit the degree d in f(lam x) = lam^(d+1) f(x) over sample pairs.

    A single log-log slope is least-squares fitted through the origin over
    all (x, lam) pairs. Returns (d, max_residual); exactly homogeneous laws
    fit with residual at rounding level, so a large residual flags a law
    that is only homogeneous in the limit.
    """
    xs = np.asarray(x_samples, dtype=float)
    lams = np.asarray(lam_samples, dtype=float)
    if xs.size < 3 or lams.size < 3:
        raise ValueError("need at least 3 samples on each axis")
    if np.any(xs == 0.0):
        raise ValueError("x samples must be nonzero")
    if np.any(lams <= 0.0) or np.any(lams == 1.0):
        raise ValueError("scale samples must be positive and different from 1")
    log_fx = _log_abs_f(f, xs)
    rows_y = []
    rows_l = []
    for lam in lams:
        rows_y.append(_log_abs_f(f, lam * xs) - log_fx)
        rows_l.append(np.full(xs.size, np.log(lam)))
    y = np.concatenate(rows_y)
    ell = np.concatenate(rows_l)
    beta = float(ell @ y) / float(ell @ ell)
    residual = float(np.max(np.abs(y - beta * ell)))
    return beta - 1.0, residual


def _log_abs_f(f, xs):
    fx = eval_f(f, xs)
    if np.any(fx == 0.0):
        raise ValueError("degenerate fit: f vanishes at a nonzero sample")
    return np.log(np.abs(fx))


def limit_function(f, end: str):
    """Homogeneous approximation of f near the origin or near infinity.

    The fixed-time law splits into its low-exponent and high-exponent power
    terms; the other laws are homogeneous already and return themselves.
    """
    if end not in ("zero", "infinity"):
        raise ValueError(f"end must be 'zero' or 'infinity', got {end!r}")
    if isinstance(f, FixedTime):
        if end == "zero":
            return Power(f.k1, f.p)
        return Power(f.k2, f.q)
    return f


def protocol_to_json(p: Protocol) -> dict:
    f = p.f
    if isinstance(f, Linear):
        fobj = {"type": "linear", "k": f.k}
    elif isinstance(f, Sign):
        fobj = {"type": "sign", "k": f.k}
    elif isinstance(f, Power):
        fobj = {"type": "power", "k": f.k, "alpha": f.alpha}
    elif isinstance(f, FixedTime):
        fobj = {"type": "fixed_time", "k1": f.k1, "k2": f.k2, "p": f.p, "q": f.q}
    else:
        raise TypeError(f"not a node function: {f!r}")
    return {"direction": p.direction.value, "f": fobj}


def protocol_from_json(obj: dict) -> Protocol:
    name = json_field(obj, "direction", "string", "protocol")
    try:
        direction = Direction(name)
    except ValueError:
        raise ValueError(f"unknown direction {name!r}") from None
    fobj = json_field(obj, "f", "object", "protocol")
    kind = json_field(fobj, "type", "string", "node function")

    def number(key):
        return json_field(fobj, key, "number", f"{kind} node function")

    if kind == "linear":
        f = Linear(number("k"))
    elif kind == "sign":
        f = Sign(number("k"))
    elif kind == "power":
        f = Power(number("k"), number("alpha"))
        if f.alpha > 1.0:
            # configs describe the protocol table, where the exponent is
            # strictly below one; the relaxed range is for limit forms only
            raise ValueError(f"power protocol needs alpha in (0, 1), got {f.alpha}")
    elif kind == "fixed_time":
        f = FixedTime(number("k1"), number("k2"), number("p"), number("q"))
    else:
        raise ValueError(f"unknown node function type {kind!r}")
    return Protocol(direction, f)
