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
compiled loop (_stretch.c), which repeats the formulas of Linear, Sign,
Power with alpha = 0.5 and FixedTime with p = 0.5 and q = 1.5 and which the
tests hold bit-equal to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

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
    # |x|^alpha sign(x), the odd power that keeps f(0) = 0; alpha = 1.5 is
    # |x| sqrt|x|, whose bits, unlike numpy's SIMD pow, do not depend on the
    # CPU and which C computes alike
    a = np.abs(x)
    return np.copysign(a * np.sqrt(a) if alpha == 1.5 else a ** alpha, x)


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


def _node_function(f):
    """Elementwise evaluator of a node function with its parameters bound."""
    if isinstance(f, Linear):
        k = f.k
        return lambda x: k * x
    if isinstance(f, Sign):
        k = f.k
        return lambda x: k * np.sign(x)
    if isinstance(f, Power):
        k, alpha = f.k, f.alpha
        return lambda x: k * _signed_power(x, alpha)
    if isinstance(f, FixedTime):
        k1, k2, p, q = f.k1, f.k2, f.p, f.q
        return lambda x: k1 * _signed_power(x, p) + k2 * _signed_power(x, q)
    raise TypeError(f"not a node function: {f!r}")


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


def _arcs(g):
    """The arcs (src, dst, w) of g as a kernel applies them: w is None when
    every weight is exactly 1.0, since multiplying by it changes no bit."""
    src, dst, w = g._edge_arrays
    return src, dst, None if (w == 1.0).all() else w


def _kernel(protocol, g):
    """The map x -> u(x) of the protocol on graph g, which applies the
    law's node function with numpy. x must be a float state of g's size."""
    n, f = g.n, protocol.f
    src, dst, w = _arcs(g)
    if not dst.size:
        # bincount would give integer zeros here; f(0) = 0 for every law
        return lambda x: np.zeros(n)
    fn = _node_function(f)
    if protocol.direction is Direction.AGGREGATED:
        if w is None:
            return lambda x: fn(np.bincount(dst, x[src] - x[dst], minlength=n))
        return lambda x: fn(np.bincount(dst, w * (x[src] - x[dst]), minlength=n))
    if isinstance(f, Sign):
        # per-edge sign sums bare signs of the differences, weights drop out
        k = f.k
        return lambda x: k * np.bincount(dst, np.sign(x[src] - x[dst]), minlength=n)
    if w is None:
        return lambda x: np.bincount(dst, fn(x[src] - x[dst]), minlength=n)
    return lambda x: np.bincount(dst, w * fn(x[src] - x[dst]), minlength=n)


def control(protocol: Protocol, g: WeightedDigraph, x) -> np.ndarray:
    """Control input of every node under the given protocol on graph g."""
    return _kernel(protocol, g)(_check_state(g, x))


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
