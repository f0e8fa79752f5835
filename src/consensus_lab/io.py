"""Deterministic CSV and JSON writers for trajectories and benchmark tables.

Floats are printed with 17 significant digits so every value round-trips
bit-exactly and identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

__all__ = [
    "FLOAT_FMT",
    "json_field",
    "load_x0",
    "write_trajectory_csv",
    "write_metrics_csv",
    "write_events_csv",
    "write_results_csv",
    "write_meta_json",
]

FLOAT_FMT = "%.17g"
# rows formatted per write: a block of 4096 per-node metric rows cost
# example 1 about 5 MiB of peak memory for no further speed
WRITE_ROWS = 512


_REQUIRED = object()
_KINDS = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
    "integer": (int, float),
}


def json_field(obj, key, kind, what, default=_REQUIRED):
    """obj[key] of a parsed JSON object, checked to be of the given kind.

    kind is one of the keys of _KINDS; a number must be finite and comes
    back as a float, an integer as an int. A missing key gives default when
    one is given. Anything else raises ValueError naming the field, with
    `what` naming obj. With key None, obj itself is checked.
    """
    if key is not None:
        if not isinstance(obj, dict):
            raise ValueError(f"{what} must be a JSON object, got {obj!r:.40}")
        if key not in obj:
            if default is _REQUIRED:
                raise ValueError(f"{what} has no field {key!r}")
            return default
        value, what = obj[key], f"{what} field {key!r}"
    else:
        value = obj
    ok = isinstance(value, _KINDS[kind]) and (kind == "boolean") == isinstance(value, bool)
    if ok and kind in ("number", "integer"):
        ok = isinstance(value, int) or (
            math.isfinite(value) and (kind == "number" or value.is_integer())
        )
    if not ok:
        raise ValueError(f"{what} must be a JSON {kind}, got {value!r:.40}")
    if kind == "number":
        return float(value)
    if kind == "integer":
        return int(value)
    return value


def _fmt(value) -> str:
    return FLOAT_FMT % (value,)


def load_x0(path) -> np.ndarray:
    """Initial state from a text file, one float per line; blanks skipped."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no values found")
    return np.array(values)


def _write_columns(path, header, columns) -> None:
    """CSV of a header and one row per entry of the float columns.

    A column is 1-D, or 2-D for several adjacent columns. Rows are
    formatted WRITE_ROWS at a time with one %-format per block, which
    prints what csv.writer prints for the FLOAT_FMT strings of the values.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    row_fmt = ",".join([FLOAT_FMT] * sum(c.shape[1] for c in columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), WRITE_ROWS):
            block = np.hstack([c[start : start + WRITE_ROWS] for c in columns])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path, traj) -> None:
    """Recorded samples as t,x_0,...,x_{n-1},V,E_tot rows."""
    n = traj.states.shape[1]
    idxs = np.searchsorted(traj.metrics.times, traj.times)
    _write_columns(
        path,
        ["t"] + [f"x_{i}" for i in range(n)] + ["V", "E_tot"],
        [traj.times, traj.states, traj.metrics.V[idxs], traj.metrics.E_tot[idxs]],
    )


def write_metrics_csv(path, metrics, per_node=False) -> None:
    """Per-step metric series as t,V,E_tot (plus E_i columns on request)."""
    if per_node and metrics.E_i is None:
        raise ValueError("per-node effort was not tracked in this run")
    header = ["t", "V", "E_tot"]
    columns = [metrics.times, metrics.V, metrics.E_tot]
    if per_node:
        header += [f"E_i_{i}" for i in range(metrics.E_i.shape[1])]
        columns.append(metrics.E_i)
    _write_columns(path, header, columns)


def write_events_csv(path, events) -> None:
    """Topology switches as t,from,to rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "from", "to"])
        for t, src, dst in events:
            writer.writerow([_fmt(t), str(src), str(dst)])


def write_results_csv(path, rows) -> None:
    """Benchmark table; the fixed-time family repeats its gain as k1 = k2."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["n", "lambda2", "protocol", "direction", "k", "k1", "k2",
             "settling_time", "E_tot", "dt", "epsilon"]
        )
        for r in rows:
            gains = (
                [_fmt(r.gain), _fmt(r.gain), _fmt(r.gain)]
                if r.protocol == "fixed_time"
                else [_fmt(r.gain), "", ""]
            )
            writer.writerow(
                [str(r.n), _fmt(r.lambda2), r.protocol, r.direction]
                + gains
                + [_fmt(r.settling_time), _fmt(r.e_tot), _fmt(r.dt), _fmt(r.epsilon)]
            )


def write_meta_json(path, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
