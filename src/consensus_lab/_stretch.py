"""The compiled library of _stretch.c, loaded with ctypes, and the two
paths of each of its uses.

The simulator's Euler stretch: the compiled loop for Linear, Sign, Power
with alpha = 0.5 and FixedTime with p = 0.5 and q = 1.5, whose C
arithmetic is numpy's, and the numpy loop over protocols._kernel, with the
same bytes, for every other law or where gcc is missing or the build or
the load fails. Both decide where the run ends, on the divergence guard
and the sticky stop, and give each state's spread and the effort E_tot,
and E_i where the caller reads it: the compiled loop in its steps, with
numpy's pairwise summation order for E_tot, and the numpy loop in chunks
of steps, with the metrics module's forms and the simulator's sticky-stop
rule after each chunk.

The CSV writers' rows: format_rows prints a block of floats as io's
"%.17g" rows, in ASCII bytes, or gives None where the library cannot be
loaded, and io._write_rows then formats them with the % operator, to the
same bytes.

Only this module and _stretch.c know the C calling convention. The
library is built at first use with the installed gcc, never at import,
and cached under $XDG_CACHE_HOME/consensus-lab (by default
~/.cache/consensus-lab), keyed by a hash of the source, the flags and the
compiler version.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import subprocess
import tempfile
import zlib
from importlib import resources

import numpy as np

from .metrics import isce_accumulate, spread_and_peak
from .protocols import Direction, FixedTime, Linear, Power, Sign, _arcs, _kernel

# -ffp-contract=off: where the target has FMA, x + dt*u must not fuse;
# -funswitch-loops: a test of w, U or S per arc costs up to a fifth of a step
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-funswitch-loops", "-shared", "-fPIC")
# the enums of _stretch.c
LINEAR, SIGN, POWER_HALF, FIXED_TIME = range(4)
PER_EDGE, AGGREGATED = range(2)
# the bytes format_rows takes for a "%.17g" value and its separator at most
VALUE_BYTES = 25
# the states and effort integrals a chunk of the numpy loop holds at most
CHUNK_ELEMENTS = 2**14
# stretch: law, mode, n, m, src, dst, w, k, k2, dt, every, acc, eps, limit,
# sticky, then steps, x, y, keep, states, U, V, S, E_i, E_tot, below, peak
_INT, _I64, _P, _D = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
_STRETCH_ARGS = [_INT, _INT, _I64, _I64, _P, _P, _P, _D, _D, _D, _I64, _P, _D, _D, _I64]
_STRETCH_ARGS += [_I64, _P, _P, _I64, _P, _P, _P, _P, _P, _P, _P, _P]
# format_rows: values, rows, cols, out
_FORMAT_ARGS = [_P, _I64, _I64, _P]

_lib = None  # the library once loaded, its functions bound; False once that failed


def load():
    """The compiled library, built on first use; None where it cannot be
    built or loaded."""
    global _lib
    if _lib is None:
        try:
            _lib = _load()
        except (OSError, AttributeError, subprocess.SubprocessError):
            _lib = False
    return _lib or None


def _load():
    source = resources.files(__package__).joinpath("_stretch.c").read_bytes()
    gcc = subprocess.run(["gcc", "-dumpfullversion"], capture_output=True, check=True)
    key = _digest(b"\0".join([source, " ".join(FLAGS).encode(), gcc.stdout]))
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    folder = os.path.join(cache, "consensus-lab")
    # a library is named by the digest of its bytes, which is checked before
    # the load: dlopen can crash on a truncated file rather than fail
    for path in glob.glob(os.path.join(glob.escape(folder), f"stretch-{key}-*.so")):
        with open(path, "rb") as fh:
            if path.endswith(f"-{_digest(fh.read())}.so"):
                return _bind(path)
    try:
        os.makedirs(folder, exist_ok=True)
        return _bind(_build(source, folder, key))
    except OSError:
        # the cache cannot be written: build where the load alone needs it
        with tempfile.TemporaryDirectory() as tmp:
            return _bind(_build(source, tmp, key))


def _digest(data):
    # zlib is loaded with numpy already; hashlib would load libcrypto, whose
    # pages would count against the peak RSS of every run
    return f"{zlib.crc32(data):08x}"


def _build(source, folder, key):
    """Compile source into folder through a temporary name, so no reader
    ever sees a partly written library; the library's path."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
    os.close(fd)
    try:
        cmd = ["gcc", *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"]
        subprocess.run(cmd, input=source, capture_output=True, check=True)
        with open(tmp, "rb") as fh:
            path = os.path.join(folder, f"stretch-{key}-{_digest(fh.read())}.so")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _bind(path):
    lib = ctypes.CDLL(path)
    lib.stretch.argtypes, lib.stretch.restype = _STRETCH_ARGS, _I64
    lib.format_rows.argtypes, lib.format_rows.restype = _FORMAT_ARGS, _I64
    return lib


def _law(f):
    """The law of _stretch.c that computes the node function f; None if
    none does."""
    if isinstance(f, Power):
        return POWER_HALF if f.alpha == 0.5 else None
    if isinstance(f, FixedTime):
        return FIXED_TIME if (f.p, f.q) == (0.5, 1.5) else None
    return {Linear: LINEAR, Sign: SIGN}.get(type(f))


def _sticky_stop(V, eps, below, sticky):
    """The sticky stop in a chunk of spreads V: the row at which the
    sticky-th consecutive spread at or below eps falls (len(V) if none),
    and the run of such spreads that ends V, given below of them before
    it."""
    rows = np.arange(len(V))
    # index of the last row above eps at or before each row; the carried
    # run counts as rows before V
    last_above = np.where(V <= eps, -1 - below, rows)
    np.maximum.accumulate(last_above, out=last_above)
    run = rows - last_above
    hit = np.flatnonzero(run >= sticky)
    if hit.size:
        return int(hit[0]), sticky
    return len(V), int(run[-1])


def stretch(protocol, g, dt, every, eps, limit, sticky):
    """(run, compiled): the Euler stretch of the protocol on the member
    graph g and whether it runs compiled.

    run(x, y, keep, states, U, V, S, E_i, E_tot, below) runs Euler steps
    from the state x, len(V) of them unless the run ends first, and
    returns (steps, below, peak, discarded). It writes the state after
    each step into x, through y, a buffer of g.n floats it may overwrite,
    and the state's spread, as metrics.spread_and_peak gives it, into V.
    Before the steps keep, keep + every, ... it writes the state into the
    next row of states and the step's control into the next row of U;
    states and U may be None if no such step comes. Unless S is None, each
    step advances the squared-effort integrals S in place, as
    metrics.isce_accumulate does, and writes np.sum of their square roots
    into E_tot, and, unless E_i is None, the roots into the rows of E_i.

    The run ends on the first state whose largest magnitude is not at or
    below limit, the divergence guard, or on the sticky-th consecutive
    spread at or below eps, counted on from below, the sticky stop; eps
    None never stops. steps counts the steps done, the last one the end's,
    below the run of spreads at or below eps after them, and peak is the
    largest magnitude of the last state. x then holds the last state that
    passed the guard. discarded counts the steps computed past the end,
    which the numpy loop, deciding the end once per chunk, does. V, E_i
    and E_tot are C-contiguous float arrays, of g.n columns where 2-D, x
    and S of g.n floats."""
    f = protocol.f
    law = _law(f)
    if law is None or load() is None:
        return _numpy_stretch(_kernel(protocol, g), g.n, dt, every, eps, limit, sticky), False
    mode = AGGREGATED if protocol.direction is Direction.AGGREGATED else PER_EDGE
    k, k2 = (f.k1, f.k2) if law == FIXED_TIME else (f.k, 0.0)
    src, dst, w = _arcs(g)
    src, dst = (np.ascontiguousarray(a, dtype=np.int64) for a in (src, dst))
    w = None if w is None else np.ascontiguousarray(w, dtype=float)
    acc = np.empty(g.n)
    below, peak = ctypes.c_int64(), ctypes.c_double()
    arrays = (src, dst, w, acc)
    src_p, dst_p, w_p, acc_p = [None if a is None else a.ctypes.data for a in arrays]
    eps = math.nan if eps is None else eps  # no spread is at or below NaN
    call = functools.partial(
        _lib.stretch, law, mode, g.n, len(dst), src_p, dst_p, w_p, k, k2, dt, every, acc_p,
        eps, limit, sticky,
    )
    out = ctypes.addressof(below), ctypes.addressof(peak)

    def run(x, y, keep, states, U, V, S, E_i, E_tot, below_in):
        below.value = below_in
        pointers = [None if a is None else _address(a) for a in (states, U, V, S, E_i, E_tot)]
        steps = call(len(V), _address(x), _address(y), keep, *pointers, *out)
        if peak.value != peak.value:
            # a state that fails the guard with a NaN, now in y: numpy's
            # reductions pick which NaN
            return steps, below.value, float(spread_and_peak(y[None])[1][0]), 0
        return steps, below.value, peak.value, 0

    run.arrays = arrays + (below, peak)  # the objects behind the addresses
    return run, True


def _numpy_stretch(kernel, n, dt, every, eps, limit, sticky):
    """The run of stretch on numpy: the Euler steps of kernel in chunks of
    at most CHUNK_ELEMENTS states, whose spreads and peaks, effort and end
    follow each chunk."""
    size = max(1, CHUNK_ELEMENTS // n)

    def run(x, y, keep, states, U, V, S, E_i, E_tot, below):
        done, kept = 0, 0
        while True:
            rows = min(size, len(V) - done)
            X = np.empty((rows, n))
            E = np.empty((rows, n)) if S is not None else None
            state = x
            for r in range(rows):
                u = kernel(state)
                if done + r == keep:
                    states[kept], U[kept] = state, u
                    kept += 1
                    keep += every
                if E is not None:
                    E[r] = u
                state = np.add(state, dt * u, out=X[r])
            spread, peak = spread_and_peak(X)
            bad = np.flatnonzero(~(peak <= limit))
            end = int(bad[0]) if bad.size else rows
            if eps is not None:
                stop, below = _sticky_stop(spread, eps, below, sticky)
                end = min(end, stop)
            k = min(end + 1, rows)  # the rows the run takes
            V[done : done + k] = spread[:k]
            if E is not None:
                E = isce_accumulate(S, E[:k], dt, out=E[:k])
                S[:] = E[-1]
                roots = E if E_i is None else E_i[done : done + k]
                np.sum(np.sqrt(E, out=roots), axis=1, out=E_tot[done : done + k])
            done += k
            tripped = bad.size > 0 and bad[0] == end
            if k > tripped:  # the last state that passed the guard
                x[:] = X[k - 1 - tripped]
            if end < rows or done == len(V):
                return done, below, float(peak[k - 1]), rows - k

    return run


def _address(a):
    """The address of the data of a C-contiguous, writable array, which
    ctypes checks; a.ctypes.data takes about four times as long (1.1
    against 0.3 us on a 2 vCPU Xeon)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def format_rows(block):
    """The "%.17g" text of the rows of a 2-D float array, as ASCII bytes,
    the values of a row joined by "," and each row ended by a newline, as
    io.FLOAT_FMT prints each value; None where the library cannot be
    loaded. Normal values with 1e-16 <= |v| < 2^53 take the library's
    exact 128-bit path, the others snprintf."""
    if load() is None:
        return None
    block = np.ascontiguousarray(block, dtype=float)
    rows, cols = block.shape
    out = np.empty(block.size * VALUE_BYTES, dtype=np.uint8)
    size = _lib.format_rows(block.ctypes.data, rows, cols, out.ctypes.data)
    return out[:size].tobytes()
