"""The compiled library of _stretch.c, loaded with ctypes, and the two
paths of each of its uses.

The simulator's Euler stretch: the compiled loop for Linear, Sign, Power
with alpha = 0.5 and FixedTime with p = 0.5 and q = 1.5, whose C
arithmetic is numpy's, and the numpy loop over protocols._kernel, with the
same bytes, for every other law or where gcc is missing or the build or
the load fails. Both give, besides the states, each state's spread and
peak and the squared-effort integrals: the compiled loop computes them in
its steps, the numpy loop with the metrics module's forms after them.

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
PER_EDGE, PER_EDGE_SIGN, AGGREGATED = range(3)
# the bytes format_rows takes for a "%.17g" value and its separator at most
VALUE_BYTES = 25
# stretch: law, mode, n, m, src, dst, w, k, k2, dt, every, acc, then steps,
# x, X, U, keep, V, P, S, E
_INT, _I64, _P, _D = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
_STRETCH_ARGS = [_INT, _INT, _I64, _I64, _P, _P, _P, _D, _D, _D, _I64, _P, _I64]
_STRETCH_ARGS += [_P, _P, _P, _I64, _P, _P, _P, _P]
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


def stretch(protocol, g, dt, every):
    """(run, compiled): the Euler stretch of the protocol on the member
    graph g and whether it runs compiled.

    run(x, X, U, keep, V, P, S, E) runs len(X) Euler steps from the state
    x. It writes the state after each step into the rows of X, and that
    state's spread and largest magnitude, as metrics.spread_and_peak gives
    them, into V and P. It writes the control of the steps keep, keep +
    every, ... into those rows of U, and leaves the other rows untouched.
    Unless S is None, each step advances the squared-effort integrals S in
    place, as metrics.isce_accumulate does, and writes them into the rows
    of E. X, U and E are C-contiguous float arrays of g.n columns, V and P
    of one."""
    f = protocol.f
    law = _law(f)
    if law is None or load() is None:
        kernel = _kernel(protocol, g)

        def run(x, X, U, keep, V, P, S, E):
            for r in range(len(X)):
                u = kernel(x)
                if r == keep:
                    U[r] = u
                    keep += every
                if S is not None:
                    E[r] = u
                x = np.add(x, dt * u, out=X[r])
            V[:], P[:] = spread_and_peak(X)
            if S is not None:
                S[:] = isce_accumulate(S, E, dt, out=E)[-1]

        return run, False
    if protocol.direction is Direction.AGGREGATED:
        mode = AGGREGATED
    else:
        mode = PER_EDGE_SIGN if law == SIGN else PER_EDGE
    k, k2 = (f.k1, f.k2) if law == FIXED_TIME else (f.k, 0.0)
    src, dst, w = _arcs(g)
    src, dst = (np.ascontiguousarray(a, dtype=np.int64) for a in (src, dst))
    w = None if w is None else np.ascontiguousarray(w, dtype=float)
    acc = np.empty(g.n)
    arrays = (src, dst, w, acc)
    src_p, dst_p, w_p, acc_p = [None if a is None else a.ctypes.data for a in arrays]
    call = functools.partial(
        _lib.stretch, law, mode, g.n, len(dst), src_p, dst_p, w_p, k, k2, dt, every, acc_p
    )

    def run(x, X, U, keep, V, P, S, E):
        x_p, X_p, U_p, V_p, P_p = [_address(a) for a in (x, X, U, V, P)]
        S_p, E_p = [None if a is None else _address(a) for a in (S, E)]
        if call(len(X), x_p, X_p, U_p, keep, V_p, P_p, S_p, E_p):
            # a state that holds a NaN: numpy picks which NaN
            V[:], P[:] = spread_and_peak(X)

    run.arrays = arrays  # the arrays behind the addresses
    return run, True


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
