"""The CSV writers against a row-by-row csv.writer reference, on both
paths of _write_rows: the compiled formatter and the %-format."""

import csv
import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import consensus_lab.io as io_module
from consensus_lab import _stretch
from consensus_lab.benchmark import benchmark_topology
from consensus_lab.io import (
    FLOAT_FMT, WRITE_VALUES, write_metrics_csv, write_metrics_header, write_metrics_rows,
    write_trajectory_csv,
)
from consensus_lab.metrics import MetricSeries
from consensus_lab.protocols import Direction, Power, Protocol
from consensus_lab.simulate import SimConfig, Trajectory, simulate

requires_compiled = pytest.mark.skipif(
    _stretch.load() is None, reason="the compiled library cannot be built here"
)
# the rows of a chunk in the chunk-edge tests, which set WRITE_VALUES to
# this many rows of their table
CHUNK = 512


def _reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % (v,) for v in row])


def _around(v):
    """v and the floats next to it."""
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


# the values whose formatting differs most: signed zeros, infinities, a NaN
# of either sign (glibc prints the negative one as -nan), the smallest and
# the largest subnormal, the largest float, 0.1; the bounds of the compiled
# formatter's exact path, 1e-16 and 2^53, 1e-5, where its exponent layout
# starts, and 1e-6 and 1e-10, each with its neighbours; 4503599627370496.5,
# which parses to 2^52; two decimal ties at 17 digits, which round half to
# even; and j 2^-q for odd j < 16 and 16 <= q <= 54, whose remainders are
# multiples of a power of two, exactly half for 13 of them (q = 23 to 25)
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1), 0.1, 1.7976931348623157e308,
     5e-324, np.nextafter(2.2250738585072014e-308, 0), 4503599627370496.5,
     1125899906842624.25, 1125899906842624.75]
    + _around(1e-16) + _around(1e-10) + _around(1e-5) + _around(1e-6) + _around(2.0**53)
    + [np.ldexp(j, -q) for q in range(16, 55) for j in range(1, 16, 2)]
)


def _values(rng, shape):
    # ordinary floats and, in a fifth of the places, the specials
    specials = np.concatenate([SPECIALS, -SPECIALS])
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    pick = rng.random(shape) < 0.2
    v[pick] = rng.choice(specials, size=int(pick.sum()))
    return v


def _metrics(rng, rows, n):
    return MetricSeries(
        times=_values(rng, rows),
        V=_values(rng, rows),
        E_tot=_values(rng, rows),
        E_i=_values(rng, (rows, n)),
    )


def _fallback():
    """_write_rows with the %-format, as where the library cannot be loaded."""
    return mock.patch.object(_stretch, "_lib", False)


def _on_both_paths(write):
    """What write() returns with the compiled formatter, where it loads,
    and with the %-format fallback."""
    got = write()
    with _fallback():
        return [got, write()]


def _differences(got, want):
    """None for each text of got that equals want, or else the first line
    where it differs, with the line's number: pytest's own diff of two long
    texts can take minutes."""
    found = []
    for text in got:
        lines = itertools.zip_longest(text.splitlines(), want.splitlines())
        found.append(next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b), None))
    return found


def _chunks_of(rows, width):
    """_write_rows with chunks of the given number of rows of width values."""
    return mock.patch.object(io_module, "WRITE_VALUES", rows * width)


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 3])
@pytest.mark.parametrize("per_node", [False, True])
def test_metrics_csv_matches_row_writer(tmp_path, rows, per_node):
    m = _metrics(np.random.default_rng(rows), rows, 3)
    header = ["t", "V", "E_tot"]
    table = [m.times, m.V, m.E_tot]
    if per_node:
        header += ["E_i_0", "E_i_1", "E_i_2"]
        table += list(m.E_i.T)

    def write():
        write_metrics_csv(tmp_path / "got.csv", m, per_node=per_node)
        return (tmp_path / "got.csv").read_bytes()

    with _chunks_of(CHUNK, len(header)):
        got = _on_both_paths(write)
    _reference_csv(tmp_path / "want.csv", header, zip(*table))
    assert _differences(got, (tmp_path / "want.csv").read_bytes()) == [None, None]


@pytest.mark.parametrize("per_node", [False, True])
def test_metrics_rows_in_pieces_match_one_piece(tmp_path, per_node):
    """The header, then each piece's rows, as simulate writes them block by
    block; the cuts, empty pieces among them, leave no trace in the bytes."""
    rows = 2 * CHUNK + 3
    m = _metrics(np.random.default_rng(7), rows, 3)
    cuts = [0, 0, 1, CHUNK - 1, CHUNK - 1, CHUNK + 5, rows]

    def write():
        fh = io.BytesIO()
        write_metrics_header(fh, 3 if per_node else 0)
        for a, e in zip(cuts, cuts[1:]):
            piece = MetricSeries(m.times[a:e], m.V[a:e], m.E_tot[a:e], m.E_i[a:e])
            write_metrics_rows(fh, piece, per_node)
        write_metrics_csv(tmp_path / "whole.csv", m, per_node=per_node)
        return fh.getvalue(), (tmp_path / "whole.csv").read_bytes()

    with _chunks_of(CHUNK, 6 if per_node else 3):
        (pieces, whole), fallback = _on_both_paths(write)
    assert _differences([pieces, *fallback], whole) == [None, None, None]


def test_metrics_csv_needs_tracked_effort(tmp_path):
    m = MetricSeries(times=np.zeros(2), V=np.zeros(2), E_tot=np.zeros(2))
    with pytest.raises(ValueError):
        write_metrics_csv(tmp_path / "m.csv", m, per_node=True)


@pytest.mark.parametrize("samples", [1, CHUNK + 1])
def test_trajectory_csv_matches_row_writer(tmp_path, samples):
    rng = np.random.default_rng(samples)
    steps = 3 * samples
    m = _metrics(rng, steps, 2)
    m.times = np.arange(steps, dtype=float) * 0.5
    picked = np.sort(rng.choice(steps, size=samples, replace=False))
    traj = Trajectory(
        times=m.times[picked],
        states=_values(rng, (samples, 4)),
        controls=_values(rng, (samples, 4)),
        metrics=m,
    )

    def write():
        write_trajectory_csv(tmp_path / "got.csv", traj)
        return (tmp_path / "got.csv").read_bytes()

    with _chunks_of(CHUNK, 7):
        got = _on_both_paths(write)
    rows = [
        [traj.times[r], *traj.states[r], m.V[k], m.E_tot[k]] for r, k in enumerate(picked)
    ]
    _reference_csv(
        tmp_path / "want.csv", ["t", "x_0", "x_1", "x_2", "x_3", "V", "E_tot"], rows
    )
    assert _differences(got, (tmp_path / "want.csv").read_bytes()) == [None, None]


class _Writes(io.BytesIO):
    """A binary file that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


@pytest.mark.parametrize("width", [1, 13, WRITE_VALUES + 1])
def test_chunks_hold_at_most_write_values(width):
    """Tables of two chunks and a row, at the true WRITE_VALUES: one write
    per chunk, of WRITE_VALUES // width rows, or of one row where a row
    holds more values."""
    chunk = max(1, WRITE_VALUES // width)
    table = _values(np.random.default_rng(width), (2 * chunk + 1, width))

    def write():
        fh = _Writes()
        io_module._write_rows(fh, [table])
        return fh

    out = _on_both_paths(write)
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerows([FLOAT_FMT % (v,) for v in row] for row in table)
    assert _differences([fh.getvalue() for fh in out], want.getvalue().encode()) == [None, None]
    assert [len(fh.sizes) for fh in out] == [3, 3]
    assert out[0].sizes == out[1].sizes


def test_specials_on_both_paths():
    column = np.concatenate([SPECIALS, -SPECIALS])
    want = "".join(FLOAT_FMT % (v,) + "\n" for v in column)

    def write():
        fh = io.BytesIO()
        io_module._write_rows(fh, [column])
        return fh.getvalue()

    assert _differences(_on_both_paths(write), want.encode()) == [None, None]
    assert "-nan" not in want and "-0\n" in want


@requires_compiled
def test_compiled_formatter_matches_percent_format_on_random_bits():
    """10^5 random 64-bit patterns, most of them far outside the exact
    path's range, and 2 10^5 whose exponent, from 2^-57 to 2^54, puts them
    inside it or next to it; each gives the bytes of FLOAT_FMT."""
    rng = np.random.default_rng(2023)
    bits = rng.integers(0, 2**64, size=(3, 10**5), dtype=np.uint64, endpoint=False)
    exponent = rng.integers(1023 - 57, 1023 + 55, size=(2, 10**5), dtype=np.uint64)
    bits[1:] = bits[1:] & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
    for values in bits.view(float):
        block = values.reshape(-1, 10)
        want = ((",".join([FLOAT_FMT] * 10) + "\n") * len(block)) % tuple(values.tolist())
        assert _differences([_stretch.format_rows(block)], want.encode()) == [None]


def test_trajectory_write_holds_one_chunk(tmp_path):
    """write_trajectory_csv of 701 samples of 2000 nodes (1.4 M values)
    takes memory for a chunk of WRITE_VALUES values, not for its rows: it
    peaked at 67.5 MiB with chunks of 512 rows, and at 1.6 MiB with these.
    The compiled path is traced where it loads: the %-format takes 6 s
    under tracemalloc on a 2 vCPU Xeon, for a peak of 1.2 MiB."""
    protocol = Protocol(Direction.PER_EDGE, Power(1.0, 0.5))
    x0 = np.random.default_rng(2000).uniform(-10.0, 10.0, 2000)
    traj = simulate(benchmark_topology(2000), protocol, x0, SimConfig(t_end=0.7, dt=1e-3))
    assert traj.states.shape == (701, 2000)
    _stretch.load()  # the library is loaded before the trace starts
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
