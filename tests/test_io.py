"""The CSV writers against a row-by-row csv.writer reference."""

import csv

import numpy as np
import pytest

from consensus_lab.io import FLOAT_FMT, WRITE_ROWS, write_metrics_csv, write_trajectory_csv
from consensus_lab.metrics import MetricSeries
from consensus_lab.simulate import Trajectory


def _reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % (v,) for v in row])


def _values(rng, shape):
    # ordinary floats plus the values whose formatting differs most
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1])
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


@pytest.mark.parametrize("rows", [0, 1, WRITE_ROWS - 1, WRITE_ROWS, 2 * WRITE_ROWS + 3])
@pytest.mark.parametrize("per_node", [False, True])
def test_metrics_csv_matches_row_writer(tmp_path, rows, per_node):
    m = _metrics(np.random.default_rng(rows), rows, 3)
    header = ["t", "V", "E_tot"]
    table = [m.times, m.V, m.E_tot]
    if per_node:
        header += ["E_i_0", "E_i_1", "E_i_2"]
        table += list(m.E_i.T)
    write_metrics_csv(tmp_path / "got.csv", m, per_node=per_node)
    _reference_csv(tmp_path / "want.csv", header, zip(*table))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_metrics_csv_needs_tracked_effort(tmp_path):
    m = MetricSeries(times=np.zeros(2), V=np.zeros(2), E_tot=np.zeros(2))
    with pytest.raises(ValueError):
        write_metrics_csv(tmp_path / "m.csv", m, per_node=True)


@pytest.mark.parametrize("samples", [1, WRITE_ROWS + 1])
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
    write_trajectory_csv(tmp_path / "got.csv", traj)
    rows = [
        [traj.times[r], *traj.states[r], m.V[k], m.E_tot[k]] for r, k in enumerate(picked)
    ]
    _reference_csv(
        tmp_path / "want.csv", ["t", "x_0", "x_1", "x_2", "x_3", "V", "E_tot"], rows
    )
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
