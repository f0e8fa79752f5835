"""Pinned outputs of bundled simulate and benchmark runs.

tests/digests.json holds, for a fast subset of the cases of
scripts/zero_drift.py (six simulate runs, and both benchmark experiments
at sizes 25 and 50 with --dt 1e-3), the exit code of each run and the
sha256 of its stdout, its stderr and every file and directory it leaves
beside its inputs, as the last accepted tree gave them. It also holds the
repr of the gain, settling time and E_tot of every row of both
experiments over the full size grid at dt = 1e-4, which the session's
benchmark_sweeps fixture runs for the acceptance criteria already, and
which run once more without the library. The runs go
through cli.main in this process, with the compiled library and again
without it. Their laws are linear, power 1/2 and the fixed-time law with
p = 1/2 and q = 3/2, all computed through sqrt, whose bits do not depend
on numpy's SIMD dispatch.

A change that is meant to move these outputs rewrites the file with

    PYTHONPATH=src python tests/test_digests.py

and states its drift; scripts/zero_drift.py shows where two trees differ.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from consensus_lab import _stretch, cli

sys.path.append(str(Path(__file__).resolve().parent.parent / "scripts"))
import zero_drift  # noqa: E402
from gen import AVX512, dispatches_avx512, full_size_sweeps  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
CASES = (
    "example1-epsilon-per-node",
    "example2-fast-signal-per-node",
    "example1-diverges",
    "benchmark-200-per-edge-power",
    "example1-float-extremes",
    "example1-decays-to-zero",
    "benchmark-experiment-1-coarse",
    "benchmark-experiment-2-coarse",
)

# the key of the full-size rows in DIGESTS
FULL_SIZE_ROWS = "benchmark-full-size-rows"


def _sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def digests(case, where):
    """Run a zero_drift case through cli.main in the directory where, after
    writing zero_drift's INPUTS there: its exit code and the sha256 of its
    stdout, its stderr and every file it wrote ("directory" for a
    directory)."""
    for name, text in zero_drift.INPUTS.items():
        (Path(where) / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(zero_drift.CASES[case])
    finally:
        os.chdir(cwd)
    found = {
        "exit code": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
    }
    for name, blob in zero_drift.files(where).items():
        if name not in zero_drift.INPUTS:
            found[name] = blob if blob == "directory" else _sha256(blob)
    return found


def full_size_rows(sweeps):
    """The repr of the gain, settling time and E_tot of each row of
    full_size_sweeps, by experiment and then by "n direction"."""
    return {
        str(experiment): {
            f"{n} {direction}": [repr(r.gain), repr(r.settling_time), repr(r.e_tot)]
            for (n, direction), r in rows.items()
        }
        for experiment, rows in sweeps.items()
    }


@pytest.mark.parametrize("case", CASES)
def test_outputs_keep_their_digests(case, tmp_path):
    assert digests(case, tmp_path) == json.loads(DIGESTS.read_text())[case]


@pytest.mark.parametrize("case", CASES)
def test_outputs_keep_their_digests_without_the_library(case, tmp_path, monkeypatch):
    """The same digests from the numpy stretch loop and the %-format rows,
    as where the compiled library cannot be loaded."""
    monkeypatch.setattr(_stretch, "_lib", False)
    assert digests(case, tmp_path) == json.loads(DIGESTS.read_text())[case]


# prints the digests of a case as the numpy stretch loop and the %-format
# rows give them, in a child process
_NUMPY_DIGESTS = """
import json, sys, tempfile
from consensus_lab import _stretch
import test_digests

_stretch._lib = False
with tempfile.TemporaryDirectory() as where:
    print(json.dumps(test_digests.digests(sys.argv[1], where)))
"""


@pytest.mark.skipif(not dispatches_avx512(), reason="numpy dispatches no AVX-512 kernels here")
def test_numpy_loop_keeps_its_digests_without_avx512():
    """The numpy loop's np.sum of E_i, whose pairwise order the compiled
    loop copies, and its other reductions give the pinned bytes also where
    numpy dispatches no AVX-512 kernels."""
    case = "example1-epsilon-per-node"
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512), PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", _NUMPY_DIGESTS, case], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == json.loads(DIGESTS.read_text())[case]


def test_full_size_benchmark_rows_keep_their_digests(benchmark_sweeps):
    pinned = json.loads(DIGESTS.read_text())[FULL_SIZE_ROWS]
    assert full_size_rows(benchmark_sweeps) == pinned


def test_full_size_benchmark_rows_keep_their_digests_without_the_library(monkeypatch):
    """The same rows from the numpy stretch loop, in 14 to 19 s on a 2 vCPU
    Intel Xeon."""
    monkeypatch.setattr(_stretch, "_lib", False)
    pinned = json.loads(DIGESTS.read_text())[FULL_SIZE_ROWS]
    assert full_size_rows(full_size_sweeps()) == pinned


if __name__ == "__main__":
    pinned = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as where:
            pinned[case] = digests(case, where)
    pinned[FULL_SIZE_ROWS] = full_size_rows(full_size_sweeps())
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
