"""Tests of the benchmark itself, on its --smoke inputs.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import Span, attribute  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(declared, trace):
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    res = result(run("--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    for workload in (w["name"] for w in declared["workloads"]):
        prefix = workload + "."
        got = {k[len(prefix):]: v["unit"] for k, v in res["metrics"].items()
               if k.startswith(prefix)}
        assert got == want, workload
        if trace:
            # the wrappers cover the body: self times add up to its wall time
            wall = res["metrics"][prefix + "trace.wall_s"]["value"]
            assert res["metrics"][prefix + "trace.unattributed_s"]["value"] < 0.01 * wall


def copy_bench(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_perturbed_reference_fails_the_check(tmp_path):
    # a copy of the benchmark next to the real program, with its reference edited
    copy_bench(tmp_path)
    for name in ("src", "configs"):
        os.symlink(os.path.join(ROOT, name), tmp_path / name)
    path = tmp_path / "bench" / "reference.json"
    ref = json.loads(path.read_text())
    row = next(r for r in ref["sweep_power"]["smoke"]
               if r["n"] == 25 and r["direction"] == "per_edge")
    row["settling_time"] += 0.1
    path.write_text(json.dumps(ref))
    done = run("--workload", "sweep_power", "--seed", "1", "--seconds", "1",
               "--trace", "0", "--smoke", cwd=tmp_path)
    res = result(done)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert "n=25 per_edge: settling time" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    copy_bench(tmp_path)
    done = run("--workload", "sweep_power", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_attribution_shares_time_between_threads():
    # main: root [0, 10] > run [1, 9]; run waits on two pool threads,
    # A [2, 6] and B [3, 8], which overlap on [3, 6]
    spans = [
        Span("bench.body", "bench", 1, -1, 0.0, 10.0),
        Span("run", "benchmark", 1, 0, 1.0, 9.0),
        Span("a", "simulate", 2, 1, 2.0, 6.0),
        Span("b", "simulate", 3, 1, 3.0, 8.0),
    ]
    got = attribute(spans)
    assert got == pytest.approx([2.0, 2.0, 2.5, 3.5])
    assert sum(got) == pytest.approx(10.0)
