"""Shared pytest hooks and fixtures: the acceptance run prints one line
per criterion, and the full-size benchmark sweeps run once per session."""

import re

import pytest

from gen import full_size_sweeps

CRITERIA = {
    1: "ring spectral identity",
    2: "sign-protocol slope and midrange value",
    3: "two-node analytic settling",
    4: "bundled switched circulants converge",
    5: "joint connectivity necessity",
    6: "fixed-time saturation vs power scaling",
    7: "benchmark anchors and effort ordering",
    8: "benchmark scaling-ratio ordering",
    9: "homogeneity degree estimates",
    10: "metric and connectivity oracles",
    11: "benchmark determinism",
}


@pytest.fixture(scope="session")
def benchmark_sweeps():
    """Calibrated sweeps for both protocol families over the full size grid,
    shared by the acceptance criteria and the digests."""
    return full_size_sweeps()


_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_outcomes = {}


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    if report.when == "call":
        _outcomes[num] = "PASS" if report.passed else "FAIL"
    elif not report.passed:
        # a broken fixture or teardown must not read as a pass
        _outcomes[num] = "ERROR"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        label = CRITERIA.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {_outcomes[num]:<5s} {label}")
