"""Acceptance suite: one test per numbered repository criterion.

Physics checks go through the library; the bundled configs, the
verification subcommand, and the determinism check go through the command
line the way a user would run them. The calibrated benchmark sweeps are
expensive, so criteria 7 and 8 share one module-scoped fixture.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consensus_lab.benchmark import run_experiment
from consensus_lab.graphs import (
    WeightedDigraph,
    algebraic_connectivity,
    circulant_graph,
    edge_connectivity,
    weak_components,
)
from consensus_lab.metrics import consensus_value, settling_time
from consensus_lab.protocols import (
    Direction,
    FixedTime,
    Linear,
    Power,
    Protocol,
    Sign,
    consensus_error,
    homogeneity_degree_estimate,
    limit_function,
    protocol_from_json,
)
from consensus_lab.simulate import SimConfig, simulate, simulate_batch
from consensus_lab.switching import DynamicNetwork, FloorModulo, network_from_json

from gen import brute_components, random_undirected

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

EXAMPLE2_X0 = np.array([0.0, 5.0, 3.0, 2.0, 4.0, -9.0, 10.0, 5.0, -5.0, -3.0])


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "consensus_lab", *map(str, args)],
        capture_output=True,
        text=True,
    )


def static_net(g):
    return DynamicNetwork([g], FloorModulo(rate=1.0, modulus=1))


def load_example2_network(name):
    return network_from_json(json.loads((CONFIGS / "example2" / name).read_text()))


def test_criterion_01_ring_spectral_identity():
    """lambda_2 of the ring C_n matches 2 - 2 cos(2 pi / n) up to n = 50."""
    for n in range(3, 51):
        lam2 = algebraic_connectivity(circulant_graph(n, {1}))
        assert lam2 == pytest.approx(2.0 - 2.0 * math.cos(2.0 * math.pi / n), abs=1e-9), (
            f"n={n}"
        )


def test_criterion_02_sign_slope_and_midrange():
    """The sign protocol drains V at 2k and lands on the midrange of x0."""
    k, dt = 1.0, 1e-4
    protocol = Protocol(Direction.AGGREGATED, Sign(k))

    # static ring: endpoint slope over the descent, clear of the chatter band
    traj = simulate(
        static_net(circulant_graph(10, {1})),
        protocol,
        EXAMPLE2_X0,
        SimConfig(t_end=11.0, dt=dt, record_stride=10**9),
    )
    t, v = traj.metrics.times, traj.metrics.V
    ia = int(np.argmax(v <= 18.0))
    ib = int(np.argmax(v <= 2.0))
    assert 0 < ia < ib and v[ib] > 10.0 * k * dt
    slope = (v[ib] - v[ia]) / (t[ib] - t[ia])
    assert slope == pytest.approx(-2.0 * k, rel=0.02)
    # midrange 0.5, well separated from the mean 1.2 of the same vector
    midrange = 0.5 * (float(EXAMPLE2_X0.max()) + float(EXAMPLE2_X0.min()))
    value = consensus_value(traj.metrics, traj.states[-1], 0.01)
    assert value == pytest.approx(midrange, abs=0.05)

    # switched single-edge phases: the same slope must appear in any phase
    # whose active edge joins the current argmax and argmin
    net = load_example2_network("network_sigma1.json")
    traj2 = simulate(
        net, protocol, EXAMPLE2_X0, SimConfig(t_end=10.0, dt=dt, record_stride=1)
    )
    steps_per_phase = round(1.0 / dt)
    pad = 10
    qualifying = 0
    for m, g in enumerate(net.graphs):
        pair = {v for arc in g.edges for v in arc[:2]}
        ia = m * steps_per_phase + pad
        ib = (m + 1) * steps_per_phase - pad
        xa, xb = traj2.states[ia], traj2.states[ib]
        va, vb = traj2.metrics.V[ia], traj2.metrics.V[ib]
        if {int(np.argmax(xa)), int(np.argmin(xa))} != pair:
            continue
        if {int(np.argmax(xb)), int(np.argmin(xb))} != pair:
            continue
        if min(va, vb) <= 10.0 * k * dt:
            continue
        slope = (vb - va) / (traj2.metrics.times[ib] - traj2.metrics.times[ia])
        assert slope == pytest.approx(-2.0 * k, rel=0.02), f"phase {m}"
        qualifying += 1
    assert qualifying >= 1


def test_criterion_03_two_node_analytic_settling():
    """Two-node sign pair, k = 1, x0 = [1, -1]: settling at epsilon = 2 k dt
    must land at V0 / (2k) within two steps.

    Each node moves toward the other at speed |u_i| = k, so the spread
    V(t) = V0 - 2 k t closes at the rate 2k that criterion 2 checks, and
    crosses epsilon = 2 k dt within a step of V0 / (2k)."""
    k, dt = 1.0, 1e-4
    x0 = np.array([1.0, -1.0])
    traj = simulate(
        static_net(WeightedDigraph.undirected(2, [(0, 1)])),
        Protocol(Direction.AGGREGATED, Sign(k)),
        x0,
        SimConfig(t_end=2.0, dt=dt, record_stride=10**9),
    )
    t_star = settling_time(traj.metrics, 2.0 * k * dt)
    assert t_star is not None
    assert t_star == pytest.approx((x0.max() - x0.min()) / (2.0 * k), abs=2.0 * dt)


def test_criterion_04_bundled_switched_circulants_converge(tmp_path):
    """The bundled directed-circulant run drives V below 0.01 by t = 10."""
    cfg = CONFIGS / "example1"
    res = run_cli(
        "simulate", cfg / "network.json", cfg / "protocol.json",
        "--x0-file", cfg / "x0.txt",
        "--dt", "1e-4", "--t-end", "10", "--record-stride", "1000",
        "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "metrics.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert float(last["t"]) == pytest.approx(10.0, abs=1e-9)
    assert float(last["V"]) < 0.01


def test_criterion_05_joint_connectivity_necessity():
    """The cycling single-edge network reaches consensus; every stuck member
    stalls; the verifier agrees about which windows are jointly connected."""
    net = load_example2_network("network_sigma1.json")
    protocol = protocol_from_json(
        json.loads((CONFIGS / "example2" / "protocol.json").read_text())
    )
    traj = simulate(
        net,
        protocol,
        EXAMPLE2_X0,
        SimConfig(t_end=150.0, dt=1e-4, stop_epsilon=0.05, record_stride=10**9),
    )
    assert settling_time(traj.metrics, 0.05) is not None

    # the frozen members are independent systems: one union run covers them
    stuck_runs = simulate_batch(
        [(static_net(g), protocol, EXAMPLE2_X0) for g in net.graphs],
        SimConfig(t_end=5.0, dt=1e-4, record_stride=10**9),
    )
    for m, stuck in enumerate(stuck_runs):
        assert float(stuck.metrics.V[-1]) > 1.0, f"stuck member {m}"

    path = CONFIGS / "example2" / "network_sigma1.json"
    ok = run_cli("verify", path, "--tau", "10")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    bad = run_cli("verify", path, "--tau", "5")
    assert bad.returncode == 4, bad.stdout + bad.stderr


def test_criterion_06_fixed_time_saturation():
    """Fixed-time settling saturates across scale decades; power does not.

    Base spread 190: the saturation gap shrinks like V0^(-1/2) while the
    bound 0.1 T(x0) grows with V0, so the base must start clear of the
    high-exponent knee (the crossover sits near V0 ~ 75).
    """
    net = static_net(circulant_graph(10, {1}))
    base = 10.0 * EXAMPLE2_X0
    dt, eps = 1e-3, 1e-2

    def t_stars(f, scales):
        # the scaled runs are independent systems: one union run covers them
        trajs = simulate_batch(
            [(net, Protocol(Direction.AGGREGATED, f), scale * base) for scale in scales],
            SimConfig(t_end=800.0, dt=dt, stop_epsilon=eps, record_stride=10**9),
        )
        times = [settling_time(traj.metrics, eps) for traj in trajs]
        for scale, t in zip(scales, times):
            assert t is not None, f"{f} at scale {scale} never settled"
        return times

    scales = (1.0, 10.0, 100.0, 1000.0)
    fixed = t_stars(FixedTime(1.0, 1.0, 0.5, 1.5), scales)
    assert fixed[3] - fixed[2] < 0.1 * fixed[0], f"fixed-time T = {fixed}"
    power = t_stars(Power(1.0, 0.5), scales)
    assert power[0] < power[1] < power[2] < power[3], f"power T = {power}"


@pytest.fixture(scope="module")
def benchmark_sweeps():
    """Calibrated sweeps for both protocol families over the full size grid."""
    sweeps = {}
    for experiment in (1, 2):
        rows, _ = run_experiment(experiment, [25, 50, 100, 200], dt=1e-4)
        sweeps[experiment] = {(r.n, r.direction): r for r in rows}
    return sweeps


ANCHOR_E_TOT = {
    1: {"per_edge": 361.31, "aggregated": 273.57},
    2: {"per_edge": 616.15, "aggregated": 588.15},
}


def test_criterion_07_benchmark_anchors(benchmark_sweeps):
    """n = 25 calibration: settling at 1.00, effort ordering, anchor match."""
    for experiment, anchors in ANCHOR_E_TOT.items():
        rows = benchmark_sweeps[experiment]
        pe = rows[(25, "per_edge")]
        agg = rows[(25, "aggregated")]
        for row in (pe, agg):
            assert row.settling_time == pytest.approx(1.00, abs=0.01), (
                f"experiment {experiment} {row.direction}"
            )
        assert agg.e_tot < pe.e_tot, f"experiment {experiment}"
        for direction, row in (("per_edge", pe), ("aggregated", agg)):
            ref = anchors[direction]
            assert abs(row.e_tot - ref) / ref <= 0.15, (
                f"experiment {experiment} {direction}: E_tot {row.e_tot:.2f} "
                f"vs reference {ref}"
            )


def test_criterion_08_scaling_ratio_ordering(benchmark_sweeps):
    """Aggregated settling must degrade slower than per-edge at every size."""
    for experiment in (1, 2):
        rows = benchmark_sweeps[experiment]
        for n in (50, 100, 200):
            r_agg = (
                rows[(n, "aggregated")].settling_time
                / rows[(25, "aggregated")].settling_time
            )
            r_pe = (
                rows[(n, "per_edge")].settling_time
                / rows[(25, "per_edge")].settling_time
            )
            assert r_agg < r_pe, (
                f"experiment {experiment}, n={n}: aggregated ratio {r_agg:.3f} "
                f"not below per-edge ratio {r_pe:.3f}"
            )


def test_criterion_09_homogeneity_degrees():
    """Estimated degrees match alpha - 1; fixed-time limits split into p, q."""
    xs = np.array([-3.7, -1.2, -0.31, 0.22, 0.9, 1.7, 4.1, 8.3])
    lams = np.array([0.25, 0.5, 2.0, 3.0, 10.0])
    cases = [
        (Power(2.0, 0.4), 0.4 - 1.0),
        (Power(0.7, 0.85), 0.85 - 1.0),
        (Linear(3.0), 0.0),
        (Sign(2.0), -1.0),
    ]
    for f, expected in cases:
        d, res = homogeneity_degree_estimate(f, xs, lams)
        assert d == pytest.approx(expected, abs=1e-6), f"{f}"
        assert res < 1e-9, f"{f}"

    ft = FixedTime(1.5, 2.5, 0.5, 1.5)
    f0 = limit_function(ft, "zero")
    finf = limit_function(ft, "infinity")
    assert isinstance(f0, Power) and f0.k == 1.5 and f0.alpha == 0.5
    assert isinstance(finf, Power) and finf.k == 2.5 and finf.alpha == 1.5
    d0, _ = homogeneity_degree_estimate(f0, xs, lams)
    dinf, _ = homogeneity_degree_estimate(finf, xs, lams)
    assert d0 == pytest.approx(0.5 - 1.0, abs=1e-6)
    assert dinf == pytest.approx(1.5 - 1.0, abs=1e-6)


def test_criterion_10_oracle_equivalence():
    """Matrix error vs arc sums, lambda_2 vs edge cuts, component oracles."""
    rng = np.random.default_rng(8421)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        g = random_undirected(rng, n, unit_weights=True)
        x = rng.uniform(-10.0, 10.0, size=n)

        e = consensus_error(g, x)
        manual = np.zeros(n)
        for i, j, w in g.edges:
            manual[j] += w * (x[i] - x[j])
        assert np.max(np.abs(e - manual)) <= 1e-12, f"trial {trial}"

        # complete graphs exceed their edge cuts; the bound holds elsewhere
        if len(g.edges) < n * (n - 1):
            assert algebraic_connectivity(g) <= edge_connectivity(g) + 1e-9, (
                f"trial {trial}"
            )

        assert {frozenset(c) for c in weak_components(g)} == brute_components(g), (
            f"trial {trial}"
        )


def test_criterion_11_benchmark_determinism(tmp_path):
    """Identical benchmark invocations produce byte-identical results.csv."""
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = run_cli(
            "benchmark", "--experiment", "1", "--sizes", "25",
            "--dt", "0.002", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        blobs.append((out / "results.csv").read_bytes())
    assert blobs[0] == blobs[1]
