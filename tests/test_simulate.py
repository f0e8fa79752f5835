import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensus_lab.benchmark as benchmark_module
import consensus_lab.simulate as simulate_module
from consensus_lab import _stretch
from consensus_lab.graphs import WeightedDigraph, circulant_graph
from consensus_lab.metrics import MetricSeries, settling_time
from consensus_lab.protocols import (
    Direction,
    FixedTime,
    Linear,
    Power,
    Protocol,
    Sign,
    control,
)
from consensus_lab.simulate import (
    BLOCK_STEPS,
    DIVERGENCE_LIMIT,
    STICKY_STEPS,
    DivergenceError,
    SimConfig,
    Trajectory,
    _Run,
    replay_check,
    simulate,
)
from consensus_lab.protocols import protocol_from_json
from consensus_lab.switching import (
    Breakpoints,
    DynamicNetwork,
    FloorModulo,
    active_index,
    network_from_json,
)

from gen import divisors

AGG = Direction.AGGREGATED
PE = Direction.PER_EDGE


def static_net(g):
    return DynamicNetwork([g], FloorModulo(rate=1.0, modulus=1))


class TestValidation:
    def test_config_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, record_stride=0)
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0, stop_epsilon=-0.1)
        for eps in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"positive and finite, got {eps}"):
                SimConfig(t_end=1.0, stop_epsilon=eps)

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: SimConfig(t_end=1.0, record_stride=v).record_stride,
            lambda v: FloorModulo(rate=1.0, modulus=v).modulus,
            lambda v: FloorModulo(rate=1.0, modulus=4, offset=v).offset,
            lambda v: Breakpoints(times=(1.0,), indices=(0, v)).indices[1],
        ],
        ids=["record_stride", "modulus", "offset", "indices"],
    )
    def test_integer_fields(self, build):
        # an integral float becomes the int the run indexes with
        got = build(2.0)
        assert type(got) is int and got == 2
        with pytest.raises(ValueError, match=r"must be an integer, got 1\.5"):
            build(1.5)

    def test_t_end_after_t0(self):
        net = static_net(circulant_graph(4, {1}))
        with pytest.raises(ValueError):
            simulate(net, Protocol(AGG, Linear(1.0)), np.zeros(4), SimConfig(t_end=0.0))

    def test_dimension_mismatch(self):
        net = static_net(circulant_graph(4, {1}))
        with pytest.raises(ValueError):
            simulate(net, Protocol(AGG, Linear(1.0)), np.zeros(3), SimConfig(t_end=1.0))

    def test_non_finite_x0(self):
        net = static_net(circulant_graph(4, {1}))
        x0 = np.array([0.0, np.nan, 1.0, 2.0])
        with pytest.raises(ValueError):
            simulate(net, Protocol(AGG, Linear(1.0)), x0, SimConfig(t_end=1.0))

    def test_floor_modulo_misalignment(self):
        g = circulant_graph(4, {1})
        net = DynamicNetwork([g, g, g], FloorModulo(rate=3.0, modulus=3))
        with pytest.raises(ValueError):
            simulate(net, Protocol(AGG, Linear(1.0)), np.zeros(4), SimConfig(t_end=1.0, dt=1e-4))

    def test_breakpoint_misalignment(self):
        g = circulant_graph(4, {1})
        net = DynamicNetwork([g, g], Breakpoints(times=(0.00015,), indices=(0, 1)))
        with pytest.raises(ValueError):
            simulate(net, Protocol(AGG, Linear(1.0)), np.zeros(4), SimConfig(t_end=1.0, dt=1e-4))

    def test_breakpoint_aligned_runs(self):
        g = circulant_graph(4, {1})
        net = DynamicNetwork([g, g], Breakpoints(times=(0.5,), indices=(0, 1)))
        traj = simulate(
            net, Protocol(AGG, Linear(1.0)), np.zeros(4), SimConfig(t_end=1.0, dt=1e-3)
        )
        assert traj.metrics.times[-1] == pytest.approx(1.0)

    def test_t_end_on_step_boundary(self):
        net = static_net(circulant_graph(4, {1}))
        with pytest.raises(ValueError):
            simulate(net, Protocol(AGG, Linear(1.0)), np.zeros(4), SimConfig(t_end=0.00037, dt=1e-4))


class TestEquilibrium:
    def test_consensus_is_fixed_point(self):
        net = static_net(circulant_graph(6, {1, 2}))
        x0 = np.full(6, 2.5)
        traj = simulate(
            net, Protocol(AGG, Power(1.0, 0.5)), x0, SimConfig(t_end=0.05, dt=1e-3)
        )
        assert np.all(traj.states == 2.5)
        assert not traj.controls.any()
        assert not traj.metrics.V.any()
        assert settling_time(traj.metrics, 1e-9) == 0.0


class TestTwoNodeSign:
    def test_analytic_settling(self):
        # V = 2 - 2kt while the nodes approach, so V first reaches the
        # chattering floor 2k dt at t = (V0 - eps)/(2k), about 1.0 here
        g = WeightedDigraph.undirected(2, [(0, 1)])
        dt = 1e-4
        traj = simulate(
            static_net(g),
            Protocol(AGG, Sign(1.0)),
            [1.0, -1.0],
            SimConfig(t_end=2.0, dt=dt),
        )
        ts = settling_time(traj.metrics, 2 * dt)
        assert ts is not None
        assert abs(ts - 1.0) <= 2 * dt + 1e-12

        k_quarter = round(0.25 / dt)
        assert traj.metrics.V[k_quarter] == pytest.approx(1.5, abs=1e-3)
        assert abs(traj.states[-1].mean()) <= 2 * dt


class TestReplay:
    def _run(self, protocol):
        net = static_net(circulant_graph(4, {1}))
        cfg = SimConfig(t_end=0.2, dt=1e-3)
        return net, cfg, simulate(net, protocol, [1.0, 0.0, 0.0, 0.0], cfg)

    def test_fresh_trajectory_replays(self):
        p = Protocol(AGG, Power(1.0, 0.5))
        net, cfg, traj = self._run(p)
        assert replay_check(traj, net, p, cfg) == (True, None)

    def test_perturbed_state_detected(self):
        p = Protocol(AGG, Power(1.0, 0.5))
        net, cfg, traj = self._run(p)
        traj.states[50, 2] += 1e-6
        ok, idx = replay_check(traj, net, p, cfg)
        assert not ok
        assert idx == 49

    def test_wrong_protocol_detected(self):
        p = Protocol(AGG, Power(1.0, 0.5))
        net, cfg, traj = self._run(p)
        ok, idx = replay_check(traj, net, Protocol(AGG, Sign(1.0)), cfg)
        assert not ok
        assert idx == 0

    def test_linear_directions_replay_each_other(self):
        p = Protocol(AGG, Linear(2.0))
        net, cfg, traj = self._run(p)
        assert replay_check(traj, net, Protocol(PE, Linear(2.0)), cfg)[0]

    def test_stride_one_required(self):
        net = static_net(circulant_graph(4, {1}))
        cfg = SimConfig(t_end=0.2, dt=1e-3, record_stride=2)
        p = Protocol(AGG, Linear(1.0))
        traj = simulate(net, p, [1.0, 0.0, 0.0, 0.0], cfg)
        with pytest.raises(ValueError):
            replay_check(traj, net, p, cfg)


class TestEquivariance:
    def test_translation_bitwise_for_dyadic_sign(self):
        # dyadic states, dyadic dt and unit gain keep every update exact,
        # so the shifted run must agree bitwise
        g = circulant_graph(4, {1})
        dt = 1.0 / 1024
        cfg = SimConfig(t_end=0.5, dt=dt)
        p = Protocol(PE, Sign(1.0))
        x0 = np.array([1.0, -1.0, 0.5, 0.25])
        t1 = simulate(static_net(g), p, x0, cfg)
        t2 = simulate(static_net(g), p, x0 + 2.0, cfg)
        assert np.array_equal(t2.states, t1.states + 2.0)
        assert np.array_equal(t2.controls, t1.controls)

    def test_translation_close_for_power(self):
        g = circulant_graph(5, {1})
        cfg = SimConfig(t_end=0.1, dt=1e-3)
        p = Protocol(AGG, Power(1.0, 0.5))
        x0 = np.array([3.0, -1.0, 2.0, 0.5, -4.0])
        t1 = simulate(static_net(g), p, x0, cfg)
        t2 = simulate(static_net(g), p, x0 + 2.0, cfg)
        assert np.allclose(t2.states, t1.states + 2.0, atol=1e-9)

    def test_permutation_exact_for_sign(self):
        perm = np.array([2, 0, 3, 1])
        edges = [(0, 1), (1, 2), (2, 3)]
        g = WeightedDigraph.undirected(4, edges)
        gp = WeightedDigraph.undirected(4, [(perm[i], perm[j]) for i, j in edges])
        x0 = np.array([1.0, -1.0, 0.5, 0.25])
        x0p = np.empty(4)
        x0p[perm] = x0
        cfg = SimConfig(t_end=0.25, dt=1.0 / 1024)
        p = Protocol(PE, Sign(1.0))
        t1 = simulate(static_net(g), p, x0, cfg)
        t2 = simulate(static_net(gp), p, x0p, cfg)
        assert np.array_equal(t2.states[:, perm], t1.states)

    def test_permutation_close_for_power(self):
        perm = np.array([4, 2, 0, 1, 3])
        g = circulant_graph(5, {1})
        gp = WeightedDigraph.undirected(
            5, [(perm[i], perm[j]) for i, j, _ in g.edges if i < j]
        )
        x0 = np.array([3.0, -1.0, 2.0, 0.5, -4.0])
        x0p = np.empty(5)
        x0p[perm] = x0
        cfg = SimConfig(t_end=0.1, dt=1e-3)
        p = Protocol(AGG, Power(1.0, 0.5))
        t1 = simulate(static_net(g), p, x0, cfg)
        t2 = simulate(static_net(gp), p, x0p, cfg)
        assert np.allclose(t2.states[:, perm], t1.states, atol=1e-12)


class TestDivergence:
    def test_guard_trips(self):
        net = static_net(circulant_graph(4, {1}))
        p = Protocol(AGG, FixedTime(1.0, 1000.0, 0.5, 3.0))
        x0 = [1000.0, 0.0, 0.0, -1000.0]
        # the steps a block computes past the divergence overflow silently
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                simulate(net, p, x0, SimConfig(t_end=1.0, dt=1e-3))
        assert err.value.time >= 0.0

    def test_guard_trips_on_final_step(self):
        # the only Euler step takes the pair from [1, -1] to [1 - 2e12, 2e12 - 1]
        g = WeightedDigraph.undirected(2, [(0, 1)])
        cfg = SimConfig(t_end=1e-3, dt=1e-3)
        with pytest.raises(DivergenceError) as err:
            simulate(static_net(g), Protocol(AGG, Linear(1e15)), [1.0, -1.0], cfg)
        assert err.value.time == cfg.t_end
        assert err.value.max_abs == 2e12 - 1


class TestStickyStop:
    def test_early_exit(self):
        g = WeightedDigraph.undirected(2, [(0, 1)])
        cfg = SimConfig(t_end=10.0, dt=1e-3, stop_epsilon=1e-3)
        traj = simulate(static_net(g), Protocol(AGG, Linear(5.0)), [1.0, -1.0], cfg)
        assert traj.metrics.times[-1] < 1.5
        assert np.all(traj.metrics.V[-100:] <= 1e-3)
        assert settling_time(traj.metrics, 1e-3) is not None
        # final recorded sample is the stopping state
        assert traj.times[-1] == traj.metrics.times[-1]
        assert len(traj.times) == len(traj.metrics.times)

    def test_no_stop_without_epsilon(self):
        g = WeightedDigraph.undirected(2, [(0, 1)])
        cfg = SimConfig(t_end=1.0, dt=1e-3)
        traj = simulate(static_net(g), Protocol(AGG, Linear(5.0)), [1.0, -1.0], cfg)
        assert traj.metrics.times[-1] == pytest.approx(1.0)


class TestSettlingStep:
    """_Run.settling_step is the step of metrics.settling_time's answer
    for the run's stop_epsilon, on both stretch loops. The system is the
    aggregated sign law on the switched ring of ten nodes, whose spread
    chatters across 0.1 from step 448 and stays at or below it from step
    600 on."""

    @staticmethod
    def _run(eps, compiled):
        net = benchmark_module.benchmark_topology(10)
        x0 = benchmark_module.lcg_initial_conditions(benchmark_module.LcgConfig(), 10)
        with contextlib.nullcontext() if compiled else _numpy_only():
            return _Run(net, Protocol(AGG, Sign(20.0)), x0, 1e-3, stop_epsilon=eps)

    @staticmethod
    def _oracle(run):
        metrics = run.metrics()
        t_star = settling_time(metrics, run._eps)
        return None if t_star is None else int(np.flatnonzero(metrics.times == t_star)[0])

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize(
        "eps, last, step, stopped",
        [
            (100.0, 3000, 0, True),  # never above epsilon
            (0.1, 400, None, False),  # still above it at the end
            (0.1, 3000, 600, True),  # the sticky stop
            (0.1, 650, 600, False),  # the horizon, before the sticky stop
        ],
        ids=["never-above", "ends-above", "sticky-stop", "horizon"],
    )
    def test_matches_settling_time(self, eps, last, step, stopped, compiled):
        run = self._run(eps, compiled)
        run.advance(last)
        assert run.error is None and run.stopped == stopped
        assert run.settling_step() == self._oracle(run) == step
        if not compiled:
            assert run.counters["stretches_compiled"] == 0

    @pytest.mark.parametrize("compiled", [True, False])
    def test_resumed_run(self, compiled):
        # pieces of 37 steps end above and below epsilon while the spread
        # chatters, so the step comes and goes and moves on
        run = self._run(0.1, compiled)
        steps = []
        for last in range(0, 3000, 37):
            run.advance(last)
            steps.append(run.settling_step())
            assert steps[-1] == self._oracle(run)
        assert run.stopped
        changes = [s for i, s in enumerate(steps) if i == 0 or s != steps[i - 1]]
        assert changes == [None, 518, None, 592, 600]


class TestEvents:
    def test_floor_modulo_switches(self):
        g = circulant_graph(3, {1})
        net = DynamicNetwork([g, g, g], FloorModulo(rate=1.0, modulus=3))
        traj = simulate(
            net, Protocol(AGG, Linear(1.0)), [1.0, 0.0, -1.0], SimConfig(t_end=2.5, dt=1e-3)
        )
        assert [(f, to) for _, f, to in traj.events] == [(0, 1), (1, 2)]
        assert traj.events[0][0] == pytest.approx(1.0)
        assert traj.events[1][0] == pytest.approx(2.0)

    def test_breakpoint_switches(self):
        g = circulant_graph(3, {1})
        net = DynamicNetwork(
            [g, g, g], Breakpoints(times=(0.5, 1.25), indices=(2, 0, 1))
        )
        traj = simulate(
            net, Protocol(AGG, Linear(1.0)), [1.0, 0.0, -1.0], SimConfig(t_end=2.0, dt=1e-3)
        )
        assert [(f, to) for _, f, to in traj.events] == [(2, 0), (0, 1)]
        assert traj.events[0][0] == pytest.approx(0.5)
        assert traj.events[1][0] == pytest.approx(1.25)

    def test_no_events_when_static(self):
        traj = simulate(
            static_net(circulant_graph(3, {1})),
            Protocol(AGG, Linear(1.0)),
            [1.0, 0.0, -1.0],
            SimConfig(t_end=1.0, dt=1e-3),
        )
        assert traj.events == []


class TestLyapunovDescent:
    @pytest.mark.parametrize(
        "f",
        [Linear(1.0), Sign(1.0), Power(1.0, 0.5), FixedTime(1.0, 1.0, 0.5, 1.5)],
        ids=["linear", "sign", "power", "fixed_time"],
    )
    @pytest.mark.parametrize("direction", [AGG, PE], ids=["agg", "pe"])
    def test_spread_nonincreasing_up_to_euler_error(self, f, direction):
        dt = 1e-3
        net = static_net(circulant_graph(5, {1}))
        traj = simulate(
            net, Protocol(direction, f), [3.0, -1.0, 2.0, 0.5, -4.0], SimConfig(t_end=1.0, dt=dt)
        )
        tol = 2 * dt * np.max(np.abs(traj.controls))
        assert np.max(np.diff(traj.metrics.V)) <= tol + 1e-15


class TestRecording:
    def test_stride_and_final_sample(self):
        net = static_net(circulant_graph(4, {1}))
        cfg = SimConfig(t_end=0.1, dt=1e-3, record_stride=7)
        x0 = [1.0, 0.0, 0.0, 0.0]
        traj = simulate(net, Protocol(AGG, Linear(1.0)), x0, cfg)
        expected = [0.001 * k for k in range(0, 100, 7)] + [0.1]
        assert np.allclose(traj.times, expected, atol=1e-12)
        assert traj.states.shape == (len(expected), 4)
        assert traj.controls.shape == (len(expected), 4)
        assert np.array_equal(traj.states[0], x0)
        assert len(traj.metrics.times) == 101

    def test_per_node_effort_tracking(self):
        net = static_net(circulant_graph(4, {1}))
        cfg = SimConfig(t_end=0.1, dt=1e-3, track_per_node=True)
        traj = simulate(net, Protocol(AGG, Linear(1.0)), [1.0, 0.0, 0.0, 0.0], cfg)
        E = traj.metrics.E_i
        assert E.shape == (101, 4)
        assert np.all(np.diff(E, axis=0) >= 0)
        assert np.allclose(E.sum(axis=1), traj.metrics.E_tot)


class TestDisconnectedStall:
    def test_missing_node_blocks_consensus(self):
        g = WeightedDigraph.undirected(3, [(0, 1)])
        traj = simulate(
            static_net(g),
            Protocol(AGG, Power(1.0, 0.5)),
            [0.0, 1.0, 5.0],
            SimConfig(t_end=1.0, dt=1e-3),
        )
        assert traj.metrics.V[-1] > 4.0
        assert settling_time(traj.metrics, 0.05) is None


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


LAWS = [Linear(5.0), Sign(1.0), Power(2.0, 0.5), FixedTime(1.0, 1.0, 0.5, 1.5)]
# Euler-unstable at dt = 1e-3: the first passes 1e12 with finite states, the
# second overflows to inf and nan
UNSTABLE_LAWS = [Linear(700.0), FixedTime(1.0, 1000.0, 0.5, 3.0)]


def _draw_signal(draw, t0, steps, dt):
    """A FloorModulo or Breakpoints signal over three members from t0."""
    if draw(st.booleans()):
        rate = draw(st.sampled_from([10.0, 20.0, 25.0, 50.0]))
        modulus = draw(st.integers(min_value=1, max_value=3))
        offset = draw(st.integers(min_value=0, max_value=3 - modulus))
        return FloorModulo(rate=rate, modulus=modulus, offset=offset, t0=t0)
    cuts = draw(st.lists(st.integers(1, steps + 50), max_size=5, unique=True))
    first = draw(st.integers(0, 2))
    indices = [first]
    for _ in cuts:
        indices.append((indices[-1] + draw(st.integers(1, 2))) % 3)
    return Breakpoints(
        times=tuple(t0 + dt * c for c in sorted(cuts)), indices=tuple(indices), t0=t0
    )


@st.composite
def switched_runs(draw, sizes=st.integers(4, 6), max_steps=600, laws=LAWS):
    """A switched network with t0 != 0 on the dt = 1e-3 grid, a protocol,
    x0 and a horizon of whole steps."""
    dt = 1e-3
    n = draw(sizes)
    members = [
        circulant_graph(n, {1}),
        WeightedDigraph.undirected(n, [(0, 1)]),
        circulant_graph(n, {1, 2}),
    ]
    t0 = dt * draw(st.integers(min_value=1, max_value=300))
    steps = draw(st.integers(min_value=50, max_value=max_steps))
    signal = _draw_signal(draw, t0, steps, dt)
    f = draw(st.sampled_from(laws))
    protocol = Protocol(draw(st.sampled_from([AGG, PE])), f)
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    cfg = SimConfig(
        t_end=t0 + dt * steps,
        dt=dt,
        stop_epsilon=draw(st.sampled_from([None, 0.05, 0.5])),
        record_stride=draw(st.integers(1, 40)),
        track_per_node=True,
    )
    return DynamicNetwork(members, signal), protocol, x0, cfg, steps


class TestResumableRun:
    @settings(max_examples=60, deadline=None)
    @given(case=switched_runs(), data=st.data())
    def test_chunks_match_one_shot(self, case, data):
        net, protocol, x0, cfg, steps = case
        whole = simulate(net, protocol, x0, cfg)
        t0, dt = net.signal.t0, cfg.dt
        # chunk ends on and next to every switch instant and the sticky stop
        ends = set()
        for t, _, _ in whole.events:
            k = int(round((t - t0) / dt))
            ends.update((k - 1, k, k + 1))
        stop = len(whole.metrics.times) - 1
        if stop < steps:
            ends.update((stop - 1, stop))
        ends.update(data.draw(st.lists(st.integers(0, steps), max_size=6)))
        ends = data.draw(st.permutations(sorted(e for e in ends if 0 <= e <= steps)))

        run = _Run(
            net,
            protocol,
            x0,
            dt,
            stop_epsilon=cfg.stop_epsilon,
            record_stride=cfg.record_stride,
            per_node=True,
        )
        blocks = _joined(_blocks(run, ends + [steps]))
        pieced = run.trajectory()

        for name in ("times", "V", "E_tot"):
            assert _same_bytes(getattr(pieced.metrics, name), getattr(whole.metrics, name))
        for name in ("times", "V", "E_tot", "E_i"):
            assert _same_bytes(getattr(blocks, name), getattr(whole.metrics, name))
        for name in ("times", "states", "controls"):
            assert _same_bytes(getattr(pieced, name), getattr(whole, name))
        assert pieced.events == whole.events
        if stop < steps:
            assert run.stopped

    @settings(max_examples=60, deadline=None)
    @given(case=switched_runs(), data=st.data())
    def test_blocks_join_into_the_whole_record(self, case, data):
        net, protocol, x0, cfg, steps = case
        whole = simulate(net, protocol, x0, cfg)
        ref = _StepwiseRun(net, protocol, x0, cfg.dt, cfg.stop_epsilon, cfg.record_stride, steps)
        ref.advance(steps)
        # blocks of B steps observe steps [k B, (k + 1) B): a B that divides
        # a switch's step j or j + 1, or the stop step's, puts a block edge
        # on it
        t0, dt = net.signal.t0, cfg.dt
        edges = [int(round((t - t0) / dt)) for t, _, _ in whole.events]
        stop = len(whole.metrics.times) - 1
        # a sticky stop on the horizon's last step ends the record there too
        tail = whole.metrics.V[-STICKY_STEPS:]
        stopped = stop < steps or (
            cfg.stop_epsilon is not None
            and len(tail) == STICKY_STEPS
            and bool((tail <= cfg.stop_epsilon).all())
        )
        if stopped:
            edges.append(stop)
        sizes = sorted({d for e in edges for d in divisors(e) + divisors(e + 1)} | {1, 7, 64})
        block = data.draw(st.sampled_from(sizes), label="block steps")
        with mock.patch.object(simulate_module, "BLOCK_STEPS", block):
            run = _Run(
                net,
                protocol,
                x0,
                dt,
                stop_epsilon=cfg.stop_epsilon,
                record_stride=cfg.record_stride,
                per_node=True,
            )
        blocks = _blocks(run, [steps])
        # every block but the last is whole, and the record ends where the
        # one-shot run's does
        assert {len(b.V) for b in blocks[:-1]} <= {block}
        assert run.stopped == ref.stopped == stopped
        joined = _joined(blocks)
        for want in (whole.metrics, ref.trajectory().metrics):
            for name in ("times", "V", "E_tot", "E_i"):
                assert _same_bytes(getattr(joined, name), getattr(want, name)), name


class _StepwiseRun:
    """The step-by-step integration loop that checks and records after every
    Euler step, kept as the reference for the blocked loop of _Run."""

    def __init__(self, net, protocol, x0, dt, stop_epsilon, record_stride, steps):
        self.net, self.protocol, self.dt = net, protocol, dt
        self.t0 = net.signal.t0
        self.stopped = False
        self._eps, self._stride = stop_epsilon, record_stride
        self._next = 0
        self._x = np.array(x0, dtype=float)
        self._V = np.empty(steps + 1)
        self._E_tot = np.empty(steps + 1)
        self._E_i = np.empty((steps + 1, net.n))
        self._s_accum = np.zeros(net.n)
        self._e_i = np.zeros(net.n)
        self._e_tot = 0.0
        self._cur_idx = self._member(0)
        self._run_below = 0
        self._events = []
        self._rec_steps, self._rec_states, self._rec_controls = [], [], []

    def _member(self, j):
        """Member of the Euler step from t_j, read off the float signal at
        the middle of the step."""
        return active_index(self.net.signal, self.t0 + (j + 0.5) * self.dt)

    def advance(self, last_step):
        if self.stopped or last_step < self._next:
            return
        graphs, protocol = self.net.graphs, self.protocol
        dt, t0, eps, stride = self.dt, self.t0, self._eps, self._stride
        x, s_accum, e_i_now, e_tot_now = self._x, self._s_accum, self._e_i, self._e_tot
        cur_idx, run_below = self._cur_idx, self._run_below
        g_active = graphs[cur_idx]
        for k in range(self._next, last_step + 1):
            if k:
                j = k - 1
                idx = self._member(j)
                if idx != cur_idx:
                    self._events.append((t0 + dt * j, cur_idx, idx))
                    cur_idx = idx
                    g_active = graphs[idx]
                u = control(protocol, g_active, x)
                if j % stride == 0:
                    self._rec_steps.append(j)
                    self._rec_states.append(x.copy())
                    self._rec_controls.append(u)
                s_accum += u * u * dt
                e_i_now = np.sqrt(s_accum)
                e_tot_now = float(e_i_now.sum())
                x = x + dt * u
            x_max = float(x.max())
            x_min = float(x.min())
            v = x_max - x_min
            if not math.isfinite(v) or x_max > DIVERGENCE_LIMIT or x_min < -DIVERGENCE_LIMIT:
                raise DivergenceError(t0 + dt * k, max(abs(x_max), abs(x_min)))
            self._V[k] = v
            self._E_tot[k] = e_tot_now
            self._E_i[k] = e_i_now
            if eps is not None:
                run_below = run_below + 1 if v <= eps else 0
                if run_below >= STICKY_STEPS:
                    self.stopped = True
                    break
        self._next = k + 1
        self._x, self._s_accum, self._e_i, self._e_tot = x, s_accum, e_i_now, e_tot_now
        self._cur_idx, self._run_below = cur_idx, run_below

    def trajectory(self):
        last = self._next - 1
        u_final = control(self.protocol, self.net.graphs[self._member(last)], self._x)
        return Trajectory(
            times=self.t0 + self.dt * np.array(self._rec_steps + [last]),
            states=np.vstack(self._rec_states + [self._x.copy()]),
            controls=np.vstack(self._rec_controls + [u_final]),
            metrics=MetricSeries(
                times=self.t0 + self.dt * np.arange(self._next, dtype=float),
                V=self._V[: self._next],
                E_tot=self._E_tot[: self._next],
                E_i=self._E_i[: self._next],
            ),
            events=list(self._events),
        )


def _blocks(run, ends):
    """Advance a _Run to each end in turn; the blocks it hands to rows,
    each E_i copied out of the block buffer."""
    blocks = []

    def rows(block):
        E_i = None if block.E_i is None else block.E_i.copy()
        blocks.append(dataclasses.replace(block, E_i=E_i))

    for end in ends:
        run.advance(end, rows)
    return blocks


def _joined(blocks):
    """Consecutive blocks of a metric record as one MetricSeries."""
    return MetricSeries(*(
        None if getattr(blocks[0], name) is None
        else np.concatenate([getattr(b, name) for b in blocks])
        for name in ("times", "V", "E_tot", "E_i")
    ))


def _advance_all(run, ends):
    """Advance run to each end in turn; the DivergenceError, if one is raised."""
    try:
        for end in ends:
            run.advance(end)
    except DivergenceError as exc:
        return exc
    return None


# the cases of TestBlockedRun, unstable laws included
BLOCKED_RUNS = switched_runs(
    sizes=st.sampled_from([4, 5, 6, 40]), max_steps=1500, laws=LAWS + UNSTABLE_LAWS
)


class TestBlockedRun:
    def _check_against_stepwise(self, case, data, effort):
        # small blocks put block edges everywhere in the runs that hand E_i
        # over; the module's own limits clamp their block to
        # BLOCK_ELEMENTS // n = 409 steps at n = 40, and the effort-free
        # runs take each advance as one block
        net, protocol, x0, cfg, steps = case
        ends = sorted(data.draw(st.lists(st.integers(0, steps), max_size=4))) + [steps]
        ref = _StepwiseRun(
            net, protocol, x0, cfg.dt, cfg.stop_epsilon, cfg.record_stride, steps
        )
        with np.errstate(all="ignore"):
            ref_exc = _advance_all(ref, ends)
        block = data.draw(st.sampled_from([1, 2, 7, 64, None, "stop", "after stop"]))
        if isinstance(block, str):
            # one-shot run whose sticky stop is the last or the first step
            # of a block
            if not ref.stopped:
                block = None
            else:
                block = ref._next - (0 if block == "stop" else 1)
                ends = [steps]
                ref = _StepwiseRun(
                    net, protocol, x0, cfg.dt, cfg.stop_epsilon, cfg.record_stride, steps
                )
                ref_exc = _advance_all(ref, ends)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with mock.patch.object(simulate_module, "BLOCK_STEPS", block or BLOCK_STEPS):
                run = _Run(
                    net,
                    protocol,
                    x0,
                    cfg.dt,
                    stop_epsilon=cfg.stop_epsilon,
                    record_stride=cfg.record_stride,
                    effort=effort,
                    per_node=effort,
                )
            blocks = _blocks(run, ends)
            exc = run.error
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        if ref_exc is not None:
            assert exc is not None
            assert (exc.time, exc.max_abs) == (ref_exc.time, ref_exc.max_abs)
            return
        assert exc is None
        got, want = run.trajectory(), ref.trajectory()
        joined = _joined(blocks)
        names = ("times", "V")
        if effort:
            names += ("E_tot",)
            assert _same_bytes(joined.E_i, want.metrics.E_i)
        else:
            assert got.metrics.E_tot is None and joined.E_tot is None and joined.E_i is None
        for name in names:
            assert _same_bytes(getattr(got.metrics, name), getattr(want.metrics, name))
            assert _same_bytes(getattr(joined, name), getattr(want.metrics, name))
        for name in ("times", "states", "controls"):
            assert _same_bytes(getattr(got, name), getattr(want, name))
        assert got.events == want.events
        assert run.stopped == ref.stopped

    @settings(max_examples=120, deadline=None)
    @given(case=BLOCKED_RUNS, data=st.data())
    def test_matches_stepwise_loop(self, case, data):
        self._check_against_stepwise(case, data, True)

    @settings(max_examples=60, deadline=None)
    @given(case=BLOCKED_RUNS, data=st.data())
    def test_effort_free_run_matches_stepwise_loop(self, case, data):
        # no controls are stored or integrated; everything else is the same
        self._check_against_stepwise(case, data, False)

    def test_step_out_of_the_stop_leaves_no_trace(self):
        # a switch and a recorded sample fall on the Euler step out of the
        # stop step, which a block computes but the run never takes
        g = WeightedDigraph.undirected(2, [(0, 1)])
        dt, steps = 1e-3, 2000
        p = Protocol(AGG, Linear(5.0))
        ref = _StepwiseRun(static_net(g), p, [1.0, -1.0], dt, 1e-3, 1, steps)
        ref.advance(steps)
        stop = ref._next - 1
        net = DynamicNetwork([g, g], Breakpoints(times=(dt * stop,), indices=(0, 1)))
        cfg = SimConfig(t_end=dt * steps, dt=dt, stop_epsilon=1e-3, record_stride=stop)
        traj = simulate(net, p, [1.0, -1.0], cfg)
        assert stop < steps and stop % BLOCK_STEPS != BLOCK_STEPS - 1
        assert traj.events == []
        assert traj.times.tolist() == [0.0, dt * stop]
        assert _same_bytes(traj.states[1], ref._x)


def _member_pool(n):
    return [
        circulant_graph(n, {1}),
        WeightedDigraph.undirected(n, [(0, 1)]),
        circulant_graph(n, {1, 2}),
        WeightedDigraph(n, [(i, (i + 1) % n, 0.5 + i % 3) for i in range(n)]),
        WeightedDigraph(n, []),
    ]


@st.composite
def pooled_runs(draw, laws):
    """A system with a signal from t0 != 0 whose three members, weighted
    and edgeless graphs among them, are drawn from _member_pool, under one
    of laws; a config and a horizon of whole steps."""
    dt = 1e-3
    t0 = dt * draw(st.integers(min_value=1, max_value=300))
    steps = draw(st.integers(min_value=50, max_value=600))
    signal = _draw_signal(draw, t0, steps, dt)
    n = draw(st.sampled_from([4, 5, 6, 40]))
    members = [draw(st.sampled_from(_member_pool(n))) for _ in range(3)]
    protocol = Protocol(draw(st.sampled_from([AGG, PE])), draw(st.sampled_from(laws)))
    x0 = draw(st.one_of(
        st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
        # a start at consensus, from zeros of either sign
        st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
    ))
    cfg = SimConfig(
        t_end=t0 + dt * steps,
        dt=dt,
        stop_epsilon=draw(st.sampled_from([None, 0.05, 0.5])),
        record_stride=draw(st.integers(1, 40)),
        track_per_node=draw(st.booleans()),
    )
    return (DynamicNetwork(members, signal), protocol, x0), cfg, steps


EXAMPLE1 = Path(__file__).resolve().parent.parent / "configs" / "example1"
requires_compiled = pytest.mark.skipif(
    _stretch.load() is None, reason="the compiled stretch loop cannot be built here"
)
# the laws of the compiled stretch loop; Linear(1e200) overflows to inf and
# then nan within a step, and Linear(700) and FixedTime's k2 = 1000 are
# Euler-unstable at dt = 1e-3
COMPILED_LAWS = (
    [Linear(k) for k in (1.0, 5.0, 700.0, 1e200)]
    + [Sign(k) for k in (0.5, 1.0, 2.0)]
    + [Power(k, 0.5) for k in (0.5, 2.0, 8.0)]
    + [FixedTime(k1, k2, 0.5, 1.5) for k1 in (0.5, 1.0) for k2 in (1.0, 3.0, 1000.0)]
)


def _example1():
    net = network_from_json(json.loads((EXAMPLE1 / "network.json").read_text()))
    protocol = protocol_from_json(json.loads((EXAMPLE1 / "protocol.json").read_text()))
    x0 = [float(v) for v in (EXAMPLE1 / "x0.txt").read_text().split()]
    return net, protocol, x0


def _bytes(a):
    return None if a is None else (np.asarray(a).shape, np.asarray(a).tobytes())


def _outcome_bytes(run, blocks):
    """Every record, event, stop and error message of the run, and the E_i
    of the blocks it handed to rows, as bytes, so that -0.0 and +0.0
    differ."""
    if run.error is not None:
        return str(run.error), _bytes(run.error.time), _bytes(run.error.max_abs)
    traj = run.trajectory()
    m = traj.metrics
    arrays = (traj.times, traj.states, traj.controls, m.times, m.V, m.E_tot, _joined(blocks).E_i)
    return tuple(_bytes(a) for a in arrays) + (repr(traj.events), run.stopped)


def _numpy_only():
    """The stretch loader of a machine that cannot build the library."""
    return mock.patch.object(_stretch, "load", lambda: None)


def _fused_case(name, n):
    """A system at the edges of the stretch's spread and peak, a config
    and a horizon of whole steps. The trips switch at
    step 10 from a mild first member to the unweighted ring under a linear
    law of gain 1e308, whose controls overflow: per-edge, the opposite
    infinities of a node's two arcs sum to NaN, so the guard trips on a
    state of NaNs and infinities; aggregated, only the ring's two end
    nodes overflow, so it trips on infinities, and NaNs follow. The
    signed-zero runs start at consensus from zeros of either sign."""
    dt, steps = 1e-3, 300
    ring = circulant_graph(n, {1})
    if name.endswith("trip"):
        if name == "nan trip":
            mild, protocol = WeightedDigraph(n, []), Protocol(PE, Linear(1e308))
        else:
            weak = [(i, (i + 1) % n, 1e-308) for i in range(n)]
            mild, protocol = WeightedDigraph.undirected(n, weak), Protocol(AGG, Linear(1e308))
        net = DynamicNetwork([mild, ring], Breakpoints(times=(dt * 10,), indices=(0, 1)))
        x0, eps = 2.0 * np.arange(n), None
    else:
        net, protocol = static_net(ring), Protocol(PE, Power(2.0, 0.5))
        x0 = [(0.0, -0.0)[i % 2] for i in range(n)]
        eps = 0.05 if name == "signed zeros, stop" else None
    cfg = SimConfig(t_end=dt * steps, dt=dt, stop_epsilon=eps, record_stride=7)
    return (net, protocol, x0), cfg, steps


FUSED_CASES = ["nan trip", "inf trip", "signed zeros", "signed zeros, stop"]


class TestCompiledStretch:
    @requires_compiled
    @settings(max_examples=80, deadline=None)
    @given(case=pooled_runs(COMPILED_LAWS), data=st.data())
    def test_same_bytes_as_numpy_kernels(self, case, data):
        system, cfg, steps = case
        effort = data.draw(st.booleans())
        block = data.draw(st.sampled_from([1, 2, 7, 64, None]))
        # the numpy loop decides the end after chunks of this many steps
        chunk = data.draw(st.sampled_from([1, 2, 7, 64, None])) or 2**14
        ends = sorted(data.draw(st.lists(st.integers(1, steps), max_size=3))) + [steps]

        def outcome(compiled):
            with mock.patch.object(simulate_module, "BLOCK_STEPS", block or BLOCK_STEPS), (
                mock.patch.object(_stretch, "CHUNK_ELEMENTS", chunk * system[0].n)
            ), contextlib.nullcontext() if compiled else _numpy_only():
                run = _Run(
                    *system,
                    cfg.dt,
                    stop_epsilon=cfg.stop_epsilon,
                    record_stride=cfg.record_stride,
                    effort=effort,
                    per_node=effort,
                )
                blocks = _blocks(run, ends)
            return run.counters, _outcome_bytes(run, blocks)

        counted, got = outcome(compiled=True)
        counted_numpy, want = outcome(compiled=False)
        assert got == want
        assert counted["stretches_numpy"] == counted["discarded"] == 0
        # the numpy loop computes steps past the end of a chunk, and discards them
        taken = dict(counted_numpy, discarded=0)
        taken["steps"] -= counted_numpy["discarded"]
        swapped = dict(counted, stretches_compiled=0, stretches_numpy=counted["stretches_compiled"])
        assert swapped == taken

    @requires_compiled
    @pytest.mark.parametrize("effort", [True, False])
    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("n", [4, 40])
    @pytest.mark.parametrize("name", FUSED_CASES)
    def test_fused_outputs_at_trips_and_signed_zeros(self, name, n, block, effort):
        """Both paths, and the stepwise loop, give the same error, V, E_tot
        and E_i handed to rows across block edges, where the guard trips
        inside a block with NaNs or infinities after it, and where a run
        starts at consensus from zeros of either sign. At n = 40 numpy's
        reductions can return a NaN of another sign than the state's, at
        n = 4 they return the state's own."""
        system, cfg, steps = _fused_case(name, n)

        def outcome(compiled):
            with mock.patch.object(simulate_module, "BLOCK_STEPS", block or BLOCK_STEPS), (
                contextlib.nullcontext() if compiled else _numpy_only()
            ):
                run = _Run(
                    *system,
                    cfg.dt,
                    stop_epsilon=cfg.stop_epsilon,
                    record_stride=7,
                    effort=effort,
                    per_node=effort,
                )
                blocks = _blocks(run, [steps])
            return run, blocks

        (run, blocks), (run_numpy, blocks_numpy) = outcome(True), outcome(False)
        assert run.counters["stretches_numpy"] == run_numpy.counters["stretches_compiled"] == 0
        names = ("times", "V", "E_tot", "E_i")
        handed = [[_bytes(getattr(b, name)) for name in names] for b in blocks]
        assert handed == [[_bytes(getattr(b, name)) for name in names] for b in blocks_numpy]
        assert _outcome_bytes(run, blocks) == _outcome_bytes(run_numpy, blocks_numpy)

        ref = _StepwiseRun(*system, cfg.dt, cfg.stop_epsilon, 7, steps)
        with np.errstate(all="ignore"):
            ref_exc = _advance_all(ref, [steps])
        seen = sum(len(b.V) for b in blocks)
        if name.endswith("trip"):
            assert ref_exc is not None and run.error is not None
            assert run.error.time == ref_exc.time
            assert repr(run.error.max_abs) == repr(ref_exc.max_abs)  # nan or inf
            assert math.isnan(run.error.max_abs) == (name == "nan trip")
            # the blocks before the trip's hold every step before it
            assert seen <= round(run.error.time / cfg.dt) < seen + (block or BLOCK_STEPS)
        else:
            assert ref_exc is None and run.error is None
            assert run.stopped == ref.stopped == (cfg.stop_epsilon is not None)
            assert seen == run.next == ref._next and not run.V[: run.next].any()
        # the stepwise loop's records hold every step before the trip
        for field in ("V", "E_tot", "E_i") if effort else ("V",):
            got = [getattr(b, field) for b in blocks]
            want = getattr(ref, "_" + field)[:seen]
            assert _same_bytes(np.concatenate(got) if got else want[:0], want), field

    @requires_compiled
    @pytest.mark.parametrize("n", [*range(1, 21), 127, 128, 129, 255, 256, 257, 1000, 2047, 2048])
    def test_effort_sums_in_numpy_order(self, n):
        """The compiled loop's E_tot is np.sum of its E_i, bit for bit: n
        below 8 sums in turn, up to 128 in eight accumulators, and above
        in halves split at a multiple of 8. The states span twelve orders
        of magnitude, so no two orders of the sum agree."""
        rng = np.random.default_rng(n)
        x0 = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 6, n)
        ring = WeightedDigraph(n, [(i, (i + 1) % n, 1.0) for i in range(n) if n > 1])

        def outcome():
            run = _Run(static_net(ring), Protocol(PE, Power(2.0, 0.5)), x0, 1e-3, per_node=True)
            blocks = _joined(_blocks(run, [5]))
            return run.counters["stretches_compiled"], blocks

        compiled, got = outcome()
        with _numpy_only():
            _, want = outcome()
        assert compiled == 1
        assert _same_bytes(got.E_i, want.E_i) and _same_bytes(got.E_tot, want.E_tot)
        assert _same_bytes(got.E_tot, np.sum(got.E_i, axis=1))

    def test_fallback_gives_the_same_bytes(self, monkeypatch):
        net, protocol, x0 = _example1()
        cfg = SimConfig(t_end=3.0, dt=1e-3, record_stride=7, track_per_node=True)
        want = simulate(net, protocol, x0, cfg)

        def no_compiler():
            raise FileNotFoundError("gcc")

        monkeypatch.setattr(_stretch, "_lib", None)
        monkeypatch.setattr(_stretch, "_load", no_compiler)
        assert _stretch.load() is None
        run = _Run(net, protocol, x0, cfg.dt, record_stride=7, per_node=True)
        blocks = _joined(_blocks(run, [3000]))
        assert run.counters["stretches_compiled"] == 0 and run.counters["stretches_numpy"] > 0
        got = run.trajectory()
        for name in ("times", "V", "E_tot"):
            assert _same_bytes(getattr(got.metrics, name), getattr(want.metrics, name))
        for name in ("times", "V", "E_tot", "E_i"):
            assert _same_bytes(getattr(blocks, name), getattr(want.metrics, name))
        for name in ("times", "states", "controls"):
            assert _same_bytes(getattr(got, name), getattr(want, name))
        assert repr(got.events) == repr(want.events)

    def test_missing_compiler_falls_back(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_stretch, "_lib", None)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _stretch.load() is None

    @requires_compiled
    def test_truncated_cached_library_is_rebuilt(self, tmp_path):
        # in fresh processes: a library this one has loaded must not shrink
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
        build = "from consensus_lab import _stretch; assert _stretch.load()"
        subprocess.run([sys.executable, "-c", build], env=env, check=True)
        (lib,) = (tmp_path / "cache" / "consensus-lab").glob("stretch-*.so")
        whole = lib.read_bytes()
        lib.write_bytes(whole[: len(whole) // 2])
        res = subprocess.run(
            [
                sys.executable, "-m", "consensus_lab", "simulate",
                str(EXAMPLE1 / "network.json"), str(EXAMPLE1 / "protocol.json"),
                "--x0-file", str(EXAMPLE1 / "x0.txt"), "--dt", "1e-3", "--t-end", "1",
                "--out", str(tmp_path / "run"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert (res.returncode, res.stderr) == (0, "")
        assert lib.read_bytes() == whole


class TestCounters:
    @requires_compiled
    def test_example1_runs_compiled(self):
        run = _Run(*_example1(), 1e-3, record_stride=100)
        run.advance(15000)
        assert run.counters == {
            "steps": 15000,
            "blocks": 1,  # no caller reads E_i: the advance is one block
            "switches": 14,
            "stretches_compiled": 15,  # a stretch per dwell
            "stretches_numpy": 0,
            "discarded": 0,
        }

    @requires_compiled
    def test_per_node_blocks(self):
        run = _Run(*_example1(), 1e-3, record_stride=100, per_node=True)
        run.advance(15000)
        assert run.counters == {
            "steps": 15000,
            "blocks": 15,  # 15 001 observed steps at 1024 a block
            "switches": 14,
            "stretches_compiled": 29,  # a stretch per block and per switch
            "stretches_numpy": 0,
            "discarded": 0,
        }

    @requires_compiled
    def test_wide_run_holds_no_block_of_steps(self):
        # the shape of the benchmark's scale_2000: n = 2000, 700 steps over
        # three switches, no E_i
        n = 2000
        net = benchmark_module.benchmark_topology(n)
        x0 = np.random.default_rng(0).uniform(-10.0, 10.0, n)
        protocol = Protocol(PE, Power(1.0, 0.5))
        _Run(net, protocol, x0, 1e-3)  # the graphs cache their arc arrays
        tracemalloc.start()
        try:
            run = _Run(net, protocol, x0, 1e-3, record_stride=10**9)
            run.advance(700)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert run.counters["stretches_compiled"] == 4 and run.counters["blocks"] == 1
        assert run.counters["steps"] == 700 and run.counters["discarded"] == 0
        # the state, the effort integrals, a recorded state and control, and
        # two vectors per member are 10 rows of n floats, and V and E_tot
        # 11 kB; a block of eight steps' states, controls and effort would
        # be 24 rows more
        assert held < 16 * 8 * n

    @requires_compiled
    def test_calibration_runs_compiled(self, monkeypatch):
        runs = []

        class Recorded(_Run):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        monkeypatch.setattr(benchmark_module, "_Run", Recorded)
        with open(EXAMPLE1.parent / "benchmark" / "experiment1.json") as fh:
            cfg = json.load(fh)
        benchmark_module.calibrate_gain(
            "power", PE, 25, cfg["target_v"], cfg["target_t"], dt=cfg["dt"]
        )
        assert runs
        for run in runs:
            assert run.counters["stretches_numpy"] == 0
            assert run.counters["stretches_compiled"] > 0

    def test_fixed_time_runs_on_numpy(self):
        # q = 3 is outside the compiled loop's laws
        net = static_net(circulant_graph(6, {1}))
        run = _Run(net, Protocol(PE, FixedTime(1.0, 1.0, 0.5, 3.0)), np.arange(6.0), 1e-3)
        run.advance(500)
        assert run.counters["stretches_compiled"] == 0
        assert run.counters["stretches_numpy"] == run.counters["blocks"] == 1

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("law", [Linear(1.0), Linear(1e200)])
    def test_run_ends_on_its_step(self, law, compiled):
        # a sticky stop, or a divergence, inside a stretch of 5000 steps:
        # the compiled loop stops on it, the numpy loop after its chunk
        net = static_net(WeightedDigraph.undirected(2, [(0, 1)]))
        with contextlib.nullcontext() if compiled else _numpy_only():
            run = _Run(net, Protocol(AGG, law), [1.0, -1.0], 1e-3, stop_epsilon=1e-3)
        run.advance(5000)
        end = run.next - 1 if run.error is None else round(run.error.time / 1e-3)
        assert run.ended and 0 < end < 5000
        assert run.counters["steps"] - run.counters["discarded"] == end
        if compiled and _stretch.load() is not None:
            assert run.counters["discarded"] == 0
