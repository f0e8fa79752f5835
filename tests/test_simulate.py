import dataclasses
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensus_lab.simulate as simulate_module
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
    simulate_batch,
)
from consensus_lab.switching import Breakpoints, DynamicNetwork, FloorModulo, active_index

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

    def test_pickle_round_trip(self):
        # a sweep row's error, as benchmark._sweep_rows builds it, crosses a
        # process boundary pickled
        cause = DivergenceError(1.25, 3.5e12)
        err = DivergenceError(1.5, 2e12, context="benchmark row n=12 direction=per_edge")
        err.__cause__ = cause
        got = pickle.loads(pickle.dumps(err))
        assert type(got) is DivergenceError
        assert str(got) == str(err)
        assert str(got).startswith("benchmark row n=12 direction=per_edge: state diverged")
        assert (got.time, got.max_abs, got.context) == (1.5, 2e12, err.context)
        assert type(got.__cause__) is DivergenceError
        assert str(got.__cause__) == str(cause)
        assert (got.__cause__.time, got.__cause__.max_abs) == (1.25, 3.5e12)
        assert got.__cause__.__cause__ is None
        assert got.__suppress_context__


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
            [(net, protocol, x0)],
            dt,
            stop_epsilon=cfg.stop_epsilon,
            record_stride=cfg.record_stride,
            effort="per_node",
        )
        for end in ends:
            run.advance(end)
        run.advance(steps)
        pieced = run.trajectory()

        for name in ("times", "V", "E_tot", "E_i"):
            assert _same_bytes(getattr(pieced.metrics, name), getattr(whole.metrics, name))
        for name in ("times", "states", "controls"):
            assert _same_bytes(getattr(pieced, name), getattr(whole, name))
        assert pieced.events == whole.events
        if stop < steps:
            assert run.components[0].stopped

    def test_reserved_records_are_allocated_once(self):
        net = DynamicNetwork(
            [circulant_graph(6, {1}), circulant_graph(6, {1, 2})], FloorModulo(rate=10.0, modulus=2)
        )
        protocol = Protocol(PE, Power(1.0, 0.5))
        x0 = [3.0, -1.0, 0.5, 2.0, -2.5, 1.0]
        cfg = SimConfig(t_end=2.0, dt=1e-3, track_per_node=True)
        steps = 2000
        run = _Run([(net, protocol, x0)], cfg.dt, effort="per_node")
        run.reserve(steps)
        c = run.components[0]
        records = [c.V, c.E_tot, c.E_i]
        assert [len(r) for r in records] == [steps + 1] * 3
        for piece in range(20):
            run.advance((piece + 1) * steps // 20)
            # advancing wrote into the reserved arrays, never into copies
            assert all(now is reserved for now, reserved in zip([c.V, c.E_tot, c.E_i], records))
        assert c.next == steps + 1
        whole = simulate(net, protocol, x0, cfg).metrics
        for name in ("times", "V", "E_tot", "E_i"):
            assert _same_bytes(getattr(run.metrics(), name), getattr(whole, name))


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
        # small blocks put block edges everywhere; the module's own limits
        # clamp the block to BLOCK_ELEMENTS // n = 409 steps at n = 40
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
                    [(net, protocol, x0)],
                    cfg.dt,
                    stop_epsilon=cfg.stop_epsilon,
                    record_stride=cfg.record_stride,
                    effort=effort,
                )
            assert _advance_all(run, ends) is None
            exc = run.components[0].error
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        if ref_exc is not None:
            assert exc is not None
            assert (exc.time, exc.max_abs) == (ref_exc.time, ref_exc.max_abs)
            return
        assert exc is None
        got, want = run.trajectory(), ref.trajectory()
        names = ("times", "V")
        if effort is None:
            assert got.metrics.E_tot is None and got.metrics.E_i is None
        else:
            names += ("E_tot",) + ("E_i",) * (effort == "per_node")
        for name in names:
            assert _same_bytes(getattr(got.metrics, name), getattr(want.metrics, name))
        for name in ("times", "states", "controls"):
            assert _same_bytes(getattr(got, name), getattr(want, name))
        assert got.events == want.events
        assert run.components[0].stopped == ref.stopped

    @settings(max_examples=120, deadline=None)
    @given(case=BLOCKED_RUNS, data=st.data())
    def test_matches_stepwise_loop(self, case, data):
        # without per-node tracking the effort takes another path
        per_node = data.draw(st.booleans())
        self._check_against_stepwise(case, data, "per_node" if per_node else "total")

    @settings(max_examples=60, deadline=None)
    @given(case=BLOCKED_RUNS, data=st.data())
    def test_effort_free_run_matches_stepwise_loop(self, case, data):
        # no controls are stored or integrated; everything else is the same
        self._check_against_stepwise(case, data, None)

    def test_unknown_effort(self):
        net = static_net(circulant_graph(4, {1}))
        with pytest.raises(ValueError):
            _Run([(net, Protocol(AGG, Power(1.0, 0.5)), np.zeros(4))], 1e-3, effort="sum")

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


# gains per law; the last Linear gain and the FixedTime k2 = 1000 are
# Euler-unstable at dt = 1e-3
UNION_LAWS = {
    "linear": lambda draw: Linear(draw(st.sampled_from([1.0, 5.0, 700.0]))),
    "sign": lambda draw: Sign(draw(st.sampled_from([0.5, 1.0, 2.0]))),
    "power": lambda draw: Power(draw(st.sampled_from([0.5, 2.0, 8.0])), 0.5),
    "fixed_time": lambda draw: FixedTime(
        draw(st.sampled_from([0.5, 1.0])), draw(st.sampled_from([1.0, 1000.0])), 0.5, 3.0
    ),
}


def _member_pool(n):
    return [
        circulant_graph(n, {1}),
        WeightedDigraph.undirected(n, [(0, 1)]),
        circulant_graph(n, {1, 2}),
        WeightedDigraph(n, [(i, (i + 1) % n, 0.5 + i % 3) for i in range(n)]),
        WeightedDigraph(n, []),
    ]


@st.composite
def union_runs(draw):
    """Two to four systems that share a signal with t0 != 0, a direction and
    a law with its exponents, each with its own size, members, gains and
    x0; a config and a horizon of whole steps."""
    dt = 1e-3
    t0 = dt * draw(st.integers(min_value=1, max_value=300))
    steps = draw(st.integers(min_value=50, max_value=600))
    signal = _draw_signal(draw, t0, steps, dt)
    law = UNION_LAWS[draw(st.sampled_from(sorted(UNION_LAWS)))]
    direction = draw(st.sampled_from([AGG, PE]))
    systems = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.sampled_from([4, 5, 6, 40]))
        members = [draw(st.sampled_from(_member_pool(n))) for _ in range(3)]
        x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        systems.append((DynamicNetwork(members, signal), Protocol(direction, law(draw)), x0))
    cfg = SimConfig(
        t_end=t0 + dt * steps,
        dt=dt,
        stop_epsilon=draw(st.sampled_from([None, 0.05, 0.5])),
        record_stride=draw(st.integers(1, 40)),
        track_per_node=draw(st.booleans()),
    )
    return systems, cfg, steps


def _last_step(outcome, t0, dt):
    """Step at which a solo run diverged or stopped early; its final step otherwise."""
    t = outcome.time if isinstance(outcome, DivergenceError) else outcome.metrics.times[-1]
    return int(round((t - t0) / dt))


class TestUnionRun:
    @settings(max_examples=80, deadline=None)
    @given(case=union_runs(), data=st.data())
    def test_components_match_solo_runs(self, case, data):
        systems, cfg, steps = case
        t0, dt = systems[0][0].signal.t0, cfg.dt

        def solo(system, last):
            with np.errstate(all="ignore"):
                try:
                    return simulate(*system, dataclasses.replace(cfg, t_end=t0 + dt * last))
                except DivergenceError as exc:
                    return exc

        refs = [solo(system, steps) for system in systems]
        lasts = [steps] * len(systems)
        # small blocks put block edges everywhere; "stop" and "after stop"
        # make the first system's sticky stop the first or the last step of
        # a block of a one-shot run
        block = data.draw(st.sampled_from([1, 2, 7, 64, None, "stop", "after stop"]))
        ends, drop = [steps], None
        stop = _last_step(refs[0], t0, dt)
        if not isinstance(block, str):
            ends = sorted(data.draw(st.lists(st.integers(1, steps), max_size=4))) + ends
            # a caller may drop one system after one of its advance calls
            drop = data.draw(
                st.none()
                | st.tuples(st.integers(0, len(systems) - 1), st.integers(0, len(ends) - 1))
            )
        elif isinstance(refs[0], DivergenceError) or stop == steps:
            block = None
        else:
            block = stop + (0 if block == "stop" else 1)
        if drop is not None:
            i, at = drop
            if _last_step(refs[i], t0, dt) > ends[at]:
                # the system is still running when it is dropped
                refs[i], lasts[i] = solo(systems[i], ends[at]), ends[at]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # the union rebuilds its buffers when it compacts, so the patch
            # covers every advance
            with mock.patch.object(simulate_module, "BLOCK_STEPS", block or BLOCK_STEPS):
                run = _Run(
                    systems,
                    dt,
                    stop_epsilon=cfg.stop_epsilon,
                    record_stride=cfg.record_stride,
                    effort="per_node" if cfg.track_per_node else "total",
                )
                for k, end in enumerate(ends):
                    run.advance(end)
                    if drop is not None and drop[1] == k:
                        run.drop(drop[0])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        for i, (c, ref, last) in enumerate(zip(run.components, refs, lasts)):
            if isinstance(ref, DivergenceError):
                assert c.error is not None
                assert (c.error.time, c.error.max_abs) == (ref.time, ref.max_abs)
                continue
            assert c.error is None
            got = run.trajectory(i)
            for name in ("times", "V", "E_tot") + ("E_i",) * cfg.track_per_node:
                assert _same_bytes(getattr(got.metrics, name), getattr(ref.metrics, name))
            for name in ("times", "states", "controls"):
                assert _same_bytes(getattr(got, name), getattr(ref, name))
            assert got.events == ref.events
            # a sticky stop on the last step leaves the solo run at full
            # length; its spread then ends with exactly STICKY_STEPS steps
            # at or below epsilon
            V, eps = ref.metrics.V, cfg.stop_epsilon
            on_last = eps is not None and len(V) >= STICKY_STEPS and (V[-STICKY_STEPS:] <= eps).all()
            assert c.stopped == (len(V) - 1 < last or on_last)

    def test_rejects_systems_that_cannot_share_a_run(self):
        g = circulant_graph(4, {1})
        base = (static_net(g), Protocol(AGG, Power(1.0, 0.5)), np.zeros(4))
        others = [
            (DynamicNetwork([g], FloorModulo(rate=2.0, modulus=1)),) + base[1:],
            (DynamicNetwork([g, g], FloorModulo(rate=1.0, modulus=1)),) + base[1:],
            (base[0], Protocol(PE, Power(1.0, 0.5)), base[2]),
            (base[0], Protocol(AGG, Power(1.0, 0.7)), base[2]),
            (base[0], Protocol(AGG, Linear(1.0)), base[2]),
        ]
        cfg = SimConfig(t_end=0.01, dt=1e-3)
        for other in others:
            with pytest.raises(ValueError):
                simulate_batch([base, other], cfg)
        with pytest.raises(ValueError):
            simulate_batch([], cfg)
        # gains alone may differ
        assert len(simulate_batch([base, (base[0], Protocol(AGG, Power(3.0, 0.5)), base[2])], cfg)) == 2
