import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab.graphs import WeightedDigraph, circulant_graph
from consensus_lab.metrics import settling_time
from consensus_lab.protocols import Direction, FixedTime, Linear, Power, Protocol, Sign
from consensus_lab.simulate import (
    DivergenceError,
    SimConfig,
    _Run,
    replay_check,
    simulate,
)
from consensus_lab.switching import Breakpoints, DynamicNetwork, FloorModulo

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


@st.composite
def switched_runs(draw):
    """A switched network with t0 != 0 on the dt = 1e-3 grid, a protocol,
    x0 and a horizon of whole steps."""
    dt = 1e-3
    n = draw(st.integers(min_value=4, max_value=6))
    members = [
        circulant_graph(n, {1}),
        WeightedDigraph.undirected(n, [(0, 1)]),
        circulant_graph(n, {1, 2}),
    ]
    t0 = dt * draw(st.integers(min_value=1, max_value=300))
    steps = draw(st.integers(min_value=50, max_value=600))
    if draw(st.booleans()):
        rate = draw(st.sampled_from([10.0, 20.0, 25.0, 50.0]))
        modulus = draw(st.integers(min_value=1, max_value=3))
        offset = draw(st.integers(min_value=0, max_value=3 - modulus))
        signal = FloorModulo(rate=rate, modulus=modulus, offset=offset, t0=t0)
    else:
        cuts = draw(st.lists(st.integers(1, steps + 50), max_size=5, unique=True))
        first = draw(st.integers(0, 2))
        indices = [first]
        for _ in cuts:
            indices.append((indices[-1] + draw(st.integers(1, 2))) % 3)
        signal = Breakpoints(
            times=tuple(t0 + dt * c for c in sorted(cuts)), indices=tuple(indices), t0=t0
        )
    f = draw(
        st.sampled_from(
            [Linear(5.0), Sign(1.0), Power(2.0, 0.5), FixedTime(1.0, 1.0, 0.5, 1.5)]
        )
    )
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
            track_per_node=True,
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
            assert run.stopped
