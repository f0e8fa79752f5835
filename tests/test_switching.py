import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from consensus_lab.graphs import WeightedDigraph, circulant_graph, is_connected, union_graph
from consensus_lab.switching import (
    Breakpoints,
    DynamicNetwork,
    FloorModulo,
    active_index,
    is_tau_jointly_connected,
    network_from_json,
    network_to_json,
    step_schedule,
    switch_times,
)

from gen import random_undirected


def example2_network(rate=1.0):
    """Ten single-edge members on 10 vertices, cycled one per dwell."""
    family = [
        WeightedDigraph.undirected(10, [(b, (b + 1) % 10)]) for b in range(10)
    ]
    return DynamicNetwork(family, FloorModulo(rate=rate, modulus=10))


class TestFloorModulo:
    def test_unit_dwell_ten_members(self):
        # floor(t) mod 10 + 1 at t=3.5 gives 4
        sig = FloorModulo(rate=1.0, modulus=10, offset=1)
        assert active_index(sig, 3.5) == 4

    def test_benchmark_signal_boundary(self):
        sig = FloorModulo(rate=5.0, modulus=2)
        assert active_index(sig, 0.19) == 0
        assert active_index(sig, 0.2) == 1

    def test_constant_signal(self):
        sig = FloorModulo(rate=1.0, modulus=1)
        for t in (0.0, 0.3, 7.0):
            assert active_index(sig, t) == 0

    def test_before_start_rejected(self):
        with pytest.raises(ValueError):
            active_index(FloorModulo(rate=1.0, modulus=2), -0.1)

    def test_tau_min(self):
        assert FloorModulo(rate=5.0, modulus=2).tau_min == 0.2

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            FloorModulo(rate=0.0, modulus=2)
        with pytest.raises(ValueError):
            FloorModulo(rate=1.0, modulus=0)


class TestBreakpoints:
    def test_right_continuous_intervals(self):
        sig = Breakpoints(times=(1.0, 2.5), indices=(0, 1, 0))
        assert active_index(sig, 0.0) == 0
        assert active_index(sig, 1.0) == 1
        assert active_index(sig, 2.4) == 1
        assert active_index(sig, 2.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Breakpoints(times=(2.0, 1.0), indices=(0, 1, 0))
        with pytest.raises(ValueError):
            Breakpoints(times=(1.0, 1.0), indices=(0, 1, 0))
        with pytest.raises(ValueError):
            Breakpoints(times=(1.0,), indices=(0, 1, 2))
        with pytest.raises(ValueError):
            Breakpoints(times=(1.0, 2.0), indices=(0, 0, 1))
        with pytest.raises(ValueError):
            Breakpoints(times=(-1.0, 2.0), indices=(0, 1, 0))

    def test_tau_min_is_min_gap(self):
        sig = Breakpoints(times=(1.0, 1.5, 3.0), indices=(0, 1, 0, 1))
        assert sig.tau_min == 0.5


class TestSwitchTimes:
    def test_benchmark_signal_unit_interval(self):
        sig = FloorModulo(rate=5.0, modulus=2)
        assert switch_times(sig, 0.0, 1.0) == [0.2, 0.4, 0.6, 0.8, 1.0]

    def test_constant_signal_never_switches(self):
        sig = FloorModulo(rate=3.0, modulus=1)
        assert switch_times(sig, 0.0, 10.0) == []

    def test_unit_dwell(self):
        sig = FloorModulo(rate=1.0, modulus=10, offset=1)
        assert switch_times(sig, 0.0, 3.0) == [1.0, 2.0, 3.0]

    def test_half_open_semantics(self):
        sig = FloorModulo(rate=1.0, modulus=2)
        assert switch_times(sig, 1.0, 2.0) == [2.0]  # excludes t_a, includes t_b

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            switch_times(FloorModulo(rate=1.0, modulus=2), 2.0, 1.0)

    def test_breakpoints(self):
        sig = Breakpoints(times=(1.0, 2.5, 4.0), indices=(0, 1, 2, 0))
        assert switch_times(sig, 1.0, 4.0) == [2.5, 4.0]

    @settings(max_examples=80)
    @given(
        st.sampled_from([0.5, 1.0, 2.0, 4.0, 5.0]),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_concatenation(self, rate, modulus, t_a, gap1, gap2):
        sig = FloorModulo(rate=rate, modulus=modulus)
        t_b, t_c = t_a + gap1, t_a + gap1 + gap2
        joined = switch_times(sig, t_a, t_b) + switch_times(sig, t_b, t_c)
        assert joined == switch_times(sig, t_a, t_c)

    @settings(max_examples=40)
    @given(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.integers(min_value=2, max_value=5))
    def test_right_continuity_at_switches(self, rate, modulus):
        sig = FloorModulo(rate=rate, modulus=modulus)
        half = sig.tau_min / 2
        for s in switch_times(sig, 0.0, 6.0):
            assert active_index(sig, s) == active_index(sig, s + half)
            if s - half >= 0:
                assert active_index(sig, s - half) != active_index(sig, s)


@st.composite
def aligned_signals(draw):
    """A FloorModulo or Breakpoints signal that starts at t0 > 0 and switches
    only on the steps of the dt it comes with."""
    dt = draw(st.sampled_from([1e-4, 1e-3, 0.01, 0.05, 0.1]))
    t0 = draw(st.integers(1, 10**4)) * dt
    if draw(st.booleans()):
        spt = draw(st.integers(1, 60))
        sig = FloorModulo(
            rate=1.0 / (spt * dt),
            modulus=draw(st.integers(1, 4)),
            offset=draw(st.integers(0, 2)),
            t0=t0,
        )
    else:
        steps = np.cumsum(draw(st.lists(st.integers(1, 80), max_size=8))).tolist()
        indices = [draw(st.integers(0, 3))]
        for _ in steps:
            indices.append(draw(st.integers(0, 3).filter(lambda i: i != indices[-1])))
        sig = Breakpoints(times=tuple(t0 + s * dt for s in steps), indices=indices, t0=t0)
    return sig, dt


class TestStepSchedule:
    @settings(max_examples=300, deadline=None)
    @given(aligned_signals())
    def test_agrees_with_active_index_at_mid_step(self, signal_and_dt):
        sig, dt = signal_and_dt
        schedule = step_schedule(sig, dt)
        steps = 500
        members = [active_index(sig, sig.t0 + (k + 0.5) * dt) for k in range(steps + 1)]
        # first step after k whose member differs, or steps + 1 if none does
        next_switch = [steps + 1] * (steps + 1)
        for k in range(steps - 1, -1, -1):
            next_switch[k] = k + 1 if members[k + 1] != members[k] else next_switch[k + 1]
        for k in range(steps):
            member, change = schedule(k)
            assert member == members[k]
            # the member holds up to change, which is a switch unless the
            # signal has a single member
            held = min(change, steps + 1)
            assert k < held <= next_switch[k]
            if held < next_switch[k]:
                assert isinstance(sig, FloorModulo) and sig.modulus == 1

    def test_switches_off_the_steps_rejected(self):
        with pytest.raises(ValueError, match=r"^switching period 1/rate = 0.25 is not a whole"):
            step_schedule(FloorModulo(rate=4.0, modulus=2), 0.1)
        with pytest.raises(ValueError, match=r"^signal t0 = 0.15 is not on a step boundary"):
            step_schedule(FloorModulo(rate=1.0, modulus=2, t0=0.15), 0.1)
        with pytest.raises(ValueError, match=r"^breakpoint 0.5005 is not on a step boundary"):
            step_schedule(Breakpoints(times=(0.25, 0.5005), indices=(0, 1, 0), t0=0.1), 1e-3)


class TestDynamicNetwork:
    def test_family_must_share_n(self):
        with pytest.raises(ValueError):
            DynamicNetwork(
                [circulant_graph(4, {1}), circulant_graph(5, {1})],
                FloorModulo(rate=1.0, modulus=2),
            )

    def test_signal_range_must_fit_family(self):
        g = circulant_graph(4, {1})
        with pytest.raises(ValueError):
            DynamicNetwork([g, g], FloorModulo(rate=1.0, modulus=3))
        with pytest.raises(ValueError):
            DynamicNetwork([g, g], FloorModulo(rate=1.0, modulus=2, offset=1))
        with pytest.raises(ValueError):
            DynamicNetwork([g], Breakpoints(times=(1.0,), indices=(0, 1)))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            DynamicNetwork([], FloorModulo(rate=1.0, modulus=1))

    def test_json_round_trip(self):
        net = example2_network()
        again = network_from_json(network_to_json(net))
        assert again.graphs == net.graphs
        assert again.signal == net.signal

    def test_json_round_trip_breakpoints(self):
        g = circulant_graph(4, {1})
        net = DynamicNetwork(
            [g, g], Breakpoints(times=(0.5, 1.0), indices=(0, 1, 0))
        )
        again = network_from_json(network_to_json(net))
        assert again.signal == net.signal


class TestJointConnectivity:
    def test_unit_dwell_cycle_needs_ten(self):
        ok, witness = is_tau_jointly_connected(example2_network(), 10.0, 30.0)
        assert ok and witness is None

    def test_five_second_window_fails(self):
        ok, witness = is_tau_jointly_connected(example2_network(), 5.0, 30.0)
        assert not ok
        assert witness == 0.0  # the very first window already lacks edges

    def test_connected_members_pass_any_tau(self):
        g0, g1 = circulant_graph(6, {1}), circulant_graph(6, {2, 3})
        net = DynamicNetwork([g0, g1], FloorModulo(rate=2.0, modulus=2))
        ok, _ = is_tau_jointly_connected(net, 0.5, 5.0)
        assert ok

    def test_fast_switching_needs_tenth_of_the_time(self):
        ok, _ = is_tau_jointly_connected(example2_network(rate=100.0), 0.1, 1.0)
        assert ok

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([1.0, 2.0, 4.0]),
        st.sampled_from([0.75, 1.0, 1.5, 2.25]),
        st.sampled_from([1.0, 2.0, 3.5]),
    )
    def test_window_anchoring_matches_dense_grid(self, seed, rate, tau, extra):
        # unions change only at switch instants, so checking windows anchored
        # at switch times must agree with a dense sweep of window starts;
        # dyadic rates/times keep every float comparison exact
        rng = np.random.default_rng(seed)
        family = [random_undirected(rng, 5, p_edge=0.3) for _ in range(3)]
        net = DynamicNetwork(family, FloorModulo(rate=rate, modulus=3))
        horizon = tau + extra
        got, _ = is_tau_jointly_connected(net, tau, horizon)

        step = net.signal.tau_min / 4
        expect = True
        t_bar = 0.0
        while t_bar <= horizon - tau:
            sample = np.arange(t_bar, t_bar + tau + step / 8, step / 2)
            idxs = {active_index(net.signal, float(t)) for t in sample}
            if not is_connected(union_graph([family[i] for i in idxs])):
                expect = False
                break
            t_bar += step
        assert got == expect
