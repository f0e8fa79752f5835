import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from consensus_lab import switching
from consensus_lab.graphs import WeightedDigraph, circulant_graph, is_connected, union_graph
from consensus_lab.switching import (
    Breakpoints,
    DynamicNetwork,
    FloorModulo,
    active_index,
    dwells,
    is_tau_jointly_connected,
    network_from_json,
    network_to_json,
    step_schedule,
)

from gen import random_undirected


def example2_network(rate=1.0):
    """Ten single-edge members on 10 vertices, cycled one per dwell."""
    family = [
        WeightedDigraph.undirected(10, [(b, (b + 1) % 10)]) for b in range(10)
    ]
    return DynamicNetwork(family, FloorModulo(rate=rate, modulus=10))


def ring_and_pairs(signal):
    """Member 0 is a 4-ring, member 1 only the edges {0,1} and {2,3}."""
    ring = circulant_graph(4, {1})
    pairs = WeightedDigraph.undirected(4, [(0, 1), (2, 3)])
    return DynamicNetwork([ring, pairs], signal)


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
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"rate must be positive and finite, got {bad}"):
                FloorModulo(rate=bad, modulus=2)
        with pytest.raises(ValueError):
            FloorModulo(rate=1.0, modulus=0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"t0 must be finite, got {bad}"):
                FloorModulo(1.0, 2, t0=bad)


class TestBreakpoints:
    def test_right_continuous_intervals(self):
        sig = Breakpoints(times=(1.0, 2.5), indices=(0, 1, 0))
        assert active_index(sig, 0.0) == 0
        assert active_index(sig, 1.0) == 1
        assert active_index(sig, 2.4) == 1
        assert active_index(sig, 2.5) == 0

    @pytest.mark.parametrize(
        "times, t0, message",
        [
            ((math.nan,), 0.0, "switch time must be finite, got nan"),
            ((1.0, math.inf), 0.0, "switch time must be finite, got inf"),
            ((-math.inf, 1.0), -5.0, "switch time must be finite, got -inf"),
            ((1.0,), math.nan, "t0 must be finite, got nan"),
            ((1.0,), -math.inf, "t0 must be finite, got -inf"),
        ],
    )
    def test_non_finite_times(self, times, t0, message):
        indices = tuple(i % 2 for i in range(len(times) + 1))
        with pytest.raises(ValueError, match=message):
            Breakpoints(times=times, indices=indices, t0=t0)

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


class TestDwells:
    def test_benchmark_signal_unit_interval(self):
        walk = list(islice(dwells(FloorModulo(rate=5.0, modulus=2)), 6))
        assert walk == [(0.0, 0), (0.2, 1), (0.4, 0), (0.6, 1), (0.8, 0), (1.0, 1)]

    def test_unit_dwell(self):
        sig = FloorModulo(rate=1.0, modulus=10, offset=1)
        assert list(islice(dwells(sig), 4)) == [(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)]

    def test_starts_from_the_dwell_active_at_t0(self):
        sig = FloorModulo(rate=1.0, modulus=10, offset=1, t0=2.5)
        assert list(islice(dwells(sig), 3)) == [(2.5, 3), (3.0, 4), (4.0, 5)]
        # floor(1.9 * (1 / 1.9)) is 0, but t0 is where dwell 1 starts
        sig = FloorModulo(rate=1.9, modulus=2, t0=1 / 1.9)
        assert list(islice(dwells(sig), 2)) == [(1 / 1.9, 1), (2 / 1.9, 0)]

    def test_breakpoints(self):
        sig = Breakpoints(times=(1.0, 2.5, 4.0), indices=(0, 1, 2, 0), t0=0.5)
        assert list(dwells(sig)) == [(0.5, 0), (1.0, 1), (2.5, 2), (4.0, 0)]

    @settings(max_examples=40)
    @given(
        st.sampled_from([0.5, 0.7, 1.0, 1.9, 2.0, 4.0, 100.0]),
        st.integers(min_value=2, max_value=5),
        st.sampled_from([0.0, 0.3, 1.25]),
    )
    def test_right_continuity_at_switches(self, rate, modulus, t0):
        # each dwell's member holds just after its start and differs from
        # the member of the dwell before, which holds just before it
        sig = FloorModulo(rate=rate, modulus=modulus, t0=t0)
        half = sig.tau_min / 2
        walk = list(islice(dwells(sig), 12))
        for (prev, before), (start, member) in zip(walk, walk[1:]):
            assert active_index(sig, start + half) == member
            assert active_index(sig, (prev + start) / 2) == before != member


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

    @settings(max_examples=300, deadline=None)
    @given(aligned_signals())
    def test_dwells_follow_the_schedule(self, signal_and_dt):
        # the verifier walks the same members as the simulator: dwell i of
        # the walk is the schedule's stretch i, which starts at t0 + dt k
        sig, dt = signal_and_dt
        schedule = step_schedule(sig, dt)
        walk = list(islice(dwells(sig), 12))
        k = 0
        for start, member in walk:
            assert start == pytest.approx(sig.t0 + dt * k, rel=1e-12)
            member_k, k = schedule(k)
            assert member == member_k
        # a walk that ends early ends with the schedule's last stretch
        assert len(walk) == 12 or k == math.inf

    def test_switches_off_the_steps_rejected(self):
        with pytest.raises(ValueError, match=r"^switching period 1/rate = 0.25 is not a whole"):
            step_schedule(FloorModulo(rate=4.0, modulus=2), 0.1)
        with pytest.raises(ValueError, match=r"^signal t0 = 0.15 is not on a step boundary"):
            step_schedule(FloorModulo(rate=1.0, modulus=2, t0=0.15), 0.1)
        with pytest.raises(ValueError, match=r"^breakpoint 0.5005 is not on a step boundary"):
            step_schedule(Breakpoints(times=(0.25, 0.5005), indices=(0, 1, 0), t0=0.1), 1e-3)


    def test_breakpoint_far_from_t0_on_the_steps(self):
        # 10000.3 s is 100002.99999999999 steps of 0.1 s, and step 100003
        # falls at 10000.300000000001 s: on the grid to within rounding
        schedule = step_schedule(Breakpoints(times=(10000.3,), indices=(0, 1)), 0.1)
        assert schedule(0) == schedule(100002) == (0, 100003)
        assert schedule(100003) == (1, math.inf)


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

    @pytest.mark.parametrize(
        "tau, horizon, message",
        [
            (math.nan, 30.0, "tau must be positive and finite, got nan"),
            (0.0, 30.0, "tau must be positive and finite, got 0.0"),
            (10.0, math.nan, "horizon must be finite and at least tau = 10.0, got nan"),
            (10.0, math.inf, "horizon must be finite and at least tau = 10.0, got inf"),
            (10.0, 5.0, "horizon must be finite and at least tau = 10.0, got 5.0"),
        ],
    )
    def test_window_bounds_checked(self, tau, horizon, message):
        with pytest.raises(ValueError, match=message):
            is_tau_jointly_connected(example2_network(), tau, horizon)

    def test_dwell_starting_at_the_window_end_is_inside(self):
        # each member alone is disconnected; the window [t_bar, t_bar + 1]
        # also holds the dwell that starts at its end
        family = [WeightedDigraph.undirected(3, [(0, 1)]), WeightedDigraph.undirected(3, [(1, 2)])]
        net = DynamicNetwork(family, FloorModulo(rate=1.0, modulus=2))
        assert is_tau_jointly_connected(net, 1.0, 3.0) == (True, None)
        assert is_tau_jointly_connected(net, 0.999, 3.0) == (False, 0.0)

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_anchor_equal_to_t0_is_not_repeated(self, k):
        # t0 is the start of dwell k, where floor(rate * t0) falls one
        # short; the window at t0 holds dwell k alone, once
        sig = FloorModulo(rate=1.9, modulus=2, t0=k / 1.9)
        (first, _), (second, _) = islice(dwells(sig), 2)
        assert first == sig.t0 < second
        got = is_tau_jointly_connected(ring_and_pairs(sig), 0.3, 0.3)
        assert got == ((True, None) if k % 2 == 0 else (False, sig.t0))

    def test_modulus_one(self):
        connected = FloorModulo(rate=3.0, modulus=1, t0=0.2)
        assert is_tau_jointly_connected(ring_and_pairs(connected), 0.5, 5.0) == (True, None)
        disconnected = FloorModulo(rate=3.0, modulus=1, offset=1, t0=0.2)
        assert is_tau_jointly_connected(ring_and_pairs(disconnected), 0.5, 5.0) == (False, 0.2)

    def test_modulus_one_walks_no_dwells(self, monkeypatch):
        # a lone member never changes, so its verdict needs no walk over the
        # rate * horizon dwells
        def walk(sig):
            raise AssertionError("walked the dwells of a one-member signal")

        monkeypatch.setattr(switching, "dwells", walk)
        connected = FloorModulo(rate=1e4, modulus=1)
        assert is_tau_jointly_connected(ring_and_pairs(connected), 100.0, 300.0) == (True, None)
        disconnected = FloorModulo(rate=1e4, modulus=1, offset=1, t0=0.2)
        got = is_tau_jointly_connected(ring_and_pairs(disconnected), 100.0, 300.0)
        assert got == (False, 0.2)

    @pytest.mark.parametrize(
        "t0, tau, horizon, expected",
        [
            (0.0, 1.5, 3.0, (False, 0.0)),
            # [0, 2.5] holds the dwell from 2.5, [1, 3.5] lacks member 0
            (0.0, 2.5, 4.0, (False, 1.0)),
            # [1, 4] holds the dwell from 4 on
            (0.0, 3.0, 4.0, (True, None)),
            (0.0, 3.0, 6.0, (False, 2.5)),
            (0.5, 2.0, 2.5, (False, 1.0)),
            # anchors beyond the last breakpoint: none
            (0.0, 3.0, 4.5, (True, None)),
        ],
    )
    def test_breakpoints(self, t0, tau, horizon, expected):
        # the three members are the edges of a path; a window needs them all
        family = [WeightedDigraph.undirected(4, [(b, b + 1)]) for b in range(3)]
        sig = Breakpoints(times=(1.0, 2.5, 4.0), indices=(0, 1, 2, 0), t0=t0)
        assert is_tau_jointly_connected(DynamicNetwork(family, sig), tau, horizon) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.7, 1.0, 1.9, 2.0, 4.0, 100.0]),
        st.sampled_from([0.75, 1.0, 1.5, 2.25]),
        st.sampled_from([1.0, 2.0, 3.5]),
        st.sampled_from([0.0, 0.3, 1.25]),
    )
    def test_window_anchoring_matches_dense_grid(self, seed, rate, tau, extra, t0):
        # moving a window's start within a dwell only adds dwells at its
        # end, so the anchored check must agree with a dense sweep of window
        # starts. The sweep runs in exact rational arithmetic over t0, the
        # last window start and 15 points inside each dwell, and takes each
        # window's members from its dwell numbers, so no float floor at a
        # switch instant decides it. Every rate * tau here is an integer or
        # at least 1/16 short of one, so the point 1/16 into a dwell sees
        # the same window as its start
        rng = np.random.default_rng(seed)
        family = [random_undirected(rng, 5, p_edge=0.3) for _ in range(3)]
        net = DynamicNetwork(family, FloorModulo(rate=rate, modulus=3, t0=t0))
        horizon = tau + extra
        got, _ = is_tau_jointly_connected(net, tau, horizon)

        r, first, last = Fraction(rate), Fraction(t0), Fraction(t0 + horizon - tau)
        inside = [
            (d + Fraction(j, 16)) / r
            for d in range(math.floor(r * first), math.ceil(r * last))
            for j in range(1, 16)
        ]

        def connected(t_bar):
            held = range(math.floor(r * t_bar), math.floor(r * (t_bar + Fraction(tau))) + 1)
            # any three dwells in a row hold every member
            return is_connected(union_graph([family[d % 3] for d in held[:3]]))

        assert got == all(connected(t) for t in [first, *inside, last] if first <= t <= last)
