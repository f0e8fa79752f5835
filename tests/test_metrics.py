import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensus_lab.metrics import (
    MetricSeries,
    consensus_value,
    isce_accumulate,
    lyapunov_v,
    settling_time,
    spread_and_peak,
)

EX1_X0 = [0.0, -5.0, 10.0, 3.0, -8.0, -2.0, 5.0, 3.0, -1.0, 4.0]
EX2_X0 = [0.0, 5.0, 3.0, 2.0, 4.0, -9.0, 10.0, 5.0, -5.0, -3.0]


class TestLyapunovV:
    def test_ten_node_spread(self):
        assert lyapunov_v(EX1_X0) == 18.0

    def test_other_ten_node_spread(self):
        assert lyapunov_v(EX2_X0) == 19.0

    def test_constant_vector(self):
        assert lyapunov_v(np.full(7, -2.5)) == 0.0

    def test_single_node(self):
        assert lyapunov_v([4.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_v([])

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    def test_nonnegative_and_zero_iff_consensus(self, xs):
        v = lyapunov_v(xs)
        assert v >= 0.0
        assert (v == 0.0) == (len(set(xs)) == 1)


    @settings(max_examples=100)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=n, max_size=n),
                min_size=1,
                max_size=8,
            )
        )
    )
    def test_block_gives_the_spread_of_each_row(self, rows):
        v = lyapunov_v(np.array(rows))
        assert v.shape == (len(rows),)
        assert v.tolist() == [lyapunov_v(r) for r in rows]

    def test_block_propagates_nan(self):
        v = lyapunov_v([[1.0, 2.0], [np.nan, 0.0]])
        assert v[0] == 1.0 and np.isnan(v[1])


class TestSpreadAndPeak:
    @settings(max_examples=100)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_spread_and_peak_of_each_row(self, rows):
        V, peak = spread_and_peak(np.array(rows))
        assert V.shape == peak.shape == (len(rows),)
        for r, row in enumerate(rows):
            assert V[r] == lyapunov_v(row)
            assert peak[r] == max(abs(x) for x in row)

    def test_propagates_nan_and_inf(self):
        V, peak = spread_and_peak(np.array([[1.0, np.nan], [-np.inf, 2.0]]))
        assert np.isnan(V[0]) and np.isnan(peak[0])
        assert V[1] == np.inf and peak[1] == np.inf


# controls and accumulators with signed zeros: -0.0 + 0.0 must give the
# loop's bits
_EFFORT_FLOATS = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-10, 10))


class TestIsce:
    def test_constant_control_closed_form(self):
        # E_i = (integral of 4 over [0,1])^(1/2) = 2
        dt = 1e-4
        s = np.zeros(1)
        for _ in range(10000):
            s = isce_accumulate(s, np.array([2.0]), dt)
        assert abs(np.sqrt(s[0]) - 2.0) < 1e-3

    def test_zero_control(self):
        s = np.zeros(3)
        for _ in range(50):
            s = isce_accumulate(s, np.zeros(3), 0.01)
        assert not s.any()

    def test_additivity_over_nodes(self):
        dt = 1e-3
        s = np.zeros(2)
        for _ in range(1000):
            s = isce_accumulate(s, np.ones(2), dt)
        e_tot = np.sqrt(s).sum()
        assert abs(e_tot - 2.0) < 1e-3

    def test_dt_must_be_positive(self):
        for dt in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"positive and finite, got {dt}"):
                isce_accumulate(np.zeros(2), np.ones(2), dt)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
            min_size=1,
            max_size=30,
        )
    )
    def test_accumulator_nondecreasing(self, us):
        s = np.zeros(3)
        prev_e = np.zeros(3)
        for u in us:
            s = isce_accumulate(s, np.array(u), 0.01)
            e = np.sqrt(s)
            assert np.all(e >= prev_e)
            prev_e = e


    @settings(max_examples=100)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n),
                min_size=1,
                max_size=20,
            )
        ),
        st.floats(min_value=1e-5, max_value=0.1),
    )
    def test_block_rows_are_the_one_step_updates(self, us, dt):
        n = len(us[0])
        s0 = np.linspace(0.0, 3.0, n)
        block = isce_accumulate(s0, np.array(us), dt)
        s = s0
        for u, row in zip(us, block):
            s = isce_accumulate(s, np.array(u), dt)
            assert row.tobytes() == s.tobytes()
        assert s0.tobytes() == np.linspace(0.0, 3.0, n).tobytes()

    def test_block_in_place(self):
        u = np.array([[1.0, -2.0], [3.0, 0.5], [0.0, 1.0]])
        want = isce_accumulate(np.ones(2), u.copy(), 0.01)
        got = isce_accumulate(np.ones(2), u, 0.01, out=u)
        assert got is u
        assert np.array_equal(u, want)

    @settings(max_examples=200)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(_EFFORT_FLOATS, min_size=n, max_size=n),
                st.lists(
                    st.lists(_EFFORT_FLOATS, min_size=n, max_size=n),
                    min_size=0,
                    max_size=20,
                ),
            )
        ),
        st.floats(min_value=1e-5, max_value=0.1),
    )
    def test_block_matches_row_loop(self, case, dt):
        # blocks taller than wide accumulate in one call, the others row by
        # row; both against a row loop, empty and one-row blocks included
        s0, us = case
        s0 = np.array(s0)
        u = np.array(us).reshape(len(us), len(s0))
        want = _row_loop_accumulate(s0, u.copy(), dt)
        assert isce_accumulate(s0, u.copy(), dt).tobytes() == want.tobytes()
        got = isce_accumulate(s0, u, dt, out=u)
        assert got is u and u.tobytes() == want.tobytes()


def _row_loop_accumulate(s_accum, u, dt):
    """isce_accumulate's block form as a loop over the rows."""
    s = u * u * dt
    prev = s_accum
    for row in s:
        prev = np.add(prev, row, out=row)
    return s


def _series(times, V):
    times = np.asarray(times, dtype=float)
    V = np.asarray(V, dtype=float)
    return MetricSeries(times=times, V=V, E_tot=np.zeros_like(times), E_i=None)


class TestSettlingTime:
    def test_last_up_crossing(self):
        s = _series([0, 1, 2, 3, 4, 5], [3, 1, 0.04, 0.06, 0.01, 0.005])
        assert settling_time(s, 0.05) == 4.0

    def test_never_below(self):
        s = _series([0, 1, 2], [3, 2, 1])
        assert settling_time(s, 0.05) is None

    def test_below_from_start(self):
        s = _series([0.5, 1, 2], [0.01, 0.02, 0.001])
        assert settling_time(s, 0.05) == 0.5

    def test_last_sample_above(self):
        s = _series([0, 1, 2, 3], [3, 0.01, 0.02, 0.06])
        assert settling_time(s, 0.05) is None

    def test_epsilon_positive(self):
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"positive and finite, got {epsilon}"):
                settling_time(_series([0], [1]), epsilon)


class TestConsensusValue:
    def test_settled_mean(self):
        s = _series([0, 1, 2], [3, 0.2, 0.01])
        assert consensus_value(s, [1.0, 1.02, 0.98], epsilon=0.05) == pytest.approx(1.0)

    def test_not_settled_rejected(self):
        s = _series([0, 1, 2], [3, 2, 1])
        with pytest.raises(ValueError):
            consensus_value(s, [1.0, 2.0], epsilon=0.05)
