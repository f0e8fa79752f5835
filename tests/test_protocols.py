import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from consensus_lab.graphs import WeightedDigraph, circulant_graph, laplacian
from consensus_lab.protocols import (
    Direction,
    FixedTime,
    Linear,
    Power,
    Protocol,
    Sign,
    consensus_error,
    control,
    eval_f,
    homogeneity_degree_estimate,
    limit_function,
    protocol_from_json,
    protocol_to_json,
)

from gen import ANY_WEIGHTS, digraphs

X_SAMPLES = (0.3, 1.0, 2.7, -1.3, -0.4)
LAM_SAMPLES = (0.25, 0.5, 2.0, 4.0, 10.0)
ALL_FAMILIES = (Linear(1.0), Sign(2.0), Power(1.0, 0.5), FixedTime(1.0, 1.0, 0.5, 1.5))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

node_functions = st.one_of(
    st.builds(Linear, k=st.sampled_from([0.5, 1.0, 3.0])),
    st.builds(Sign, k=st.sampled_from([0.5, 1.0, 3.0])),
    st.builds(
        Power,
        k=st.sampled_from([0.5, 1.0, 3.0]),
        alpha=st.sampled_from([0.1, 0.5, 0.9]),
    ),
    st.builds(
        FixedTime,
        k1=st.sampled_from([0.5, 2.0]),
        k2=st.sampled_from([1.0, 3.0]),
        p=st.sampled_from([0.25, 0.5]),
        q=st.sampled_from([1.5, 2.0]),
    ),
)


class TestEvalF:
    def test_power_sqrt(self):
        assert eval_f(Power(k=1.0, alpha=0.5), 4.0) == 2.0

    def test_sign_zero_is_zero(self):
        assert eval_f(Sign(k=3.0), 0.0) == 0.0

    def test_fixed_time_both_terms(self):
        f = FixedTime(k1=1.0, k2=1.0, p=0.5, q=1.5)
        assert eval_f(f, -4.0) == -(2.0 + 8.0)

    def test_linear(self):
        assert eval_f(Linear(k=2.0), 3.0) == 6.0

    def test_zero_for_every_variant(self):
        fs = [Linear(1.0), Sign(1.0), Power(1.0, 0.5), FixedTime(1.0, 1.0, 0.5, 1.5)]
        for f in fs:
            assert eval_f(f, 0.0) == 0.0

    def test_vectorized(self):
        out = eval_f(Power(k=1.0, alpha=0.5), np.array([4.0, -9.0, 0.0]))
        assert out.tolist() == [2.0, -3.0, 0.0]

    @settings(max_examples=80)
    @given(node_functions, st.floats(min_value=-50, max_value=50))
    def test_odd_symmetry(self, f, x):
        assert eval_f(f, -x) == -eval_f(f, x)

    @settings(max_examples=40)
    @given(node_functions, st.floats(min_value=0.01, max_value=20), st.floats(min_value=0.01, max_value=5))
    def test_monotone_on_positive_axis(self, f, x, dx):
        lo, hi = eval_f(f, x), eval_f(f, x + dx)
        if isinstance(f, Sign):
            assert lo == hi == f.k
        else:
            assert lo < hi


class TestValidation:
    def test_gains_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                Linear(k=bad)
            with pytest.raises(ValueError):
                Sign(k=bad)
            with pytest.raises(ValueError):
                Power(k=bad, alpha=0.5)
            with pytest.raises(ValueError):
                FixedTime(k1=bad, k2=1.0, p=0.5, q=1.5)

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            Power(k=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            Power(k=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            Power(k=1.0, alpha=-0.5)
        # exponents above one are legal carriers for infinity-limit forms
        Power(k=1.0, alpha=1.5)

    def test_fixed_time_exponent_ranges(self):
        with pytest.raises(ValueError):
            FixedTime(k1=1.0, k2=1.0, p=1.0, q=1.5)
        with pytest.raises(ValueError):
            FixedTime(k1=1.0, k2=1.0, p=0.5, q=1.0)


class TestConsensusError:
    def test_two_node(self):
        g = WeightedDigraph.undirected(2, [(0, 1)])
        assert consensus_error(g, [1.0, 0.0]).tolist() == [-1.0, 1.0]

    @settings(max_examples=100)
    @given(digraphs(weights=ANY_WEIGHTS), finite_floats)
    @example(circulant_graph(5, {1, 2}), 3.5)
    def test_consensus_kernel(self, g, c):
        # edge differences c - c are exactly zero, so no weight or summation
        # order can leave a rounding residue at consensus
        assert not consensus_error(g, np.full(g.n, c)).any()

    def test_c4(self):
        g = circulant_graph(4, {1})
        e = consensus_error(g, [1.0, 0.0, 0.0, 0.0])
        assert e.tolist() == [-2.0, 1.0, 0.0, 1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            consensus_error(circulant_graph(4, {1}), [1.0, 2.0])

    @settings(max_examples=100)
    @given(digraphs(), st.data())
    def test_matrix_equals_componentwise(self, g, data):
        x = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-10, max_value=10),
                    min_size=g.n,
                    max_size=g.n,
                )
            )
        )
        e = consensus_error(g, x)
        by_hand = np.zeros(g.n)
        for i, j, w in g.edges:
            by_hand[j] += w * (x[i] - x[j])
        assert np.max(np.abs(e - by_hand)) <= 1e-12 * max(1.0, np.max(np.abs(by_hand)))


class TestControl:
    def test_linear_directions_coincide(self):
        g = WeightedDigraph(4, [(0, 1, 2.0), (2, 1, 0.5), (3, 0, 1.0), (1, 3, 1.5)])
        x = np.array([1.0, -2.0, 0.5, 3.0])
        k = 1.5
        ua = control(Protocol(Direction.AGGREGATED, Linear(k)), g, x)
        ue = control(Protocol(Direction.PER_EDGE, Linear(k)), g, x)
        expect = -k * (laplacian(g) @ x)
        assert np.allclose(ua, expect, atol=1e-14)
        assert np.allclose(ue, expect, atol=1e-14)

    def test_aggregated_power_two_node(self):
        g = WeightedDigraph.undirected(2, [(0, 1)])
        u = control(Protocol(Direction.AGGREGATED, Power(1.0, 0.5)), g, [1.0, 0.0])
        assert u.tolist() == [-1.0, 1.0]

    @settings(max_examples=100)
    @given(digraphs(weights=ANY_WEIGHTS), finite_floats)
    @example(circulant_graph(6, {1, 2}), -2.5)
    def test_consensus_is_equilibrium(self, g, c):
        # a residue in e would make aggregated Sign output +-k at consensus
        x = np.full(g.n, c)
        for f in ALL_FAMILIES:
            for d in Direction:
                assert not control(Protocol(d, f), g, x).any()

    def test_edgeless_graph_gives_float_zeros(self):
        g = WeightedDigraph(3, [])
        x = [1.0, -2.0, 0.5]
        assert consensus_error(g, x).dtype == float
        for f in ALL_FAMILIES:
            for d in Direction:
                u = control(Protocol(d, f), g, x)
                assert u.dtype == float and not u.any()

    def test_per_edge_sign_ignores_weights(self):
        # the printed per-edge sign rule carries no a_ij factor
        g = WeightedDigraph(2, [(0, 1, 7.5), (1, 0, 7.5)])
        u = control(Protocol(Direction.PER_EDGE, Sign(2.0)), g, [0.0, 1.0])
        assert u.tolist() == [2.0, -2.0]

    def test_per_edge_power_keeps_weights(self):
        g = WeightedDigraph(2, [(0, 1, 3.0), (1, 0, 3.0)])
        u = control(Protocol(Direction.PER_EDGE, Power(1.0, 0.5)), g, [0.0, 4.0])
        assert u.tolist() == [6.0, -6.0]

    @settings(max_examples=60)
    @given(digraphs(), node_functions, st.data())
    def test_translation_invariance(self, g, f, data):
        # dyadic states and shifts keep x + c - (y + c) == x - y exact,
        # so even the sign discontinuity cannot disagree between routes
        x = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.5 * i for i in range(-100, 101)]),
                    min_size=g.n,
                    max_size=g.n,
                )
            )
        )
        c = data.draw(st.sampled_from([-8.0, 0.5, 4.25]))
        for d in Direction:
            p = Protocol(d, f)
            u0 = control(p, g, x)
            u1 = control(p, g, x + c)
            assert np.array_equal(u0, u1)


class TestHomogeneity:
    def test_power_degree(self):
        for alpha in (0.1, 0.5, 0.9):
            for k in (0.5, 1.0, 7.0):
                d, resid = homogeneity_degree_estimate(
                    Power(k, alpha), X_SAMPLES, LAM_SAMPLES
                )
                assert abs(d - (alpha - 1)) < 1e-6
                assert resid < 1e-9

    def test_linear_degree_zero(self):
        d, resid = homogeneity_degree_estimate(Linear(2.0), X_SAMPLES, LAM_SAMPLES)
        assert abs(d) < 1e-6 and resid < 1e-9

    def test_sign_degree_minus_one(self):
        d, resid = homogeneity_degree_estimate(Sign(3.0), X_SAMPLES, LAM_SAMPLES)
        assert abs(d - (-1.0)) < 1e-6 and resid < 1e-9

    def test_fixed_time_not_homogeneous(self):
        f = FixedTime(1.0, 1.0, 0.5, 1.5)
        _, resid = homogeneity_degree_estimate(f, X_SAMPLES, LAM_SAMPLES)
        assert resid > 1e-3

    def test_fixed_time_bilimit_fits(self):
        f = FixedTime(1.0, 1.0, 0.5, 1.5)
        d_lo, _ = homogeneity_degree_estimate(f, X_SAMPLES, (1e-4, 3e-4, 1e-3))
        d_hi, _ = homogeneity_degree_estimate(f, X_SAMPLES, (1e3, 3e3, 1e4))
        assert abs(d_lo - (0.5 - 1)) < 0.2
        assert abs(d_hi - (1.5 - 1)) < 0.2

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            homogeneity_degree_estimate(Linear(1.0), (1.0, 2.0), LAM_SAMPLES)
        with pytest.raises(ValueError):
            homogeneity_degree_estimate(Linear(1.0), X_SAMPLES, (0.5, 1.0, 2.0))
        with pytest.raises(ValueError):
            homogeneity_degree_estimate(Linear(1.0), (0.0, 1.0, 2.0), LAM_SAMPLES)

    def test_degenerate_evaluation_rejected(self):
        # |1e-300|^5 underflows to zero, a degenerate fit point
        with pytest.raises(ValueError):
            homogeneity_degree_estimate(
                Power(1.0, 5.0), (1e-300, 1.0, 2.0), LAM_SAMPLES
            )


class TestLimitFunction:
    def test_fixed_time_zero_end(self):
        f = limit_function(FixedTime(2.0, 3.0, 0.5, 1.5), "zero")
        assert f == Power(2.0, 0.5)

    def test_fixed_time_infinity_end(self):
        f = limit_function(FixedTime(2.0, 3.0, 0.5, 1.5), "infinity")
        assert f == Power(3.0, 1.5)

    def test_homogeneous_variants_unchanged(self):
        for f in (Power(1.0, 0.5), Linear(2.0), Sign(1.0)):
            assert limit_function(f, "zero") == f
            assert limit_function(f, "infinity") == f

    def test_bad_end_rejected(self):
        with pytest.raises(ValueError):
            limit_function(Power(1.0, 0.5), "sideways")


class TestJson:
    def test_round_trips(self):
        ps = [
            Protocol(Direction.AGGREGATED, Power(1.0, 0.5)),
            Protocol(Direction.PER_EDGE, Sign(2.0)),
            Protocol(Direction.AGGREGATED, FixedTime(1.0, 2.0, 0.5, 1.5)),
            Protocol(Direction.PER_EDGE, Linear(0.5)),
        ]
        for p in ps:
            assert protocol_from_json(protocol_to_json(p)) == p

    def test_shape(self):
        obj = protocol_to_json(Protocol(Direction.AGGREGATED, Power(1.0, 0.5)))
        assert obj == {
            "direction": "aggregated",
            "f": {"type": "power", "k": 1.0, "alpha": 0.5},
        }

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            protocol_from_json({"direction": "aggregated", "f": {"type": "cubic"}})

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            protocol_from_json({"direction": "sideways", "f": {"type": "sign", "k": 1.0}})

    def test_table_power_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            protocol_from_json(
                {"direction": "aggregated", "f": {"type": "power", "k": 1.0, "alpha": 1.5}}
            )
