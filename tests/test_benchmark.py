import math
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest

import consensus_lab.benchmark as benchmark_module
from consensus_lab.benchmark import (
    BISECTION_STEPS,
    GAIN_BRACKET,
    HEDGE_LEVELS,
    PATH_LEVELS,
    RETIRED,
    CalibrationError,
    LcgConfig,
    _predict_gain,
    _predicted_path,
    _snap_horizon,
    _sweep_rows,
    benchmark_protocol,
    benchmark_topology,
    calibrate_gain,
    coprime_offset,
    lcg_initial_conditions,
    run_experiment,
)
from consensus_lab.graphs import circulant_graph, is_connected
from consensus_lab.metrics import settling_time
from consensus_lab.protocols import Direction, Power, Protocol
from consensus_lab.simulate import DivergenceError, SimConfig, simulate
from consensus_lab.switching import FloorModulo

from gen import assert_no_child

AGG = Direction.AGGREGATED
PE = Direction.PER_EDGE


class TestLcg:
    def test_first_value(self):
        x = lcg_initial_conditions(LcgConfig(), 2)
        # z1 = (45*1024 + 1) mod 1024 = 1
        assert x[0] == 20.0 * 1 / 1024 - 10.0 == -9.98046875

    def test_second_value(self):
        x = lcg_initial_conditions(LcgConfig(), 2)
        # z2 = (45*1 + 1) mod 1024 = 46
        assert x[1] == 20.0 * 46 / 1024 - 10.0 == -9.1015625

    def test_range(self):
        x = lcg_initial_conditions(LcgConfig(), 500)
        assert np.all(x >= -10.0) and np.all(x < 10.0)

    def test_deterministic(self):
        a = lcg_initial_conditions(LcgConfig(), 100)
        b = lcg_initial_conditions(LcgConfig(), 100)
        assert np.array_equal(a, b)

    def test_seed_not_emitted(self):
        # x from z0 = M would be exactly l - m = 10; the sequence starts at z1
        x = lcg_initial_conditions(LcgConfig(), 1)
        assert x[0] != 10.0

    def test_modulus_positive(self):
        with pytest.raises(ValueError):
            LcgConfig(M=0)


class TestCoprimeOffset:
    def test_known_values(self):
        assert coprime_offset(25) == 12
        assert coprime_offset(10) == 3
        assert coprime_offset(12) == 5
        assert coprime_offset(7) == 3

    def test_rule_matches_brute_force(self):
        for n in range(5, 60):
            h = coprime_offset(n)
            candidates = [c for c in range(1, n // 2 + 1) if math.gcd(c, n) == 1]
            assert h == max(candidates)


class TestTopology:
    def test_members(self):
        net = benchmark_topology(25)
        assert len(net.graphs) == 2
        assert net.graphs[0] == circulant_graph(25, {1})
        assert net.graphs[1] == circulant_graph(25, {1, 12})

    def test_both_connected(self):
        for n in (5, 10, 25, 31):
            net = benchmark_topology(n)
            assert is_connected(net.graphs[0])
            assert is_connected(net.graphs[1])

    def test_signal(self):
        sig = benchmark_topology(10).signal
        assert sig == FloorModulo(rate=5.0, modulus=2)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            benchmark_topology(4)


def _settle_at_gain(k, n=10, dt=1e-3):
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(LcgConfig(), n)
    traj = simulate(
        net,
        Protocol(AGG, Power(k, 0.5)),
        x0,
        SimConfig(t_end=20.0, dt=dt, stop_epsilon=0.05, record_stride=10**9),
    )
    return settling_time(traj.metrics, 0.05)


def _reference_calibration(
    family, direction, n, target_v, target_t, dt, steps=BISECTION_STEPS, levels=None, mids=None
):
    """Geometric pre-scan, then bisection, every probe a full-horizon simulate.

    levels, if given, receives the number of bisection levels probed, and
    mids every midpoint probed, in order.
    """
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(LcgConfig(), n)
    cfg = SimConfig(
        t_end=_snap_horizon(max(4 * target_t, 20 * dt), dt),
        dt=dt,
        stop_epsilon=target_v,
        record_stride=10**9,
    )
    band = 10 * dt

    def probe(k):
        try:
            traj = simulate(net, benchmark_protocol(family, direction, k), x0, cfg)
        except DivergenceError:
            return None
        return settling_time(traj.metrics, target_v)

    def fast(t):
        return t is not None and t <= target_t

    grid = [GAIN_BRACKET[0]]
    while grid[-1] < GAIN_BRACKET[1]:
        grid.append(min(grid[-1] * 10.0, GAIN_BRACKET[1]))
    times = [probe(g) for g in grid]
    assert not fast(times[0])
    i = next(i for i, t in enumerate(times) if fast(t))
    lo, hi, t_hi = grid[i - 1], grid[i], times[i]
    for level in range(1, steps + 1):
        mid = 0.5 * (lo + hi)
        if mids is not None:
            mids.append(mid)
        t_mid = probe(mid)
        if t_mid is not None and abs(t_mid - target_t) <= band:
            if levels is not None:
                levels.append(level)
            return mid, t_mid
        if fast(t_mid):
            hi, t_hi = mid, t_mid
        else:
            lo = mid
    if levels is not None:
        levels.append(steps)
    if abs(t_hi - target_t) <= band:
        return hi, t_hi
    raise CalibrationError(
        f"bisection exhausted without reaching target_t={target_t} within "
        f"{band}: best T({hi}) = {t_hi}"
    )


def _traced_calibration(family, direction, n, target_t, dt):
    """calibrate_gain's result, and the (path, hedge) probes of each
    bisection round."""
    rounds = []
    real_path = benchmark_module._predicted_path

    def predicted_path(*args):
        path, bracket = real_path(*args)
        hedge = benchmark_module._bisection_midpoints(*bracket, HEDGE_LEVELS)
        rounds.append((path, hedge))
        return path, bracket

    with mock.patch.object(benchmark_module, "_predicted_path", predicted_path):
        got = calibrate_gain(family, direction, n=n, target_v=0.05, target_t=target_t, dt=dt)
    return got, rounds


def _mispredicted_rounds(rounds, mids):
    """Rounds whose path, or the root of their hedge, left the serial
    midpoints mids; each round starts at the first serial midpoint the
    rounds before it did not probe."""
    probed, level, wrong = set(), 0, []
    for r, (path, hedge) in enumerate(rounds):
        predicted = path + hedge[:1]
        serial = mids[level : level + len(predicted)]
        if predicted[: len(serial)] != serial:
            wrong.append(r)
        probed.update(path + hedge)
        while level < len(mids) and mids[level] in probed:
            level += 1
    return wrong


class TestPredictor:
    def test_one_over_k(self):
        # T(k) = 8 / k: the fast end alone predicts the gain that settles at
        # target_t
        assert _predict_gain(10.0, 0.8, 1.0) == 8.0
        assert _predict_gain(10.0, 0.8, 2.0) == 4.0

    def test_probe_settled_at_t0(self):
        # T(hi) = 0.0: every midpoint is predicted fast
        k_hat = _predict_gain(10.0, 0.0, 1.0)
        assert k_hat == 0.0
        path, bracket = _predicted_path(1.0, 10.0, k_hat, PATH_LEVELS)
        assert path == [5.5, 3.25, 2.125, 1.5625] and bracket == (1.0, 1.5625)

    def test_nan_prediction_steps_to_slow_halves(self):
        path, bracket = _predicted_path(0.0, 16.0, math.nan, 3)
        assert path == [8.0, 12.0, 14.0] and bracket == (14.0, 16.0)


class TestCalibration:
    def test_larger_gain_settles_sooner(self):
        times = [_settle_at_gain(k) for k in (0.5, 1.0, 2.0)]
        assert None not in times
        assert times[0] > times[1] > times[2]

    def test_hits_target(self):
        k, achieved = calibrate_gain(
            "power", AGG, n=10, target_v=0.05, target_t=1.0, dt=1e-3
        )
        assert 1e-3 < k < 1e3
        assert abs(achieved - 1.0) <= 10 * 1e-3
        assert abs(_settle_at_gain(k) - achieved) < 1e-12

    def test_unreachable_target_reports_bracket(self):
        with pytest.raises(CalibrationError) as err:
            calibrate_gain("power", AGG, n=10, target_v=0.05, target_t=1e-3, dt=1e-3)
        msg = str(err.value)
        for g in (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            assert f"{g!r}: " in msg
        # every probe is still far above target_v at t = 0.011 s
        assert repr(RETIRED) in msg and "None" not in msg

    @pytest.mark.parametrize("family", ["power", "fixed_time"])
    @pytest.mark.parametrize("direction", [PE, AGG], ids=["pe", "agg"])
    def test_matches_full_horizon_reference(self, family, direction):
        assert calibrate_gain(
            family, direction, n=10, target_v=0.05, target_t=1.0, dt=1e-3
        ) == _reference_calibration(family, direction, 10, 0.05, 1.0, 1e-3)

    # the serial bisection hits the band at `level`, on the predicted path or
    # on the hedge below it, in a round whose predictions all held, or after
    # a round whose path left the serial one
    @pytest.mark.parametrize(
        "family, direction, target_t, level, where",
        [
            ("power", PE, 1.0, 7, "path"),
            ("power", AGG, 0.5, 6, "hedge"),
            ("fixed_time", PE, 1.5, 5, "hedge"),
            ("fixed_time", PE, 1.0, 6, "after misprediction"),
        ],
        ids=["path", "hedge-power", "hedge-fixed-time", "after-misprediction"],
    )
    def test_band_hit_on_path_hedge_or_after_miss(self, family, direction, target_t, level, where):
        levels, mids = [], []
        want = _reference_calibration(
            family, direction, 10, 0.05, target_t, 1e-3, levels=levels, mids=mids
        )
        assert levels == [level]
        got, rounds = _traced_calibration(family, direction, 10, target_t, 1e-3)
        assert got == want
        path, hedge = rounds[-1]
        mispredicted = _mispredicted_rounds(rounds, mids)
        if where == "after misprediction":
            assert mispredicted and max(mispredicted) < len(rounds) - 1
        else:
            assert not mispredicted
            assert want[0] in (path if where == "path" else hedge)
            assert want[0] not in (hedge if where == "path" else path)

    @pytest.mark.parametrize(
        "predict", [lambda lo: lo, lambda lo: math.nan], ids=["low-end", "nan"]
    )
    @pytest.mark.parametrize(
        "family, direction, target_t",
        [("power", PE, 1.0), ("power", AGG, 2.0), ("fixed_time", PE, 2.0)],
        ids=["power-pe", "power-agg", "fixed-time-pe"],
    )
    def test_wrong_predictions_cost_rounds_not_decisions(
        self, family, direction, target_t, predict
    ):
        want = _reference_calibration(family, direction, 10, 0.05, target_t, 1e-3)
        _, rounds = _traced_calibration(family, direction, 10, target_t, 1e-3)
        real_path = benchmark_module._predicted_path

        def forced_path(lo, hi, k_hat, levels):
            return real_path(lo, hi, predict(lo), levels)

        # the prediction is forced to the bracket's low end, or to NaN
        with mock.patch.object(benchmark_module, "_predicted_path", forced_path):
            got, wrong_rounds = _traced_calibration(family, direction, 10, target_t, 1e-3)
        assert got == want
        assert len(wrong_rounds) > len(rounds)

    @pytest.mark.parametrize("steps", [2, 4])
    def test_exhausted_bisection_message(self, steps):
        # a short bisection cannot reach the band; a round's path and hedge
        # are cut short at the last of the steps levels
        with pytest.raises(CalibrationError) as want:
            _reference_calibration("power", AGG, 10, 0.05, 1.0, 1e-3, steps=steps)
        with mock.patch.object(benchmark_module, "BISECTION_STEPS", steps):
            with pytest.raises(CalibrationError) as got:
                calibrate_gain("power", AGG, n=10, target_v=0.05, target_t=1.0, dt=1e-3)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("bisection exhausted without reaching target_t=1.0")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            calibrate_gain("cubic", AGG, n=10, target_v=0.05, target_t=1.0, dt=1e-3)


def _serial_row(family, direction, k, n, eps, dt, base):
    """One sweep row alone: a fresh simulate at base and at each doubled
    horizon, up to ten times, until it settles.

    Returns (settling time, E_tot, final horizon); raises the failure a
    serial sweep raises for the row.
    """
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(LcgConfig(), n)
    protocol = benchmark_protocol(family, direction, k)
    context = f"benchmark row n={n} direction={direction.value}"
    horizon = base
    for _ in range(11):
        cfg = SimConfig(t_end=horizon, dt=dt, stop_epsilon=eps, record_stride=10**9)
        try:
            traj = simulate(net, protocol, x0, cfg)
        except DivergenceError as exc:
            raise DivergenceError(exc.time, exc.max_abs, context=context) from exc
        t_star = settling_time(traj.metrics, eps)
        if t_star is not None:
            return t_star, float(traj.metrics.E_tot[int(round(t_star / dt))]), horizon
        horizon *= 2
    raise RuntimeError(f"{context} did not settle within {horizon / 2} s")


def _first_serial_failure(family, gains, sizes, eps, dt, base):
    """The exception a serial sweep raises: rows by size, per-edge first."""
    for n in sizes:
        for direction in (PE, AGG):
            try:
                _serial_row(family, direction, gains[direction], n, eps, dt, base)
            except RuntimeError as exc:  # DivergenceError included
                return exc
    return None


class TestSweepRow:
    def test_resumed_row_matches_one_shot(self):
        k, n, eps, dt, base = 1.0, 10, 0.05, 1e-3, 0.125
        t_star, e_tot, horizon = _serial_row("power", AGG, k, n, eps, dt, base)
        assert horizon >= 4 * base
        got = _sweep_rows("power", AGG, k, [n], eps, dt, LcgConfig(), base)
        assert got == [(t_star, e_tot)]

    # with k = 3 the smallest row settles within base and a larger one only
    # after two or more doublings
    @pytest.mark.parametrize(
        "family, direction, base",
        [
            ("power", PE, 1.0),
            ("power", AGG, 1.25),
            ("fixed_time", PE, 0.35),
            ("fixed_time", AGG, 0.35),
        ],
    )
    def test_union_matches_serial_rows(self, family, direction, base):
        k, sizes, eps, dt = 3.0, [7, 10, 12, 25, 40], 0.05, 1e-3
        want = [_serial_row(family, direction, k, n, eps, dt, base) for n in sizes]
        horizons = [h for _, _, h in want]
        assert min(horizons) == base and max(horizons) >= 4 * base
        got = _sweep_rows(family, direction, k, sizes, eps, dt, LcgConfig(), base)
        assert [(t.hex(), e.hex()) for t, e in got] == [
            (t.hex(), e.hex()) for t, e, _ in want
        ]


class TestSweepFailures:
    """run_experiment raises the failure of the first failing row in serial
    order, with the serial message, although each direction runs its rows
    as one union."""

    def _run(self, experiment, gains, sizes, eps, dt, target_t):
        # the calibration is replaced by the given gains
        def calibrate(family, direction, *args, **kwargs):
            return gains[direction], 1.0

        with mock.patch.object(benchmark_module, "calibrate_gain", calibrate):
            run_experiment(experiment, sizes, dt=dt, epsilon=eps, target_t=target_t)

    def test_divergence(self):
        # per-edge, k = 106: n = 25 never settles; aggregated, k = 130: n = 12
        # diverges, so a sweep by direction would raise the per-edge failure
        gains, sizes, eps, dt = {PE: 106.0, AGG: 130.0}, [7, 12, 25, 40], 0.05, 1e-3
        target_t = 0.005
        base = _snap_horizon(max(4 * target_t, 20 * dt), dt)
        per_edge = _sweep_rows("fixed_time", PE, gains[PE], sizes, eps, dt, LcgConfig(), base)
        assert isinstance(per_edge[2], RuntimeError)
        want = _first_serial_failure("fixed_time", gains, sizes, eps, dt, base)
        assert isinstance(want, DivergenceError)
        assert str(want).startswith("benchmark row n=12 direction=aggregated: state diverged")
        with pytest.raises(DivergenceError) as got:
            self._run(2, gains, sizes, eps, dt, target_t)
        assert str(got.value) == str(want)
        assert (got.value.time, got.value.max_abs) == (want.time, want.max_abs)
        assert_no_child()

    def test_per_edge_divergence(self):
        # per-edge, k = 130: the n = 12 row diverges and the n = 25 row never
        # settles; aggregated, k = 60: every row settles. The per-edge rows
        # run in the forked child, so the error comes back pickled
        gains, sizes, eps, dt = {PE: 130.0, AGG: 60.0}, [7, 12, 25, 40], 0.05, 1e-3
        target_t = 0.005
        base = _snap_horizon(max(4 * target_t, 20 * dt), dt)
        want = _first_serial_failure("fixed_time", gains, sizes, eps, dt, base)
        assert str(want).startswith("benchmark row n=12 direction=per_edge: state diverged")
        with pytest.raises(DivergenceError) as got:
            self._run(2, gains, sizes, eps, dt, target_t)
        assert str(got.value) == str(want)
        assert (got.value.time, got.value.max_abs) == (want.time, want.max_abs)
        cause = got.value.__cause__
        assert type(cause) is DivergenceError and str(cause) == str(want.__cause__)
        assert (cause.time, cause.max_abs) == (want.__cause__.time, want.__cause__.max_abs)
        assert_no_child()

    @pytest.mark.parametrize(
        "failing", [(PE,), (AGG,), (PE, AGG)], ids=["per-edge", "aggregated", "both"]
    )
    def test_calibration_failure(self, failing):
        # the per-edge calibration fails in the forked child, the aggregated
        # one in this process; the serial order raises the per-edge one first
        def calibrate(family, direction, *args, **kwargs):
            if direction in failing:
                raise CalibrationError(f"{direction.value} calibration failed")
            return 60.0, 1.0

        with mock.patch.object(benchmark_module, "calibrate_gain", calibrate):
            with pytest.raises(CalibrationError) as got:
                run_experiment(2, [7, 25], dt=1e-3, target_t=0.005)
        assert type(got.value) is CalibrationError
        assert str(got.value) == f"{failing[0].value} calibration failed"
        assert_no_child()

    def test_unsettled_row(self):
        # epsilon below the Euler chatter amplitude: of the rows, only the
        # per-edge one at n = 12 settles, so a sweep by direction would raise
        # the per-edge failure at n = 25
        gains, sizes, eps, dt = {PE: 1.0, AGG: 1.0}, [12, 25], 1e-6, 1e-3
        target_t = 0.005
        base = _snap_horizon(max(4 * target_t, 20 * dt), dt)
        per_edge = _sweep_rows("power", PE, 1.0, sizes, eps, dt, LcgConfig(), base)
        assert isinstance(per_edge[0], tuple) and isinstance(per_edge[1], RuntimeError)
        want = _first_serial_failure("power", gains, sizes, eps, dt, base)
        assert type(want) is RuntimeError
        assert str(want) == "benchmark row n=12 direction=aggregated did not settle within 20.48 s"
        with pytest.raises(RuntimeError) as got:
            self._run(1, gains, sizes, eps, dt, target_t)
        assert type(got.value) is RuntimeError and str(got.value) == str(want)
        assert_no_child()



class TestSideBySide:
    """run_experiment runs the per-edge calibration and rows in a forked
    child beside the aggregated ones."""

    def test_same_outcome_without_fork(self, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: (forks.append(None), fork())[1])
        forked = run_experiment(1, [10, 25], dt=1e-3)
        assert len(forks) == 1
        assert_no_child()
        monkeypatch.delattr(os, "fork")
        rows, meta = run_experiment(1, [10, 25], dt=1e-3)
        assert [(r.n, r.direction) for r in rows] == [
            (n, d) for n in (10, 25) for d in ("per_edge", "aggregated")
        ]
        assert (rows, meta) == forked
        assert len(forks) == 1

    def test_child_killed_when_this_process_raises(self):
        def calibrate(family, direction, *args, **kwargs):
            if direction is PE:
                time.sleep(60)  # only a kill ends the child in time
            raise KeyboardInterrupt

        start = time.monotonic()
        with mock.patch.object(benchmark_module, "calibrate_gain", calibrate):
            with pytest.raises(KeyboardInterrupt):
                run_experiment(1, [25], dt=1e-3)
        assert time.monotonic() - start < 30
        assert_no_child()

    def test_child_that_sends_no_result(self):
        def calibrate(family, direction, *args, **kwargs):
            if direction is PE:
                os.kill(os.getpid(), signal.SIGKILL)
            return 8.0, 1.0

        with mock.patch.object(benchmark_module, "calibrate_gain", calibrate):
            with pytest.raises(ChildProcessError) as got:
                run_experiment(1, [25], dt=1e-3)
        assert type(got.value) is ChildProcessError
        assert str(got.value).endswith(f"sent no result: wait status {signal.SIGKILL}")
        assert_no_child()


class TestRunExperiment:
    def test_anchor_rows(self):
        rows, meta = run_experiment(1, [25], dt=1e-3, epsilon=0.05)
        assert [(r.n, r.direction) for r in rows] == [
            (25, "per_edge"),
            (25, "aggregated"),
        ]
        lam = 2 - 2 * math.cos(2 * math.pi / 25)
        for r in rows:
            assert r.protocol == "power"
            assert abs(r.lambda2 - lam) < 1e-9
            assert abs(r.settling_time - 1.0) <= 0.015
            assert r.e_tot > 0
            assert r.dt == 1e-3 and r.epsilon == 0.05
        assert set(meta["calibration"]) == {"per_edge", "aggregated"}

    def test_sizes_must_anchor(self):
        with pytest.raises(ValueError):
            run_experiment(1, [30], dt=1e-3)

    def test_experiment_id_checked(self):
        with pytest.raises(ValueError):
            run_experiment(3, [25], dt=1e-3)
