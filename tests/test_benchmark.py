import math
import threading
import time
from unittest import mock

import numpy as np
import pytest

import consensus_lab.benchmark as benchmark_module
import consensus_lab.simulate as simulate_module
from consensus_lab.benchmark import (
    BISECTION_STEPS,
    GAIN_BRACKET,
    RETIRED,
    CalibrationError,
    LcgConfig,
    _base_steps,
    _cut_step,
    _sweep_row,
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
    family, direction, n, target_v, target_t, dt, steps=BISECTION_STEPS, retire=True
):
    """The serial calibration, every probe a simulate: a geometric pre-scan
    up to the first gain that settles by target_t, then bisection.

    With retire, a probe still above target_v at the cut step retires, as
    in calibrate_gain, so the pre-scan's report matches too; without it,
    every probe runs the full horizon.
    """
    net = benchmark_topology(n)
    x0 = lcg_initial_conditions(LcgConfig(), n)
    band = 10 * dt
    last = _base_steps(target_t, dt)
    cut = _cut_step(0.0, dt, target_t, band, last) if retire else None

    def spread(k, horizon):
        cfg = SimConfig(t_end=horizon * dt, dt=dt, stop_epsilon=target_v, record_stride=10**9)
        return simulate(net, benchmark_protocol(family, direction, k), x0, cfg).metrics

    def probe(k):
        try:
            if cut is not None and spread(k, cut).V[-1] > target_v:
                return math.inf
            return settling_time(spread(k, last), target_v)
        except DivergenceError:
            return None

    def fast(t):
        return t is not None and t <= target_t

    grid = [GAIN_BRACKET[0]]
    while grid[-1] < GAIN_BRACKET[1]:
        grid.append(min(grid[-1] * 10.0, GAIN_BRACKET[1]))
    scanned = {}
    for g in grid:
        scanned[g] = probe(g)
        if fast(scanned[g]):
            break
    probed = list(scanned.items())
    if not fast(probed[-1][1]):
        report = {g: RETIRED if t == math.inf else t for g, t in probed}
        raise CalibrationError(
            f"no gain in {GAIN_BRACKET} settles within target_t={target_t}; "
            f"scanned {report}"
        )
    if len(probed) == 1:
        raise CalibrationError(
            f"T({grid[0]}) = {probed[0][1]} is already at or below "
            f"target_t={target_t}; no slow endpoint to bracket from"
        )
    (lo, _), (hi, t_hi) = probed[-2:]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        t_mid = probe(mid)
        if t_mid is not None and abs(t_mid - target_t) <= band:
            return mid, t_mid
        if fast(t_mid):
            hi, t_hi = mid, t_mid
        else:
            lo = mid
    if abs(t_hi - target_t) <= band:
        return hi, t_hi
    raise CalibrationError(
        f"bisection exhausted without reaching target_t={target_t} within "
        f"{band}: best T({hi}) = {t_hi}"
    )


def _outcome(calibrate, *args, **kwargs):
    """A calibration's (gain, time), or its CalibrationError's message."""
    try:
        return calibrate(*args, **kwargs)
    except CalibrationError as exc:
        return str(exc)


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
        # retiring a probe at the cut step changes no decision
        assert calibrate_gain(
            family, direction, n=10, target_v=0.05, target_t=1.0, dt=1e-3
        ) == _reference_calibration(family, direction, 10, 0.05, 1.0, 1e-3, retire=False)

    # target_t = 1e-3 retires every probe of the pre-scan; 0.5 and 1.0 are
    # reached by bisection
    @pytest.mark.parametrize("target_t", [1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("n", [10, 25])
    @pytest.mark.parametrize("family", ["power", "fixed_time"])
    @pytest.mark.parametrize("direction", [PE, AGG], ids=["pe", "agg"])
    def test_matches_serial_reference(self, family, direction, n, target_t):
        want = _outcome(_reference_calibration, family, direction, n, 0.05, target_t, 1e-3)
        got = _outcome(
            calibrate_gain, family, direction, n=n, target_v=0.05, target_t=target_t, dt=1e-3
        )
        assert got == want
        assert isinstance(want, str) == (target_t == 1e-3)

    @pytest.mark.parametrize("steps", [2, 4])
    def test_exhausted_bisection_message(self, steps):
        # a short bisection cannot reach the band
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
        got = _sweep_row("power", AGG, k, n, eps, dt, LcgConfig(), round(base / dt))
        assert got == (t_star, e_tot)

    def test_settling_step_read_from_an_earlier_block(self):
        # blocks of at most 64 steps: the row's run ends on its sticky stop,
        # at least 64 steps after its settling step, in a later block
        k, n, eps, dt, base = 1.0, 10, 0.05, 1e-3, 0.125
        t_star, e_tot, horizon = _serial_row("power", AGG, k, n, eps, dt, base)
        cfg = SimConfig(t_end=horizon, dt=dt, stop_epsilon=eps, record_stride=10**9)
        x0 = lcg_initial_conditions(LcgConfig(), n)
        traj = simulate(benchmark_topology(n), benchmark_protocol("power", AGG, k), x0, cfg)
        step, end = round(t_star / dt), len(traj.metrics.times) - 1
        assert end - step >= 64 and e_tot == traj.metrics.E_tot[step]
        with mock.patch.object(simulate_module, "BLOCK_ELEMENTS", 64):
            got = _sweep_row("power", AGG, k, n, eps, dt, LcgConfig(), round(base / dt))
        assert got == (t_star, e_tot)

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
    def test_resumed_rows_match_serial_rows(self, family, direction, base):
        k, sizes, eps, dt = 3.0, [7, 10, 12, 25, 40], 0.05, 1e-3
        want = [_serial_row(family, direction, k, n, eps, dt, base) for n in sizes]
        horizons = [h for _, _, h in want]
        assert min(horizons) == base and max(horizons) >= 4 * base
        got = [
            _sweep_row(family, direction, k, n, eps, dt, LcgConfig(), round(base / dt))
            for n in sizes
        ]
        assert [(t.hex(), e.hex()) for t, e in got] == [
            (t.hex(), e.hex()) for t, e, _ in want
        ]


class TestSweepFailures:
    """run_experiment raises the failure of the first failing row in serial
    order, with the serial message, although the directions run side by
    side."""

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
        base = _base_steps(target_t, dt)
        with pytest.raises(RuntimeError):
            _sweep_row("fixed_time", PE, gains[PE], sizes[2], eps, dt, LcgConfig(), base)
        want = _first_serial_failure("fixed_time", gains, sizes, eps, dt, base * dt)
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
        # run in the worker thread, so the error comes back from it
        gains, sizes, eps, dt = {PE: 130.0, AGG: 60.0}, [7, 12, 25, 40], 0.05, 1e-3
        target_t = 0.005
        want = _first_serial_failure(
            "fixed_time", gains, sizes, eps, dt, _base_steps(target_t, dt) * dt
        )
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
        # the per-edge calibration fails in the worker thread, the aggregated
        # one in this one; the serial order raises the per-edge one first
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
        base = _base_steps(target_t, dt)
        settled = _sweep_row("power", PE, 1.0, sizes[0], eps, dt, LcgConfig(), base)
        assert isinstance(settled, tuple)
        with pytest.raises(RuntimeError):
            _sweep_row("power", PE, 1.0, sizes[1], eps, dt, LcgConfig(), base)
        want = _first_serial_failure("power", gains, sizes, eps, dt, base * dt)
        assert type(want) is RuntimeError
        assert str(want) == "benchmark row n=12 direction=aggregated did not settle within 20.48 s"
        with pytest.raises(RuntimeError) as got:
            self._run(1, gains, sizes, eps, dt, target_t)
        assert type(got.value) is RuntimeError and str(got.value) == str(want)
        assert_no_child()

    def test_direction_stops_at_its_first_failing_row(self):
        # test_unsettled_row's sweep: the aggregated row at n = 12 fails, so
        # its n = 25 row never runs; the per-edge rows run to n = 25
        gains, sizes, eps, dt = {PE: 1.0, AGG: 1.0}, [12, 25], 1e-6, 1e-3
        calls = []
        sweep_row = benchmark_module._sweep_row

        def counted(family, direction, k, n, *args):
            calls.append((direction, n))
            return sweep_row(family, direction, k, n, *args)

        with mock.patch.object(benchmark_module, "_sweep_row", counted):
            with pytest.raises(RuntimeError, match="n=12 direction=aggregated"):
                self._run(1, gains, sizes, eps, dt, 0.005)
        assert [n for d, n in calls if d is AGG] == [12]
        assert [n for d, n in calls if d is PE] == [12, 25]

    def test_other_failure_is_ordered_by_its_row(self):
        # a failure that is not a row's own, such as a record too large to
        # allocate, raises in serial order too: the aggregated one at the
        # first size before the per-edge one at the last
        sizes = [7, 25, 40]

        def row(family, direction, k, n, *args):
            if (direction, n) in ((PE, sizes[-1]), (AGG, sizes[0])):
                raise ValueError(f"{direction.value} row n={n} failed")
            return 1.0, 1.0

        with mock.patch.object(benchmark_module, "_sweep_row", row):
            with pytest.raises(ValueError) as got:
                self._run(1, {PE: 1.0, AGG: 1.0}, sizes, 0.05, 1e-3, 0.005)
        assert str(got.value) == "aggregated row n=7 failed"
        assert_no_child()



class TestSideBySide:
    """run_experiment runs the per-edge calibration and rows in a worker
    thread beside the aggregated ones."""

    def test_per_edge_chain_runs_in_a_worker_thread(self):
        threads = {}

        def calibrate(family, direction, *args, **kwargs):
            threads[direction] = threading.get_ident()
            return 8.0, 1.0

        before = threading.enumerate()
        with mock.patch.object(benchmark_module, "calibrate_gain", calibrate):
            rows, _ = run_experiment(1, [25], dt=1e-3)
        assert [r.direction for r in rows] == ["per_edge", "aggregated"]
        assert threads[AGG] == threading.get_ident()
        assert threads[PE] != threads[AGG]
        assert threading.enumerate() == before

    def test_caller_interrupt_leaves_at_once(self):
        release = threading.Event()

        def calibrate(family, direction, *args, **kwargs):
            if direction is PE:
                release.wait(60)  # holds the worker past the interrupt
                raise CalibrationError("released")
            raise KeyboardInterrupt

        before = threading.enumerate()
        start = time.monotonic()
        try:
            with mock.patch.object(benchmark_module, "calibrate_gain", calibrate):
                with pytest.raises(KeyboardInterrupt):
                    run_experiment(1, [25], dt=1e-3)
            assert time.monotonic() - start < 5
            # the worker still waits: it finishes in the background
            assert len(threading.enumerate()) == len(before) + 1
        finally:
            release.set()
            for worker in set(threading.enumerate()) - set(before):
                worker.join(10)
        assert threading.enumerate() == before


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

    @pytest.mark.parametrize("name", ["dt", "epsilon", "target_v", "target_t"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_thresholds_must_be_positive_and_finite(self, name, value):
        message = f"{name} must be positive and finite, got {value}"
        with pytest.raises(ValueError, match=message):
            run_experiment(1, [25], **{name: value})
        if name != "epsilon":
            args = {"target_v": 0.05, "target_t": 1.0, "dt": 1e-3, name: value}
            with pytest.raises(ValueError, match=message):
                calibrate_gain("power", AGG, n=10, **args)
