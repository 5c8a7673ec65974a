import io
import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from obskit import measurement
from obskit.errors import ValidationError, ZeroRange
from obskit.measurement import (MeasurementHistory, Tonal, angular_difference,
                                bearing, design_matrix, doppler, measure_scenario,
                                wrap_angle)
from obskit.scenario_io import (Scenario, TargetConfig, load_scenario, scenario_from_dict,
                                validate_scenario, write_measurements_csv)
from obskit.selftest import random_scenario
from obskit.trajectory import PolynomialTrajectory, RelativeState, relative_state

from oracles import pseudo_row, transition_matrix


def rel(x, y, vx=0.0, vy=0.0):
    pos = np.array([x, y], dtype=float)
    vel = np.array([vx, vy], dtype=float)
    rng = float(np.linalg.norm(pos))
    rate = float(vel @ pos / rng) if rng > 0 else 0.0
    return RelativeState(position=pos, velocity=vel, range=rng, range_rate=rate)


class TestBearing:
    def test_north_is_zero(self):
        assert bearing(rel(0.0, 5.0)) == 0.0

    def test_east_is_half_pi(self):
        assert bearing(rel(5.0, 0.0)) == pytest.approx(np.pi / 2)

    def test_third_quadrant(self):
        assert bearing(rel(-1.0, -1.0)) == pytest.approx(-3 * np.pi / 4)

    def test_south_wraps_to_positive_pi(self):
        assert bearing(rel(0.0, -5.0)) == pytest.approx(np.pi)

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            bearing(RelativeState(position=np.zeros(2), velocity=np.zeros(2),
                                  range=0.0, range_rate=0.0))

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
           st.floats(1e-3, 1e6))
    def test_invariant_under_positive_scaling(self, x, y, alpha):
        if abs(x) < 1e-6 and abs(y) < 1e-6:
            return
        assert angular_difference(bearing(rel(alpha * x, alpha * y)),
                                  bearing(rel(x, y))) < 1e-12


class TestDoppler:
    def test_zero_range_rate_returns_tonal(self):
        assert doppler(750.0, rel(100.0, 0.0).range_rate) == pytest.approx(750.0)

    def test_range_rate_equal_to_c_gives_zero(self):
        state = rel(100.0, 0.0, vx=1500.0)
        assert doppler(750.0, state.range_rate, c=1500.0) == pytest.approx(0.0)

    def test_receding_target_shifts_down(self):
        state = rel(100.0, 0.0, vx=15.0)  # range rate +15 m/s
        assert doppler(1000.0, state.range_rate, c=1500.0) == pytest.approx(990.0)

    def test_closing_geometry_shifts_up(self):
        state = rel(100.0, 0.0, vx=-3.0)
        assert doppler(1000.0, state.range_rate, c=1500.0) > 1000.0

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            doppler(1000.0, rel(1.0, 1.0).range_rate, c=0.0)

    def test_tonal_must_be_positive(self):
        with pytest.raises(ValueError):
            Tonal(0.0)


class TestPseudoRow:
    def test_zero_bearing_order_zero(self):
        assert np.allclose(pseudo_row(0.0, 0), [1.0, 0.0])

    def test_quarter_turn_order_one(self):
        assert np.allclose(pseudo_row(np.pi / 2, 1), [0.0, -1.0, 0.0, 0.0],
                           atol=1e-15)

    def test_diagonal_bearing(self):
        root_half = np.sqrt(2.0) / 2.0
        assert np.allclose(pseudo_row(np.pi / 4, 0), [root_half, -root_half])

    def test_annihilates_true_relative_state(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pos = rng.normal(scale=100, size=2)
            theta = np.arctan2(pos[0], pos[1])
            assert abs(pseudo_row(theta, 0) @ pos) < 1e-10 * np.linalg.norm(pos)


class TestDesignMatrix:
    @pytest.mark.parametrize("p", range(6))
    def test_rows_match_pseudo_row_times_transition(self, p):
        rng = np.random.default_rng(40 + p)
        times = np.sort(rng.uniform(-5.0, 60.0, size=101))
        thetas = rng.uniform(-np.pi, np.pi, size=101)
        A = design_matrix(thetas, times, 2.5, p)
        expected = np.array([pseudo_row(theta, p) @ transition_matrix(p, t, 2.5)
                             for theta, t in zip(thetas, times)])
        assert A.shape == (101, 2 * (p + 1))
        assert np.allclose(A, expected, rtol=1e-14, atol=0)

    def test_stacked_thetas_equal_one_target_at_a_time(self):
        rng = np.random.default_rng(47)
        times = np.linspace(0.0, 1.0, 31)
        thetas = rng.uniform(-np.pi, np.pi, size=(3, 31))
        stacked = design_matrix(thetas, times, 0.0, 2)
        assert stacked.shape == (3, 31, 6)
        for block, row_thetas in zip(stacked, thetas):
            assert np.array_equal(block, design_matrix(row_thetas, times, 0.0, 2))


def static_scenario():
    return Scenario(
        observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
        targets=(
            TargetConfig(PolynomialTrajectory(0.0, ((300.0, 400.0),)), Tonal(900.0)),
            TargetConfig(PolynomialTrajectory(0.0, ((-200.0, 500.0),))),
        ),
        t_start=0.0, t_end=10.0, grid_points=11,
    )


class TestMeasureScenario:
    def test_static_scenario_constant_histories(self):
        history = measure_scenario(static_scenario())
        assert history.bearings.shape == (2, 11)
        assert np.ptp(history.bearings, axis=1) == pytest.approx([0.0, 0.0])
        assert np.ptp(history.dopplers[0]) == pytest.approx(0.0)
        assert history.dopplers[1] is None

    def test_matches_pointwise_operations(self):
        scenario = random_scenario(np.random.default_rng(4))
        scenario = Scenario(
            observer=scenario.observer,
            targets=tuple(TargetConfig(t.trajectory, Tonal(600.0))
                          for t in scenario.targets),
            t_start=scenario.t_start, t_end=scenario.t_end,
            grid_points=scenario.grid_points,
        )
        history = measure_scenario(scenario)
        for i, target in enumerate(scenario.targets):
            for k, t in enumerate(history.times):
                state = relative_state(target.trajectory, scenario.observer, t)
                assert history.bearings[i, k] == bearing(state)
                assert history.dopplers[i][k] == doppler(
                    600.0, state.range_rate, scenario.c)

    def test_crossing_scenario_bearings_intersect(self):
        # target B sweeps across target A's line of sight at t = 5
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=(
                TargetConfig(PolynomialTrajectory(0.0, ((100.0, 100.0),))),
                TargetConfig(PolynomialTrajectory(0.0, ((150.0, 200.0), (10.0, 0.0)))),
            ),
            t_start=0.0, t_end=10.0, grid_points=21,
        )
        history = measure_scenario(scenario)
        sep = np.abs(wrap_angle(history.bearings[0] - history.bearings[1]))
        k5 = int(np.argmin(np.abs(history.times - 5.0)))
        assert sep[k5] == pytest.approx(0.0, abs=1e-12)
        assert sep[0] > 0.1 and sep[-1] > 0.1

    def test_zero_range_reports_target_and_time(self):
        # Built in code, so validated on its first measurement, as a file is at load.
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (10.0, 0.0))),
            targets=(TargetConfig(PolynomialTrajectory(0.0, ((50.0, 0.0),))),),
            t_start=0.0, t_end=10.0, grid_points=11,
        )
        with pytest.raises(ValidationError) as excinfo:
            measure_scenario(scenario)
        assert excinfo.value.field == "targets[0]"
        assert str(excinfo.value) == "targets[0]: coincides with the observer at t=5.0"
        assert "_history" not in vars(scenario)


def overflowing_scenario():
    """Built directly, never validated: the range overflows, so the range rate is 0 / inf."""
    return Scenario(
        observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
        targets=(TargetConfig(PolynomialTrajectory(0.0, ((1e300, 0.0), (0.0, 1e300))),
                              Tonal(500.0)),),
        t_start=0.0, t_end=10.0, grid_points=11,
    )


TWO_TARGETS = {"observer": {"coeffs": [[0.0, 0.0], [5.0, 1.0], [0.0, 0.4]]},
               "targets": [{"coeffs": [[400.0, 300.0], [1.0, -2.0]], "tonal_hz": 700.0},
                           {"coeffs": [[-300.0, 500.0]]}],
               "time": {"start": 0.0, "end": 40.0, "points": 41}}


class TestOneHistoryPerScenario:
    OVERFLOW = "targets[0]: range or range rate overflows a float on the time grid"

    def test_unvalidated_overflow_is_rejected_without_a_warning(self):
        scenario = overflowing_scenario()
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(ValidationError) as excinfo:
            warnings.simplefilter("always")
            measure_scenario(scenario)
        assert caught == []
        assert str(excinfo.value) == self.OVERFLOW
        assert "_history" not in vars(scenario)

    def test_unvalidated_overflow_raises_under_errstate_raise(self):
        # Validation reads overflow from the arrays, whatever the caller's np.errstate.
        scenario = overflowing_scenario()
        with np.errstate(all="raise"), pytest.raises(ValidationError) as excinfo:
            measure_scenario(scenario)
        assert str(excinfo.value) == self.OVERFLOW
        assert "_history" not in vars(scenario)

    def test_replaced_scenario_is_measured_on_its_own_grid(self):
        scenario = scenario_from_dict(json.loads(json.dumps(TWO_TARGETS)))
        assert len(measure_scenario(scenario).times) == 41
        finer = replace(scenario, grid_points=81)
        fresh = scenario_from_dict(dict(TWO_TARGETS, time={"start": 0.0, "end": 40.0,
                                                           "points": 81}))
        history, expected = measure_scenario(finer), measure_scenario(fresh)
        assert np.array_equal(history.times, expected.times)
        assert np.array_equal(history.bearings, expected.bearings)
        assert np.array_equal(history.dopplers[0], expected.dopplers[0])
        assert len(measure_scenario(scenario).times) == 41

    def test_one_read_only_history_per_scenario(self):
        for scenario in (scenario_from_dict(json.loads(json.dumps(TWO_TARGETS))),
                         static_scenario()):
            history = measure_scenario(scenario)
            assert measure_scenario(scenario) is history
            for array in (history.times, history.bearings, history.dopplers[0]):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_loaded_scenario_keeps_only_its_history(self, tmp_path):
        path = tmp_path / "two_targets.json"
        path.write_text(json.dumps(TWO_TARGETS))
        scenario = load_scenario(path)
        assert [key for key in vars(scenario) if key.startswith("_")] == ["_history"]
        assert measure_scenario(scenario) is vars(scenario)["_history"]

    def test_doppler_evaluated_once_per_loaded_scenario(self, monkeypatch):
        calls = []
        real = measurement.doppler
        monkeypatch.setattr(measurement, "doppler",
                            lambda *args: calls.append(np.shape(args[1])) or real(*args))
        scenario = scenario_from_dict(json.loads(json.dumps(TWO_TARGETS)))
        history = measure_scenario(scenario)
        assert calls == [(1, 41)]  # one call, over the one target with a tonal
        assert history.dopplers[1] is None

    def test_scenario_that_fails_validation_keeps_nothing(self):
        scenario = scenario_from_dict(json.loads(json.dumps(TWO_TARGETS)))
        # The smallest subnormal c: the Doppler shift overflows on the grid.
        overflowing = replace(scenario, c=5e-324)
        with pytest.raises(ValidationError, match=r"^targets\[0\]\.tonal_hz: "):
            validate_scenario(overflowing)
        assert not [key for key in vars(overflowing) if key.startswith("_")]

    def test_equality_and_hash_see_only_the_fields(self):
        measured = scenario_from_dict(json.loads(json.dumps(TWO_TARGETS)))
        measure_scenario(measured)
        loaded = scenario_from_dict(json.loads(json.dumps(TWO_TARGETS)))
        direct = replace(loaded)
        for other in (loaded, direct):
            assert measured == other and hash(measured) == hash(other)
            assert repr(measured) == repr(other)
        assert [f.name for f in fields(Scenario)] == [
            "observer", "targets", "t_start", "t_end", "grid_points", "c", "tolerances"]


class TestPseudoLinearIdentity:
    def test_true_state_annihilates_rows(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            scenario = random_scenario(rng)
            for traj in scenario.target_trajectories():
                for t in scenario.grid():
                    state = relative_state(traj, scenario.observer, t)
                    theta = bearing(state)
                    value = abs(np.cos(theta) * state.position[0]
                                - np.sin(theta) * state.position[1])
                    assert value < 1e-10 * state.range


class TestCsvExport:
    def test_exact_layout(self):
        history = MeasurementHistory(
            times=[0.0, 0.5],
            bearings=[[0.25, 0.5], [-0.75, -1.0]],
            dopplers=(np.array([990.0, 991.5]), None),
        )
        out = io.StringIO()
        write_measurements_csv(history, out)
        assert out.getvalue() == (
            "t,target_id,bearing_rad,doppler_hz\n"
            "0.0,0,0.25,990.0\n"
            "0.0,1,-0.75,\n"
            "0.5,0,0.5,991.5\n"
            "0.5,1,-1.0,\n"
        )

    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        hnp.arrays(float, st.integers(1, 6)).map(np.sort),
        st.lists(st.booleans(), min_size=m, max_size=m))), st.randoms())
    def test_rows_match_a_per_row_reference(self, shape, rnd):
        times, tonals = shape
        values = [rnd.choice([0.1, -0.0, 5e-324, 1e16, math.nan, -math.inf, rnd.random()])
                  for _ in range(2 * len(tonals) * len(times))]
        bearings = np.reshape(values[:len(values) // 2], (len(tonals), len(times)))
        dopplers = np.reshape(values[len(values) // 2:], (len(tonals), len(times)))
        history = MeasurementHistory(times=times, bearings=bearings, dopplers=tuple(
            d if tonal else None for d, tonal in zip(dopplers, tonals)))
        out = io.StringIO()
        write_measurements_csv(history, out)
        expected = "t,target_id,bearing_rad,doppler_hz\n" + "".join(
            f"{float(t)!r},{i},{float(bearings[i, k])!r},"
            f"{repr(float(dopplers[i, k])) if tonals[i] else ''}\n"
            for k, t in enumerate(times) for i in range(len(tonals)))
        assert out.getvalue() == expected


class TestWrapAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range_is_half_open(self, theta):
        wrapped = wrap_angle(theta)
        assert -np.pi < wrapped <= np.pi

    def test_negative_pi_maps_to_positive(self):
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
