import json

import numpy as np
import pytest

from obskit.estimator import split_state
from obskit.measurement import MeasurementHistory, measure_scenario, pseudo_row
from obskit.observability import (OBSERVABLE, UNOBSERVABLE, bearing_separation_mod_pi,
                                  check_observable, detect_collinearity, gramian,
                                  report_text, separation_mod_pi)
from obskit.scenario_io import Scenario, TargetConfig
from obskit.selftest import (collinear_scenario, random_rank_scenario_conditioned,
                             random_scenario, stacked_rank_observable)
from obskit.trajectory import PolynomialTrajectory, transition_matrix


def single_static_scenario(x=300.0, y=400.0, window=10.0):
    return Scenario(
        observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
        targets=(TargetConfig(PolynomialTrajectory(0.0, ((x, y),))),),
        t_start=0.0, t_end=window, grid_points=11,
    )


def history_from_bearings(times, bearings):
    arr = np.asarray(bearings, dtype=float)
    return MeasurementHistory(times=times, bearings=arr,
                              dopplers=(None,) * arr.shape[0])


class TestGramian:
    def test_single_static_target_closed_form(self):
        # constant bearing theta: G = T * v v^T with v = (cos, -sin)
        scenario = single_static_scenario()
        theta = np.arctan2(300.0, 400.0)
        v = np.array([np.cos(theta), -np.sin(theta)])
        G = gramian(scenario)
        assert np.allclose(G, 10.0 * np.outer(v, v), rtol=1e-12)
        svals = np.linalg.svd(G, compute_uv=False)
        assert svals[0] == pytest.approx(10.0)
        assert svals[1] < 1e-12 * svals[0]

    def test_zero_length_window_gives_zero_matrix(self):
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=(TargetConfig(PolynomialTrajectory(0.0, ((10.0, 10.0),))),),
            t_start=0.0, t_end=0.0, grid_points=5,
        )
        assert np.array_equal(gramian(scenario), np.zeros((2, 2)))

    def test_two_constant_bearing_targets_stay_block_rank_deficient(self):
        # Each target contributes an independent rank-1 block, so two
        # constant-bearing static targets give rank 2 out of 4 no matter how
        # far apart the bearings sit; range along each line of sight is free.
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=(
                TargetConfig(PolynomialTrajectory(0.0, ((500.0, 0.0),))),
                TargetConfig(PolynomialTrajectory(0.0, ((0.0, 700.0),))),
            ),
            t_start=0.0, t_end=8.0, grid_points=9,
        )
        G = gramian(scenario)
        thetas = [np.pi / 2, 0.0]
        expected = np.zeros((4, 4))
        for i, theta in enumerate(thetas):
            v = np.array([np.cos(theta), -np.sin(theta)])
            expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 8.0 * np.outer(v, v)
        assert np.allclose(G, expected, atol=1e-12)
        assert np.linalg.matrix_rank(G, tol=1e-9) == 2

    def test_even_node_count_padded_for_simpson(self):
        scenario = single_static_scenario()
        G_even = gramian(scenario, quadrature_nodes=10)
        G_odd = gramian(scenario, quadrature_nodes=11)
        assert np.allclose(G_even, G_odd, rtol=1e-12)

    def test_node_count_floor(self):
        with pytest.raises(ValueError):
            gramian(single_static_scenario(), quadrature_nodes=1)

    def test_positive_semidefinite_on_random_scenarios(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scenario = random_scenario(rng, target_order_max=1)
            G = gramian(scenario)
            eigvals = np.linalg.eigvalsh(G)
            assert eigvals[0] >= -1e-10 * eigvals[-1]

    def test_refinement_converged(self):
        scenario = random_scenario(np.random.default_rng(31))
        base = check_observable(scenario)
        nodes = scenario.grid_points
        G2 = gramian(scenario, quadrature_nodes=2 * nodes)
        svals = np.linalg.svd(G2, compute_uv=False)
        refined_ratio = svals[-1] / svals[0]
        assert abs(refined_ratio - base.sigma_ratio) < 0.01 * base.sigma_ratio


class TestCheckObservable:
    def test_collinear_pair_unobservable_with_null_witness(self):
        scenario = collinear_scenario(np.random.default_rng(1))
        report = check_observable(scenario)
        assert report.rank_decision == UNOBSERVABLE
        assert report.sigma_ratio < 1e-10
        y = report.null_space
        parts = split_state(y, report.orders)
        history = measure_scenario(scenario)
        worst = 0.0
        for t, thetas in zip(history.times, history.bearings.T):
            residual = [
                pseudo_row(theta, p) @ transition_matrix(p, t, scenario.t_start) @ y_i
                for theta, p, y_i in zip(thetas, report.orders, parts)]
            worst = max(worst, float(np.linalg.norm(residual)))
        assert worst < 1e-6 * np.linalg.norm(y)

    def test_single_cv_target_cv_observer_unobservable(self):
        # constant-course observer cannot observe a constant-velocity target
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (4.0, 1.0))),
            targets=(TargetConfig(
                PolynomialTrajectory(0.0, ((800.0, 600.0), (-3.0, 2.0))),),),
            t_start=0.0, t_end=30.0, grid_points=61,
        )
        report = check_observable(scenario)
        assert report.rank_decision == UNOBSERVABLE
        assert report.sigma_ratio < 1e-10

    def test_two_individually_observable_targets_observable(self):
        # static targets, maneuvering constant-velocity observer, bearings
        # well separated: both per-target blocks are full rank
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (6.0, 0.0))),
            targets=(
                TargetConfig(PolynomialTrajectory(0.0, ((300.0, 700.0),))),
                TargetConfig(PolynomialTrajectory(0.0, ((-400.0, 600.0),))),
            ),
            t_start=0.0, t_end=30.0, grid_points=61,
        )
        report = check_observable(scenario)
        assert report.rank_decision == OBSERVABLE
        assert all(r > report.rank_tol for r in report.per_target_sigma_ratios)
        assert report.null_space is None

    def test_report_text_mentions_decision(self):
        report = check_observable(collinear_scenario(np.random.default_rng(2)))
        text = report_text(report)
        assert "unobservable" in text
        assert "collinearity" in text

    def test_report_round_trips_to_json_dict(self):
        report = check_observable(single_static_scenario())
        data = report.to_dict()
        assert data["rank_decision"] == UNOBSERVABLE
        assert len(data["singular_values"]) == 2
        assert data["min_pairwise_separation"] is None
        assert json.loads(json.dumps(data)) == data


class TestSeparation:
    def test_opposite_bearings_are_collinear(self):
        assert separation_mod_pi(0.0, np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_maximal(self):
        assert separation_mod_pi(0.0, np.pi / 2) == pytest.approx(np.pi / 2)

    def test_modulo_arithmetic(self):
        assert separation_mod_pi(0.1, 3.3) == pytest.approx(3.2 - np.pi)

    def test_argmin_over_history(self):
        times = np.array([0.0, 1.0, 2.0])
        history = history_from_bearings(times, [[0.0, 0.0, 0.0],
                                                [1.0, 0.4, 0.9]])
        sep, pair, t = bearing_separation_mod_pi(history)
        assert sep == pytest.approx(0.4)
        assert pair == (0, 1)
        assert t == 1.0

    def test_single_target_rejected(self):
        history = history_from_bearings(np.array([0.0, 1.0]), [[0.0, 0.1]])
        with pytest.raises(ValueError):
            bearing_separation_mod_pi(history)


class TestDetectCollinearity:
    def test_permanent_collinearity_spans_window(self):
        times = np.linspace(0.0, 6.0, 7)
        history = history_from_bearings(
            times, [np.zeros(7), np.full(7, np.pi)])
        events = detect_collinearity(history, collinearity_tol=1e-3)
        assert len(events) == 1
        assert events[0].pair == (0, 1)
        assert (events[0].t_start, events[0].t_end) == (0.0, 6.0)

    def test_never_collinear_is_empty(self):
        times = np.linspace(0.0, 6.0, 7)
        history = history_from_bearings(times, [np.zeros(7), np.full(7, 0.8)])
        assert detect_collinearity(history, collinearity_tol=1e-3) == []

    def test_crossing_yields_short_event(self):
        times = np.linspace(0.0, 10.0, 101)
        # separation shrinks through zero at t = 5
        history = history_from_bearings(
            times, [np.zeros(101), 0.02 * (times - 5.0)])
        events = detect_collinearity(history, collinearity_tol=1e-3)
        assert len(events) == 1
        assert events[0].t_start <= 5.0 <= events[0].t_end
        assert events[0].t_end - events[0].t_start < 0.5

    def test_tolerance_from_scenario_flows_into_report(self):
        scenario = collinear_scenario(np.random.default_rng(3))
        report = check_observable(scenario)
        assert len(report.collinearity_events) == 1
        event = report.collinearity_events[0]
        assert event.t_start == scenario.t_start
        assert event.t_end == scenario.t_end


class TestBruteForceOracle:
    def test_gramian_rank_agrees_with_stacked_rank(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            scenario = random_rank_scenario_conditioned(rng)
            gramian_says = check_observable(scenario).rank_decision == OBSERVABLE
            assert gramian_says == stacked_rank_observable(scenario)


class TestEquivalenceOfCriteria:
    def test_rank_matches_geometry_and_per_target_blocks(self):
        # observable <=> (bearings separated modulo pi AND every per-target
        # block full rank), over generic draws and constructed collinear
        # geometries. Draws whose minimum separation falls near the
        # collinearity tolerance are transversal crossings, where the
        # geometric criterion is genuinely undecided; those are skipped as
        # boundary cases.
        rng = np.random.default_rng(8)
        checked = 0
        skipped = 0
        while checked < 30:
            if rng.integers(0, 2) == 0:
                scenario = random_scenario(rng, target_order_max=1)
            else:
                scenario = collinear_scenario(rng, opposite=bool(rng.integers(0, 2)))
            report = check_observable(scenario)
            window = scenario.t_end - scenario.t_start
            durations = [e.t_end - e.t_start for e in report.collinearity_events]
            if durations and max(durations) < 0.9 * window:
                # momentary crossing, not sustained collinearity
                skipped += 1
                continue
            separated_throughout = not report.collinearity_events
            blocks_full = all(r > report.rank_tol
                              for r in report.per_target_sigma_ratios)
            observable = report.rank_decision == OBSERVABLE
            assert observable == (separated_throughout and blocks_full)
            checked += 1
        assert skipped < checked
