import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from obskit.errors import DegenerateSystem
from obskit.estimator import (DEGENERATE, UNIQUE, cross_validate,
                              estimate_initial_state, split_state)
from obskit.measurement import (MeasurementHistory, angular_difference, design_matrix,
                                measure_scenario, wrap_angle)
from obskit.observability import OBSERVABLE, _simpson_weights, check_observable, gramian
from obskit.scenario_io import Scenario, TargetConfig
from obskit.selftest import (collinear_scenario, random_rank_scenario,
                             random_rank_scenario_conditioned, random_scenario)
from obskit.trajectory import (PolynomialTrajectory, state_from_trajectory,
                               trajectory_from_state)

import oracles


def maneuvering_static_target_scenario():
    # static target, constant-velocity observer whose course does not point
    # at the target: two distinct bearing lines pin the position down
    return Scenario(
        observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (5.0, 1.0))),
        targets=(TargetConfig(PolynomialTrajectory(0.0, ((400.0, 300.0),))),),
        t_start=0.0, t_end=40.0, grid_points=81,
    )


def true_super_state(scenario):
    return np.concatenate([
        state_from_trajectory(traj, scenario.t_start, p)
        for traj, p in zip(scenario.target_trajectories(),
                           scenario.effective_orders())
    ])


def estimate(scenario):
    history = measure_scenario(scenario)
    return estimate_initial_state(
        scenario.observer, history, list(scenario.effective_orders()),
        scenario.tolerances.rank_tol)


class TestEstimateInitialState:
    def test_static_target_recovered(self):
        scenario = maneuvering_static_target_scenario()
        result = estimate(scenario)
        assert result.uniqueness == UNIQUE
        truth = true_super_state(scenario)
        assert np.linalg.norm(result.x_initial_hat - truth) < 1e-6

    def test_collinear_pair_degenerate_with_tiny_residual(self):
        scenario = collinear_scenario(np.random.default_rng(5))
        result = estimate(scenario)
        assert result.uniqueness == DEGENERATE
        assert result.residual_norm < 1e-6
        assert result.null_space is not None
        assert result.condition_number > 1.0 / scenario.tolerances.rank_tol

    def test_zero_measurement_window_rejected(self):
        history = MeasurementHistory(times=[0.0], bearings=[[0.5]], dopplers=(None,))
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0),))
        with pytest.raises(DegenerateSystem):
            estimate_initial_state(observer, history, [0], 1e-8)

    def test_orders_must_match_history(self):
        history = MeasurementHistory(times=[0.0, 1.0], bearings=[[0.5, 0.6]],
                                     dopplers=(None,))
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0),))
        with pytest.raises(ValueError):
            estimate_initial_state(observer, history, [0, 0], 1e-8)

    def test_moving_target_recovered_with_accelerating_observer(self):
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (3.0, -2.0), (0.4, 0.5))),
            targets=(
                TargetConfig(PolynomialTrajectory(0.0, ((500.0, 800.0), (-4.0, 2.0)))),
                TargetConfig(PolynomialTrajectory(0.0, ((-600.0, 400.0),))),
            ),
            t_start=0.0, t_end=30.0, grid_points=61,
        )
        result = estimate(scenario)
        assert result.uniqueness == UNIQUE
        truth = true_super_state(scenario)
        err = np.linalg.norm(result.x_initial_hat - truth) / np.linalg.norm(truth)
        assert err < 1e-9


    @pytest.mark.parametrize("make, noise, uniqueness", [
        (maneuvering_static_target_scenario, 1e-3, UNIQUE),
        (lambda: collinear_scenario(np.random.default_rng(5)), 1e-7, DEGENERATE),
    ])
    def test_residual_norm_is_the_weighted_residual(self, make, noise, uniqueness):
        # Noisy bearings leave a nonzero residual. The figure read off the R
        # factor equals sqrt(W) (A x - b) formed directly, both for a unique
        # solve and for a degenerate one with dropped directions.
        scenario = make()
        clean = measure_scenario(scenario)
        rng = np.random.default_rng(17)
        history = replace(clean, bearings=clean.bearings
                          + noise * rng.standard_normal(clean.bearings.shape))
        result = estimate_initial_state(scenario.observer, history,
                                        list(scenario.effective_orders()))
        assert result.uniqueness == uniqueness
        times = history.times
        sqrt_w = np.sqrt(_simpson_weights(len(times), (times[-1] - times[0])
                                          / (len(times) - 1)))
        observer = scenario.observer.eval(times)
        residual = [
            sqrt_w * (design_matrix(thetas, times, times[0], p) @ part
                      - (np.cos(thetas) * observer[:, 0] - np.sin(thetas) * observer[:, 1]))
            for thetas, part, p in zip(history.bearings,
                                       split_state(result.x_initial_hat, result.orders),
                                       result.orders)]
        assert result.residual_norm > 1e-6
        assert result.residual_norm == pytest.approx(
            np.linalg.norm(np.concatenate(residual)), rel=1e-6)


class TestCrossValidate:
    def test_unique_recovery_replays_exactly(self):
        scenario = maneuvering_static_target_scenario()
        result = estimate(scenario)
        assert cross_validate(scenario, result) < 1e-8

    def test_null_direction_is_invisible(self):
        scenario = collinear_scenario(np.random.default_rng(5))
        result = estimate(scenario)
        truth = true_super_state(scenario)
        base_error = cross_validate(scenario, result, state=truth)
        epsilon = 1.0
        perturbed = truth + epsilon * result.null_space
        err = cross_validate(scenario, result, state=perturbed)
        assert err - base_error < 1e-8 * epsilon

    def test_off_manifold_perturbation_is_visible(self):
        scenario = maneuvering_static_target_scenario()
        result = estimate(scenario)
        corrupted = result.x_initial_hat + np.array([0.0, 25.0])
        assert cross_validate(scenario, result, state=corrupted) > 1e-4

    def test_replay_equals_per_target_loop(self):
        # An unobservable draw whose replayed targets have mixed orders, probed
        # along its null direction; the oracle replays one target at a time.
        rng = np.random.default_rng(6)
        while True:
            scenario = random_rank_scenario(rng)
            result = estimate(scenario)
            if result.uniqueness == DEGENERATE and len(set(result.orders)) > 1:
                break
        state = result.x_initial_hat + result.null_space
        truth = measure_scenario(scenario)
        expected = 0.0
        for i, part in enumerate(split_state(state, result.orders)):
            traj = trajectory_from_state(part, ref_time=scenario.t_start)
            position = traj.eval(truth.times) - scenario.observer.eval(truth.times)
            replayed = wrap_angle(np.arctan2(position[:, 0], position[:, 1]))
            expected = max(expected, float(np.max(
                angular_difference(replayed, truth.bearings[i]))))
        assert cross_validate(scenario, result, state=state) == expected

    def test_split_state_round_trip(self):
        state = np.arange(8.0)
        parts = split_state(state, (1, 0, 0))
        assert [len(p) for p in parts] == [4, 2, 2]
        assert np.array_equal(np.concatenate(parts), state)
        with pytest.raises(ValueError):
            split_state(state, (1, 0))


class TestVerdictConsistency:
    def test_uniqueness_matches_gramian_rank_decision(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            scenario = random_rank_scenario_conditioned(rng)
            report = check_observable(scenario)
            result = estimate(scenario)
            assert (result.uniqueness == UNIQUE) == (report.rank_decision == OBSERVABLE)

    def test_verdicts_agree_just_below_rank_tol(self):
        # Three targets of orders 1, 2 and 0 on a 25-point grid: the worst
        # target block's Gramian ratio, 8.2e-9, lies below rank_tol, while the
        # squared singular-value ratio of that target's unweighted design
        # matrix, 1.1e-8, lies above it.
        rng = np.random.default_rng(3)
        for _ in range(36):
            scenario = random_scenario(rng, m_targets=3, target_order_max=2,
                                       grid_points=int(rng.integers(2, 60)))
        assert scenario.effective_orders() == (1, 2, 0)
        report = check_observable(scenario)
        result = estimate(scenario)
        assert report.sigma_ratio < scenario.tolerances.rank_tol
        assert (result.uniqueness == UNIQUE) == (report.rank_decision == OBSERVABLE)
        assert result.condition_number * report.sigma_ratio == pytest.approx(1.0, abs=1e-12)

    def test_result_serializes(self):
        result = estimate(maneuvering_static_target_scenario())
        data = result.to_dict()
        assert data["uniqueness"] == UNIQUE
        assert len(data["x_initial_hat"]) == 2
        assert data["null_space"] is None
        assert json.loads(json.dumps(data)) == data


@st.composite
def rank_scenarios(draw):
    """random_rank_scenario draws, and draws of 2-5 targets of orders 0-3 whose
    observer order, 0-2 or two above the targets, leaves blocks of mixed
    orders degenerate or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_rank_scenario(rng)
    return random_scenario(rng, m_targets=draw(st.integers(2, 5)), target_order_max=3,
                           observer_order=draw(st.sampled_from([0, 1, 2, None])),
                           grid_points=draw(st.sampled_from([9, 40, 101])))


@given(scenario=rank_scenarios(), rank_tol=st.sampled_from([1e-8, 1e-3]))
def test_order_stacks_match_per_target_loops(scenario, rank_tol):
    history = measure_scenario(scenario)
    orders = list(scenario.effective_orders())
    g = gramian(scenario.observer, history, orders, rank_tol)
    result = estimate_initial_state(scenario.observer, history, orders, rank_tol)
    dropped = [s[-1] <= np.sqrt(rank_tol) * s[0] for s, *_ in oracles.per_target_factors(g)]
    event(f"mixed orders: {len(set(orders)) > 1}, blocks dropping directions: {sum(dropped)}")
    x_initial_hat, residual_norm = oracles.solve_per_target(g, rank_tol)
    assert np.array_equal(result.x_initial_hat, x_initial_hat)
    assert result.residual_norm == residual_norm
    assert g.per_target_sigma_ratios == oracles.sigma_ratios_per_target(g)
    blocks = g.blocks()
    assert len(blocks) == len(orders)
    assert all(map(np.array_equal, blocks, oracles.blocks_per_target(g)))
    assert np.array_equal(g.singular_values, oracles.singular_values_per_target(g))
    expected = oracles.null_space_per_target(g)
    assert (g.null_space is None) == (expected is None)
    assert expected is None or np.array_equal(g.null_space, expected)
