import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit.errors import ZeroRange
from obskit.selftest import random_scenario
from obskit.trajectory import (PolynomialTrajectory, SampledTrajectory, propagate_ode,
                               relative_state, relative_states, state_from_trajectory,
                               trajectory_from_state)

from oracles import polynomial_eval, transition_matrix


class TestEval:
    def test_linear_motion(self):
        traj = PolynomialTrajectory(3.0, ((0.0, 0.0), (1.0, 0.0)))
        assert np.allclose(traj.eval(5.0), [2.0, 0.0])

    def test_reference_time_returns_constant_term(self):
        traj = PolynomialTrajectory(-1.5, ((4.0, -7.0), (3.0, 2.0), (1.0, 1.0)))
        assert np.array_equal(traj.eval(-1.5), [4.0, -7.0])

    def test_first_derivative(self):
        # d/dt [a0 + a1 dt + a2 dt^2] = a1 + 2 a2 dt; at dt = 1:
        # (2, 0) + 2 (0, 3) = (2, 6)
        traj = PolynomialTrajectory(0.0, ((0.0, 1.0), (2.0, 0.0), (0.0, 3.0)))
        assert np.allclose(traj.eval(1.0, derivative_order=1), [2.0, 6.0])

    def test_derivative_above_order_is_zero(self):
        traj = PolynomialTrajectory(0.0, ((1.0, 2.0), (3.0, 4.0)))
        assert np.array_equal(traj.eval(10.0, derivative_order=5), [0.0, 0.0])

    def test_negative_derivative_order_rejected(self):
        traj = PolynomialTrajectory(0.0, ((1.0, 2.0),))
        with pytest.raises(ValueError):
            traj.eval(0.0, derivative_order=-1)

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=1, max_size=5),
           st.floats(-100, 100))
    def test_eval_at_ref_time_is_exact(self, coeffs, ref_time):
        traj = PolynomialTrajectory(ref_time, tuple(coeffs))
        assert np.array_equal(traj.eval(ref_time), np.asarray(coeffs[0]))

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_eval_equals_per_term_outer_products(self, p):
        # Axis-first accumulation rounds as the (N, 2) outer-product terms did.
        rng = np.random.default_rng(p)
        traj = PolynomialTrajectory(1.7, tuple(map(tuple, rng.normal(scale=50.0, size=(p + 1, 2)))))
        grid = np.linspace(-3.0, 30.0, 1001)
        for t in (grid, grid[:1], 4.25, np.float64(-2.5)):
            for d in range(p + 2):
                got, want = traj.eval(t, d), polynomial_eval(traj, t, d)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.array_equal(got, want), (t, d)

    def test_derivative_matches_central_differences(self):
        rng = np.random.default_rng(3)
        # coefficients of comparable size make the natural timescale ~1
        timescale = 1.0
        h = 1e-4 * timescale
        for _ in range(30):
            p = int(rng.integers(0, 6))
            coeffs = tuple(tuple(rng.normal(scale=5.0, size=2)) for _ in range(p + 1))
            traj = PolynomialTrajectory(0.0, coeffs)
            t = rng.uniform(-timescale, timescale)
            numeric = (traj.eval(t + h) - traj.eval(t - h)) / (2 * h)
            exact = traj.eval(t, derivative_order=1)
            denom = max(np.linalg.norm(exact), 1.0)
            assert np.linalg.norm(numeric - exact) / denom < 1e-6

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            PolynomialTrajectory(0.0, ())

    def test_padding_keeps_values_and_effective_order(self):
        traj = PolynomialTrajectory(0.0, ((2.0, 3.0), (1.0, -1.0)))
        padded = traj.padded(4)
        assert padded.order == 4
        assert padded.effective_order() == 1
        for t in (-2.0, 0.0, 7.5):
            assert np.array_equal(padded.eval(t), traj.eval(t))


class TestRelativeState:
    def test_static_offset(self):
        target = PolynomialTrajectory(0.0, ((3.0, 4.0),))
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0),))
        rel = relative_state(target, observer, 12.0)
        assert rel.range == pytest.approx(5.0)
        assert rel.range_rate == pytest.approx(0.0)

    def test_identical_trajectories_raise(self):
        traj = PolynomialTrajectory(0.0, ((5.0, -2.0), (1.0, 1.0)))
        with pytest.raises(ZeroRange):
            relative_state(traj, traj, 3.0)

    def test_closing_along_axis(self):
        # range |10 - t| shrinks at 1 m/s at t = 0
        target = PolynomialTrajectory(0.0, ((10.0, 0.0), (-1.0, 0.0)))
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0),))
        rel = relative_state(target, observer, 0.0)
        assert rel.range == pytest.approx(10.0)
        assert rel.range_rate == pytest.approx(-1.0)

    def test_range_rate_bounded_by_speed(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            target = PolynomialTrajectory(
                0.0, tuple(tuple(rng.normal(scale=20, size=2)) for _ in range(3)))
            observer = PolynomialTrajectory(
                0.0, tuple(tuple(rng.normal(scale=2, size=2)) for _ in range(2)))
            t = rng.uniform(0, 5)
            try:
                rel = relative_state(target, observer, t)
            except ZeroRange:
                continue
            assert abs(rel.range_rate) <= np.linalg.norm(rel.velocity) + 1e-12

    @pytest.mark.parametrize("order", range(6))
    def test_grid_equals_per_time_calls(self, order):
        rng = np.random.default_rng(30 + order)
        target = PolynomialTrajectory(
            1.5, tuple(tuple(rng.normal(scale=50, size=2)) for _ in range(order + 1)))
        observer = PolynomialTrajectory(
            1.5, tuple(tuple(rng.normal(scale=5, size=2)) for _ in range(order + 1)))
        times = np.sort(rng.uniform(-10.0, 40.0, size=257))
        grid = relative_state(target, observer, times)
        for field in ("position", "velocity", "range", "range_rate"):
            pointwise = np.array([getattr(relative_state(target, observer, t), field)
                                  for t in times])
            assert np.array_equal(getattr(grid, field), pointwise), field

    def test_grid_zero_range_reports_first_offending_time(self):
        # the target sits on the observer's path at t = 4 and t = 6
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0), (10.0, 0.0)))
        target = PolynomialTrajectory(0.0, ((24.0, 0.0), (0.0, 0.0), (1.0, 0.0)))
        times = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ZeroRange) as excinfo:
            relative_state(target, observer, times)
        assert excinfo.value.time == 4.0


def reference_relative_state(target, observer, t):
    """One target's relative kinematics from ``eval``, written out per component."""
    position = target.eval(t, 0) - observer.eval(t, 0)
    velocity = target.eval(t, 1) - observer.eval(t, 1)
    x, y = position[..., 0], position[..., 1]
    rng = np.sqrt(x * x + y * y)
    rate = (velocity[..., 0] * x + velocity[..., 1] * y) / rng
    return {"position": position, "velocity": velocity, "range": rng, "range_rate": rate}


class TestRelativeStates:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 32]),
           st.sampled_from([2, 121, 1001]), st.integers(0, 3))
    def test_rows_equal_per_target_evaluation(self, seed, m, n, observer_order):
        # Target orders 0-3, mixed and not padded to a common order.
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng, m_targets=m, target_order_max=3,
                                   observer_order=observer_order, grid_points=n)
        trajectories = scenario.target_trajectories()
        times = scenario.grid()
        for t in (times, float(times[rng.integers(n)])):
            stacked = relative_states(trajectories, scenario.observer, t)
            for i, target in enumerate(trajectories):
                single = relative_state(target, scenario.observer, t)
                for field, value in reference_relative_state(
                        target, scenario.observer, t).items():
                    assert np.array_equal(getattr(stacked, field)[i], value), field
                    assert np.array_equal(getattr(single, field), value), field
                    assert np.shape(getattr(single, field)) == np.shape(value), field

    def test_zero_range_names_first_target_in_index_order(self):
        # Target 2 (order 2) meets the observer at t = 3, target 1 (order 0) at
        # t = 6; the stack evaluates target 2 first, yet target 1 is reported.
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0), (10.0, 0.0)))
        targets = (PolynomialTrajectory(0.0, ((0.0, 100.0),)),
                   PolynomialTrajectory(0.0, ((60.0, 0.0),)),
                   PolynomialTrajectory(0.0, ((-39.0, 0.0), (20.0, 0.0), (1.0, 0.0))))
        times = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ZeroRange) as excinfo:
            relative_states(targets, observer, times)
        assert (excinfo.value.target_index, excinfo.value.time) == (1, 6.0)


class TestTransitionMatrix:
    def test_order_zero_is_identity(self):
        assert np.array_equal(transition_matrix(0, 7.3, 1.1), np.eye(2))

    @pytest.mark.parametrize("p", range(6))
    def test_zero_elapsed_time_is_exact_identity(self, p):
        phi = transition_matrix(p, 2.0, 2.0)
        assert np.array_equal(phi, np.eye(2 * (p + 1)))

    def test_top_block_row_carries_polynomial_factors(self):
        # dt = 2, p = 2: factors 1, 2, 2^2/2! = 2
        phi = transition_matrix(2, 2.0, 0.0)
        assert np.allclose(phi[0], [1.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        assert np.allclose(phi[1], [0.0, 1.0, 0.0, 2.0, 0.0, 2.0])

    def test_propagation_reproduces_polynomial_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = int(rng.integers(0, 6))
            coeffs = tuple(tuple(rng.normal(scale=3.0, size=2)) for _ in range(p + 1))
            traj = PolynomialTrajectory(1.0, coeffs)
            t = rng.uniform(1.0, 6.0)
            state = state_from_trajectory(traj)
            propagated = transition_matrix(p, t, 1.0) @ state
            assert np.allclose(propagated[:2], traj.eval(t), atol=1e-9)

    def test_semigroup_property(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            p = int(rng.integers(0, 6))
            t0, t1, t2 = np.sort(rng.uniform(0.0, 5.0, size=3))
            lhs = transition_matrix(p, t2, t0)
            rhs = (transition_matrix(p, t2, t1)
                   @ transition_matrix(p, t1, t0))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-12


class TestPropagateOde:
    def test_zero_state_stays_zero(self):
        out = propagate_ode(np.zeros(8), 0.0, 5.0, 100)
        assert np.array_equal(out, np.zeros(8))

    def test_constant_velocity_is_exact(self):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        out = propagate_ode(x, 0.0, 7.0, 10)
        assert np.allclose(out[:2], [1.0 + 3.0 * 7.0, -2.0 + 0.5 * 7.0], atol=1e-12)
        assert np.allclose(out[2:], x[2:], atol=1e-15)

    def test_matches_transition_matrix_for_cubic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(scale=10, size=8)
        closed = transition_matrix(3, 5.0, 0.0) @ x
        stepped = propagate_ode(x, 0.0, 5.0, 500)
        assert np.linalg.norm(closed - stepped) / np.linalg.norm(x) < 1e-8

    def test_rk4_oracle_all_orders(self):
        rng = np.random.default_rng(21)
        for p in range(6):
            for _ in range(5):
                x = rng.normal(scale=10, size=2 * (p + 1))
                t_span = rng.uniform(0.3, 3.0)
                closed = transition_matrix(p, t_span, 0.0) @ x
                stepped = propagate_ode(x, 0.0, t_span, 400)
                assert np.linalg.norm(closed - stepped) / np.linalg.norm(x) < 1e-8

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            propagate_ode(np.zeros(3), 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            propagate_ode(np.zeros(4), 0.0, 1.0, 0)


class TestStateConversions:
    def test_round_trip(self):
        traj = PolynomialTrajectory(2.0, ((1.0, -1.0), (0.5, 2.0), (0.25, 0.0)))
        state = state_from_trajectory(traj)
        back = trajectory_from_state(state, ref_time=2.0)
        assert back == traj

    def test_state_holds_raw_derivatives(self):
        traj = PolynomialTrajectory(0.0, ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)))
        state = state_from_trajectory(traj)
        # x^(k) = k! a_k
        assert np.allclose(state, [1.0, 2.0, 3.0, 4.0, 10.0, 12.0])


class TestSampledTrajectory:
    def test_valid_construction(self):
        traj = SampledTrajectory(times=[0.0, 1.0, 2.0],
                                 positions=[(0, 0), (1, 0), (2, 0)])
        assert traj.positions.shape == (3, 2)

    @pytest.mark.parametrize("times,positions", [
        ([0.0], [(0, 0)]),
        ([0.0, 0.0], [(0, 0), (1, 1)]),
        ([1.0, 0.5], [(0, 0), (1, 1)]),
        ([0.0, 1.0], [(0, 0)]),
    ])
    def test_invalid_construction_rejected(self, times, positions):
        with pytest.raises(ValueError):
            SampledTrajectory(times=times, positions=positions)
