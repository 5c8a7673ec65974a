import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit.errors import DegenerateSystem
from obskit.estimator import estimate_initial_state, split_state
from obskit.measurement import MeasurementHistory, design_matrix, measure_scenario
from obskit.observability import (OBSERVABLE, UNOBSERVABLE, CollinearityEvent,
                                  _simpson_weights, bearing_separation_mod_pi,
                                  check_observable, detect_collinearity, gramian,
                                  report_text, separation_mod_pi)
from obskit.scenario_io import Scenario, TargetConfig
from obskit.selftest import (collinear_scenario, random_rank_scenario_conditioned,
                             random_scenario, stacked_rank_observable)
from obskit.trajectory import PolynomialTrajectory

from conftest import at_least
from oracles import pseudo_row, transition_matrix


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
    def test_quadrature_exact_for_cubics(self):
        # Odd counts use Simpson, even ones Simpson plus the 3/8 rule on the
        # last three intervals; both are exact for cubics. Two nodes use the
        # trapezoid rule, exact for linear functions.
        a, b = 0.5, 3.0
        for nodes in [2, *range(3, 41)]:
            t = np.linspace(a, b, nodes)
            w = _simpson_weights(nodes, (b - a) / (nodes - 1))
            for k in range(2 if nodes == 2 else 4):
                exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                assert w @ t ** k == pytest.approx(exact, rel=1e-12), (nodes, k)

    def test_single_static_target_closed_form(self):
        # constant bearing theta: G = T * v v^T with v = (cos, -sin)
        scenario = single_static_scenario()
        theta = np.arctan2(300.0, 400.0)
        v = np.array([np.cos(theta), -np.sin(theta)])
        (G,) = gramian(scenario.observer, measure_scenario(scenario),
                       scenario.effective_orders()).blocks()
        assert np.allclose(G, 10.0 * np.outer(v, v), rtol=1e-12)
        svals = np.linalg.svd(G, compute_uv=False)
        assert svals[0] == pytest.approx(10.0)
        assert svals[1] < 1e-12 * svals[0]

    def test_blocks_equal_weighted_design_products(self):
        # The factors reproduce A_i^T W A_i formed directly, on odd and even
        # grids and mixed orders.
        rng = np.random.default_rng(29)
        for nodes in (2, 3, 40, 121):
            scenario = random_scenario(rng, m_targets=3, target_order_max=3,
                                       grid_points=nodes)
            history = measure_scenario(scenario)
            orders = scenario.effective_orders()
            times = history.times
            w = _simpson_weights(nodes, (times[-1] - times[0]) / (nodes - 1))
            for block, thetas, p in zip(gramian(scenario.observer, history, orders).blocks(),
                                        history.bearings, orders):
                A = design_matrix(thetas, times, times[0], p)
                direct = A.T @ (w[:, None] * A)
                assert np.allclose(block, direct, rtol=0.0,
                                   atol=1e-12 * np.abs(direct).max()), (nodes, p)

    def test_zero_length_window_gives_zero_matrix(self):
        # No scenario has this window (validation rejects it), so the history is built by hand.
        history = history_from_bearings(np.zeros(5), [[np.pi / 4] * 5])
        g = gramian(PolynomialTrajectory(0.0, ((0.0, 0.0),)), history, (0,))
        assert np.array_equal(g.blocks(), np.zeros((1, 2, 2)))

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
        blocks = gramian(scenario.observer, measure_scenario(scenario),
                         scenario.effective_orders()).blocks()
        thetas = [np.pi / 2, 0.0]
        expected = np.zeros((4, 4))
        for i, theta in enumerate(thetas):
            v = np.array([np.cos(theta), -np.sin(theta)])
            expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 8.0 * np.outer(v, v)
        G = np.zeros((4, 4))
        G[:2, :2], G[2:, 2:] = blocks
        assert np.allclose(G, expected, atol=1e-12)
        assert np.linalg.matrix_rank(G, tol=1e-9) == 2

    def test_even_grid_matches_odd_grid(self):
        scenario = single_static_scenario()
        even = replace(scenario, grid_points=10)
        odd = replace(scenario, grid_points=11)
        G_even = gramian(even.observer, measure_scenario(even), even.effective_orders()).blocks()
        G_odd = gramian(odd.observer, measure_scenario(odd), odd.effective_orders()).blocks()
        assert np.allclose(G_even, G_odd, rtol=1e-12)

    def test_node_count_floor(self):
        # Validation rejects a one-point grid, so the history is built by hand.
        history = history_from_bearings([0.0], [[0.6435011087932844]])
        with pytest.raises(ValueError, match="at least 2 grid nodes, got 1"):
            gramian(PolynomialTrajectory(0.0, ((0.0, 0.0),)), history, (0,))

    def test_positive_semidefinite_on_random_scenarios(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scenario = random_scenario(rng, target_order_max=1)
            for G in gramian(scenario.observer, measure_scenario(scenario),
                             scenario.effective_orders()).blocks():
                eigvals = np.linalg.eigvalsh(G)
                assert eigvals[0] >= -1e-10 * eigvals[-1]

    def test_refinement_converged(self):
        scenario = random_scenario(np.random.default_rng(31))
        base = check_observable(scenario)
        nodes = scenario.grid_points
        refined = replace(scenario, grid_points=2 * nodes)
        refined_ratios = gramian(refined.observer, measure_scenario(refined),
                                 refined.effective_orders()).per_target_sigma_ratios
        for refined_ratio, ratio in zip(refined_ratios, base.per_target_sigma_ratios,
                                        strict=True):
            assert abs(refined_ratio - ratio) < 0.01 * ratio


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


def in_time_unit(scenario, k):
    """The same scenario with time measured in units of k seconds: t -> t / k, a_j -> a_j k^j."""
    def rescaled(traj):
        return PolynomialTrajectory(traj.ref_time / k, tuple(
            (a[0] * k ** j, a[1] * k ** j) for j, a in enumerate(traj.coeffs)))
    return replace(scenario, observer=rescaled(scenario.observer),
                   targets=tuple(replace(t, trajectory=rescaled(t.trajectory))
                                 for t in scenario.targets),
                   t_start=scenario.t_start / k, t_end=scenario.t_end / k)


UNITS = (1e-3, 1.0, 60.0, 3600.0)  # ms, s, min, h


class TestTimeUnit:
    def test_verdict_and_ratios_do_not_depend_on_the_time_unit(self):
        for seed in range(200):
            scenario = random_scenario(np.random.default_rng(seed), target_order_max=3)
            base = check_observable(scenario)
            for k in UNITS:
                report = check_observable(in_time_unit(scenario, k))
                assert report.rank_decision == base.rank_decision, (seed, k)
                assert np.allclose(report.per_target_sigma_ratios,
                                   base.per_target_sigma_ratios, rtol=1e-9, atol=0), (seed, k)

    def test_verdict_is_taken_per_target_block(self):
        # Orders (2, 0): the order-2 block's largest singular value exceeds the
        # order-0 block's, so a ratio taken across blocks would sit 19 % below
        # the worst block's own ratio and would flip the verdict at this tol.
        scenario = random_scenario(np.random.default_rng(2), target_order_max=2)
        report = check_observable(scenario)
        ratio = report.sigma_ratio
        assert ratio == min(report.per_target_sigma_ratios)
        svals = report.singular_values
        assert svals.min() / svals.max() < 0.95 * ratio
        assert check_observable(scenario, 0.99 * ratio).rank_decision == OBSERVABLE
        below = check_observable(scenario, 1.01 * ratio)
        assert below.rank_decision == UNOBSERVABLE
        worst = int(np.argmin(report.per_target_sigma_ratios))
        for i, part in enumerate(split_state(below.null_space, below.orders)):
            assert np.any(part != 0) == (i == worst)

    def test_seed_3_observable_in_every_unit(self):
        # Orders (1, 0) under an order-3 observer: the ratio of the old
        # global, raw-seconds criterion fell from 2.4e-5 in s to 2.4e-11 in ms.
        scenario = random_scenario(np.random.default_rng(3))
        assert scenario.effective_orders() == (1, 0)
        for k in UNITS:
            assert check_observable(in_time_unit(scenario, k)).rank_decision == OBSERVABLE, k


class TestSeparation:
    def test_opposite_bearings_are_collinear(self):
        assert separation_mod_pi(0.0, np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_maximal(self):
        assert separation_mod_pi(0.0, np.pi / 2) == pytest.approx(np.pi / 2)

    def test_modulo_arithmetic(self):
        assert separation_mod_pi(0.1, 3.3) == pytest.approx(3.2 - np.pi)

    def test_fmod_equals_mod_on_non_negative_differences(self):
        """separation_mod_pi reduces |d| with np.fmod, which equals np.mod for d >= 0."""
        rng = np.random.default_rng(11)
        d = np.concatenate([
            [0.0, -0.0, 5e-324, np.nextafter(np.pi, -np.inf), np.nextafter(np.pi, np.inf),
             1e300, np.finfo(float).max],
            np.arange(100) * np.pi,
            rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.integers(-300, 300, 1000)])
        assert (np.fmod(np.abs(d), np.pi) == np.mod(np.abs(d), np.pi)).all()
        reduced = np.mod(np.abs(d), np.pi)
        expected = np.minimum(reduced, np.pi - reduced)
        assert np.array_equal(separation_mod_pi(np.zeros_like(d), d), expected)
        assert [separation_mod_pi(0.0, x) for x in d] == expected.tolist()

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


def reference_min_separation(history):
    # Per-pair loop the vectorised scan must reproduce, ties included.
    m = history.num_targets
    best = (np.inf, (0, 1), float(history.times[0]))
    for i in range(m):
        for j in range(i + 1, m):
            sep = separation_mod_pi(history.bearings[i], history.bearings[j])
            k = int(np.argmin(sep))
            if sep[k] < best[0]:
                best = (float(sep[k]), (i, j), float(history.times[k]))
    return best


def reference_collinearity(history, collinearity_tol):
    # Per-pair, per-node run scan the vectorised one must reproduce.
    m = history.num_targets
    events = []
    times = history.times
    for i in range(m):
        for j in range(i + 1, m):
            sep = separation_mod_pi(history.bearings[i], history.bearings[j])
            below = sep < collinearity_tol
            k = 0
            while k < len(times):
                if below[k]:
                    start = k
                    while k + 1 < len(times) and below[k + 1]:
                        k += 1
                    events.append(CollinearityEvent(
                        pair=(i, j),
                        t_start=float(times[start]),
                        t_end=float(times[k]),
                        separation_min=float(np.min(sep[start:k + 1])),
                    ))
                k += 1
    return events


@st.composite
def planted_histories(draw):
    """Random bearings with repeated values (tied minima) and planted collinear
    runs of any length, including single nodes and runs touching either end."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from([0.0, 5e-4, 1.0, np.pi / 2, -np.pi]),
                      st.floats(-np.pi, np.pi))
    bearings = np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                      min_size=m, max_size=m)))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        start = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
        stop = draw(st.sampled_from([start + 1, n]) | st.integers(start + 1, n))
        shift = draw(st.sampled_from([0.0, np.pi, -np.pi, 2e-4]))
        bearings[j, start:stop] = bearings[i, start:stop] + shift
    return history_from_bearings(np.linspace(0.0, 5.0, n), bearings)


@settings(max_examples=at_least(400))
@given(history=planted_histories(), tol=st.sampled_from([1e-3, 0.3]))
def test_pair_scans_match_per_pair_loops(history, tol):
    assert bearing_separation_mod_pi(history) == reference_min_separation(history)
    assert detect_collinearity(history, tol) == reference_collinearity(history, tol)


def assert_scans_match_loops(history, tol):
    assert bearing_separation_mod_pi(history) == reference_min_separation(history)
    assert detect_collinearity(history, tol) == reference_collinearity(history, tol)


class TestSortedPairScans:
    """Candidates come from the bearings sorted modulo pi at each node; the
    pairs d apart in that order and the pairs across the 0/pi wrap."""

    def test_tied_minimum_is_not_an_adjacent_pair(self):
        # Modulo pi the bearings are 0, 1.48e-93, 0, 0, 0. Pair (0, 1) ties at
        # exactly 0 with (0, 2), and the zeros of targets 2-4 sort between its two.
        history = history_from_bearings(np.array([0.0]),
                                        [[np.pi], [1.48e-93], [0.0], [0.0], [0.0]])
        assert bearing_separation_mod_pi(history) == (0.0, (0, 1), 0.0)
        assert_scans_match_loops(history, 1e-3)

    def test_closest_pair_across_the_wrap(self):
        times = np.linspace(0.0, 4.0, 5)
        spread = [1e-4, 0.7, 1.4, 2.1, np.pi - 1e-4]
        history = history_from_bearings(times, [np.full(5, b) for b in spread])
        sep, pair, _ = bearing_separation_mod_pi(history)
        assert pair == (0, 4) and sep == pytest.approx(2e-4)
        assert_scans_match_loops(history, 1e-3)

    def test_collinear_run_across_the_wrap(self):
        # Target 1 passes through bearing 0 (and so pi) while target 0 sits
        # just below pi: modulo pi the pair lies at opposite ends of [0, pi).
        times = np.linspace(0.0, 8.0, 9)
        history = history_from_bearings(times, [np.full(9, np.pi - 2e-4),
                                                np.linspace(-2e-3, 2e-3, 9),
                                                np.full(9, 1.0), np.full(9, -1.2)])
        events = detect_collinearity(history, 1e-3)
        assert [e.pair for e in events] == [(0, 1)]
        assert events[0].t_start < 4.0 < events[0].t_end
        assert_scans_match_loops(history, 1e-3)

    def test_cluster_of_four_within_tolerance(self):
        # Targets 0-3 are 3e-4 apart: pair (0, 3) is three places apart in
        # sorted order, and every pair of the cluster is collinear.
        times = np.linspace(0.0, 3.0, 4)
        bearings = [np.full(4, 3e-4 * i) for i in range(4)] + [np.full(4, 1.0),
                                                               np.full(4, 2.0)]
        history = history_from_bearings(times, bearings)
        events = detect_collinearity(history, 1e-3)
        assert [e.pair for e in events] == [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert_scans_match_loops(history, 1e-3)

    def test_tolerance_above_a_quarter_turn(self):
        # Every pair is within pi/2 < tol, and both its gaps round the circle
        # (they sum to pi) can fall below the tolerance: one event per pair.
        times = np.linspace(0.0, 4.0, 5)
        rng = np.random.default_rng(5)
        history = history_from_bearings(times, rng.uniform(-np.pi, np.pi, (3, 5)))
        events = detect_collinearity(history, 2.0)
        assert [(e.pair, e.t_start, e.t_end) for e in events] == [
            ((i, j), 0.0, 4.0) for i in range(3) for j in range(i + 1, 3)]
        assert_scans_match_loops(history, 2.0)


@st.composite
def clustered_histories(draw):
    """2 to 40 targets in a few tight clusters, centred on 0, +-pi or anywhere,
    with spreads around the default collinearity tolerance (1e-3): many pairs
    near it, long runs of close bearings, and clusters across the 0/pi wrap."""
    m, n = draw(st.integers(2, 40)), draw(st.integers(1, 8))
    centre = st.sampled_from([0.0, np.pi, -np.pi]) | st.floats(-np.pi, np.pi)
    centres = draw(st.lists(centre, min_size=1, max_size=4))
    spread = draw(st.sampled_from([0.0, 1e-4, 5e-4, 1e-3, 2e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bearings = rng.choice(centres, size=(m, 1)) + spread * rng.uniform(-1.0, 1.0, (m, n))
    return history_from_bearings(np.linspace(0.0, 5.0, n), bearings)


@given(history=clustered_histories())
def test_clustered_scans_match_per_pair_loops(history):
    assert_scans_match_loops(history, 1e-3)


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

    @pytest.mark.parametrize("nodes", [2, 3])
    def test_starved_grid_rank_deficient(self, nodes):
        # Two order-1 targets: 8 unknowns, but only 2 * nodes measurement rows.
        scenario = replace(random_scenario(np.random.default_rng(0)), grid_points=nodes)
        assert 2 * sum(p + 1 for p in scenario.effective_orders()) > 2 * nodes
        assert not stacked_rank_observable(scenario)
        assert check_observable(scenario).rank_decision == UNOBSERVABLE

    @pytest.mark.parametrize("nodes", [2, 3])
    def test_starved_grid_null_vector(self, nodes):
        # Fewer nodes than a block's 4 unknowns: the invisible direction lies
        # among the singular values the grid is too short to produce.
        rng = np.random.default_rng(4)
        scenario = random_scenario(rng, target_order_max=1)
        while scenario.effective_orders() != (1, 1):
            scenario = random_scenario(rng, target_order_max=1)
        scenario = replace(scenario, grid_points=nodes)
        report = check_observable(scenario)
        y = report.null_space
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        history = measure_scenario(scenario)
        for t, thetas in zip(history.times, history.bearings.T):
            for theta, p, y_i in zip(thetas, report.orders, split_state(y, report.orders)):
                row = pseudo_row(theta, p) @ transition_matrix(p, t, scenario.t_start)
                assert abs(row @ y_i) < 1e-12
        with pytest.raises(DegenerateSystem):
            estimate_initial_state(scenario.observer, history, list(report.orders))


    def test_under_sampled_grid_through_check_observable(self):
        # One order-3 target on 2 nodes: 8 unknowns, 2 rows, so the R factor
        # is padded with zero rows and 6 singular values are exactly zero.
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (3.0, 1.0), (0.5, -0.4),
                                                (0.1, 0.05), (0.01, 0.02))),
            targets=(TargetConfig(PolynomialTrajectory(
                0.0, ((400.0, 300.0), (1.0, -2.0), (0.3, 0.1), (0.05, -0.02)))),),
            t_start=0.0, t_end=10.0, grid_points=2,
        )
        report = check_observable(scenario)
        assert report.rank_decision == UNOBSERVABLE
        assert len(report.singular_values) == 8
        assert np.all(report.singular_values[:2] > 0)
        assert np.array_equal(report.singular_values[2:], np.zeros(6))
        y = report.null_space
        assert np.all(np.isfinite(y))
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        history = measure_scenario(scenario)
        for t, theta in zip(history.times, history.bearings[0]):
            row = pseudo_row(theta, 3) @ transition_matrix(3, t, scenario.t_start)
            assert abs(row @ y) < 1e-12


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
