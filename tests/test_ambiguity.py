import json

import numpy as np
import pytest

from obskit.ambiguity import (AMBIGUOUS, BEARING, COMBINED, DISTINGUISHABLE, DOPPLER,
                              DopplerAmbiguitySpec, check_combined_condition,
                              check_doppler_sufficiency, default_doppler_tolerance,
                              generate_bearing_ambiguous, generate_doppler_ambiguous,
                              verify_ambiguity)
from obskit.errors import NonPositiveAlpha, NonPositiveRange
from obskit.scenario_io import read_trajectory_csv, write_trajectory_csv
from obskit.selftest import (random_alpha, random_doppler_spec, random_observer,
                             random_polynomial)
from obskit.trajectory import PolynomialTrajectory, SampledTrajectory, relative_state

C_SOUND = 1500.0


def ranges_match_relation(generated, base, observer, spec):
    """Max relative gap between the generated geometry's ranges and the range
    relation l' s_j + b' + c (1 - l') (t - t_i), with s_i measured from the
    counterpart's positions."""
    times = generated.times
    s_j = relative_state(base, observer, times).range
    s_i = np.linalg.norm(generated.positions - observer.eval(times), axis=1)
    predicted = spec.l_prime * s_j + spec.b_prime + spec.c * (1.0 - spec.l_prime) * (
        times - times[0])
    return float(np.max(np.abs(s_i - predicted) / predicted))


def base_geometry(unit=1.0):
    """The base target and the observer, with times counted in ``unit`` seconds."""
    observer = PolynomialTrajectory(0.0, ((0.0, 0.0), (4.0 / unit, 1.0 / unit)))
    base = PolynomialTrajectory(0.0, ((1500.0, 2000.0), (-6.0 / unit, 3.0 / unit)))
    return base, observer


def short_grid(points=101, window=1.0):
    return np.linspace(0.0, window, points)


class TestGenerateDopplerAmbiguous:
    def test_identity_spec_reproduces_base(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=0.0, rotation=0.0, c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        expected = np.array([base.eval(t) for t in grid])
        assert np.allclose(generated.positions, expected, atol=1e-9)

    def test_pure_range_offset_keeps_directions_and_doppler(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=100.0, rotation=0.0,
                                    c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        for k, t in enumerate(grid):
            state = relative_state(base, observer, t)
            rel = generated.positions[k] - observer.eval(t)
            assert np.linalg.norm(rel) == pytest.approx(state.range + 100.0)
        cert = verify_ambiguity(generated, base, observer, (1000.0, 1000.0),
                                C_SOUND, grid, regime=COMBINED)
        assert cert.residual_bearing < 1e-12
        assert cert.residual_doppler < 1e-9 * 1000.0
        assert cert.verdict == AMBIGUOUS

    def test_tonal_ratio_with_rotation_splits_regimes(self):
        # l' = 2 halves the radiated tonal; the rotating line of sight breaks
        # bearings while Doppler stays matched
        base, observer = base_geometry()
        grid = short_grid(window=1.0)
        spec = DopplerAmbiguitySpec(l_prime=2.0, b_prime=0.0,
                                    rotation=lambda t: 0.3 * t, c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        tonals = (1000.0 / 2.0, 1000.0)
        cert = verify_ambiguity(generated, base, observer, tonals, C_SOUND, grid,
                                regime=DOPPLER)
        assert cert.verdict == AMBIGUOUS
        assert cert.residual_doppler < 1e-9 * 1000.0 + 10.0 * (grid[1] - grid[0]) ** 2
        assert cert.residual_bearing > 0.1

    def test_infeasible_window_raises_with_time(self):
        base, observer = base_geometry()
        grid = np.linspace(0.0, 30.0, 301)
        spec = DopplerAmbiguitySpec(l_prime=2.0, b_prime=0.0, rotation=0.0,
                                    c=C_SOUND)
        with pytest.raises(NonPositiveRange) as excinfo:
            generate_doppler_ambiguous(base, observer, spec, grid)
        assert excinfo.value.time is not None

    def test_invalid_l_prime_rejected(self):
        with pytest.raises(ValueError):
            DopplerAmbiguitySpec(l_prime=0.0, b_prime=0.0, rotation=0.0)

    def test_range_relation_round_trip(self):
        rng = np.random.default_rng(19)
        grid = np.linspace(0.0, 2.0, 201)
        for _ in range(10):
            base = random_polynomial(rng, int(rng.integers(0, 3)),
                                     pos_scale=rng.uniform(800, 3000))
            observer = random_observer(rng, 2)
            spec = random_doppler_spec(rng, base, observer, grid)
            generated = generate_doppler_ambiguous(base, observer, spec, grid)
            assert ranges_match_relation(generated, base, observer, spec) < 1e-9


class TestGenerateBearingAmbiguous:
    def test_unit_alpha_reproduces_base(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        generated = generate_bearing_ambiguous(base, observer, 1.0, grid)
        expected = np.array([base.eval(t) for t in grid])
        assert np.allclose(generated.positions, expected, atol=1e-12)

    def test_constant_doubling_preserves_bearings_doubles_ranges(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        generated = generate_bearing_ambiguous(base, observer, 2.0, grid)
        cert = verify_ambiguity(generated, base, observer, None, C_SOUND, grid,
                                regime=BEARING)
        assert cert.residual_bearing < 1e-12
        assert cert.verdict == AMBIGUOUS
        for k, t in enumerate(grid):
            state = relative_state(base, observer, t)
            rel = generated.positions[k] - observer.eval(t)
            assert np.linalg.norm(rel) == pytest.approx(2.0 * state.range)

    def test_oscillating_alpha_bearing_tight_doppler_loose(self):
        base, observer = base_geometry()
        grid = short_grid(points=201, window=10.0)
        generated = generate_bearing_ambiguous(
            base, observer, lambda t: 1.0 + 0.5 * np.sin(t), grid)
        cert = verify_ambiguity(generated, base, observer, (1000.0, 1000.0),
                                C_SOUND, grid, regime=BEARING)
        assert cert.residual_bearing < 1e-10
        assert cert.verdict == AMBIGUOUS
        assert cert.residual_doppler > 1e-3 * 1000.0

    def test_non_positive_alpha_rejected(self):
        base, observer = base_geometry()
        grid = short_grid()
        with pytest.raises(NonPositiveAlpha) as excinfo:
            generate_bearing_ambiguous(base, observer,
                                       lambda t: 1.0 - 3.0 * t, grid)
        assert excinfo.value.time is not None


class TestProfileSamples:
    """``rotation`` and ``alpha`` may be per-node sample arrays instead of callables."""

    PROFILES = {DOPPLER: lambda t: 0.05 * t, BEARING: lambda t: 1.0 + 0.5 * np.sin(0.5 * t)}

    @staticmethod
    def generate(generator, profile, grid):
        base, observer = base_geometry()
        if generator == DOPPLER:
            spec = DopplerAmbiguitySpec(l_prime=1.02, b_prime=400.0, rotation=profile,
                                        c=C_SOUND)
            return generate_doppler_ambiguous(base, observer, spec, grid)
        return generate_bearing_ambiguous(base, observer, profile, grid)

    @pytest.mark.parametrize("generator", [DOPPLER, BEARING])
    def test_samples_match_the_callable(self, generator):
        grid = short_grid(points=201, window=10.0)
        profile = self.PROFILES[generator]
        samples = np.array([float(profile(t)) for t in grid])
        from_callable = self.generate(generator, profile, grid)
        from_samples = self.generate(generator, samples, grid)
        assert np.array_equal(from_samples.positions, from_callable.positions)

    @pytest.mark.parametrize("generator,name", [(DOPPLER, "rotation"), (BEARING, "alpha")])
    def test_wrong_length_rejected(self, generator, name):
        grid = short_grid(points=201, window=10.0)
        samples = np.array([float(self.PROFILES[generator](t)) for t in grid[:-1]])
        with pytest.raises(ValueError, match=f"{name} samples must match the grid length 201"):
            self.generate(generator, samples, grid)


class TestVerifyAmbiguity:
    def test_identical_pair_ambiguous_in_every_regime(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        for regime in (DOPPLER, BEARING, COMBINED):
            cert = verify_ambiguity(base, base, observer, (800.0, 800.0),
                                    C_SOUND, grid, regime=regime)
            assert cert.verdict == AMBIGUOUS
            assert cert.residual_bearing == 0.0
            assert cert.residual_doppler == 0.0

    def test_doppler_pair_distinguishable_by_bearings(self):
        base, observer = base_geometry()
        grid = short_grid(window=1.0)
        spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=50.0,
                                    rotation=lambda t: 0.2 * t, c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        doppler_cert = verify_ambiguity(generated, base, observer,
                                        (900.0, 900.0), C_SOUND, grid,
                                        regime=DOPPLER)
        bearing_cert = verify_ambiguity(generated, base, observer,
                                        (900.0, 900.0), C_SOUND, grid,
                                        regime=BEARING)
        assert doppler_cert.verdict == AMBIGUOUS
        assert bearing_cert.verdict == DISTINGUISHABLE

    def test_bearing_pair_distinguishable_by_doppler(self):
        base, observer = base_geometry()
        grid = short_grid(points=201, window=10.0)
        generated = generate_bearing_ambiguous(base, observer, random_alpha(
            np.random.default_rng(3)), grid)
        cert = verify_ambiguity(generated, base, observer, (700.0, 700.0),
                                C_SOUND, grid, regime=COMBINED)
        assert cert.residual_bearing < 1e-10
        assert cert.residual_doppler > cert.tol_f
        assert cert.verdict == DISTINGUISHABLE

    def test_missing_tonals_restricted_to_bearing_regime(self):
        base, observer = base_geometry()
        grid = short_grid()
        with pytest.raises(ValueError):
            verify_ambiguity(base, base, observer, None, C_SOUND, grid,
                             regime=DOPPLER)

    def test_sampled_trajectory_needs_three_grid_times(self):
        base, observer = base_geometry()
        grid = short_grid(points=2)
        sampled = SampledTrajectory(grid, np.array([base.eval(t) for t in grid]))
        with pytest.raises(ValueError, match="at least 3 grid times"):
            verify_ambiguity(sampled, base, observer, None, C_SOUND, grid, regime=BEARING)

    @pytest.mark.parametrize("unit", [1.0, 1e-10], ids=["s", "1e-10 s"])
    def test_sampled_times_off_the_grid_rejected_in_any_time_unit(self, unit):
        # One geometry on a 10 s window; the copy of the base is sampled
        # half a window later.
        base, observer = base_geometry(unit)
        grid = short_grid(window=10.0 * unit)
        later = grid + 5.0 * unit
        shifted = SampledTrajectory(later, base.eval(later))
        with pytest.raises(ValueError, match="must coincide with the grid"):
            verify_ambiguity(shifted, base, observer, None, C_SOUND, grid, regime=BEARING)

    @pytest.mark.parametrize("unit", [1.0, 1e-10], ids=["s", "1e-10 s"])
    def test_only_the_trajectorys_own_times_skip_the_grid_check(self, unit, monkeypatch):
        base, observer = base_geometry(unit)
        sampled = SampledTrajectory(short_grid(window=10.0 * unit),
                                    base.eval(short_grid(window=10.0 * unit)))
        checks = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: checks.append(1) or allclose(*a, **k))
        for grid in (sampled.times, sampled.times.copy()):
            cert = verify_ambiguity(sampled, base, observer, None, C_SOUND, grid,
                                    regime=BEARING)
            assert cert.verdict == AMBIGUOUS
        assert len(checks) == 1  # the copy is checked
        off_grid = sampled.times.copy()
        off_grid[1] += 1e-6 * unit
        with pytest.raises(ValueError, match="must coincide with the grid"):
            verify_ambiguity(sampled, base, observer, None, C_SOUND, off_grid, regime=BEARING)

    @pytest.mark.parametrize("unit", [1.0, 1e-10], ids=["s", "1e-10 s"])
    def test_csv_round_trip_verifies_in_any_time_unit(self, tmp_path, unit):
        base, observer = base_geometry(unit)
        generated = generate_bearing_ambiguous(base, observer, 1.5,
                                               short_grid(window=10.0 * unit))
        path = tmp_path / "counterpart.csv"
        with open(path, "w", encoding="utf-8") as out:
            write_trajectory_csv(generated, out)
        candidate = read_trajectory_csv(path)
        cert = verify_ambiguity(candidate, base, observer, None, C_SOUND, candidate.times,
                                regime=BEARING)
        assert cert.verdict == AMBIGUOUS

    def test_certificate_serializes_both_trajectory_kinds(self):
        base, observer = base_geometry()
        grid = short_grid(window=2.0)
        generated = generate_bearing_ambiguous(base, observer, 1.5, grid)
        cert = verify_ambiguity(generated, base, observer, None, C_SOUND, grid,
                                regime=BEARING)
        data = cert.to_dict()
        assert data["trajectory_i"]["type"] == "sampled"
        assert data["trajectory_j"]["type"] == "polynomial"
        assert data["verdict"] == AMBIGUOUS
        assert json.loads(json.dumps(data)) == data


class TestCombinedCondition:
    def test_identical_pair_satisfies_both_conditions(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=0.0, rotation=0.0,
                                    c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        report = check_combined_condition(generated, base, observer, spec, grid)
        assert report.combined_ambiguous
        assert report.max_eigen_residual < 1e-12
        assert report.max_alpha_deviation < 1e-8
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_rotation_breaks_eigenvector_condition(self):
        base, observer = base_geometry()
        grid = short_grid(window=1.0)
        spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=0.0,
                                    rotation=lambda t: 0.3 * t, c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        report = check_combined_condition(generated, base, observer, spec, grid)
        # a nontrivial planar rotation has no real eigenvector
        assert report.max_eigen_residual > 0.25
        assert not report.eigenvector_condition_holds
        assert not report.combined_ambiguous

    def test_pure_scaling_keeps_eigenvector_but_not_unit_alpha(self):
        base, observer = base_geometry()
        grid = short_grid(window=1.0)
        spec = DopplerAmbiguitySpec(l_prime=2.0, b_prime=0.0, rotation=0.0,
                                    c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        report = check_combined_condition(generated, base, observer, spec, grid)
        assert report.eigenvector_condition_holds
        assert not report.alpha_is_unity
        assert not report.combined_ambiguous
        # at the window start alpha equals l'
        assert report.alphas[0] == pytest.approx(2.0)

    def test_position_identity_holds_for_generated_pairs(self):
        rng = np.random.default_rng(29)
        grid = np.linspace(0.0, 2.0, 201)
        for _ in range(10):
            base = random_polynomial(rng, int(rng.integers(0, 3)),
                                     pos_scale=rng.uniform(800, 3000))
            observer = random_observer(rng, 2)
            spec = random_doppler_spec(rng, base, observer, grid)
            generated = generate_doppler_ambiguous(base, observer, spec, grid)
            report = check_combined_condition(generated, base, observer, spec, grid)
            assert float(np.max(report.position_residuals)) < 1e-8


class TestDopplerSufficiency:
    def test_identical_pair_meets_all_three(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        report = check_doppler_sufficiency(base, base, observer, (800.0, 800.0),
                                           C_SOUND, grid)
        assert report.tonals_equal
        assert report.transform_is_identity
        assert report.ranges_equal
        assert report.all_conditions_hold
        assert report.residual_doppler == 0.0
        assert report.implication_holds

    def test_unequal_tonals_still_doppler_matched(self):
        # the sufficient triple is not necessary: an l' != 1 pair fails
        # condition (1) yet keeps the Doppler residual below tolerance
        base, observer = base_geometry()
        grid = short_grid(window=1.0)
        spec = DopplerAmbiguitySpec(l_prime=1.1, b_prime=100.0, rotation=0.0,
                                    c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        tonals = (1000.0 / 1.1, 1000.0)
        report = check_doppler_sufficiency(generated, base, observer, tonals,
                                           C_SOUND, grid)
        assert not report.tonals_equal
        assert not report.all_conditions_hold
        assert report.residual_doppler < report.tol_f
        assert report.implication_holds

    def test_translated_pair_fails_conditions_and_doppler(self):
        # same velocity, offset position, same tonal: ranges and range rates
        # differ, so the Doppler histories split
        observer = PolynomialTrajectory(0.0, ((0.0, 0.0),))
        target = PolynomialTrajectory(0.0, ((800.0, 600.0), (3.0, 1.0)))
        shifted = PolynomialTrajectory(0.0, ((850.0, 600.0), (3.0, 1.0)))
        grid = short_grid(points=1001, window=20.0)
        report = check_doppler_sufficiency(shifted, target, observer,
                                           (750.0, 750.0), C_SOUND, grid)
        assert report.tonals_equal
        assert not (report.transform_is_identity and report.ranges_equal)
        assert report.residual_doppler > report.tol_f
        assert report.implication_holds

    def test_reports_serialize(self):
        base, observer = base_geometry()
        grid = short_grid()
        report = check_doppler_sufficiency(base, base, observer, (800.0, 800.0),
                                           C_SOUND, grid)
        assert report.to_dict()["all_conditions_hold"] is True


class TestCombinedRigidity:
    def test_no_generated_pair_is_ambiguous_in_both_regimes(self):
        # doppler pairs carry a nontrivial rotation, bearing pairs a
        # non-constant scale; neither can match both histories unless the
        # trajectories coincide
        rng = np.random.default_rng(37)
        grid = np.linspace(0.0, 2.0, 201)
        long_grid = np.linspace(0.0, 10.0, 201)
        for _ in range(15):
            base = random_polynomial(rng, int(rng.integers(0, 3)),
                                     pos_scale=rng.uniform(800, 3000))
            observer = random_observer(rng, 2)
            f0 = float(rng.uniform(300, 3000))

            spec = random_doppler_spec(rng, base, observer, grid)
            pair_d = generate_doppler_ambiguous(base, observer, spec, grid)
            cert = verify_ambiguity(pair_d, base, observer,
                                    (f0 / spec.l_prime, f0), spec.c, grid,
                                    regime=COMBINED)
            base_positions = np.array([base.eval(t) for t in grid])
            gap = float(np.max(np.linalg.norm(pair_d.positions - base_positions,
                                              axis=1)))
            doppler_ok = cert.residual_doppler < cert.tol_f
            bearing_ok = cert.residual_bearing < cert.tol_theta
            assert not (doppler_ok and bearing_ok) or gap < 1e-6

            pair_b = generate_bearing_ambiguous(base, observer,
                                                random_alpha(rng), long_grid)
            cert_b = verify_ambiguity(pair_b, base, observer, (f0, f0),
                                      C_SOUND, long_grid, regime=COMBINED)
            base_positions = np.array([base.eval(t) for t in long_grid])
            gap_b = float(np.max(np.linalg.norm(pair_b.positions - base_positions,
                                                axis=1)))
            doppler_ok = cert_b.residual_doppler < cert_b.tol_f
            bearing_ok = cert_b.residual_bearing < cert_b.tol_theta
            assert not (doppler_ok and bearing_ok) or gap_b < 1e-6


class TestDefaultTolerance:
    def test_scales_with_tonal_and_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        tol = default_doppler_tolerance(1000.0, grid)
        assert tol == pytest.approx(1e-6 + 10.0 * 0.01 ** 2)


class TestNonFiniteInputs:
    """NaN and infinity fail the positivity checks' `x <= 0` silently; reject them."""

    NAN_PROFILES = {"scalar": float("nan"),
                    "array": np.where(np.arange(101) == 7, np.nan, 0.5),
                    "callable": lambda t: np.nan if t > 0.5 else 0.5}

    @pytest.mark.parametrize("kind", sorted(NAN_PROFILES))
    def test_bearing_generator_rejects_nan_alpha(self, kind):
        base, observer = base_geometry()
        with pytest.raises(ValueError, match="alpha must be finite on the grid, got nan"):
            generate_bearing_ambiguous(base, observer, self.NAN_PROFILES[kind], short_grid())

    @pytest.mark.parametrize("kind", sorted(NAN_PROFILES))
    def test_doppler_generator_and_eigencheck_reject_nan_rotation(self, kind):
        base, observer = base_geometry()
        spec = DopplerAmbiguitySpec(1.0, 100.0, self.NAN_PROFILES[kind], c=C_SOUND)
        with pytest.raises(ValueError, match="rotation must be finite on the grid, got nan"):
            generate_doppler_ambiguous(base, observer, spec, short_grid())
        with pytest.raises(ValueError, match="rotation must be finite on the grid, got nan"):
            check_combined_condition(base, base, observer, spec, short_grid())

    @pytest.mark.parametrize("l_prime,b_prime,c,name", [
        (1.0, float("nan"), C_SOUND, "b_prime"),
        (1.0, float("inf"), C_SOUND, "b_prime"),
        (1.0, -float("inf"), C_SOUND, "b_prime"),
        (float("inf"), 0.0, C_SOUND, "l_prime"),
        (float("nan"), 0.0, C_SOUND, "l_prime"),
        (1.0, 0.0, float("inf"), "c"),
    ])
    def test_spec_rejects_non_finite_numbers(self, l_prime, b_prime, c, name):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            DopplerAmbiguitySpec(l_prime, b_prime, 0.0, c=c)


def relative_positions(traj, observer, times):
    if isinstance(traj, SampledTrajectory):
        return traj.positions - observer.eval(times)
    return relative_state(traj, observer, times).position


def combined_oracle(traj_i, traj_j, observer, spec, times):
    """Alphas, eigen residuals and position residuals of the rigidity check,
    from W rebuilt as a rotation of the base relative positions: the Rayleigh
    quotient by einsum, the off-direction residual by norms (0 where W = 0)
    and the position identity pos_i - pos_j = (W - I) s_j."""
    rel_i = relative_positions(traj_i, observer, times)
    rel_j = relative_positions(traj_j, observer, times)
    s_j = np.linalg.norm(rel_j, axis=1)
    psi = np.array([float(spec.rotation(t)) for t in times]) if callable(
        spec.rotation) else np.broadcast_to(np.asarray(spec.rotation, float), times.shape)
    scale = spec.l_prime + (
        spec.b_prime + spec.c * (1.0 - spec.l_prime) * (times - times[0])) / s_j
    cos, sin = np.cos(psi), np.sin(psi)
    rotated = np.column_stack([cos * rel_j[:, 0] - sin * rel_j[:, 1],
                               sin * rel_j[:, 0] + cos * rel_j[:, 1]])
    w_rel = scale[:, None] * rotated
    alphas = np.einsum("ij,ij->i", rel_j, w_rel) / s_j ** 2
    w_norm = np.abs(scale) * s_j
    eigen = np.linalg.norm(w_rel - alphas[:, None] * rel_j, axis=1) / np.where(
        w_norm > 0, w_norm, 1.0)
    position = np.linalg.norm((rel_i - rel_j) - (w_rel - rel_j), axis=1) / s_j
    return alphas, eigen, position


def transform_deviation_oracle(traj_i, traj_j, observer, times):
    """Max |W - I| with W = (s_i / s_j) R(delta), delta the angle from u_j to u_i."""
    rel_i = relative_positions(traj_i, observer, times)
    rel_j = relative_positions(traj_j, observer, times)
    scale = np.linalg.norm(rel_i, axis=1) / np.linalg.norm(rel_j, axis=1)
    dot = np.einsum("ij,ij->i", rel_i, rel_j)
    cross = rel_j[:, 0] * rel_i[:, 1] - rel_j[:, 1] * rel_i[:, 0]
    delta = np.arctan2(cross, dot)
    return float(np.max(np.sqrt((scale * np.cos(delta) - 1.0) ** 2
                                + (scale * np.sin(delta)) ** 2)))


class TestClosedFormsMatchOracles:
    """The reports read their values off W's closed form; the oracles rebuild W."""

    @staticmethod
    def assert_matches(traj_i, traj_j, observer, spec, grid):
        report = check_combined_condition(traj_i, traj_j, observer, spec, grid)
        alphas, eigen, position = combined_oracle(traj_i, traj_j, observer, spec, grid)
        assert np.allclose(report.alphas, alphas, rtol=0.0, atol=1e-12)
        assert np.allclose(report.eigen_residuals, eigen, rtol=0.0, atol=1e-12)
        assert np.allclose(report.position_residuals, position, rtol=0.0, atol=1e-12)
        sufficiency = check_doppler_sufficiency(traj_i, traj_j, observer,
                                                (1000.0, 1000.0), spec.c, grid)
        assert sufficiency.max_transform_deviation == pytest.approx(
            transform_deviation_oracle(traj_i, traj_j, observer, grid), rel=0.0, abs=1e-12)
        return report

    def test_random_generator_pairs(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0.0, 2.0, 201)
        for _ in range(20):
            base = random_polynomial(rng, int(rng.integers(0, 3)),
                                     pos_scale=rng.uniform(800, 3000))
            observer = random_observer(rng, 2)
            spec = random_doppler_spec(rng, base, observer, grid)
            generated = generate_doppler_ambiguous(base, observer, spec, grid)
            self.assert_matches(generated, base, observer, spec, grid)

    def test_rotation_of_pi(self):
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        spec = DopplerAmbiguitySpec(1.0, 100.0, np.pi, c=C_SOUND)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        report = self.assert_matches(generated, base, observer, spec, grid)
        assert np.all(report.alphas < -1.0)

    def test_range_relation_zero_at_one_node(self):
        # l' = 1 and b' = -s_j(t_k) put the range relation, and so W, at 0 at node k.
        base, observer = base_geometry()
        grid = short_grid(window=10.0)
        k = 37
        s_j = relative_state(base, observer, grid).range
        spec = DopplerAmbiguitySpec(1.0, -float(s_j[k]), lambda t: 0.3 * t, c=C_SOUND)
        assert spec.ranges(s_j, grid)[k] == 0.0
        shifted = PolynomialTrajectory(0.0, ((1600.0, 1900.0), (-5.0, 2.0)))
        report = self.assert_matches(shifted, base, observer, spec, grid)
        assert report.alphas[k] == 0.0 and report.eigen_residuals[k] == 0.0

    def test_b_prime_free_relation_is_the_written_out_expression(self):
        # selftest.random_doppler_spec draws the bench's specs from this b'-free relation.
        rng = np.random.default_rng(43)
        grid = np.linspace(0.0, 2.0, 1001)
        for _ in range(200):
            base = random_polynomial(rng, int(rng.integers(0, 3)),
                                     pos_scale=rng.uniform(800, 3000))
            observer = random_observer(rng, 2)
            l_prime = float(rng.uniform(0.9, 1.1))
            ranges = relative_state(base, observer, grid).range
            needed = l_prime * ranges + C_SOUND * (1.0 - l_prime) * (grid - grid[0])
            spec = DopplerAmbiguitySpec(l_prime, 0.0, 0.0, c=C_SOUND)
            assert np.array_equal(spec.ranges(ranges, grid), needed)
