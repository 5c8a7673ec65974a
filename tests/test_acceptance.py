"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures (visible with ``pytest -s`` or ``-rA``)."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from obskit import (PolynomialTrajectory, Scenario, TargetConfig, Tolerances,
                    check_combined_condition, check_doppler_sufficiency,
                    check_observable, cross_validate, estimate_initial_state,
                    generate_bearing_ambiguous, generate_doppler_ambiguous,
                    measure_scenario, state_from_trajectory, verify_ambiguity)
from obskit.ambiguity import AMBIGUOUS, COMBINED, DopplerAmbiguitySpec
from obskit.cli import run_cli
from obskit.estimator import DEGENERATE, UNIQUE, split_state
from obskit.observability import OBSERVABLE, UNOBSERVABLE
from obskit.selftest import (random_alpha, random_doppler_spec, random_observer,
                             random_polynomial, random_rank_scenario_conditioned,
                             random_scenario, stacked_rank_observable,
                             transition_suite)

from conftest import forget_kept
from oracles import pseudo_row, transition_matrix

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(n, detail):
    print(f"PASS criterion {n}: {detail}")


def two_static_targets_scenario():
    """Criterion 3 geometry: static targets at well-separated bearings,
    constant-velocity observer, each target individually observable."""
    return Scenario(
        observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (6.0, 0.0))),
        targets=(
            TargetConfig(PolynomialTrajectory(0.0, ((300.0, 700.0),))),
            TargetConfig(PolynomialTrajectory(0.0, ((-400.0, 600.0),))),
        ),
        t_start=0.0, t_end=30.0, grid_points=61,
    )


def estimate(scenario):
    history = measure_scenario(scenario)
    return estimate_initial_state(
        scenario.observer, history, list(scenario.effective_orders()),
        scenario.tolerances.rank_tol)


def recovery_error(scenario, result):
    truth = np.concatenate([
        state_from_trajectory(traj, scenario.t_start, p)
        for traj, p in zip(scenario.target_trajectories(),
                           scenario.effective_orders())
    ])
    return float(np.linalg.norm(result.x_initial_hat - truth)
                 / np.linalg.norm(truth))


def test_criterion_1_transition_matrix_oracle():
    # CPU time of this process: a busy host does not count against the bound.
    start = time.process_time()
    max_rel, max_semi = transition_suite(
        np.random.default_rng(101), states_per_order=100, max_order=5, steps=300)
    elapsed = time.process_time() - start
    assert max_rel < 1e-8
    assert max_semi < 1e-12
    assert elapsed < 5.0
    report(1, f"transition matrix vs RK4 rel err {max_rel:.2e}, "
              f"semigroup defect {max_semi:.2e}, {elapsed:.2f} s")


def test_criterion_2_pseudo_linear_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        scenario = random_scenario(rng, grid_points=41)
        history = measure_scenario(scenario)
        for i, traj in enumerate(scenario.target_trajectories()):
            for k, t in enumerate(history.times):
                rel = traj.eval(t) - scenario.observer.eval(t)
                theta = history.bearings[i, k]
                value = abs(np.cos(theta) * rel[0] - np.sin(theta) * rel[1])
                worst = max(worst, value / np.linalg.norm(rel))
    assert worst < 1e-10
    report(2, f"pseudo-linear identity residual {worst:.2e} (rel)")


def test_criterion_3_distinct_bearings_positive_case():
    scenario = two_static_targets_scenario()
    rep = check_observable(scenario)
    assert rep.min_pairwise_separation >= 0.2
    assert all(r > rep.rank_tol for r in rep.per_target_sigma_ratios)
    assert rep.rank_decision == OBSERVABLE
    result = estimate(scenario)
    err = recovery_error(scenario, result)
    assert result.uniqueness == UNIQUE
    assert err < 1e-6
    report(3, f"separated scenario observable (sigma ratio {rep.sigma_ratio:.2e}), "
              f"recovery error {err:.2e}")


def collinear_variants():
    # even k: both targets on the same ray; odd k: observer in between
    observer = PolynomialTrajectory(0.0, ((0.0, 0.0),))
    same_side = Scenario(
        observer=observer,
        targets=(
            TargetConfig(PolynomialTrajectory(0.0, ((800.0, 0.0), (2.0, 0.0)))),
            TargetConfig(PolynomialTrajectory(0.0, ((1600.0, 0.0), (4.0, 0.0)))),
        ),
        t_start=0.0, t_end=20.0, grid_points=81,
    )
    opposite = Scenario(
        observer=observer,
        targets=(
            TargetConfig(PolynomialTrajectory(0.0, ((800.0, 0.0), (2.0, 0.0)))),
            TargetConfig(PolynomialTrajectory(0.0, ((-600.0, 0.0), (-3.0, 0.0)))),
        ),
        t_start=0.0, t_end=20.0, grid_points=81,
    )
    return [("even k", same_side), ("odd k", opposite)]


def test_criterion_4_collinear_negative_case():
    details = []
    for label, scenario in collinear_variants():
        rep = check_observable(scenario)
        assert rep.rank_decision == UNOBSERVABLE
        assert rep.sigma_ratio < 1e-10
        y = rep.null_space
        parts = split_state(y, rep.orders)
        history = measure_scenario(scenario)
        worst = 0.0
        for k, t in enumerate(history.times):
            residual = [
                pseudo_row(theta, p) @ transition_matrix(p, t, scenario.t_start) @ y_i
                for theta, p, y_i in zip(history.bearings[:, k], rep.orders, parts)]
            worst = max(worst, float(np.linalg.norm(residual)))
        assert worst < 1e-6 * np.linalg.norm(y)
        result = estimate(scenario)
        assert result.uniqueness == DEGENERATE
        details.append(f"{label}: sigma ratio {rep.sigma_ratio:.1e}, "
                       f"witness residual {worst:.1e}")
    report(4, "; ".join(details))


# Criterion 3's geometry re-posed at target orders 0..3. Conditioning of the
# bearing Gramian collapses roughly three decades per order (the operator is
# squared and its columns span 1 .. dt^p/p!), so the higher-order scenarios
# carry the scenario-level rank_tol that keeps the spectral gap meaningful;
# the estimator round-trip bound stays at 1e-6 throughout.
ORDER_FAMILY = {
    0: dict(obs=[(0.0, 0.0), (6.0, 0.0)],
            t1=[(300.0, 700.0)],
            t2=[(-400.0, 600.0)],
            window=30.0, rank_tol=1e-8),
    1: dict(obs=[(0.0, 0.0), (5.0, 1.0), (1.5, 1.2), (0.3, -0.25)],
            t1=[(500.0, 800.0), (-3.0, 2.0)],
            t2=[(-600.0, 700.0), (4.0, -1.0)],
            window=12.0, rank_tol=1e-8),
    2: dict(obs=[(0.0, 0.0), (-33.8, -32.9), (9.4, 6.2), (1.0, 1.7), (-0.5, -0.6)],
            t1=[(-384.3, -79.3), (0.1, 2.9), (-0.1, 1.3)],
            t2=[(-127.2, 368.6), (1.1, -3.3), (1.4, -1.3)],
            window=4.5, rank_tol=1e-8),
    3: dict(obs=[(0.0, 0.0), (-27.4, 7.9), (3.5, -7.2), (-3.7, 3.9), (0.63, -0.75)],
            t1=[(-131.6, 18.8), (5.54, -5.81), (-0.7, 0.94), (-0.35, 0.49)],
            t2=[(56.8, 115.9), (3.96, -0.48), (1.38, -0.71), (0.42, -0.21)],
            window=7.0, rank_tol=1e-12),
}


def test_criterion_5_order_independence():
    details = []
    for p, cfg in ORDER_FAMILY.items():
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, tuple(cfg["obs"])),
            targets=(TargetConfig(PolynomialTrajectory(0.0, tuple(cfg["t1"]))),
                     TargetConfig(PolynomialTrajectory(0.0, tuple(cfg["t2"])))),
            t_start=0.0, t_end=cfg["window"], grid_points=201,
            tolerances=Tolerances(rank_tol=cfg["rank_tol"]),
        )
        assert scenario.effective_orders() == (p, p)
        rep = check_observable(scenario)
        assert rep.min_pairwise_separation >= 0.2
        assert rep.rank_decision == OBSERVABLE
        result = estimate(scenario)
        err = recovery_error(scenario, result)
        assert result.uniqueness == UNIQUE
        assert err < 1e-6
        # control: a static observer flips the verdict at the same tolerance
        control = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=scenario.targets, t_start=0.0, t_end=cfg["window"],
            grid_points=201, tolerances=scenario.tolerances,
        )
        assert check_observable(control).rank_decision == UNOBSERVABLE
        details.append(f"p={p}: ratio {rep.sigma_ratio:.1e}, err {err:.1e}")
    report(5, "order-independent verdicts (" + "; ".join(details) + ")")


def doppler_pairs(rng, count, grid):
    """Random doppler-ambiguous pairs with nontrivial rotations."""
    pairs = []
    for _ in range(count):
        base = random_polynomial(rng, int(rng.integers(0, 3)),
                                 pos_scale=rng.uniform(800, 3000))
        observer = random_observer(rng, 2)
        spec = random_doppler_spec(rng, base, observer, grid)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        f_j0 = float(rng.uniform(300, 3000))
        pairs.append((base, observer, spec, generated, f_j0))
    return pairs


def test_criterion_6_doppler_ambiguity():
    start = time.process_time()  # CPU time, as in criterion 1
    rng = np.random.default_rng(106)
    grid = np.linspace(0.0, 2.0, 201)
    dt = float(grid[1] - grid[0])
    worst_excess = -np.inf
    worst_identity = 0.0
    for base, observer, spec, generated, f_j0 in doppler_pairs(rng, 50, grid):
        cert = verify_ambiguity(generated, base, observer,
                                (f_j0 / spec.l_prime, f_j0), spec.c, grid,
                                regime="doppler")
        worst_excess = max(worst_excess,
                           cert.residual_doppler - (1e-9 * f_j0 + 10.0 * dt ** 2))
        rep = check_combined_condition(generated, base, observer, spec, grid)
        worst_identity = max(worst_identity, float(np.max(rep.position_residuals)))
        assert cert.verdict == AMBIGUOUS
    elapsed = time.process_time() - start
    assert worst_excess < 0.0
    assert worst_identity < 1e-8
    assert elapsed < 10.0
    report(6, f"50 doppler pairs: residual margin {worst_excess:.2e} Hz, "
              f"position identity {worst_identity:.2e}, {elapsed:.2f} s")


def bearing_pairs(rng, count, grid):
    pairs = []
    for _ in range(count):
        base = random_polynomial(rng, int(rng.integers(0, 3)),
                                 pos_scale=rng.uniform(800, 3000))
        observer = random_observer(rng, 2)
        alpha = random_alpha(rng)
        generated = generate_bearing_ambiguous(base, observer, alpha, grid)
        f0 = float(rng.uniform(300, 3000))
        pairs.append((base, observer, generated, f0))
    return pairs


def test_criterion_7_bearing_ambiguity():
    rng = np.random.default_rng(107)
    grid = np.linspace(0.0, 10.0, 201)
    worst_bearing = 0.0
    doppler_split = 0
    pairs = bearing_pairs(rng, 50, grid)
    for base, observer, generated, f0 in pairs:
        cert = verify_ambiguity(generated, base, observer, (f0, f0), 1500.0,
                                grid, regime="bearing")
        assert cert.verdict == AMBIGUOUS
        worst_bearing = max(worst_bearing, cert.residual_bearing)
        if cert.residual_doppler > 1e-3 * f0:
            doppler_split += 1
    assert worst_bearing < 1e-10
    assert doppler_split >= 0.9 * len(pairs)
    report(7, f"50 bearing pairs: bearing residual {worst_bearing:.2e} rad, "
              f"{doppler_split}/50 doppler-distinguishable")


def test_criterion_8_combined_rigidity():
    rng = np.random.default_rng(108)
    grid = np.linspace(0.0, 2.0, 201)
    long_grid = np.linspace(0.0, 10.0, 201)

    checked = 0
    for base, observer, spec, generated, f_j0 in doppler_pairs(rng, 50, grid):
        cert = verify_ambiguity(generated, base, observer,
                                (f_j0 / spec.l_prime, f_j0), spec.c, grid,
                                regime=COMBINED)
        gap = float(np.max(np.linalg.norm(
            generated.positions - np.array([base.eval(t) for t in grid]), axis=1)))
        both = (cert.residual_doppler < cert.tol_f
                and cert.residual_bearing < cert.tol_theta)
        assert not both or gap < 1e-6
        checked += 1
    for base, observer, generated, f0 in bearing_pairs(rng, 50, long_grid):
        cert = verify_ambiguity(generated, base, observer, (f0, f0), 1500.0,
                                long_grid, regime=COMBINED)
        gap = float(np.max(np.linalg.norm(
            generated.positions - np.array([base.eval(t) for t in long_grid]),
            axis=1)))
        both = (cert.residual_doppler < cert.tol_f
                and cert.residual_bearing < cert.tol_theta)
        assert not both or gap < 1e-6
        checked += 1

    # identical pair: the eigencheck must report unit alpha exactly
    base = random_polynomial(rng, 1, pos_scale=1500.0)
    observer = random_observer(rng, 1)
    spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=0.0, rotation=0.0, c=1500.0)
    identical = generate_doppler_ambiguous(base, observer, spec, grid)
    rep = check_combined_condition(identical, base, observer, spec, grid)
    assert rep.combined_ambiguous
    assert rep.max_alpha_deviation < 1e-8
    report(8, f"{checked} generated pairs, none ambiguous in both regimes; "
              f"identical pair alpha deviation {rep.max_alpha_deviation:.2e}")


def test_criterion_9_doppler_sufficiency():
    rng = np.random.default_rng(109)
    grid = np.linspace(0.0, 2.0, 201)
    base = random_polynomial(rng, 1, pos_scale=1500.0)
    observer = random_observer(rng, 1)

    rep = check_doppler_sufficiency(base, base, observer, (800.0, 800.0),
                                    1500.0, grid)
    assert rep.all_conditions_hold
    assert rep.residual_doppler < rep.tol_f
    assert rep.implication_holds

    spec = random_doppler_spec(rng, base, observer, grid)
    assert spec.l_prime != 1.0
    generated = generate_doppler_ambiguous(base, observer, spec, grid)
    f_j0 = 1000.0
    contra = check_doppler_sufficiency(generated, base, observer,
                                       (f_j0 / spec.l_prime, f_j0), spec.c, grid)
    assert not contra.tonals_equal
    assert not contra.all_conditions_hold
    assert contra.residual_doppler < contra.tol_f
    report(9, f"sufficient triple implies matching histories "
              f"(residual {rep.residual_doppler:.2e} Hz); triple not necessary "
              f"(l'={spec.l_prime:.3f} pair residual {contra.residual_doppler:.2e} Hz)")


def test_criterion_10_brute_force_rank_oracle():
    rng = np.random.default_rng(110)
    agreements = 0
    for _ in range(200):
        scenario = random_rank_scenario_conditioned(rng)
        assert sum(p + 1 for p in scenario.effective_orders()) <= 8
        gramian_says = check_observable(scenario).rank_decision == OBSERVABLE
        assert gramian_says == stacked_rank_observable(scenario)
        agreements += 1
    report(10, f"gramian vs stacked-matrix rank: {agreements}/200 agree")


def test_criterion_11_cli_end_to_end_determinism(tmp_path, capsys):
    observable = SCENARIOS / "two_target_observable.json"
    collinear = SCENARIOS / "collinear_unobservable.json"
    doppler_base = SCENARIOS / "doppler_pair_base.json"
    runs = {
        "simulate-observable": ["simulate", str(observable), "-o"],
        "simulate-collinear": ["simulate", str(collinear), "-o"],
        "observability-observable": ["observability", str(observable), "-o"],
        "observability-collinear": ["observability", str(collinear), "-o"],
        "estimate-observable": ["estimate", str(observable), "-o"],
        "estimate-collinear": ["estimate", str(collinear), "-o"],
        "verify": None,  # filled below
    }

    outputs = {}
    for name, argv in runs.items():
        if argv is None:
            continue
        files = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.out"
            forget_kept()
            assert run_cli(argv + [str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1], name
        outputs[name] = files[0]

    # ambiguity generate + verify, twice each
    certs, trajs = [], []
    for attempt in ("a", "b"):
        prefix = tmp_path / f"pair-{attempt}"
        forget_kept()
        assert run_cli(["ambiguity", "generate", str(doppler_base),
                        "--regime", "doppler", "-o", str(prefix),
                        "--l-prime", "1.02", "--b-prime", "400.0"]) == 0
        trajs.append(Path(f"{prefix}_trajectory.csv").read_bytes())
        certs.append(Path(f"{prefix}_certificate.json").read_bytes())
    assert trajs[0] == trajs[1] and certs[0] == certs[1]

    verify_files = []
    for attempt in ("a", "b"):
        out = tmp_path / f"verify-{attempt}.json"
        forget_kept()
        assert run_cli(["ambiguity", "verify", str(doppler_base),
                        str(tmp_path / "pair-a_trajectory.csv"),
                        "--regime", "doppler",
                        "--tonal-i", str(1000.0 / 1.02), "-o", str(out)]) == 0
        verify_files.append(out.read_bytes())
    assert verify_files[0] == verify_files[1]
    assert json.loads(verify_files[0])["verdict"] == AMBIGUOUS

    # sanity on report content
    assert json.loads(outputs["observability-collinear"])["rank_decision"] == \
        UNOBSERVABLE
    assert json.loads(outputs["observability-observable"])["rank_decision"] == \
        OBSERVABLE
    capsys.readouterr()
    report(11, "simulate/observability/estimate/ambiguity outputs byte-identical "
               "across repeated runs on the shipped scenarios")
