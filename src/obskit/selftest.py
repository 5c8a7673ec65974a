"""Randomized self-check suites and the scenario/spec generators behind them.

The generators here are shared with the test suite; every suite uses an
independently seeded numpy Generator so runs are reproducible.
"""

from __future__ import annotations

from math import factorial
from typing import TextIO

import numpy as np

from .ambiguity import (DopplerAmbiguitySpec, check_combined_condition,
                        default_doppler_tolerance, generate_bearing_ambiguous,
                        generate_doppler_ambiguous, verify_ambiguity)
from .estimator import estimate_initial_state
from .measurement import DEFAULT_SOUND_SPEED, design_matrix, measure_scenario
from .observability import OBSERVABLE, check_observable
from .scenario_io import Scenario, TargetConfig
from .trajectory import (PolynomialTrajectory, propagate_ode, relative_state,
                         relative_states, state_from_trajectory, trajectory_from_state)

# Magnitude of the k-th polynomial coefficient of random trajectories.
# Velocity/acceleration/jerk scales keep observer maneuvers strong relative
# to target ranges, which keeps random observable scenarios well conditioned.
_COEFF_SCALES = (1.0, 10.0, 4.0, 0.5, 0.06, 0.006)


def random_polynomial(rng: np.random.Generator, order: int, pos_scale: float,
                      ref_time: float = 0.0) -> PolynomialTrajectory:
    """Random trajectory of exactly the requested order (top coefficient nonzero)."""
    angle = rng.uniform(0, 2 * np.pi)
    radius = pos_scale * rng.uniform(0.5, 1.0)
    coeffs = [(radius * np.sin(angle), radius * np.cos(angle))]
    for k in range(1, order + 1):
        scale = _COEFF_SCALES[min(k, len(_COEFF_SCALES) - 1)]
        pair = rng.uniform(-scale, scale, size=2)
        if k == order:
            # keep the top coefficient bounded away from zero
            pair = np.where(np.abs(pair) < 0.2 * scale,
                            0.2 * scale * np.sign(pair + 1e-300), pair)
        coeffs.append((float(pair[0]), float(pair[1])))
    return PolynomialTrajectory(ref_time=ref_time, coeffs=tuple(coeffs))


def random_observer(rng: np.random.Generator, order: int,
                    ref_time: float = 0.0) -> PolynomialTrajectory:
    """Random observer near the origin with strong top-order maneuvering."""
    coeffs = [tuple(rng.uniform(-50, 50, size=2))]
    for k in range(1, order + 1):
        scale = _COEFF_SCALES[min(k, len(_COEFF_SCALES) - 1)]
        pair = rng.uniform(-scale, scale, size=2)
        if k >= 2:
            pair = np.where(np.abs(pair) < 0.5 * scale,
                            0.5 * scale * np.sign(pair + 1e-300), pair)
        elif k == order:
            pair = np.where(np.abs(pair) < 0.25 * scale,
                            0.25 * scale * np.sign(pair + 1e-300), pair)
        coeffs.append((float(pair[0]), float(pair[1])))
    return PolynomialTrajectory(ref_time=ref_time, coeffs=tuple(coeffs))


def random_scenario(
    rng: np.random.Generator,
    m_targets: int = 2,
    target_order_max: int = 1,
    observer_order: int | None = None,
    window: float = 30.0,
    grid_points: int = 101,
) -> Scenario:
    """Random targets; observer two orders above the targets by default.

    The default observer order gives a curving maneuver, which makes each
    target generically observable on its own; passing observer_order <= the
    target orders produces the classic unobservable geometry instead.
    """
    orders = [int(rng.integers(0, target_order_max + 1)) for _ in range(m_targets)]
    if observer_order is None:
        observer_order = max(orders) + 2
    observer = random_observer(rng, observer_order)
    targets = tuple(
        TargetConfig(trajectory=random_polynomial(rng, p, pos_scale=rng.uniform(300, 900)))
        for p in orders
    )
    return Scenario(observer=observer, targets=targets, t_start=0.0, t_end=window,
                    grid_points=grid_points)


def collinear_scenario(rng: np.random.Generator, opposite: bool = False,
                       window: float = 20.0, grid_points: int = 101) -> Scenario:
    """Two targets moving along a fixed ray through a static observer.

    Bearings stay constant (equal, or opposite when ``opposite``), so the
    pair is permanently collinear with the observer and unobservable.
    """
    base = np.array([rng.uniform(-40, 40), rng.uniform(-40, 40)])
    angle = rng.uniform(0, 2 * np.pi)
    u = np.array([np.sin(angle), np.cos(angle)])
    r1, r2 = rng.uniform(500, 1500), rng.uniform(500, 1500)
    v1, v2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
    sign = -1.0 if opposite else 1.0
    observer = PolynomialTrajectory(0.0, (tuple(base),))
    t1 = PolynomialTrajectory(0.0, (tuple(base + r1 * u), tuple(v1 * u)))
    t2 = PolynomialTrajectory(0.0, (tuple(base + sign * r2 * u), tuple(sign * v2 * u)))
    return Scenario(observer=observer, targets=(TargetConfig(t1), TargetConfig(t2)),
                    t_start=0.0, t_end=window, grid_points=grid_points)


def random_rank_scenario(rng: np.random.Generator) -> Scenario:
    """Mix of generically observable, order-starved, and collinear scenarios."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return random_scenario(rng)
    if kind == 1:
        return random_scenario(rng, m_targets=3)
    if kind == 2:
        # static observer: the true relative state is invisible, so the
        # system is unobservable regardless of geometry
        return random_scenario(rng, target_order_max=1, observer_order=0)
    return collinear_scenario(rng, opposite=bool(rng.integers(0, 2)))


def random_doppler_spec(
    rng: np.random.Generator,
    base: PolynomialTrajectory,
    observer: PolynomialTrajectory,
    grid: np.ndarray,
    c: float = DEFAULT_SOUND_SPEED,
) -> DopplerAmbiguitySpec:
    """Feasible random spec with a nontrivial line-of-sight rotation."""
    l_prime = float(rng.uniform(0.9, 1.1))
    rate = float(rng.uniform(0.02, 0.3) * rng.choice([-1.0, 1.0]))
    ranges = relative_state(base, observer, grid).range
    needed = DopplerAmbiguitySpec(l_prime, 0.0, 0.0, c).ranges(ranges, grid)
    # keep the derived range history at least 50-300 m above zero
    b_prime = float(rng.uniform(50, 300)) - min(0.0, float(np.min(needed)))
    return DopplerAmbiguitySpec(l_prime=l_prime, b_prime=b_prime,
                                rotation=lambda t, r=rate, t0=grid[0]: r * (t - t0),
                                c=c)


def random_alpha(rng: np.random.Generator, t0: float = 0.0):
    """Non-constant positive scale profile 1 + A sin(w (t - t0) + phase)."""
    amp = float(rng.uniform(0.1, 0.6))
    freq = float(rng.uniform(0.3, 2.0))
    phase = float(rng.uniform(0, 2 * np.pi))
    return lambda t: 1.0 + amp * np.sin(freq * (t - t0) + phase)


def stacked_sigma_ratio(scenario: Scenario) -> float:
    """Worst per-target squared singular-value ratio of the plainly stacked rows.

    Builds each target's rows directly from cos/sin and powers of the
    normalised time tau = (t - t0) / T, T the window length (no quadrature,
    no shared matrix assembly), making it an independent check of the
    Gramian-based decision. Each target's ratio is squared so it compares
    at the Gramian's rank_tol scale; the smallest one is returned.
    """
    times = scenario.grid()
    t0 = scenario.t_start
    span = scenario.t_end - t0
    scale = span if span > 0 else 1.0
    worst = np.inf
    for traj, p in zip(scenario.target_trajectories(), scenario.effective_orders()):
        rows = []
        for t in times:
            rel = traj.eval(t) - scenario.observer.eval(t)
            theta = np.arctan2(rel[0], rel[1])
            rows.append([f * ((t - t0) / scale) ** j / factorial(j)
                         for j in range(p + 1) for f in (np.cos(theta), -np.sin(theta))])
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        # With fewer rows than unknowns, svd omits the zero singular values.
        if svals[0] == 0 or len(rows) < 2 * (p + 1):
            return 0.0
        worst = min(worst, float((svals[-1] / svals[0]) ** 2))
    return worst


def stacked_rank_observable(scenario: Scenario, rank_tol: float | None = None) -> bool:
    """Independent rank decision from the stacked measurement rows."""
    if rank_tol is None:
        rank_tol = scenario.tolerances.rank_tol
    return stacked_sigma_ratio(scenario) > rank_tol


def random_rank_scenario_conditioned(
    rng: np.random.Generator,
    band: tuple[float, float] = (1e-12, 1e-6),
    max_draws: int = 50,
) -> Scenario:
    """Random rank scenario redrawn until it sits clear of the rank boundary.

    Any two numerically different rank tests must disagree for conditioning
    inside a band around rank_tol (quadrature weights alone shift the ratio
    by bounded factors), so agreement suites sample scenarios whose stacked
    conditioning falls outside ``band``.
    """
    for _ in range(max_draws):
        scenario = random_rank_scenario(rng)
        ratio = stacked_sigma_ratio(scenario)
        if not band[0] < ratio < band[1]:
            return scenario
    raise RuntimeError("could not draw a scenario clear of the rank boundary")


def transition_suite(rng: np.random.Generator, states_per_order: int = 100,
                     max_order: int = 5, steps: int = 400):
    """Max relative mismatches of ``design_matrix`` rows over random draws.

    A row at (theta, t) applied to a random state x at t0 must give the
    pseudo-linear measurement cos(theta) x(t) - sin(theta) y(t). The first
    figure takes the position at t from RK4 (``propagate_ode``); the second
    is the semigroup defect: the row from t0 against the row from t1 applied
    to the exact state at t1. Both are relative to |x|.
    """
    max_rel = 0.0
    max_semi = 0.0
    for p in range(max_order + 1):
        n = 2 * (p + 1)
        for _ in range(states_per_order):
            x = rng.normal(scale=10.0, size=n)
            theta = rng.uniform(-np.pi, np.pi, size=1)
            t_span = rng.uniform(0.3, 3.0)
            closed = design_matrix(theta, [t_span], 0.0, p)[0] @ x
            stepped = propagate_ode(x, 0.0, t_span, steps)
            measured = np.cos(theta[0]) * stepped[0] - np.sin(theta[0]) * stepped[1]
            max_rel = max(max_rel, abs(closed - measured) / float(np.linalg.norm(x)))
            t0, t1, t2 = np.sort(rng.uniform(0.0, 3.0, size=3))
            x1 = state_from_trajectory(trajectory_from_state(x, t0), t1, p)
            defect = (design_matrix(theta, [t2], t0, p)[0] @ x
                      - design_matrix(theta, [t2], t1, p)[0] @ x1)
            max_semi = max(max_semi, abs(defect) / float(np.linalg.norm(x)))
    return max_rel, max_semi


def pseudo_linear_suite(rng: np.random.Generator, scenarios: int = 20) -> float:
    """Max |cos(theta) x - sin(theta) y| / range for true relative states."""
    worst = 0.0
    for _ in range(scenarios):
        scenario = random_scenario(rng)
        rel = relative_states(scenario.target_trajectories(), scenario.observer,
                              scenario.grid())
        x, y = rel.position[..., 0], rel.position[..., 1]
        theta = np.arctan2(x, y)
        value = np.abs(np.cos(theta) * x - np.sin(theta) * y)
        worst = max(worst, float(np.max(value / rel.range)))
    return worst


def doppler_generator_suite(rng: np.random.Generator, pairs: int = 10):
    """Worst Doppler-residual margin and range-relation identity gap.

    The margin is residual - default_doppler_tolerance(f_j0, grid); negative
    everywhere means every pair met the generator-soundness bound.
    """
    worst_margin = -np.inf
    worst_residual = 0.0
    worst_identity = 0.0
    grid = np.linspace(0.0, 2.0, 201)
    for _ in range(pairs):
        base = random_polynomial(rng, int(rng.integers(0, 3)),
                                 pos_scale=rng.uniform(800, 3000))
        observer = random_observer(rng, 2)
        spec = random_doppler_spec(rng, base, observer, grid)
        generated = generate_doppler_ambiguous(base, observer, spec, grid)
        f_j0 = float(rng.uniform(300, 3000))
        cert = verify_ambiguity(generated, base, observer,
                                (f_j0 / spec.l_prime, f_j0), spec.c, grid,
                                regime="doppler")
        worst_residual = max(worst_residual, cert.residual_doppler)
        worst_margin = max(worst_margin, cert.residual_doppler
                           - default_doppler_tolerance(f_j0, grid))
        report = check_combined_condition(generated, base, observer, spec, grid)
        worst_identity = max(worst_identity, float(np.max(report.position_residuals)))
    return worst_margin, worst_residual, worst_identity


def bearing_generator_suite(rng: np.random.Generator, pairs: int = 10) -> float:
    """Max bearing residual (rad) over random positive scale profiles."""
    worst = 0.0
    grid = np.linspace(0.0, 10.0, 201)
    for _ in range(pairs):
        base = random_polynomial(rng, int(rng.integers(0, 3)),
                                 pos_scale=rng.uniform(800, 3000))
        observer = random_observer(rng, 2)
        generated = generate_bearing_ambiguous(base, observer, random_alpha(rng), grid)
        cert = verify_ambiguity(generated, base, observer, None, DEFAULT_SOUND_SPEED,
                                grid, regime="bearing")
        worst = max(worst, cert.residual_bearing)
    return worst


def rank_oracle_suite(rng: np.random.Generator, scenarios: int = 20) -> int:
    """Number of disagreements between Gramian and stacked-matrix rank decisions."""
    mismatches = 0
    for _ in range(scenarios):
        scenario = random_rank_scenario_conditioned(rng)
        gramian_says = check_observable(scenario).rank_decision == OBSERVABLE
        stacked_says = stacked_rank_observable(scenario)
        mismatches += int(gramian_says != stacked_says)
    return mismatches


def estimator_suite(rng: np.random.Generator, scenarios: int = 5) -> float:
    """Max relative recovery error over generically observable scenarios."""
    worst = 0.0
    for _ in range(scenarios):
        scenario = random_scenario(rng)
        history = measure_scenario(scenario)
        orders = scenario.effective_orders()
        result = estimate_initial_state(scenario.observer, history, list(orders),
                                        scenario.tolerances.rank_tol)
        truth = np.concatenate([
            state_from_trajectory(traj, scenario.t_start, p)
            for traj, p in zip(scenario.target_trajectories(), orders)
        ])
        worst = max(worst, float(np.linalg.norm(result.x_initial_hat - truth)
                                 / np.linalg.norm(truth)))
    return worst


def run_selftest(seed: int = 0, out: TextIO | None = None) -> int:
    """Run all suites; print one PASS/FAIL line each; return 0 when all pass."""
    import sys
    if out is None:
        out = sys.stdout
    root = np.random.default_rng(seed)
    seeds = root.integers(0, 2 ** 31, size=6)
    results = []

    max_rel, max_semi = transition_suite(
        np.random.default_rng(seeds[0]), states_per_order=20)
    results.append(("design matrix vs RK4",
                    max_rel < 1e-8 and max_semi < 1e-12,
                    f"rel err {max_rel:.2e}, semigroup defect {max_semi:.2e}"))

    worst = pseudo_linear_suite(np.random.default_rng(seeds[1]), scenarios=5)
    results.append(("pseudo-linear identity", worst < 1e-10,
                    f"max |c(theta) . s| / range = {worst:.2e}"))

    margin, wd, wi = doppler_generator_suite(np.random.default_rng(seeds[2]), pairs=10)
    results.append(("doppler-ambiguous generator",
                    margin < 0 and wi < 1e-8,
                    f"doppler residual {wd:.2e} Hz, identity gap {wi:.2e}"))

    wb = bearing_generator_suite(np.random.default_rng(seeds[3]), pairs=10)
    results.append(("bearing-ambiguous generator", wb < 1e-10,
                    f"bearing residual {wb:.2e} rad"))

    mism = rank_oracle_suite(np.random.default_rng(seeds[4]), scenarios=20)
    results.append(("gramian vs stacked rank", mism == 0,
                    f"{mism} disagreement(s) in 20 scenarios"))

    we = estimator_suite(np.random.default_rng(seeds[5]), scenarios=5)
    results.append(("estimator round trip", we < 1e-6,
                    f"max relative recovery error {we:.2e}"))

    all_ok = True
    for name, ok, detail in results:
        out.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
        all_ok = all_ok and ok
    return 0 if all_ok else 1
