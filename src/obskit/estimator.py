"""Initial-state recovery from noise-free bearing histories.

The bearing line through the observer gives one linear constraint per time
sample: cos(theta) x_t(t) - sin(theta) y_t(t) = cos(theta) x_ob(t) -
sin(theta) y_ob(t), where (x_t, y_t) is the target's absolute position.
Writing the target position through the transition matrix turns the stacked
constraints into a least-squares system for the absolute initial state of
each target. The observer terms supply the right-hand side; the homogeneous
(relative-coordinate) form of the same operator is what the observability
Gramian tests, so the two verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystem
from .measurement import (MeasurementHistory, angular_difference, bearing,
                          design_matrix, measure_scenario)
from .scenario_io import Scenario, Tolerances, fields_dict
from .trajectory import PolynomialTrajectory, relative_states, trajectory_from_state

UNIQUE = "unique"
DEGENERATE = "degenerate"


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Recovered initial super state and its conditioning.

    Attributes:
        uniqueness: "degenerate" when the normal-matrix sigma ratio falls
            below rank_tol, else "unique".
        x_initial_hat: Stacked per-target raw-derivative states
            [x, y, xdot, ydot, ...] at the history start time (absolute
            coordinates), length 2s.
        residual_norm: Euclidean norm of the stacked least-squares residual.
        condition_number: Condition number of the normal matrix,
            (sigma_max / sigma_min)^2 of the stacked system; inf when singular.
        orders: Per-target polynomial orders the system was built with.
        singular_values: Descending singular values of the stacked system.
        null_space: Unit direction of the least-observable combination when
            degenerate (embedded in the full 2s space), else None.
    """

    uniqueness: str
    x_initial_hat: np.ndarray
    residual_norm: float
    condition_number: float
    orders: tuple[int, ...]
    singular_values: np.ndarray
    null_space: np.ndarray | None

    to_dict = fields_dict


def estimate_initial_state(
    observer: PolynomialTrajectory,
    history: MeasurementHistory,
    orders: list[int],
    rank_tol: float = Tolerances.rank_tol,
) -> EstimateResult:
    """Solve the stacked pseudo-linear system for the absolute initial states.

    Each target's block is solved by SVD least squares; directions whose
    singular value falls below sqrt(rank_tol) * sigma_max are excluded,
    which yields the minimum-norm solution on rank deficiency.

    Raises:
        DegenerateSystem: If any target has fewer measurement rows than
            unknowns (e.g. a zero-length window).
    """
    if len(orders) != history.num_targets:
        raise ValueError(
            f"orders has {len(orders)} entries for {history.num_targets} targets")
    times = history.times
    t_i = float(times[0])
    n_rows = len(times)

    obs_xy = observer.eval(times)

    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    for i, p in enumerate(orders):
        n_unknowns = 2 * (p + 1)
        if n_rows < n_unknowns:
            raise DegenerateSystem(
                f"target {i}: {n_rows} measurement rows for {n_unknowns} unknowns")
        thetas = history.bearings[i]
        A = design_matrix(thetas, times, t_i, p)
        b = np.cos(thetas) * obs_xy[:, 0] - np.sin(thetas) * obs_xy[:, 1]
        blocks.append((A, b))

    all_svals = np.sort(np.concatenate(
        [np.linalg.svd(A, compute_uv=False) for A, _ in blocks]))[::-1]
    sigma_max = float(all_svals[0])
    sigma_min = float(all_svals[-1])
    ratio_sq = (sigma_min / sigma_max) ** 2 if sigma_max > 0 else 0.0
    degenerate = ratio_sq < rank_tol
    cutoff = np.sqrt(rank_tol) * sigma_max

    solution = []
    residual_sq = 0.0
    null_parts: list[np.ndarray] = []
    worst = (np.inf, None)  # (sigma, embedded right singular vector)
    offset = 0
    total = sum(2 * (p + 1) for p in orders)
    for A, b in blocks:
        u, s, vt = np.linalg.svd(A, full_matrices=False)
        keep = s > cutoff
        inv = np.zeros_like(s)
        inv[keep] = 1.0 / s[keep]
        x = vt.T @ (inv * (u.T @ b))
        solution.append(x)
        residual_sq += float(np.sum((A @ x - b) ** 2))
        if s[-1] < worst[0]:
            embedded = np.zeros(total)
            embedded[offset:offset + A.shape[1]] = vt[-1]
            worst = (float(s[-1]), embedded)
        offset += A.shape[1]

    return EstimateResult(
        x_initial_hat=np.concatenate(solution),
        residual_norm=float(np.sqrt(residual_sq)),
        condition_number=(1.0 / ratio_sq) if ratio_sq > 0 else np.inf,
        uniqueness=DEGENERATE if degenerate else UNIQUE,
        orders=tuple(orders),
        singular_values=all_svals,
        null_space=worst[1] if degenerate else None,
    )


def split_state(state: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Split a stacked 2s super state into per-target raw-derivative states."""
    parts = []
    at = 0
    for p in orders:
        n = 2 * (p + 1)
        parts.append(np.asarray(state[at:at + n]))
        at += n
    if at != len(state):
        raise ValueError(f"state length {len(state)} does not match orders {orders}")
    return parts


def cross_validate(scenario: Scenario, result: EstimateResult,
                   state: np.ndarray | None = None) -> float:
    """Replay bearings from an estimated super state; max deviation in radians.

    ``state`` defaults to the result's own estimate; pass a perturbed state
    to probe invisible (null-space) directions.
    """
    if state is None:
        state = result.x_initial_hat
    truth = measure_scenario(scenario)
    trajectories = [trajectory_from_state(part, ref_time=scenario.t_start) for part in
                    split_state(np.asarray(state, dtype=float), result.orders)]
    replayed = bearing(relative_states(trajectories, scenario.observer, truth.times,
                                       scenario.tolerances.eps_range))
    return float(np.max(angular_difference(replayed, truth.bearings)))
