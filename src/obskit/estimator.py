"""Initial-state recovery from noise-free bearing histories.

The bearing line through the observer gives one linear constraint per time
sample: cos(theta) x_t(t) - sin(theta) y_t(t) = cos(theta) x_ob(t) -
sin(theta) y_ob(t), where (x_t, y_t) is the target's absolute position.
Writing the target position through its polynomial state turns the stacked
constraints into a least-squares system A_i x = b_i for the absolute
initial state of each target, weighted by the square roots of the Gramian's
quadrature weights. The homogeneous (relative-coordinate) form of the same
operator, sqrt(W) A_i, is what the observability Gramian factorises; one
``observability.gramian`` call factorises sqrt(W) [A_i | b_i] and gives the
verdict, and the estimator solves from those factors, so the two verdicts
agree by construction. The factors stay stacked by order, so the solve is
one batched product per order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystem
from .measurement import MeasurementHistory, angular_difference, bearing, measure_scenario
from .observability import gramian, power_of_two_near
from .scenario_io import Scenario, Tolerances, fields_dict
from .trajectory import PolynomialTrajectory, relative_states, trajectory_from_state

UNIQUE = "unique"
DEGENERATE = "degenerate"


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Recovered initial super state and its conditioning.

    Attributes:
        uniqueness: "unique" when every target block's sigma ratio exceeds
            rank_tol (the rank decision of ``check_observable``), else
            "degenerate".
        x_initial_hat: Stacked per-target raw-derivative states
            [x, y, xdot, ydot, ...] at the history start time (absolute
            coordinates), length 2s.
        residual_norm: Euclidean norm of the stacked weighted least-squares
            residual sqrt(W) (A x - b).
        condition_number: (sigma_max / sigma_min)^2 of the worst target
            block in tau columns: 1 / sigma_ratio of the observability
            report, inf when a block is singular.
        orders: Per-target polynomial orders the system was built with.
        singular_values: Singular values of each target's sqrt(W) A_i in
            tau columns (see ``observability.Gramian``), descending within
            the block, blocks in target order.
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

    Each target's block is solved by SVD least squares from its factors in
    ``observability.gramian``, the targets of one order in one batched
    product; directions whose singular value falls below sqrt(rank_tol)
    times the block's largest are excluded, which yields the minimum-norm
    solution (in tau columns) on rank deficiency. The residual norm sums
    the targets' squared residuals in target order, each term first divided
    by a power of two near the largest, so that no square overflows.

    Raises:
        DegenerateSystem: If any target has fewer measurement rows than
            unknowns (e.g. a zero-length window).
        ValueError: From ``gramian``, if ``orders`` has not one entry per target.
    """
    for i, p in enumerate(orders):
        if len(history.times) < 2 * (p + 1):
            raise DegenerateSystem(
                f"target {i}: {len(history.times)} measurement rows for {2 * (p + 1)} unknowns")

    g = gramian(observer, history, orders, rank_tol)
    keeps = [stack.s > np.sqrt(rank_tol) * stack.s[:, :1] for stack in g.stacks]
    # Each residual term (a rho or a dropped c) is divided by a power of two near
    # the largest before it is squared, so no square overflows. Dividing by a
    # power of two is exact, so each square, sum and root rounds as the unscaled
    # one did wherever that neither overflowed nor underflowed.
    largest = max(max(abs(stack.rho).max(), abs(np.where(keep, 0.0, stack.c)).max())
                  for stack, keep in zip(g.stacks, keeps))
    scale = power_of_two_near(largest)
    solution = np.empty(g.size)
    residual_sq = np.empty(len(orders))  # each target's squared residual over scale²
    for stack, keep in zip(g.stacks, keeps):
        s, c = stack.s, stack.c
        y = np.where(keep, c / np.where(keep, s, 1.0), 0.0)
        solution[stack.columns] = g.physical((stack.vt.swapaxes(1, 2) @ y[:, :, None])[..., 0])
        # s descends, so a block that keeps q directions drops the tail c[q:]. The
        # blocks that keep q share one row sum, which rounds as each tail's own sum.
        dropped = np.zeros(len(s))
        kept = keep.sum(axis=1)
        for q in set(kept[kept < s.shape[1]].tolist()):
            rows = kept == q
            dropped[rows] = np.sum((c[rows, q:] / scale) ** 2, axis=1)
        # C pow, as for the ratios in ``gramian``.
        residual_sq[stack.targets] = np.float_power(stack.rho / scale, 2) + dropped
    # cumsum adds left to right: the residuals summed target by target, in target order.
    residual_norm = float(np.sqrt(np.cumsum(residual_sq)[-1]) * scale)

    return EstimateResult(
        x_initial_hat=solution,
        residual_norm=residual_norm,
        condition_number=1.0 / g.sigma_ratio if g.sigma_ratio > 0 else np.inf,
        uniqueness=UNIQUE if g.observable else DEGENERATE,
        orders=tuple(orders),
        singular_values=g.singular_values,
        null_space=g.null_space,
    )


def split_state(state: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Split a stacked 2s super state into per-target raw-derivative states."""
    sizes = [2 * (p + 1) for p in orders]
    if len(state) != sum(sizes):
        raise ValueError(f"state length {len(state)} does not match orders {orders}")
    return np.split(np.asarray(state), np.cumsum(sizes)[:-1])


def cross_validate(scenario: Scenario, result: EstimateResult,
                   state: np.ndarray | None = None) -> float:
    """Replay bearings from an estimated super state; max deviation in radians.

    ``state`` defaults to the result's own estimate; pass a perturbed state
    to probe invisible (null-space) directions. The truth is the scenario's
    own history (``measure_scenario``), the one the estimate came from when
    it was measured from the same scenario object.
    """
    if state is None:
        state = result.x_initial_hat
    truth = measure_scenario(scenario)
    trajectories = [trajectory_from_state(part, ref_time=scenario.t_start) for part in
                    split_state(np.asarray(state, dtype=float), result.orders)]
    replayed = bearing(relative_states(trajectories, scenario.observer, truth.times,
                                       scenario.tolerances.eps_range))
    return float(np.max(angular_difference(replayed, truth.bearings)))
