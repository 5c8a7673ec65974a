"""Closed-form oracles and reference implementations the tests check the program against.

``transition_matrix`` and ``pseudo_row`` spell out the pseudo-linear model
one instant at a time: ``pseudo_row(theta, p) @ transition_matrix(p, t, t0)``
is the row of ``measurement.design_matrix`` at (theta, t).
``polynomial_eval`` is ``PolynomialTrajectory.eval`` with the time axis
first, one ``np.multiply.outer`` per term. ``read_trajectory_csv_per_line``
reads a trajectory CSV with one ``float()`` per field, line by line.
``per_target_factors`` splits ``observability.Gramian``'s per-order stacks
into one (s, vt, c, rho) per target; ``blocks_per_target``,
``singular_values_per_target``, ``null_space_per_target`` and
``solve_per_target`` compute the Gramian's outputs and the estimator's
solve from those, one target at a time.
"""

from math import factorial
from pathlib import Path

import numpy as np

from obskit.errors import ParseError
from obskit.trajectory import SampledTrajectory


def transition_matrix(p: int, t: float, t_i: float) -> np.ndarray:
    """Transition matrix for a single order-p target.

    Maps the raw-derivative state at t_i to the state at t; it is the
    identity at t = t_i and satisfies Phi(t2, t0) = Phi(t2, t1) @ Phi(t1, t0).
    Block (k, j) for j >= k is (t - t_i)^(j-k) / (j-k)! * I_2, so the top
    block row carries the factors 1, dt, dt^2/2!, ... of the polynomial
    evaluation, and the matrix is the exponential of the shift dynamics.
    """
    if p < 0:
        raise ValueError(f"polynomial order must be >= 0, got {p}")
    dt = float(t) - float(t_i)
    upper = np.zeros((p + 1, p + 1))
    for k in range(p + 1):
        for j in range(k, p + 1):
            upper[k, j] = dt ** (j - k) / factorial(j - k)
    return np.kron(upper, np.eye(2))


def pseudo_row(theta: float, p: int) -> np.ndarray:
    """Pseudo-linear measurement row [cos(theta), -sin(theta), 0, ..., 0].

    Length 2(p + 1); the trailing zeros blank out the derivative entries of
    the order-p state, so the row annihilates the true relative state.
    """
    if p < 0:
        raise ValueError(f"polynomial order must be >= 0, got {p}")
    row = np.zeros(2 * (p + 1))
    row[0] = np.cos(theta)
    row[1] = -np.sin(theta)
    return row


def polynomial_eval(traj, t, derivative_order: int = 0) -> np.ndarray:
    """sum_{k>=d} a_k k!/(k-d)! (t - ref_time)^(k-d), accumulated as (..., 2) terms."""
    dt = np.asarray(t, dtype=float) - traj.ref_time
    out = np.zeros(dt.shape + (2,))
    power = np.ones_like(dt)
    for k in range(derivative_order, len(traj.coeffs)):
        scale = factorial(k) // factorial(k - derivative_order)
        out += np.multiply.outer(scale * power, traj.coeffs[k])
        power = power * dt
    return out


def read_trajectory_csv_per_line(path) -> SampledTrajectory:
    """``scenario_io.read_trajectory_csv`` as one ``float()`` loop over the lines."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read trajectory file {path}: {exc}") from exc
    if not lines or lines[0].strip() != "t,x_m,y_m":
        raise ParseError(f"{path}: expected header 't,x_m,y_m'")
    times, positions = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 columns, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            positions.append((float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: non-numeric value") from exc
    times, positions = np.asarray(times), np.asarray(positions)
    finite = np.isfinite(times) & np.isfinite(positions).all(axis=-1)
    if not finite.all():
        raise ParseError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite value")
    if len(times) < 3:
        raise ParseError(f"{path}: need at least 3 rows, got {len(times)}")
    if not np.all(np.diff(times) > 0):
        raise ParseError(f"{path}: times must be strictly increasing")
    return SampledTrajectory(times=times, positions=positions)


def per_target_factors(g) -> list[tuple]:
    """(s, vt, c, rho) of each target of a ``Gramian``, in target order; rho a float."""
    factors: list = [None] * len(g.per_target_sigma_ratios)
    for stack in g.stacks:
        for j, i in enumerate(stack.targets.tolist()):
            factors[i] = (stack.s[j], stack.vt[j], stack.c[j], float(stack.rho[j]))
    return factors


def sigma_ratios_per_target(g) -> tuple[float, ...]:
    return tuple(float((s[-1] / s[0]) ** 2) if s[0] > 0 else 0.0
                 for s, *_ in per_target_factors(g))


def blocks_per_target(g) -> tuple[np.ndarray, ...]:
    """``Gramian.blocks``: S vt^T diag(s^2) vt S per target, symmetrized."""
    blocks = []
    for s, vt, *_ in per_target_factors(g):
        d = g.scale ** (np.arange(len(s)) // 2)
        block = d[:, None] * ((vt.T * s ** 2) @ vt) * d
        blocks.append(0.5 * (block + block.T))
    return tuple(blocks)


def singular_values_per_target(g) -> np.ndarray:
    return np.concatenate([s for s, *_ in per_target_factors(g)])


def null_space_per_target(g) -> np.ndarray | None:
    if g.observable:
        return None
    factors = per_target_factors(g)
    worst = int(np.argmin(g.per_target_sigma_ratios))
    v = g.physical(factors[worst][1][-1])
    return np.concatenate([v / np.linalg.norm(v) if i == worst else np.zeros(len(s))
                           for i, (s, *_) in enumerate(factors)])


def solve_per_target(g, rank_tol: float) -> tuple[np.ndarray, float]:
    """``estimate_initial_state``'s (x_initial_hat, residual_norm), target by target."""
    solution = []
    residual_sq = 0.0
    for s, vt, c, rho in per_target_factors(g):
        keep = s > np.sqrt(rank_tol) * s[0]
        solution.append(g.physical(vt.T @ np.where(keep, c / np.where(keep, s, 1.0), 0.0)))
        residual_sq += rho ** 2 + float(np.sum(c[~keep] ** 2))
    return np.concatenate(solution), float(np.sqrt(residual_sq))
