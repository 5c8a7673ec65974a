"""Closed-form oracles the tests check the program against.

``transition_matrix`` and ``pseudo_row`` spell out the pseudo-linear model
one instant at a time: ``pseudo_row(theta, p) @ transition_matrix(p, t, t0)``
is the row of ``measurement.design_matrix`` at (theta, t).
``polynomial_eval`` is ``PolynomialTrajectory.eval`` with the time axis
first, one ``np.multiply.outer`` per term.
"""

from math import factorial

import numpy as np


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
