"""Planar polynomial trajectories, relative kinematics, and an RK4 propagation oracle.

``PolynomialTrajectory.eval`` and ``relative_states`` are the grid kernel:
each takes a scalar time or a 1-D array of times, and the scalar case is the
0-d case of the same arithmetic, so a grid evaluation equals the per-time
evaluations bit for bit. ``relative_states`` evaluates all M targets in one
pass over stacked (M, N) arrays, and each row equals that target's own
evaluation bit for bit; ``relative_state`` is its one-target case.

A trajectory is a polynomial in time about a reference instant,
``pos(t) = sum_k a_k (t - ref_time)^k`` with 2-vector coefficients ``a_k``.
The matching state vector stacks raw derivatives per target,
``[x, y, xdot, ydot, ..., x^(p), y^(p)]``, so that ``a_k = x^(k)/k!``.
``propagate_ode`` integrates the chain-integrator dynamics of that state
numerically; it is the independent check of the closed-form propagation
``(t - t0)^k / k!`` that ``measurement.design_matrix`` builds in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import factorial
from typing import Sequence

import numpy as np

from .errors import ZeroRange

DEFAULT_EPS_RANGE = 1e-9


@dataclass(frozen=True)
class PolynomialTrajectory:
    """Planar trajectory as polynomial coefficients about a reference time.

    Attributes:
        ref_time: Reference instant t_i (s).
        coeffs: Tuple of (x, y) coefficients a_k in meters * s^-k, k = 0..p.
            Evaluation at ref_time returns coeffs[0] exactly.
    """

    ref_time: float
    coeffs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        coeffs = tuple((float(x), float(y)) for x, y in self.coeffs)
        if len(coeffs) < 1:
            raise ValueError("coeffs must contain at least the position term a_0")
        object.__setattr__(self, "ref_time", float(self.ref_time))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        """Polynomial order p (coeffs has length p + 1)."""
        return len(self.coeffs) - 1

    def eval(self, t: float | np.ndarray, derivative_order: int = 0) -> np.ndarray:
        """Evaluate the trajectory or one of its time derivatives.

        Returns sum_{k>=d} a_k * k!/(k-d)! * (t - ref_time)^(k-d), shape (2,)
        for a scalar time and (N, 2) for N times; zero when derivative_order
        exceeds the effective order. Powers come from repeated
        multiplication, which rounds identically for scalars and arrays, and
        stop at the last nonzero term's, so trailing zero pairs change nothing.
        """
        if derivative_order < 0:
            raise ValueError(f"derivative_order must be >= 0, got {derivative_order}")
        dt = np.asarray(t, dtype=float) - self.ref_time
        # The x/y axis first, so every term runs along the times; one transpose at the end.
        coeffs = np.array(self.coeffs).T.reshape((2, -1) + (1,) * dt.ndim)
        out = np.zeros((2,) + dt.shape)
        power = np.ones_like(dt)
        for k in range(derivative_order, self.effective_order() + 1):
            if k > derivative_order:  # no power past the last term's, which could overflow
                power = power * dt
            scale = factorial(k) // factorial(k - derivative_order)
            out += (scale * power) * coeffs[:, k]
        return np.ascontiguousarray(out.T)

    def padded(self, order: int) -> "PolynomialTrajectory":
        """Same trajectory with zero coefficients appended up to ``order``."""
        if order <= self.order:
            return self
        extra = ((0.0, 0.0),) * (order - self.order)
        return PolynomialTrajectory(self.ref_time, self.coeffs + extra)

    def effective_order(self) -> int:
        """Order after trimming trailing exactly-zero coefficient pairs."""
        p = self.order
        while p > 0 and self.coeffs[p] == (0.0, 0.0):
            p -= 1
        return p

    def to_dict(self) -> dict:
        return {"type": "polynomial", "ref_time": self.ref_time,
                "coeffs": [list(c) for c in self.coeffs]}


@dataclass(frozen=True, eq=False)
class RelativeState:
    """Observer-to-target relative kinematics at one instant or over a grid.

    For a scalar time, position and velocity are 2-vectors and range and
    range_rate are floats; for N times they are (N, 2) and (N,) arrays.
    range is the Euclidean norm of position; range_rate is the projection
    velocity . position / range, so |range_rate| <= ||velocity||.
    """

    position: np.ndarray
    velocity: np.ndarray
    range: float | np.ndarray
    range_rate: float | np.ndarray


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """Trajectory known only at discrete sample times.

    Attributes:
        times: Strictly increasing sample instants (s), length >= 2.
        positions: (N, 2) array of positions (m).
    """

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("times must be a 1-D array of length >= 2")
        if positions.shape != (len(times), 2):
            raise ValueError(
                f"positions must have shape ({len(times)}, 2), got {positions.shape}"
            )
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    def to_dict(self) -> dict:
        return {"type": "sampled", "times": self.times.tolist(),
                "positions": self.positions.tolist()}


def relative_states(
    trajectories: Sequence[PolynomialTrajectory],
    observer: PolynomialTrajectory,
    t: float | np.ndarray,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> RelativeState:
    """Relative kinematics of M targets against one observer, in one array pass.

    ``t`` is a scalar time or a 1-D array of N times; position and velocity
    are (M, 2) or (M, N, 2), range and range_rate (M,) or (M, N). Row i is
    ``target.eval(t, 0) - observer.eval(t, 0)`` (and likewise for the first
    derivative) with the powers of ``eval``: rows are processed in order of
    decreasing effective order, and the term k loop covers only the rows whose
    order reaches k, so no row forms a power that none of its nonzero terms
    uses (it could overflow on a long window, and inf * 0 is nan). Range and
    range rate are written out per component rather than through
    ``np.linalg.norm`` or ``@``, so both forms round identically.

    Raises:
        ZeroRange: If a separation is below ``eps_range`` (range rate and
            bearing are undefined there); ``target_index`` is the first such
            target and ``time`` its first such time.
    """
    times = np.asarray(t, dtype=float)
    # The observer is evaluated as the last row of the same stack.
    stack = (*trajectories, observer)
    orders = [traj.effective_order() for traj in stack]
    top = max(orders)
    rows = sorted(range(len(stack)), key=lambda i: -orders[i])
    # Work arrays put the x/y axis first, so every operation runs along the times.
    # Coefficients, cut at the effective order, are zero-padded to one column past
    # the top order (term k + 1 is sliced at every k) and read in one flat pass.
    padded = chain.from_iterable(
        stack[i].coeffs[:orders[i] + 1] + ((0.0, 0.0),) * (top + 1 - orders[i]) for i in rows)
    coeffs = np.fromiter(chain.from_iterable(padded), float, 2 * (top + 2) * len(rows))
    coeffs = coeffs.reshape(len(rows), top + 2, 2).T.reshape(
        (2, top + 2, len(rows)) + (1,) * times.ndim)
    ref = np.array([stack[i].ref_time for i in rows])
    dt = times[np.newaxis] - ref.reshape((-1,) + (1,) * times.ndim)
    reach = [sum(p >= k for p in orders) for k in range(top + 2)]
    position = np.zeros((2,) + dt.shape)
    velocity = np.zeros((2,) + dt.shape)
    power = np.ones_like(dt)
    for k, (n, m) in enumerate(zip(reach, reach[1:])):
        # power is dt^k: term k of the position, term k + 1 of the velocity.
        position[:, :n] += power[:n] * coeffs[:, k, :n]
        velocity[:, :m] += ((k + 1) * power[:m]) * coeffs[:, k + 1, :m]
        power[:m] *= dt[:m]  # dt^(k + 1), for the rows whose order reaches k + 1
    back = np.argsort(rows)
    targets, own = back[:-1], back[-1:]
    position = position[:, targets] - position[:, own]
    velocity = velocity[:, targets] - velocity[:, own]
    x, y = position
    rng = np.sqrt(x * x + y * y)
    below = rng < eps_range
    if np.any(below):
        i = int(np.argmax(below.reshape(len(trajectories), -1).any(axis=1)))
        first = float(times[below[i]][0])
        closest = float(np.asarray(rng[i])[below[i]][0])
        raise ZeroRange(
            f"target coincides with observer at t={first} (range {closest:.3e} m)",
            target_index=i, time=first)
    rate = (velocity[0] * x + velocity[1] * y) / rng
    return RelativeState(position=np.moveaxis(position, 0, -1),
                         velocity=np.moveaxis(velocity, 0, -1), range=rng, range_rate=rate)


def relative_state(
    target: PolynomialTrajectory,
    observer: PolynomialTrajectory,
    t: float | np.ndarray,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> RelativeState:
    """Relative position/velocity, range, and range rate of one target vs observer.

    The one-target case of ``relative_states``; ``t`` is a scalar time or a
    1-D array of times (see ``RelativeState``).

    Raises:
        ZeroRange: If the separation is below ``eps_range`` (range rate and
            bearing are undefined there); ``time`` is the first such time.
    """
    state = relative_states((target,), observer, t, eps_range)
    return RelativeState(position=state.position[0], velocity=state.velocity[0],
                         range=state.range[0], range_rate=state.range_rate[0])


def propagate_ode(x_initial: np.ndarray, t_i: float, t_f: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 propagation of the chain-integrator state.

    Serves as the independent numerical oracle for the polynomial
    propagation in ``measurement.design_matrix``: exact (to roundoff) for
    orders <= 4, O(h^4)-accurate above.

    Args:
        x_initial: Raw-derivative state of even length 2(p + 1).
        t_i: Start time (s).
        t_f: End time (s).
        steps: Number of RK4 steps, >= 1.
    """
    x = np.asarray(x_initial, dtype=float).copy()
    if x.ndim != 1 or len(x) % 2 != 0 or len(x) == 0:
        raise ValueError(f"state length must be even and positive, got {x.shape}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    p = len(x) // 2 - 1
    E = np.kron(np.eye(p + 1, k=1), np.eye(2))  # d/dt x^(k) = x^(k+1)
    h = (float(t_f) - float(t_i)) / steps
    for _ in range(steps):
        k1 = E @ x
        k2 = E @ (x + 0.5 * h * k1)
        k3 = E @ (x + 0.5 * h * k2)
        k4 = E @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def state_from_trajectory(traj: PolynomialTrajectory, t_i: float | None = None,
                          order: int | None = None) -> np.ndarray:
    """Raw-derivative state [x, y, xdot, ydot, ..., x^(order), y^(order)] of a
    trajectory at t_i (default: ref_time), up to ``order`` (default: its own)."""
    if t_i is None:
        t_i = traj.ref_time
    if order is None:
        order = traj.order
    return np.concatenate([traj.eval(t_i, k) for k in range(order + 1)])


def trajectory_from_state(state: np.ndarray, ref_time: float) -> PolynomialTrajectory:
    """Inverse of ``state_from_trajectory``: coefficients a_k = x^(k)/k!."""
    state = np.asarray(state, dtype=float)
    if state.ndim != 1 or len(state) % 2 != 0 or len(state) == 0:
        raise ValueError(f"state length must be even and positive, got {state.shape}")
    coeffs = tuple(
        (state[2 * k] / factorial(k), state[2 * k + 1] / factorial(k))
        for k in range(len(state) // 2)
    )
    return PolynomialTrajectory(ref_time=ref_time, coeffs=coeffs)
