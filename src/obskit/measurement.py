"""Noise-free bearing/Doppler measurements and the pseudo-linear design matrix.

Bearing convention: angle from the +y axis toward +x (tan theta = x/y),
resolved over the full circle with atan2(x, y) and wrapped to (-pi, pi].
Doppler uses the one-way narrowband model f0 * (1 - range_rate / c).
A scenario has one measurement history (``measure_scenario``), built by
the pass that validates it and kept on the scenario, so every analysis of
one scenario reads the same read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import TYPE_CHECKING

import numpy as np

from .errors import ZeroRange
from .trajectory import RelativeState

if TYPE_CHECKING:
    from .scenario_io import Scenario

DEFAULT_SOUND_SPEED = 1500.0  # m/s, underwater acoustics context


@dataclass(frozen=True)
class Tonal:
    """Narrowband frequency radiated by a target."""

    f0: float

    def __post_init__(self):
        if not self.f0 > 0:
            raise ValueError(f"tonal frequency must be > 0 Hz, got {self.f0}")
        object.__setattr__(self, "f0", float(self.f0))


@dataclass(frozen=True, eq=False)
class MeasurementHistory:
    """Per-target time series of bearings and (optionally) Doppler frequencies.

    Attributes:
        times: Grid instants (s), length N.
        bearings: (M, N) array of bearings in (-pi, pi].
        dopplers: Per-target length-N arrays of received frequency (Hz), or
            None for targets without a configured tonal.
    """

    times: np.ndarray
    bearings: np.ndarray
    dopplers: tuple[np.ndarray | None, ...]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        bearings = np.atleast_2d(np.asarray(self.bearings, dtype=float))
        if bearings.shape[1] != len(times):
            raise ValueError("bearings must have one column per time sample")
        dopplers = tuple(
            None if d is None else np.asarray(d, dtype=float) for d in self.dopplers
        )
        if len(dopplers) != bearings.shape[0]:
            raise ValueError("dopplers must have one entry per target")
        for d in dopplers:
            if d is not None and d.shape != times.shape:
                raise ValueError("each doppler series must match the time grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bearings", bearings)
        object.__setattr__(self, "dopplers", dopplers)

    @property
    def num_targets(self) -> int:
        return self.bearings.shape[0]

    @cached_property
    def sorted_mod_pi(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, phi), both (M, N) and read-only: column k of phi holds the
        bearings at node k modulo pi in ascending order, each np.mod's value
        in [0, pi], and column k of order their targets. Sorted on first use
        and kept, so the pair diagnostics of one history share one sort."""
        phi = np.fmod(self.bearings, np.pi)  # exact
        phi += np.pi * (phi < 0)  # np.mod's value: one rounding, only when negative
        order = np.argsort(phi, axis=0)
        phi = np.take(phi, order * phi.shape[1] + np.arange(phi.shape[1]))
        order.flags.writeable = phi.flags.writeable = False
        return order, phi

    @cached_property
    def kept_factors(self) -> list:
        """The one entry ``observability.gramian`` keeps for this history, by
        ``scenario_io._kept``: empty until its first call, then the last
        Gramian factors built on these arrays, which must not change after."""
        return []


def wrap_angle(theta: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle (or array) to (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def bearing(rel: RelativeState) -> float | np.ndarray:
    """Full-quadrant bearing of a relative position, in (-pi, pi].

    A float for a single instant, an array for a grid of instants.

    Raises:
        ZeroRange: If the relative range is not positive.
    """
    if not np.all(rel.range > 0.0):
        raise ZeroRange("bearing undefined at zero range")
    return wrap_angle(np.arctan2(rel.position[..., 0], rel.position[..., 1]))


def doppler(f0: float | np.ndarray, range_rate: float | np.ndarray,
            c: float = DEFAULT_SOUND_SPEED) -> float | np.ndarray:
    """Received frequency f0 * (1 - range_rate / c): the one narrowband model.

    Closing geometry (range_rate < 0) shifts the tonal up.
    """
    if not c > 0:
        raise ValueError(f"propagation speed must be > 0 m/s, got {c}")
    return f0 * (1.0 - range_rate / c)


def design_matrix(thetas: np.ndarray, times: np.ndarray, t0: float, p: int) -> np.ndarray:
    """Pseudo-linear design matrices of order-p targets over a time grid.

    ``thetas`` holds one bearing per grid instant, (N,) for one target or
    (k, N) for k targets stacked; the result has shape (..., N, 2(p + 1)).
    Row n is [1, dt, dt^2/2!, ..., dt^p/p!] (x) [cos theta_n, -sin theta_n]
    with dt = t_n - t0, matching the state order [x, y, xdot, ydot, ...]. It
    maps a target's raw-derivative state at t0 to the pseudo-linear
    measurement cos(theta_n) x(t_n) - sin(theta_n) y(t_n), which is zero for
    the target's true position relative to the observer.
    """
    if p < 0:
        raise ValueError(f"polynomial order must be >= 0, got {p}")
    thetas = np.asarray(thetas, dtype=float)
    dt = np.asarray(times, dtype=float) - t0
    powers = np.empty((p + 1, len(dt)))
    power = np.ones_like(dt)
    for j in range(p + 1):
        powers[j] = power / factorial(j)
        power = power * dt
    # Built with the grid axis last, so every product runs along N; the
    # result is the transposed view.
    out = np.empty(thetas.shape[:-1] + (p + 1, 2, len(dt)))
    np.multiply(np.cos(thetas)[..., None, :], powers, out=out[..., 0, :])
    np.multiply(-np.sin(thetas)[..., None, :], powers, out=out[..., 1, :])
    return out.reshape(*thetas.shape[:-1], 2 * (p + 1), len(dt)).swapaxes(-1, -2)


def received_frequencies(scenario: "Scenario",
                         rel: RelativeState) -> tuple[np.ndarray | None, ...]:
    """Each target's received frequency over the grid of ``rel``, None for a
    target without a tonal: one ``doppler`` call over the range rates of the
    targets with a tonal."""
    rows = [i for i, target in enumerate(scenario.targets) if target.tonal is not None]
    f0 = np.array([scenario.targets[i].tonal.f0 for i in rows])[:, np.newaxis]
    shifted = dict(zip(rows, doppler(f0, rel.range_rate[rows], scenario.c)))
    return tuple(shifted.get(i) for i in range(len(scenario.targets)))


def keep_history(scenario: "Scenario", times: np.ndarray, rel: RelativeState,
                 dopplers: tuple[np.ndarray | None, ...]) -> MeasurementHistory:
    """Keep the scenario's one history, with read-only arrays: the bearings of
    ``rel`` and the ``received_frequencies`` over ``times``, the scenario's grid.

    Raises:
        ZeroRange: If a range of ``rel`` is not positive.
    """
    history = MeasurementHistory(times=times, bearings=bearing(rel), dopplers=dopplers)
    for array in (history.times, history.bearings, *history.dopplers):
        if array is not None:
            array.flags.writeable = False
    vars(scenario)["_history"] = history
    return history


def measure_scenario(scenario: "Scenario") -> MeasurementHistory:
    """The scenario's bearings (and Doppler where a tonal exists) over its grid.

    One history per Scenario object, with read-only arrays, so every later
    call returns the same object. Its one builder is
    ``scenario_io.validate_scenario``, from the kinematics pass and the
    Doppler series it checked; a scenario never validated, such as one built
    in code, is validated on the first call.

    Raises:
        ValidationError: The file loader's, naming the field, for a scenario
            never validated that breaks an invariant; nothing is kept.
    """
    if "_history" not in vars(scenario):  # outside the dataclass fields; see ``Scenario``
        from .scenario_io import validate_scenario  # scenario_io imports this module
        validate_scenario(scenario)
    return vars(scenario)["_history"]


def angular_difference(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """Absolute circular distance between two angles, in [0, pi]."""
    return np.abs(wrap_angle(np.asarray(a) - np.asarray(b)))
