"""Construction and verification of ambiguous trajectory pairs.

Two targets are ambiguous under a measurement regime when their measurement
histories coincide over the whole window. Doppler equality constrains only
the range histories: integrating the equal-frequency condition gives

    s_i(t) = l' s_j(t) + b' + c (1 - l') (t - t_i),
    l' = f_j0 / f_i0,   b' = s_i(0) - l' s_j(0),

so any direction history obtained by rotating the base target's line of
sight preserves Doppler while (generically) breaking bearings. Bearing
equality constrains only directions: s_i(t) = alpha(t) s_j(t) for any
positive scalar profile alpha. Requiring both regimes forces the rotation
to be trivial and ties the scale to the range relation, which is the
rigidity that the combined-measurement eigencheck quantifies.

Each relation has one home: the range relation is ``DopplerAmbiguitySpec.ranges``
and the Doppler comparison with its default tolerance is ``_compare_doppler``.
The reports never build the transform W(t) = scale(t) R(psi(t)); they read
their values off its closed form.

Rotation angles are counterclockwise in the x-y plane. ``rotation`` and
``alpha`` profiles may be callables of time, per-node sample arrays, or
scalars (constant profiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonPositiveAlpha, NonPositiveRange, ZeroRange
from .measurement import DEFAULT_SOUND_SPEED, angular_difference, doppler
from .scenario_io import Tolerances, fields_dict
from .trajectory import (DEFAULT_EPS_RANGE, PolynomialTrajectory, SampledTrajectory,
                         relative_state)

DOPPLER = "doppler"
BEARING = "bearing"
COMBINED = "combined"
AMBIGUOUS = "ambiguous"
DISTINGUISHABLE = "distinguishable"

ScalarProfile = Union[Callable[[float], float], np.ndarray, float]
Trajectory = Union[PolynomialTrajectory, SampledTrajectory]


@dataclass(frozen=True, eq=False)
class DopplerAmbiguitySpec:
    """Parameters of a Doppler-preserving counterpart trajectory.

    Attributes:
        l_prime: Tonal ratio f_j0 / f_i0 (> 0); the generated target must
            radiate f_i0 = f_j0 / l_prime for its Doppler history to match.
        b_prime: Initial range offset s_i(0) - l_prime * s_j(0), meters.
        rotation: Line-of-sight rotation angle profile (radians).
        c: Propagation speed (m/s).
    """

    l_prime: float
    b_prime: float
    rotation: ScalarProfile
    c: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        if not (math.isfinite(self.l_prime) and self.l_prime > 0):
            raise ValueError(f"l_prime must be a finite number > 0, got {self.l_prime}")
        if not math.isfinite(self.b_prime):
            raise ValueError(f"b_prime must be a finite number, got {self.b_prime}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a finite number > 0 m/s, got {self.c}")

    def ranges(self, s_j: np.ndarray | float, times: np.ndarray) -> np.ndarray:
        """The counterpart's ranges l' s_j + b' + c (1 - l') (t - t_i), t_i = times[0]."""
        return (self.l_prime * s_j + self.b_prime
                + self.c * (1.0 - self.l_prime) * (times - times[0]))


@dataclass(frozen=True, eq=False)
class AmbiguityCertificate:
    """Residuals of a trajectory pair and the per-regime verdict.

    verdict is "ambiguous" when the regime-relevant residuals fall below
    their tolerances: Doppler compares received-frequency histories,
    bearing compares direction histories, combined requires both.
    """

    regime: str
    verdict: str
    residual_doppler: float | None
    residual_bearing: float
    tol_f: float | None
    tol_theta: float
    tonals: tuple[float, float] | None
    trajectory_i: Trajectory
    trajectory_j: Trajectory

    to_dict = fields_dict


@dataclass(frozen=True, eq=False)
class CombinedConditionReport:
    """Per-node eigencheck of the combined-measurement rigidity condition.

    The range-relation transform W(t) (rotation times scale) must map the
    base relative position onto itself for the pair to stay ambiguous under
    both measurements; eigen_residuals is the relative off-eigenvector part
    (|sin| of the rotation), alphas the Rayleigh-quotient scale (scale times
    cos of the rotation).
    combined_ambiguous requires the eigenvector condition AND alpha == 1,
    which forces the trajectories to coincide.
    """

    combined_ambiguous: bool
    eigenvector_condition_holds: bool
    alpha_is_unity: bool
    max_eigen_residual: float
    max_alpha_deviation: float
    tol: float
    times: np.ndarray
    alphas: np.ndarray
    eigen_residuals: np.ndarray
    position_residuals: np.ndarray

    to_dict = fields_dict


@dataclass(frozen=True, eq=False)
class DopplerSufficiencyReport:
    """Status of the three sufficient conditions for Doppler-history equality.

    The triple (equal tonals, identity transform, equal ranges) is
    sufficient but not necessary: implication_holds only asserts that
    whenever all three hold, the Doppler residual is below tolerance.
    """

    tonals_equal: bool
    transform_is_identity: bool
    ranges_equal: bool
    all_conditions_hold: bool
    residual_doppler: float
    implication_holds: bool
    max_transform_deviation: float
    max_range_deviation: float
    tol: float
    tol_f: float

    to_dict = fields_dict


def _profile_values(profile: ScalarProfile, times: np.ndarray, name: str) -> np.ndarray:
    if callable(profile):
        values = np.array([float(profile(t)) for t in times])
    else:
        values = np.asarray(profile, dtype=float)
        if values.ndim == 0:
            values = np.full(len(times), float(values))
        elif values.shape != times.shape:
            raise ValueError(
                f"{name} samples must match the grid length {len(times)}, got {values.shape}")
    if not np.isfinite(values).all():
        k = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"{name} must be finite on the grid, got {values[k]} at t={times[k]}")
    return values


def _grid(grid: np.ndarray) -> np.ndarray:
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("grid must be a 1-D array of at least two times")
    if not np.all(np.diff(times) > 0):
        raise ValueError("grid times must be strictly increasing")
    return times


def _relative_series(traj: Trajectory, observer: PolynomialTrajectory,
                     times: np.ndarray, eps_range: float):
    """Relative positions, ranges, and range rates of a trajectory on the grid.

    Polynomial trajectories get exact range rates; sampled ones get central
    differences of the range history (second-order one-sided at the ends),
    which need at least 3 grid times.
    """
    if isinstance(traj, PolynomialTrajectory):
        state = relative_state(traj, observer, times, eps_range)
        return state.position, state.range, state.range_rate
    if len(times) < 3:
        raise ValueError("range rates of a sampled trajectory need at least 3 grid "
                         f"times for second-order differences, got {len(times)}")
    # The tolerance scales with the grid step, so the check does not depend on
    # the time unit. A grid that is the trajectory's own times passes it.
    if traj.times is not times and (len(traj.times) != len(times) or not np.allclose(
            traj.times, times, rtol=0.0, atol=1e-9 * np.min(np.diff(times)))):
        raise ValueError("sampled trajectory times must coincide with the grid")
    rel = traj.positions - observer.eval(times)
    ranges = np.linalg.norm(rel, axis=1)
    if np.any(ranges < eps_range):
        k = int(np.argmin(ranges))
        raise ZeroRange(f"trajectory meets the observer at t={times[k]}",
                        time=float(times[k]))
    # edge_order=2 keeps the one-sided endpoint differences at O(dt^2),
    # matching the interior central differences.
    return rel, ranges, np.gradient(ranges, times, edge_order=2)


def _rotate(vectors: np.ndarray, angles: np.ndarray) -> np.ndarray:
    cos, sin = np.cos(angles), np.sin(angles)
    x, y = vectors[:, 0], vectors[:, 1]
    return np.column_stack([cos * x - sin * y, sin * x + cos * y])


def default_doppler_tolerance(f_ref: float, times: np.ndarray) -> float:
    """Roundoff floor plus central-difference slack: 1e-9 * f_ref + 10 * dt^2 Hz."""
    dt = float(np.max(np.diff(times)))
    return 1e-9 * f_ref + 10.0 * dt ** 2


def _compare_doppler(tonals: tuple[float, float], rates_i: np.ndarray, rates_j: np.ndarray,
                     c: float, times: np.ndarray, tol_f: float | None) -> tuple[float, float]:
    """Max |f_i - f_j| over the grid, and tol_f (the default tolerance when None)."""
    f_i0, f_j0 = tonals
    residual = float(np.max(np.abs(doppler(f_i0, rates_i, c) - doppler(f_j0, rates_j, c))))
    return residual, default_doppler_tolerance(max(tonals), times) if tol_f is None else tol_f


def generate_doppler_ambiguous(
    base: PolynomialTrajectory,
    observer: PolynomialTrajectory,
    spec: DopplerAmbiguitySpec,
    grid: np.ndarray,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> SampledTrajectory:
    """Counterpart trajectory with an identical Doppler history.

    At each grid time the counterpart keeps the range dictated by the
    integrated equal-frequency relation and points along the base line of
    sight rotated by the spec's angle profile. It must radiate the tonal
    f_j0 / l_prime for the histories to coincide.

    Raises:
        NonPositiveRange: If the range relation goes non-positive on the
            window (spec infeasible).
        ZeroRange: If the base trajectory meets the observer.
    """
    times = _grid(grid)
    rel_j, s_j, _ = _relative_series(base, observer, times, eps_range)
    s_i = spec.ranges(s_j, times)
    if np.any(s_i <= 0):
        k = int(np.argmax(s_i <= 0))
        raise NonPositiveRange(
            f"derived range {s_i[k]:.6g} m at t={times[k]}; "
            f"spec infeasible on this window", time=float(times[k]))
    psi = _profile_values(spec.rotation, times, "rotation")
    positions = observer.eval(times) + s_i[:, None] * _rotate(rel_j / s_j[:, None], psi)
    return SampledTrajectory(times=times, positions=positions)


def generate_bearing_ambiguous(
    base: PolynomialTrajectory,
    observer: PolynomialTrajectory,
    alpha: ScalarProfile,
    grid: np.ndarray,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> SampledTrajectory:
    """Counterpart trajectory with an identical bearing history.

    Scales the base relative position by the positive profile alpha(t);
    positive scaling preserves the line-of-sight direction exactly.

    Raises:
        NonPositiveAlpha: If the profile is not strictly positive on the grid.
    """
    times = _grid(grid)
    values = _profile_values(alpha, times, "alpha")
    if np.any(values <= 0):
        k = int(np.argmax(values <= 0))
        raise NonPositiveAlpha(
            f"alpha({times[k]}) = {values[k]:.6g} must be > 0", time=float(times[k]))
    rel_j, _, _ = _relative_series(base, observer, times, eps_range)
    positions = observer.eval(times) + values[:, None] * rel_j
    return SampledTrajectory(times=times, positions=positions)


def verify_ambiguity(
    traj_i: Trajectory,
    traj_j: Trajectory,
    observer: PolynomialTrajectory,
    tonals: tuple[float, float] | None,
    c: float,
    grid: np.ndarray,
    regime: str = COMBINED,
    tol_f: float | None = None,
    tol_theta: float = Tolerances.tol_theta,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> AmbiguityCertificate:
    """Compare the measurement histories of a trajectory pair.

    Args:
        tonals: (f_i0, f_j0) radiated frequencies; None skips the Doppler
            residual (allowed only for the bearing regime).
        tol_f: Doppler tolerance in Hz; defaults to
            1e-9 * max tonal + 10 * dt^2 (discretization slack for sampled
            trajectories).
        regime: "doppler", "bearing", or "combined".
    """
    if regime not in (DOPPLER, BEARING, COMBINED):
        raise ValueError(f"unknown regime {regime!r}")
    times = _grid(grid)
    rel_i, _, rates_i = _relative_series(traj_i, observer, times, eps_range)
    rel_j, _, rates_j = _relative_series(traj_j, observer, times, eps_range)

    theta_i = np.arctan2(rel_i[:, 0], rel_i[:, 1])
    theta_j = np.arctan2(rel_j[:, 0], rel_j[:, 1])
    residual_bearing = float(np.max(angular_difference(theta_i, theta_j)))

    residual_doppler = None
    if tonals is not None:
        residual_doppler, tol_f = _compare_doppler(tonals, rates_i, rates_j, c, times, tol_f)
    elif regime != BEARING:
        raise ValueError(f"{regime} regime requires tonals")

    ambiguous = ((regime == BEARING or residual_doppler < tol_f)
                 and (regime == DOPPLER or residual_bearing < tol_theta))

    return AmbiguityCertificate(
        trajectory_i=traj_i,
        trajectory_j=traj_j,
        regime=regime,
        residual_doppler=residual_doppler,
        residual_bearing=residual_bearing,
        verdict=AMBIGUOUS if ambiguous else DISTINGUISHABLE,
        tol_f=tol_f,
        tol_theta=tol_theta,
        tonals=tonals,
    )


def check_combined_condition(
    traj_i: Trajectory,
    traj_j: Trajectory,
    observer: PolynomialTrajectory,
    spec: DopplerAmbiguitySpec,
    grid: np.ndarray,
    tol: float = 1e-8,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> CombinedConditionReport:
    """Eigencheck of the combined-measurement rigidity condition.

    Reads the per-node values off W(t) = scale R(psi), scale = spec.ranges(s_j) / s_j:
    the Rayleigh scale alpha = s_j^T W s_j / |s_j|^2 = scale cos(psi), the
    relative residual of W s_j off the s_j direction |sin(psi)| (0 where
    W = 0), and whether alpha = 1 throughout. Both must hold for combined
    ambiguity, which forces the pair to coincide; position_residuals checks
    the identity pos_i - pos_j = (W - I) s_j against the actual pair, as
    |s_i - W s_j| / |s_j|.
    """
    times = _grid(grid)
    rel_i, _, _ = _relative_series(traj_i, observer, times, eps_range)
    rel_j, s_j, _ = _relative_series(traj_j, observer, times, eps_range)

    psi = _profile_values(spec.rotation, times, "rotation")
    # The relation is affine in s_j with slope l': ranges(s_j) / s_j = l' + ranges(0) / s_j.
    scale = spec.l_prime + spec.ranges(0.0, times) / s_j
    alphas = scale * np.cos(psi)
    eigen_residuals = np.where(scale == 0, 0.0, np.abs(np.sin(psi)))
    position_residuals = np.linalg.norm(
        rel_i - scale[:, None] * _rotate(rel_j, psi), axis=1) / s_j

    max_eigen = float(np.max(eigen_residuals))
    max_alpha_dev = float(np.max(np.abs(alphas - 1.0)))
    eig_ok = max_eigen < tol
    alpha_ok = max_alpha_dev < tol
    return CombinedConditionReport(
        times=times,
        alphas=alphas,
        eigen_residuals=eigen_residuals,
        position_residuals=position_residuals,
        max_eigen_residual=max_eigen,
        max_alpha_deviation=max_alpha_dev,
        eigenvector_condition_holds=eig_ok,
        alpha_is_unity=alpha_ok,
        combined_ambiguous=eig_ok and alpha_ok,
        tol=tol,
    )


def check_doppler_sufficiency(
    traj_i: Trajectory,
    traj_j: Trajectory,
    observer: PolynomialTrajectory,
    tonals: tuple[float, float],
    c: float,
    grid: np.ndarray,
    tol: float = 1e-8,
    tol_f: float | None = None,
    eps_range: float = DEFAULT_EPS_RANGE,
) -> DopplerSufficiencyReport:
    """Check the three sufficient conditions for equal Doppler histories.

    The conditions are (1) equal radiated tonals, (2) the geometric
    transform W carrying the base relative position onto the counterpart is
    the identity, (3) equal ranges. W maps s_j onto s_i, so its deviation
    from the identity is |W - I| = |s_i - s_j| / |s_j| per node, read off
    the pair itself. The report also confirms the implication
    "all three hold => Doppler residual below tolerance"; the converse is
    false (the triple is not necessary), which callers can see on pairs
    with unequal tonals and matching residuals.
    """
    times = _grid(grid)
    rel_i, s_i, rates_i = _relative_series(traj_i, observer, times, eps_range)
    rel_j, s_j, rates_j = _relative_series(traj_j, observer, times, eps_range)
    residual, tol_f = _compare_doppler(tonals, rates_i, rates_j, c, times, tol_f)

    tonals_equal = abs(tonals[0] - tonals[1]) <= tol * max(tonals)
    max_transform_dev = float(np.max(np.linalg.norm(rel_i - rel_j, axis=1) / s_j))
    transform_is_identity = max_transform_dev < tol
    max_range_dev = float(np.max(np.abs(s_i - s_j) / s_j))
    ranges_equal = max_range_dev < tol

    all_hold = tonals_equal and transform_is_identity and ranges_equal
    return DopplerSufficiencyReport(
        tonals_equal=tonals_equal,
        transform_is_identity=transform_is_identity,
        ranges_equal=ranges_equal,
        all_conditions_hold=all_hold,
        residual_doppler=residual,
        implication_holds=(not all_hold) or residual < tol_f,
        max_transform_deviation=max_transform_dev,
        max_range_deviation=max_range_dev,
        tol=tol,
        tol_f=tol_f,
    )

