"""Scenario definition, JSON (de)serialization, and CSV export helpers.

Scenario JSON schema (all angles radians, frequencies Hz, lengths meters):

    {
      "observer": {"coeffs": [[x, y], ...]},
      "targets": [{"coeffs": [[x, y], ...], "tonal_hz": 1000.0}, ...],
      "time": {"start": 0.0, "end": 60.0, "points": 121},
      "c": 1500.0,
      "tolerances": {"rank_tol": ..., "collinearity_tol": ..., "tol_f": ...,
                     "tol_theta": ..., "eps_range": ...}
    }

``c`` and ``tolerances`` are optional. Trajectory coefficients are Taylor
coefficients about ``time.start`` (coeffs[k] multiplies (t - start)^k).
On load, target coefficient lists shorter than the observer's are
zero-padded to the observer's order; padding does not change the
trajectory, and analyses derive each target's order by trimming the
trailing zero coefficients back off.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .errors import ParseError, ValidationError, ZeroRange
from .measurement import DEFAULT_SOUND_SPEED, MeasurementHistory, Tonal
from .trajectory import (DEFAULT_EPS_RANGE, PolynomialTrajectory, SampledTrajectory,
                         relative_state)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the analyses.

    tol_f of None means "derive from context": 1e-9 * tonal + 10 * dt^2 Hz,
    the noise-free roundoff scale plus central-difference discretization slack.
    """

    rank_tol: float = 1e-8
    collinearity_tol: float = 1e-3
    tol_f: float | None = None
    tol_theta: float = 1e-8
    eps_range: float = DEFAULT_EPS_RANGE


@dataclass(frozen=True)
class TargetConfig:
    """One target: its trajectory and, optionally, the tonal it radiates."""

    trajectory: PolynomialTrajectory
    tonal: Tonal | None = None


@dataclass(frozen=True)
class Scenario:
    """Observer, targets, time window/grid, propagation speed, tolerances."""

    observer: PolynomialTrajectory
    targets: tuple[TargetConfig, ...]
    t_start: float
    t_end: float
    grid_points: int
    c: float = DEFAULT_SOUND_SPEED
    tolerances: Tolerances = field(default_factory=Tolerances)

    def grid(self) -> np.ndarray:
        """Uniform time grid over [t_start, t_end]."""
        return np.linspace(self.t_start, self.t_end, self.grid_points)

    def effective_orders(self) -> tuple[int, ...]:
        """Per-target polynomial orders with trailing zero coefficients trimmed.

        This undoes the loader's observer-order padding so that analyses see
        each target's own dynamic order.
        """
        return tuple(t.trajectory.effective_order() for t in self.targets)

    def target_trajectories(self) -> tuple[PolynomialTrajectory, ...]:
        return tuple(t.trajectory for t in self.targets)

    def tonals(self) -> tuple[Tonal | None, ...]:
        return tuple(t.tonal for t in self.targets)


def validate_scenario(scenario: Scenario) -> None:
    """Check every scenario invariant; raise ValidationError with a field path."""
    if not scenario.t_end > scenario.t_start:
        raise ValidationError("time.end", f"must exceed time.start ({scenario.t_start})")
    if scenario.grid_points < 2:
        raise ValidationError("time.points", f"must be >= 2, got {scenario.grid_points}")
    if not scenario.c > 0:
        raise ValidationError("c", f"must be > 0 m/s, got {scenario.c}")
    if not scenario.targets:
        raise ValidationError("targets", "at least one target is required")
    eps = scenario.tolerances.eps_range
    times = scenario.grid()
    for i, target in enumerate(scenario.targets):
        try:
            relative_state(target.trajectory, scenario.observer, times, eps)
        except ZeroRange as exc:
            raise ValidationError(
                f"targets[{i}]", f"coincides with the observer at t={exc.time}"
            ) from None


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _coeffs_from_json(raw: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(path, "must be a non-empty list of [x, y] pairs")
    coeffs = []
    for k, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)):
            raise ValidationError(f"{path}[{k}]", "must be a numeric [x, y] pair")
        coeffs.append((float(pair[0]), float(pair[1])))
    return tuple(coeffs)


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON data."""
    if not isinstance(data, dict):
        raise ValidationError("", "scenario file must contain a JSON object")
    time_block = _require(data, "time", "")
    if not isinstance(time_block, dict):
        raise ValidationError("time", "must be an object with start/end/points")
    t_start = float(_require(time_block, "start", "time"))
    t_end = float(_require(time_block, "end", "time"))
    points = _require(time_block, "points", "time")
    if not isinstance(points, int) or isinstance(points, bool):
        raise ValidationError("time.points", f"must be an integer, got {points!r}")

    observer_block = _require(data, "observer", "")
    observer = PolynomialTrajectory(
        ref_time=t_start, coeffs=_coeffs_from_json(
            _require(observer_block, "coeffs", "observer"), "observer.coeffs")
    )

    targets_raw = _require(data, "targets", "")
    if not isinstance(targets_raw, list) or not targets_raw:
        raise ValidationError("targets", "must be a non-empty array")
    targets = []
    for i, entry in enumerate(targets_raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"targets[{i}]", "must be an object")
        coeffs = _coeffs_from_json(
            _require(entry, "coeffs", f"targets[{i}]"), f"targets[{i}].coeffs")
        tonal = None
        if entry.get("tonal_hz") is not None:
            tonal_hz = entry["tonal_hz"]
            if not isinstance(tonal_hz, (int, float)) or tonal_hz <= 0:
                raise ValidationError(f"targets[{i}].tonal_hz",
                                      f"must be a positive number, got {tonal_hz!r}")
            tonal = Tonal(float(tonal_hz))
        traj = PolynomialTrajectory(ref_time=t_start, coeffs=coeffs)
        # Align with the observer's order; see module docstring.
        targets.append(TargetConfig(trajectory=traj.padded(observer.order), tonal=tonal))

    c = float(data.get("c", DEFAULT_SOUND_SPEED))
    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ValidationError("tolerances", "must be an object")
    known = {"rank_tol", "collinearity_tol", "tol_f", "tol_theta", "eps_range"}
    unknown = set(tol_raw) - known
    if unknown:
        raise ValidationError("tolerances", f"unknown keys: {sorted(unknown)}")
    defaults = Tolerances()
    tolerances = Tolerances(
        rank_tol=float(tol_raw.get("rank_tol", defaults.rank_tol)),
        collinearity_tol=float(tol_raw.get("collinearity_tol", defaults.collinearity_tol)),
        tol_f=None if tol_raw.get("tol_f") is None else float(tol_raw["tol_f"]),
        tol_theta=float(tol_raw.get("tol_theta", defaults.tol_theta)),
        eps_range=float(tol_raw.get("eps_range", defaults.eps_range)),
    )

    scenario = Scenario(
        observer=observer, targets=tuple(targets), t_start=t_start, t_end=t_end,
        grid_points=points, c=c, tolerances=tolerances,
    )
    validate_scenario(scenario)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file.

    Raises:
        ParseError: Unreadable file or malformed JSON.
        ValidationError: Schema or invariant violation, with the field path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready representation (fixed key order)."""
    targets = []
    for t in scenario.targets:
        entry: dict[str, Any] = {"coeffs": [list(pair) for pair in t.trajectory.coeffs]}
        if t.tonal is not None:
            entry["tonal_hz"] = t.tonal.f0
        targets.append(entry)
    tol = scenario.tolerances
    return {
        "observer": {"coeffs": [list(pair) for pair in scenario.observer.coeffs]},
        "targets": targets,
        "time": {"start": scenario.t_start, "end": scenario.t_end,
                 "points": scenario.grid_points},
        "c": scenario.c,
        "tolerances": {
            "rank_tol": tol.rank_tol,
            "collinearity_tol": tol.collinearity_tol,
            "tol_f": tol.tol_f,
            "tol_theta": tol.tol_theta,
            "eps_range": tol.eps_range,
        },
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario in canonical form (stable key order, trailing newline)."""
    Path(path).write_text(dumps_json(scenario_to_dict(scenario)), encoding="utf-8")


def _sanitize(value: Any) -> Any:
    """Make a nested structure JSON-safe: numpy scalars to float, non-finite to None."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def dumps_json(data: dict) -> str:
    """Deterministic JSON text: insertion key order, 2-space indent, newline."""
    return json.dumps(_sanitize(data), indent=2, allow_nan=False) + "\n"


def _format_number(value: float) -> str:
    return repr(float(value))


def write_measurements_csv(history: MeasurementHistory, out: TextIO) -> None:
    """Measurement history as CSV with columns t,target_id,bearing_rad,doppler_hz.

    The doppler column is left empty for targets without a tonal.
    """
    out.write("t,target_id,bearing_rad,doppler_hz\n")
    for k, t in enumerate(history.times):
        for i in range(history.num_targets):
            dop = history.dopplers[i]
            dop_text = "" if dop is None else _format_number(dop[k])
            out.write(f"{_format_number(t)},{i},"
                      f"{_format_number(history.bearings[i, k])},{dop_text}\n")


def write_trajectory_csv(traj: SampledTrajectory, out: TextIO) -> None:
    """Sampled trajectory as CSV with columns t,x_m,y_m (same conventions as above)."""
    out.write("t,x_m,y_m\n")
    for t, (x, y) in zip(traj.times, traj.positions):
        out.write(f"{_format_number(t)},{_format_number(x)},{_format_number(y)}\n")


def read_trajectory_csv(path: str | Path) -> SampledTrajectory:
    """Read a t,x_m,y_m CSV back into a SampledTrajectory.

    Raises:
        ParseError: Unreadable file, bad header or value, fewer than three
            rows (range rates of sampled trajectories need second-order
            differences), or times that are not strictly increasing.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
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
    times = np.asarray(times)
    if len(times) < 3:
        raise ParseError(f"{path}: need at least 3 rows, got {len(times)}")
    if not np.all(np.diff(times) > 0):
        raise ParseError(f"{path}: times must be strictly increasing")
    return SampledTrajectory(times=times, positions=np.asarray(positions))
