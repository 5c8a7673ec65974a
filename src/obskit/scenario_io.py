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
trailing zero coefficients back off. ``time.points`` is at most
``MAX_GRID_POINTS``, and every target's range and range rate must be
finite on the grid.

Reports are written with ``dumps_json(report.to_dict())``; each report's
``to_dict`` is ``fields_dict``, so its dataclass fields, in order, are its
JSON keys. The ``Tolerances`` fields are likewise the only list of
tolerance names, for both reading and writing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .errors import ParseError, ValidationError, ZeroRange
from .measurement import DEFAULT_SOUND_SPEED, MeasurementHistory, Tonal
from .trajectory import (DEFAULT_EPS_RANGE, PolynomialTrajectory, SampledTrajectory,
                         relative_states)

# Largest accepted time grid; it bounds the memory of every grid-sized array.
MAX_GRID_POINTS = 1_000_000


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


def _check_fields(scenario: Scenario, points_field: str = "time.points") -> None:
    """The invariants of the window, grid size, propagation speed and target list.

    Grid-size errors name ``points_field``, the field that set the grid size.
    """
    if not scenario.t_end > scenario.t_start:
        raise ValidationError("time.end", f"must exceed time.start ({scenario.t_start})")
    if not math.isfinite(scenario.t_end - scenario.t_start):
        raise ValidationError("time.end", "the window length overflows a float")
    if scenario.grid_points < 2:
        raise ValidationError(points_field, f"must be >= 2, got {scenario.grid_points}")
    if scenario.grid_points > MAX_GRID_POINTS:
        raise ValidationError(
            points_field, f"must be <= {MAX_GRID_POINTS}, got {scenario.grid_points}")
    if not scenario.c > 0:
        raise ValidationError("c", f"must be > 0 m/s, got {scenario.c}")
    if not scenario.targets:
        raise ValidationError("targets", "at least one target is required")


def validate_scenario(scenario: Scenario, points_field: str = "time.points") -> None:
    """Check every scenario invariant; raise ValidationError with a field path.

    The grid's float times must be strictly increasing: far from zero a
    short window can round several nodes to one time. Errors about the grid
    name ``points_field``, the field that set its size. The kinematic check
    evaluates all targets in one ``relative_states`` pass and names the
    first target, in index order, that meets the observer or whose range
    or range rate overflows.
    """
    _check_fields(scenario, points_field)
    trajectories = scenario.target_trajectories()
    eps = scenario.tolerances.eps_range
    times = scenario.grid()
    if not np.all(np.diff(times) > 0):
        raise ValidationError(
            points_field, f"{scenario.grid_points} points on [{scenario.t_start}, "
            f"{scenario.t_end}] give only {len(np.unique(times))} distinct float times")
    zero = None
    # Overflow shows as a non-finite range or range rate, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            state = relative_states(trajectories, scenario.observer, times, eps)
        except ZeroRange as exc:
            # A target before the first one at zero range may overflow; it comes first.
            zero, before = exc, trajectories[:exc.target_index]
            state = relative_states(before, scenario.observer, times, eps) if before else None
    if state is not None:
        overflows = np.flatnonzero(
            ~(np.isfinite(state.range) & np.isfinite(state.range_rate)).all(axis=1))
        if overflows.size:
            raise ValidationError(f"targets[{overflows[0]}]",
                                  "range or range rate overflows a float on the time grid")
    if zero is not None:
        raise ValidationError(f"targets[{zero.target_index}]",
                              f"coincides with the observer at t={zero.time}")


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _finite(value: Any, path: str, positive: bool = False) -> float:
    """``value`` as a finite float, > 0 if ``positive``; no bools, strings, NaN or Infinity."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (number > 0 or not positive):
            return number
    rule = "a finite number > 0" if positive else "a finite number"
    raise ValidationError(path, f"must be {rule}, got {value!r}")


def _coeffs_from_json(raw: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(path, "must be a non-empty list of [x, y] pairs")
    coeffs = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{path}[{k}]", "must be a numeric [x, y] pair")
        coeffs.append((_finite(pair[0], f"{path}[{k}][0]"),
                       _finite(pair[1], f"{path}[{k}][1]")))
    return tuple(coeffs)


def scenario_from_dict(data: dict, grid_points: int | None = None) -> Scenario:
    """Build and validate a Scenario from parsed JSON data.

    ``grid_points``, if given, replaces ``time.points`` after the file's own
    fields are checked, so the kinematic check runs once, on the grid that
    is analysed. Errors about that grid then name ``--grid-points``, the
    command-line option that passes the override; errors about the file's
    own ``time.points`` keep that name.
    """
    if not isinstance(data, dict):
        raise ValidationError("", "scenario file must contain a JSON object")
    time_block = _require(data, "time", "")
    if not isinstance(time_block, dict):
        raise ValidationError("time", "must be an object with start/end/points")
    t_start = _finite(_require(time_block, "start", "time"), "time.start")
    t_end = _finite(_require(time_block, "end", "time"), "time.end")
    points = _require(time_block, "points", "time")
    if not isinstance(points, int) or isinstance(points, bool):
        raise ValidationError("time.points", f"must be an integer, got {points!r}")

    observer_block = _require(data, "observer", "")
    if not isinstance(observer_block, dict):
        raise ValidationError("observer", "must be an object with coeffs")
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
            tonal = Tonal(_finite(entry["tonal_hz"], f"targets[{i}].tonal_hz", positive=True))
        traj = PolynomialTrajectory(ref_time=t_start, coeffs=coeffs)
        # Align with the observer's order; see module docstring.
        targets.append(TargetConfig(trajectory=traj.padded(observer.order), tonal=tonal))

    c = _finite(data.get("c", DEFAULT_SOUND_SPEED), "c")
    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ValidationError("tolerances", "must be an object")
    unknown = set(tol_raw) - {f.name for f in fields(Tolerances)}
    if unknown:
        raise ValidationError("tolerances", f"unknown keys: {sorted(unknown)}")
    given = {}
    for key, raw in tol_raw.items():
        if key == "tol_f" and raw is None:
            continue  # null: derive tol_f from context
        given[key] = _finite(raw, f"tolerances.{key}", positive=True)
    tolerances = Tolerances(**given)

    scenario = Scenario(
        observer=observer, targets=tuple(targets), t_start=t_start, t_end=t_end,
        grid_points=points, c=c, tolerances=tolerances,
    )
    points_field = "time.points"
    if grid_points is not None:
        _check_fields(scenario)
        scenario = replace(scenario, grid_points=grid_points)
        points_field = "--grid-points"
    validate_scenario(scenario, points_field)
    return scenario


def load_scenario(path: str | Path, grid_points: int | None = None) -> Scenario:
    """Load and validate a scenario JSON file; see ``scenario_from_dict``.

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
    return scenario_from_dict(data, grid_points)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready representation (fixed key order)."""
    targets = []
    for t in scenario.targets:
        entry: dict[str, Any] = {"coeffs": [list(pair) for pair in t.trajectory.coeffs]}
        if t.tonal is not None:
            entry["tonal_hz"] = t.tonal.f0
        targets.append(entry)
    return {
        "observer": {"coeffs": [list(pair) for pair in scenario.observer.coeffs]},
        "targets": targets,
        "time": {"start": scenario.t_start, "end": scenario.t_end,
                 "points": scenario.grid_points},
        "c": scenario.c,
        "tolerances": fields_dict(scenario.tolerances),
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario in canonical form (stable key order, trailing newline)."""
    Path(path).write_text(dumps_json(scenario_to_dict(scenario)), encoding="utf-8")


_SCALAR_TYPES = {float, int, bool, str, type(None)}


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain(value: Any) -> Any:
    """``value`` as JSON-ready data, converted as ``fields_dict`` describes."""
    if type(value) in _SCALAR_TYPES:
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return list(map(_plain, value))
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if is_dataclass(value):
        return fields_dict(value)
    return value


def fields_dict(obj: Any) -> dict:
    """JSON-ready dict of a dataclass instance: one key per field.

    Contract: field order is the key order of the written JSON. A report's
    dataclass fields are its schema, so a new field is a new key, and moving
    a field moves its key in every written file. Values are converted
    recursively: an ndarray becomes its ``tolist()``, a list or tuple a list,
    a value with its own ``to_dict`` that method's dict, and any other
    dataclass its ``fields_dict``; numbers, strings and None pass through.
    """
    return {name: _plain(getattr(obj, name)) for name in _field_names(type(obj))}


# np.float64 subclasses float, so float.__repr__ writes it as the equal Python float.
_FLOAT_TYPES = {float, np.float64}


def _float_texts(values: list | tuple):
    """Each value's repr (non-finite ones as null), or None unless all are floats."""
    if not set(map(type, values)) <= _FLOAT_TYPES:
        return None
    if all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    return [float.__repr__(v) if math.isfinite(v) else "null" for v in values]


def _encode_rows(rows: list | tuple, nl: str) -> str | None:
    """Body of a list of equal-length float rows (a matrix), or None if it is not one."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    texts = _float_texts(list(chain.from_iterable(rows)))
    if texts is None:
        return None
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * widths.pop()) + nl + "]"
    return ("," + nl).join([row] * len(rows)) % tuple(texts)


def _encode(value: Any, nl: str) -> str:
    """JSON text of ``value``; ``nl`` is a newline plus the indent of the line it starts on."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "
        items = [f"{encode_basestring_ascii(key)}: {_encode(item, inner)}"
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, np.ndarray):
        return _encode(value.tolist(), nl)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        texts = _float_texts(value)
        body = ("," + inner).join(texts) if texts is not None else _encode_rows(value, inner)
        if body is None:
            body = ("," + inner).join([_encode(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_json(data: Any) -> str:
    """Deterministic JSON text: insertion key order, 2-space indent, newline.

    Byte contract: the text equals ``json.dumps(data, indent=2) + "\n"`` with
    numpy scalars and arrays written as the equal Python numbers and lists,
    and non-finite floats written as ``null``. Strings are ASCII-escaped,
    floats take their ``repr`` digits, and dict keys must be strings. A list
    of floats, or of equal-length float rows such as a matrix, is written
    with one join.
    """
    return _encode(data, "\n") + "\n"


def write_measurements_csv(history: MeasurementHistory, out: TextIO) -> None:
    """Measurement history as CSV with columns t,target_id,bearing_rad,doppler_hz.

    One row per time and target, times outer; numbers are written as their
    ``repr``. The doppler column is left empty for targets without a tonal.
    """
    out.write("t,target_id,bearing_rad,doppler_hz\n")
    times = history.times.tolist()
    row, columns = "", []
    for i, (bearings, dop) in enumerate(zip(history.bearings, history.dopplers)):
        if dop is None:
            row += f"%r,{i},%r,\n"
            columns += [times, bearings.tolist()]
        else:
            row += f"%r,{i},%r,%r\n"
            columns += [times, bearings.tolist(), dop.tolist()]
    out.write("".join(map(row.__mod__, zip(*columns))))


def write_trajectory_csv(traj: SampledTrajectory, out: TextIO) -> None:
    """Sampled trajectory as CSV with columns t,x_m,y_m (same conventions as above)."""
    out.write("t,x_m,y_m\n")
    xs, ys = traj.positions.T.tolist()
    out.write("".join(map("%r,%r,%r\n".__mod__, zip(traj.times.tolist(), xs, ys))))


def read_trajectory_csv(path: str | Path) -> SampledTrajectory:
    """Read a t,x_m,y_m CSV back into a SampledTrajectory.

    Raises:
        ParseError: Unreadable file, bad header, non-numeric or non-finite
            value, fewer than three rows (sampled range rates need second-order
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
    times, positions = np.asarray(times), np.asarray(positions)
    finite = np.isfinite(times) & np.isfinite(positions).all(axis=-1)
    if not finite.all():
        raise ParseError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite value")
    if len(times) < 3:
        raise ParseError(f"{path}: need at least 3 rows, got {len(times)}")
    if not np.all(np.diff(times) > 0):
        raise ParseError(f"{path}: times must be strictly increasing")
    return SampledTrajectory(times=times, positions=positions)
