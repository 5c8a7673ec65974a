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
Each trajectory is loaded as written; analyses and the trajectory kernels
stop at its last nonzero coefficient pair (``Scenario.effective_orders``),
so trailing zero pairs change no analysis. ``time.points`` is at most
``MAX_GRID_POINTS``, and every target must stay at least ``eps_range`` from
the observer, with finite range and range rate, on the grid; a target with
a tonal must also have a finite Doppler shift there.

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
from typing import Any, Callable, TextIO

import numpy as np

from .errors import ParseError, ValidationError
from .measurement import (DEFAULT_SOUND_SPEED, MeasurementHistory, Tonal, keep_history,
                          received_frequencies)
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
    """Observer, targets, time window/grid, propagation speed, tolerances.

    A Scenario object also keeps its one ``MeasurementHistory`` outside its
    fields, so equality, hashing, ``repr`` and ``dataclasses.replace``
    ignore it. Only a successful ``validate_scenario`` builds it: at load, or
    in ``measurement.measure_scenario`` for a scenario built in code.
    """

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

        Targets are kept as the file writes them, trailing zero pairs
        included; these orders are the ones every analysis uses.
        """
        return tuple(t.trajectory.effective_order() for t in self.targets)

    def target_trajectories(self) -> tuple[PolynomialTrajectory, ...]:
        return tuple(t.trajectory for t in self.targets)


def _check_points(points: int, points_field: str) -> None:
    """The grid size rule; errors name ``points_field``, the field that set it."""
    if points < 2:
        raise ValidationError(points_field, f"must be >= 2, got {points}")
    if points > MAX_GRID_POINTS:
        raise ValidationError(points_field, f"must be <= {MAX_GRID_POINTS}, got {points}")


def _check_numbers(scenario: Scenario) -> None:
    """The finite and positive rules of the numbers a scenario file holds.

    Checked in the loader's field order (times, observer, each target's
    coefficients and tonal, ``c``, the tolerances in field order), and named
    with its field paths, so a scenario built in code gets the error a file
    with the same numbers gets. ``eps_range`` may be 0; the other tolerances
    and the tonals must be > 0.
    """
    def check_coeffs(trajectory: PolynomialTrajectory, path: str) -> None:
        if not all(map(math.isfinite, chain.from_iterable(trajectory.coeffs))):
            for k, pair in enumerate(trajectory.coeffs):
                for j, value in enumerate(pair):
                    _finite(value, f"{path}.coeffs[{k}][{j}]")

    _finite(scenario.t_start, "time.start")
    _finite(scenario.t_end, "time.end")
    check_coeffs(scenario.observer, "observer")
    for i, target in enumerate(scenario.targets):
        check_coeffs(target.trajectory, f"targets[{i}]")
        if target.tonal is not None:
            _finite(target.tonal.f0, f"targets[{i}].tonal_hz", positive=True)
    _finite(scenario.c, "c")
    for name in _field_names(Tolerances):
        value, path = getattr(scenario.tolerances, name), f"tolerances.{name}"
        if name == "eps_range":  # a floor of 0 counts only exact meetings
            if _finite(value, path) < 0:
                raise ValidationError(path, f"must be >= 0 m, got {value!r}")
        elif value is not None or name != "tol_f":  # tol_f None: derived from context
            _finite(value, path, positive=True)


def validate_scenario(scenario: Scenario, points_field: str = "time.points") -> None:
    """Check every scenario invariant; raise ValidationError with a field path.

    The number rules come first (``_check_numbers``): every time,
    coefficient, tonal, ``c`` and tolerance finite, the tonals and
    tolerances > 0 and ``eps_range`` >= 0. Then the window, the grid size
    (errors about the grid name ``points_field``, the field that set its
    size) and ``c`` > 0.
    The grid's float times must be strictly increasing: far from zero a
    short window can round several nodes to one time. The kinematic check
    evaluates all targets in one ``relative_states`` pass with no range
    floor and names the first target, in index order, whose range falls
    below ``eps_range`` or is 0, whose range or range rate overflows, or whose
    Doppler shift, if it has a tonal, overflows; a target with several
    faults is reported for the first of them in that order. A scenario
    that passes keeps the bearings of that pass and the Doppler series it
    checked as its one ``MeasurementHistory`` (this is its only builder),
    which ``measurement.measure_scenario`` returns.
    """
    _check_numbers(scenario)
    if not scenario.t_end > scenario.t_start:
        raise ValidationError("time.end", f"must exceed time.start ({scenario.t_start})")
    if not math.isfinite(scenario.t_end - scenario.t_start):
        raise ValidationError("time.end", "the window length overflows a float")
    _check_points(scenario.grid_points, points_field)
    if not scenario.c > 0:
        raise ValidationError("c", f"must be > 0 m/s, got {scenario.c}")
    if not scenario.targets:
        raise ValidationError("targets", "at least one target is required")
    times = scenario.grid()
    if not np.all(np.diff(times) > 0):
        raise ValidationError(
            points_field, f"{scenario.grid_points} points on [{scenario.t_start}, "
            f"{scenario.t_end}] give only {len(np.unique(times))} distinct float times")
    # Overflow and zero range show in the arrays, checked below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = relative_states(scenario.target_trajectories(), scenario.observer, times, 0.0)
        dopplers = received_frequencies(scenario, state)
    # A range of exactly 0 is a meeting even when eps_range is 0.
    near = (state.range < scenario.tolerances.eps_range) | (state.range == 0.0)
    finite = np.isfinite(state.range) & np.isfinite(state.range_rate)
    tonal = [i for i, d in enumerate(dopplers) if d is not None]
    shift_finite = np.ones(len(dopplers), dtype=bool)
    if tonal:
        shift_finite[tonal] = np.isfinite(np.array([dopplers[i] for i in tonal])).all(axis=1)
    faulty = np.flatnonzero((near | ~finite).any(axis=1) | ~shift_finite)
    if not faulty.size:
        keep_history(scenario, times, state, dopplers)
        return
    i = faulty[0]
    if near[i].any():
        raise ValidationError(f"targets[{i}]", "coincides with the observer at "
                              f"t={float(times[np.argmax(near[i])])}")
    if not finite[i].all():
        raise ValidationError(f"targets[{i}]",
                              "range or range rate overflows a float on the time grid")
    raise ValidationError(f"targets[{i}].tonal_hz",
                          "the Doppler shift overflows a float on the time grid")


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _not_a_number(path: str, value: Any, positive: bool) -> ValidationError:
    rule = "a finite number > 0" if positive else "a finite number"
    return ValidationError(path, f"must be {rule}, got {value!r}")


def _number(value: Any, path: str, positive: bool = False) -> float:
    """``value`` as a float: the JSON type rule, a number that is not a bool.
    An int too large for a float is inf. ``positive`` words the error as
    ``_finite``'s rule for that field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf
    raise _not_a_number(path, value, positive)


def _finite(value: Any, path: str, positive: bool = False) -> float:
    """``value`` as a finite float, > 0 if ``positive``; no bools, strings, NaN or Infinity."""
    number = _number(value, path, positive)
    if math.isfinite(number) and (number > 0 or not positive):
        return number
    raise _not_a_number(path, number, positive)


def _coeffs_from_json(raw: Any, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(path, "must be a non-empty list of [x, y] pairs")
    coeffs = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{path}[{k}]", "must be a numeric [x, y] pair")
        coeffs.append((_number(pair[0], f"{path}[{k}][0]"),
                       _number(pair[1], f"{path}[{k}][1]")))
    return tuple(coeffs)


def scenario_from_dict(data: dict, grid_points: int | None = None) -> Scenario:
    """Build and validate a Scenario from parsed JSON data.

    Building applies the JSON rules: the structure, each number a number
    and not a bool, ``time.points`` an integer, known tolerance keys, and
    a tonal > 0 (a ``Tonal`` holds no other). Every other rule on the
    values is ``validate_scenario``'s, which a scenario built in code gets
    too. ``grid_points``, if given, replaces ``time.points`` after the
    file's own grid size is checked, so the kinematic check runs once, on
    the grid that is analysed. Errors about that grid then name
    ``--grid-points``, the command-line option that passes the override;
    errors about the file's own ``time.points`` keep that name.
    """
    if not isinstance(data, dict):
        raise ValidationError("", "scenario file must contain a JSON object")
    time_block = _require(data, "time", "")
    if not isinstance(time_block, dict):
        raise ValidationError("time", "must be an object with start/end/points")
    t_start = _number(_require(time_block, "start", "time"), "time.start")
    t_end = _number(_require(time_block, "end", "time"), "time.end")
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
            path = f"targets[{i}].tonal_hz"
            f0 = _number(entry["tonal_hz"], path, positive=True)
            if not f0 > 0:  # a Tonal holds no other; validate_scenario checks it is finite
                raise _not_a_number(path, f0, positive=True)
            tonal = Tonal(f0)
        targets.append(TargetConfig(
            trajectory=PolynomialTrajectory(ref_time=t_start, coeffs=coeffs), tonal=tonal))

    c = _number(data.get("c", DEFAULT_SOUND_SPEED), "c")
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
        given[key] = _number(raw, f"tolerances.{key}", positive=key != "eps_range")
    tolerances = Tolerances(**given)

    scenario = Scenario(
        observer=observer, targets=tuple(targets), t_start=t_start, t_end=t_end,
        grid_points=points, c=c, tolerances=tolerances,
    )
    points_field = "time.points"
    if grid_points is not None:
        _check_points(points, points_field)
        scenario = replace(scenario, grid_points=grid_points)
        points_field = "--grid-points"
    validate_scenario(scenario, points_field)
    return scenario


def _kept(entries: list, key: Any, capacity: int, make: Callable[[], Any]) -> Any:
    """The value kept under ``key`` in ``entries``, else ``make()``'s, kept.

    ``entries`` holds at most ``capacity`` (key, value) pairs, least recent
    first, matched with ``==``. A hit moves its pair last and returns its
    value. A miss drops the least recent pair when the list is full, then
    keeps the result of ``make()`` last; a ``make`` that raises keeps
    nothing. Every kept result in obskit is looked up and dropped here: the
    three lists of this module, and the Gramian factors
    ``observability.gramian`` keeps on each measurement history.
    """
    for i, entry in enumerate(entries):
        if entry[0] == key:
            entries.append(entries.pop(i))
            return entry[1]
    if len(entries) == capacity:
        del entries[0]
    value = make()
    entries.append((key, value))
    return value


# The scenario load_scenario returned last, keyed on (file text, type and
# value of grid_points); see load_scenario.
_KEPT_SCENARIO: list[tuple[tuple[str, type, int | None], Scenario]] = []


def load_scenario(path: str | Path, grid_points: int | None = None) -> Scenario:
    """Load and validate a scenario JSON file; see ``scenario_from_dict``.

    The file is read once per call. The last scenario loaded is kept in
    ``_KEPT_SCENARIO`` by ``_kept``, keyed on the text it was parsed from
    and its ``grid_points``: a call that reads the same text with the same
    override returns that same ``Scenario`` object, and its read-only
    measurement history, without parsing or validating again. A load is a
    function of that text and override, so the result is the one a fresh
    process gets; a pipe or FIFO is read once like any file. Any other text
    drops the entry before it is parsed, and a file that fails to load is
    never kept. Every caller in the process
    shares the entry. With M targets and N grid points the history takes at
    most 16·M·N bytes plus 8·N for the times, and the sort of its bearings
    that the pair diagnostics keep adds 16·M·N. The history also holds the
    last Gramian factors built on it (``observability.gramian``), so
    ``observability`` and ``estimate`` on one file factorise it once: per
    target of n = 2(p + 1) unknowns, 8(n² + 3n + 2) bytes of arrays, 96 at
    order 0 and 240 at order 1. With the key, the ratios and the array
    headers, 16 targets of each order take ≈12 KB in all. The entry holds
    all of it until the next load of another text.

    Raises:
        ParseError: Unreadable file, text that is not UTF-8, or malformed or
            too deeply nested JSON.
        ValidationError: Schema or invariant violation, with the field path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc

    def parse() -> Scenario:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON in {path}: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(f"malformed JSON in {path}: nested too deeply") from exc
        return scenario_from_dict(data, grid_points)

    return _kept(_KEPT_SCENARIO, (text, type(grid_points), grid_points), 1, parse)


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
_NON_FINITE = {"nan", "inf", "-inf"}


def _reprs(values: list) -> list[str]:
    """Each float's repr. The float lists and matrices of ``dumps_json``, the
    trajectory CSV's columns and the measurement CSV's times are formatted here."""
    return list(map(float.__repr__, values))


class FloatTexts:
    """Floats formatted once: each value's repr, row-major.

    ``dumps_json`` writes one where a list of floats (``width`` None) or a
    matrix of rows of ``width`` floats would be, with the bytes it would
    write for those floats: the texts unchanged, or null for the non-finite
    ones when ``finite`` is False. ``_format_array`` keeps the ones it made
    for the last three arrays and returns them again for the same array
    bytes, so one object can reach several callers: none may change it.
    """

    # A plain class: a frozen dataclass costs about 1 ms more at import.
    __slots__ = ("texts", "width", "finite")

    def __init__(self, texts: list[str], width: int | None, finite: bool):
        self.texts, self.width, self.finite = texts, width, finite


# The FloatTexts of the arrays _format_array formatted last, least recent
# first, keyed on each array's dtype, shape and bytes.
_FORMATTED: list[tuple[tuple[str, tuple[int, ...], bytes], FloatTexts]] = []


def _format_array(values: np.ndarray) -> FloatTexts:
    """The texts of a 1-D float array (a list) or of a 2-D one (a matrix).

    The texts of the three arrays formatted most recently are kept in
    ``_FORMATTED`` by ``_kept``, keyed on each array's dtype, shape and
    bytes. A float's repr depends only on its bits, so an entry never goes
    stale. ``-0.0`` and ``0.0`` differ in their bytes, and an
    ``(N, 2)`` array and a ``(2N,)`` one differ in shape, so each has its
    own entry. At N grid points an ``ambiguity`` run formats 5N distinct
    values: the grid and two counterparts, each written by ``generate`` and
    read back unchanged by ``verify``. The three entries keep 80-84 bytes
    per value (texts and key): ≈0.4 MB at N=1001 and ≈4 MB at N=10001. The
    returned object is shared with later callers, so no caller may change it.
    """
    return _kept(_FORMATTED, (values.dtype.str, values.shape, values.tobytes()), 3,
                 lambda: FloatTexts(_reprs(values.ravel().tolist()),
                                    values.shape[1] if values.ndim == 2 else None,
                                    bool(np.isfinite(values).all())))


def sampled_texts(traj: SampledTrajectory) -> dict:
    """``traj.to_dict()`` with ``_format_array``'s texts in place of its float
    lists, for ``dumps_json``: bits formatted a moment earlier, as for the rows
    ``write_trajectory_csv`` just wrote or a CSV read back, are not formatted again."""
    return {"type": "sampled", "times": _format_array(traj.times),
            "positions": _format_array(traj.positions)}


def _float_texts(values: list | tuple) -> FloatTexts | None:
    """The texts of a float list or of equal-length float rows, else None."""
    width, types = None, set(map(type, values))
    if not types <= _FLOAT_TYPES:
        if not types <= {list, tuple}:
            return None
        widths = set(map(len, values))
        if len(widths) != 1 or 0 in widths:
            return None
        width = widths.pop()
        values = list(chain.from_iterable(values))
        if not set(map(type, values)) <= _FLOAT_TYPES:
            return None
    return FloatTexts(_reprs(values), width, all(map(math.isfinite, values)))


def _encode_floats(floats: FloatTexts, nl: str) -> str:
    """JSON text of a float list or matrix from its texts (``nl`` as in ``_encode``)."""
    texts = floats.texts
    if not floats.finite:
        texts = ["null" if text in _NON_FINITE else text for text in texts]
    inner = nl + "  "
    if floats.width is None:
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%s"] * floats.width) + inner + "]"
    rows = ("," + inner).join([row] * (len(texts) // floats.width))
    return "[" + inner + rows % tuple(texts) + nl + "]"


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
        floats = _float_texts(value)
        if floats is not None:
            return _encode_floats(floats, nl)
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in value]) + nl + "]"
    if isinstance(value, FloatTexts):
        return _encode_floats(value, nl)
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

    A ``FloatTexts`` stands where such a list or matrix would be, holding
    its floats already formatted; its texts are written unchanged, except
    that the non-finite ones are written as ``null``, so the bytes are those
    of the floats it was made from. ``sampled_texts`` puts them in a sampled
    trajectory's place, so that a trajectory whose texts
    ``write_trajectory_csv`` already made is not formatted again.
    """
    return _encode(data, "\n") + "\n"


def write_measurements_csv(history: MeasurementHistory, out: TextIO) -> None:
    """Measurement history as CSV with columns t,target_id,bearing_rad,doppler_hz.

    One row per time and target, times outer; numbers are written as their
    ``repr``, each time once for all the rows that share it. The doppler
    column is left empty for targets without a tonal.
    """
    out.write("t,target_id,bearing_rad,doppler_hz\n")
    times = _reprs(history.times.tolist())
    row, columns = "", []
    for i, (bearings, dop) in enumerate(zip(history.bearings.tolist(), history.dopplers)):
        if dop is None:
            row += f"%s,{i},%r,\n"
            columns += [times, bearings]
        else:
            row += f"%s,{i},%r,%r\n"
            columns += [times, bearings, dop.tolist()]
    out.write("".join(map(row.__mod__, zip(*columns))))


def write_trajectory_csv(traj: SampledTrajectory, out: TextIO) -> None:
    """Sampled trajectory as CSV with columns t,x_m,y_m (same conventions as above).

    The rows are written from ``_format_array``'s texts of the times and
    positions, each value's ``repr`` (``nan`` and ``inf`` included), in one
    write. When ``read_trajectory_csv`` would accept the text (at least 3
    rows, every value finite; the times already increase strictly), the
    text is kept with copies of the arrays among that reader's two entries,
    as a parse of it is: a ``repr`` parses back to the same bits, so
    reading the file back parses nothing.
    """
    times, xy = _format_array(traj.times), _format_array(traj.positions)
    rows = len(times.texts)
    cells = [""] * (3 * rows)
    cells[0::3], cells[1::3], cells[2::3] = times.texts, xy.texts[0::2], xy.texts[1::2]
    text = "t,x_m,y_m\n" + "%s,%s,%s\n" * rows % tuple(cells)
    out.write(text)
    if rows >= 3 and times.finite and xy.finite:
        _kept(_KEPT_TRAJECTORIES, text, 2, lambda: (traj.times.copy(), traj.positions.copy()))


def _parse_rows(path: str | Path, rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Times and positions of the data rows, one ``float()`` per field.

    The first row that does not hold three fields ``float()`` accepts raises
    a ParseError naming its line number.
    """
    times, positions = [], []
    for ln, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 3 columns, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            positions.append((float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: non-numeric value") from exc
    return np.asarray(times), np.asarray(positions)


# The trajectory CSV texts read_trajectory_csv parsed or write_trajectory_csv
# wrote last, least recent first, each with its times and positions.
_KEPT_TRAJECTORIES: list[tuple[str, tuple[np.ndarray, np.ndarray]]] = []


def read_trajectory_csv(path: str | Path) -> SampledTrajectory:
    """Read a t,x_m,y_m CSV back into a SampledTrajectory.

    The file is read once per call, and its data rows are parsed line by
    line with ``float()`` (``_parse_rows``), which names the first bad line.
    The text and the arrays of the last two texts this function parsed or
    ``write_trajectory_csv`` wrote are kept: if the file's text is one of
    those two, the result is built from copies of its kept arrays without
    parsing. A parse is a function of the text, so the values are the bits
    a fresh parse gives. The returned arrays are the caller's own, writeable
    and never shared, and a text that fails to parse is never kept. Each
    entry holds its text and its arrays, ≈69 bytes a row for an
    ``ambiguity generate`` counterpart: the two take ≈140 KB at N=1001 rows
    and ≈1.4 MB at N=10001.

    Raises:
        ParseError: Unreadable or non-UTF-8 file, bad header, non-numeric or
            non-finite value, fewer than three rows (sampled range rates need
            second-order differences), or times that are not strictly increasing.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read trajectory file {path}: {exc}") from exc

    def parse() -> tuple[np.ndarray, np.ndarray]:
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != "t,x_m,y_m":
            raise ParseError(f"{path}: expected header 't,x_m,y_m'")
        times, positions = _parse_rows(path, lines[1:])
        finite = np.isfinite(times) & np.isfinite(positions).all(axis=-1)
        if not finite.all():
            raise ParseError(f"{path}:{int(np.argmin(finite)) + 2}: non-finite value")
        if len(times) < 3:
            raise ParseError(f"{path}: need at least 3 rows, got {len(times)}")
        if not np.all(np.diff(times) > 0):
            raise ParseError(f"{path}: times must be strictly increasing")
        return times, positions

    times, positions = _kept(_KEPT_TRAJECTORIES, text, 2, parse)
    return SampledTrajectory(times=times.copy(), positions=positions.copy())
