import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from obskit.ambiguity import (DopplerAmbiguitySpec, check_combined_condition,
                              check_doppler_sufficiency, generate_doppler_ambiguous,
                              verify_ambiguity)
from obskit.errors import ParseError, ValidationError
from obskit.estimator import cross_validate, estimate_initial_state
from obskit.measurement import measure_scenario
from obskit.observability import check_observable
from obskit import scenario_io
from obskit.scenario_io import (Scenario, TargetConfig, Tolerances, dumps_json,
                                load_scenario, read_trajectory_csv, sampled_texts,
                                save_scenario, scenario_from_dict, scenario_to_dict,
                                validate_scenario, write_trajectory_csv)
from obskit.selftest import collinear_scenario, random_observer
from obskit.trajectory import PolynomialTrajectory, SampledTrajectory
from conftest import at_least, forget_kept
from oracles import read_trajectory_csv_per_line, scenario_built_in_code

MINIMAL = {
    "observer": {"coeffs": [[0.0, 0.0], [5.0, 0.0]]},
    "targets": [{"coeffs": [[300.0, 400.0]], "tonal_hz": 1000.0}],
    "time": {"start": 0.0, "end": 10.0, "points": 11},
}


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestLoadScenario:
    def test_minimal_file_gets_defaults(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        assert scenario.c == 1500.0
        assert scenario.tolerances == Tolerances()
        assert scenario.targets[0].tonal.f0 == 1000.0
        assert scenario.grid_points == 11

    def test_window_must_be_positive(self, tmp_path):
        bad = dict(MINIMAL, time={"start": 5.0, "end": 5.0, "points": 11})
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(write(tmp_path, bad))
        assert excinfo.value.field == "time.end"

    def test_target_loaded_as_written(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        target = scenario.targets[0].trajectory
        assert scenario.observer.order == 1
        assert target.coeffs == ((300.0, 400.0),)   # not padded to the observer's order
        assert target.effective_order() == 0
        assert np.array_equal(target.eval(7.0), [300.0, 400.0])

    def test_unchanged_file_parsed_once(self, tmp_path, monkeypatch):
        parses = []
        from_dict = scenario_io.scenario_from_dict
        monkeypatch.setattr(scenario_io, "scenario_from_dict",
                            lambda *args: parses.append(1) or from_dict(*args))
        path = write(tmp_path, MINIMAL)
        first = load_scenario(path)
        assert load_scenario(path) is first and len(parses) == 1
        assert load_scenario(path, 21).grid_points == 21 and len(parses) == 2
        assert load_scenario(path) == first and len(parses) == 3
        write(tmp_path, dict(MINIMAL, c=1400.0))
        assert load_scenario(path).c == 1400.0 and len(parses) == 4
        write(tmp_path, dict(MINIMAL, c=-1.0))
        for count in (5, 6):  # a failed load is not kept
            with pytest.raises(ValidationError):
                load_scenario(path)
            assert len(parses) == count
        write(tmp_path, MINIMAL)
        assert load_scenario(path) == first and len(parses) == 7

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "missing.json")

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scenario(path)

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.pop("observer"), "observer"),
        (lambda d: d.pop("targets"), "targets"),
        (lambda d: d["targets"].clear(), "targets"),
        (lambda d: d["time"].pop("points"), "time.points"),
        (lambda d: d["time"].update(points=1), "time.points"),
        (lambda d: d.update(c=-1.0), "c"),
        (lambda d: d["targets"][0].update(tonal_hz=-5.0), "targets[0].tonal_hz"),
        (lambda d: d["targets"][0].update(coeffs=[[1.0]]), "targets[0].coeffs[0]"),
        (lambda d: d.update(tolerances={"bogus": 1.0}), "tolerances"),
        pytest.param(lambda d: d.update(observer=5), "observer", id="observer-number"),
        pytest.param(lambda d: d.update(observer="coeffs"), "observer", id="observer-string"),
        pytest.param(lambda d: d["time"].update(points=10**15), "time.points",
                     id="time.points-over-cap"),
        pytest.param(lambda d: d["time"].update(start=-1e308, end=1e308), "time.end",
                     id="time.end-window-overflows"),
        pytest.param(lambda d: d["targets"][0].update(coeffs=[[1e200, 0.0]]), "targets[0]",
                     id="targets[0]-range-overflows"),
    ])
    def test_schema_violations_carry_field_path(self, tmp_path, mutate, field):
        data = json.loads(json.dumps(MINIMAL))
        mutate(data)
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(write(tmp_path, data))
        assert excinfo.value.field == field

    def test_target_on_observer_rejected(self, tmp_path):
        bad = dict(MINIMAL, targets=[{"coeffs": [[25.0, 0.0]]}])
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(write(tmp_path, bad))
        assert excinfo.value.field == "targets[0]"

    # Window 0...1e160 on 3 points: dt^2 overflows, dt does not. A target is
    # evaluated only up to its own order, so the order-0 target stays finite
    # and the first faulty target in index order is the one named.
    @pytest.mark.parametrize("targets,message", [
        pytest.param([[[500, 0]], [[0, 500], [0, 0], [1, 1]]],
                     "targets[1]: range or range rate overflows a float on the time grid",
                     id="low-order-target-before-overflow"),
        pytest.param([[[0, 0], [1, 0]], [[0, 500], [0, 0], [1, 1]]],
                     "targets[0]: coincides with the observer at t=0.0",
                     id="zero-range-before-overflow"),
        pytest.param([[[0, 500], [0, 0], [1, 1]], [[0, 0], [1, 0]]],
                     "targets[0]: range or range rate overflows a float on the time grid",
                     id="overflow-before-zero-range"),
        pytest.param([[[0, 0], [0, 0], [1, 1]]],
                     "targets[0]: coincides with the observer at t=0.0",
                     id="zero-range-and-overflow-in-one-target"),
        pytest.param([[[-1e160, 0], [1, 0]], [[0, 500], [0, 0], [1, 1]]],
                     "targets[0]: coincides with the observer at t=1e+160",
                     id="later-zero-range-before-earlier-overflow"),
        pytest.param([[[500, 0]], [[-1e160, 0], [1, 0]]],
                     "targets[1]: coincides with the observer at t=1e+160",
                     id="zero-range-only-at-last-node"),
        # A range of exactly eps_range (the default, 1e-9 m) is not below it.
        pytest.param([[[1e-9, 0]], [[0, 500], [0, 0], [1, 1]]],
                     "targets[1]: range or range rate overflows a float on the time grid",
                     id="range-equal-to-eps-range-not-a-fault"),
    ])
    def test_first_faulty_target_named(self, targets, message):
        data = {"observer": {"coeffs": [[0.0, 0.0]]},
                "targets": [{"coeffs": coeffs} for coeffs in targets],
                "time": {"start": 0.0, "end": 1e160, "points": 3}}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(data)
        assert str(excinfo.value) == message

    # The same window with c the smallest subnormal: a range rate above about
    # 1e-15 m/s gives a Doppler shift that overflows. That fault is named for a
    # target with a tonal, after meeting the observer and range overflow.
    DOPPLER = "the Doppler shift overflows a float on the time grid"

    @pytest.mark.parametrize("targets,message", [
        pytest.param([{"coeffs": [[500, 0], [1e-10, 0]], "tonal_hz": 800.0},
                      {"coeffs": [[0, 500], [0, 0], [1, 1]]}],
                     f"targets[0].tonal_hz: {DOPPLER}", id="doppler-before-later-overflow"),
        pytest.param([{"coeffs": [[500, 0], [1e-10, 0]]},
                      {"coeffs": [[500, 0], [1e-10, 0]], "tonal_hz": 800.0}],
                     f"targets[1].tonal_hz: {DOPPLER}", id="only-a-target-with-a-tonal"),
        pytest.param([{"coeffs": [[500, 0]], "tonal_hz": 800.0},
                      {"coeffs": [[500, 0], [1e-10, 0]]},
                      {"coeffs": [[500, 0], [1e-10, 0]], "tonal_hz": 800.0}],
                     f"targets[2].tonal_hz: {DOPPLER}", id="second-of-two-tonals"),
        pytest.param([{"coeffs": [[0, 500], [0, 0], [1, 1]], "tonal_hz": 800.0}],
                     "targets[0]: range or range rate overflows a float on the time grid",
                     id="overflow-before-doppler-in-one-target"),
        pytest.param([{"coeffs": [[0, 0], [1, 0]], "tonal_hz": 800.0}],
                     "targets[0]: coincides with the observer at t=0.0",
                     id="zero-range-before-doppler-in-one-target"),
    ])
    def test_doppler_fault_named_after_kinematic_faults(self, targets, message):
        data = {"observer": {"coeffs": [[0.0, 0.0]]}, "targets": targets,
                "time": {"start": 0.0, "end": 1e160, "points": 3}, "c": 5e-324}
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_dict(data)
        assert str(excinfo.value) == message

    def test_tolerance_overrides_respected(self, tmp_path):
        data = dict(MINIMAL, tolerances={"rank_tol": 1e-6, "tol_f": 0.5})
        scenario = load_scenario(write(tmp_path, data))
        assert scenario.tolerances.rank_tol == 1e-6
        assert scenario.tolerances.tol_f == 0.5
        assert scenario.tolerances.collinearity_tol == 1e-3


class TestRoundTrip:
    def test_load_save_load_is_identity(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        out = tmp_path / "saved.json"
        save_scenario(scenario, out)
        assert load_scenario(out) == scenario

    def test_save_is_deterministic(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, a)
        save_scenario(scenario, b)
        assert a.read_bytes() == b.read_bytes()

    def test_canonical_files_are_save_fixpoints(self, tmp_path):
        scenario = load_scenario(write(tmp_path, MINIMAL))
        out = tmp_path / "canon.json"
        save_scenario(scenario, out)
        first = out.read_bytes()
        save_scenario(load_scenario(out), out)
        assert out.read_bytes() == first

    def test_dict_round_trip(self):
        scenario = scenario_from_dict(json.loads(json.dumps(MINIMAL)))
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario


class TestValidateScenario:
    def test_direct_construction_can_be_validated_later(self):
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=(TargetConfig(PolynomialTrajectory(0.0, ((1.0, 1.0),))),),
            t_start=0.0, t_end=-1.0, grid_points=5,
        )
        with pytest.raises(ValidationError):
            validate_scenario(scenario)

    # Each file breaks one invariant; the observer passes (200, 0) at t = 20.
    @pytest.mark.parametrize("change, field", [
        ({"c": 0.0}, "c"),
        ({"time": {"start": 0.0, "end": 0.0, "points": 41}}, "time.end"),
        ({"time": {"start": 40.0, "end": 0.0, "points": 41}}, "time.end"),
        ({"time": {"start": 0.0, "end": 40.0, "points": 1}}, "time.points"),
        ({"targets": [{"coeffs": [[200.0, 0.0]]}]}, "targets[0]"),
        ({"c": 5e-324}, "targets[0].tonal_hz"),
        ({"tolerances": {"rank_tol": -1}}, "tolerances.rank_tol"),
        ({"observer": {"coeffs": [[math.nan, 0.0], [10.0, 0.0]]}}, "observer.coeffs[0][0]"),
        ({"time": {"start": math.nan, "end": 40.0, "points": 41}}, "time.start"),
    ], ids=["c-zero", "empty-window", "reversed-window", "one-point", "meets-observer",
            "doppler-overflow", "negative-rank-tol", "nan-observer-coefficient", "nan-start"])
    def test_scenario_built_in_code_gets_the_loaders_error(self, change, field):
        base = {"observer": {"coeffs": [[0.0, 0.0], [10.0, 0.0]]},
                "targets": [{"coeffs": [[300.0, 400.0], [1.0, -2.0]], "tonal_hz": 700.0}],
                "time": {"start": 0.0, "end": 40.0, "points": 41}}
        valid = scenario_from_dict(base)
        result = estimate_initial_state(valid.observer, measure_scenario(valid),
                                        list(valid.effective_orders()))
        data = dict(base, **change)
        with pytest.raises(ValidationError) as loaded:
            scenario_from_dict(data)
        assert loaded.value.field == field
        for analysis in (check_observable, measure_scenario,
                         lambda scenario: cross_validate(scenario, result)):
            scenario = scenario_built_in_code(data)
            with warnings.catch_warnings(record=True) as caught, \
                    pytest.raises(ValidationError) as direct:
                warnings.simplefilter("always")
                analysis(scenario)
            assert caught == []
            assert (direct.value.field, str(direct.value)) == (field, str(loaded.value))
            assert "_history" not in vars(scenario)

    def test_measure_zero_range_names_target_and_time(self):
        # Target 1 (order 0) sits on the path of the order-1 observer at t = 5;
        # target 0 has a higher order, so the stacked rows are reordered.
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0), (10.0, 0.0))),
            targets=(TargetConfig(PolynomialTrajectory(0.0, ((0.0, 80.0), (1.0, 0.0),
                                                             (0.0, 1.0)))),
                     TargetConfig(PolynomialTrajectory(0.0, ((50.0, 0.0),)))),
            t_start=0.0, t_end=10.0, grid_points=11,
        )
        with pytest.raises(ValidationError) as excinfo:
            measure_scenario(scenario)
        assert str(excinfo.value) == "targets[1]: coincides with the observer at t=5.0"
        assert "_history" not in vars(scenario)

    @pytest.mark.parametrize("tolerances", [Tolerances(), Tolerances(eps_range=0.0)],
                             ids=["default", "eps-range-0"])
    def test_meeting_named_whatever_eps_range(self, tolerances):
        # The target passes through the observer at t = 5, where the range
        # rate is 0/0; an eps_range of 0 counts only a range of exactly 0.
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=(TargetConfig(PolynomialTrajectory(0.0, ((-50.0, 0.0), (10.0, 0.0)))),),
            t_start=0.0, t_end=10.0, grid_points=11, tolerances=tolerances)
        with pytest.raises(ValidationError) as excinfo:
            validate_scenario(scenario)
        assert str(excinfo.value) == "targets[0]: coincides with the observer at t=5.0"

    def test_grid_is_uniform(self):
        scenario = Scenario(
            observer=PolynomialTrajectory(0.0, ((0.0, 0.0),)),
            targets=(TargetConfig(PolynomialTrajectory(0.0, ((1.0, 1.0),))),),
            t_start=2.0, t_end=4.0, grid_points=5,
        )
        assert np.allclose(np.diff(scenario.grid()), 0.5)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        traj = SampledTrajectory(times=[0.0, 0.1, 0.25],
                                 positions=[(1.5, -2.0), (1.6, -2.1), (1.7, -2.2)])
        path = tmp_path / "traj.csv"
        with open(path, "w", encoding="utf-8") as out:
            write_trajectory_csv(traj, out)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.positions, traj.positions)

    def test_returned_arrays_are_the_callers_own(self, tmp_path):
        times, positions = [0.0, 0.1, 0.25], [[1.5, -2.0], [1.6, -2.1], [1.7, -2.2]]
        traj = SampledTrajectory(times=times, positions=positions)
        path = tmp_path / "traj.csv"
        with open(path, "w", encoding="utf-8") as out:
            write_trajectory_csv(traj, out)
        traj.times[0], traj.positions[0, 0] = -1.0, 7.0  # the writer kept copies
        for _ in range(2):  # the text the writer kept, then a parsed one
            first = read_trajectory_csv(path)
            first.times[0], first.positions[0, 0] = 9.0, 9.0
            second = read_trajectory_csv(path)
            assert second.times.tolist() == times and second.positions.tolist() == positions
            forget_kept()

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n0,1,2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_trajectory_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x_m,y_m\n0,one,2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_trajectory_csv(path)

    def test_exact_layout(self):
        # One row per sample, every number written as its repr.
        times = [0.0, 1e-5, 0.1, 1.0 / 3.0, 1e16]
        positions = [(-0.0, 5e-324), (1e16, -1e-5), (math.nan, math.inf),
                     (-math.inf, 2.5), (123456.789, -7.0)]
        out = io.StringIO()
        write_trajectory_csv(SampledTrajectory(times=times, positions=positions), out)
        expected = "t,x_m,y_m\n" + "".join(
            f"{repr(float(t))},{repr(float(x))},{repr(float(y))}\n"
            for t, (x, y) in zip(times, positions))
        assert out.getvalue() == expected


def read_both(path):
    """The reader's and the per-line oracle's outcome: the arrays, or the ParseError text."""
    outcomes = []
    forget_kept()  # the reader parses the file
    for read in (read_trajectory_csv, read_trajectory_csv_per_line):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                traj = read(path)
            except ParseError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((traj.times, traj.positions))
    return outcomes


def assert_reads_as_oracle(path):
    got, want = read_both(path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].flags.c_contiguous and got[1].flags.c_contiguous
    return want


ROWS = ["0.0,500.0,500.0", "1.0,510.0,-500.0", "2.0,520.0,500.0"]


class TestTrajectoryCsvReader:
    """The reader accepts, reads and rejects exactly as the per-line oracle."""

    @pytest.mark.parametrize("body", [
        "\n".join(ROWS),
        "\n".join(ROWS).replace("510.0", "\xa0510.0\xa0"),
        "\n".join(ROWS).replace("510.0", "\t510.0\t"),
        "\n".join(ROWS).replace("510.0", "\u3000510.0"),
        "\n".join(ROWS).replace("510.0", "1e-400").replace("520.0", "-0.0"),
        "\n".join(ROWS).replace("510.0", "+.5").replace("1.0,", "1.,"),
        "\n".join(ROWS).replace("510.0", "1_0"),
        "\n".join(ROWS).replace("510.0", "\uff15\uff11\uff10"),
        "\n".join(ROWS).replace("510.0", "\u0665"),
        "\r\n".join(ROWS),
        "\r".join(ROWS),
        "\n".join(ROWS) + "\n\n\n",
        "\n".join(ROWS + ["3.0,530.0,500.0", "4.0,540.0,500.0", "5.0,550.0,500.0"]),
        "\n".join(ROWS).replace("\n", "\x0c", 1),
    ], ids=["plain", "nbsp", "tab", "ideographic-space", "underflow-negative-zero",
            "short-forms", "underscore", "fullwidth-digits", "arabic-digit", "crlf", "cr",
            "six-rows", "trailing-blank-lines", "formfeed-line-break"])
    def test_accepted(self, tmp_path, body):
        path = tmp_path / "candidate.csv"
        path.write_text("t,x_m,y_m\n" + body + "\n", encoding="utf-8", newline="")
        assert not isinstance(assert_reads_as_oracle(path), str)

    def test_blank_lines_around_the_file_accepted(self, tmp_path):
        path = tmp_path / "candidate.csv"
        path.write_text("\n \n t,x_m,y_m \n" + "\n".join(ROWS) + "\n\n", encoding="utf-8")
        assert not isinstance(assert_reads_as_oracle(path), str)

    @pytest.mark.parametrize("body,message", [
        ("\n".join(ROWS).replace("510.0", "nan"), ":3: non-finite value"),
        ("\n".join(ROWS).replace("2.0,", "inf,"), ":4: non-finite value"),
        ("\n".join(ROWS).replace("510.0", "1e400"), ":3: non-finite value"),
        ("\n".join(ROWS).replace("510.0", "-inf"), ":3: non-finite value"),
        ("\n".join([ROWS[0], "", *ROWS[1:]]), ":3: expected 3 columns, got 1"),
        ("\n".join([ROWS[0], " \t ", *ROWS[1:]]), ":3: expected 3 columns, got 1"),
        ("\n".join(ROWS).replace("510.0,-500.0", "510.0,-500.0,"),
         ":3: expected 3 columns, got 4"),
        ("\n".join(row + "," for row in ROWS), ":2: expected 3 columns, got 4"),
        ("\n".join(ROWS).replace("510.0", ""), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", "5\x0c10.0"), ":3: expected 3 columns, got 2"),
        ("\n".join(ROWS).replace("510.0", "510.0\x1f"), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", "\x1f510.0"), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", "5 10"), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", "0x10"), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", "510.0\x00"), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", '"510.0"'), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("510.0", "#510.0"), ":3: non-numeric value"),
        ("\n".join(ROWS).replace("1.0,", "1.0;"), ":3: expected 3 columns, got 2"),
        ("", ": need at least 3 rows, got 0"),
        (ROWS[0], ": need at least 3 rows, got 1"),
        ("\n".join(ROWS[:2]), ": need at least 3 rows, got 2"),
        ("\n".join(ROWS).replace("2.0,", "1.0,"), ": times must be strictly increasing"),
        ("\n".join(ROWS).replace("2.0,", "0.5,"), ": times must be strictly increasing"),
    ], ids=["nan", "inf-time", "overflow", "minus-inf", "blank-line", "whitespace-line",
            "trailing-comma", "trailing-comma-every-row", "empty-field", "formfeed-in-field",
            "unit-separator-after", "unit-separator-before", "inner-space", "hex",
            "nul", "quoted", "comment-sign", "semicolon", "header-only", "one-row",
            "two-rows", "repeated-time", "decreasing-time"])
    def test_rejected(self, tmp_path, body, message):
        path = tmp_path / "candidate.csv"
        path.write_text("t,x_m,y_m\n" + body + "\n", encoding="utf-8", newline="")
        assert assert_reads_as_oracle(path) == f"{path}{message}"


# Fields: repr'd floats (finite and not), the forms only one parser might read,
# and short arbitrary text; rows of 1-4 such fields, or blank.
CSV_FIELDS = (st.floats().map(repr)
              | st.sampled_from(["nan", "-inf", "1e400", "1e-400", "-0.0", "+.5", "1.", "1_0",
                                 "\uff11", "\u0661", " 1 ", "\xa01", "1\t", "\x1f1", "1\x1f",
                                 "", " ", "0x1", "1e", "1,5", "\x00"])
              | st.text(max_size=4))
CSV_ROWS = st.lists(CSV_FIELDS, min_size=1, max_size=4).map(",".join) | st.just("")
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])


@st.composite
def trajectory_csv_texts(draw):
    """A valid trajectory CSV, possibly with some lines replaced or inserted."""
    n = draw(st.integers(0, 8))
    times = np.cumsum(draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3))))
    xy = draw(hnp.arrays(float, (n, 2), elements=st.floats(-1e6, 1e6)))
    lines = [f"{t!r},{x!r},{y!r}" for t, (x, y) in zip(times.tolist(), xy.tolist())]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        row = draw(CSV_ROWS)
        if draw(st.booleans()) and k < len(lines):
            lines[k] = row
        else:
            lines.insert(k, row)
    return draw(LINE_BREAKS).join(["t,x_m,y_m", *lines]) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=at_least(300))
@given(text=trajectory_csv_texts())
def test_reader_agrees_with_the_per_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "candidate.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_reads_as_oracle(path)


# Signed zeros, subnormals, values next to the largest float, and non-finite ones.
CSV_VALUES = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.7976931348623155e308, math.nan, math.inf, -math.inf])


def read_outcome(path):
    """The reader's arrays, or its ParseError text."""
    try:
        traj = read_trajectory_csv(path)
    except ParseError as exc:
        return str(exc)
    return traj.times, traj.positions


@settings(max_examples=at_least(300))
@given(times=st.lists(CSV_VALUES.filter(lambda v: not math.isnan(v)), min_size=2, max_size=3,
                      unique=True).map(sorted),
       data=st.data())
def test_kept_csv_round_trip(tmp_path_factory, times, data):
    """A written CSV read back while the writer's entry is kept gives what a
    fresh parse gives: the same bits in C order, or the same error."""
    with np.errstate(over="ignore"):  # differences of the largest floats
        assume(np.all(np.diff(times) > 0))
        traj = SampledTrajectory(times, data.draw(hnp.arrays(np.float64, (len(times), 2),
                                                             elements=CSV_VALUES)))
    path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
    forget_kept()
    with open(path, "w", encoding="utf-8") as out:
        write_trajectory_csv(traj, out)
    written_kept = path.read_text(encoding="utf-8") in [
        text for text, _ in scenario_io._KEPT_TRAJECTORIES]
    kept = read_outcome(path)
    forget_kept()
    fresh = read_outcome(path)
    assert written_kept == (not isinstance(fresh, str))  # kept exactly what the reader accepts
    if isinstance(fresh, str):
        assert kept == fresh
        return
    for got, want, original in zip(kept, fresh, (traj.times, traj.positions)):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes() == original.tobytes()
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous and want.flags.c_contiguous


def ref(value):
    """Reference for dumps_json: numpy to Python types, non-finite floats to None."""
    if isinstance(value, dict):
        return {k: ref(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref(v) for v in value]
    if isinstance(value, np.ndarray):
        return [ref(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e16, 1e-5, 0.1])
NUMPY_FLOATS = FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
SCALARS = (FLOATS | NUMPY_FLOATS | st.integers()
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | st.booleans() | st.none() | st.text())
FLOAT_LISTS = st.lists(FLOATS | NUMPY_FLOATS, max_size=6)
FLOAT_ROWS = st.integers(0, 3).flatmap(
    lambda width: st.lists(st.lists(FLOATS, min_size=width, max_size=width)
                           | st.tuples(*[FLOATS] * width), max_size=4))
ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
LEAVES = SCALARS | FLOAT_LISTS | FLOAT_ROWS | ARRAYS


@settings(max_examples=at_least(400))
@given(st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=12))
def test_dumps_json_matches_stdlib_reference(value):
    assert dumps_json(value) == json.dumps(ref(value), indent=2, allow_nan=False) + "\n"


def csv_reference(traj: SampledTrajectory) -> str:
    return "t,x_m,y_m\n" + "".join(
        "%r,%r,%r\n" % (t, x, y) for t, (x, y) in zip(traj.times.tolist(),
                                                    traj.positions.tolist()))


def assert_shared_texts_write_the_floats(traj: SampledTrajectory):
    """The CSV and the JSON of ``sampled_texts`` hold the bytes of the trajectory's
    floats, and the JSON takes the very texts the CSV was written from."""
    out = io.StringIO()
    write_trajectory_csv(traj, out)
    assert out.getvalue() == csv_reference(traj)
    written = [floats for _, floats in scenario_io._FORMATTED[-2:]]  # the CSV's times, positions
    texts = sampled_texts(traj)
    assert texts["times"] is written[0] is scenario_io._format_array(traj.times)
    assert texts["positions"] is written[1] is scenario_io._format_array(traj.positions)
    # Nested, as in a certificate, and at the top level.
    certificate = {"regime": "doppler", "tonals": [800.0, 800.0],
                   "trajectory_i": texts, "trajectory_j": {"coeffs": [[1.0, 2.0]]}}
    reference = {**certificate, "trajectory_i": traj.to_dict()}
    for data, expected in [(certificate, reference), (texts, traj.to_dict())]:
        assert dumps_json(data) == json.dumps(ref(expected), indent=2, allow_nan=False) + "\n"
    return out.getvalue(), dumps_json(texts)


class TestSharedTrajectoryFormatting:
    # Values on both sides of repr's switches between fixed and exponent
    # notation, signed zero, the smallest subnormal and other subnormals.
    EDGES = [1e16, 9999999999999998.0, 1e-4, 9.9e-5, -0.0, 5e-324, 1e-310,
             2.225073858507201e-308, 2.2250738585072014e-308, 0.1, -1.5e300]

    def test_notation_edges(self):
        times = sorted(set(self.EDGES) - {-0.0}) + [1e17]
        positions = list(zip(self.EDGES, self.EDGES[::-1]))
        traj = SampledTrajectory(times=times, positions=positions)
        csv, text = assert_shared_texts_write_the_floats(traj)
        for literal in ("1e+16", "9999999999999998.0", "0.0001", "9.9e-05", "-0.0",
                        "5e-324", "1e-310"):
            assert literal in csv and literal in text

    def test_non_finite_values_keep_their_two_spellings(self):
        traj = SampledTrajectory(times=[-math.inf, 0.0, 1.0, math.inf],
                                 positions=[(math.nan, 1.0), (math.inf, -math.inf),
                                            (2.0, math.nan), (-0.0, 3.0)])
        csv, text = assert_shared_texts_write_the_floats(traj)
        assert csv.splitlines()[1:] == ["-inf,nan,1.0", "0.0,inf,-inf", "1.0,2.0,nan",
                                        "inf,-0.0,3.0"]
        assert "nan" not in text and "inf" not in text and text.count("null") == 6

    # Strictly increasing times whose differences do not overflow.
    TIMES = st.floats(-1e300, 1e300) | st.sampled_from(
        [-math.inf, math.inf, 5e-324, 2.2e-308, 1e-5, 1e16])

    @settings(max_examples=at_least(200))
    @given(times=st.lists(TIMES, min_size=2, max_size=8, unique=True).map(sorted),
           data=st.data())
    def test_random_values(self, times, data):
        positions = data.draw(hnp.arrays(np.float64, (len(times), 2), elements=FLOATS))
        assert_shared_texts_write_the_floats(SampledTrajectory(times, positions))


# Any 64-bit pattern (NaN payloads included) and the values on repr's edges.
SPECIAL_BITS = np.array([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, math.inf,
                         -math.inf, math.nan, -math.nan, 0.5]).view(np.uint64).tolist()
FLOAT_BITS = st.integers(0, 2 ** 64 - 1) | st.sampled_from(SPECIAL_BITS) | st.sampled_from(
    [0x7FF0000000000001, 0x7FF8000000000123, 0xFFF4000000000000])  # NaN payloads


class TestFormattedMemo:
    """``_format_array`` keeps the texts of the last three arrays it formatted."""

    @settings(max_examples=at_least(200))
    @given(bits=st.lists(FLOAT_BITS, min_size=1, max_size=12), width=st.integers(0, 3),
           data=st.data())
    def test_texts_are_each_values_repr(self, bits, width, data):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        if width:  # 2-D: whole rows of ``width`` values
            values = values[:len(values) // width * width].reshape(-1, width)
        scenario_io._format_array(np.array([data.draw(FLOATS)]))  # an entry to pass over
        expected = list(map(float.__repr__, values.ravel().tolist()))
        for _ in range(2):  # a miss, then a hit
            floats = scenario_io._format_array(values)
            assert floats.texts == expected
            assert floats.width == (width or None)
            assert floats.finite == bool(np.isfinite(values).all())

    def test_signed_zeros_have_their_own_entries(self):
        assert scenario_io._format_array(np.array([0.0, 1.0])).texts == ["0.0", "1.0"]
        assert scenario_io._format_array(np.array([-0.0, 1.0])).texts == ["-0.0", "1.0"]

    def test_shape_is_part_of_the_key(self):
        values = np.arange(4.0)
        assert scenario_io._format_array(values).width is None
        assert scenario_io._format_array(values.reshape(2, 2)).width == 2

    def test_keeps_the_three_most_recent_arrays(self):
        a, b, c, d = (np.full(3, float(k)) for k in range(4))
        for values in (a, b, c, a, d):  # the hit on a leaves b the oldest
            floats = scenario_io._format_array(values)
            assert len(scenario_io._FORMATTED) <= 3
        kept = [texts.texts[0] for _, texts in scenario_io._FORMATTED]
        assert kept == ["2.0", "0.0", "3.0"]
        assert scenario_io._format_array(d) is floats  # a hit returns the kept object


class MakeFailed(Exception):
    pass


@settings(max_examples=at_least(300))
@given(capacity=st.integers(1, 3),
       calls=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=40))
def test_kept_follows_the_reference_list(capacity, calls):
    """``_kept`` against a reference list of (key, value) pairs, least recent
    first: a hit returns the kept value and moves its pair last; a miss drops
    the least recent pair when the list is full, then keeps what ``make``
    returns, or nothing when ``make`` raises."""
    entries, reference = [], []
    for key, raises in calls:
        made = []

        def make():
            made.append(object())
            if raises:
                raise MakeFailed
            return made[-1]

        kept = [value for k, value in reference if k == key]
        if kept:
            assert scenario_io._kept(entries, key, capacity, make) is kept[0]
            reference.remove((key, kept[0]))
            reference.append((key, kept[0]))
        else:
            if len(reference) == capacity:
                del reference[0]
            if raises:
                with pytest.raises(MakeFailed):
                    scenario_io._kept(entries, key, capacity, make)
            else:
                assert scenario_io._kept(entries, key, capacity, make) is made[0]
                reference.append((key, made[0]))
        assert len(made) == (0 if kept else 1)
        assert entries == reference and len(entries) <= capacity


def test_report_keys_follow_field_order():
    """The fields of each report are its JSON schema: pin the key order written today."""
    scenario = collinear_scenario(np.random.default_rng(0))
    report = check_observable(scenario)
    assert report.collinearity_events
    assert list(report.to_dict()) == [
        "rank_decision", "sigma_ratio", "rank_tol", "singular_values", "null_space",
        "per_target_sigma_ratios", "orders", "min_pairwise_separation", "argmin_pair",
        "argmin_time", "collinearity_events", "gramian"]
    assert list(report.to_dict()["collinearity_events"][0]) == [
        "pair", "t_start", "t_end", "separation_min"]
    estimate = estimate_initial_state(scenario.observer, measure_scenario(scenario),
                                      list(scenario.effective_orders()))
    assert list(estimate.to_dict()) == [
        "uniqueness", "x_initial_hat", "residual_norm", "condition_number", "orders",
        "singular_values", "null_space"]

    observer = random_observer(np.random.default_rng(1), 2)
    base = PolynomialTrajectory(0.0, ((900.0, 1200.0), (3.0, -2.0)))
    grid = np.linspace(0.0, 2.0, 201)
    spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=100.0, rotation=0.05)
    generated = generate_doppler_ambiguous(base, observer, spec, grid)
    certificate = verify_ambiguity(generated, base, observer, (800.0, 800.0), 1500.0, grid)
    assert list(certificate.to_dict()) == [
        "regime", "verdict", "residual_doppler", "residual_bearing", "tol_f", "tol_theta",
        "tonals", "trajectory_i", "trajectory_j"]
    assert list(generated.to_dict()) == ["type", "times", "positions"]
    assert list(base.to_dict()) == ["type", "ref_time", "coeffs"]
    assert list(check_combined_condition(generated, base, observer, spec, grid).to_dict()) == [
        "combined_ambiguous", "eigenvector_condition_holds", "alpha_is_unity",
        "max_eigen_residual", "max_alpha_deviation", "tol", "times", "alphas",
        "eigen_residuals", "position_residuals"]
    sufficiency = check_doppler_sufficiency(generated, base, observer, (800.0, 800.0),
                                            1500.0, grid)
    assert list(sufficiency.to_dict()) == [
        "tonals_equal", "transform_is_identity", "ranges_equal", "all_conditions_hold",
        "residual_doppler", "implication_holds", "max_transform_deviation",
        "max_range_deviation", "tol", "tol_f"]
