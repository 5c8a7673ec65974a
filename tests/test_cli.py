import contextlib
import importlib
import io
import json
import os
import pkgutil
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import obskit
from obskit import cli, scenario_io, selftest, trajectory
from obskit.ambiguity import (DopplerAmbiguitySpec, _profile_values, generate_bearing_ambiguous,
                              generate_doppler_ambiguous)
from obskit.cli import run_cli
from obskit.errors import ObskitError, ValidationError
from obskit.measurement import Tonal, measure_scenario
from obskit.scenario_io import TargetConfig, dumps_json, save_scenario, write_trajectory_csv

from conftest import forget_kept

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
OBSERVABLE = SCENARIOS / "two_target_observable.json"
COLLINEAR = SCENARIOS / "collinear_unobservable.json"
DOPPLER_BASE = SCENARIOS / "doppler_pair_base.json"


class TestSimulate:
    def test_writes_csv_with_contract_header(self, tmp_path):
        out = tmp_path / "history.csv"
        assert run_cli(["simulate", str(OBSERVABLE), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,target_id,bearing_rad,doppler_hz"
        # 61 grid points x 2 targets
        assert len(lines) == 1 + 61 * 2

    def test_stdout_when_no_output(self, capsys):
        assert run_cli(["simulate", str(OBSERVABLE), "--grid-points", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,target_id,bearing_rad,doppler_hz")

    def test_missing_file_exits_one(self, capsys):
        assert run_cli(["simulate", "no-such-file.json"]) == 1
        assert "error" in capsys.readouterr().err


class TestGridPointsOverride:
    # The target crosses the static observer at t = 5, a node of the file's
    # 11-point grid but not of a 4-point grid.
    CROSSING = {"observer": {"coeffs": [[0.0, 0.0]]},
                "targets": [{"coeffs": [[-50.0, 0.0], [10.0, 0.0]]}],
                "time": {"start": 0.0, "end": 10.0, "points": 11}}
    MEETS = "error: targets[0]: coincides with the observer at t=5.0"

    def test_kinematics_checked_once_on_the_analysed_grid(self, tmp_path, monkeypatch,
                                                          capsys):
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps(self.CROSSING))
        assert run_cli(["simulate", str(path)]) == 1
        assert self.MEETS in capsys.readouterr().err
        calls = []
        real = scenario_io.relative_states
        monkeypatch.setattr(scenario_io, "relative_states",
                            lambda *args: calls.append(len(args[2])) or real(*args))
        assert run_cli(["simulate", str(path), "--grid-points", "4"]) == 0
        assert calls == [4]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4

    def test_override_grid_meeting_the_observer_rejected(self, tmp_path, capsys):
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps(dict(self.CROSSING, time={"start": 0.0, "end": 10.0,
                                                            "points": 4})))
        assert run_cli(["simulate", str(path)]) == 0
        capsys.readouterr()
        assert run_cli(["simulate", str(path), "--grid-points", "11"]) == 1
        assert self.MEETS in capsys.readouterr().err

    def test_file_fields_still_checked(self, tmp_path, capsys):
        path = tmp_path / "one_point.json"
        path.write_text(json.dumps(dict(self.CROSSING, time={"start": 0.0, "end": 10.0,
                                                            "points": 1})))
        assert run_cli(["simulate", str(path), "--grid-points", "4"]) == 1
        assert "error: time.points: must be >= 2, got 1" in capsys.readouterr().err


class TestObservability:
    def test_collinear_scenario_reports_unobservable(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["observability", str(COLLINEAR), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["rank_decision"] == "unobservable"
        assert report["null_space"] is not None
        assert report["collinearity_events"]
        assert "unobservable" in capsys.readouterr().out

    def test_observable_scenario_to_stdout(self, capsys):
        assert run_cli(["observability", str(OBSERVABLE)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank_decision"] == "observable"
        assert report["min_pairwise_separation"] > 0.2

    def test_rank_tol_override(self, capsys):
        assert run_cli(["observability", str(OBSERVABLE), "--rank-tol", "0.9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank_decision"] == "unobservable"
        assert report["rank_tol"] == 0.9


class TestEstimate:
    def test_unique_estimate_with_replay(self, tmp_path):
        out = tmp_path / "estimate.json"
        assert run_cli(["estimate", str(OBSERVABLE), "-o", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["uniqueness"] == "unique"
        assert result["replay_error_rad"] < 1e-8
        assert len(result["x_initial_hat"]) == 4

    def test_degenerate_estimate(self, capsys):
        assert run_cli(["estimate", str(COLLINEAR)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["uniqueness"] == "degenerate"
        assert "replay_error_rad" not in result

    def test_starved_grid_exits_two(self, tmp_path, capsys):
        assert run_cli(["estimate", str(DOPPLER_BASE), "--grid-points", "2"]) == 2
        assert "analysis error" in capsys.readouterr().err


def test_every_other_library_error_exits_two(monkeypatch, capsys):
    class NewAnalysisError(ObskitError):
        """A library error class that run_cli does not name."""

    def failing(*args, **kwargs):
        raise NewAnalysisError("no verdict on this input")

    monkeypatch.setattr(cli, "check_observable", failing)
    assert run_cli(["observability", str(OBSERVABLE)]) == 2
    assert capsys.readouterr().err == "analysis error: no verdict on this input\n"


class TestKinematicsPasses:
    """Validation and measurement share one ``relative_states`` pass per loaded scenario."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Grid lengths of every ``relative_states`` call, in every module that imports it."""
        calls = []
        real = trajectory.relative_states

        def counting(*args, **kwargs):
            calls.append(np.size(args[2]))
            return real(*args, **kwargs)

        for info in pkgutil.iter_modules(obskit.__path__):
            if info.name == "__main__":  # runs the CLI on import
                continue
            module = importlib.import_module(f"obskit.{info.name}")
            if getattr(module, "relative_states", None) is real:
                monkeypatch.setattr(module, "relative_states", counting)
        return calls

    @pytest.mark.parametrize("argv, expected", [
        (["observability", str(OBSERVABLE)], [61]),
        (["simulate", str(OBSERVABLE)], [61]),
        (["simulate", str(OBSERVABLE), "--grid-points", "301"], [301]),
        # The shared pass, then the replay of the estimate.
        (["estimate", str(OBSERVABLE)], [61, 61]),
        # Degenerate: no replay.
        (["estimate", str(COLLINEAR)], [81]),
    ])
    def test_one_pass_per_loaded_scenario(self, passes, argv, expected, capsys):
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert passes == expected

    def test_one_pass_per_file_across_commands(self, passes, capsys):
        # run_cli keeps the loaded scenario and its history while the file is unchanged.
        for command in ("observability", "estimate", "simulate"):
            assert run_cli([command, str(OBSERVABLE)]) == 0
        capsys.readouterr()
        assert passes == [61, 61]  # the shared pass, then the estimate's replay

    # Validation accepts this scenario: range and range rate are finite on
    # the grid. Only t^4, which no term of the cubic observer uses, overflows.
    UNUSED_POWER = {"observer": {"coeffs": [[10.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                            [1e-90, 1e-90]]},
                    "targets": [{"coeffs": [[1000.0, 500.0]]}],
                    "time": {"start": 0.0, "end": 1e78, "points": 11}}

    def test_an_unused_power_is_never_formed(self, tmp_path, capsys):
        path = tmp_path / "unused_power.json"
        path.write_text(json.dumps(self.UNUSED_POWER))
        assert run_cli(["simulate", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 11
        # A scenario never validated is measured by the same kernel, so it agrees.
        direct = replace(scenario_io.load_scenario(path))
        with np.errstate(all="raise"):
            assert measure_scenario(direct).bearings.shape == (1, 11)

    def test_every_command_runs_on_the_huge_window(self, tmp_path, capsys):
        # The estimate scales its residual terms before squaring them, so none overflows.
        path = tmp_path / "unused_power.json"
        path.write_text(json.dumps(self.UNUSED_POWER))
        outputs = {}
        for command in ("simulate", "observability", "estimate"):
            code = run_cli([command, str(path)])
            outputs[command] = capsys.readouterr()
            assert code == 0, outputs[command].err
        residual = json.loads(outputs["estimate"].out)["residual_norm"]
        assert np.isfinite(residual) and residual > 0


class TestLoadedScenarioReuse:
    """``load_scenario``, which every command calls, reuses the last loaded
    scenario while the file's text and the grid override are unchanged, and
    parses it again otherwise."""

    @pytest.fixture
    def loads(self, monkeypatch):
        """The JSON data of each scenario parse, one per parse."""
        calls = []
        real = scenario_io.scenario_from_dict
        monkeypatch.setattr(scenario_io, "scenario_from_dict",
                            lambda data, *args: calls.append(data) or real(data, *args))
        return calls

    def outcome(self, capsys, argv):
        code = run_cli([str(arg) for arg in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_load_per_unchanged_file(self, loads, capsys):
        for argv in (["observability", OBSERVABLE], ["estimate", OBSERVABLE],
                     ["simulate", OBSERVABLE], ["estimate", COLLINEAR],
                     ["observability", OBSERVABLE]):
            assert self.outcome(capsys, argv)[0] == 0
        observable, collinear = (json.loads(path.read_text()) for path in (OBSERVABLE, COLLINEAR))
        assert loads == [observable, collinear, observable]
        assert scenario_io._KEPT_SCENARIO[0][0][0] == OBSERVABLE.read_text()  # one entry, the last

    def test_same_length_rewrite_is_reloaded(self, tmp_path, loads, capsys):
        path = tmp_path / "scenario.json"
        text = OBSERVABLE.read_text()
        path.write_text(text)
        stat = path.stat()
        before = self.outcome(capsys, ["observability", path])
        rewritten = text.replace('"points": 61', '"points": 71')
        assert len(rewritten) == len(text) and rewritten != text
        path.write_text(rewritten)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # the same mtime tick
        after = self.outcome(capsys, ["observability", path])
        assert len(loads) == 2
        assert before[0] == after[0] == 0 and before[1] != after[1]
        forget_kept()
        assert self.outcome(capsys, ["observability", path]) == after

    def test_other_grid_override_is_reloaded(self, loads, capsys):
        lengths = []
        for points in ("3", "5", "5", None):
            argv = ["simulate", OBSERVABLE] + (["--grid-points", points] if points else [])
            code, out, _ = self.outcome(capsys, argv)
            assert code == 0
            lengths.append(len(out.splitlines()))
        assert lengths == [1 + 3 * 2, 1 + 5 * 2, 1 + 5 * 2, 1 + 61 * 2]
        assert len(loads) == 3

    def test_rejected_file_loads_once_fixed(self, tmp_path, loads, capsys):
        path = tmp_path / "scenario.json"
        data = json.loads(OBSERVABLE.read_text())
        path.write_text(json.dumps(dict(data, c=-1.0)))
        for _ in range(2):  # errors are not kept
            code, _, err = self.outcome(capsys, ["observability", path])
            assert code == 1 and err.startswith("error: c: must be > 0")
            assert scenario_io._KEPT_SCENARIO == []
        path.write_text(json.dumps(data))
        assert self.outcome(capsys, ["observability", path])[0] == 0
        assert len(loads) == 3

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_once(self, loads, capsys):
        expected = self.outcome(capsys, ["estimate", OBSERVABLE])
        forget_kept()  # nothing kept to match the pipe's text
        read, write = os.pipe()
        try:
            os.write(write, OBSERVABLE.read_bytes())
            os.close(write)
            assert self.outcome(capsys, ["estimate", f"/dev/fd/{read}"]) == expected
        finally:
            os.close(read)
        # A pipe is kept by its text like any file, so the file's own text hits.
        assert self.outcome(capsys, ["estimate", OBSERVABLE]) == expected
        assert len(loads) == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_read_once(self, tmp_path, loads, capsys):
        expected = self.outcome(capsys, ["estimate", OBSERVABLE])
        forget_kept()
        fifo = tmp_path / "scenario.fifo"
        os.mkfifo(fifo)
        result = []
        command = threading.Thread(
            target=lambda: result.append(self.outcome(capsys, ["estimate", fifo])), daemon=True)
        command.start()
        deadline = time.monotonic() + 30
        while True:  # a writer can open only while the command holds the FIFO open
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError:
                assert command.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
        os.write(writer, OBSERVABLE.read_bytes())
        os.close(writer)
        command.join(timeout=30)
        if command.is_alive():  # blocked in a second open: end it, then fail
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            command.join(timeout=30)
            pytest.fail("the command opened the FIFO a second time")
        assert result == [expected]
        assert len(loads) == 2

    @pytest.mark.parametrize("missing", ["no-such-file.json", "{tmp}"])
    def test_unreadable_file_message_unchanged(self, tmp_path, loads, capsys, missing):
        missing = missing.replace("{tmp}", str(tmp_path))  # a directory
        with pytest.raises(scenario_io.ParseError) as expected:
            scenario_io.load_scenario(missing)
        assert self.outcome(capsys, ["estimate", OBSERVABLE])[0] == 0
        assert self.outcome(capsys, ["estimate", missing]) == (1, "", f"error: {expected.value}\n")
        assert len(loads) == 1  # the unreadable file is never parsed


class TestAmbiguity:
    def test_generate_doppler_and_verify_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "pair"
        assert run_cli(["ambiguity", "generate", str(DOPPLER_BASE),
                        "--regime", "doppler", "-o", str(prefix),
                        "--l-prime", "1.02", "--b-prime", "400.0",
                        "--rotation-rate", "0.05"]) == 0
        traj_csv = Path(f"{prefix}_trajectory.csv")
        cert_json = Path(f"{prefix}_certificate.json")
        assert traj_csv.exists() and cert_json.exists()
        cert = json.loads(cert_json.read_text())
        assert cert["regime"] == "doppler"
        assert cert["verdict"] == "ambiguous"
        assert cert["residual_bearing"] > 0.1
        capsys.readouterr()

        out = tmp_path / "verify.json"
        assert run_cli(["ambiguity", "verify", str(DOPPLER_BASE), str(traj_csv),
                        "--regime", "doppler", "--tonal-i",
                        str(1000.0 / 1.02), "-o", str(out)]) == 0
        verified = json.loads(out.read_text())
        assert verified["verdict"] == "ambiguous"
        assert verified["residual_doppler"] == cert["residual_doppler"]

    def test_generate_bearing_regime(self, tmp_path, capsys):
        prefix = tmp_path / "bear"
        assert run_cli(["ambiguity", "generate", str(DOPPLER_BASE),
                        "--regime", "bearing", "-o", str(prefix)]) == 0
        cert = json.loads(Path(f"{prefix}_certificate.json").read_text())
        assert cert["verdict"] == "ambiguous"
        assert cert["residual_bearing"] < 1e-10
        capsys.readouterr()

    def test_infeasible_spec_exits_two(self, tmp_path, capsys):
        assert run_cli(["ambiguity", "generate", str(DOPPLER_BASE),
                        "--regime", "doppler", "-o", str(tmp_path / "x"),
                        "--l-prime", "2.0", "--b-prime", "0.0"]) == 2
        assert "analysis error" in capsys.readouterr().err

    def test_doppler_generation_requires_tonal(self, tmp_path, capsys):
        assert run_cli(["ambiguity", "generate", str(COLLINEAR),
                        "--regime", "doppler", "-o", str(tmp_path / "x"),
                        "--base-target", "1"]) == 1
        assert "tonal" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        ["0.0,500.0,500.0", "1.0,510.0,500.0", "1.0,520.0,500.0"],
        ["0.0,500.0,500.0", "2.0,510.0,500.0", "1.0,520.0,500.0"],
        ["0.0,500.0,500.0", "1.0,510.0,500.0"],
        ["0.0,nan,500.0", "1.0,510.0,500.0", "2.0,520.0,500.0"],
        ["0.0,500.0,500.0", "1.0,510.0,500.0", "inf,520.0,500.0"],
    ], ids=["duplicate_times", "decreasing_times", "two_rows", "nan_position", "inf_time"])
    def test_verify_rejects_unusable_trajectory_csv(self, tmp_path, capsys, rows):
        csv = tmp_path / "candidate.csv"
        csv.write_text("\n".join(["t,x_m,y_m", *rows]) + "\n")
        assert run_cli(["ambiguity", "verify", str(DOPPLER_BASE), str(csv),
                        "--regime", "bearing"]) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("regime", ["doppler", "bearing"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_generate_rejects_two_point_grid(tmp_path, capsys, regime, source):
    # The certificate's sampled range rates need second-order differences.
    argv = ["ambiguity", "generate", str(DOPPLER_BASE), "--regime", regime,
            "-o", str(tmp_path / "pair")]
    if source == "flag":
        argv += ["--grid-points", "2"]
    else:
        data = json.loads(DOPPLER_BASE.read_text())
        data["time"]["points"] = 2
        argv[2] = str(tmp_path / "two_points.json")
        Path(argv[2]).write_text(json.dumps(data))
    assert run_cli(argv) == 1
    field = "--grid-points" if source == "flag" else "time.points"
    assert f"error: {field}: ambiguity generation needs at least 3 grid points, got 2" in (
        capsys.readouterr().err)
    assert not list(tmp_path.glob("pair*"))


# A valid candidate trajectory CSV; {meets} is the same file with its first row
# on the observer of doppler_pair_base.json at t = 0.
CANDIDATE = "t,x_m,y_m\n0.0,500.0,500.0\n1.0,510.0,500.0\n2.0,520.0,500.0\n"


@pytest.mark.parametrize("argv,code,message", [
    (["ambiguity", "generate", str(DOPPLER_BASE), "--regime", "doppler", "-o", "{tmp}/x",
      "--base-target", "9"], 1, "error: targets[9]: scenario has 1 targets"),
    (["ambiguity", "generate", str(DOPPLER_BASE), "--regime", "bearing", "-o", "{tmp}/x",
      "--base-target", "-1"], 1, "error: targets[-1]: scenario has 1 targets"),
    (["ambiguity", "verify", str(DOPPLER_BASE), "{csv}", "--base-target", "9"],
     1, "error: targets[9]: scenario has 1 targets"),
    (["ambiguity", "verify", str(DOPPLER_BASE), "{csv}", "--base-target", "-1"],
     1, "error: targets[-1]: scenario has 1 targets"),
    (["ambiguity", "verify", str(DOPPLER_BASE), "{tmp}/missing.csv"],
     1, "error: cannot read trajectory file"),
    (["ambiguity", "verify", str(COLLINEAR), "{csv}", "--regime", "doppler",
      "--base-target", "1"], 1, "error: targets[1].tonal_hz: doppler-regime verification"),
    (["ambiguity", "verify", str(COLLINEAR), "{csv}", "--regime", "combined",
      "--base-target", "1"], 1, "error: targets[1].tonal_hz: combined-regime verification"),
    (["ambiguity", "verify", str(COLLINEAR), "{csv}", "--regime", "bearing",
      "--base-target", "1", "--tonal-i", "500", "-o", "{tmp}/x_certificate.json"],
     1, "error: --tonal-i: targets[1] has no tonal_hz to compare it with"),
    (["ambiguity", "verify", str(DOPPLER_BASE), "{meets}"],
     2, "analysis error: trajectory meets the observer at t=0.0"),
], ids=["generate-target-9", "generate-target-minus-1", "verify-target-9",
        "verify-target-minus-1", "verify-missing-csv", "verify-doppler-without-tonal",
        "verify-combined-without-tonal", "verify-tonal-i-without-tonal",
        "verify-meets-observer"])
def test_bad_ambiguity_input_exits(tmp_path, capsys, argv, code, message):
    csv, meets = tmp_path / "candidate.csv", tmp_path / "meets.csv"
    csv.write_text(CANDIDATE)
    meets.write_text(CANDIDATE.replace("0.0,500.0,500.0", "0.0,0.0,0.0"))
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{csv}", str(csv))
            .replace("{meets}", str(meets)) for a in argv]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("x_*"))


class TestScenarioNumbers:
    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["time"].update(start="zero"), "time.start"),
        (lambda d: d["time"].update(end=True), "time.end"),
        (lambda d: d["tolerances"].update(rank_tol=-1), "tolerances.rank_tol"),
        (lambda d: d["targets"][0]["coeffs"][0].__setitem__(0, float("nan")),
         "targets[0].coeffs[0][0]"),
        (lambda d: d["time"].update(end=float("inf")), "time.end"),
        (lambda d: d.update(c=None), "c"),
        (lambda d: d.update(c=10 ** 400), "c"),
        (lambda d: d["targets"][0].update(tonal_hz=True), "targets[0].tonal_hz"),
        (lambda d: d["targets"][0].update(tonal_hz=float("nan")), "targets[0].tonal_hz"),
        (lambda d: d["observer"]["coeffs"][1].__setitem__(1, "5"), "observer.coeffs[1][1]"),
        (lambda d: d["tolerances"].update(tol_f=0.0), "tolerances.tol_f"),
        (lambda d: d["tolerances"].update(eps_range=float("nan")), "tolerances.eps_range"),
        (lambda d: d["tolerances"].update(tol_theta=False), "tolerances.tol_theta"),
    ])
    def test_bad_number_exits_one(self, tmp_path, capsys, mutate, field):
        data = json.loads(OBSERVABLE.read_text())
        mutate(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))  # a NaN is written as the literal NaN
        assert run_cli(["observability", str(path)]) == 1
        assert f"error: {field}:" in capsys.readouterr().err


# Argument templates per command; {out} is an empty output directory, {csv} a
# valid candidate trajectory.
COMMANDS = {
    "generate_doppler": ["ambiguity", "generate", str(DOPPLER_BASE), "--regime", "doppler",
                         "-o", "{out}/x"],
    "generate_bearing": ["ambiguity", "generate", str(DOPPLER_BASE), "--regime", "bearing",
                         "-o", "{out}/x"],
    "verify_doppler": ["ambiguity", "verify", str(DOPPLER_BASE), "{csv}",
                       "--regime", "doppler", "-o", "{out}/cert.json"],
    "observability": ["observability", str(OBSERVABLE), "-o", "{out}/report.json"],
    "estimate": ["estimate", str(OBSERVABLE), "-o", "{out}/estimate.json"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("command,option,value", [
    ("generate_doppler", "l-prime", "0"),
    ("generate_doppler", "l-prime", "-1"),
    ("generate_doppler", "l-prime", "nan"),
    ("generate_doppler", "b-prime", "inf"),
    ("generate_doppler", "rotation-rate", "nan"),
    ("generate_bearing", "alpha-amplitude", "inf"),
    ("generate_bearing", "alpha-rate", "nan"),
    ("verify_doppler", "tonal-i", "0"),
    ("verify_doppler", "tonal-i", "-5"),
    ("verify_doppler", "tonal-i", "nan"),
    ("observability", "rank-tol", "nan"),
    ("observability", "rank-tol", "-1"),
    ("observability", "rank-tol", "0"),
    ("observability", "rank-tol", "inf"),
    ("estimate", "rank-tol", "nan"),
    ("observability", "grid-points", "0"),
    ("observability", "grid-points", "1000000000000000"),
    ("selftest", "seed", "-1"),
])
def test_bad_number_option_exits_one(tmp_path, capsys, command, option, value):
    csv = tmp_path / "candidate.csv"
    csv.write_text("t,x_m,y_m\n0.0,500.0,500.0\n1.0,510.0,500.0\n2.0,520.0,500.0\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.replace("{out}", str(out)).replace("{csv}", str(csv))
            for a in COMMANDS[command]]
    assert run_cli([*argv, f"--{option}={value}"]) == 1
    assert f"error: --{option}:" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["observability", str(OBSERVABLE), "-o", "{tmp}/missing_dir/r.json"],
    ["simulate", str(OBSERVABLE), "-o", "{tmp}"],
    ["ambiguity", "generate", str(DOPPLER_BASE), "--regime", "doppler",
     "-o", "{tmp}/missing_dir/pair"],
], ids=["missing-directory", "directory", "missing-prefix-directory"])
def test_unwritable_output_exits_one(tmp_path, capsys, argv):
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(tmp_path) in err
    assert not (tmp_path / "missing_dir").exists()


# Files a loader cannot decode: bytes that are not UTF-8, and JSON nested
# deeper than the parser's recursion limit.
UNDECODABLE = {"not-utf8": b"\xff\xfe{}", "nested": b"[" * 100_000}
SCENARIO_COMMANDS = {
    "observability": ["observability", "{bad}"],
    "estimate": ["estimate", "{bad}"],
    "simulate": ["simulate", "{bad}"],
    "generate": ["ambiguity", "generate", "{bad}", "--regime", "doppler", "-o", "{tmp}/x"],
}


@pytest.mark.parametrize("argv,content", [
    *(pytest.param(argv, content, id=f"{command}-{kind}")
      for command, argv in SCENARIO_COMMANDS.items() for kind, content in UNDECODABLE.items()),
    pytest.param(["ambiguity", "verify", str(DOPPLER_BASE), "{bad}", "-o", "{tmp}/x_cert.json"],
                 CANDIDATE.encode().replace(b"510.0", b"\xff510.0"), id="verify-csv-not-utf8"),
])
def test_undecodable_input_exits_one(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad_input"
    bad.write_bytes(content)
    assert run_cli([a.replace("{bad}", str(bad)).replace("{tmp}", str(tmp_path))
                    for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("x_*"))


@pytest.mark.parametrize("seed", range(4))
def test_padded_targets_change_no_output(tmp_path, capsys, seed):
    """Trailing zero pairs up to the observer's order change no output byte.

    Target orders 0-3 under a higher-order observer: written as drawn, the
    targets take different rows of the order-sorted ``relative_states``
    stack than when all are padded to the observer's order.
    """
    scenario = selftest.random_scenario(np.random.default_rng(seed), m_targets=4,
                                        target_order_max=3, grid_points=41)
    orders = [t.trajectory.order for t in scenario.targets]
    assert len(set(orders)) > 1 and scenario.observer.order > max(orders)
    outputs = []
    for pad in (False, True):
        targets = tuple(
            TargetConfig(t.trajectory.padded(scenario.observer.order) if pad else t.trajectory,
                         Tonal(1000.0 + 100.0 * i))
            for i, t in enumerate(scenario.targets))
        path = tmp_path / "scenario.json"
        save_scenario(replace(scenario, targets=targets), path)
        out = tmp_path / f"padded_{pad}"
        out.mkdir()
        runs = [(run_cli([command, str(path), "-o", str(out / name)]), capsys.readouterr())
                for command, name in (("observability", "report.json"),
                                      ("estimate", "estimate.json"),
                                      ("simulate", "history.csv"))]
        assert [rc for rc, _ in runs] == [0, 0, 0]
        outputs.append((runs, {f.name: f.read_bytes() for f in out.iterdir()}))
    assert outputs[0] == outputs[1]


class TestMisc:
    def test_usage_error_exits_one(self, capsys):
        assert run_cli(["simulate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_selftest_runs_green(self, capsys):
        assert run_cli(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestDeterminism:
    @pytest.mark.parametrize("scenario", [OBSERVABLE, COLLINEAR, DOPPLER_BASE])
    def test_observability_reports_are_byte_identical(self, tmp_path, scenario, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["observability", str(scenario), "-o", str(a)]) == 0
        forget_kept()  # the second run loads the file and formats its arrays afresh
        assert run_cli(["observability", str(scenario), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()


def test_benchmark_traced_names_resolve(monkeypatch):
    # The benchmark's traced runs patch these module attributes by name.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    for sites in spans.TRACED.values():
        for module_name, attr in sites:
            assert callable(getattr(importlib.import_module(module_name), attr))


def _counting_build_parser(monkeypatch):
    """Replace ``cli.build_parser`` by a wrapper; returns its list of calls."""
    calls = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
    return calls


def test_shared_parser_carries_no_state_between_commands(monkeypatch, capsys):
    sequence = [["observability", str(OBSERVABLE), "--rank-tol", "1e-3"],
                ["observability", str(OBSERVABLE)],
                ["estimate", str(OBSERVABLE), "--grid-points", "61"],
                ["estimate", str(OBSERVABLE)],
                ["observability", str(OBSERVABLE), "--no-such-option"],
                ["simulate", str(OBSERVABLE), "--grid-points", "3"],
                ["--help"],
                ["estimate", str(COLLINEAR)]]

    def outcome(argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        forget_kept()
        fresh.append(outcome(argv))
    monkeypatch.setattr(cli, "_PARSER", None)
    calls = _counting_build_parser(monkeypatch)
    shared = [outcome(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert calls == [1]
    file_rank_tol = json.loads(OBSERVABLE.read_text())["tolerances"]["rank_tol"]
    assert json.loads(shared[0][1])["rank_tol"] == 1e-3
    assert json.loads(shared[1][1])["rank_tol"] == file_rank_tol


def test_benchmark_trace_wrapper_stays_flat(monkeypatch):
    # The traced benchmark wraps build_parser, and re-wraps parse_args on the
    # parser each call returns: a cached factory would nest one more wrapper
    # per build.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    for sites in spans.TRACED.values():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(cli, "_PARSER", None)
    builds = _counting_build_parser(monkeypatch)
    tracer = spans.Tracer()
    spans.install(tracer)

    def parse_spans():
        return [span for span in tracer.spans if span[0] == spans.PARSE]

    argv = ["observability", str(OBSERVABLE)]
    for _ in range(5):
        assert run_cli(argv) == 0
    assert len(builds) <= 1
    assert len(parse_spans()) - len(builds) == 5
    monkeypatch.setattr(cli, "_PARSER", None)
    assert run_cli(argv) == 0
    assert len(builds) == 2
    for span in parse_spans():
        assert span[4] is None or tracer.spans[span[4]][0] != spans.PARSE


def test_numerical_overflow_exits_two(tmp_path, capsys):
    """A loadable candidate whose squared range overflows is an analysis error."""
    csv = tmp_path / "candidate.csv"
    csv.write_text("t,x_m,y_m\n0.0,1e200,500.0\n1.0,510.0,500.0\n2.0,520.0,500.0\n")
    argv = ["ambiguity", "verify", str(DOPPLER_BASE), str(csv), "--regime", "bearing"]
    assert run_cli(argv) == 2
    assert "analysis error: numerical overflow" in capsys.readouterr().err


def test_generate_profiles_equal_the_per_node_callables(tmp_path, monkeypatch, capsys):
    """The CLI samples its profiles as arrays; they equal the per-node callables,
    and the files it writes equal the library's output with those callables."""
    passed = {}

    def spy(regime, generate):
        def wrapper(*args):
            passed[regime] = args
            return generate(*args)
        return wrapper

    monkeypatch.setattr(cli, "generate_doppler_ambiguous",
                        spy("doppler", generate_doppler_ambiguous))
    monkeypatch.setattr(cli, "generate_bearing_ambiguous",
                        spy("bearing", generate_bearing_ambiguous))
    rng = np.random.default_rng(2024)
    data = json.loads(DOPPLER_BASE.read_text())
    path, prefix = tmp_path / "base.json", tmp_path / "pair"
    for draw in range(40):
        t0 = 0.0 if draw % 4 == 0 else float(rng.uniform(-1e4, 1e4))
        data["time"] = {"start": t0, "end": t0 + float(rng.uniform(1.0, 20.0)),
                        "points": int(rng.integers(3, 300))}
        path.write_text(json.dumps(data))
        rate, amplitude = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.0, 0.9))
        alpha_rate = float(rng.uniform(-3.0, 3.0))
        scenario = scenario_io.load_scenario(path)
        base, grid = scenario.targets[0], scenario.grid()
        for regime, options, profile in [
                ("doppler", ["--rotation-rate", repr(rate)], lambda t: rate * (t - t0)),
                ("bearing",
                 ["--alpha-amplitude", repr(amplitude), "--alpha-rate", repr(alpha_rate)],
                 lambda t: 1.0 + amplitude * np.sin(alpha_rate * (t - t0)))]:
            assert run_cli(["ambiguity", "generate", str(path), "--regime", regime,
                            "-o", str(prefix), *options]) == 0
            if regime == "doppler":
                spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=100.0, rotation=profile,
                                            c=scenario.c)
                assert np.array_equal(passed[regime][2].rotation,
                                      _profile_values(profile, grid, "rotation"))
                generated = generate_doppler_ambiguous(base.trajectory, scenario.observer,
                                                       spec, grid)
            else:
                assert np.array_equal(passed[regime][2], _profile_values(profile, grid, "alpha"))
                generated = generate_bearing_ambiguous(base.trajectory, scenario.observer,
                                                       profile, grid)
            csv = io.StringIO()
            write_trajectory_csv(generated, csv)
            assert Path(f"{prefix}_trajectory.csv").read_text() == csv.getvalue()
            certificate = cli._certify(scenario, generated, base, (base.tonal.f0,) * 2, regime)
            assert Path(f"{prefix}_certificate.json").read_text() == dumps_json(
                certificate.to_dict())
    capsys.readouterr()


@pytest.mark.parametrize("regime", ["doppler", "bearing"])
@pytest.mark.parametrize("n", [3, 101])
def test_generate_formats_each_value_once(tmp_path, monkeypatch, capsys, regime, n):
    """The CSV and the certificate share one set of texts: 3N generated values
    are formatted at N grid points, not 3N for each file."""
    calls = []
    reprs = scenario_io._reprs
    monkeypatch.setattr(scenario_io, "_reprs",
                        lambda values: calls.append(len(values)) or reprs(values))
    prefix = tmp_path / "pair"
    assert run_cli(["ambiguity", "generate", str(DOPPLER_BASE), "--regime", regime,
                    "--grid-points", str(n), "-o", str(prefix)]) == 0
    capsys.readouterr()
    certificate = json.loads(Path(f"{prefix}_certificate.json").read_text())
    base_coeffs = sum(map(len, certificate["trajectory_j"]["coeffs"]))
    print(f"{regime}, N={n}: {sum(calls)} values formatted {calls}")
    # Times and positions once each; the base target's coefficients and the tonals.
    assert sorted(calls) == sorted([n, 2 * n, base_coeffs, len(certificate["tonals"])])


def ambiguity_run(out: Path) -> list[list[str]]:
    """Generate both counterparts, then verify them in every regime that applies."""
    base = str(DOPPLER_BASE)
    dop, bear = f"{out}/doppler", f"{out}/bearing"
    return [["ambiguity", "generate", base, "--regime", "doppler", "-o", dop],
            ["ambiguity", "generate", base, "--regime", "bearing", "-o", bear],
            *[["ambiguity", "verify", base, f"{csv}_trajectory.csv", "--regime", regime,
               "-o", f"{out}/verify_{regime}.json"]
              for csv, regime in [(dop, "doppler"), (dop, "combined"), (bear, "bearing")]]]


def test_ambiguity_run_formats_each_array_once(tmp_path, monkeypatch, capsys):
    """A CSV read back holds the bits that were written, so in one process the
    grid and each counterpart are formatted once for all five commands, and
    every file is the one written with nothing kept."""
    calls = []
    reprs = scenario_io._reprs
    monkeypatch.setattr(scenario_io, "_reprs",
                        lambda values: calls.append(len(values)) or reprs(values))
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir(), fresh.mkdir()
    assert [run_cli(argv) for argv in ambiguity_run(shared)] == [0] * 5
    n = json.loads(DOPPLER_BASE.read_text())["time"]["points"]
    # The grid, the Doppler counterpart and the bearing counterpart, in that
    # order; the rest are the certificates' base coefficients and tonals.
    assert [size for size in calls if size >= n] == [n, 2 * n, 2 * n]
    assert all(size <= 4 for size in calls if size < n)
    for argv in ambiguity_run(fresh):
        forget_kept()
        assert run_cli(argv) == 0
    capsys.readouterr()
    names = sorted(path.name for path in shared.iterdir())
    assert names == sorted(path.name for path in fresh.iterdir()) and len(names) == 7
    for name in names:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


def test_ambiguity_run_parses_its_scenario_once_and_no_csv(tmp_path, monkeypatch, capsys):
    """The five commands share one scenario parse, and every CSV that ``verify``
    reads was written in the same process, so none is parsed."""
    parses, csv_parses = [], []
    from_dict, parse_rows = scenario_io.scenario_from_dict, scenario_io._parse_rows
    monkeypatch.setattr(scenario_io, "scenario_from_dict",
                        lambda *args: parses.append(1) or from_dict(*args))
    monkeypatch.setattr(scenario_io, "_parse_rows",
                        lambda *args: csv_parses.append(1) or parse_rows(*args))
    assert [run_cli(argv) for argv in ambiguity_run(tmp_path)] == [0] * 5
    capsys.readouterr()
    assert len(parses) == 1 and csv_parses == []


@st.composite
def extreme_scenario_files(draw):
    """Scenario files whose window spans 1e-3 to 1e150 s and whose k-th
    coefficients move the position by up to 1e150 m over the window; ``c``
    and each target's ``tonal_hz``, when drawn, span every positive float
    magnitude from the subnormals up."""
    exponent = draw(st.integers(-3, 150))
    length = draw(st.floats(1.0, 9.99)) * 10.0 ** exponent

    def coeffs():
        return [[draw(st.floats(-9.99, 9.99)) * 10.0 ** (draw(st.integers(-150, 150))
                                                         - k * exponent) for _ in range(2)]
                for k in range(draw(st.integers(1, 4)))]

    def magnitude():
        return draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(-323, 307))

    start = draw(st.floats(-9.99, 9.99)) * 10.0 ** draw(st.integers(-3, 150))
    targets = [{"coeffs": coeffs()} for _ in range(draw(st.integers(1, 2)))]
    for target in targets:
        if draw(st.booleans()):
            target["tonal_hz"] = magnitude()
    data = {"observer": {"coeffs": coeffs()}, "targets": targets,
            "time": {"start": start, "end": start + length,
                     "points": draw(st.integers(3, 15))}}
    if draw(st.booleans()):
        data["c"] = magnitude()
    return data


@settings(max_examples=150, deadline=None)
@given(data=extreme_scenario_files())
def test_loadable_file_runs_in_every_command(tmp_path_factory, data):
    """A file that loads runs in ``observability``; in the other commands it
    runs, or the failure exits 2 and names its cause."""
    path = tmp_path_factory.mktemp("extreme") / "scenario.json"
    path.write_text(json.dumps(data))
    outcomes = []
    for command in ("simulate", "observability", "estimate"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            outcomes.append((run_cli([command, str(path)]), err.getvalue()))
    if outcomes[0][0] == 1:  # rejected by the loader, so by every command
        event("rejected")
        assert all(code == 1 and err.startswith("error: ") for code, err in outcomes)
        return
    event(f"loaded, exit codes {[code for code, _ in outcomes]}")
    for code, err in outcomes:
        assert code == 0 and not err or code == 2 and err.startswith("analysis error: "), err
    assert outcomes[1][0] == 0, outcomes[1][1]


@settings(max_examples=150, deadline=None)
@given(data=extreme_scenario_files())
def test_history_kept_at_load_is_a_fresh_measurement(data):
    """The history validation keeps equals, bit for bit, the one that a pass of
    ``measure_scenario`` makes for an equal scenario that was never validated."""
    try:
        scenario = scenario_io.scenario_from_dict(data)
    except ValidationError:
        event("rejected")
        return
    event("loaded")
    kept, fresh = measure_scenario(scenario), measure_scenario(replace(scenario))
    assert kept is not fresh
    pairs = [(kept.times, fresh.times), (kept.bearings, fresh.bearings)]
    assert [d is None for d in kept.dopplers] == [d is None for d in fresh.dopplers]
    pairs += [pair for pair in zip(kept.dopplers, fresh.dopplers) if pair[0] is not None]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Finite range and range rate, but c is the smallest subnormal, so the
# Doppler shift f0 * (1 - range_rate / c) overflows on every node.
DOPPLER_OVERFLOW = {"observer": {"coeffs": [[0, 0], [1, 0], [0, 0.5]]},
                    "targets": [{"coeffs": [[100, 500], [3, -2]], "tonal_hz": 1000.0}],
                    "time": {"start": 0, "end": 10, "points": 11}, "c": 5e-324}


@pytest.mark.parametrize("argv", [
    ["simulate", "{scenario}", "-o", "{out}/history.csv"],
    ["observability", "{scenario}", "-o", "{out}/report.json"],
    ["estimate", "{scenario}", "-o", "{out}/estimate.json"],
    ["ambiguity", "generate", "{scenario}", "--regime", "doppler", "-o", "{out}/pair"],
    ["ambiguity", "generate", "{scenario}", "--regime", "bearing", "-o", "{out}/pair"],
    ["ambiguity", "verify", "{scenario}", "{csv}", "-o", "{out}/cert.json"],
], ids=["simulate", "observability", "estimate", "generate-doppler", "generate-bearing",
        "verify"])
def test_overflowing_doppler_shift_rejected_at_load(tmp_path, capsys, argv):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(DOPPLER_OVERFLOW))
    csv = tmp_path / "candidate.csv"
    csv.write_text(CANDIDATE)
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.replace("{scenario}", str(path)).replace("{out}", str(out))
            .replace("{csv}", str(csv)) for a in argv]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == ("error: targets[0].tonal_hz: the Doppler shift "
                                       "overflows a float on the time grid\n")
    assert not list(out.iterdir())


# An extreme_scenario_files draw whose Gramian entries (s^2 times T^2k)
# overflow although the verdict, taken in tau columns, does not.
GRAMIAN_OVERFLOW = {
    "observer": {"coeffs": [[5.466402186492932e-66, 0.07440707153427303],
                            [-3.7232456726556265e-159, 7.836849080387971e-157]]},
    "targets": [{"coeffs": [[9.321954960097566e+46, -4.0201978208797216e+34],
                            [-1.7001639017775519e-186, -4.719037459779595e-91]]}],
    "time": {"start": -0.09954538253193357, "end": 2.139026100626925e+110, "points": 7}}


def test_overflowing_gramian_entries_are_null(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GRAMIAN_OVERFLOW))
    outputs = {}
    for command in ("observability", "estimate"):
        code = run_cli([command, str(path)])
        outputs[command] = capsys.readouterr()
        assert code == 0, outputs[command].err
    report = json.loads(outputs["observability"].out)
    estimate = json.loads(outputs["estimate"].out)
    assert (report["rank_decision"] == "observable") == (estimate["uniqueness"] == "unique")
    entries = np.array(report["gramian"], dtype=float)  # null reads as nan
    assert np.isnan(entries).any() and np.isfinite(report["singular_values"]).all()


# An extreme_scenario_files draw whose null vector, taken back from tau columns
# on a window of ≈9e99 s, has entries whose squares all underflow.
NULL_SPACE_UNDERFLOW = {
    "observer": {"coeffs": [[-2.4699050828411657e-297, 9.99e+101]]},
    "targets": [{"coeffs": [[6.4786963191423564e+100, 1.7351514801425693e+150],
                            [-9.841567967466087e-140, 9.104876919561145e-138],
                            [-1.684314681974752e-119, 6.408780711094047e-98]]}],
    "time": {"start": -8.365001343441275e+93, "end": 8.97598604090918e+99, "points": 15}}


def test_null_space_of_a_tiny_physical_vector_has_unit_norm(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(NULL_SPACE_UNDERFLOW))
    outputs = {}
    for command in ("observability", "estimate"):
        code = run_cli([command, str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs[command] = json.loads(captured.out)
    report, estimate = outputs["observability"], outputs["estimate"]
    assert (report["rank_decision"] == "observable") == (estimate["uniqueness"] == "unique")
    assert report["null_space"] == estimate["null_space"]
    null_space = np.array(report["null_space"], dtype=float)
    assert np.isfinite(null_space).all() and np.linalg.norm(null_space) == pytest.approx(1.0)


@pytest.mark.parametrize("regime,option", [("doppler", "--rotation-rate"),
                                           ("bearing", "--alpha-rate")])
def test_overflowing_profile_exits_two(tmp_path, capsys, regime, option):
    assert run_cli(["ambiguity", "generate", str(DOPPLER_BASE), "--regime", regime,
                    "-o", str(tmp_path / "pair"), option, "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis error: numerical overflow (")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


# Far from zero a short window rounds several grid nodes to one float time:
# 1001 points on [1e16, 1e16 + 100] give 51 distinct times, and 1001 points on
# [1e15, 1e15 + 10] give 81, although that file's own 11 points are distinct.
REPEATED_TIMES = {"file": ({"start": 1e16, "end": 1e16 + 100, "points": 1001}, []),
                  "flag": ({"start": 1e15, "end": 1e15 + 10, "points": 11},
                           ["--grid-points", "1001"])}


@pytest.mark.parametrize("route", sorted(REPEATED_TIMES))
@pytest.mark.parametrize("argv", [
    ["simulate", "{scenario}", "-o", "{out}/history.csv"],
    ["observability", "{scenario}", "-o", "{out}/report.json"],
    ["estimate", "{scenario}", "-o", "{out}/estimate.json"],
    ["ambiguity", "generate", "{scenario}", "--regime", "bearing", "-o", "{out}/pair"],
    ["ambiguity", "generate", "{scenario}", "--regime", "doppler", "-o", "{out}/pair"],
], ids=["simulate", "observability", "estimate", "generate-bearing", "generate-doppler"])
def test_grid_with_repeated_float_times_rejected(tmp_path, capsys, route, argv):
    time_block, flag = REPEATED_TIMES[route]
    data = json.loads(DOPPLER_BASE.read_text())
    data["time"] = time_block
    path = tmp_path / "far_window.json"
    path.write_text(json.dumps(data))
    if flag:
        scenario_io.load_scenario(path)  # the file's own grid is fine
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.replace("{scenario}", str(path)).replace("{out}", str(out)) for a in argv]
    assert run_cli(argv + flag) == 1
    err = capsys.readouterr().err
    field = "--grid-points" if flag else "time.points"
    assert err.startswith(f"error: {field}: 1001 points on ")
    assert "distinct float times" in err
    assert not list(out.iterdir())
