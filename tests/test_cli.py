import importlib
import json
from pathlib import Path

import pytest

from obskit import cli, scenario_io
from obskit.cli import run_cli

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
