import importlib
import json
from pathlib import Path

import pytest

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
])
def test_bad_number_option_exits_one(tmp_path, capsys, command, option, value):
    csv = tmp_path / "candidate.csv"
    csv.write_text("t,x_m,y_m\n0.0,500.0,500.0\n1.0,510.0,500.0\n2.0,520.0,500.0\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.replace("{out}", str(out)).replace("{csv}", str(csv))
            for a in COMMANDS[command]]
    assert run_cli([*argv, f"--{option}={value}"]) == 1
    field = "time.points" if option == "grid-points" else f"--{option}"
    assert f"error: {field}:" in capsys.readouterr().err
    assert not list(out.iterdir())


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
