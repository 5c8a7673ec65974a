"""Tests of the benchmark itself: tiny-size runs, metric names, and the gate.

Run from the repository root: python -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "long_window": {"grid_points": 61},
    "many_targets": {"m_targets": 3, "grid_points": 61},
    "ambiguity_pairs": {"grid_points": 401},
    "shipped_cli": {},
}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYERS.items()}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace, tmp_path):
    outcome = run.run(workload, seed=3, seconds=0.0, trace=trace, work=tmp_path,
                      sizes=TINY[workload])
    result = outcome["result"]
    expected = ({name: unit for name, (unit, _) in run.LAYERS.items()} if trace
                else run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert outcome["report"]["failed_frac"] == {
        "value": 0.0, "failed": 0, "attempted": result["attempted"]}


@pytest.mark.parametrize("workload, file, key, value", [
    ("long_window", "lw_observability.json", "rank_decision", "unobservable"),
    ("shipped_cli", "verify_doppler.json", "verdict", "distinguishable"),
])
def test_tampered_output_counts_in_failed_frac(workload, file, key, value, tmp_path):
    plan = workloads.generate(workload, 3, tmp_path / "inputs", run.ROOT, TINY[workload])
    assert all(op["check"].get("observable", True) is not None
               for op in plan["cases"][0]["ops"]), "seed must give a checked verdict"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    raw = run.run_timed(plan_path, 0.0, False)
    assert run.gate_run(plan, raw)["failed"] == 0

    # Tamper with the repeat of case 0: its check fails, and so does the
    # byte comparison with the first run.
    path = Path(raw["records"][1]["dir"]) / file
    data = json.loads(path.read_text())
    assert data[key] != value
    data[key] = value
    path.write_text(json.dumps(data))

    gated = run.gate_run(plan, raw)
    assert gated["failed"] == 2
    assert any(key in failure for failure in gated["failures"])
    assert any(failure.startswith("determinism") for failure in gated["failures"])


@pytest.mark.xfail(strict=True, reason="default tol_f misses the range-rate sampling "
                   "error over long windows; ambiguity_pairs keeps a 2 s window until "
                   "this passes (bench/README.md)")
def test_doppler_counterpart_is_ambiguous_on_a_long_window(tmp_path, monkeypatch):
    from obskit.cli import run_cli

    monkeypatch.setattr(workloads, "AMBIGUITY_WINDOW_S", 60.0)
    plan = workloads.generate("ambiguity_pairs", 612143770, tmp_path / "inputs", run.ROOT,
                              {"grid_points": 1001})
    generate_doppler = plan["cases"][0]["ops"][0]
    argv = [arg.replace("{out}", str(tmp_path)) for arg in generate_doppler["argv"]]
    assert run_cli(argv) == 0
    certificate = json.loads((tmp_path / generate_doppler["check"]["file"]).read_text())
    assert certificate["verdict"] == "ambiguous", (
        certificate["residual_doppler"], certificate["tol_f"])
