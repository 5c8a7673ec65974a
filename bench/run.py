"""obskit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload long_window --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end metrics;
``--trace 1`` runs it untraced and then traced, half the time each, and
reports the per-layer metrics and the tracing overhead. Every run checks the
program's outputs. The last line of standard output is the result JSON;
the line before it is a JSON report with sample counts, work counts, gate
failures and the environment. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import gate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # gain claims are rerun on this seed too
BLAS_THREADS = 1     # <= nproc; one client, one process
SETUP_REPEATS = 8  # before and again after the timed process
CHILD_TIMEOUT_S = 150

END_TO_END = {"cases_per_s": "1/s", "case_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> (unit, label). A time's label names the workloads on
# which it should move cases_per_s and case_s_p50. Times are medians over
# case executions of the seconds a case spends in the layer; counts are per
# case over the seed's pool and repeat exactly for a seed.
MOVES = "moves cases_per_s, case_s_p50 on"
LAYERS = {
    "scenario_io.load_s": ("s", f"{MOVES} long_window, many_targets"),
    "scenario_io.dump_json_s": ("s", f"{MOVES} ambiguity_pairs, many_targets"),
    "scenario_io.csv_write_s": ("s", f"{MOVES} ambiguity_pairs, long_window"),
    "scenario_io.csv_read_s": ("s", f"{MOVES} ambiguity_pairs"),
    "measurement.measure_s": ("s", f"{MOVES} long_window, many_targets"),
    "observability.gramian_s": ("s", f"{MOVES} many_targets, long_window"),
    "observability.separation_s": ("s", f"{MOVES} many_targets"),
    "observability.collinearity_s": ("s", f"{MOVES} many_targets"),
    "observability.check_s": ("s", f"{MOVES} long_window, many_targets"),
    "observability.check_self_s": ("s", f"{MOVES} many_targets"),
    "estimator.estimate_s": ("s", f"{MOVES} long_window, many_targets"),
    "estimator.replay_s": ("s", f"{MOVES} long_window, many_targets"),
    "ambiguity.generate_doppler_s": ("s", f"{MOVES} ambiguity_pairs"),
    "ambiguity.generate_bearing_s": ("s", f"{MOVES} ambiguity_pairs"),
    "ambiguity.verify_s": ("s", f"{MOVES} ambiguity_pairs"),
    "ambiguity.combined_s": ("s", f"{MOVES} ambiguity_pairs"),
    "ambiguity.sufficiency_s": ("s", f"{MOVES} ambiguity_pairs"),
    "cli.parse_s": ("s", f"{MOVES} shipped_cli"),
    "cli.self_s": ("s", f"{MOVES} shipped_cli"),
    "trajectory.target_nodes": ("count", "base for per-node ratios"),
    "observability.gramian_dim": ("count", "base for per-Gramian ratios"),
    "observability.pairs": ("count", "base for per-pair ratios"),
    "observability.collinearity_events": ("count", "base for per-event ratios"),
    "observability.observable_frac": ("ratio", "share of reports that are observable"),
    "estimator.unique_frac": ("ratio", "share of estimates that are unique (replayed)"),
    "scenario_io.bytes_written": ("bytes", "base for per-byte ratios"),
    "trace.case_s_p50": ("s", "traced case time"),
    "trace.untraced_case_s_p50": ("s", "untraced case time in the same run"),
    "trace.overhead_s": ("s", "tracing overhead: traced minus untraced case time"),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def _interpreter_s(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code``."""
    start = time.perf_counter()
    # No timeout: with one, subprocess polls for the exit in steps of up to
    # 50 ms, which would quantize the measurement.
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times for fresh interpreters to import obskit.cli: scaled and raw.

    Each is scaled by the import reference timed just before and just after it.
    """
    reference = [_interpreter_s(calibrate.IMPORT_REFERENCE)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_interpreter_s("import obskit.cli"))
        reference.append(_interpreter_s(calibrate.IMPORT_REFERENCE))
        scaled.append(calibrate.scale(raw[-1], *reference[-2:], calibrate.IMPORT_NOMINAL_S))
    return scaled, raw


def run_timed(plan_path: Path, seconds: float, trace: bool) -> dict:
    """Run the timed process on a plan and return its result JSON."""
    result_path = plan_path.parent / f"result_{int(trace)}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "timed.py"), str(plan_path), repr(seconds),
         str(int(trace)), str(result_path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"timed process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text())


def gate_run(plan: dict, raw: dict) -> dict:
    """Output checks and the determinism check over one timed process's cases."""
    records = raw["records"]
    attempted = failed = unchecked = 0
    failures = []
    for record in records:
        case = plan["cases"][record["case"]]
        messages = gate.check_execution(case, record)
        attempted += len(case["ops"])
        failed += len(messages)
        unchecked += gate.unchecked(case)
        failures += [f"case {record['case']}: {m}" for m in messages]
    # records[1] repeats case 0: report, certificate and CSV bytes must match.
    differing = gate.compare_outputs(Path(records[0]["dir"]), Path(records[1]["dir"]))
    attempted += 1
    if differing:
        failed += 1
        failures.append(f"determinism: bytes differ in {differing}")
    times = [calibrate.scale_case(r) for r in records]
    return {"attempted": attempted, "failed": failed, "unchecked_cases": unchecked,
            "failures": failures[:20], "cases": len(times),
            "cases_per_s": len(times) / sum(times), "case_s_p50": statistics.median(times),
            "raw_case_s_p50": statistics.median(r["seconds"] for r in records),
            "host_speed": statistics.median(
                calibrate.NOMINAL_S / k for r in records for k in r["kernel_s"])}


def layer_metrics(plan: dict, traced: dict, untraced_gate: dict, traced_gate: dict) -> dict:
    """Per-layer medians from the traced spans, work counts and the tracing overhead."""
    per_case = spans.layer_seconds(traced["spans"], len(traced["records"]))
    # A case's layer times are scaled by the factor that scaled the whole case.
    factors = [calibrate.scale_case(r) / r["seconds"] for r in traced["records"]]
    values = {name: statistics.median(case.get(name, 0.0) * factor
                                      for case, factor in zip(per_case, factors))
              for name, (unit, _) in LAYERS.items()
              if unit == "s" and not name.startswith("trace.")}
    values.update(gate.work_counts(plan, traced["records"]))
    values["trace.case_s_p50"] = traced_gate["case_s_p50"]
    values["trace.untraced_case_s_p50"] = untraced_gate["case_s_p50"]
    values["trace.overhead_s"] = traced_gate["case_s_p50"] - untraced_gate["case_s_p50"]
    return values


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "obskit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "cpu": cpu, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: dict | None = None) -> dict:
    """Generate the workload's inputs in ``work``, run it and check it."""
    import workloads
    plan = workloads.generate(workload, seed, work / "inputs", ROOT, sizes)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    if trace:
        untraced = run_timed(plan_path, seconds / 2, False)
        traced = run_timed(plan_path, seconds / 2, True)
        gates = [gate_run(plan, untraced), gate_run(plan, traced)]
        report["samples"] = {"untraced_cases": gates[0]["cases"],
                             "traced_cases": gates[1]["cases"]}
        values = layer_metrics(plan, traced, *gates)
        metrics = {name: {"value": values[name], "unit": LAYERS[name][0]} for name in LAYERS}
    else:
        # Host speed drifts; set-up samples taken on both sides of the timed
        # process see more of it than a block of samples would.
        setup, raw_setup = measure_setup()
        raw = run_timed(plan_path, seconds, False)
        setup_after, raw_setup_after = measure_setup()
        setup += setup_after
        gates = [gate_run(plan, raw)]
        report["unscaled"] = {"case_s_p50": gates[0]["raw_case_s_p50"],
                              "setup_s": statistics.median(raw_setup + raw_setup_after),
                              "host_speed": gates[0]["host_speed"]}
        report["samples"] = {"cases_per_s": gates[0]["cases"], "case_s_p50": gates[0]["cases"],
                             "peak_rss_mb": 1, "setup_s": len(setup)}
        report["counts"] = gate.work_counts(plan, raw["records"])
        values = {"cases_per_s": gates[0]["cases_per_s"], "case_s_p50": gates[0]["case_s_p50"],
                  "peak_rss_mb": raw["peak_rss_mb"], "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted = sum(g["attempted"] for g in gates)
    failed = sum(g["failed"] for g in gates)
    report["unchecked_cases"] = sum(g["unchecked_cases"] for g in gates)
    report["failures"] = [f for g in gates for f in g["failures"]][:20]
    report["failed_frac"] = {"value": failed / attempted, "failed": failed,
                             "attempted": attempted}
    return {"report": report, "result": {"correct": failed == 0, "attempted": attempted,
                                         "failed": failed, "metrics": metrics}}


def print_summary(report: dict, metrics: dict) -> None:
    print(f"obskit benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"{report['seconds']:g} s, {'traced' if report['trace'] else 'untraced'}")
    samples = report["samples"]
    if report["trace"]:
        print(f"  per-layer times: medians over {samples['traced_cases']} traced case "
              f"executions; untraced: {samples['untraced_cases']}")
    for name, metric in metrics.items():
        note = f"n={samples[name]}" if name in samples else LAYERS[name][1]
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:6s} {note}")
    if "unscaled" in report:
        unscaled = report["unscaled"]
        print(f"  times above are scaled to nominal host speed (bench/calibrate.py); "
              f"unscaled case_s_p50 {unscaled['case_s_p50']:.6g} s, "
              f"setup_s {unscaled['setup_s']:.6g} s; host speed {unscaled['host_speed']:.3f}")
    ff = report["failed_frac"]
    print(f"  {'failed_frac':34s} {ff['value']:14.6g} {'ratio':6s} "
          f"{ff['failed']} failed of {ff['attempted']} operations; "
          f"{report['unchecked_cases']} case executions with a verdict in the oracle band")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="obskit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "obskit" / "__init__.py").is_file():
        print(f"error: no obskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = outcome["report"]
    report["environment"] = environment()
    print_summary(report, outcome["result"]["metrics"])
    print(json.dumps({"report": report}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
