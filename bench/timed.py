"""Timed process: run a generated plan through obskit in-process.

Usage: python3 timed.py PLAN_JSON SECONDS TRACE RESULT_JSON

One client in a closed loop: each case starts when the previous one ends.
The first pass runs case 0 twice (the repeat feeds the determinism check)
and then every other case of the pool once, whatever the time. Whole further
passes over the pool follow while one more, as long as the first pass took,
still ends within SECONDS; whole passes keep every run's case mix the same.
Each case execution writes into its own directory. Output checks happen
afterwards, in the parent process, so this process's peak memory and the
case times hold only the program's work.
Every operation is bracketed by timings of the calibration kernel
(calibrate.py). The result JSON holds per-execution and per-operation times,
kernel times and operation outcomes, the peak
resident memory and, when TRACE is 1, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans

from obskit import ambiguity, scenario_io
from obskit.cli import run_cli


def _library_call(op: dict, out: Path, loaded: dict):
    """One library call on the Doppler pair; its inputs are read once per case."""
    if "pair" not in loaded:
        scenario = scenario_io.load_scenario(op["scenario"])
        candidate = scenario_io.read_trajectory_csv(
            op["trajectory"].replace("{out}", str(out)))
        loaded["pair"] = scenario, candidate
    scenario, candidate = loaded["pair"]
    base = scenario.targets[0].trajectory
    eps = scenario.tolerances.eps_range
    if op["call"] == "check_combined_condition":
        rate, t0 = op["spec"]["rotation_rate"], scenario.t_start
        spec = ambiguity.DopplerAmbiguitySpec(
            l_prime=op["spec"]["l_prime"], b_prime=op["spec"]["b_prime"],
            rotation=lambda t: rate * (t - t0), c=scenario.c)
        report = ambiguity.check_combined_condition(
            candidate, base, scenario.observer, spec, candidate.times, eps_range=eps)
        return report.combined_ambiguous
    report = ambiguity.check_doppler_sufficiency(
        candidate, base, scenario.observer, tuple(op["tonals"]), scenario.c,
        candidate.times, eps_range=eps)
    return report.implication_holds


def _run_op(op: dict, out: Path, loaded: dict, tracer) -> dict:
    try:
        if op["kind"] == "library":
            return {"rc": 0, "value": _library_call(op, out, loaded)}
        argv = [arg.replace("{out}", str(out)) for arg in op["argv"]]
        stderr = io.StringIO()
        span = tracer.span(spans.RUN_CLI) if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            rc = run_cli(argv)
        return {"rc": rc, "stderr": stderr.getvalue()[-500:]}
    except Exception:  # a crash is a failed operation; the loop carries on
        return {"rc": None, "error": traceback.format_exc(limit=3)[-1000:]}


def _run_case(case: dict, out: Path, tracer, kernel_before: float) -> dict:
    """Run one case; each operation is followed by a timing of the calibration kernel."""
    out.mkdir()
    loaded: dict = {}
    ops, op_seconds, kernel_s = [], [], [kernel_before]
    for op in case["ops"]:
        start = time.perf_counter()
        ops.append(_run_op(op, out, loaded, tracer))
        op_seconds.append(time.perf_counter() - start)
        kernel_s.append(calibrate.kernel_s())
    return {"dir": str(out), "seconds": sum(op_seconds), "op_seconds": op_seconds,
            "kernel_s": kernel_s, "ops": ops}


def main(argv: list[str]) -> int:
    plan_path, seconds, trace, result_path = argv
    plan = json.loads(Path(plan_path).read_text())
    seconds = float(seconds)
    tracer = spans.Tracer() if trace == "1" else None
    if tracer:
        spans.install(tracer)
    runs = Path(plan_path).parent / ("traced" if tracer else "untraced")
    runs.mkdir()
    pool = plan["cases"]

    records: list[dict] = []

    def execute(index: int) -> None:
        if tracer:
            tracer.execution = len(records)
        kernel_before = records[-1]["kernel_s"][-1] if records else calibrate.kernel_s()
        record = _run_case(pool[index], runs / f"{len(records):04d}", tracer, kernel_before)
        records.append({"case": index, **record})

    start = time.perf_counter()
    execute(0)
    pass_start = time.perf_counter()
    for index in range(len(pool)):
        execute(index)
    pass_s = time.perf_counter() - pass_start
    while time.perf_counter() - start + pass_s <= seconds:
        for index in range(len(pool)):
            execute(index)

    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
