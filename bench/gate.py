"""Output-correctness gate, determinism check and work counts.

Every check reads what the program wrote, or what a library call returned,
and compares it with the expectation the plan carries. A failed check fails
the operation whose output it read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RECOVERY_RTOL = 1e-6   # unique estimates recover the true initial state
REPLAY_MAX_RAD = 1e-9  # and replay the measured bearings


def _read_json(path: Path):
    """Parsed JSON file, or the exception that prevented reading it."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return exc


def _check(check: dict, result: dict, out: Path) -> str | None:
    """Failure message for one operation, or None when it passed."""
    if result["rc"] is None:
        return result["error"]
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr']}"
    kind = check["kind"]
    if kind == "exit":
        return None
    if kind == "library":
        if result["value"] != check["value"]:
            return f"{check['field']} is {result['value']}, expected {check['value']}"
        return None
    data = _read_json(out / check["file"])
    if not isinstance(data, dict):
        return f"unreadable output {check['file']}: {data!r}"
    if kind == "observability":
        if check["observable"] is None:
            return None
        expected = "observable" if check["observable"] else "unobservable"
        if data.get("rank_decision") != expected:
            return (f"{check['file']}: rank_decision {data.get('rank_decision')!r}, "
                    f"oracle {expected!r}")
        return None
    if kind == "estimate":
        if data.get("uniqueness") != "unique":
            return None
        truth = np.asarray(check["truth"])
        try:
            error = float(np.linalg.norm(np.asarray(data["x_initial_hat"], dtype=float) - truth)
                          / np.linalg.norm(truth))
            replay = float(data["replay_error_rad"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"{check['file']}: malformed estimate: {exc!r}"
        if not error <= RECOVERY_RTOL:
            return f"{check['file']}: recovery error {error:.3e} > {RECOVERY_RTOL:g}"
        if not replay < REPLAY_MAX_RAD:
            return f"{check['file']}: replay error {replay:.3e} rad >= {REPLAY_MAX_RAD:g}"
        return None
    if kind == "certificate":
        if data.get("verdict") != check["verdict"]:
            return (f"{check['file']}: verdict {data.get('verdict')!r}, "
                    f"expected {check['verdict']!r}")
        return None
    raise ValueError(f"unknown check kind {kind!r}")


def check_execution(case: dict, record: dict) -> list[str]:
    """Failure messages of one case execution, one per failed operation."""
    out = Path(record["dir"])
    messages = []
    for op, result in zip(case["ops"], record["ops"]):
        message = _check(op["check"], result, out)
        if message is not None:
            messages.append(message)
    return messages


def unchecked(case: dict) -> bool:
    """True when a rank verdict of the case lies inside the oracle's band."""
    return any(op["check"]["kind"] == "observability" and op["check"]["observable"] is None
               for op in case["ops"])


def compare_outputs(first: Path, second: Path) -> list[str]:
    """Names of output files whose bytes differ between two runs of one case."""
    names = sorted({p.name for p in first.iterdir()} | {p.name for p in second.iterdir()})
    return [name for name in names
            if not ((first / name).is_file() and (second / name).is_file()
                    and (first / name).read_bytes() == (second / name).read_bytes())]


def work_counts(plan: dict, records: list[dict]) -> dict:
    """Work counts per case over the pool's first executions; they repeat exactly per seed."""
    first: dict[int, dict] = {}
    for record in records:
        first.setdefault(record["case"], record)
    totals = dict.fromkeys(("trajectory.target_nodes", "observability.gramian_dim",
                            "observability.pairs", "observability.collinearity_events",
                            "scenario_io.bytes_written"), 0)
    reports = observable = estimates = unique = 0
    for index, record in first.items():
        out = Path(record["dir"])
        for op in plan["cases"][index]["ops"]:
            totals["trajectory.target_nodes"] += op["targets"] * op["nodes"]
            totals["observability.gramian_dim"] += op.get("gramian_dim", 0)
            totals["observability.pairs"] += op.get("pairs", 0)
            kind = op["check"]["kind"]
            if kind not in ("observability", "estimate"):
                continue
            data = _read_json(out / op["check"]["file"])
            data = data if isinstance(data, dict) else {}
            if kind == "observability":
                reports += 1
                observable += data.get("rank_decision") == "observable"
                totals["observability.collinearity_events"] += len(
                    data.get("collinearity_events", []))
            else:
                estimates += 1
                unique += data.get("uniqueness") == "unique"
        totals["scenario_io.bytes_written"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file())
    counts = {name: value / len(first) for name, value in totals.items()}
    counts["observability.observable_frac"] = observable / reports if reports else 0.0
    counts["estimator.unique_frac"] = unique / estimates if estimates else 0.0
    return counts
