"""In-memory spans around calls into obskit's public functions.

``install`` replaces each traced function by a timing wrapper in the module
namespaces the CLI commands look it up in (``obskit.cli`` imports most of
them by name; ``check_observable`` and ``cross_validate`` look up their
callees in their own modules). Nothing under ``src/obskit`` changes, and an
untraced run installs nothing. A span is ``[name, execution, start, end,
parent]``; ``parent`` is the index of the enclosing span or None.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# Span name -> (module, attribute) pairs whose calls it times.
TRACED = {
    "scenario_io.load_s": [("obskit.cli", "load_scenario"),
                           ("obskit.scenario_io", "load_scenario")],
    "scenario_io.dump_json_s": [("obskit.cli", "dumps_json")],
    "scenario_io.csv_write_s": [("obskit.cli", "write_measurements_csv"),
                                ("obskit.cli", "write_trajectory_csv")],
    "scenario_io.csv_read_s": [("obskit.cli", "read_trajectory_csv"),
                               ("obskit.scenario_io", "read_trajectory_csv")],
    "measurement.measure_s": [("obskit.cli", "measure_scenario"),
                              ("obskit.observability", "measure_scenario"),
                              ("obskit.estimator", "measure_scenario")],
    "observability.gramian_s": [("obskit.observability", "gramian")],
    "observability.separation_s": [("obskit.observability", "bearing_separation_mod_pi")],
    "observability.collinearity_s": [("obskit.observability", "detect_collinearity")],
    "observability.check_s": [("obskit.cli", "check_observable")],
    "estimator.estimate_s": [("obskit.cli", "estimate_initial_state")],
    "estimator.replay_s": [("obskit.cli", "cross_validate")],
    "ambiguity.generate_doppler_s": [("obskit.cli", "generate_doppler_ambiguous")],
    "ambiguity.generate_bearing_s": [("obskit.cli", "generate_bearing_ambiguous")],
    "ambiguity.verify_s": [("obskit.cli", "verify_ambiguity")],
    "ambiguity.combined_s": [("obskit.ambiguity", "check_combined_condition")],
    "ambiguity.sufficiency_s": [("obskit.ambiguity", "check_doppler_sufficiency")],
}
PARSE = "cli.parse_s"
RUN_CLI = "cli.run_cli"
# Derived self times: the span's duration minus its direct children.
SELF_TIMES = {"observability.check_s": "observability.check_self_s",
              RUN_CLI: "cli.self_s"}


class Tracer:
    """Collects spans in memory; ``execution`` tags them with the current case run."""

    def __init__(self):
        self.spans: list[list] = []
        self.execution: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self.execution, perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function, and the CLI's parser construction and parsing."""
    for name, sites in TRACED.items():
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    cli = importlib.import_module("obskit.cli")
    build_parser = cli.build_parser

    @functools.wraps(build_parser)
    def traced_build_parser():
        with tracer.span(PARSE):
            parser = build_parser()
        parser.parse_args = tracer.wrap(PARSE, parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser


def layer_seconds(spans: list[list], executions: int) -> list[dict]:
    """Per case execution: total seconds in each span name, plus derived self times."""
    totals: list[dict] = [{} for _ in range(executions)]
    children = [0.0] * len(spans)
    for name, _, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    for index, (name, execution, start, end, _) in enumerate(spans):
        if execution is None:
            continue
        per_case = totals[execution]
        per_case[name] = per_case.get(name, 0.0) + (end - start)
        if name in SELF_TIMES:
            derived = SELF_TIMES[name]
            per_case[derived] = per_case.get(derived, 0.0) + (end - start) - children[index]
    return totals
