"""Seeded inputs and expected outcomes for the four benchmark workloads.

``generate`` turns a workload name and a seed into a plan: a pool of cases,
each a list of operations (CLI argument lists, plus two library calls on
``ambiguity_pairs``) with the expected outcome of each. Scenario files are
written here, and the expectations are computed here with the independent
oracles of ``obskit.selftest``, before the timed process starts; the program
only ever sees the written files.

Workloads (why each was chosen is in README.md):

- long_window: M=2 targets of order 0-1 (the four order mixes in binomial
  proportion), default observer order, 30 s window, N=1001. Commands:
  observability, estimate, simulate.
- many_targets: M=32 targets, half of order 0 and half of order 1, 30 s
  window, N=121. Every fourth case uses observer_order=0, which is
  unobservable by construction. Commands: observability, estimate.
- ambiguity_pairs: one target with a tonal, order-2 observer, 2 s window,
  N=1001. Commands: ambiguity generate (doppler, bearing), ambiguity
  verify (doppler, combined, bearing); library calls
  check_combined_condition and check_doppler_sufficiency.
- shipped_cli: the three files in scenarios/, read as they are.

Target orders stay at 0-1 on the grid workloads on purpose. At these windows
order-2/3 targets fall below rank_tol (the time-unit defect of ROADMAP item
3), so fixing that defect would move such cases onto the replay path and
change how much work a workload does.

``{out}`` in an argument or file name stands for the directory of one case
execution; the timed process substitutes it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from obskit import selftest
from obskit.measurement import Tonal
from obskit.scenario_io import Scenario, TargetConfig, load_scenario, save_scenario
from obskit.trajectory import state_from_trajectory

WORKLOADS = ("long_window", "many_targets", "ambiguity_pairs", "shipped_cli")

# Sizes each workload runs at; tests pass smaller ones.
SIZES = {
    "long_window": {"grid_points": 1001},
    "many_targets": {"m_targets": 32, "grid_points": 121},
    "ambiguity_pairs": {"grid_points": 1001},
    "shipped_cli": {},
}

# Cases drawn per seed; many_targets needs four for its one-in-four
# unobservable case. shipped_cli has one fixed case.
POOL = {"long_window": 8, "many_targets": 4, "ambiguity_pairs": 8, "shipped_cli": 1}

# ambiguity_pairs window. The default Doppler tolerance, 1e-9 f + 10 dt^2 Hz,
# does not scale with the tonal or with the range's third derivative, which
# set the central-difference error of a sampled counterpart's range rate.
# Over long windows an order-2 observer's relative motion makes that error
# exceed the tolerance (about 1 draw in 20 at 20-60 s: a generated Doppler
# counterpart is certified "distinguishable"). 2 s is the window on which
# selftest.doppler_generator_suite asserts the bound; there the worst of
# 5000 draws used 0.2 of the tolerance.
AMBIGUITY_WINDOW_S = 2.0

# Stacked-ratio band in which any two numerically different rank tests may
# disagree (selftest.random_rank_scenario_conditioned); verdicts of
# scenarios inside it are not checked.
ORACLE_BAND = (1e-12, 1e-6)


def _rank_expectations(scenario: Scenario) -> tuple[bool | None, list[float]]:
    """Oracle verdict (None inside ORACLE_BAND) and the true initial super state."""
    ratio = selftest.stacked_sigma_ratio(scenario)
    # The decision of selftest.stacked_rank_observable, from the ratio
    # already computed for the band test.
    observable = None if ORACLE_BAND[0] < ratio < ORACLE_BAND[1] else (
        ratio > scenario.tolerances.rank_tol)
    truth = np.concatenate([
        state_from_trajectory(traj, scenario.t_start, p)
        for traj, p in zip(scenario.target_trajectories(), scenario.effective_orders())
    ])
    return observable, truth.tolist()


def _sizes(scenario: Scenario) -> dict:
    return {"targets": len(scenario.targets), "nodes": scenario.grid_points}


def _rank_ops(path: Path, scenario: Scenario, name: str, commands: tuple[str, ...]) -> list:
    """observability / estimate / simulate operations on one scenario file."""
    observable, truth = _rank_expectations(scenario)
    m = len(scenario.targets)
    ops = []
    for command in commands:
        out = f"{name}_{command}.{'csv' if command == 'simulate' else 'json'}"
        op = {"kind": "cli", "argv": [command, str(path), "-o", f"{{out}}/{out}"],
              **_sizes(scenario)}
        if command == "observability":
            op["check"] = {"kind": "observability", "file": out, "observable": observable}
            op["gramian_dim"] = 2 * sum(p + 1 for p in scenario.effective_orders())
            op["pairs"] = m * (m - 1) // 2
        elif command == "estimate":
            op["check"] = {"kind": "estimate", "file": out, "truth": truth}
        else:
            op["check"] = {"kind": "exit"}
        ops.append(op)
    return ops


def _random_scenario(rng, m_targets: int, order_ones: int, **kwargs) -> Scenario:
    """selftest.random_scenario redrawn until exactly ``order_ones`` targets have order 1.

    The order mix sets a case's cost. Fixing it keeps a run's case median
    from jumping with how a seed happened to draw the orders.
    """
    while True:
        scenario = selftest.random_scenario(rng, m_targets=m_targets, target_order_max=1,
                                            **kwargs)
        if sum(scenario.effective_orders()) == order_ones:
            return scenario


def _long_window(rng, path: Path, index: int, sizes: dict) -> dict:
    # Order-1 target counts 1, 2, 0, 1: the binomial mix of two targets.
    scenario = _random_scenario(rng, 2, (1, 2, 0, 1)[index % 4], window=30.0,
                                grid_points=sizes["grid_points"])
    save_scenario(scenario, path)
    return {"ops": _rank_ops(path, scenario, "lw", ("observability", "estimate", "simulate"))}


def _many_targets(rng, path: Path, index: int, sizes: dict) -> dict:
    m = sizes["m_targets"]
    scenario = _random_scenario(rng, m, m // 2, observer_order=0 if index % 4 == 3 else None,
                                window=30.0, grid_points=sizes["grid_points"])
    save_scenario(scenario, path)
    return {"ops": _rank_ops(path, scenario, "mt", ("observability", "estimate"))}


def _certificate_op(argv: list, scenario: Scenario, file: str, verdict: str) -> dict:
    return {"kind": "cli", "argv": argv, **_sizes(scenario),
            "check": {"kind": "certificate", "file": file, "verdict": verdict}}


def _ambiguity_pairs(rng, path: Path, index: int, sizes: dict) -> dict:
    base = selftest.random_polynomial(rng, int(rng.integers(0, 3)),
                                      pos_scale=rng.uniform(800, 3000))
    observer = selftest.random_observer(rng, 2)
    f0 = float(rng.uniform(300, 3000))
    scenario = Scenario(observer=observer,
                        targets=(TargetConfig(base.padded(observer.order), Tonal(f0)),),
                        t_start=0.0, t_end=AMBIGUITY_WINDOW_S, grid_points=sizes["grid_points"])
    spec = selftest.random_doppler_spec(rng, base, observer, scenario.grid())
    rate = float(spec.rotation(scenario.t_start + 1.0))  # spec rotation is rate * (t - t0)
    amplitude, alpha_rate = float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.3, 2.0))
    tonal_i = f0 / spec.l_prime
    save_scenario(scenario, path)

    scen = str(path)
    dop_csv, bear_csv = "{out}/doppler_trajectory.csv", "{out}/bearing_trajectory.csv"
    ops = [
        _certificate_op(["ambiguity", "generate", scen, "--regime", "doppler",
                         "-o", "{out}/doppler", "--l-prime", repr(spec.l_prime),
                         "--b-prime", repr(spec.b_prime), "--rotation-rate", repr(rate)],
                        scenario, "doppler_certificate.json", "ambiguous"),
        _certificate_op(["ambiguity", "generate", scen, "--regime", "bearing",
                         "-o", "{out}/bearing", "--alpha-amplitude", repr(amplitude),
                         "--alpha-rate", repr(alpha_rate)],
                        scenario, "bearing_certificate.json", "ambiguous"),
        _certificate_op(["ambiguity", "verify", scen, dop_csv, "--regime", "doppler",
                         "--tonal-i", repr(tonal_i), "-o", "{out}/verify_doppler.json"],
                        scenario, "verify_doppler.json", "ambiguous"),
        _certificate_op(["ambiguity", "verify", scen, dop_csv, "--regime", "combined",
                         "--tonal-i", repr(tonal_i), "-o", "{out}/verify_combined.json"],
                        scenario, "verify_combined.json", "distinguishable"),
        _certificate_op(["ambiguity", "verify", scen, bear_csv, "--regime", "bearing",
                         "-o", "{out}/verify_bearing.json"],
                        scenario, "verify_bearing.json", "ambiguous"),
    ]
    pair = {"kind": "library", "scenario": scen, "trajectory": dop_csv, **_sizes(scenario)}
    ops.append({**pair, "call": "check_combined_condition",
                "spec": {"l_prime": spec.l_prime, "b_prime": spec.b_prime,
                         "rotation_rate": rate},
                "check": {"kind": "library", "field": "combined_ambiguous", "value": False}})
    ops.append({**pair, "call": "check_doppler_sufficiency", "tonals": [tonal_i, f0],
                "check": {"kind": "library", "field": "implication_holds", "value": True}})
    return {"ops": ops}


def _shipped_cli(root: Path) -> list:
    shipped = root / "scenarios"
    ops = []
    for name, commands in (("two_target_observable", ("observability", "estimate", "simulate")),
                           ("collinear_unobservable", ("observability", "estimate"))):
        path = shipped / f"{name}.json"
        ops += _rank_ops(path, load_scenario(path), name, commands)
    path = shipped / "doppler_pair_base.json"
    scenario = load_scenario(path)
    # The generator's defaults have l' = 1, so the candidate radiates the base tonal.
    tonal_i = repr(scenario.targets[0].tonal.f0)
    ops += [
        _certificate_op(["ambiguity", "generate", str(path), "--regime", "doppler",
                         "-o", "{out}/doppler"], scenario, "doppler_certificate.json",
                        "ambiguous"),
        _certificate_op(["ambiguity", "generate", str(path), "--regime", "bearing",
                         "-o", "{out}/bearing"], scenario, "bearing_certificate.json",
                        "ambiguous"),
        _certificate_op(["ambiguity", "verify", str(path), "{out}/doppler_trajectory.csv",
                         "--regime", "doppler", "--tonal-i", tonal_i,
                         "-o", "{out}/verify_doppler.json"], scenario,
                        "verify_doppler.json", "ambiguous"),
    ]
    return [{"ops": ops}]


def generate(workload: str, seed: int, inputs: Path, root: Path,
             sizes: dict | None = None) -> dict:
    """Write the workload's scenario files under ``inputs`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = SIZES[workload] if sizes is None else sizes
    # One stream per (seed, workload), so workloads do not share draws.
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "shipped_cli":
        cases = _shipped_cli(root)
    else:
        make = {"long_window": _long_window, "many_targets": _many_targets,
                "ambiguity_pairs": _ambiguity_pairs}[workload]
        cases = [make(rng, inputs / f"{workload}_{i}.json", i, sizes)
                 for i in range(POOL[workload])]
    return {"workload": workload, "seed": seed, "cases": cases}
