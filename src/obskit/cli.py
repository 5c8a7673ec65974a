"""Command-line interface.

Subcommands:
    simulate       Emit the noise-free measurement history as CSV.
    observability  Emit the observability report (JSON + text summary).
    ambiguity      generate/verify ambiguous counterpart trajectories.
    estimate       Recover the initial super state from bearings (JSON).
    selftest       Run the randomized self-check suites.

``run_cli`` builds its argparse parser on its first call and reuses it for
every later call in the process; a one-shot ``obskit ...`` from a shell
builds it once, as before.

Exit codes: 0 success, 1 validation/input error or an output path that
cannot be written, 2 analysis error
(zero range, infeasible ambiguity parameters, degenerate system, floating
point overflow on extreme inputs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .ambiguity import (BEARING, DOPPLER, DopplerAmbiguitySpec,
                        generate_bearing_ambiguous, generate_doppler_ambiguous,
                        verify_ambiguity)
from .errors import (DegenerateSystem, NonPositiveAlpha, NonPositiveRange, ParseError,
                     ValidationError, ZeroRange)
from .estimator import UNIQUE, cross_validate, estimate_initial_state
from .measurement import measure_scenario
from .observability import check_observable, report_text
from .scenario_io import (Scenario, _finite, dumps_json, load_scenario,
                          read_trajectory_csv, write_measurements_csv,
                          write_trajectory_csv)


def _check_numbers(args: argparse.Namespace) -> None:
    """Hold the numeric options to the number rules of scenario files."""
    for dest in ("rank_tol", "l_prime", "tonal_i", "b_prime", "rotation_rate",
                 "alpha_amplitude", "alpha_rate"):
        if getattr(args, dest, None) is not None:
            _finite(getattr(args, dest), "--" + dest.replace("_", "-"),
                    positive=dest in ("rank_tol", "l_prime", "tonal_i"))
    if getattr(args, "seed", 0) < 0:
        raise ValidationError("--seed", f"must be >= 0, got {args.seed}")


def _load(args: argparse.Namespace) -> Scenario:
    return load_scenario(args.scenario, getattr(args, "grid_points", None))


def _emit_json(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    history = measure_scenario(scenario)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            write_measurements_csv(history, out)
    else:
        write_measurements_csv(history, sys.stdout)
    return 0


def _cmd_observability(args: argparse.Namespace) -> int:
    scenario = _load(args)
    report = check_observable(scenario, rank_tol=args.rank_tol)
    _emit_json(dumps_json(report.to_dict()), args.output)
    if args.output:
        sys.stdout.write(report_text(report))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    history = measure_scenario(scenario)
    rank_tol = args.rank_tol if args.rank_tol is not None else scenario.tolerances.rank_tol
    result = estimate_initial_state(
        scenario.observer, history, list(scenario.effective_orders()), rank_tol)
    data = result.to_dict()
    if result.uniqueness == UNIQUE:
        data["replay_error_rad"] = cross_validate(scenario, result)
    _emit_json(dumps_json(data), args.output)
    return 0


def _base_target(scenario: Scenario, index: int):
    if not 0 <= index < len(scenario.targets):
        raise ValidationError(
            f"targets[{index}]", f"scenario has {len(scenario.targets)} targets")
    return scenario.targets[index]


def _certify(scenario: Scenario, candidate, base, tonals, regime: str):
    """Certify a candidate on its own times with the scenario's c and tolerances."""
    tolerances = scenario.tolerances
    return verify_ambiguity(
        candidate, base.trajectory, scenario.observer, tonals, scenario.c,
        candidate.times, regime=regime, tol_f=tolerances.tol_f,
        tol_theta=tolerances.tol_theta, eps_range=tolerances.eps_range)


def _cmd_ambiguity_generate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    base = _base_target(scenario, args.base_target)
    grid = scenario.grid()
    if len(grid) < 3:  # the certificate's sampled range rates need 3 nodes
        raise ValidationError(
            "--grid-points" if args.grid_points is not None else "time.points",
            f"ambiguity generation needs at least 3 grid points, got {len(grid)}")
    t0 = scenario.t_start

    if args.regime == DOPPLER:
        if base.tonal is None:
            raise ValidationError(
                f"targets[{args.base_target}].tonal_hz",
                "doppler-regime generation needs the base target's tonal")
        spec = DopplerAmbiguitySpec(
            l_prime=args.l_prime, b_prime=args.b_prime,
            rotation=lambda t: args.rotation_rate * (t - t0), c=scenario.c)
        generated = generate_doppler_ambiguous(
            base.trajectory, scenario.observer, spec, grid,
            scenario.tolerances.eps_range)
        tonals = (base.tonal.f0 / args.l_prime, base.tonal.f0)
    else:
        generated = generate_bearing_ambiguous(
            base.trajectory, scenario.observer,
            lambda t: 1.0 + args.alpha_amplitude * np.sin(args.alpha_rate * (t - t0)),
            grid, scenario.tolerances.eps_range)
        tonals = None if base.tonal is None else (base.tonal.f0, base.tonal.f0)

    certificate = _certify(scenario, generated, base, tonals, args.regime)

    prefix = args.output
    traj_path = Path(f"{prefix}_trajectory.csv")
    cert_path = Path(f"{prefix}_certificate.json")
    with open(traj_path, "w", encoding="utf-8") as out:
        write_trajectory_csv(generated, out)
    cert_path.write_text(dumps_json(certificate.to_dict()), encoding="utf-8")
    sys.stdout.write(f"wrote {traj_path} and {cert_path} "
                     f"(verdict: {certificate.verdict})\n")
    return 0


def _cmd_ambiguity_verify(args: argparse.Namespace) -> int:
    scenario = _load(args)
    base = _base_target(scenario, args.base_target)
    candidate = read_trajectory_csv(args.trajectory)

    if base.tonal is not None:
        f_j0 = base.tonal.f0
        tonals = (args.tonal_i if args.tonal_i is not None else f_j0, f_j0)
    elif args.regime != BEARING:
        raise ValidationError(
            f"targets[{args.base_target}].tonal_hz",
            f"{args.regime}-regime verification needs the base target's tonal")
    elif args.tonal_i is not None:
        raise ValidationError(
            "--tonal-i", f"targets[{args.base_target}] has no tonal_hz to compare it with")
    else:
        tonals = None

    certificate = _certify(scenario, candidate, base, tonals, args.regime)
    _emit_json(dumps_json(certificate.to_dict()), args.output)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest
    return run_selftest(seed=args.seed, out=sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obskit",
        description="Observability and trajectory-ambiguity analysis for "
                    "multi-target bearings/Doppler tracking scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="emit measurement history CSV")
    sim.add_argument("scenario")
    sim.add_argument("-o", "--output", help="CSV path (default stdout)")
    sim.add_argument("--grid-points", type=int, help="override the scenario grid size")
    sim.set_defaults(func=_cmd_simulate)

    obs = sub.add_parser("observability", help="emit observability report JSON + text")
    obs.add_argument("scenario")
    obs.add_argument("-o", "--output", help="JSON path (default stdout)")
    obs.add_argument("--grid-points", type=int)
    obs.add_argument("--rank-tol", type=float, help="override the rank threshold")
    obs.set_defaults(func=_cmd_observability)

    est = sub.add_parser("estimate", help="recover the initial super state (JSON)")
    est.add_argument("scenario")
    est.add_argument("-o", "--output", help="JSON path (default stdout)")
    est.add_argument("--grid-points", type=int)
    est.add_argument("--rank-tol", type=float, help="override the rank threshold")
    est.set_defaults(func=_cmd_estimate)

    amb = sub.add_parser("ambiguity", help="generate or verify ambiguous pairs")
    amb_sub = amb.add_subparsers(dest="ambiguity_command", required=True)

    gen = amb_sub.add_parser("generate", help="construct an ambiguous counterpart")
    gen.add_argument("scenario")
    gen.add_argument("--regime", choices=[DOPPLER, BEARING], required=True)
    gen.add_argument("-o", "--output", default="ambiguity",
                     help="output prefix for <prefix>_trajectory.csv and "
                          "<prefix>_certificate.json")
    gen.add_argument("--base-target", type=int, default=0)
    gen.add_argument("--grid-points", type=int)
    gen.add_argument("--l-prime", type=float, default=1.0,
                     help="tonal ratio f_j0/f_i0 for the doppler regime")
    gen.add_argument("--b-prime", type=float, default=100.0,
                     help="initial range offset (m) for the doppler regime")
    gen.add_argument("--rotation-rate", type=float, default=0.05,
                     help="line-of-sight rotation rate (rad/s) for the doppler regime")
    gen.add_argument("--alpha-amplitude", type=float, default=0.5,
                     help="scale modulation amplitude for the bearing regime")
    gen.add_argument("--alpha-rate", type=float, default=0.5,
                     help="scale modulation rate (rad/s) for the bearing regime")
    gen.set_defaults(func=_cmd_ambiguity_generate)

    ver = amb_sub.add_parser("verify", help="verify a candidate pair from CSV")
    ver.add_argument("scenario")
    ver.add_argument("trajectory", help="candidate trajectory CSV (t,x_m,y_m)")
    ver.add_argument("--regime", choices=[DOPPLER, BEARING, "combined"],
                     default="combined")
    ver.add_argument("--base-target", type=int, default=0)
    ver.add_argument("--tonal-i", type=float,
                     help="tonal radiated by the candidate (default: base tonal)")
    ver.add_argument("-o", "--output", help="certificate JSON path (default stdout)")
    ver.set_defaults(func=_cmd_ambiguity_verify)

    selftest = sub.add_parser("selftest", help="run randomized self-check suites")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(func=_cmd_selftest)

    return parser


# The parser run_cli reuses. It is built on first use by looking up the module
# global ``build_parser``, which stays a plain uncached factory: a wrapper put
# there (bench/spans.py times parser set-up and parsing) sees the one build,
# and every call of the factory returns a fresh parser.
_PARSER: argparse.ArgumentParser | None = None


def run_cli(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _check_numbers(args)
        # Overflow on inputs the loaders accept becomes an analysis error, not NaN output.
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ZeroRange, NonPositiveRange, NonPositiveAlpha, DegenerateSystem) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        print(f"analysis error: numerical overflow ({exc})", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
