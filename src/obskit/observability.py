"""Observability analysis: one factorisation per target with its rank decision,
and bearing-geometry diagnostics (pairwise separation modulo pi, collinearity).

All of it comes from one measurement pass over the scenario grid. The
Gramian integrates Phi^T C^T C Phi over the window with quadrature weights W
on that grid. C places each target's pseudo-linear bearing row in its own
block, so the Gramian is block-diagonal: block i is A_i^T W A_i, with A_i the
target's design matrix on the grid. ``gramian`` holds it as the SVD of each
sqrt(W) A_i together with the one verdict that both ``check_observable`` and
``estimator.estimate_initial_state`` use: observable when the ratio of the
extreme squared singular values exceeds ``rank_tol``. Per-target block
conditioning is reported. The geometric criterion (all bearings distinct
modulo pi) is a separate diagnostic: it does not capture single-target
unobservability and is therefore never folded into the rank decision.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementHistory, design_matrix, measure_scenario
from .scenario_io import Scenario, Tolerances, fields_dict

OBSERVABLE = "observable"
UNOBSERVABLE = "unobservable"


@dataclass(frozen=True)
class CollinearityEvent:
    """Grid subinterval on which a target pair stays collinear with the observer."""

    pair: tuple[int, int]
    t_start: float
    t_end: float
    separation_min: float


@dataclass(frozen=True, eq=False)
class ObservabilityReport:
    """Gramian spectrum, rank decision, and bearing-separation diagnostics.

    Attributes:
        rank_decision: "observable" when sigma_min/sigma_max > rank_tol.
        sigma_ratio: sigma_min / sigma_max (0 for a zero Gramian).
        rank_tol: Threshold the decision was made at.
        singular_values: Descending singular values of the Gramian, the
            squared singular values of every target's sqrt(W) A_i.
        null_space: Unit direction invisible to the measurements when
            unobservable (right singular vector of sigma_min in the weakest
            target's block, embedded in the 2s space), else None.
        per_target_sigma_ratios: Conditioning of each target's own block.
        orders: Per-target polynomial orders the Gramian was built with.
        min_pairwise_separation: Minimum over time and pairs of the bearing
            distance modulo pi; None for single-target scenarios.
        argmin_pair / argmin_time: Where that minimum is attained.
        collinearity_events: Maximal subintervals below collinearity_tol.
        gramian: Per-target diagonal blocks A_i^T W A_i of the Gramian; the
            off-diagonal blocks are zero by construction.
    """

    rank_decision: str
    sigma_ratio: float
    rank_tol: float
    singular_values: np.ndarray
    null_space: np.ndarray | None
    per_target_sigma_ratios: tuple[float, ...]
    orders: tuple[int, ...]
    min_pairwise_separation: float | None
    argmin_pair: tuple[int, int] | None
    argmin_time: float | None
    collinearity_events: tuple[CollinearityEvent, ...]
    gramian: tuple[np.ndarray, ...]

    to_dict = fields_dict


def separation_mod_pi(theta_a: float | np.ndarray, theta_b: float | np.ndarray):
    """Bearing distance modulo pi: min_k |theta_b - theta_a - k*pi|, in [0, pi/2]."""
    d = np.subtract(theta_b, theta_a, dtype=float)
    if np.ndim(d) == 0:  # a numpy scalar, which takes no out=
        d = np.mod(np.abs(d), np.pi)
        return float(np.minimum(d, np.pi - d))
    # In place: an (M - 1 - i, N) partner block keeps two full-size arrays, not five.
    np.abs(d, out=d)
    np.mod(d, np.pi, out=d)
    return np.minimum(d, np.pi - d, out=d)


def _simpson_weights(nodes: int, h: float) -> np.ndarray:
    """Weights for ``nodes`` uniform points spaced ``h``: composite Simpson for an
    odd count; for an even count >= 4, Simpson on the first nodes - 3 points
    and the 3/8 rule on the last three intervals; the trapezoid rule for 2."""
    if nodes % 2:
        w = np.ones(nodes)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    if nodes == 2:
        return np.full(2, 0.5 * h)
    w = np.zeros(nodes)
    if nodes > 4:
        w[:-3] = _simpson_weights(nodes - 3, h)
    w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


@dataclass(frozen=True, eq=False)
class Gramian:
    """Block-diagonal observability Gramian, held as one SVD per target, and its verdict.

    ``factors[i]`` is (u, s, vt) with u diag(s) vt = sqrt(W) A_i, W the
    quadrature weights (``sqrt_weights ** 2``). s is descending with one entry
    per unknown: on a grid with fewer nodes, it is zero-padded and vt square.
    """

    sqrt_weights: np.ndarray
    factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    observable: bool  # sigma_ratio > rank_tol
    sigma_ratio: float  # min s^2 / max s^2 over all blocks, 0 for a zero Gramian
    singular_values: np.ndarray  # every block's s, descending: those of the stacked sqrt(W) A
    per_target_sigma_ratios: tuple[float, ...]  # min s^2 / max s^2 within each block
    null_space: np.ndarray | None  # weakest block's last right singular vector, in 2s space

    def blocks(self) -> tuple[np.ndarray, ...]:
        """Diagonal blocks A_i^T W A_i = vt^T diag(s^2) vt, symmetrized."""
        blocks = [(vt.T * s ** 2) @ vt for _, s, vt in self.factors]
        return tuple(0.5 * (block + block.T) for block in blocks)


def gramian(history: MeasurementHistory, orders: Sequence[int],
            rank_tol: float = Tolerances.rank_tol) -> Gramian:
    """Quadrature observability Gramian on the history's grid, factorised per target.

    Integrates Phi^T C^T C Phi over the uniform grid of ``history`` with the
    weights W of ``_simpson_weights``: target i, of order ``orders[i]``, gives
    the diagonal block A_i^T W A_i of its design matrix A_i, kept as the SVD of
    sqrt(W) A_i. A zero-length window gives zero singular values. The verdict
    is the one ``check_observable`` reports and ``estimate_initial_state``
    solves by; the null direction, given only when not observable, belongs to
    the smallest singular value (the first block on ties).

    Raises:
        ValueError: For fewer than 2 grid nodes.
    """
    times = history.times
    nodes = len(times)
    if nodes < 2:
        raise ValueError(f"the Gramian needs at least 2 grid nodes, got {nodes}")
    sqrt_w = np.sqrt(_simpson_weights(nodes, (times[-1] - times[0]) / (nodes - 1)))
    factors = []
    for thetas, p in zip(history.bearings, orders, strict=True):
        missing = 2 * (p + 1) - nodes
        u, s, vt = np.linalg.svd(sqrt_w[:, None] * design_matrix(thetas, times, times[0], p),
                                 full_matrices=missing > 0)
        if missing > 0:  # the thin SVD leaves out the zero singular values
            s = np.concatenate([s, np.zeros(missing)])
        factors.append((u, s, vt))
    per_block = [s for _, s, _ in factors]
    svals = np.sort(np.concatenate(per_block))[::-1]
    ratio, *block_ratios = [float((s[-1] / s[0]) ** 2) if s[0] > 0 else 0.0
                            for s in (svals, *per_block)]
    null_space = None
    if not ratio > rank_tol:
        weakest = int(np.argmin([s[-1] for s in per_block]))
        null_space = np.concatenate([vt[-1] if i == weakest else np.zeros(len(vt))
                                     for i, (_, _, vt) in enumerate(factors)])
    return Gramian(sqrt_w, tuple(factors), ratio > rank_tol, ratio, svals,
                   tuple(block_ratios), null_space)


def _partner_separations(history: MeasurementHistory) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (i, sep) per target, sep[r] the separation modulo pi of pair
    (i, i + 1 + r) on the grid: one (M - 1 - i, N) block, never all pairs."""
    for i in range(history.num_targets - 1):
        yield i, separation_mod_pi(history.bearings[i], history.bearings[i + 1:])


def bearing_separation_mod_pi(
    history: MeasurementHistory,
) -> tuple[float, tuple[int, int], float]:
    """Minimum pairwise bearing separation modulo pi over the grid (first on ties).

    Returns:
        (min_separation, (i, j), time) at the argmin.

    Raises:
        ValueError: For single-target histories.
    """
    if history.num_targets < 2:
        raise ValueError("pairwise separation needs at least two targets")
    best = (np.inf, (0, 1), float(history.times[0]))
    for i, sep in _partner_separations(history):
        r, k = divmod(int(np.argmin(sep)), sep.shape[1])
        if sep[r, k] < best[0]:
            best = (float(sep[r, k]), (i, i + 1 + r), float(history.times[k]))
    return best


def detect_collinearity(
    history: MeasurementHistory, collinearity_tol: float = Tolerances.collinearity_tol,
) -> list[CollinearityEvent]:
    """Maximal grid subintervals per pair with separation below the tolerance.

    Events are ordered by pair (i, j), then by time. An empty list means the
    distinct-modulo-pi condition holds on the grid.
    """
    if history.num_targets < 2:
        raise ValueError("collinearity detection needs at least two targets")
    times = history.times
    events: list[CollinearityEvent] = []
    for i, sep in _partner_separations(history):
        # Padded with False, each row's mask flips at a run's start, then its end.
        rows, edges = np.nonzero(np.diff(sep < collinearity_tol, axis=1,
                                         prepend=False, append=False))
        for r, start, stop in zip(rows[::2], edges[::2], edges[1::2]):
            events.append(CollinearityEvent(
                pair=(i, i + 1 + int(r)),
                t_start=float(times[start]),
                t_end=float(times[stop - 1]),
                separation_min=float(np.min(sep[r, start:stop])),
            ))
    return events


def check_observable(scenario: Scenario, rank_tol: float | None = None) -> ObservabilityReport:
    """Full observability report: Gramian spectrum plus geometric diagnostics."""
    if rank_tol is None:
        rank_tol = scenario.tolerances.rank_tol
    orders = scenario.effective_orders()
    history = measure_scenario(scenario)
    g = gramian(history, orders, rank_tol)

    min_sep = argmin_pair = argmin_time = None
    events: tuple[CollinearityEvent, ...] = ()
    if history.num_targets >= 2:
        min_sep, argmin_pair, argmin_time = bearing_separation_mod_pi(history)
        events = tuple(detect_collinearity(
            history, scenario.tolerances.collinearity_tol))

    return ObservabilityReport(
        gramian=g.blocks(),
        singular_values=g.singular_values ** 2,
        rank_decision=OBSERVABLE if g.observable else UNOBSERVABLE,
        sigma_ratio=g.sigma_ratio,
        rank_tol=float(rank_tol),
        null_space=g.null_space,
        per_target_sigma_ratios=g.per_target_sigma_ratios,
        orders=orders,
        min_pairwise_separation=min_sep,
        argmin_pair=argmin_pair,
        argmin_time=argmin_time,
        collinearity_events=events,
    )


def report_text(report: ObservabilityReport) -> str:
    """Human-readable summary of an observability report."""
    lines = [
        f"rank decision: {report.rank_decision} "
        f"(sigma_min/sigma_max = {report.sigma_ratio:.3e}, tol {report.rank_tol:.1e})",
        "per-target block sigma ratios: "
        + ", ".join(f"{r:.3e}" for r in report.per_target_sigma_ratios),
    ]
    if report.min_pairwise_separation is not None:
        lines.append(
            f"min pairwise bearing separation (mod pi): "
            f"{report.min_pairwise_separation:.6f} rad "
            f"for pair {report.argmin_pair} at t = {report.argmin_time:g}"
        )
    if report.collinearity_events:
        for e in report.collinearity_events:
            lines.append(
                f"collinearity: pair {e.pair} on [{e.t_start:g}, {e.t_end:g}] "
                f"(min separation {e.separation_min:.3e} rad)"
            )
    else:
        lines.append("collinearity: none detected on the grid")
    if report.null_space is not None:
        lines.append("invisible direction: ["
                     + ", ".join(f"{v:.6f}" for v in report.null_space) + "]")
    return "\n".join(lines) + "\n"
