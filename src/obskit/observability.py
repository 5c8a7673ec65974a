"""Observability analysis: quadrature Gramian, spectral rank test, and
bearing-geometry diagnostics (pairwise separation modulo pi, collinearity).

All of it comes from one measurement pass over the scenario grid. The
Gramian integrates Phi^T C^T C Phi over the window with quadrature weights
on that grid; the system is declared observable when the ratio of its extreme
singular values exceeds ``rank_tol``. C places each target's pseudo-linear
bearing row in its own block, so the Gramian is block-diagonal: block i is
A_i^T W A_i, with A_i the target's design matrix on the grid and W the
diagonal of quadrature weights. Per-target block conditioning is reported.
The geometric criterion (all bearings distinct modulo pi) is reported as a
separate diagnostic: it does not capture single-target unobservability and
is therefore never folded into the rank decision.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementHistory, design_matrix, measure_scenario
from .scenario_io import Scenario

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
        gramian: 2s x 2s symmetric PSD matrix.
        singular_values: Descending singular values of the Gramian.
        rank_decision: "observable" when sigma_min/sigma_max > rank_tol.
        sigma_ratio: sigma_min / sigma_max (0 for a zero Gramian).
        rank_tol: Threshold the decision was made at.
        null_space: Unit direction invisible to the measurements when
            unobservable (right singular vector of sigma_min), else None.
        per_target_sigma_ratios: Conditioning of each target's own block.
        orders: Per-target polynomial orders the Gramian was built with.
        min_pairwise_separation: Minimum over time and pairs of the bearing
            distance modulo pi; None for single-target scenarios.
        argmin_pair / argmin_time: Where that minimum is attained.
        collinearity_events: Maximal subintervals below collinearity_tol.
    """

    gramian: np.ndarray
    singular_values: np.ndarray
    rank_decision: str
    sigma_ratio: float
    rank_tol: float
    null_space: np.ndarray | None
    per_target_sigma_ratios: tuple[float, ...]
    orders: tuple[int, ...]
    min_pairwise_separation: float | None
    argmin_pair: tuple[int, int] | None
    argmin_time: float | None
    collinearity_events: tuple[CollinearityEvent, ...]

    def to_dict(self) -> dict:
        """JSON-ready representation (non-finite floats become null)."""
        return {
            "rank_decision": self.rank_decision,
            "sigma_ratio": self.sigma_ratio,
            "rank_tol": self.rank_tol,
            "singular_values": self.singular_values.tolist(),
            "null_space": None if self.null_space is None else self.null_space.tolist(),
            "per_target_sigma_ratios": list(self.per_target_sigma_ratios),
            "orders": list(self.orders),
            "min_pairwise_separation": self.min_pairwise_separation,
            "argmin_pair": None if self.argmin_pair is None else list(self.argmin_pair),
            "argmin_time": self.argmin_time,
            "collinearity_events": [
                {"pair": list(e.pair), "t_start": e.t_start, "t_end": e.t_end,
                 "separation_min": e.separation_min}
                for e in self.collinearity_events
            ],
            "gramian": self.gramian.tolist(),
        }


def separation_mod_pi(theta_a: float | np.ndarray, theta_b: float | np.ndarray):
    """Bearing distance modulo pi: min_k |theta_b - theta_a - k*pi|, in [0, pi/2]."""
    d = np.mod(np.abs(np.asarray(theta_b) - np.asarray(theta_a)), np.pi)
    out = np.minimum(d, np.pi - d)
    if np.ndim(theta_a) == 0 and np.ndim(theta_b) == 0:
        return float(out)
    return out


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


def gramian(history: MeasurementHistory, orders: Sequence[int]) -> np.ndarray:
    """Quadrature approximation of the observability Gramian on the history's grid.

    Integrates Phi^T C^T C Phi over the uniform grid of ``history`` with the
    weights of ``_simpson_weights``: target i, of order ``orders[i]``, gives
    the diagonal block A_i^T W A_i of its design matrix A_i. The result is
    symmetrized as (G + G^T) / 2; a zero-length window gives a zero matrix.

    Raises:
        ValueError: For fewer than 2 grid nodes.
    """
    times = history.times
    nodes = len(times)
    if nodes < 2:
        raise ValueError(f"the Gramian needs at least 2 grid nodes, got {nodes}")
    weights = _simpson_weights(nodes, (times[-1] - times[0]) / (nodes - 1))
    size = 2 * sum(p + 1 for p in orders)
    G = np.zeros((size, size))
    at = 0
    for thetas, p in zip(history.bearings, orders, strict=True):
        A = design_matrix(thetas, times, times[0], p)
        n = A.shape[1]
        G[at:at + n, at:at + n] = A.T @ (weights[:, None] * A)
        at += n
    return 0.5 * (G + G.T)


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
    history: MeasurementHistory, collinearity_tol: float = 1e-3,
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
    G = gramian(history, orders)
    _, svals, vt = np.linalg.svd(G)
    sigma_max = float(svals[0])
    ratio = float(svals[-1] / sigma_max) if sigma_max > 0 else 0.0
    observable = ratio > rank_tol
    null_space = None if observable else vt[-1].copy()

    edges = np.cumsum([0, *(2 * (p + 1) for p in orders)])
    block_ratios = []
    for a, b in zip(edges[:-1], edges[1:]):
        bs = np.linalg.svd(G[a:b, a:b], compute_uv=False)
        block_ratios.append(float(bs[-1] / bs[0]) if bs[0] > 0 else 0.0)

    min_sep = argmin_pair = argmin_time = None
    events: tuple[CollinearityEvent, ...] = ()
    if history.num_targets >= 2:
        min_sep, argmin_pair, argmin_time = bearing_separation_mod_pi(history)
        events = tuple(detect_collinearity(
            history, scenario.tolerances.collinearity_tol))

    return ObservabilityReport(
        gramian=G,
        singular_values=svals,
        rank_decision=OBSERVABLE if observable else UNOBSERVABLE,
        sigma_ratio=ratio,
        rank_tol=float(rank_tol),
        null_space=null_space,
        per_target_sigma_ratios=tuple(block_ratios),
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
