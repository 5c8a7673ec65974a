"""Observability analysis: one factorisation per target with its rank decision,
and bearing-geometry diagnostics (pairwise separation modulo pi, collinearity).

All of it comes from one measurement pass over the scenario grid. The
Gramian integrates Phi^T C^T C Phi over the window with quadrature weights W
on that grid. C places each target's pseudo-linear bearing row in its own
block, so the Gramian is block-diagonal: block i is A_i^T W A_i, with A_i the
target's design matrix on the grid. ``gramian`` holds each block through the
R factor of sqrt(W) [A_i | b_i], b_i the observer's pseudo-linear
measurement and the columns in tau = (t - t0) / T for the window length T,
together with the one verdict that both ``check_observable`` and
``estimator.estimate_initial_state`` use: observable when every target's
block has a ratio of extreme squared singular values above ``rank_tol``.
The verdict is about each target's own state, and in tau it does not depend
on the time unit. The geometric criterion (all bearings distinct modulo pi)
is a separate diagnostic: it does not capture single-target
unobservability and is therefore never folded into the rank decision.

The two pair diagnostics, the minimum separation modulo pi and the
collinearity events, sort the bearings modulo pi at each node. On that
circle a close pair is close in sorted order too (the one-dimensional
closest-pair argument), so each diagnostic takes its candidate (pair, node)
entries from the sort and evaluates ``separation_mod_pi`` on those alone:
O(N M log M) plus the candidates, not O(N M^2), with the exact values and
tie order of a scan over every pair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementHistory, design_matrix, measure_scenario
from .scenario_io import Scenario, Tolerances, fields_dict
from .trajectory import PolynomialTrajectory

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
        rank_decision: "observable" when every per-target ratio exceeds rank_tol.
        sigma_ratio: The worst target block's sigma_min^2 / sigma_max^2: the
            smallest of ``per_target_sigma_ratios``.
        rank_tol: Threshold the decision was made at.
        singular_values: Each target block's spectrum in tau columns (the
            squared singular values of sqrt(W) A_i S^-1, see ``Gramian``),
            descending within the block, blocks in target order.
        null_space: Unit direction invisible to the measurements when
            unobservable, else None: the last right singular vector of the
            block with the smallest ratio, in physical coordinates, embedded
            in the 2s space.
        per_target_sigma_ratios: sigma_min^2 / sigma_max^2 of each target's
            own block, in tau columns (0 for a zero block).
        orders: Per-target polynomial orders the Gramian was built with.
        min_pairwise_separation: Minimum over time and pairs of the bearing
            distance modulo pi; None for single-target scenarios.
        argmin_pair / argmin_time: Where that minimum is attained.
        collinearity_events: Maximal subintervals below collinearity_tol.
        gramian: Per-target diagonal blocks A_i^T W A_i of the Gramian, in
            physical units; the off-diagonal blocks are zero by construction.
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
    # fmod equals mod on the non-negative |d| and costs about a third as much.
    if np.ndim(d) == 0:  # a numpy scalar, which takes no out=
        d = np.fmod(np.abs(d), np.pi)
        return float(np.minimum(d, np.pi - d))
    # In place: the pair diagnostics' candidate entries take two arrays of their size, not five.
    np.abs(d, out=d)
    np.fmod(d, np.pi, out=d)
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


def power_of_two_near(largest: float) -> float:
    """A power of two within a factor of two of ``largest`` (1 if it is 0).

    Dividing by it is exact wherever the quotient stays a normal float, so
    a sum of squares taken after the division rounds as the unscaled one
    wherever that neither overflowed nor underflowed.
    """
    return math.ldexp(1.0, math.frexp(largest)[1] - 1) if largest > 0 else 1.0


@dataclass(frozen=True, eq=False)
class OrderStack:
    """The factors of the k targets of one order, stacked along a first axis.

    For row j, target ``targets[j]`` with n = 2(p + 1) unknowns: (s[j],
    vt[j], c[j], rho[j]) come from the R factor of sqrt(W) [A_i S^-1 | b_i]
    (see ``Gramian``), and ``columns[j]`` are the n entries of that target
    in the stacked 2s state.
    """

    targets: np.ndarray  # (k,) target indices, ascending
    columns: np.ndarray  # (k, n)
    s: np.ndarray  # (k, n)
    vt: np.ndarray  # (k, n, n)
    c: np.ndarray  # (k, n)
    rho: np.ndarray  # (k,)


@dataclass(frozen=True, eq=False)
class Gramian:
    """Block-diagonal observability Gramian, one R factor per target, and its verdict.

    Columns are in tau = (t - t0) / T, T = ``scale`` the window length (1 for
    a zero-length window): A_i S^-1 with S = diag(T^k), k each column's
    derivative. Each target's block is kept as (s, vt, c, rho) from the R
    factor of sqrt(W) [A_i S^-1 | b_i]: u diag(s) vt is its left n x n block
    (s descending, zero-padded on a grid with fewer nodes than unknowns),
    c = u^T Q^T sqrt(W) b_i, and rho = |R[n, n]| the residual of b_i.
    ``stacks`` holds these as the one QR and one SVD per order made them:
    one ``OrderStack`` per order, ascending, so every use below is one
    batched expression per order.
    """

    scale: float
    stacks: tuple[OrderStack, ...]
    per_target_sigma_ratios: tuple[float, ...]  # min s^2 / max s^2 per block, 0 if zero
    observable: bool  # every per-target ratio > rank_tol

    @property
    def sigma_ratio(self) -> float:  # the worst block's
        return min(self.per_target_sigma_ratios)

    @property
    def size(self) -> int:  # 2s, the length of the stacked state
        return sum(stack.columns.size for stack in self.stacks)

    @property
    def singular_values(self) -> np.ndarray:  # each block's s, in target order
        out = np.empty(self.size)
        for stack in self.stacks:
            out[stack.columns] = stack.s
        return out

    @property
    def null_space(self) -> np.ndarray | None:
        """None when observable; else the last right singular vector of the block
        with the smallest ratio (first on ties), physical, unit norm, in 2s space."""
        if self.observable:
            return None
        worst = int(np.argmin(self.per_target_sigma_ratios))
        stack = next(stack for stack in self.stacks if worst in stack.targets)
        j = int(np.searchsorted(stack.targets, worst))
        v = self.physical(stack.vt[j, -1])
        # Scaled so that the squares of the norm neither all underflow nor
        # overflow on an extreme window; the unit vector keeps its bytes
        # wherever the unscaled norm neither underflowed nor overflowed.
        v = v / power_of_two_near(float(np.abs(v).max()))
        out = np.zeros(self.size)
        out[stack.columns[j]] = v / np.linalg.norm(v)
        return out

    def _column_scales(self, n: int) -> np.ndarray:
        return self.scale ** (np.arange(n) // 2)  # the diagonal of S

    def physical(self, state: np.ndarray) -> np.ndarray:
        """States from tau columns to raw derivatives in seconds: S^-1 state,
        along the last axis."""
        return state / self._column_scales(state.shape[-1])

    def blocks(self) -> tuple[np.ndarray, ...]:
        """Diagonal blocks A_i^T W A_i = S vt^T diag(s^2) vt S, symmetrized, in target order.

        An entry beyond the float range is inf or nan (the report writes it
        as null), not an error: the verdict is taken in tau columns, where
        the spectrum stays finite while S^2 overflows on a huge window.
        """
        blocks: list = [None] * len(self.per_target_sigma_ratios)
        with np.errstate(over="ignore", invalid="ignore"):
            for stack in self.stacks:
                d = self._column_scales(stack.s.shape[1])
                vt = stack.vt
                block = d[:, None] * ((vt.swapaxes(1, 2) * stack.s[:, None, :] ** 2) @ vt) * d
                for i, b in zip(stack.targets.tolist(), 0.5 * (block + block.swapaxes(1, 2))):
                    blocks[i] = b
        return tuple(blocks)


def gramian(observer: PolynomialTrajectory, history: MeasurementHistory,
            orders: Sequence[int], rank_tol: float = Tolerances.rank_tol) -> Gramian:
    """Quadrature observability Gramian on the history's grid, factorised per target.

    Target i, of order ``orders[i]``, gives the block A_i^T W A_i, W the
    weights of ``_simpson_weights``. The targets of one order share one QR
    (R factor only) and one SVD of the small R blocks, kept stacked (see
    ``Gramian``). A zero-length window gives zero singular values. The
    verdict, the one ``check_observable`` reports and
    ``estimate_initial_state`` solves by, is observable when every block's
    ratio exceeds ``rank_tol``; in tau it does not depend on the time unit.

    Raises:
        ValueError: For fewer than 2 grid nodes, or not one order per target.
    """
    times = history.times
    nodes = len(times)
    if nodes < 2:
        raise ValueError(f"the Gramian needs at least 2 grid nodes, got {nodes}")
    if len(orders) != history.num_targets:
        raise ValueError(
            f"orders has {len(orders)} entries for {history.num_targets} targets")
    span = times[-1] - times[0]
    scale = span if span > 0 else 1.0
    sqrt_w = np.sqrt(_simpson_weights(nodes, span / (nodes - 1)))[:, None]
    observer_xy = observer.eval(times)
    tau = (times - times[0]) / scale
    orders = np.asarray(orders)
    offsets = np.cumsum(2 * (orders + 1)) - 2 * (orders + 1)  # each target's first column
    ratios = np.zeros(len(orders))
    stacks = []
    for p in sorted(set(orders.tolist())):  # np.unique would import numpy.ma
        n = 2 * (p + 1)
        targets = np.flatnonzero(orders == p)
        a = design_matrix(history.bearings[targets], tau, 0.0, p)
        # Columns 0 and 1 are (cos, -sin): b is the observer's pseudo-linear measurement.
        b = a[:, :, 0] * observer_xy[:, 0] + a[:, :, 1] * observer_xy[:, 1]
        system = np.concatenate([a, b[:, :, None]], axis=2)
        system *= sqrt_w
        r = np.linalg.qr(system, mode="r")
        if nodes < n + 1:  # fewer rows than columns: pad R to square
            r = np.concatenate([r, np.zeros((len(targets), n + 1 - nodes, n + 1))], axis=1)
        u, s, vt = np.linalg.svd(r[:, :n, :n])
        c = np.einsum("kji,kj->ki", u, r[:, :n, n])
        stacks.append(OrderStack(targets, offsets[targets, None] + np.arange(n),
                                 s, vt, c, np.abs(r[:, n, n])))
        # A zero block (s[0] = 0) keeps ratio 0. Squared with C pow, as a float's
        # ** 2 is, so each ratio is the per-target float((s[-1] / s[0]) ** 2) bit
        # for bit (tests/oracles.py); an array's ** 2 is x * x, which differs in
        # the last bit for about one value in a thousand.
        ratios[targets] = np.float_power(np.divide(
            s[:, -1], s[:, 0], out=np.zeros(len(targets)), where=s[:, 0] > 0), 2)
    return Gramian(scale, tuple(stacks), tuple(ratios.tolist()), bool(ratios.min() > rank_tol))


def _close_entries(history: MeasurementHistory,
                   below: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (pair, node) entries the pair diagnostics need, from the history's sort.

    With ``below`` set: every entry whose separation modulo pi is below it.
    With None: every entry that can attain the minimum over pairs and nodes.
    Extra entries come along, and an entry can come twice, once per direction
    round the circle. Returns (key, sep): key = (i M + j)(N + 1) + k for pair
    i < j at node k, so keys order the entries by pair, then node, and
    consecutive nodes of one pair have consecutive keys; sep is each entry's
    exact ``separation_mod_pi``.

    At each node the bearings mod pi (``history.sorted_mod_pi``) lie sorted
    round a circle of circumference pi, so the gap from a bearing to the d-th
    one after it grows with d. A pair closer than a limit is d apart in one
    direction, and every gap at a smaller offset from the same start is below
    the limit too. So the walk over d stops at the first offset with no gap
    below it.
    """
    bearings = history.bearings
    m, n = bearings.shape
    order, phi = (a.ravel() for a in history.sorted_mod_pi)  # index s N + k: rank s, node k
    circle = np.concatenate((phi, phi[:n * (m - 1)] + np.pi))  # then one turn on
    # Gaps and separations differ by roundings only (u = eps / 2): a phi by
    # 2 u, the turn added by 4 u and a gap's subtraction by 4 u, so a gap is
    # within 12 u of its pair's distance round the circle, and the shorter
    # direction's gap within 24 u of that distance. The reference's
    # theta_b - theta_a and pi - d add u ptp(theta) + 2 u. So a pair below a
    # limit has a gap below the limit plus eps (ptp + 32), and a pair at the
    # minimum has a gap below the smallest gap plus that slack.
    slack = np.finfo(float).eps * (bearings.max() - bearings.min() + 32.0)
    gaps = circle[n:n * (m + 1)] - phi
    limit = (gaps.min() if below is None else below) + slack
    starts, ends = [], []
    for d in range(1, m):
        if d > 1:
            gaps = np.subtract(circle[n * d:n * (d + m)], phi, out=gaps)
        start = (gaps < limit).nonzero()[0]
        if not len(start):
            break
        starts.append(start)
        ends.append((start + n * d) % (n * m))  # the bearing d on, round the circle
    if not starts:
        return np.zeros(0, dtype=int), np.zeros(0)
    start, end = np.concatenate(starts), np.concatenate(ends)
    k = start % n
    a, b = order[start], order[end]
    sep = separation_mod_pi(bearings[a, k], bearings[b, k])
    return (np.minimum(a, b) * m + np.maximum(a, b)) * (n + 1) + k, sep


def bearing_separation_mod_pi(
    history: MeasurementHistory,
) -> tuple[float, tuple[int, int], float]:
    """Minimum pairwise bearing separation modulo pi over the grid.

    Ties go to the lowest pair (i, j), then to the earliest node.

    Returns:
        (min_separation, (i, j), time) at the argmin.

    Raises:
        ValueError: For single-target histories.
    """
    if history.num_targets < 2:
        raise ValueError("pairwise separation needs at least two targets")
    key, sep = _close_entries(history)
    least = sep.min()
    pair, node = divmod(int(key[sep == least].min()), len(history.times) + 1)
    return float(least), divmod(pair, history.num_targets), float(history.times[node])


def detect_collinearity(
    history: MeasurementHistory, collinearity_tol: float = Tolerances.collinearity_tol,
) -> list[CollinearityEvent]:
    """Maximal grid subintervals per pair with separation below the tolerance.

    Events are ordered by pair (i, j), then by time. An empty list means the
    distinct-modulo-pi condition holds on the grid.
    """
    if history.num_targets < 2:
        raise ValueError("collinearity detection needs at least two targets")
    key, sep = _close_entries(history, collinearity_tol)
    below = sep < collinearity_tol
    if not below.any():
        return []
    key, once = np.unique(key[below], return_index=True)
    sep = sep[below][once]
    # A run of consecutive keys is one pair's run of consecutive nodes.
    starts = np.flatnonzero(np.diff(key, prepend=-2) != 1)
    lasts = np.append(starts[1:], len(key)) - 1
    pairs, nodes = np.divmod(key[starts], len(history.times) + 1)
    lower, upper = np.divmod(pairs, history.num_targets)
    times = history.times
    return [CollinearityEvent((i, j), t_start, t_end, least)
            for i, j, t_start, t_end, least in zip(
                lower.tolist(), upper.tolist(), times[nodes].tolist(),
                times[nodes + key[lasts] - key[starts]].tolist(),
                np.minimum.reduceat(sep, starts).tolist())]


def check_observable(scenario: Scenario, rank_tol: float | None = None) -> ObservabilityReport:
    """Full observability report: Gramian spectrum plus geometric diagnostics."""
    if rank_tol is None:
        rank_tol = scenario.tolerances.rank_tol
    orders = scenario.effective_orders()
    history = measure_scenario(scenario)
    g = gramian(scenario.observer, history, orders, rank_tol)

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
        f"(worst target block sigma_min^2/sigma_max^2 = {report.sigma_ratio:.3e} "
        f"(target {int(np.argmin(report.per_target_sigma_ratios))}), "
        f"tol {report.rank_tol:.1e})",
        "per-target block sigma_min^2/sigma_max^2: "
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
