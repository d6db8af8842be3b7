"""First-stage solver: projected-gradient best response and its iteration.

Players alternate in index order; each inner loop runs fixed-step
projected gradient descent on that player's own parameter, holding the
others at their freshest values.  A step-halving guard (absent from the
bare alternation scheme) rejects infeasible iterates and damps ascent
steps; every intervention is recorded in the trace.  First-order
certification reports, per player, whether the converged point is an
interior stationary point, a boundary point whose descent direction exits
the box, or neither.

Each parameter point is evaluated once: the descent step carries every
point's evaluation (first-stage costs and own-gradients) forward.  Each
evaluation is a row of ``_evaluate_batch``, the one evaluator.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BestResponseStalled, InfeasibleTheta
from .model import ConfigGame
from .riccati import DEFAULT_STEPS, _solve_batch, default_grid, stage_one_costs
from .sensitivity import value_gradient


@dataclass(frozen=True)
class SolverSettings:
    """Knobs of the first-stage search.

    alpha is the raw gradient step; epsilon the per-iterate and per-sweep
    movement tolerance; stationarity_tol the gradient tolerance used by
    certification.  grid_steps sets the shared integration grid.
    """

    alpha: float = 0.05
    epsilon: float = 1e-6
    max_outer: int = 100
    max_inner: int = 500
    stationarity_tol: float = 1e-4
    grid_steps: int = DEFAULT_STEPS

    def __post_init__(self):
        for name in ("max_outer", "max_inner", "grid_steps"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("alpha", "epsilon", "max_inner", "stationarity_tol",
                     "grid_steps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.max_outer < 0:
            raise ValueError("max_outer must be nonnegative")


class CertVerdict(str, enum.Enum):
    INTERIOR_STATIONARY = "INTERIOR_STATIONARY"
    BOUNDARY_DESCENT_OUTWARD = "BOUNDARY_DESCENT_OUTWARD"
    NOT_STATIONARY = "NOT_STATIONARY"


@dataclass(frozen=True)
class InnerRecord:
    """One accepted inner iterate of a best-response loop."""

    sweep: int
    player: int
    inner_iter: int
    theta: tuple
    values: tuple
    grad_own: float
    warning: str = ""


@dataclass
class IbrTrace:
    """Iterate history of the first-stage search.

    ``values0`` are the costs at theta0; ``values``, ``gradients`` (own)
    and ``certification`` belong to the final theta.
    """

    theta0: tuple
    records: list = field(default_factory=list)
    converged: bool = False
    sweeps: int = 0
    theta: tuple = ()
    values0: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    gradients: Optional[np.ndarray] = None
    certification: Optional[list] = None

    @property
    def warnings(self) -> list:
        """The records that carry a warning, so far."""
        return [r for r in self.records if r.warning]


def project(theta_i: float, box) -> float:
    """Clamp a scalar parameter onto its closed interval (idempotent)."""
    lo, hi = box
    return float(min(max(theta_i, lo), hi))


# elements per grid node that the arrays of a batch of parameter points may
# hold, about 26 MB at 1000 steps.  The passes form every stage-time array
# in blocks of at most odekit.BLOCK_ELEMS elements, so a member holds its
# value matrices at the nodes, N n^2 (offsets and constants are of lower
# order), and while its gradients are taken their path derivatives at the
# nodes too, N n^2 (N + 1) in all, or N n^2 2 in a zero-sum game (the stack
# (P, -P) and one derivative of P per parameter).  A batch whose every
# member's gradients are taken then holds 33 general-sum, 12
# pursuit-evasion and 7 three-player random-game (n=6) members, one whose
# gradients are not 100, 25 and 29
BATCH_BUDGET = 3200


def _batches(gradients, game):
    """Consecutive slices that tile the rows of the mask ``gradients`` (True
    where a row's gradients are taken), each as long as both of its counts
    stay within BATCH_BUDGET: N n^2 per row while the batch is solved, and
    N n^2 (N + 1), or N n^2 2 in a zero-sum game, per asked row while the
    gradients are taken.  A single row is a slice even when it exceeds the
    budget."""
    N, n = game.num_players, game.state_dim
    solved = N * n * n
    asked = solved * (2 if game.zero_sum else N + 1)
    slices, start, count = [], 0, 0
    for row, ask in enumerate(np.asarray(gradients, bool)):
        if row > start and max((row + 1 - start) * solved, (count + ask) * asked) > BATCH_BUDGET:
            slices.append(slice(start, row))
            start, count = row, 0
        count += ask
    return slices + [slice(start, len(gradients))] if len(gradients) else []


def _evaluate_batch(game, thetas, grid, gradients=None):
    """First-stage costs at every row of ``thetas``, and the gradient matrix
    G at the rows that the mask ``gradients`` asks for (every row by
    default), solved in the batches of ``_batches``.

    Returns one entry per row: (costs, G), with G None at a row not asked
    for, or the InfeasibleTheta of a point with no bounded stage-two
    solution.  The node arrays of the members not asked for are dropped
    before the gradients are taken.  The entries equal the single-point
    evaluations (``stage_one_costs``, ``value_gradient``) bit for bit.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    asked = np.ones(len(thetas), bool) if gradients is None else np.asarray(gradients, bool)
    out = {}
    for rows in _batches(asked, game):
        batch, failures = _solve_batch(game, thetas[rows], grid)
        for b, exc in failures.items():
            out[rows.start + b] = InfeasibleTheta(thetas[rows.start + b], time=exc.time,
                                                  player=exc.player)
        members = rows.start + batch.members
        for r, costs in zip(members, stage_one_costs(batch)):
            out[r] = (costs, None)
        keep = np.flatnonzero(asked[members])
        if len(keep):
            batch = batch if len(keep) == len(members) else batch.select(keep)
            grads = value_gradient(game, batch.tables.thetas, grid=grid, stage2=batch)
            for r, G in zip(members[keep], grads):
                out[r] = (out[r][0], G)
        del batch  # before the next slice is solved
    return [out[r] for r in range(len(thetas))]


def _evaluate(game, theta, grid):
    """First-stage costs and own-gradients at theta: the one-row call of
    ``_evaluate_batch``, raising that row's InfeasibleTheta."""
    (row,) = _evaluate_batch(game, [theta], grid)
    if isinstance(row, InfeasibleTheta):
        raise row
    return row[0], np.diag(row[1]).copy()


def _descend(game, theta, i, settings, grid, costs, own, sweep, records):
    """Player i's best response from ``theta``, whose evaluation (costs, own) is given.

    Appends each accepted iterate to ``records`` and returns the point
    reached with its evaluation, and whether the loop ended by the epsilon
    test rather than at max_inner.  A candidate that the box projection
    puts back onto the current point reuses its evaluation.
    """
    box = game.theta_box[i]
    for tau in range(1, settings.max_inner + 1):
        alpha = settings.alpha
        rejections = 0
        ascent_retried = False
        warning = ""
        while True:
            candidate = theta.copy()
            candidate[i] = project(theta[i] - alpha * own[i], box)
            if candidate[i] == theta[i]:
                cand_costs, cand_own = costs, own
                break
            try:
                cand_costs, cand_own = _evaluate(game, candidate, grid)
            except InfeasibleTheta:
                rejections += 1
                if rejections > 10:
                    raise BestResponseStalled(i, theta) from None
                alpha *= 0.5
                continue
            if cand_costs[i] > costs[i] and not ascent_retried:
                ascent_retried = True
                alpha *= 0.5
                continue
            if cand_costs[i] > costs[i]:
                warning = "accepted ascent step after halving"
            break
        moved = abs(candidate[i] - theta[i])
        theta = candidate
        costs, own = cand_costs, cand_own
        records.append(InnerRecord(sweep=sweep, player=i, inner_iter=tau,
                                   theta=tuple(theta), values=tuple(costs),
                                   grad_own=float(own[i]), warning=warning))
        if moved <= settings.epsilon:
            return theta, costs, own, True
    return theta, costs, own, False


def ibr_solve(game: ConfigGame, theta0, settings: SolverSettings = None) -> IbrTrace:
    """Alternating best response over players in index order.

    Within a sweep each player reacts to the components already updated
    in that sweep.  The outer loop stops when a full sweep moves theta by
    at most epsilon in the max norm and every best response of it ended by
    the epsilon test, or after max_outer sweeps; the converged flag records
    which.  The final values, gradients and certification are the
    evaluation the search holds, not a new solve.  A stalled best response
    propagates with the partial trace attached.
    """
    settings = settings if settings is not None else SolverSettings()
    theta = np.array(theta0, dtype=float)
    grid = default_grid(game, settings.grid_steps)
    costs, own = _evaluate(game, theta, grid)
    trace = IbrTrace(theta0=tuple(theta), values0=costs)

    for sweep in range(1, settings.max_outer + 1):
        previous, settled = theta.copy(), True
        for i in range(game.num_players):
            try:
                theta, costs, own, done = _descend(game, theta, i, settings, grid, costs, own,
                                                   sweep, trace.records)
                settled &= done
            except BestResponseStalled as exc:
                trace.sweeps = sweep
                trace.theta = tuple(theta)
                exc.trace = trace
                raise
        trace.sweeps = sweep
        if settled and np.max(np.abs(theta - previous)) <= settings.epsilon:
            trace.converged = True
            break

    trace.theta = tuple(theta)
    trace.values = costs
    trace.gradients = own
    trace.certification = _verdicts(game, theta, own, settings.stationarity_tol)
    return trace


def _verdicts(game, theta, own, tol):
    verdicts = []
    for (lo, hi), t, g in zip(game.theta_box, theta, own):
        if lo < t < hi:
            verdicts.append(CertVerdict.INTERIOR_STATIONARY if abs(g) <= tol
                            else CertVerdict.NOT_STATIONARY)
        elif (t <= lo and g >= -tol) or (t >= hi and g <= tol):
            verdicts.append(CertVerdict.BOUNDARY_DESCENT_OUTWARD)
        else:
            verdicts.append(CertVerdict.NOT_STATIONARY)
    return verdicts


def certify_first_order(game: ConfigGame, theta, settings: SolverSettings = None):
    """Per-player first-order verdicts at theta.

    Necessary conditions only: an interior point must have a vanishing
    own-gradient, a boundary point must not admit an inward descent
    direction.  No claim of global (or even local) optimality is made.
    ``IbrTrace.certification`` holds these verdicts at the search's end.
    """
    settings = settings if settings is not None else SolverSettings()
    _, own = _evaluate(game, theta, default_grid(game, settings.grid_steps))
    return _verdicts(game, theta, own, settings.stationarity_tol)


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of the non-strategic configuration baseline."""

    theta1_naive: float
    theta_star: tuple
    realized_value: float
    equilibrium_value: float
    gap: float
    naive_records: tuple
    ibr_trace: IbrTrace


def naive_baseline(game: ConfigGame, theta0, settings: SolverSettings = None) -> BaselineResult:
    """A minimizer that tunes against the opponent's initial parameter.

    Player 1 gradient-descends its own parameter against the frozen
    initial opponent parameter; the opponent meanwhile plays the
    alternating-search equilibrium component.  The realized value is the
    stage-two value at (naive theta1, equilibrium theta2); its gap above
    the equilibrium value measures the cost of ignoring the opponent's
    configuration response.  The naive first round is the search's first
    best response (same start, same frozen opponent), read from its trace;
    a realized profile that is the search's end point is not solved again,
    and one with no bounded stage-two solution raises its InfeasibleTheta.
    """
    if not game.zero_sum:
        raise ValueError("baseline is defined for two-player zero-sum games")
    settings = settings if settings is not None else SolverSettings()
    trace = ibr_solve(game, theta0, settings)
    grid = default_grid(game, settings.grid_steps)

    records = [r for r in trace.records if r.sweep == 1 and r.player == 0]
    start = trace.theta0[0]
    for round_ in range(2, settings.max_outer + 1):
        # a round resumes from the last record: it holds all _descend reads
        last = records[-1]
        if abs(last.theta[0] - start) <= settings.epsilon:
            break
        start = last.theta[0]
        _descend(game, np.array(last.theta), 0, settings, grid, np.array(last.values),
                 np.array([last.grad_own, np.nan]), round_, records)
    theta1_naive = float(records[-1].theta[0] if records else start)

    theta_star = trace.theta
    realized_profile = np.array([theta1_naive, theta_star[1]])
    equilibrium = realized = float(trace.values[0])
    if not np.array_equal(realized_profile, theta_star):
        (row,) = _evaluate_batch(game, [realized_profile], grid, gradients=[False])
        if isinstance(row, InfeasibleTheta):
            raise row
        realized = float(row[0][0])
    return BaselineResult(theta1_naive=theta1_naive, theta_star=theta_star,
                          realized_value=realized, equilibrium_value=equilibrium,
                          gap=realized - equilibrium,
                          naive_records=tuple(records), ibr_trace=trace)
