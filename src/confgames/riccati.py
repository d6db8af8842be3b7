"""Stage-two equilibrium solver.

Given a fixed parameter vector, the feedback Nash equilibrium of the
affine-quadratic game is characterized by a triangular pipeline of
backward passes: the coupled quadratic matrix equations for the value
matrices P, a stacked linear pass for the affine offsets zeta (coupled
through the drive residual beta), and per-player scalar quadratures for
the value constants eta.  Player values and feedback strategies are read
off the t=0 samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._stage import StageTables
from .errors import BlowUpDetected, PreconditionViolation
from .model import ConfigGame
from .odekit import (TimeGrid, backward_running_sum, integrate_backward, integrate_forward,
                     simpson_nodes, stage_samples)

DEFAULT_STEPS = 1000


def default_grid(game: ConfigGame, steps: int = DEFAULT_STEPS) -> TimeGrid:
    return TimeGrid(game.horizon, steps)


def _sym_stack(Y):
    return 0.5 * (Y + np.swapaxes(Y, -1, -2))


def _attribute_blowup(exc: BlowUpDetected, num_players: int) -> BlowUpDetected:
    player = None
    if exc.state is not None and exc.state.ndim >= 3 and exc.state.shape[0] == num_players:
        norms = np.linalg.norm(exc.state.reshape(num_players, -1), axis=1)
        player = int(np.argmax(norms))
    return BlowUpDetected(time=exc.time, norm=exc.norm, player=player)


@dataclass(frozen=True)
class StageTwoSolution:
    """Equilibrium solution bundle at one parameter vector.

    ``values`` holds the pure stage-two equilibrium costs (no first-stage
    regularizer; stage_one_costs adds it).  The game, theta and grid it
    was solved at are those of ``tables``.  The paths are node arrays:
    ``P_nodes`` (steps+1, N, n, n), ``zeta_nodes`` (steps+1, N, n) and
    ``eta_nodes`` (steps+1, N).  For zero-sum games a single value matrix
    P is solved and stored as the stack (P, -P), with no offset arrays
    (None).  The samples at the RK4 stage times (``P_st``, ``F_st``,
    ``zeta_st``, ``beta_st``) are the arrays the general-sum passes ran
    on; a zero-sum solution derives them from the node arrays on first
    use, and its ``zeta_st`` and ``beta_st`` are exact zeros.
    """

    values: np.ndarray
    tables: StageTables = field(repr=False, compare=False)
    P_nodes: np.ndarray = field(repr=False)
    zeta_nodes: Optional[np.ndarray] = field(default=None, repr=False)
    eta_nodes: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def P_st(self) -> np.ndarray:
        return stage_samples(self.P_nodes)

    @cached_property
    def F_st(self) -> np.ndarray:
        return _closed_loop(self.tables, self.P_st)

    @cached_property
    def zeta_st(self) -> np.ndarray:
        if self.zeta_nodes is None:
            return np.zeros(self.P_st.shape[:-1])
        return stage_samples(self.zeta_nodes)

    @cached_property
    def beta_st(self) -> np.ndarray:
        return _drive_residual(self.tables, self.zeta_st)


def _closed_loop(tabs: StageTables, P_st):
    """Closed-loop drift F = A - sum_i S^ii P^i at every stage time."""
    return tabs.A - np.einsum("imab,mibc->mac", tabs.S_diag, P_st)


def _drive_residual(tabs: StageTables, zeta_st):
    """Drive residual beta = c - sum_i S^ii zeta^i at every stage time."""
    return tabs.c - np.einsum("imab,mib->ma", tabs.S_diag, zeta_st)


@dataclass(frozen=True)
class TrajectoryRollout:
    """Closed-loop state trajectory, controls, and quadrature costs.

    ``x`` holds the states at the nodes, (steps+1, n); ``u`` one control
    array (steps+1, m_i) per player.
    """

    x: np.ndarray
    u: tuple
    rollout_costs: np.ndarray


def _check_solution(solution: StageTwoSolution, game: ConfigGame, theta,
                    grid: TimeGrid = None):
    """Reject a game, theta or grid (when given) other than the ones
    ``solution`` was solved at; the game is compared by identity."""
    tabs = solution.tables
    if game is not tabs.game:
        raise ValueError("game is not the game the solution was solved for")
    if grid is not None and grid != tabs.grid:
        raise ValueError(f"grid {grid} does not match the solution grid {tabs.grid}")
    if not np.array_equal(theta, tabs.theta):
        raise ValueError(f"theta {np.asarray(theta).tolist()} does not match the "
                         f"solution theta {tabs.theta.tolist()}")


# -- backward passes ---------------------------------------------------------


def solve_coupled_riccati(tabs: StageTables) -> np.ndarray:
    """Solve the N coupled quadratic matrix equations backward from Qf.

    Runs on the game, theta and grid ``tabs`` was sampled for.  All
    players advance as one stacked state so the closed-loop drift is
    re-evaluated from the full stack at every RK4 stage.  Each block is
    symmetrized after every step.  Blow-up is reported with the dominant
    player block and the divergence time; for the backward pass this means
    no bounded equilibrium exists at (theta, horizon).  Returns the node
    samples of the stack, (steps+1, N, n, n).
    """
    game = tabs.game
    N = game.num_players
    A, S, S_diag, Q = tabs.A, tabs.S, tabs.S_diag, tabs.Q

    def rhs(s, Y):
        F = A[s] - (S_diag[:, s] @ Y).sum(axis=0)
        YF = Y @ F
        cross = (Y[None] @ S[:, :, s] @ Y[None]).sum(axis=1)
        return -(YF + np.swapaxes(YF, -1, -2) + Q[:, s] + cross)

    terminal = np.stack([game.Qf[i] for i in range(N)])
    try:
        return integrate_backward(rhs, terminal, tabs.grid, project_state=_sym_stack)
    except BlowUpDetected as exc:
        raise _attribute_blowup(exc, N) from None


def solve_zerosum_riccati(tabs: StageTables) -> np.ndarray:
    """Solve the single value-matrix equation of the two-player zero-sum game.

    Uses the difference coupling S_tilde = B2 B2' - B1 B1' (minimizer gets
    the negative-feedback block, maximizer the positive one).  Requires the
    zero-sum flag and a vanishing drive term; ``ConfigGame`` has already
    checked the negated costs and the identity own-control costs.  Returns
    the node samples of P, (steps+1, n, n).
    """
    game = tabs.game
    if not game.zero_sum:
        raise PreconditionViolation("game is not flagged zero-sum")
    if not tabs.c_is_zero:
        raise PreconditionViolation("zero-sum solve requires a vanishing drive term")

    A, Q = tabs.A, tabs.Q[0]
    Stilde = tabs.S_diag[1] - tabs.S_diag[0]

    def rhs(s, P):
        PA = P @ A[s]
        return -(PA + PA.T + Q[s] + P @ Stilde[s] @ P)

    try:
        return integrate_backward(rhs, game.Qf[0], tabs.grid, project_state=_sym_stack)
    except BlowUpDetected as exc:
        raise BlowUpDetected(time=exc.time, norm=exc.norm) from None


def solve_zeta(tabs: StageTables, P_st: np.ndarray, F_st: np.ndarray) -> np.ndarray:
    """Solve the stacked linear pass for the affine offsets.

    The N offset vectors are coupled through the drive residual
    beta = c - sum_i S^{ii} zeta^i, so they advance as one stacked state.
    ``P_st`` and ``F_st`` hold the value matrices and the closed-loop drift
    at the stage times, as StageTwoSolution keeps them; returns the
    offsets at the nodes, (steps+1, N, n).
    """
    N, n = tabs.game.num_players, tabs.game.state_dim
    PS_st = np.einsum("mjab,ijmbc->ijmac", P_st, tabs.S, optimize=True)
    c, S_diag = tabs.c, tabs.S_diag

    def rhs(s, Z):
        zc = Z[:, :, None]
        beta = c[s] - (S_diag[:, s] @ zc)[:, :, 0].sum(axis=0)
        coupling = (PS_st[:, :, s] @ zc[None])[:, :, :, 0].sum(axis=1)
        return -(Z @ F_st[s] + coupling + P_st[s] @ beta)

    return integrate_backward(rhs, np.zeros((N, n)), tabs.grid)


def solve_eta(tabs: StageTables, zeta_st: np.ndarray, beta_st: np.ndarray) -> np.ndarray:
    """Backward running integral for the per-player scalar value constants.

    ``zeta_st`` and ``beta_st`` hold the offsets and the drive residual at
    the stage times; returns the constants at the nodes, (steps+1, N).
    """
    quad = np.einsum("mja,ijmab,mjb->mi", zeta_st, tabs.S, zeta_st, optimize=True)
    integrand = np.einsum("ma,mia->mi", beta_st, zeta_st) + 0.5 * quad
    return backward_running_sum(integrand, tabs.grid)


# -- assembly ----------------------------------------------------------------


def solve_stage_two(game: ConfigGame, theta, grid: TimeGrid = None) -> StageTwoSolution:
    """Full stage-two pipeline at one parameter vector.

    Dispatches to the single-matrix zero-sum pass when the game is flagged
    zero-sum, otherwise runs the coupled system followed by the affine
    passes.  ``theta`` must lie inside the parameter box.
    """
    theta = np.asarray(theta, dtype=float)
    if not game.contains_theta(theta):
        raise ValueError(f"theta {tuple(theta)} outside the parameter box {game.theta_box}")
    if grid is None:
        grid = default_grid(game)
    tabs = StageTables(game, theta, grid)
    x0 = game.x0

    if game.zero_sum:
        P = solve_zerosum_riccati(tabs)
        J = 0.5 * float(x0 @ P[0] @ x0)
        return StageTwoSolution(values=np.array([J, -J]), tables=tabs,
                                P_nodes=np.stack([P, -P], axis=1))

    P = solve_coupled_riccati(tabs)
    P_st = stage_samples(P)
    F_st = _closed_loop(tabs, P_st)
    zeta = solve_zeta(tabs, P_st, F_st)
    zeta_st = stage_samples(zeta)
    beta_st = _drive_residual(tabs, zeta_st)
    eta = solve_eta(tabs, zeta_st, beta_st)
    values = np.array([
        0.5 * float(x0 @ P[0, i] @ x0) + float(zeta[0, i] @ x0) + float(eta[0, i])
        for i in range(game.num_players)
    ])
    solution = StageTwoSolution(values=values, tables=tabs, P_nodes=P, zeta_nodes=zeta,
                                eta_nodes=eta)
    # the gradient and rollout read the very samples the passes ran on
    vars(solution).update(P_st=P_st, F_st=F_st, zeta_st=zeta_st, beta_st=beta_st)
    return solution


def stage_one_costs(solution: StageTwoSolution) -> np.ndarray:
    """All players' first-stage costs (stage-two values plus regularizers)."""
    tabs = solution.tables
    return solution.values + tabs.game.regularizer_values(tabs.theta)


def rollout(game: ConfigGame, theta, solution: StageTwoSolution) -> TrajectoryRollout:
    """Forward-integrate the closed loop and integrate the realized costs.

    The state follows dx/dt = F(t) x + beta(t) on the solution's grid;
    controls are reconstructed from the feedback law at every node, with
    B and R read from the node rows of the solution's tables; each
    player's cost is the Simpson quadrature of their running quadratic
    forms plus the terminal cost.  ``game`` and ``theta`` must be the ones
    ``solution`` was solved at.
    """
    _check_solution(solution, game, np.asarray(theta, dtype=float))
    tabs = solution.tables
    grid = tabs.grid
    F_st, beta_st = solution.F_st, solution.beta_st

    def rhs(s, x):
        return F_st[s] @ x + beta_st[s]

    xs = integrate_forward(rhs, game.x0, grid)
    N = game.num_players
    R = [[Rij[0::2] for Rij in row] for row in tabs.R]
    feedback = (np.einsum("tiab,tb->tia", solution.P_nodes, xs)
                + solution.zeta_st[0::2])
    us = []
    for i in range(N):
        pre = np.einsum("tba,tb->ta", tabs.B[i][0::2], feedback[:, i])
        us.append(-np.linalg.solve(R[i][i], pre[..., None])[..., 0])

    running = np.einsum("ta,itab,tb->ti", xs, tabs.Q[:, 0::2], xs)
    for i in range(N):
        for j in range(N):
            running[:, i] += np.einsum("ta,tab,tb->t", us[j], R[i][j], us[j])
    integrals = simpson_nodes(running, grid)
    xT = xs[-1]
    costs = np.array([
        0.5 * (integrals[i] + float(xT @ game.Qf[i] @ xT)) for i in range(N)
    ])
    return TrajectoryRollout(x=xs, u=tuple(us), rollout_costs=costs)
