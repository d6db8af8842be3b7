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
from scipy.linalg import cho_factor, cho_solve

from ._stage import StageTables
from .errors import BlowUpDetected, PreconditionViolation
from .model import ConfigGame
from .odekit import (DEFAULT_BLOWUP_THRESHOLD, MatrixPath, TimeGrid,
                     backward_running_sum, integrate_backward, integrate_forward,
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


class PlayerStacks:
    """Per-player path views over stacked node arrays.

    ``P_nodes`` is (steps+1, N, n, n), ``zeta_nodes`` (steps+1, N, n) and
    ``eta_nodes`` (steps+1, N).  Zero-sum games store no offset arrays
    (None): their ``zeta`` and ``eta`` views read as exact zeros.  The
    views are built on access.
    """

    @property
    def num_players(self) -> int:
        return self.P_nodes.shape[1]

    def _views(self, nodes, shape):
        if nodes is None:
            nodes = np.zeros((self.grid.steps + 1, self.num_players) + shape)
        return tuple(MatrixPath(self.grid, np.ascontiguousarray(nodes[:, i]))
                     for i in range(self.num_players))

    @property
    def P(self) -> tuple:
        return self._views(self.P_nodes, ())

    @property
    def zeta(self) -> tuple:
        return self._views(self.zeta_nodes, self.P_nodes.shape[-1:])

    @property
    def eta(self) -> tuple:
        return self._views(self.eta_nodes, ())


@dataclass(frozen=True)
class StageTwoSolution(PlayerStacks):
    """Equilibrium solution bundle at one parameter vector.

    ``values`` holds the pure stage-two equilibrium costs (no first-stage
    regularizer; see stage_two_value for the regularized total).  For
    zero-sum games a single value matrix P is solved and stored as the
    stack (P, -P), with no offset arrays.  The samples at the RK4 stage
    times (``P_st``, ``F_st``, ``zeta_st``, ``beta_st``) are derived from
    the node arrays on first use.
    """

    theta: tuple
    grid: TimeGrid
    zero_sum: bool
    values: np.ndarray
    tables: StageTables = field(repr=False, compare=False)
    P_nodes: np.ndarray = field(repr=False)
    zeta_nodes: Optional[np.ndarray] = field(default=None, repr=False)
    eta_nodes: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def beta(self) -> MatrixPath:
        """Drive residual c - sum_i S^ii zeta^i at the nodes."""
        return MatrixPath(self.grid, self.beta_st[0::2])

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
    """Closed-loop state trajectory, controls, and quadrature costs."""

    x: MatrixPath
    u: tuple
    rollout_costs: np.ndarray


# -- backward passes ---------------------------------------------------------


def solve_coupled_riccati(game: ConfigGame, theta, grid: TimeGrid,
                          blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                          _tables: StageTables = None) -> MatrixPath:
    """Solve the N coupled quadratic matrix equations backward from Qf.

    All players advance as one stacked state so the closed-loop drift is
    re-evaluated from the full stack at every RK4 stage.  Each block is
    symmetrized after every step.  Blow-up is reported with the dominant
    player block and the divergence time; for the backward pass this means
    no bounded equilibrium exists at (theta, horizon).  Returns the stacked
    path with samples (steps+1, N, n, n).
    """
    tabs = _tables if _tables is not None else StageTables(game, theta, grid)
    N = game.num_players
    A, S, S_diag, Q = tabs.A, tabs.S, tabs.S_diag, tabs.Q

    def rhs(s, Y):
        F = A[s] - (S_diag[:, s] @ Y).sum(axis=0)
        YF = Y @ F
        cross = (Y[None] @ S[:, :, s] @ Y[None]).sum(axis=1)
        return -(YF + np.swapaxes(YF, -1, -2) + Q[:, s] + cross)

    terminal = np.stack([game.Qf[i] for i in range(N)])
    try:
        return integrate_backward(rhs, terminal, grid, blowup_threshold,
                                  project_state=_sym_stack)
    except BlowUpDetected as exc:
        raise _attribute_blowup(exc, N) from None


def solve_zerosum_riccati(game: ConfigGame, theta, grid: TimeGrid,
                          blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                          _tables: StageTables = None) -> MatrixPath:
    """Solve the single value-matrix equation of the two-player zero-sum game.

    Uses the difference coupling S_tilde = B2 B2' - B1 B1' (minimizer gets
    the negative-feedback block, maximizer the positive one).  Requires the
    zero-sum flag and a vanishing drive term; ``ConfigGame`` has already
    checked the negated costs and the identity own-control costs.
    """
    if not game.zero_sum:
        raise PreconditionViolation("game is not flagged zero-sum")
    tabs = _tables if _tables is not None else StageTables(game, theta, grid)
    if not tabs.c_is_zero:
        raise PreconditionViolation("zero-sum solve requires a vanishing drive term")

    A, Q = tabs.A, tabs.Q[0]
    Stilde = tabs.S_diag[1] - tabs.S_diag[0]

    def rhs(s, P):
        PA = P @ A[s]
        return -(PA + PA.T + Q[s] + P @ Stilde[s] @ P)

    try:
        return integrate_backward(rhs, game.Qf[0], grid, blowup_threshold,
                                  project_state=_sym_stack)
    except BlowUpDetected as exc:
        raise BlowUpDetected(time=exc.time, norm=exc.norm) from None


def solve_zeta(game: ConfigGame, theta, P: MatrixPath, grid: TimeGrid,
               _tables: StageTables = None) -> MatrixPath:
    """Solve the stacked linear pass for the affine offsets.

    The N offset vectors are coupled through the drive residual
    beta = c - sum_i S^{ii} zeta^i, so they advance as one stacked state.
    ``P`` is the stacked value-matrix path; returns the stacked offset
    path with samples (steps+1, N, n).
    """
    tabs = _tables if _tables is not None else StageTables(game, theta, grid)
    N, n = game.num_players, game.state_dim
    P_st = stage_samples(P.samples)
    F_st = _closed_loop(tabs, P_st)
    PS_st = np.einsum("mjab,ijmbc->ijmac", P_st, tabs.S, optimize=True)
    c, S_diag = tabs.c, tabs.S_diag

    def rhs(s, Z):
        zc = Z[:, :, None]
        beta = c[s] - (S_diag[:, s] @ zc)[:, :, 0].sum(axis=0)
        coupling = (PS_st[:, :, s] @ zc[None])[:, :, :, 0].sum(axis=1)
        return -(Z @ F_st[s] + coupling + P_st[s] @ beta)

    return integrate_backward(rhs, np.zeros((N, n)), grid)


def solve_eta(game: ConfigGame, theta, zeta: MatrixPath, grid: TimeGrid,
              _tables: StageTables = None) -> MatrixPath:
    """Backward running integral for the per-player scalar value constants.

    ``zeta`` is the stacked offset path; returns the stacked path of the
    constants with samples (steps+1, N).
    """
    tabs = _tables if _tables is not None else StageTables(game, theta, grid)
    z_st = stage_samples(zeta.samples)
    beta_st = _drive_residual(tabs, z_st)
    quad = np.einsum("mja,ijmab,mjb->mi", z_st, tabs.S, z_st, optimize=True)
    integrand = np.einsum("ma,mia->mi", beta_st, z_st) + 0.5 * quad
    return backward_running_sum(integrand, grid)


# -- assembly ----------------------------------------------------------------


def solve_stage_two(game: ConfigGame, theta, grid: TimeGrid = None,
                    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> StageTwoSolution:
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
        P = solve_zerosum_riccati(game, theta, grid, blowup_threshold, _tables=tabs)
        J = 0.5 * float(x0 @ P.initial @ x0)
        return StageTwoSolution(
            theta=tuple(theta), grid=grid, zero_sum=True, values=np.array([J, -J]),
            tables=tabs, P_nodes=np.stack([P.samples, -P.samples], axis=1))

    P = solve_coupled_riccati(game, theta, grid, blowup_threshold, _tables=tabs)
    zeta = solve_zeta(game, theta, P, grid, _tables=tabs)
    eta = solve_eta(game, theta, zeta, grid, _tables=tabs)
    P0, z0, e0 = P.initial, zeta.initial, eta.initial
    values = np.array([
        0.5 * float(x0 @ P0[i] @ x0) + float(z0[i] @ x0) + float(e0[i])
        for i in range(game.num_players)
    ])
    return StageTwoSolution(
        theta=tuple(theta), grid=grid, zero_sum=False, values=values, tables=tabs,
        P_nodes=P.samples, zeta_nodes=zeta.samples, eta_nodes=eta.samples)


def stage_two_value(game: ConfigGame, solution: StageTwoSolution, x0, i: int) -> float:
    """Player i's equilibrium value from the t=0 solution samples.

    When the game carries a regularizer for player i, its parameter-only
    term is added, giving that player's total first-stage cost.
    """
    x0 = np.asarray(x0, dtype=float)
    val = (0.5 * float(x0 @ solution.P[i].initial @ x0)
           + float(solution.zeta[i].initial @ x0)
           + float(solution.eta[i].initial))
    if game.regularizers and game.regularizers[i] is not None:
        val += float(game.regularizers[i].value(np.asarray(solution.theta)))
    return val


def stage_one_costs(game: ConfigGame, solution: StageTwoSolution) -> np.ndarray:
    """All players' first-stage costs (stage-two values plus regularizers)."""
    return solution.values + game.regularizer_values(np.asarray(solution.theta))


def rollout(game: ConfigGame, theta, solution: StageTwoSolution,
            grid: TimeGrid = None) -> TrajectoryRollout:
    """Forward-integrate the closed loop and integrate the realized costs.

    The state follows dx/dt = F(t) x + beta(t); controls are reconstructed
    from the feedback law at every node; each player's cost is the Simpson
    quadrature of their running quadratic forms plus the terminal cost.
    """
    theta = np.asarray(theta, dtype=float)
    if grid is None:
        grid = solution.grid
    if grid != solution.grid:
        raise ValueError("rollout grid must match the solution grid")
    F_st, beta_st = solution.F_st, solution.beta_st

    def rhs(s, x):
        return F_st[s] @ x + beta_st[s]

    x_path = integrate_forward(rhs, game.x0, grid)
    xs = x_path.samples
    N = game.num_players
    nodes = grid.nodes

    us = []
    P, zeta = solution.P, solution.zeta
    for i in range(N):
        Bi = game.B[i]
        Rii = game.R[i][i]
        Pi = P[i].samples
        zi = zeta[i].samples
        if Bi.time_varying or Rii.time_varying:
            ui = np.empty((grid.steps + 1, game.control_dims[i]))
            for j, t in enumerate(nodes):
                chol = cho_factor(Rii(t, theta), lower=True)
                ui[j] = -cho_solve(chol, Bi(t, theta).T @ (Pi[j] @ xs[j] + zi[j]))
        else:
            Bmat = Bi(0.0, theta)
            chol = cho_factor(Rii(0.0, theta), lower=True)
            pre = np.einsum("ab,tb->ta", Bmat.T, np.einsum("tab,tb->ta", Pi, xs) + zi)
            ui = -cho_solve(chol, pre.T).T
        us.append(MatrixPath(grid, ui))

    Q_nodes = solution.tables.Q_nodes
    running = np.einsum("ta,itab,tb->ti", xs, Q_nodes, xs)
    for i in range(N):
        for j in range(N):
            Rij = game.R[i][j]
            uj = us[j].samples
            if Rij.time_varying:
                vals = np.array([uj[m] @ Rij(t, theta) @ uj[m]
                                 for m, t in enumerate(nodes)])
            else:
                Rmat = Rij(0.0, theta)
                vals = np.einsum("ta,ab,tb->t", uj, Rmat, uj)
            running[:, i] += vals
    integrals = simpson_nodes(running, grid)
    xT = xs[-1]
    costs = np.array([
        0.5 * (integrals[i] + float(xT @ game.Qf[i] @ xT)) for i in range(N)
    ])
    return TrajectoryRollout(x=x_path, u=tuple(us), rollout_costs=costs)
