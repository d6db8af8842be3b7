"""Stage-two equilibrium solver.

Given a fixed parameter vector, the feedback Nash equilibrium of the
affine-quadratic game is characterized by a triangular pipeline of
backward passes: the coupled quadratic matrix equations for the value
matrices P, a stacked linear pass for the affine offsets zeta (coupled
through the drive residual beta), and per-player scalar quadratures for
the value constants eta.  Player values and feedback strategies are read
off the t=0 samples.  The pipeline runs on a batch of parameter vectors
at once, every pass advancing all members as one stacked state; one
parameter vector is the one-member batch.  Both game kinds keep one
layout: a zero-sum game's single value matrix P is stored as the player
stack (P, -P), and the stage-time samples are formed from the node arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from ._stage import StageTables, _compact, _rows
from .errors import BlowUpDetected, PreconditionViolation
from .model import ConfigGame
from .odekit import (StageBlocks, TimeGrid, backward_running_sum, integrate_backward,
                     integrate_forward, simpson_nodes, stage_blocks, stage_samples)

DEFAULT_STEPS = 1000


def default_grid(game: ConfigGame, steps: int = DEFAULT_STEPS) -> TimeGrid:
    return TimeGrid(game.horizon, steps)


def _plus_mT(Y):
    """Y plus its transpose over the last two axes; numpy adds a contiguous
    copy of the transpose faster than the strided view, with the same bits."""
    return Y + Y.mT.copy()


def _sym_stack(Y):
    return 0.5 * _plus_mT(Y)


def _attribute_blowup(exc: BlowUpDetected, num_players: int) -> BlowUpDetected:
    """``exc`` naming the player whose block of the member state is largest."""
    norms = np.linalg.norm(exc.state.reshape(num_players, -1), axis=1)
    return BlowUpDetected(time=exc.time, norm=exc.norm, player=int(np.argmax(norms)))


@dataclass(frozen=True)
class StageTwoBatch:
    """Stage-two solutions of the bounded members of a batch, stacked on a
    member axis (the second axis of every array).

    ``members`` holds their rows in the requested batch and ``tables`` are
    theirs.  The node arrays are ``P_nodes`` (steps+1, B, N, n, n),
    ``zeta_nodes`` (steps+1, B, N, n) and ``eta_nodes`` (steps+1, B, N).  A
    zero-sum batch solves a single value matrix P per member and stores it
    as the player stack (P, -P), with no offset arrays (None).  Nothing
    else is stored: ``values`` is read off the t=0 nodes, and value_rows
    and offset_rows form the stage-time samples at any stage rows.
    """

    tables: StageTables = field(repr=False)
    members: np.ndarray
    P_nodes: np.ndarray = field(repr=False)
    zeta_nodes: Optional[np.ndarray] = field(default=None, repr=False)
    eta_nodes: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def values(self) -> np.ndarray:
        """Pure stage-two costs (B, N) at t=0: 1/2 x0' P^i x0, plus zeta^i' x0 +
        eta^i when the batch holds offsets; the zero-sum stack (P, -P) gives (J, -J)."""
        x0, P0 = self.tables.game.x0, self.P_nodes[0]
        values = 0.5 * np.reshape([[x0 @ P @ x0 for P in member] for member in P0], P0.shape[:2])
        if self.zeta_nodes is None:
            return values
        return (values + np.reshape([[z @ x0 for z in member] for member in self.zeta_nodes[0]],
                                    P0.shape[:2]) + self.eta_nodes[0])

    def value_rows(self, rows: slice):
        """P (rows, B, N, n, n) and the closed-loop drift F (rows, B, n, n)
        at the stage ``rows``."""
        P = stage_samples(self.P_nodes, rows)
        return P, _closed_loop(self.tables, P, rows)

    def offset_rows(self, rows: slice):
        """zeta (rows, B, N, n) and the drive residual beta (rows, B, n) at
        the stage ``rows``; a zero-sum batch's zeta is exact zeros."""
        zeta = (np.zeros(self.tables.S_diag[rows].shape[:-1]) if self.zeta_nodes is None
                else stage_samples(self.zeta_nodes, rows))
        return zeta, _drive_residual(self.tables, zeta, rows)

    def select(self, keep) -> "StageTwoBatch":
        """The batch of the members at the positions ``keep``."""
        keep = list(keep)
        zeta, eta = (None if a is None else a[:, keep] for a in (self.zeta_nodes, self.eta_nodes))
        return StageTwoBatch(tables=self.tables.select(keep), members=self.members[keep],
                             P_nodes=self.P_nodes[:, keep], zeta_nodes=zeta, eta_nodes=eta)

    def _without(self, blown, failures) -> "StageTwoBatch":
        """The batch without the members ``blown`` (member -> BlowUpDetected)
        of a pass, which go to ``failures`` under their rows."""
        failures.update((int(self.members[b]), exc) for b, exc in blown.items())
        return self.select(b for b in range(len(self.members)) if b not in blown) if blown else self


def _closed_loop(tabs: StageTables, P_st, rows: slice = slice(None)):
    """Closed-loop drift F = A - sum_i S^ii P^i at the stage ``rows`` (all by
    default) and every member, from the samples ``P_st`` at those rows."""
    return tabs.A[rows, None] - np.einsum("m...iab,m...ibc->m...ac", tabs.S_diag[rows], P_st)


def _drive_residual(tabs: StageTables, zeta_st, rows: slice = slice(None)):
    """Drive residual beta = c - sum_i S^ii zeta^i at the stage ``rows`` (all
    by default) and every member, from the samples ``zeta_st`` at those rows."""
    return tabs.c[rows, None] - np.einsum("m...iab,m...ib->m...a", tabs.S_diag[rows], zeta_st)


@dataclass(frozen=True)
class TrajectoryRollout:
    """Closed-loop state trajectories, controls and quadrature costs of a batch.

    ``x`` holds the states at the nodes, (steps+1, B, n); ``u`` one control
    array (steps+1, B, m_i) per player; ``rollout_costs`` (B, N).
    """

    x: np.ndarray
    u: tuple
    rollout_costs: np.ndarray


def _check_solution(batch: StageTwoBatch, game: ConfigGame, thetas, grid: TimeGrid = None):
    """Reject a game, thetas or grid (when given) other than the ones
    ``batch`` was solved at; the game is compared by identity and the
    thetas row by row (one vector stands for a one-member batch)."""
    tabs = batch.tables
    if game is not tabs.game:
        raise ValueError("game is not the game the solution was solved for")
    if grid is not None and grid != tabs.grid:
        raise ValueError(f"grid {grid} does not match the solution grid {tabs.grid}")
    thetas = np.atleast_2d(thetas)
    if not np.array_equal(thetas, tabs.thetas):
        raise ValueError(f"theta {thetas.tolist()} does not match the "
                         f"solution theta {tabs.thetas.tolist()}")


# -- backward passes ---------------------------------------------------------
#
# Each pass advances every member of the tables as one stacked state and
# returns its node samples, member axis second, with the members that blew
# up ({member: BlowUpDetected}); those go on from zero and are dropped by
# the caller before the next pass.


def _stage_rows(table):
    """``table``'s stage rows as a list, read once if broadcast (stride 0)."""
    return [table[0]] * len(table) if table.strides[0] == 0 else list(table)


def solve_coupled_riccati(tabs: StageTables):
    """Solve the N coupled quadratic matrix equations backward from Qf.

    Runs on the game, thetas and grid ``tabs`` was sampled for.  All
    players advance as one stacked state so the closed-loop drift is
    re-evaluated from the full stack at every RK4 stage.  Each block is
    symmetrized after every step.  Blow-up is reported with the dominant
    player block and the divergence time; for the backward pass this means
    no bounded equilibrium exists at (theta, horizon).  Returns the node
    samples (steps+1, B, N, n, n) and the blow-ups.
    """
    game = tabs.game
    N = game.num_players
    A, S, S_diag, Q = (_stage_rows(t) for t in (tabs.A, tabs.S, tabs.S_diag, tabs.Q))

    def rhs(s, Y):
        F = A[s] - np.add.reduce(S_diag[s] @ Y, axis=1)
        cross = np.add.reduce(Y[:, None] @ S[s] @ Y[:, None], axis=2)
        return -(_plus_mT(Y @ F[:, None]) + Q[s] + cross)

    terminal = np.stack([game.Qf[i] for i in range(N)])
    terminal = np.broadcast_to(terminal, (len(tabs.thetas),) + terminal.shape)
    blowups = {}
    P = integrate_backward(rhs, terminal, tabs.grid, project_state=_sym_stack, blowups=blowups)
    return P, {b: _attribute_blowup(exc, N) for b, exc in blowups.items()}


def solve_zerosum_riccati(tabs: StageTables):
    """Solve the single value-matrix equation of the two-player zero-sum game.

    Uses the difference coupling S_tilde = S^22 - S^11, with
    S^jj = B^j (R^jj)^-1 B^j' (minimizer gets the negative-feedback block,
    maximizer the positive one).  Requires the zero-sum flag and a
    vanishing drive term; ``ConfigGame`` has already checked the negated
    costs.  Returns the node samples of P (steps+1, B, n, n) and the
    blow-ups.
    """
    game = tabs.game
    if not game.zero_sum:
        raise PreconditionViolation("game is not flagged zero-sum")
    if not tabs.c_is_zero:
        raise PreconditionViolation("zero-sum solve requires a vanishing drive term")

    A, Q, Stilde = (_stage_rows(t) for t in (tabs.A, tabs.Q[:, :, 0], _zerosum_coupling(tabs)))

    def rhs(s, P):
        return -(_plus_mT(P @ A[s]) + Q[s] + P @ Stilde[s] @ P)

    terminal = np.broadcast_to(game.Qf[0], (len(tabs.thetas),) + game.Qf[0].shape)
    blowups = {}
    P = integrate_backward(rhs, terminal, tabs.grid, project_state=_sym_stack, blowups=blowups)
    return P, blowups


def _zerosum_coupling(tabs: StageTables):
    """S_tilde = S^22 - S^11 at every stage time and member (broadcast when
    both are)."""
    M, B = tabs.S_diag.shape[:2]
    Sd = _compact(tabs.S_diag)
    Stilde = Sd[:, :, 1] - Sd[:, :, 0]
    return np.broadcast_to(Stilde, (M, B) + Stilde.shape[2:])


def solve_zeta(tabs: StageTables, P_nodes: np.ndarray):
    """Solve the stacked linear pass for the affine offsets.

    The N offset vectors are coupled through the drive residual
    beta = c - sum_i S^{ii} zeta^i, so they advance as one stacked state.
    ``P_nodes`` (steps+1, B, N, n, n) holds the value matrices at the
    nodes; returns the offsets at the nodes, (steps+1, B, N, n), and the
    blow-ups.  The value matrices and the closed-loop drift at the stage
    times and the products P^j S^ij are formed a block of stage rows at a
    time as the pass reaches them.
    """
    N, n = tabs.game.num_players, tabs.game.state_dim
    S = _compact(tabs.S)

    def block(r):
        P = stage_samples(P_nodes, r)
        PS = np.einsum("m...jab,m...ijbc->m...ijac", P, _rows(S, r), optimize=True)
        return list(zip(P, _closed_loop(tabs, P, r), PS))

    stage = StageBlocks(block, len(tabs.grid.stage_times), tabs.coupling_elems)
    c, S_diag = (_stage_rows(t) for t in (tabs.c, tabs.S_diag))

    def rhs(s, Z):
        P, F, PS = stage[s]
        zc = Z[..., None]
        beta = c[s] - np.add.reduce((S_diag[s] @ zc)[..., 0], axis=1)
        coupling = np.add.reduce((PS @ zc[:, None])[..., 0], axis=2)
        return -(Z @ F + coupling + (P @ beta[:, None, :, None])[..., 0])

    blowups = {}
    zeta = integrate_backward(rhs, np.zeros((len(tabs.thetas), N, n)), tabs.grid,
                              blowups=blowups)
    return zeta, blowups


def solve_eta(tabs: StageTables, zeta_nodes: np.ndarray):
    """Backward running integral for the per-player scalar value constants.

    ``zeta_nodes`` (steps+1, B, N, n) holds the offsets at the nodes;
    returns the constants at the nodes, (steps+1, B, N), and the blow-ups.
    The integrand, with the offsets and the drive residual at the stage
    times that it reads, is formed a block of stage rows at a time.
    """
    _, B, N, n = zeta_nodes.shape
    M = len(tabs.grid.stage_times)
    integrand = np.empty((M, B, N))
    for r in stage_blocks(M, tabs.coupling_elems):
        z_st = stage_samples(zeta_nodes, r)
        z = z_st.reshape(-1, N, n)
        quad = np.einsum("mja,ijmab,mjb->mi", z, tabs.dense_S(r), z,
                         optimize=True).reshape(integrand[r].shape)
        integrand[r] = (np.einsum("m...a,m...ia->m...i", _drive_residual(tabs, z_st, r), z_st)
                        + 0.5 * quad)
    blowups = {}
    eta = backward_running_sum(integrand, tabs.grid, blowups=blowups)
    return eta, blowups


# -- assembly ----------------------------------------------------------------


def _value_pass(tabs: StageTables):
    """Node samples (steps+1, B, N, n, n) and blow-ups of the value-matrix
    pass: the coupled system, or the zero-sum P stored as (P, -P)."""
    if not tabs.game.zero_sum:
        return solve_coupled_riccati(tabs)
    P, blowups = solve_zerosum_riccati(tabs)
    return np.stack([P, -P], axis=2), blowups


def _solve_batch(game: ConfigGame, thetas, grid: TimeGrid = None):
    """The stage-two pipeline at every row of ``thetas``, advanced as one batch.

    Runs the value-matrix pass, then the affine passes unless the game is
    flagged zero-sum or no member is left.  Every theta must lie inside the
    parameter box.  Returns the StageTwoBatch of the members that stayed
    bounded and the blow-ups of the others, {row: BlowUpDetected}; a member
    that blows up in one pass is selected out of the batch before the next.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    for theta in thetas:
        if not game.contains_theta(theta):
            raise ValueError(f"theta {theta.tolist()} outside the parameter box {game.theta_box}")
    if grid is None:
        grid = default_grid(game)
    tabs, failures = StageTables(game, thetas, grid), {}
    P, blown = _value_pass(tabs)
    batch = StageTwoBatch(tabs, np.arange(len(thetas)), P)._without(blown, failures)
    if not game.zero_sum and len(batch.members):
        zeta, blown = solve_zeta(batch.tables, batch.P_nodes)
        eta, late = solve_eta(batch.tables, zeta)
        batch = replace(batch, zeta_nodes=zeta, eta_nodes=eta)._without({**late, **blown}, failures)
    return batch, failures


def solve_stage_two(game: ConfigGame, theta, grid: TimeGrid = None) -> StageTwoBatch:
    """Full stage-two pipeline at one parameter vector, returned as the
    one-member StageTwoBatch it is solved as.

    ``theta`` must lie inside the parameter box; raises BlowUpDetected when
    no bounded solution exists there.
    """
    batch, failures = _solve_batch(game, np.asarray(theta, dtype=float)[None], grid)
    if failures:
        raise failures[0]
    return batch


def stage_one_costs(batch: StageTwoBatch) -> np.ndarray:
    """Every member's first-stage costs, (B, N): its stage-two values plus
    the regularizers of the batch's game at its theta."""
    tabs = batch.tables
    regs = [tabs.game.regularizer_values(theta) for theta in tabs.thetas]
    return batch.values + np.reshape(regs, batch.values.shape)


def rollout(game: ConfigGame, thetas, batch: StageTwoBatch) -> TrajectoryRollout:
    """Forward-integrate the closed loop of every member and integrate the
    realized costs.

    The states of all members follow dx/dt = F(t) x + beta(t) as one
    (B, n) forward pass on the batch's grid; controls are reconstructed
    from the feedback law at every node, with B and R read from the node
    rows of the batch's tables; each player's cost is the Simpson
    quadrature of their running quadratic forms, member by member, plus
    the terminal cost.  ``game`` and ``thetas`` must be the ones ``batch``
    was solved at.  A member's rollout does not depend on its batch.
    """
    _check_solution(batch, game, np.asarray(thetas, dtype=float))
    tabs = batch.tables
    F_st = batch.value_rows(slice(None))[1]
    zeta_st, beta_st = batch.offset_rows(slice(None))

    def rhs(s, x):
        return (F_st[s] @ x[..., None])[..., 0] + beta_st[s]

    xs = integrate_forward(rhs, np.broadcast_to(game.x0, beta_st.shape[1:]), tabs.grid)
    N = game.num_players
    R = [[Rij[0::2, None] for Rij in row] for row in tabs.R]
    col, row = xs[:, :, None, :, None], xs[:, :, None, None, :]
    feedback = (batch.P_nodes @ col)[..., 0] + zeta_st[0::2]
    us = []
    for i in range(N):
        pre = tabs.B[i][0::2].mT @ feedback[:, :, i, :, None]
        us.append(-np.linalg.solve(R[i][i], pre)[..., 0])

    running = (row @ tabs.Q[0::2] @ col)[..., 0, 0]
    for i in range(N):
        for j in range(N):
            running[:, :, i] += (us[j][..., None, :] @ R[i][j] @ us[j][..., None])[..., 0, 0]
    xT = xs[-1, :, None]
    terminal = (xT[:, :, None] @ np.stack(game.Qf) @ xT[..., None])[..., 0, 0]
    # Simpson member by member: over the whole stack its last bits would depend on B
    running = np.ascontiguousarray(np.moveaxis(running, 1, 0))
    integrals = np.reshape([simpson_nodes(r, tabs.grid) for r in running], terminal.shape)
    return TrajectoryRollout(x=xs, u=tuple(us), rollout_costs=0.5 * (integrals + terminal))
