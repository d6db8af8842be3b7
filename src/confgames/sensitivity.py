"""Exact parameter gradients of the stage-two equilibrium values.

Differentiating the stage-two pipeline with respect to one player's
parameter yields linear backward systems in the path derivatives of P,
zeta, and eta, with coefficients read from the stored stage-two solution.
The value gradient is assembled from the t=0 samples; a quadrature form
of each player's own-parameter derivative along the equilibrium
trajectory is provided as an independent cross-check.  Both give one row
per member of a batch.

Dedicated linear systems (not automatic differentiation of the
integrator) keep every intermediate object checkable stage by stage.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._stage import _compact, _rows
from .errors import BlowUpDetected, InfeasibleTheta
from .model import ConfigGame
from .odekit import (StageBlocks, TimeGrid, backward_running_sum, integrate_backward,
                     simpson_nodes, stage_blocks, stage_samples)
from .riccati import (StageTwoBatch, _check_solution, _plus_mT, _sym_stack,
                      _zerosum_coupling, rollout, solve_stage_two)


def _raise_first(blowups):
    """Raise the blow-up of the lowest member, as that member's own solve
    would raise it; a sensitivity pass has no feasible fallback."""
    if blowups:
        raise blowups[min(blowups)]


def _coupling_tables(tabs, P, rows):
    """H[.., i, j] = S^{ij} P^j - S^{jj} P^i at the stage ``rows`` and every
    member (zero at j=i), (rows, B, N, N, n, n), from P at those rows."""
    H = np.einsum("m...ijab,m...jbc->m...ijac", _rows(_compact(tabs.S), rows), P,
                  optimize=True)
    H -= np.einsum("m...jab,m...ibc->m...ijac", _rows(_compact(tabs.S_diag), rows), P,
                   optimize=True)
    return H


def _sandwich(X, D, Y):
    """X D Y at every stage and member.  1x1 blocks are multiplied outer
    factors first, the order np.einsum's contraction path takes for them,
    so that a one-dimensional state gets the same bits from either form."""
    return X @ Y @ D if X.shape[-1] == 1 else X @ D @ Y


def _p_forcing(tabs, P, rows):
    """Forcing Q^i_k + P^k S^{ik}_k P^k - (P^i S^{kk}_k P^k + transpose) at
    the stage ``rows`` of P, (rows, B, K, N, n, n) with k on the third axis.

    The mixed block is applied in symmetrized form so the path derivative
    stays a symmetric matrix, which is also its exact analytic value.
    """
    M, B, N, n = P.shape[:4]
    out = np.empty((M, B, N, N, n, n))
    for k in range(N):
        Pk = P[:, :, k]
        dSkk = tabs.dS[k][k][rows]
        for i in range(N):
            own = _sandwich(Pk, tabs.dS[k][i][rows], Pk)
            mix = _sandwich(P[:, :, i], dSkk, Pk)
            mix += np.swapaxes(mix, -1, -2).copy()
            np.subtract(np.add(tabs.dQ[k][i][rows], own, out=own), mix, out=out[:, :, k, i])
    return out


def _solve_p_pass(batch):
    """Node samples (steps+1, B, K, N, n, n) of the P-path derivatives; the
    drift, coupling and forcing are formed a block of stage rows at a time."""
    tabs = batch.tables
    B, N, n = batch.P_nodes.shape[1:4]

    def block(r):
        P, F = batch.value_rows(r)
        return list(zip(F, _coupling_tables(tabs, P, r), _p_forcing(tabs, P, r)))

    stage = StageBlocks(block, len(tabs.grid.stage_times), tabs.coupling_elems)

    def rhs(s, Y):
        F, H, forcing = stage[s]
        coup = np.add.reduce(Y[:, :, None] @ H[:, None], axis=3)
        return -(_plus_mT(Y @ F[:, None, None] + coup) + forcing)

    blowups = {}
    Pk = integrate_backward(rhs, np.zeros((B, N, N, n, n)), tabs.grid,
                            project_state=_sym_stack, blowups=blowups)
    _raise_first(blowups)
    return Pk


def _zeta_forcing(batch, P_st, Pk_nodes, rows):
    """Vector forcing for the zeta-path derivatives at the stage ``rows``,
    (rows, B, K, N, n), from P at those rows."""
    tabs = batch.tables
    z_st, beta_st = batch.offset_rows(rows)
    Pk_st = stage_samples(Pk_nodes, rows)
    M, B, N, n = z_st.shape
    out = np.empty((M, B, N, N, n))
    # sum_j Pk^j S^ij zeta^j, members folded into the stage axis (see dense_S)
    S, z = tabs.dense_S(rows), z_st.reshape(-1, N, n)
    coupled = np.empty((M, B, N, N, n))
    for k, i in itertools.product(range(N), repeat=2):
        coupled[:, :, k, i] = np.einsum("mjab,jmbc,mjc->ma", Pk_st[:, :, k].reshape(-1, N, n, n),
                                        S[i], z, optimize=True).reshape(M, B, n)
    for k in range(N):
        dSkk = tabs.dS[k][k][rows]
        dF = -(dSkk @ P_st[:, :, k]
               + np.einsum("m...jab,m...jbc->m...ac", _rows(_compact(tabs.S_diag), rows),
                           Pk_st[:, :, k], optimize=True))
        dF_term = np.einsum("m...ba,m...ib->m...ia", dF, z_st)
        for i in range(N):
            mix = P_st[:, :, k] @ tabs.dS[k][i][rows] - P_st[:, :, i] @ dSkk
            w = np.einsum("m...ab,m...b->m...a", mix, z_st[:, :, k])
            w += np.einsum("m...ab,m...b->m...a", Pk_st[:, :, k, i], beta_st)
            w += coupled[:, :, k, i]
            out[:, :, k, i] = dF_term[:, :, i] + w
    return out


def _solve_zeta_pass(batch, Pk_nodes):
    """Node samples (steps+1, B, K, N, n) of the zeta-path derivatives; the
    drift, coupling and forcing are formed a block of stage rows at a time."""
    tabs = batch.tables
    B, N, n = batch.P_nodes.shape[1:4]

    def block(r):
        P, F = batch.value_rows(r)
        return list(zip(F, _coupling_tables(tabs, P, r), _zeta_forcing(batch, P, Pk_nodes, r)))

    stage = StageBlocks(block, len(tabs.grid.stage_times), tabs.coupling_elems)

    def rhs(s, Z):
        F, H, forcing = stage[s]
        coup = np.add.reduce(np.matmul(Z[:, :, None, :, None, :], H[:, None])[..., 0, :], axis=3)
        return -(Z @ F[:, None] + coup + forcing)

    blowups = {}
    zk = integrate_backward(rhs, np.zeros((B, N, N, n)), tabs.grid, blowups=blowups)
    _raise_first(blowups)
    return zk


def _eta_integrand(batch, zk_nodes):
    """Scalar integrand stack (stage, member, k, i) for the eta-path
    derivatives, formed a block of stage rows at a time."""
    tabs = batch.tables
    M, (B, N, n) = len(tabs.grid.stage_times), batch.P_nodes.shape[1:4]
    out = np.empty((M, B, N, N))
    for rows in stage_blocks(M, tabs.coupling_elems):
        z_st, beta_st = batch.offset_rows(rows)
        zk_st = stage_samples(zk_nodes, rows)
        # sum_j zeta^j' S^ij zeta^j_k, members folded into the stage axis (see dense_S)
        S, z = tabs.dense_S(rows), z_st.reshape(-1, N, n)
        coupled = np.empty((len(z_st), B, N, N))
        for k, i in itertools.product(range(N), repeat=2):
            coupled[:, :, k, i] = np.einsum("mja,jmab,mjb->m", z, S[i],
                                            zk_st[:, :, k].reshape(-1, N, n),
                                            optimize=True).reshape(coupled.shape[:2])
        for k in range(N):
            beta_k = -(np.einsum("m...ab,m...b->m...a", tabs.dS[k][k][rows], z_st[:, :, k])
                       + np.einsum("m...jab,m...jb->m...a", tabs.S_diag[rows], zk_st[:, :, k],
                                   optimize=True))
            for i in range(N):
                v = np.einsum("m...a,m...a->m...", beta_k, z_st[:, :, i])
                v += np.einsum("m...a,m...a->m...", beta_st, zk_st[:, :, k, i])
                v += coupled[:, :, k, i]
                v += 0.5 * np.einsum("m...a,m...ab,m...b->m...", z_st[:, :, k],
                                     tabs.dS[k][i][rows], z_st[:, :, k])
                out[rows, :, k, i] = v
    return out


def _general_sensitivity(batch: StageTwoBatch):
    """Node stacks (steps+1, B, K, N, ...) of the P and zeta path derivatives
    of a general-sum batch, every member and component k at once."""
    batch.tables.ensure_derivs()
    Pk_nodes = _solve_p_pass(batch)
    if batch.tables.c_is_zero:
        # drive-free: the offsets vanish identically and so do their derivatives
        return Pk_nodes, np.zeros(Pk_nodes.shape[:-1])
    return Pk_nodes, _solve_zeta_pass(batch, Pk_nodes)


def _eta_nodes(batch: StageTwoBatch, zk_nodes):
    """Node samples (steps+1, B, K, N) of the eta-path derivatives, the
    backward running sum of their integrand; zero for a drive-free batch."""
    if batch.tables.c_is_zero:
        return np.zeros(zk_nodes.shape[:-1])
    blowups = {}
    ek = backward_running_sum(_eta_integrand(batch, zk_nodes), batch.tables.grid, blowups=blowups)
    _raise_first(blowups)
    return ek


def _zerosum_sensitivity(batch: StageTwoBatch):
    """Node samples of the derivative of the single zero-sum value matrix,
    (steps+1, B, 2, n, n) with the component k on the third axis.

    Differentiates the single-matrix equation directly: the linear system
    shares the closed-loop drift A + S_tilde P across components and is
    forced by Q_k + P dS_tilde_k P, both formed a block of rows at a time.
    """
    tabs = batch.tables
    tabs.ensure_derivs()
    B, n = batch.P_nodes.shape[1], batch.P_nodes.shape[-1]
    Stilde = _zerosum_coupling(tabs)
    dStilde = [sign * _compact(tabs.dS[k][k]) for k, sign in enumerate((-1.0, 1.0))]

    def block(r):
        P = stage_samples(batch.P_nodes[:, :, 0], r)
        forcing = [tabs.dQ[k][0][r] + np.einsum("m...ab,m...bc,m...cd->m...ad", P,
                                                np.broadcast_to(_rows(dS, r), P.shape), P,
                                                optimize=True) for k, dS in enumerate(dStilde)]
        return list(zip((tabs.A[r, None] + Stilde[r] @ P)[:, :, None], np.stack(forcing, axis=2)))

    stage = StageBlocks(block, len(tabs.grid.stage_times), tabs.coupling_elems)

    def rhs(s, Y):
        Fcl, forcing = stage[s]
        return -(_plus_mT(Y @ Fcl) + forcing)

    blowups = {}
    Pk = integrate_backward(rhs, np.zeros((B, 2, n, n)), tabs.grid, project_state=_sym_stack,
                            blowups=blowups)
    _raise_first(blowups)
    return Pk


# -- public operations -------------------------------------------------------


def value_gradient(game: ConfigGame, theta, grid: TimeGrid = None,
                   stage2: StageTwoBatch = None) -> np.ndarray:
    """Gradient matrices G[b, i, k] = d J^i / d theta_k of the first-stage
    costs, one per member of ``stage2``, (B, N, N).

    Zero-sum games differentiate the single value-matrix equation (the
    two-player encoding with sign-flipped cross costs falls outside the
    nonnegative-cost hypothesis of the coupled system, and the
    single-matrix route is exact there) and read its derivative as the
    player stack (P_k, -P_k), the encoding of P; general games run the
    stacked linear passes for every member and component at once.  Every
    G is 1/2 x0' P^i_k x0 at t=0, plus zeta^i_k' x0 + eta^i_k when the
    batch holds offsets, plus the regularizer gradients row-wise.  A given
    ``stage2`` must have been solved for this game and grid at the rows of
    ``theta`` (one vector is a one-member batch); without it ``theta`` is
    solved, and InfeasibleTheta raised when that solve blows up; ``theta``
    must then be one vector.
    """
    theta = np.asarray(theta, dtype=float)
    if stage2 is not None:
        _check_solution(stage2, game, theta, grid)
    elif theta.ndim != 1:
        raise ValueError(f"without a stage2, theta must be one vector, not of shape {theta.shape}")
    else:
        try:
            stage2 = solve_stage_two(game, theta, grid)
        except BlowUpDetected as exc:
            raise InfeasibleTheta(theta, time=exc.time, player=exc.player) from None
    if game.zero_sum:
        Pk = _zerosum_sensitivity(stage2)[0]
        Pk0 = np.stack([Pk, -Pk], axis=2)
    else:
        Pk_nodes, zk_nodes = _general_sensitivity(stage2)
        Pk0, zk0, ek0 = Pk_nodes[0], zk_nodes[0], _eta_nodes(stage2, zk_nodes)[0]
    G, x0 = [], game.x0
    for b, theta in enumerate(stage2.tables.thetas):
        g = 0.5 * np.einsum("a,kiab,b->ik", x0, Pk0[b], x0)
        if stage2.zeta_nodes is not None:
            g = g + np.einsum("kia,a->ik", zk0[b], x0) + ek0[b].T
        G.append(g + game.regularizer_gradients(theta))
    return np.array(G).reshape(len(G), game.num_players, game.num_players)


def envelope_gradient(batch: StageTwoBatch) -> np.ndarray:
    """Every player's own-parameter derivative of their value as a trajectory
    integral, one row per member of ``batch``, (B, N).

    Rolls out the equilibrium trajectories of ``batch``, reconstructs every
    player's feedback control, and integrates the instantaneous effects of
    theta_i on player i's Hamiltonian, with costate P^i x + zeta^i: on the
    state cost, on the ego player's control effectiveness, and on the other
    players' strategy shifts, formed from P^j_i x + zeta^j_i.  The ego
    player's own strategy shift contributes nothing, which is what makes
    this an independent check of the path-derivative gradient.  A
    drive-free game is the case zeta = 0, and a zero-sum batch, which holds
    no offsets, reads as one.  The regularizer, being control-independent,
    is excluded.
    """
    tabs = batch.tables
    Pk_nodes, zk_nodes = _general_sensitivity(batch)
    path = rollout(tabs.game, tabs.thetas, batch)
    xs, us = path.x, path.u
    out = []
    for i, ui in enumerate(us):
        costate = np.einsum("t...a,t...ab->t...b", xs, batch.P_nodes[:, :, i])
        if batch.zeta_nodes is not None:
            costate += batch.zeta_nodes[:, :, i]
        vals = np.einsum("t...a,t...ab,t...b->t...", xs, tabs.dQ[i][i][0::2], xs)
        vals += 2.0 * np.einsum("t...a,t...ab,t...b->t...", costate, tabs.dB[i][0::2], ui)
        for j, uj in enumerate(us):
            if j == i:
                continue
            Bj = tabs.B[j][0::2]
            pre = np.einsum("t...ba,t...bc,t...c->t...a", Bj, Pk_nodes[:, :, i, j], xs)
            pre += np.einsum("t...ba,t...b->t...a", Bj, zk_nodes[:, :, i, j])
            du = -np.linalg.solve(tabs.R[j][j][0::2, None], pre[..., None])[..., 0]
            vals += 2.0 * np.einsum("t...a,tab,t...b->t...", uj, tabs.R[i][j][0::2], du)
            vals += 2.0 * np.einsum("t...a,t...ab,t...b->t...", costate, Bj, du)
        out.append(0.5 * simpson_nodes(vals, tabs.grid))
    return np.stack(out, axis=-1)
