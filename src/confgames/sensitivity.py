"""Exact parameter gradients of the stage-two equilibrium values.

Differentiating the stage-two pipeline with respect to one player's
parameter yields linear backward systems in the path derivatives of P,
zeta, and eta, with coefficients read from the stored stage-two solution.
The value gradient is assembled from the t=0 samples; a quadrature form
of each player's own-parameter derivative along the equilibrium
trajectory is provided as an independent cross-check for the drive-free
case.

Dedicated linear systems (not automatic differentiation of the
integrator) keep every intermediate object checkable stage by stage.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowUpDetected, InfeasibleTheta, PreconditionViolation
from .model import ConfigGame
from .odekit import (TimeGrid, backward_running_sum, integrate_backward, simpson_nodes,
                     stage_samples)
from .riccati import StageTwoSolution, _check_solution, _sym_stack, rollout, solve_stage_two


def _coupling_tables(tabs, P_st):
    """H[i, j, m] = S^{ij} P^j - S^{jj} P^i at every stage time (zero at j=i)."""
    H = np.einsum("ijmab,mjbc->ijmac", tabs.S, P_st, optimize=True)
    H -= np.einsum("jmab,mibc->ijmac", tabs.S_diag, P_st, optimize=True)
    return H


def _p_forcing(tabs, P_st):
    """Forcing Q^i_k + P^k S^{ik}_k P^k - (P^i S^{kk}_k P^k + transpose).

    The mixed block is applied in symmetrized form so the path derivative
    stays a symmetric matrix, which is also its exact analytic value.
    """
    M, N, n = P_st.shape[0], P_st.shape[1], P_st.shape[2]
    out = np.empty((N, N, M, n, n))
    for k in range(N):
        Pk = P_st[:, k]
        dSkk = tabs.dS[k][k]
        for i in range(N):
            own = np.einsum("mab,mbc,mcd->mad", Pk, tabs.dS[k][i], Pk, optimize=True)
            mix = np.einsum("mab,mbc,mcd->mad", P_st[:, i], dSkk, Pk, optimize=True)
            out[k, i] = tabs.dQ[k][i] + own - (mix + np.swapaxes(mix, -1, -2))
    return out


def _solve_p_pass(grid, F_st, H_st, forcing):
    K, N, _, n, _ = forcing.shape

    def rhs(s, Y):
        YF = Y @ F_st[s]
        coup = (Y[:, None] @ H_st[None, :, :, s]).sum(axis=2)
        part = YF + coup
        return -(part + np.swapaxes(part, -1, -2) + forcing[:, :, s])

    return integrate_backward(rhs, np.zeros((K, N, n, n)), grid, project_state=_sym_stack)


def _zeta_forcing(tabs, stage2, P_st, Pk_st):
    """Per-stage vector forcing for the zeta-path derivatives."""
    z_st, beta_st = stage2.zeta_st, stage2.beta_st
    M, N, n = z_st.shape
    out = np.empty((N, N, M, n))
    for k in range(N):
        dSkk = tabs.dS[k][k]
        dF = -(dSkk @ P_st[:, k]
               + np.einsum("jmab,mjbc->mac", tabs.S_diag, Pk_st[:, k], optimize=True))
        dF_term = np.einsum("mba,mib->mia", dF, z_st)
        for i in range(N):
            mix = P_st[:, k] @ tabs.dS[k][i] - P_st[:, i] @ dSkk
            w = np.einsum("mab,mb->ma", mix, z_st[:, k])
            w += np.einsum("mab,mb->ma", Pk_st[:, k, i], beta_st)
            w += np.einsum("mjab,jmbc,mjc->ma", Pk_st[:, k], tabs.S[i], z_st,
                           optimize=True)
            out[k, i] = dF_term[:, i] + w
    return out


def _solve_zeta_pass(grid, F_st, H_st, forcing):
    K, N, _, n = forcing.shape

    def rhs(s, Z):
        coup = np.matmul(Z[:, None, :, None, :], H_st[None, :, :, s])[..., 0, :].sum(axis=2)
        return -(Z @ F_st[s] + coup + forcing[:, :, s])

    return integrate_backward(rhs, np.zeros((K, N, n)), grid)


def _eta_integrand(tabs, stage2, zk_st):
    """Scalar integrand stack (stage, k, i) for the eta-path derivatives."""
    z_st, beta_st = stage2.zeta_st, stage2.beta_st
    M, N, _ = z_st.shape
    out = np.empty((M, N, N))
    for k in range(N):
        beta_k = -(np.einsum("mab,mb->ma", tabs.dS[k][k], z_st[:, k])
                   + np.einsum("jmab,mjb->ma", tabs.S_diag, zk_st[:, k], optimize=True))
        for i in range(N):
            v = np.einsum("ma,ma->m", beta_k, z_st[:, i])
            v += np.einsum("ma,ma->m", beta_st, zk_st[:, k, i])
            v += np.einsum("mja,jmab,mjb->m", z_st, tabs.S[i], zk_st[:, k],
                           optimize=True)
            v += 0.5 * np.einsum("ma,mab,mb->m", z_st[:, k], tabs.dS[k][i], z_st[:, k])
            out[:, k, i] = v
    return out


def _general_sensitivity(stage2):
    """Batched sensitivity passes over every parameter component.

    Returns node-sampled stacks (steps+1, N, ...) for the P, zeta, and eta
    path derivatives, with the second axis indexing the component k.
    """
    tabs = stage2.tables
    grid = tabs.grid
    tabs.ensure_derivs()
    P_st, F_st = stage2.P_st, stage2.F_st
    H_st = _coupling_tables(tabs, P_st)
    forcing = _p_forcing(tabs, P_st)
    Pk_nodes = _solve_p_pass(grid, F_st, H_st, forcing)

    if tabs.c_is_zero:
        # drive-free: the offsets vanish identically and so do their derivatives
        N, n = tabs.game.num_players, tabs.game.state_dim
        zk_nodes = np.zeros((grid.steps + 1, N, N, n))
        ek_nodes = np.zeros((grid.steps + 1, N, N))
    else:
        Pk_st = stage_samples(Pk_nodes)
        zf = _zeta_forcing(tabs, stage2, P_st, Pk_st)
        zk_nodes = _solve_zeta_pass(grid, F_st, H_st, zf)
        zk_st = stage_samples(zk_nodes)
        ek_nodes = backward_running_sum(_eta_integrand(tabs, stage2, zk_st), grid)

    return Pk_nodes, zk_nodes, ek_nodes


def _zerosum_sensitivity(stage2):
    """Node samples of the derivative of the single zero-sum value matrix.

    Differentiates the single-matrix equation directly: the linear system
    shares the closed-loop drift A + S_tilde P across components and is
    forced by Q_k + P dS_tilde_k P.
    """
    tabs = stage2.tables
    tabs.ensure_derivs()
    P_st = stage2.P_st[:, 0]
    Stilde = tabs.S_diag[1] - tabs.S_diag[0]
    Fcl = tabs.A + Stilde @ P_st
    n = tabs.game.state_dim

    forcing = np.empty((2, P_st.shape[0], n, n))
    for k in range(2):
        sign = -1.0 if k == 0 else 1.0
        dStilde = sign * tabs.dS[k][k]
        forcing[k] = tabs.dQ[k][0] + np.einsum("mab,mbc,mcd->mad", P_st, dStilde, P_st,
                                               optimize=True)

    def rhs(s, Y):
        YF = Y @ Fcl[s]
        return -(YF + np.swapaxes(YF, -1, -2) + forcing[:, s])

    return integrate_backward(rhs, np.zeros((2, n, n)), tabs.grid, project_state=_sym_stack)


# -- public operations -------------------------------------------------------


def value_gradient(game: ConfigGame, theta, grid: TimeGrid = None,
                   stage2: StageTwoSolution = None) -> np.ndarray:
    """Gradient matrix G[i, k] = d J^i / d theta_k of the first-stage costs.

    Zero-sum games differentiate the single value-matrix equation (the
    two-player encoding with sign-flipped cross costs falls outside the
    nonnegative-cost hypothesis of the coupled system, and the
    single-matrix route is exact there); general games run the stacked
    linear passes for every component at once.  Regularizer gradients are
    added row-wise.  A given ``stage2`` must have been solved for this
    game, theta and grid.  Raises InfeasibleTheta when the stage-two
    solve blows up.
    """
    theta = np.asarray(theta, dtype=float)
    if stage2 is not None:
        _check_solution(stage2, game, theta, grid)
    else:
        try:
            stage2 = solve_stage_two(game, theta, grid)
        except BlowUpDetected as exc:
            raise InfeasibleTheta(theta, time=exc.time, player=exc.player) from None
    x0 = game.x0
    if game.zero_sum:
        Pk0 = _zerosum_sensitivity(stage2)[0]
        g = 0.5 * np.einsum("a,kab,b->k", x0, Pk0, x0)
        G = np.vstack([g, -g])
    else:
        Pk_nodes, zk_nodes, ek_nodes = _general_sensitivity(stage2)
        G = (0.5 * np.einsum("a,kiab,b->ik", x0, Pk_nodes[0], x0)
             + np.einsum("kia,a->ik", zk_nodes[0], x0) + ek_nodes[0].T)
    return G + game.regularizer_gradients(theta)


def envelope_gradient(stage2: StageTwoSolution, i: int) -> float:
    """Own-parameter derivative of player i's value as a trajectory integral.

    Valid for drive-free games only: rolls out the equilibrium trajectory
    of ``stage2``, reconstructs every player's feedback control, and
    integrates the instantaneous effects of the parameter on the state
    cost, on the ego player's control effectiveness, and on the other
    players' strategy shifts.  The ego player's own strategy shift
    contributes nothing, which is what makes this an independent check of
    the path-derivative gradient.  The regularizer, being
    control-independent, is excluded.
    """
    tabs = stage2.tables
    if not tabs.c_is_zero:
        raise PreconditionViolation("envelope form requires a vanishing drive term")

    Pk_nodes = _general_sensitivity(stage2)[0][:, i]
    path = rollout(tabs.game, tabs.theta, stage2)
    xs, us = path.x, path.u
    xP = np.einsum("ta,tab->tb", xs, stage2.P_nodes[:, i])

    vals = np.einsum("ta,tab,tb->t", xs, tabs.dQ[i][i][0::2], xs)
    vals += 2.0 * np.einsum("ta,tab,tb->t", xP, tabs.dB[i][0::2], us[i])
    for j in range(tabs.game.num_players):
        if j == i:
            continue
        Bj = tabs.B[j][0::2]
        pre = np.einsum("tba,tbc,tc->ta", Bj, Pk_nodes[:, j], xs)
        du = -np.linalg.solve(tabs.R[j][j][0::2], pre[..., None])[..., 0]
        vals += 2.0 * np.einsum("ta,tab,tb->t", us[j], tabs.R[i][j][0::2], du)
        vals += 2.0 * np.einsum("ta,tab,tb->t", xP, Bj, du)

    return 0.5 * float(simpson_nodes(vals, tabs.grid))
