"""Internal: coefficient tables sampled at the RK4 stage abscissae.

This is the only place a game's coefficients are sampled for a solve:
every pass reads these tables, and node-resolution reads take their
even rows.  Time-constant coefficients are sampled once and tiled by
broadcasting, and a quantity formed only from broadcast samples is formed
once and broadcast too; the coefficient tables are then densified, while
the derivative tables stay broadcast.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import PositiveDefinitenessViolation
from .model import ConfigGame, MatrixFn
from .odekit import TimeGrid


def _table(sample_one, stage_times, time_varying):
    if time_varying:
        return np.stack([sample_one(t) for t in stage_times])
    v = sample_one(stage_times[0])
    return np.broadcast_to(v, (len(stage_times),) + v.shape)


def _sample(coef: MatrixFn, theta, stage_times, k: int = None):
    """``coef``, or its derivative in theta_k, at every stage time.

    A time-constant coefficient, and a derivative outside the
    coefficient's support (identically zero), are sampled once and broadcast.
    """
    if k is None:
        return _table(lambda t: coef(t, theta), stage_times, coef.time_varying)
    return _table(lambda t: coef.d_theta(t, theta, k), stage_times,
                  coef.time_varying and k in coef.depends_on)


def _per_stage(fn, stage_times, *tables):
    """``fn(t, *samples)`` at every stage time, formed once and broadcast
    when every table is a broadcast one (stride 0 on the stage axis)."""
    if all(tab.strides[0] == 0 for tab in tables):
        v = fn(stage_times[0], *(tab[0] for tab in tables))
        return np.broadcast_to(v, (len(stage_times),) + v.shape)
    return np.stack([fn(t, *rows) for t, *rows in zip(stage_times, *tables)])


def _cholesky(Rjj, j, t):
    try:
        return cho_factor(Rjj, lower=True)
    except np.linalg.LinAlgError as exc:
        raise PositiveDefinitenessViolation(
            f"R[{j}][{j}](t={t}) is not positive definite"
        ) from exc


def _coupling(j, t, Bj, Rjj, Rij=None):
    """S^ij = B^j R^jj^-1 R^ij R^jj^-1 B^j' from one stage's samples
    (called without R^ij for S^jj = B^j R^jj^-1 B^j')."""
    Y = cho_solve(_cholesky(Rjj, j, t), Bj.T)
    return Bj @ Y if Rij is None else Y.T @ Rij @ Y


def _coupling_deriv(j, t, Bj, dBj, Rjj, Rij=None):
    """d S^ij / d theta_j from one stage's samples; only B^j carries theta_j."""
    chol = _cholesky(Rjj, j, t)
    if Rij is None:
        M = cho_solve(chol, np.eye(Bj.shape[1]))
    else:
        M = cho_solve(chol, cho_solve(chol, Rij).T).T
    return dBj @ M @ Bj.T + Bj @ M @ dBj.T


class StageTables:
    """Per-(game, theta, grid) coefficient samples at every stage time.

    The one record of which game, theta and grid a solve ran on; the
    grid must span the game's horizon.

    Attributes (M = 2*steps+1 stage times, N players, n state dim):
      A       (M, n, n)
      c       (M, n)
      Q       (N, M, n, n)     symmetrized state costs
      B[j]    (M, n, m_j)      actuation, list over players
      R[i][j] (M, m_j, m_j)    control costs, nested list
      S       (N, N, M, n, n)  S[i, j] holds the (i, j) coupling matrix
      S_diag  (N, M, n, n)     view-equivalent of S[i, i]
    Derivative tables (built on demand by ensure_derivs), broadcast from
    one sample when time-constant or outside the coefficient's support:
      dB[j]     (M, n, m_j)  d B^j / d theta_j
      dS[k][i]  (M, n, n)    d S^{ik} / d theta_k
      dQ[k][i]  (M, n, n)    d Q^i / d theta_k
    Rows [0::2] of every table are the samples at the grid nodes.
    """

    def __init__(self, game: ConfigGame, theta, grid: TimeGrid):
        if grid.horizon != game.horizon:
            raise ValueError(f"grid horizon {grid.horizon} does not match the game "
                             f"horizon {game.horizon}")
        self.game = game
        self.theta = np.array(theta, dtype=float)
        self.grid = grid
        st = grid.stage_times
        N, n = game.num_players, game.state_dim
        self.A = np.ascontiguousarray(_sample(game.A, self.theta, st))
        self.c = np.ascontiguousarray(_sample(game.c, self.theta, st))
        self.Q = np.empty((N, len(st), n, n))
        for i in range(N):
            tv = game.Q[i].time_varying
            self.Q[i] = _table(lambda t, i=i: game.eval_Q(i, t, self.theta), st, tv)
        self.B = [_sample(game.B[j], self.theta, st) for j in range(N)]
        self.R = [[_sample(game.R[i][j], self.theta, st) for j in range(N)] for i in range(N)]
        self.S = np.empty((N, N, len(st), n, n))
        for i in range(N):
            for j in range(N):
                cross = () if i == j else (self.R[i][j],)
                self.S[i, j] = _per_stage(partial(_coupling, j), st, self.B[j], self.R[j][j],
                                          *cross)
        self.S_diag = np.ascontiguousarray(self.S[np.arange(N), np.arange(N)])
        self.dB = None
        self.dS = None
        self.dQ = None

    @property
    def c_is_zero(self) -> bool:
        return not np.any(self.c)

    def ensure_derivs(self):
        if self.dS is not None:
            return
        game, st = self.game, self.grid.stage_times
        N, n = game.num_players, game.state_dim
        self.dB = [_sample(game.B[j], self.theta, st, k=j) for j in range(N)]
        zero = np.broadcast_to(np.zeros((n, n)), (len(st), n, n))
        self.dS = [[zero] * N for _ in range(N)]
        for k in range(N):
            if k not in game.B[k].depends_on:
                continue
            for i in range(N):
                cross = () if i == k else (self.R[i][k],)
                self.dS[k][i] = _per_stage(partial(_coupling_deriv, k), st, self.B[k],
                                           self.dB[k], self.R[k][k], *cross)
        self.dQ = [[_per_stage(lambda t, D: 0.5 * (D + D.T), st,
                               _sample(game.Q[i], self.theta, st, k=k))
                    for i in range(N)] for k in range(N)]
