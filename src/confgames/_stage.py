"""Internal: coefficient tables sampled at the RK4 stage abscissae.

Building these once per (game, theta, grid) keeps coefficient evaluation
out of the integration hot loop.  Time-constant coefficients are sampled
once and tiled by broadcasting; the coefficient tables are then densified,
while the derivative tables stay broadcast.
"""

from __future__ import annotations

import numpy as np

from .model import ConfigGame, compute_S, compute_S_deriv
from .odekit import TimeGrid


def _table(sample_one, stage_times, time_varying):
    if time_varying:
        return np.stack([sample_one(t) for t in stage_times])
    v = sample_one(stage_times[0])
    return np.broadcast_to(v, (len(stage_times),) + v.shape)


class StageTables:
    """Per-(game, theta, grid) coefficient samples at every stage time.

    Attributes (M = 2*steps+1 stage times, N players, n state dim):
      A       (M, n, n)
      c       (M, n)
      Q       (N, M, n, n)     symmetrized state costs
      S       (N, N, M, n, n)  S[i, j] holds the (i, j) coupling matrix
      S_diag  (N, M, n, n)     view-equivalent of S[i, i]
    Derivative tables (built on demand by ensure_derivs), nested lists
    indexed [k][i] whose entries are (M, n, n) tables, broadcast from one
    sample when time-constant or outside the coefficient's support:
      dS[k][i]  d S^{ik} / d theta_k
      dQ[k][i]  d Q^i / d theta_k
    """

    def __init__(self, game: ConfigGame, theta, grid: TimeGrid):
        self.game = game
        self.theta = np.array(theta, dtype=float)
        self.grid = grid
        st = grid.stage_times
        N, n = game.num_players, game.state_dim
        self.A = np.ascontiguousarray(_table(lambda t: game.A(t, self.theta), st,
                                             game.A.time_varying))
        self.c = np.ascontiguousarray(_table(lambda t: game.c(t, self.theta), st,
                                             game.c.time_varying))
        self.Q = np.empty((N, len(st), n, n))
        for i in range(N):
            tv = game.Q[i].time_varying
            self.Q[i] = _table(lambda t, i=i: game.eval_Q(i, t, self.theta), st, tv)
        self.S = np.empty((N, N, len(st), n, n))
        for i in range(N):
            for j in range(N):
                tv = (game.B[j].time_varying or game.R[i][j].time_varying
                      or game.R[j][j].time_varying)
                self.S[i, j] = _table(
                    lambda t, i=i, j=j: compute_S(game, i, j, t, self.theta), st, tv)
        self.S_diag = np.ascontiguousarray(self.S[np.arange(N), np.arange(N)])
        self.dS = None
        self.dQ = None

    @property
    def c_is_zero(self) -> bool:
        return not np.any(self.c)

    def ensure_derivs(self):
        if self.dS is not None:
            return
        game, st = self.game, self.grid.stage_times
        N = game.num_players
        # a derivative outside a coefficient's support is identically zero,
        # so it is sampled once and broadcast like a time-constant one
        self.dS = [[_table(lambda t, i=i, k=k: compute_S_deriv(game, i, k, t, self.theta, k), st,
                           k in game.B[k].depends_on
                           and (game.B[k].time_varying or game.R[i][k].time_varying
                                or game.R[k][k].time_varying))
                    for i in range(N)] for k in range(N)]
        self.dQ = [[_table(lambda t, i=i, k=k: game.eval_Q_deriv(i, t, self.theta, k),
                           st, k in game.Q[i].depends_on and game.Q[i].time_varying)
                    for i in range(N)] for k in range(N)]

    # -- node-resolution views (every second stage sample) -----------------

    @property
    def Q_nodes(self):
        return self.Q[:, 0::2]
