"""Internal: coefficient tables sampled at the RK4 stage abscissae.

This is the only place a game's coefficients are sampled for a solve:
every pass reads these tables, and node-resolution reads take their
even rows.  One set of tables serves a batch of parameter points (the
members): every table has the stage axis first and, when it can depend
on theta, the member axis second.  A coefficient that reads no theta is
sampled once for the whole batch and broadcast over the members (A, c and
R have no member axis at all); a time-constant one is sampled once per
member and broadcast along the stage axis; a quantity formed only from
broadcast samples is formed once and broadcast too (stride 0).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import PositiveDefinitenessViolation
from .model import ConfigGame
from .odekit import TimeGrid


def _compact(x, lead: int = 2):
    """``x`` with its broadcast (stride-0) stage and member axes cut to length
    one; ``lead`` = 1 for a table without a member axis."""
    return x[tuple(slice(0, 1) if x.strides[d] == 0 else slice(None) for d in range(lead))]


def _rows(x, rows):
    """The stage ``rows`` of ``x``, or ``x`` itself when its stage axis has
    one row (a table cut by _compact)."""
    return x if x.shape[0] == 1 else x[rows]


def _sample(fn, shape, thetas, stage_times, varying: bool, reads_theta: bool):
    """``fn(t, theta)`` at every stage time and member, (M, B) + ``shape``.

    Sampled at the first stage time only when not ``varying`` and for the
    first member only when not ``reads_theta``, and broadcast.
    """
    times = stage_times if varying else stage_times[:1]
    members = thetas if reads_theta else thetas[:1]
    v = np.array([[fn(t, theta) for theta in members] for t in times])
    v = v.reshape((len(times), len(members)) + shape)
    return np.broadcast_to(v, (len(stage_times), len(thetas)) + v.shape[2:])


def _stacked(blocks, axes, shape):
    """The (M, B) = ``shape`` member table holding ``blocks[index]`` on new
    axes of sizes ``axes`` after the member axis; a stage or member axis
    stays broadcast when it is broadcast (or of length one) in every block."""
    compact = {key: _compact(b) for key, b in blocks.items()}
    lead = tuple(max(c.shape[d] for c in compact.values()) for d in (0, 1))
    out = np.zeros(lead + tuple(axes) + next(iter(compact.values())).shape[2:])
    for key, c in compact.items():
        out[(slice(None), slice(None)) + key] = c
    return np.broadcast_to(out, tuple(shape) + out.shape[2:])


def _cholesky(R, j, stage_times):
    """Lower Cholesky factors of the samples R (M', m, m) of R^jj; raises
    PositiveDefinitenessViolation at the first sample that has none."""
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        for m, Rm in enumerate(R):
            try:
                np.linalg.cholesky(Rm)
            except np.linalg.LinAlgError as exc:
                raise PositiveDefinitenessViolation(
                    f"R[{j}][{j}](t={stage_times[m]}) is not positive definite") from exc
        raise


def _select(x, keep):
    """Member table ``x`` restricted to the members ``keep``."""
    c = _compact(x)
    if c.shape[1] > 1:
        c = c[:, keep]
    return np.broadcast_to(c, (x.shape[0], len(keep)) + x.shape[2:])


class StageTables:
    """Coefficient samples for one (game, grid) and a batch of parameter points.

    ``thetas`` (B, N) holds one parameter vector per member (a single
    vector is a one-member batch).  The tables are the one record of which
    game, thetas and grid a solve ran on, and the grid must span the
    game's horizon.

    Attributes (M = 2*steps+1 stage times, B members, N players, n state dim):
      A       (M, n, n)            shared by every member
      c       (M, n)
      R[i][j] (M, m_j, m_j)        control costs, nested list
      Q       (M, B, N, n, n)      symmetrized state costs
      B[j]    (M, B, n, m_j)       actuation, list over players
      S       (M, B, N, N, n, n)   S[:, :, i, j] holds the (i, j) coupling matrix
      S_diag  (M, B, N, n, n)      S^ii
    Derivative tables (built on demand by ensure_derivs):
      dB[j]     (M, B, n, m_j)  d B^j / d theta_j
      dS[k][i]  (M, B, n, n)    d S^{ik} / d theta_k
      dQ[k][i]  (M, B, n, n)    d Q^i / d theta_k
    Rows [0::2] of every table are the samples at the grid nodes.
    """

    def __init__(self, game: ConfigGame, thetas, grid: TimeGrid):
        if grid.horizon != game.horizon:
            raise ValueError(f"grid horizon {grid.horizon} does not match the game "
                             f"horizon {game.horizon}")
        self.game = game
        self.thetas = np.atleast_2d(np.array(thetas, dtype=float))
        if self.thetas.ndim != 2 or self.thetas.shape[1] != game.num_players:
            raise ValueError(f"thetas of shape {self.thetas.shape} do not hold "
                             f"{game.num_players}-player parameter vectors")
        self.grid = grid
        st = grid.stage_times
        N = game.num_players

        samples = {}

        def sample(coef, fn=None):
            # one sample per coefficient object (and per reading: raw, or
            # through ``fn``) however many players' slots it fills
            key = (id(coef), fn is None)
            if key not in samples:
                samples[key] = _sample(fn or coef, coef.shape, self.thetas, st, coef.time_varying,
                                       bool(coef.depends_on))
            return samples[key]

        self.A = sample(game.A)[:, 0]
        self.c = sample(game.c)[:, 0]
        self.R = [[sample(game.R[i][j])[:, 0] for j in range(N)] for i in range(N)]
        shape = (len(st), len(self.thetas))
        self.Q = _stacked({(i,): sample(game.Q[i], lambda t, th, i=i: game.eval_Q(i, t, th))
                           for i in range(N)}, (N,), shape)
        self.B = [sample(game.B[j]) for j in range(N)]
        blocks = {}
        for j in range(N):
            Bj = _compact(self.B[j])
            Rjj = _compact(self.R[j][j], 1)
            _cholesky(Rjj, j, st)
            Y = np.linalg.solve(Rjj[:, None], np.swapaxes(Bj, -1, -2))
            for i in range(N):
                blocks[i, j] = (Bj @ Y if i == j else
                                np.swapaxes(Y, -1, -2) @ _compact(self.R[i][j], 1)[:, None] @ Y)
        self.S = _stacked(blocks, (N, N), shape)
        self.S_diag = _stacked({(i,): self.S[:, :, i, i] for i in range(N)}, (N,), shape)
        self.dB = None
        self.dS = None
        self.dQ = None

    def dense_S(self, rows: slice) -> np.ndarray:
        """Every member's couplings at the stage ``rows`` as one dense
        (N, N, rows*B, n, n) array, the member axis folded into the stage
        axis (row r*B + b is member b at stage row r): the operand layout in
        which the three-operand contractions over them take their summation
        order, so that a member's sums do not depend on its batch."""
        S = np.ascontiguousarray(np.moveaxis(self.S[rows], (0, 1), (2, 3)))
        return S.reshape(S.shape[:2] + (-1,) + S.shape[4:])

    @property
    def coupling_elems(self) -> int:
        """Elements of the couplings of every member at one stage time,
        B N^2 n^2: the size per stage row of the per-stage products that the
        passes form a block of stage rows at a time."""
        return math.prod(self.S.shape[1:])

    @property
    def c_is_zero(self) -> bool:
        return not np.any(self.c)

    def select(self, keep) -> "StageTables":
        """The tables of the members ``keep``, whose derivatives ensure_derivs builds."""
        keep = list(keep)
        out = copy.copy(self)
        out.thetas = self.thetas[keep]
        out.Q = _select(self.Q, keep)
        out.B = [_select(b, keep) for b in self.B]
        out.S = _select(self.S, keep)
        out.S_diag = _select(self.S_diag, keep)
        out.dB = out.dS = out.dQ = None
        return out

    def ensure_derivs(self):
        if self.dS is not None:
            return
        game, st = self.game, self.grid.stage_times
        N, n = game.num_players, game.state_dim
        shape = self.S.shape[:2]

        def deriv(coef, k):
            return _sample(lambda t, th: coef.d_theta(t, th, k), coef.shape, self.thetas, st,
                           coef.time_varying and k in coef.depends_on, k in coef.depends_on)

        self.dB = [deriv(game.B[j], j) for j in range(N)]
        zero = np.broadcast_to(np.zeros((n, n)), shape + (n, n))
        self.dS = [[zero] * N for _ in range(N)]
        for k in range(N):
            if k not in game.B[k].depends_on:
                continue
            Bk, dBk = _compact(self.B[k]), _compact(self.dB[k])
            Rkk = _compact(self.R[k][k], 1)
            for i in range(N):
                if i == k:
                    M = np.linalg.inv(Rkk)
                else:
                    M = np.swapaxes(np.linalg.solve(Rkk, np.swapaxes(
                        np.linalg.solve(Rkk, _compact(self.R[i][k], 1)), -1, -2)), -1, -2)
                M = M[:, None]
                d = dBk @ M @ np.swapaxes(Bk, -1, -2) + Bk @ M @ np.swapaxes(dBk, -1, -2)
                self.dS[k][i] = np.broadcast_to(d, shape + d.shape[2:])

        def symmetrized(D):
            D = _compact(D)
            return np.broadcast_to(0.5 * (D + np.swapaxes(D, -1, -2)), shape + D.shape[2:])

        self.dQ = [[symmetrized(deriv(game.Q[i], k)) for i in range(N)] for k in range(N)]
