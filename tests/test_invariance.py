"""Metamorphic invariances of the second-stage values and gradients.

Relabelling the players permutes every player's first-stage cost and the
gradient matrix G; a change of state coordinates x -> Tx leaves them
unchanged.  Both are checked on random games at three random points each,
on a 200-step grid, through the one evaluator ``solver._evaluate_batch``.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from confgames import MatrixFn, TimeGrid, random_aq_game
from confgames.solver import _evaluate_batch

STEPS = 200


def _evaluate(game, thetas):
    """Costs (B, N) and gradient matrices (B, N, N) at the rows of ``thetas``."""
    rows = _evaluate_batch(game, thetas, TimeGrid(game.horizon, STEPS))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def _points(game, seed):
    lo, hi = np.array(game.theta_box).T
    return lo + (hi - lo) * np.random.default_rng(seed).random((3, game.num_players))


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _relabelled(game, p):
    """The game whose player j is ``game``'s player p[j], so that its theta
    is ``game``'s theta[:, p]."""
    inv = np.argsort(p)

    def moved(coef):
        if not coef.depends_on:
            return coef
        return MatrixFn(coef.shape, lambda t, th: coef(t, np.asarray(th)[inv]),
                        lambda t, th, k: coef.d_theta(t, np.asarray(th)[inv], p[k]),
                        depends_on=[inv[k] for k in coef.depends_on],
                        time_varying=coef.time_varying)

    assert game.regularizers is None
    return dataclasses.replace(
        game, B=tuple(moved(game.B[i]) for i in p), Q=tuple(moved(game.Q[i]) for i in p),
        R=tuple(tuple(game.R[i][j] for j in p) for i in p),
        Qf=tuple(game.Qf[i] for i in p), theta_box=tuple(game.theta_box[i] for i in p))


def _coordinate_change(n, seed):
    """A random invertible T with singular values from 1 to 10."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return U @ np.diag(np.linspace(1.0, 10.0, n)) @ V.T


def _transformed(game, T):
    """The game in the state coordinates z = T x."""
    Ti = np.linalg.inv(T)

    def cost(M):
        M = Ti.T @ M @ Ti
        return 0.5 * (M + M.T)

    def mapped(coef, f):
        grad = (lambda t, th, k: f(coef.d_theta(t, th, k))) if coef.depends_on else None
        return MatrixFn(coef.shape, lambda t, th: f(coef(t, th)), grad,
                        depends_on=coef.depends_on, time_varying=coef.time_varying)

    return dataclasses.replace(
        game, A=mapped(game.A, lambda M: T @ M @ Ti), B=tuple(mapped(B, T.__matmul__)
                                                              for B in game.B),
        c=mapped(game.c, T.__matmul__), Q=tuple(mapped(Q, cost) for Q in game.Q),
        Qf=tuple(cost(Qf) for Qf in game.Qf), x0=T @ game.x0)


GAMES = {"three_players": (0, 3, 6, 2), "two_players": (1, 2, 3, 1)}


@pytest.fixture(scope="module", params=sorted(GAMES))
def evaluated(request):
    game = random_aq_game(*GAMES[request.param])
    thetas = _points(game, 3)
    return game, thetas, _evaluate(game, thetas)


def test_relabelling_the_players_permutes_values_and_gradients(evaluated):
    game, thetas, (costs, G) = evaluated
    for p in itertools.permutations(range(game.num_players)):
        p = list(p)
        got_costs, got_G = _evaluate(_relabelled(game, p), thetas[:, p])
        assert _rel(got_costs, costs[:, p]) <= 1e-13, p
        assert _rel(got_G, G[:, p][:, :, p]) <= 1e-13, p


def test_a_change_of_state_coordinates_changes_no_value_or_gradient(evaluated):
    game, thetas, (costs, G) = evaluated
    T = _coordinate_change(game.state_dim, 4)
    assert np.linalg.cond(T) <= 10.0 + 1e-9
    got_costs, got_G = _evaluate(_transformed(game, T), thetas)
    assert _rel(got_costs, costs) <= 1e-12
    assert _rel(got_G, G) <= 1e-12
