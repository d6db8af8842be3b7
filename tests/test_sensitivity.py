import dataclasses

import numpy as np
import pytest

from confgames import (InfeasibleTheta, TimeGrid, envelope_gradient, random_aq_game, rollout,
                       solve_stage_two, stage_one_costs, value_gradient)
from confgames.sensitivity import _eta_nodes, _general_sensitivity, _zerosum_sensitivity
from conftest import make_scalar_lqr, make_theta_independent_game, make_time_varying_game


def fd_gradient(game, theta, grid, h=1e-5):
    """Central-difference gradient of the first-stage costs."""
    N = game.num_players
    out = np.zeros((N, N))
    for k in range(N):
        step = np.zeros(N)
        step[k] = h
        Jp = stage_one_costs(solve_stage_two(game, theta + step, grid))[0]
        Jm = stage_one_costs(solve_stage_two(game, theta - step, grid))[0]
        out[:, k] = (Jp - Jm) / (2 * h)
    return out


def general_stacks(stage2):
    """The P, zeta and eta path-derivative stacks (steps+1, N, ...) of a
    one-member batch, from the general-sum core and the eta running sum."""
    Pk, zk = _general_sensitivity(stage2)
    return [a[:, 0] for a in (Pk, zk, _eta_nodes(stage2, zk))]


def column_from_paths(game, theta, k, Pk, zk, ek):
    """Column k of the value gradient from one component's path derivatives."""
    x0 = game.x0
    return np.array([
        0.5 * x0 @ Pk[0, i] @ x0 + zk[0, i] @ x0 + ek[0, i]
        for i in range(game.num_players)
    ]) + game.regularizer_gradients(theta)[:, k]


class TestPathDerivatives:
    """The batched sensitivity cores; column k of each stack is component k."""

    def test_everything_vanishes_without_parameter_dependence(self):
        game = make_theta_independent_game()
        grid = TimeGrid(1.0, 400)
        theta = np.array([1.0, 1.0])
        stage2 = solve_stage_two(game, theta, grid)
        for k in range(2):
            Pk, zk, ek = (a[:, k] for a in general_stacks(stage2))
            assert not Pk.any()
            assert not zk.any()
            assert not ek.any()
            assert not column_from_paths(game, theta, k, Pk, zk, ek).any()
        assert not value_gradient(game, theta, grid=grid).any()

    def test_scalar_lqr_matches_analytic_derivative(self):
        # P(0; theta) = tanh(theta)/theta, so dP/dtheta(0) at theta=1 is
        # sech(1)^2 - tanh(1)
        game = make_scalar_lqr()
        grid = TimeGrid(1.0, 1000)
        theta = np.array([1.0])
        stage2 = solve_stage_two(game, theta, grid)
        Pk = general_stacks(stage2)[0][:, 0]
        expected = 1.0 / np.cosh(1.0) ** 2 - np.tanh(1.0)
        assert Pk[0, 0, 0, 0] == pytest.approx(expected, rel=1e-6)

    def test_terminal_samples_exactly_zero(self, gs_game, gs_grid):
        theta = np.array([0.7, 1.0])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        Pk, zk, ek = (a[:, 0] for a in general_stacks(stage2))
        for i in range(2):
            assert not Pk[-1, i].any()
            assert not zk[-1, i].any()
            assert ek[-1, i] == 0.0

    def test_path_derivative_symmetric(self, gs_game, gs_grid):
        theta = np.array([0.4, 1.1])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        Pk = general_stacks(stage2)[0][:, 1]
        for i in range(2):
            p = Pk[:, i]
            asym = np.abs(p - p.transpose(0, 2, 1)).max()
            assert asym <= 1e-9

    def test_offset_derivatives_vanish_for_drive_free_games(self, pe_game, pe_grid):
        theta = np.array([0.5, 0.9])
        stage2 = solve_stage_two(pe_game, theta, pe_grid)
        # the zero-sum core returns the value-matrix derivative alone
        Pk = _zerosum_sensitivity(stage2)[:, 0]
        assert isinstance(Pk, np.ndarray) and Pk.shape == (pe_grid.steps + 1, 2, 8, 8)
        _, zk, ek = general_stacks(stage2)
        assert not zk.any() and not ek.any()

    def test_pursuit_value_matrix_derivative_against_differences(self, pe_game, pe_grid):
        theta = np.array([0.6, 1.0])
        x0 = pe_game.x0
        stage2 = solve_stage_two(pe_game, theta, pe_grid)
        h = 1e-5
        for k in range(2):
            Pk = _zerosum_sensitivity(stage2)[:, 0, k]
            lhs = 0.5 * x0 @ Pk[0] @ x0
            step = np.zeros(2)
            step[k] = h
            up = solve_stage_two(pe_game, theta + step, pe_grid).values[0, 0]
            dn = solve_stage_two(pe_game, theta - step, pe_grid).values[0, 0]
            fd = (up - dn) / (2 * h)
            assert lhs == pytest.approx(fd, rel=1e-4)

    def test_staged_public_operations_compose(self, gs_game, gs_grid):
        # the t=0 samples of column k of the core stacks reproduce column k
        # of the value gradient
        rand = random_aq_game(0, 3, 6, 2)
        cases = ((gs_game, gs_grid, np.array([0.8, 0.6])),
                 (rand, TimeGrid(rand.horizon, 1000), np.array([0.9, 1.1, 1.0])))
        for game, grid, theta in cases:
            stage2 = solve_stage_two(game, theta, grid)
            G = value_gradient(game, theta, grid=grid, stage2=stage2)[0]
            N = game.num_players
            batched = general_stacks(stage2)
            for k in range(N):
                column = [every[:, k] for every in batched]
                assert np.allclose(G[:, k], column_from_paths(game, theta, k, *column),
                                   atol=1e-12)


class TestSolutionMismatch:
    """A given stage-two solution is only used with its own game, theta and grid."""

    @pytest.mark.parametrize("op", ["value_gradient", "rollout"])
    def test_other_game_rejected(self, op, gs_game):
        # a copy with another terminal cost would get a gradient 6.6% off its own
        theta = np.array([0.7, 0.9])
        grid = TimeGrid(gs_game.horizon, 200)
        stage2 = solve_stage_two(gs_game, theta, grid)
        other = dataclasses.replace(gs_game, Qf=(np.eye(4), np.eye(4)))
        calls = {
            "value_gradient": lambda: value_gradient(other, theta, grid=grid, stage2=stage2),
            "rollout": lambda: rollout(other, theta, stage2),
        }
        with pytest.raises(ValueError, match="game"):
            calls[op]()

    @pytest.mark.parametrize("op", ["value_gradient", "directional_derivative"])
    @pytest.mark.parametrize("mismatch", ["grid", "theta"])
    def test_other_theta_or_grid_rejected(self, op, mismatch, gs_game, gs_grid):
        theta = np.array([0.7, 0.9])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        grid = gs_grid
        if mismatch == "grid":
            grid = TimeGrid(2 * gs_game.horizon, gs_grid.steps)
        else:
            theta = theta + np.array([0.1, -0.1])
        calls = {
            "value_gradient": lambda: value_gradient(gs_game, theta, grid=grid,
                                                     stage2=stage2),
            "directional_derivative": lambda: value_gradient(
                gs_game, theta, grid=grid, stage2=stage2) @ np.ones(2),
        }
        with pytest.raises(ValueError, match=mismatch):
            calls[op]()


class TestValueGradient:
    @pytest.mark.parametrize("scenario", ["pe", "gs"])
    def test_matches_central_differences_on_grid(self, scenario, pe_game, gs_game):
        game = pe_game if scenario == "pe" else gs_game
        grid = TimeGrid(game.horizon, 1000)
        lo = np.array([b[0] for b in game.theta_box])
        hi = np.array([b[1] for b in game.theta_box])
        for t1 in np.linspace(lo[0] + 0.08, hi[0] - 0.08, 3):
            for t2 in np.linspace(lo[1] + 0.08, hi[1] - 0.08, 3):
                theta = np.array([t1, t2])
                G = value_gradient(game, theta, grid=grid)
                FD = fd_gradient(game, theta, grid)
                rel = np.abs(G - FD) / np.maximum(np.abs(FD), 1e-12)
                assert rel.max() <= 1e-4

    def test_zero_sum_rows_are_exact_negatives(self, pe_game, pe_grid):
        G = value_gradient(pe_game, np.array([0.4, 1.2]), grid=pe_grid)[0]
        assert np.array_equal(G[1], -G[0])

    def test_infeasible_theta_raises(self, gs_game):
        # the builder rejects this horizon, so lengthen the built game's instead
        game = dataclasses.replace(gs_game, horizon=6.0)
        with pytest.raises(InfeasibleTheta) as info:
            value_gradient(game, np.array([0.6, 1.2]), grid=TimeGrid(6.0, 1000))
        assert info.value.time is not None

    def test_solving_takes_one_theta_vector(self, gs_game):
        # a (1, N) row is a one-member batch only beside the stage2 solved for it
        theta = np.array([[0.7, 0.9]])
        grid = TimeGrid(gs_game.horizon, 100)
        with pytest.raises(ValueError, match="must be one vector"):
            value_gradient(gs_game, theta, grid=grid)
        stage2 = solve_stage_two(gs_game, theta[0], grid)
        assert np.array_equal(value_gradient(gs_game, theta, grid=grid, stage2=stage2),
                              value_gradient(gs_game, theta[0], grid=grid))


class TestDirectionalDerivative:
    """The derivative along h is the gradient matrix applied to h."""

    def test_basis_direction_reproduces_component(self, gs_game, gs_grid):
        theta = np.array([0.7, 0.9])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        G = value_gradient(gs_game, theta, grid=gs_grid, stage2=stage2)[0]
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1.0
            d = value_gradient(gs_game, theta, grid=gs_grid, stage2=stage2)[0] @ e
            assert np.array_equal(d, G[:, k])

    def test_negating_direction_negates_result(self, gs_game, gs_grid):
        theta = np.array([0.7, 0.9])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        G = value_gradient(gs_game, theta, grid=gs_grid, stage2=stage2)
        h = np.array([0.3, -0.8])
        d1 = G @ h
        d2 = G @ -h
        assert np.array_equal(d1, -d2)

    def test_linearity(self, gs_game, gs_grid):
        theta = np.array([0.7, 0.9])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        G = value_gradient(gs_game, theta, grid=gs_grid, stage2=stage2)
        h1 = np.array([1.0, 0.2])
        h2 = np.array([-0.4, 0.9])
        a, b = 0.7, -1.3
        lhs = G @ (a * h1 + b * h2)
        rhs = a * (G @ h1) + b * (G @ h2)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_matches_difference_quotient(self, gs_game, gs_grid):
        theta = np.array([0.7, 0.9])
        h = np.array([1.0, 1.0]) / np.sqrt(2.0)
        d = value_gradient(gs_game, theta, grid=gs_grid) @ h
        eps = 1e-5
        J1 = stage_one_costs(solve_stage_two(gs_game, theta + eps * h, gs_grid))[0]
        J0 = stage_one_costs(solve_stage_two(gs_game, theta, gs_grid))[0]
        quotient = (J1 - J0) / eps
        assert np.abs(d - quotient).max() / np.abs(quotient).max() <= 1e-3


class TestEnvelopeGradient:
    @pytest.mark.parametrize("drive", [False, True])
    def test_zero_for_parameter_independent_game(self, drive):
        game = make_theta_independent_game(drive=drive)
        grid = TimeGrid(1.0, 400)
        env = envelope_gradient(solve_stage_two(game, np.array([1.0, 1.0]), grid))
        assert env.shape == (1, 2)
        assert np.abs(env).max() <= 1e-12

    def test_single_player_matches_value_gradient(self):
        game = make_scalar_lqr()
        grid = TimeGrid(1.0, 1000)
        theta = np.array([1.0])
        stage2 = solve_stage_two(game, theta, grid)
        env = envelope_gradient(stage2)[0, 0]
        G = value_gradient(game, theta, grid=grid, stage2=stage2)[0]
        assert env == pytest.approx(G[0, 0], rel=1e-5)
        expected = 0.5 * (1.0 / np.cosh(1.0) ** 2 - np.tanh(1.0))
        assert env == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_own_gradient_on_random_drive_free_games(self, seed):
        game = random_aq_game(seed, num_players=2, state_dim=3, control_dim=1,
                              affine=False)
        grid = TimeGrid(game.horizon, 1000)
        theta = np.array([0.9, 1.15])
        stage2 = solve_stage_two(game, theta, grid)
        G = value_gradient(game, theta, grid=grid, stage2=stage2)[0]
        np.testing.assert_allclose(envelope_gradient(stage2)[0], np.diag(G), rtol=1e-3)

    def test_matches_own_gradient_with_time_varying_coefficients(self):
        game = make_time_varying_game()
        grid = TimeGrid(1.0, 1000)
        theta = np.array([0.8, 1.2])
        stage2 = solve_stage_two(game, theta, grid)
        G = value_gradient(game, theta, grid=grid, stage2=stage2)[0]
        np.testing.assert_allclose(envelope_gradient(stage2)[0], np.diag(G), rtol=1e-6)

    def test_matches_own_gradient_on_zero_sum_solution(self, pe_game, pe_grid):
        # a zero-sum solution holds the player stack (P, -P) and no offsets,
        # which the general-sum strategy shifts and the rollout read
        theta = np.array([0.4, 1.1])
        stage2 = solve_stage_two(pe_game, theta, pe_grid)
        G = value_gradient(pe_game, theta, grid=pe_grid, stage2=stage2)[0]
        np.testing.assert_allclose(envelope_gradient(stage2)[0], np.diag(G), rtol=1e-9)

    def test_matches_own_gradient_with_drive_term(self, gs_game, gs_grid):
        # the costate and the strategy shifts carry the offsets zeta and
        # their derivatives; the regularizers are outside the integral
        theta = np.array([0.7, 0.9])
        stage2 = solve_stage_two(gs_game, theta, gs_grid)
        G = (value_gradient(gs_game, theta, grid=gs_grid, stage2=stage2)[0]
             - gs_game.regularizer_gradients(theta))
        np.testing.assert_allclose(envelope_gradient(stage2)[0], np.diag(G), rtol=1e-9, atol=0)
