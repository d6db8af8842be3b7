import collections
import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from confgames import (BlowUpDetected, ConfigGame, GeneralSumSpec, MatrixFn, StageTables,
                       TimeGrid, rollout, solve_coupled_riccati, solve_eta,
                       solve_stage_two, solve_zerosum_riccati, solve_zeta,
                       stage_one_costs, value_gradient)
from confgames import riccati
from confgames._stage import _compact, _rows
from confgames.odekit import StageBlocks, integrate_backward, stage_samples
from conftest import build_gs_quiet, make_scalar_lqr, make_time_varying_game


class TestCoupledRiccati:
    def test_scalar_closed_form(self):
        game = make_scalar_lqr()
        sol = solve_stage_two(game, np.array([1.0]), TimeGrid(1.0, 1000))
        P0 = sol.P_nodes[0, 0, 0, 0, 0]
        assert abs(P0 - np.tanh(1.0)) < 1e-8
        assert sol.values[0, 0] == pytest.approx(0.5 * np.tanh(1.0), rel=1e-8)

    def test_zero_cost_gives_zero_solution(self, pe_game):
        game = make_scalar_lqr(q=0.0, qf=0.0)
        P, blown = solve_coupled_riccati(StageTables(game, np.array([1.0]), TimeGrid(1.0, 100)))
        assert not P.any() and not blown

    def test_terminal_conditions_bit_exact(self, gs_game, gs_grid):
        theta = np.array([0.7, 1.0])
        sol = solve_stage_two(gs_game, theta, gs_grid)
        for i in range(2):
            assert np.array_equal(sol.P_nodes[-1, 0, i], gs_game.Qf[i])
            assert not sol.zeta_nodes[-1, 0, i].any()
            assert sol.eta_nodes[-1, 0, i] == 0.0

    def test_value_matrix_paths_symmetric(self, gs_game, gs_grid):
        sol = solve_stage_two(gs_game, np.array([0.5, 1.1]), gs_grid)
        for i in range(2):
            p = sol.P_nodes[:, 0, i]
            asym = np.abs(p - p.transpose(0, 2, 1)).max()
            assert asym <= 1e-9

    def test_blowup_propagates_player_and_time(self, gs_game):
        # the builder rejects this horizon, so lengthen the built game's instead
        game = dataclasses.replace(gs_game, horizon=6.0)
        _, blown = solve_coupled_riccati(StageTables(game, np.array([0.6, 1.2]),
                                                     TimeGrid(6.0, 1000)))
        assert isinstance(blown[0], BlowUpDetected)
        assert 0.0 < blown[0].time < 6.0
        assert blown[0].player in (0, 1)

    def test_theta_outside_box_rejected(self, pe_game):
        with pytest.raises(ValueError):
            solve_stage_two(pe_game, np.array([-0.5, 0.3]))

    def test_grid_with_another_horizon_rejected(self, pe_game):
        # a half-horizon grid would silently give 0.00838 for a value of 0.00805
        with pytest.raises(ValueError, match="horizon"):
            solve_stage_two(pe_game, np.array([0.4, 1.1]), TimeGrid(pe_game.horizon / 2, 200))


class TestAffinePasses:
    def test_offsets_vanish_without_drive(self, pe_game, pe_grid):
        sol = solve_stage_two(pe_game, np.array([0.4, 0.9]), pe_grid)
        assert np.abs(sol.offset_rows(slice(None))[0]).max() <= 1e-12

    def test_offsets_vanish_when_value_matrix_zero(self):
        # no control authority, no state cost, but a unit drive
        game = ConfigGame(
            horizon=1.0,
            A=MatrixFn.constant(np.zeros((1, 1))),
            B=(MatrixFn.constant(np.zeros((1, 1))),),
            Q=(MatrixFn.constant(np.zeros((1, 1))),),
            R=((MatrixFn.constant(np.eye(1)),),),
            c=MatrixFn.constant(np.ones(1)), Qf=(np.zeros((1, 1)),),
            theta_box=((0.0, 1.0),), x0=np.ones(1))
        grid = TimeGrid(1.0, 100)
        theta = np.array([0.5])
        tabs = StageTables(game, theta, grid)
        P, _ = solve_coupled_riccati(tabs)
        assert not P.any()
        zeta, _ = solve_zeta(tabs, P)
        assert not zeta.any()
        eta, _ = solve_eta(tabs, zeta)
        assert not eta.any()

    def test_drive_residual_recomputation(self, gs_game, gs_grid):
        theta = np.array([0.8, 0.9])
        sol = solve_stage_two(gs_game, theta, gs_grid)
        beta = sol.offset_rows(slice(None))[1]
        for j, t in enumerate(gs_grid.nodes):
            expected = gs_game.c(t, theta).copy()
            for i in range(2):
                Bi = gs_game.B[i](t, theta)
                S_ii = Bi @ np.linalg.solve(gs_game.R[i][i](t, theta), Bi.T)
                expected -= S_ii @ sol.zeta_nodes[j, 0, i]
            assert np.abs(beta[2 * j, 0] - expected).max() <= 1e-10


class TestStageSamples:
    @pytest.mark.parametrize("scenario,expected", [
        ("gs", {"_closed_loop": 1, "_drive_residual": 1, "stage_samples": 2}),
        ("pe", {"_closed_loop": 1, "_drive_residual": 1, "stage_samples": 1}),
    ])
    def test_derived_once_per_solve(self, scenario, expected, pe_game, gs_game, monkeypatch):
        # neither a solve nor its gradient forms a stage-time array at full
        # length (their passes form them a block of stage rows at a time);
        # the rollout forms each of its own once
        calls = collections.Counter()
        for name in expected:
            def counted(*args, name=name, real=getattr(riccati, name)):
                out = real(*args)
                if len(out) == len(grid.stage_times):
                    calls[name] += 1
                return out
            monkeypatch.setattr(riccati, name, counted)
        game = gs_game if scenario == "gs" else pe_game
        theta = np.array([0.7, 0.9])
        grid = TimeGrid(game.horizon, 200)
        sol = solve_stage_two(game, theta, grid)
        assert not calls
        value_gradient(game, theta, grid=grid, stage2=sol)
        assert not calls
        rollout(game, theta, sol)
        assert calls == expected


class TestTimeConstantTables:
    # a right-hand side reads a table broadcast along its stage axis once,
    # and each pass keeps the bits of indexing every table at every call

    def test_broadcast_table_is_read_once(self):
        rows = riccati._stage_rows(np.broadcast_to(np.eye(2), (5, 2, 2)))
        assert len(rows) == 5 and all(r is rows[0] for r in rows)
        varying = np.arange(20.0).reshape(5, 2, 2)
        assert [r.tolist() for r in riccati._stage_rows(varying)] == varying.tolist()

    def test_zerosum_pass_bits(self, pe_game, pe_grid):
        tabs = StageTables(pe_game, np.array([[0.4, 1.1], [1.3, 0.2]]), pe_grid)
        assert tabs.A.strides[0] == tabs.Q.strides[0] == tabs.S.strides[0] == 0
        A, Q, Stilde = tabs.A, tabs.Q[:, :, 0], riccati._zerosum_coupling(tabs)

        def rhs(s, P):
            return -(riccati._plus_mT(P @ A[s]) + Q[s] + P @ Stilde[s] @ P)

        P = integrate_backward(rhs, np.broadcast_to(pe_game.Qf[0], (2, 8, 8)), pe_grid,
                               project_state=riccati._sym_stack, blowups={})
        assert np.array_equal(solve_zerosum_riccati(tabs)[0], P)

    def test_coupled_pass_bits(self):
        # state costs that switch inside the horizon beside time-constant
        # drift and couplings
        game = build_gs_quiet(GeneralSumSpec(switch_time=0.225))
        grid = TimeGrid(game.horizon, 1000)
        tabs = StageTables(game, np.array([[0.6, 1.2], [0.9, 0.3]]), grid)
        assert tabs.Q.strides[0] != 0 and tabs.A.strides[0] == tabs.S.strides[0] == 0
        A, S, S_diag, Q = tabs.A, tabs.S, tabs.S_diag, tabs.Q

        def rhs(s, Y):
            F = A[s] - np.add.reduce(S_diag[s] @ Y, axis=1)
            cross = np.add.reduce(Y[:, None] @ S[s] @ Y[:, None], axis=2)
            return -(riccati._plus_mT(Y @ F[:, None]) + Q[s] + cross)

        P = integrate_backward(rhs, np.broadcast_to(np.stack(game.Qf), (2, 2, 4, 4)), grid,
                               project_state=riccati._sym_stack, blowups={})
        assert np.array_equal(solve_coupled_riccati(tabs)[0], P)

    def test_zeta_pass_bits(self, gs_game, gs_grid):
        # the drive and the own couplings are time-constant; the stage
        # products are formed in blocks as in the pass itself
        tabs = StageTables(gs_game, np.array([[0.6, 1.2], [0.9, 0.3]]), gs_grid)
        assert tabs.c.strides[0] == tabs.S_diag.strides[0] == 0 and tabs.c.any()
        P, S = solve_coupled_riccati(tabs)[0], _compact(tabs.S)

        def block(r):
            P_st = stage_samples(P, r)
            PS = np.einsum("m...jab,m...ijbc->m...ijac", P_st, _rows(S, r), optimize=True)
            return list(zip(P_st, riccati._closed_loop(tabs, P_st, r), PS))

        stage = StageBlocks(block, len(gs_grid.stage_times), tabs.coupling_elems)

        def rhs(s, Z):
            P_s, F, PS = stage[s]
            zc = Z[..., None]
            beta = tabs.c[s] - np.add.reduce((tabs.S_diag[s] @ zc)[..., 0], axis=1)
            coupling = np.add.reduce((PS @ zc[:, None])[..., 0], axis=2)
            return -(Z @ F + coupling + (P_s @ beta[:, None, :, None])[..., 0])

        zeta = integrate_backward(rhs, np.zeros((2, 2, 4)), gs_grid, blowups={})
        assert np.array_equal(solve_zeta(tabs, P)[0], zeta)


class TestOneMemberBatch:
    @pytest.mark.parametrize("scenario", ["pe", "gs"])
    def test_solve_stage_two_is_the_one_member_batch(self, scenario, pe_game, gs_game):
        game = gs_game if scenario == "gs" else pe_game
        theta, grid = np.array([0.7, 0.9]), TimeGrid(game.horizon, 50)
        sol = solve_stage_two(game, theta, grid)
        batch, failures = riccati._solve_batch(game, theta[None], grid)
        assert isinstance(sol, riccati.StageTwoBatch) and not failures
        assert np.array_equal(sol.members, [0]) and np.array_equal(sol.tables.thetas, [theta])
        assert sol.values.shape == (1, 2) and sol.P_nodes.shape[1] == 1
        for name in ("values", "P_nodes", "zeta_nodes", "eta_nodes"):
            got, want = getattr(sol, name), getattr(batch, name)
            assert (got is None and want is None) or np.array_equal(got, want)
        assert (sol.zeta_nodes is None) == (scenario == "pe")


class TestZeroSum:
    def test_equal_capability_reduces_to_terminal_condition(self):
        # identical actuation cancels the coupling; with zero drift the
        # value matrix stays at its terminal value
        n = 2
        B = MatrixFn.constant(np.array([[1.0], [0.5]]))
        Qf = np.array([[2.0, 0.3], [0.3, 1.0]])
        eye1 = MatrixFn.constant(np.eye(1))
        game = ConfigGame(
            horizon=1.0,
            A=MatrixFn.constant(np.zeros((n, n))), B=(B, B),
            Q=(MatrixFn.constant(np.zeros((n, n))),) * 2,
            R=((eye1, MatrixFn.constant(-np.eye(1))),
               (MatrixFn.constant(-np.eye(1)), eye1)),
            c=MatrixFn.constant(np.zeros(n)), Qf=(Qf, -Qf),
            theta_box=((0.0, 1.0),) * 2, x0=np.ones(n), zero_sum=True)
        P, _ = solve_zerosum_riccati(StageTables(game, np.array([0.5, 0.5]), TimeGrid(1.0, 100)))
        assert np.allclose(P[0, 0], Qf, atol=1e-14)

    def test_matched_angles_match_matrix_exponential_oracle(self, pe_game, pe_grid):
        # equal capabilities cancel the quadratic term, leaving a linear
        # flow whose solution is a congruence by the state transition
        theta = np.array([np.pi / 4, np.pi / 4])
        sol = solve_stage_two(pe_game, theta, pe_grid)
        A = pe_game.A(0.0, theta)
        T = pe_game.horizon
        Phi = expm(A * T)
        expected = Phi.T @ pe_game.Qf[0] @ Phi
        assert np.abs(sol.P_nodes[0, 0, 0] - expected).max() <= 1e-9
        x0 = pe_game.x0
        assert sol.values[0, 0] == pytest.approx(0.5 * x0 @ expected @ x0, abs=1e-12)

    def test_solution_stores_no_offsets(self, pe_game, pe_grid):
        sol = solve_stage_two(pe_game, np.array([0.4, 0.9]), pe_grid)
        assert sol.zeta_nodes is None and sol.eta_nodes is None
        assert np.array_equal(sol.P_nodes[:, 0, 1], -sol.P_nodes[:, 0, 0])
        zeta, beta = sol.offset_rows(slice(None))
        assert zeta.shape == (2 * pe_grid.steps + 1, 1, 2, 8)
        assert not zeta.any()
        assert not beta.any()
        x0 = pe_game.x0
        assert 0.5 * float(x0 @ sol.P_nodes[0, 0, 0] @ x0) == stage_one_costs(sol)[0, 0]

    def test_zero_sum_values_sum_to_zero(self, pe_game, pe_grid):
        sol = solve_stage_two(pe_game, np.array([0.3, 1.4]), pe_grid)
        assert sol.values[0, 0] + sol.values[0, 1] == 0.0

    def test_coupled_encoding_agrees_with_single_matrix(self, pe_game, pe_grid):
        for theta in (np.array([0.4, 1.1]), np.array([1.3, 0.2])):
            tabs = StageTables(pe_game, theta, pe_grid)
            Pc = solve_coupled_riccati(tabs)[0][:, 0]
            Pz = solve_zerosum_riccati(tabs)[0][:, 0]
            assert np.abs(Pc[:, 0] - Pz).max() <= 1e-6
            assert np.abs(Pc[:, 1] + Pz).max() <= 1e-6

    def test_relabeling_players_negates_value(self, pe_game, pe_grid):
        # the evader-first relabeling (blocks, angles, and objective sign
        # all exchanged) describes the same physical chase, so its
        # slot-one value is the negation of the pursuer's
        x0 = pe_game.x0
        x0_swapped = np.concatenate([x0[4:], x0[:4]])
        relabeled = ConfigGame(
            horizon=pe_game.horizon, A=pe_game.A,
            B=pe_game.B, Q=pe_game.Q, R=pe_game.R, c=pe_game.c,
            Qf=(-pe_game.Qf[0], pe_game.Qf[0]),
            theta_box=pe_game.theta_box, x0=x0_swapped, zero_sum=True)
        grid = TimeGrid(pe_game.horizon, 400)
        for t1 in np.linspace(0.05, np.pi / 2 - 0.05, 5):
            for t2 in np.linspace(0.05, np.pi / 2 - 0.05, 5):
                a = solve_stage_two(pe_game, np.array([t1, t2]), grid).values[0, 0]
                b = solve_stage_two(relabeled, np.array([t2, t1]), grid).values[0, 0]
                assert a == pytest.approx(-b, abs=1e-12)

    def test_mirrored_start_state_is_value_neutral(self, pe_game):
        # the value is quadratic in the start state and the game is
        # translation invariant, so exchanging the position blocks alone
        # leaves the landscape unchanged
        from confgames import PursuitEvasionSpec, build_pursuit_evasion
        x0 = pe_game.x0
        swapped = build_pursuit_evasion(
            PursuitEvasionSpec(x0=tuple(np.concatenate([x0[4:], x0[:4]]))))
        grid = TimeGrid(pe_game.horizon, 400)
        theta = np.array([0.3, 1.0])
        a = solve_stage_two(pe_game, theta, grid).values[0, 0]
        b = solve_stage_two(swapped, theta, grid).values[0, 0]
        assert a == pytest.approx(b, abs=1e-12)


class TestValues:
    def test_identity_value_matrix(self):
        game = ConfigGame(
            horizon=1.0,
            A=MatrixFn.constant(np.zeros((2, 2))),
            B=(MatrixFn.constant(np.zeros((2, 1))),),
            Q=(MatrixFn.constant(np.zeros((2, 2))),),
            R=((MatrixFn.constant(np.eye(1)),),),
            c=MatrixFn.constant(np.zeros(2)), Qf=(np.eye(2),),
            theta_box=((0.0, 1.0),), x0=np.array([1.0, 1.0]))
        sol = solve_stage_two(game, np.array([0.5]), TimeGrid(1.0, 100))
        assert stage_one_costs(sol)[0, 0] == pytest.approx(1.0)

    def test_regularizer_added_to_stage_one_cost(self, gs_game, gs_grid):
        theta = np.array([0.5, 0.5])
        sol = solve_stage_two(gs_game, theta, gs_grid)
        costs = stage_one_costs(sol)[0]
        # at equal parameters the proximity bump is exactly w_r
        assert costs[0] == pytest.approx(sol.values[0, 0] + 0.02, abs=1e-15)
        x0 = gs_game.x0
        value = (0.5 * x0 @ sol.P_nodes[0, 0, 0] @ x0 + sol.zeta_nodes[0, 0, 0] @ x0
                 + sol.eta_nodes[0, 0, 0] + gs_game.regularizer_values(theta)[0])
        assert value == pytest.approx(costs[0])


class TestRollout:
    def test_zero_cost_rollout_is_free(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        game = ConfigGame(
            horizon=1.0,
            A=MatrixFn.constant(A), B=(MatrixFn.constant(np.array([[0.0], [1.0]])),),
            Q=(MatrixFn.constant(np.zeros((2, 2))),),
            R=((MatrixFn.constant(np.eye(1)),),),
            c=MatrixFn.constant(np.zeros(2)), Qf=(np.zeros((2, 2)),),
            theta_box=((0.0, 1.0),), x0=np.array([1.0, 2.0]))
        grid = TimeGrid(1.0, 200)
        sol = solve_stage_two(game, np.array([0.5]), grid)
        ro = rollout(game, np.array([0.5]), sol)
        assert not ro.u[0].any()
        assert ro.rollout_costs[0, 0] == 0.0
        assert np.allclose(ro.x[-1, 0], expm(A) @ game.x0, atol=1e-10)

    def test_initial_state_exact(self, gs_game, gs_grid):
        sol = solve_stage_two(gs_game, np.array([0.6, 0.8]), gs_grid)
        ro = rollout(gs_game, np.array([0.6, 0.8]), sol)
        assert np.array_equal(ro.x[0, 0], gs_game.x0)

    def test_rejects_theta_other_than_the_solutions(self, gs_game, gs_grid):
        sol = solve_stage_two(gs_game, np.array([0.6, 0.8]), gs_grid)
        with pytest.raises(ValueError, match="theta"):
            rollout(gs_game, np.array([0.7, 0.7]), sol)

    def test_scalar_lqr_rollout_matches_closed_form(self):
        game = make_scalar_lqr(x0=1.0)
        grid = TimeGrid(1.0, 1000)
        sol = solve_stage_two(game, np.array([1.0]), grid)
        ro = rollout(game, np.array([1.0]), sol)
        assert ro.rollout_costs[0, 0] == pytest.approx(np.tanh(1.0) / 2, rel=1e-6)

    def test_controls_match_feedback_law(self, gs_game, gs_grid):
        theta = np.array([0.9, 0.7])
        sol = solve_stage_two(gs_game, theta, gs_grid)
        ro = rollout(gs_game, theta, sol)
        for i in range(2):
            Bi = gs_game.B[i](0.0, theta)
            Rii = gs_game.R[i][i](0.0, theta)
            for j in (0, 250, 700, 1000):
                x = ro.x[j, 0]
                expected = -np.linalg.solve(
                    Rii, Bi.T @ (sol.P_nodes[j, 0, i] @ x + sol.zeta_nodes[j, 0, i]))
                assert np.abs(ro.u[i][j, 0] - expected).max() <= 1e-10

    def test_time_varying_coefficients_sampled_per_node(self):
        game = make_time_varying_game()
        theta = np.array([0.8, 1.2])
        grid = TimeGrid(1.0, 400)
        sol = solve_stage_two(game, theta, grid)
        ro = rollout(game, theta, sol)
        for i in range(2):
            for j in (0, 130, 257, 400):
                t = grid.nodes[j]
                expected = -np.linalg.solve(
                    game.R[i][i](t, theta),
                    game.B[i](t, theta).T @ (sol.P_nodes[j, 0, i] @ ro.x[j, 0]
                                             + sol.zeta_nodes[j, 0, i]))
                assert np.abs(ro.u[i][j, 0] - expected).max() <= 1e-10
        err = np.abs(sol.values - ro.rollout_costs)
        assert np.all(err <= 1e-8 * (1.0 + np.abs(sol.values)))

    def test_value_rollout_consistency_on_scenarios(self, pe_game, gs_game):
        rng = np.random.default_rng(11)
        for game in (pe_game, gs_game):
            grid = TimeGrid(game.horizon, 1000)
            lo = np.array([b[0] for b in game.theta_box])
            hi = np.array([b[1] for b in game.theta_box])
            for _ in range(5):
                theta = lo + rng.random(2) * (hi - lo)
                sol = solve_stage_two(game, theta, grid)
                ro = rollout(game, theta, sol)
                err = np.abs(sol.values - ro.rollout_costs)
                assert np.all(err <= 1e-4 * (1.0 + np.abs(sol.values)))

    def test_saddle_rollout_matches_value(self, pe_game, pe_grid):
        theta = np.array([0.218, 0.218])
        sol = solve_stage_two(pe_game, theta, pe_grid)
        ro = rollout(pe_game, theta, sol)
        assert ro.rollout_costs[0, 0] == pytest.approx(sol.values[0, 0], rel=1e-5)

    def test_trajectory_against_refined_grid_reference(self, pe_game, pe_grid):
        # a 16x finer fixed grid serves as the reference integration
        theta = np.array([0.5, 1.0])
        coarse = rollout(pe_game, theta, solve_stage_two(pe_game, theta, pe_grid))
        fine_grid = TimeGrid(pe_game.horizon, 16 * pe_grid.steps)
        fine = rollout(pe_game, theta, solve_stage_two(pe_game, theta, fine_grid))
        ref = fine.x[-1]
        rel = np.abs(coarse.x[-1] - ref).max() / np.abs(ref).max()
        assert rel <= 1e-6


class TestGridRefinement:
    @pytest.mark.parametrize("scenario", ["pe", "gs"])
    def test_halving_dt_barely_moves_values(self, scenario, pe_game, gs_game):
        game = pe_game if scenario == "pe" else gs_game
        theta = game.theta_mid
        coarse = solve_stage_two(game, theta, TimeGrid(game.horizon, 1000)).values
        fine = solve_stage_two(game, theta, TimeGrid(game.horizon, 2000)).values
        assert np.all(np.abs(coarse - fine) <= 1e-6 * (1.0 + np.abs(fine)))
