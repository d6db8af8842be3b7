import dataclasses

import numpy as np
import pytest

from confgames import (GeneralSumSpec, InfeasibleTheta, PursuitEvasionSpec, TimeGrid,
                       build_pursuit_evasion, random_aq_game, riccati, rollout, scenarios,
                       solve_stage_two, stage_one_costs, value_gradient)
from confgames.solver import _evaluate_batch
from conftest import build_gs_quiet, count_solves


def _float_fields(spec):
    return [f.name for f in dataclasses.fields(spec) if f.type in (float, "float")]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("build,spec,field", [
    *((build_pursuit_evasion, PursuitEvasionSpec, f) for f in _float_fields(PursuitEvasionSpec)),
    *((build_gs_quiet, GeneralSumSpec, f) for f in _float_fields(GeneralSumSpec)),
])
def test_non_finite_spec_value_rejected_by_build(build, spec, field, value):
    # a NaN switch_time read as negative dropped the separation reward,
    # solving as switch_time=-1; a NaN w_r failed only after the first
    # evaluation, as a theta outside the box
    with pytest.raises(ValueError, match=f"{field} is not finite"):
        build(spec(**{field: value}))


class TestPursuitEvasionBuilder:
    def test_actuation_blocks_and_placement(self, pe_game):
        B1 = pe_game.B[0](0.0, np.array([0.0, np.pi / 2]))
        assert np.allclose(B1[2:4], np.diag([2.0, 1.0]))
        assert not B1[:2].any() and not B1[4:].any()
        B2 = pe_game.B[1](0.0, np.array([0.0, np.pi / 2]))
        assert np.allclose(B2[6:8], np.diag([1.0, 2.0]))
        assert not B2[:6].any()

    def test_terminal_cost_is_scaled_squared_separation(self, pe_game):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=8)
            form = x @ pe_game.Qf[0] @ x
            sep = x[0:2] - x[4:6]
            assert form == pytest.approx(5e-4 * (sep @ sep), abs=1e-15)

    def test_structure(self, pe_game):
        assert pe_game.zero_sum
        assert (pe_game.num_players, pe_game.state_dim) == (2, 8)
        assert [b.shape[1] for b in pe_game.B] == [2, 2]
        theta = np.array([0.3, 0.4])
        assert not pe_game.Q[0](0.5, theta).any()
        assert not pe_game.c(0.5, theta).any()

    def test_infeasible_horizon_reports_divergence(self):
        with pytest.raises(ValueError, match="diverges near t="):
            build_pursuit_evasion(PursuitEvasionSpec(horizon=60.0))

    @pytest.mark.parametrize("field,value,match", [
        ("horizon", -1.0, "horizon must be positive"),
        ("x0", (1.0, 2.0), "x0 must have"),
    ])
    def test_malformed_spec_rejected_by_build(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            build_pursuit_evasion(PursuitEvasionSpec(**{field: value}))

    def test_diagonal_values_constant(self, pe_game):
        # equal capabilities cancel the coupling, so the common angle is
        # irrelevant along the diagonal
        grid = TimeGrid(pe_game.horizon, 400)
        vals = [solve_stage_two(pe_game, np.array([t, t]), grid).values[0, 0]
                for t in np.linspace(0.0, np.pi / 2, 5)]
        assert max(vals) - min(vals) <= 1e-9


class TestGeneralSumBuilder:
    def test_state_cost_expands_to_tracking_and_separation(self, gs_game):
        spec = GeneralSumSpec()
        rng = np.random.default_rng(4)
        f = np.array([0.0, spec.v_o1, 0.0, spec.v_o2])
        for t in (0.1, 0.3):
            for _ in range(3):
                x = rng.normal(size=4)
                shifted = x - f
                form = shifted @ gs_game.eval_Q(0, t, np.array([0.5, 0.5])) @ shifted
                qh = spec.q_h_at(t)
                expected = (-qh * (x[0] - x[2]) ** 2
                            + spec.q_v * ((x[1] - spec.v_o1) ** 2
                                          + (x[3] - spec.v_o2) ** 2))
                assert form == pytest.approx(expected, abs=1e-12)

    def test_separation_weight_steps_at_switch_time(self):
        spec = GeneralSumSpec()
        assert spec.q_h_at(2.9) == 100.0
        assert spec.q_h_at(3.0) == 100.0
        assert spec.q_h_at(3.1) == 0.0

    def test_drive_and_start_state_from_shift(self, gs_game):
        spec = GeneralSumSpec()
        assert np.allclose(gs_game.c(0.0, np.zeros(2)),
                           [spec.v_o1, 0.0, spec.v_o2, 0.0])
        assert np.allclose(gs_game.x0, [0.0, -spec.v_o1, 0.0, -spec.v_o2])

    def test_regularizer_gradient_vanishes_at_equal_parameters(self, gs_game):
        g = gs_game.regularizer_gradients(np.array([0.8, 0.8]))
        assert not g.any()

    def test_regularizer_gradient_matches_differences(self, gs_game):
        theta = np.array([0.5, 1.1])
        h = 1e-6
        g = gs_game.regularizer_gradients(theta)
        for i in range(2):
            reg = gs_game.regularizers[i]
            for k in range(2):
                step = np.zeros(2)
                step[k] = h
                fd = (reg.value(theta + step) - reg.value(theta - step)) / (2 * h)
                assert g[i, k] == pytest.approx(fd, abs=1e-8)

    def test_player_exchange_symmetry(self, gs_game):
        # equal preferred speeds and a symmetric start make the game
        # invariant under exchanging player labels
        grid = TimeGrid(gs_game.horizon, 400)
        for t1 in np.linspace(0.3, 1.1, 5):
            for t2 in np.linspace(0.3, 1.1, 5):
                a = stage_one_costs(solve_stage_two(gs_game, np.array([t1, t2]), grid))[0]
                b = stage_one_costs(solve_stage_two(gs_game, np.array([t2, t1]), grid))[0]
                assert a[0] == pytest.approx(b[1], abs=1e-8)
                assert a[1] == pytest.approx(b[0], abs=1e-8)

    def test_infeasible_horizon_reports_divergence(self):
        with pytest.raises(ValueError, match="diverges near t="):
            build_gs_quiet(GeneralSumSpec(horizon=6.0))

    def test_nonpositive_horizon_rejected_by_build(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            build_gs_quiet(GeneralSumSpec(horizon=-1.0))

    def test_values_stable_under_step_doubling_with_inhorizon_switch(self):
        # place the separation-weight switch on a grid node inside the
        # horizon and confirm refinement barely moves the values
        spec = GeneralSumSpec(switch_time=0.225)
        game = build_gs_quiet(spec)
        theta = np.array([0.6, 0.9])
        coarse = solve_stage_two(game, theta, TimeGrid(spec.horizon, 1000)).values
        fine = solve_stage_two(game, theta, TimeGrid(spec.horizon, 2000)).values
        assert np.all(np.abs(coarse - fine) <= 1e-5 * (1.0 + np.abs(fine)))


class TestRandomGames:
    def test_deterministic_across_builds(self):
        a = random_aq_game(42)
        b = random_aq_game(42)
        theta = np.array([0.9, 1.2])
        for t in (0.0, 0.5):
            assert np.array_equal(a.A(t, theta), b.A(t, theta))
            for i in range(2):
                assert np.array_equal(a.B[i](t, theta), b.B[i](t, theta))
                assert np.array_equal(a.eval_Q(i, t, theta), b.eval_Q(i, t, theta))
        assert np.array_equal(a.x0, b.x0)

    def test_different_seeds_differ(self):
        a = random_aq_game(1)
        b = random_aq_game(2)
        assert not np.array_equal(a.x0, b.x0)

    @pytest.mark.parametrize("seed,players,n,m", [(0, 1, 2, 1), (1, 2, 3, 1),
                                                  (2, 3, 4, 2)])
    def test_value_rollout_consistency(self, seed, players, n, m):
        game = random_aq_game(seed, players, n, m)
        grid = TimeGrid(game.horizon, 1000)
        rng = np.random.default_rng(seed + 100)
        for _ in range(3):
            theta = 0.5 + rng.random(players)
            sol = solve_stage_two(game, theta, grid)
            ro = rollout(game, theta, sol)
            err = np.abs(sol.values - ro.rollout_costs)
            assert np.all(err <= 1e-4 * (1.0 + np.abs(sol.values)))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_gradient_matches_differences(self, seed):
        game = random_aq_game(seed, 2, 3, 1)
        grid = TimeGrid(game.horizon, 1000)
        theta = np.array([0.8, 1.1])
        G = value_gradient(game, theta, grid=grid)[0]
        h = 1e-5
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            Jp = solve_stage_two(game, theta + step, grid).values[0]
            Jm = solve_stage_two(game, theta - step, grid).values[0]
            fd = (Jp - Jm) / (2 * h)
            rel = np.abs(G[:, k] - fd) / np.maximum(np.abs(fd), 1e-12)
            assert rel.max() <= 1e-4

    def test_rejects_out_of_range_requests(self):
        with pytest.raises(ValueError):
            random_aq_game(0, num_players=4)
        with pytest.raises(ValueError):
            random_aq_game(0, state_dim=9)
        with pytest.raises(ValueError):
            random_aq_game(0, control_dim=3)


class TestFeasibilityProbes:
    # a build probes only the value-matrix pass: the offsets and constants
    # are linear passes driven by the value matrices

    def test_builds_take_only_the_value_pass(self, monkeypatch):
        def unused(*args):
            raise AssertionError("a feasibility probe solved an affine pass")

        monkeypatch.setattr(riccati, "solve_zeta", unused)
        monkeypatch.setattr(riccati, "solve_eta", unused)
        thetas = count_solves(monkeypatch)
        build_pursuit_evasion()
        build_gs_quiet()
        random_aq_game(0, 3, 6, 2)
        assert thetas == []

    @pytest.mark.parametrize("build,spec", [
        (build_pursuit_evasion, PursuitEvasionSpec(horizon=60.0)),
        (build_gs_quiet, GeneralSumSpec(horizon=6.0)),
    ])
    def test_corner_message_matches_the_full_solve(self, build, spec, monkeypatch):
        # the message names the first corner, divergence time included, at
        # which the whole stage-two solve would have failed
        checked = []
        real = scenarios._check_box_corners
        monkeypatch.setattr(scenarios, "_check_box_corners",
                            lambda game, what: checked.append((game, what)) or real(game, what))
        with pytest.raises(ValueError) as info:
            build(spec)
        (game, what), = checked
        corners = [(t1, t2) for t1 in game.theta_box[0] for t2 in game.theta_box[1]]
        grid = TimeGrid(game.horizon, 500)
        rows = _evaluate_batch(game, corners, grid, gradients=[False] * 4)
        first = next(r for r in rows if isinstance(r, InfeasibleTheta))
        probed = scenarios._first_blowup(game, corners, grid)
        assert (probed.theta, probed.time, probed.player) == (first.theta, first.time, first.player)
        t1, t2 = first.theta
        assert str(info.value) == (f"{what} diverges near t={first.time:.4g} at "
                                   f"theta=({t1:.4g}, {t2:.4g})")

    @pytest.mark.parametrize("seed,players,n,m,affine", [
        (0, 3, 6, 2, True), (1, 3, 6, 2, True), (2, 3, 6, 2, True), (3, 3, 6, 2, True),
        (1, 2, 3, 1, True), (2, 3, 4, 2, True), (12, 2, 3, 1, False), (51, 3, 3, 1, True),
        (0, 1, 6, 2, False), (0, 2, 6, 1, False), (0, 3, 1, 2, True), (0, 3, 6, 1, False),
    ])
    def test_accepted_draw_is_bounded_under_the_full_solve(self, seed, players, n, m, affine):
        # every draw the value-matrix probes reject, the full solve rejects
        # too; so an accepted draw bounded under the full solve at its
        # probes is the draw the full solve would have accepted
        game = random_aq_game(seed, players, n, m, affine=affine)
        probes = [np.full(players, x) for x in (1.0, 0.5, 1.5)]
        rows = _evaluate_batch(game, probes, TimeGrid(game.horizon, 1000), gradients=[False] * 3)
        assert not any(isinstance(r, InfeasibleTheta) for r in rows)
