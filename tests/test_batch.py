"""A batch of parameter points is the single-point pipeline, member by member.

The stage-two passes and the sensitivity passes advance every member of a
batch as one stacked state; each member's values, gradients and blow-up
report must equal those of its own one-member solve bit for bit.
"""

import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgames import (InfeasibleTheta, StageTables, TimeGrid, cli, envelope_gradient,
                       random_aq_game, rollout, solve_stage_two, solve_zerosum_riccati,
                       stage_one_costs, value_gradient)
from confgames import model as model_mod
from confgames import odekit, riccati
from confgames import solver as solver_mod
from confgames.errors import BlowUpDetected
from confgames.riccati import _solve_batch
from conftest import make_time_varying_game


@functools.lru_cache(maxsize=None)
def _random_game(seed, players, state_dim, control_dim, affine):
    return random_aq_game(seed, players, state_dim, control_dim, affine=affine)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 3), players=st.integers(1, 3), state_dim=st.integers(1, 6),
       control_dim=st.integers(1, 2), affine=st.booleans(),
       unit=st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
                     min_size=1, max_size=5))
def test_member_equals_its_one_member_solve(seed, players, state_dim, control_dim, affine,
                                             unit):
    game = _random_game(seed, players, state_dim, control_dim, affine)
    lo, hi = game.theta_box[0]
    thetas = lo + (hi - lo) * np.array(unit)[:, :players]
    grid = TimeGrid(game.horizon, 40)
    batch, failures = _solve_batch(game, thetas, grid)
    assert not failures
    G = value_gradient(game, thetas, grid=grid, stage2=batch)
    for b, theta in enumerate(thetas):
        single = solve_stage_two(game, theta, grid)
        assert np.array_equal(batch.values[b], single.values[0])
        assert np.array_equal(batch.P_nodes[:, b], single.P_nodes[:, 0])
        assert np.array_equal(batch.zeta_nodes[:, b], single.zeta_nodes[:, 0])
        assert np.array_equal(G[b], value_gradient(game, theta, grid=grid, stage2=single)[0])


def test_zero_sum_member_equals_its_one_member_solve(pe_game):
    # the batch stores each member's value matrix as the player stack (P, -P)
    grid = TimeGrid(pe_game.horizon, 200)
    corner = [hi for _, hi in pe_game.theta_box]
    thetas = np.array([[0.4, 1.1], corner, [0.9, 0.7]])
    batch, failures = _solve_batch(pe_game, thetas, grid)
    assert not failures and batch.zeta_nodes is None
    G = value_gradient(pe_game, thetas, grid=grid, stage2=batch)
    for b, theta in enumerate(thetas):
        single = solve_stage_two(pe_game, theta, grid)
        assert np.array_equal(batch.values[b], single.values[0])
        assert np.array_equal(batch.P_nodes[:, b], single.P_nodes[:, 0])
        assert np.array_equal(G[b], value_gradient(pe_game, theta, grid=grid, stage2=single)[0])


def test_diverged_member_leaves_the_others_unchanged(gs_game):
    # on this longer horizon (1.2, 0.8) has no bounded equilibrium while
    # the two other points do
    game = dataclasses.replace(gs_game, horizon=0.8)
    grid = TimeGrid(game.horizon, 200)
    thetas = np.array([[0.2, 0.2], [1.2, 0.8], [0.5, 0.5]])
    results = solver_mod._evaluate_batch(game, thetas, grid)
    for b in (0, 2):
        costs, own = solver_mod._evaluate(game, thetas[b], grid)
        assert np.array_equal(results[b][0], costs)
        assert np.array_equal(np.diag(results[b][1]), own)
    with pytest.raises(BlowUpDetected) as single:
        solve_stage_two(game, thetas[1], grid)
    diverged = results[1]
    assert isinstance(diverged, InfeasibleTheta)
    assert diverged.theta == (1.2, 0.8)
    assert diverged.time == single.value.time and diverged.player == single.value.player
    assert 0.0 < diverged.time < game.horizon and diverged.player == 1
    # a batch whose every member diverges
    assert all(isinstance(r, InfeasibleTheta) for r in
               solver_mod._evaluate_batch(game, thetas[[1, 1]], grid))


def test_batch_left_empty_by_its_value_pass_runs_no_offset_pass(gs_game, monkeypatch):
    # on this horizon (0.6, 1.2) blows up in the coupled value-matrix pass
    game = dataclasses.replace(gs_game, horizon=6.0)
    grid, thetas = TimeGrid(game.horizon, 1000), np.array([[0.6, 1.2]])

    def refused(*args):
        raise AssertionError("an offset pass ran on an empty batch")

    monkeypatch.setattr(riccati, "solve_zeta", refused)
    monkeypatch.setattr(riccati, "solve_eta", refused)
    batch, failures = _solve_batch(game, thetas, grid)
    assert list(failures) == [0] and len(batch.members) == 0
    (row,) = solver_mod._evaluate_batch(game, thetas, grid)
    assert isinstance(row, InfeasibleTheta) and row.theta == (0.6, 1.2)
    assert (row.time, row.player) == (failures[0].time, failures[0].player)
    N = game.num_players
    assert value_gradient(game, thetas[:0], grid=grid, stage2=batch).shape == (0, N, N)
    assert envelope_gradient(batch).shape == (0, N)
    assert rollout(game, thetas[:0], batch).x.shape == (grid.steps + 1, 0, game.state_dim)


@pytest.mark.parametrize("members", [1, 3])
def test_theta_free_coefficients_sampled_once_per_batch(members, gs_game, monkeypatch):
    # the one time-varying state cost that both players share at 2001
    # stage times, A, c and the two distinct control costs once for the
    # batch; B^0 and B^1 once per member
    calls = [0]
    real = model_mod.MatrixFn.__call__

    def counted(self, t, theta):
        calls[0] += 1
        return real(self, t, theta)

    monkeypatch.setattr(model_mod.MatrixFn, "__call__", counted)
    thetas = np.column_stack([np.linspace(0.3, 1.1, members), np.full(members, 0.9)])
    solver_mod._evaluate_batch(gs_game, thetas, TimeGrid(gs_game.horizon, 1000))
    assert calls[0] == 2005 + 2 * members


def test_lattice_over_several_batches_matches_point_evaluations(tmp_path, monkeypatch,
                                                                gs_game):
    # two general-sum members per batch (N n^2 (N + 1) = 96): batches of 2,
    # 2, 2, 2, 1
    monkeypatch.setattr(solver_mod, "BATCH_BUDGET", 2 * 96)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--set", "scenario=general_sum", "--set", "sweep.grid=3",
                     "--set", "grid_steps=60", "--out", str(out)]) == 0
    rows = [line for line in (out / "landscape.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    grid = TimeGrid(gs_game.horizon, 60)
    (lo1, hi1), (lo2, hi2) = gs_game.theta_box
    expected = []
    for t1 in np.linspace(lo1, hi1, 3):
        for t2 in np.linspace(lo2, hi2, 3):
            costs, own = solver_mod._evaluate(gs_game, np.array([t1, t2]), grid)
            expected.append(",".join(cli._fmt(x) for x in
                                     (t1, t2, costs[0], costs[1], own[0], own[1], 1)))
    assert rows == expected


@pytest.mark.parametrize("scenario", ["gs", "rand"])
def test_block_edges_inside_a_step_leave_every_number_unchanged(scenario, gs_game, monkeypatch):
    # 3-row blocks put block edges between the stages of one RK4 step (a
    # step reads stages 2j, 2j-1, 2j-1, 2j-2), and 401 stage rows leave a
    # 2-row last block
    game = gs_game if scenario == "gs" else _random_game(1, 3, 4, 1, True)
    lo, hi = np.array(game.theta_box).T
    thetas = lo + (hi - lo) * np.array([[0.2, 0.7, 0.4], [0.9, 0.3, 0.6]])[:, :game.num_players]
    grid = TimeGrid(game.horizon, 200)

    def solve():
        batch, failures = _solve_batch(game, thetas, grid)
        assert not failures
        return batch, value_gradient(game, thetas, grid=grid, stage2=batch)

    default, G = solve()
    monkeypatch.setattr(odekit, "BLOCK_ROWS", 3)
    small, G3 = solve()
    assert np.array_equal(small.values, default.values)
    for name in ("P_nodes", "zeta_nodes", "eta_nodes"):
        assert np.array_equal(getattr(small, name), getattr(default, name)), name
    assert np.array_equal(G3, G)


@pytest.mark.parametrize("scenario,bound", [("gs", 40e6), ("pe", 20e6)])
def test_batch_forms_no_stage_product_at_full_length(scenario, bound, pe_game, gs_game):
    # at 1000 steps one (2001, 9, 2, 2, 4, 4) general-sum product is 9.2 MB,
    # and with every product formed at full length the numpy peak of the 9
    # general-sum members was 56 MB; the 5 zero-sum members peaked at 46 MB
    # while their sensitivity pass formed its drift and forcing at full length
    game = gs_game if scenario == "gs" else pe_game
    (lo1, hi1), (lo2, hi2) = game.theta_box
    if scenario == "gs":
        thetas = [(t1, t2) for t1 in np.linspace(lo1, hi1, 3) for t2 in np.linspace(lo2, hi2, 3)]
    else:
        thetas = np.column_stack([np.linspace(lo1, hi1, 5), np.linspace(hi2, lo2, 5)])
    tracemalloc.start()
    try:
        solver_mod._evaluate_batch(game, thetas, TimeGrid(game.horizon, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_batch_budget_sizes_each_game(pe_game, gs_game):
    rand = _random_game(0, 3, 6, 2, True)

    def first_size(game, gradients):
        rows = solver_mod._batches([gradients] * 200, game)[0]
        return rows.stop - rows.start

    # a gradient member holds N n^2 (N + 1) elements per grid node, a
    # zero-sum one N n^2 2: the stack (P, -P) and its two path derivatives
    assert first_size(gs_game, True) == 33
    assert first_size(pe_game, True) == 12
    assert first_size(rand, True) == 7
    assert first_size(gs_game, False) == 100
    assert first_size(pe_game, False) == 25
    # the 14 points of a two-sample grad-check make one batch
    assert first_size(rand, False) == 29
    assert solver_mod._batches([True, False] + [False] * 12, rand) == [slice(0, 14)]


def test_batches_tile_the_rows_within_budget(pe_game, gs_game):
    # each slice holds at most BATCH_BUDGET elements per grid node while it
    # is solved (N n^2 per row) and while its asked rows' gradients are
    # taken, unless it is one row, and the next row would break a count
    games = [pe_game, gs_game]
    games += [_random_game(0, N, n, 1, True) for N in (1, 2, 3) for n in range(1, 7)]
    rng = np.random.default_rng(0)
    budget = solver_mod.BATCH_BUDGET
    for game in games:
        N, n = game.num_players, game.state_dim
        solved = N * n * n
        asked = solved * (2 if game.zero_sum else N + 1)
        width = 2 * N + 1
        for rows in (1, 2, 3, 299):
            for mask in (np.ones(rows, bool), np.zeros(rows, bool),
                         np.arange(rows) % width == 0, rng.random(rows) < 0.3):
                slices = solver_mod._batches(mask, game)
                assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
                assert slices[-1].stop == rows
                for s in slices:
                    size = s.stop - s.start
                    assert size >= 1
                    if size > 1:
                        assert size * solved <= budget
                        assert np.count_nonzero(mask[s]) * asked <= budget
                    if s.stop < rows:
                        assert max((size + 1) * solved,
                                   np.count_nonzero(mask[s.start:s.stop + 1]) * asked) > budget


@pytest.mark.parametrize("scenario", ["gs", "rand"])
def test_masked_evaluation_equals_single_points(scenario, gs_game, monkeypatch):
    # on this longer general-sum horizon (1.2, 0.8) has no bounded
    # equilibrium; a budget of one gradient member puts each asked row in a
    # batch of its own
    if scenario == "gs":
        game = dataclasses.replace(gs_game, horizon=0.8)
        thetas = np.array([[0.2, 0.2], [1.2, 0.8], [0.5, 0.5], [0.9, 0.3], [1.2, 0.8]])
    else:
        game = _random_game(0, 3, 6, 2, True)
        lo, hi = np.array(game.theta_box).T
        thetas = lo + (hi - lo) * np.random.default_rng(2).uniform(0.1, 0.9, (5, 3))
    N, n = game.num_players, game.state_dim
    monkeypatch.setattr(solver_mod, "BATCH_BUDGET", N * n * n * (N + 1))
    grid = TimeGrid(game.horizon, 200)
    mask = [True, False, True, False, True]
    results = solver_mod._evaluate_batch(game, thetas, grid, gradients=mask)
    for theta, ask, result in zip(thetas, mask, results):
        try:
            single = solve_stage_two(game, theta, grid)
        except BlowUpDetected as exc:
            assert isinstance(result, InfeasibleTheta)
            assert result.theta == tuple(theta)
            assert (result.time, result.player) == (exc.time, exc.player)
            continue
        costs, G = result
        assert np.array_equal(costs, stage_one_costs(single)[0])
        if ask:
            assert np.array_equal(G, value_gradient(game, theta, grid=grid, stage2=single)[0])
        else:
            assert G is None
    if scenario == "gs":
        assert [type(r) for r in results[1::3]] == [InfeasibleTheta] * 2


def test_values_only_batch_holds_its_node_arrays_only():
    # 14 three-player members with n = 6: their value matrices at 1001
    # nodes are 12.1 MB; holding the stage-time samples of the passes at
    # full length the peak was 73 MB
    game = _random_game(0, 3, 6, 2, True)
    lo, hi = np.array(game.theta_box).T
    thetas = lo + (hi - lo) * np.random.default_rng(0).uniform(0.1, 0.9, (14, 3))
    grid = TimeGrid(game.horizon, 1000)
    tracemalloc.start()
    try:
        batch, failures = _solve_batch(game, thetas, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not failures and len(batch.members) == 14
    assert peak <= 25e6


@pytest.mark.parametrize("scenario", ["pe", "gs", "rand"])
def test_gradients_of_selected_members_equal_their_single_points(scenario, pe_game, gs_game):
    game = {"pe": pe_game, "gs": gs_game, "rand": _random_game(0, 3, 6, 2, True)}[scenario]
    lo, hi = np.array(game.theta_box).T
    thetas = lo + (hi - lo) * np.random.default_rng(1).uniform(0.1, 0.9, (5, game.num_players))
    grid = TimeGrid(game.horizon, 200)
    batch, failures = _solve_batch(game, thetas, grid)
    assert not failures
    keep = [0, 3, 4]
    sub = batch.select(keep)
    assert np.array_equal(sub.members, keep)
    assert sub.values.tobytes() == batch.values[keep].tobytes()
    # the values are read off the t=0 nodes, and a zero-sum batch's are (J, -J)
    x0, expected = game.x0, np.empty(batch.values.shape)
    for b, i in itertools.product(range(len(thetas)), range(game.num_players)):
        expected[b, i] = 0.5 * float(x0 @ batch.P_nodes[0, b, i] @ x0)
        if batch.zeta_nodes is not None:
            expected[b, i] = (expected[b, i] + float(batch.zeta_nodes[0, b, i] @ x0)
                              + float(batch.eta_nodes[0, b, i]))
    assert batch.values.tobytes() == expected.tobytes()
    if game.zero_sum:
        P = solve_zerosum_riccati(StageTables(game, thetas, grid))[0][0]
        J = np.array([0.5 * float(x0 @ P[b] @ x0) for b in range(len(thetas))])
        assert batch.values.tobytes() == np.column_stack([J, -J]).tobytes()
    for g, b in zip(value_gradient(game, thetas[keep], grid=grid, stage2=sub), keep):
        assert np.array_equal(g, value_gradient(game, thetas[b], grid=grid)[0])


def _five_members(game):
    lo, hi = np.array(game.theta_box).T
    thetas = lo + (hi - lo) * np.random.default_rng(3).uniform(0.1, 0.9, (5, game.num_players))
    grid = TimeGrid(game.horizon, 200)
    batch, failures = _solve_batch(game, thetas, grid)
    assert not failures
    return thetas, grid, batch


@pytest.mark.parametrize("scenario", ["pe", "gs", "tv"])
def test_rollout_of_a_batch_equals_its_members_rollouts(scenario, pe_game, gs_game):
    # the states of all five members advance as one forward pass
    game = {"pe": pe_game, "gs": gs_game, "tv": make_time_varying_game()}[scenario]
    thetas, grid, batch = _five_members(game)
    path = rollout(game, thetas, batch)
    assert path.x.shape == (grid.steps + 1, 5, game.state_dim)
    assert path.rollout_costs.shape == (5, game.num_players)
    for b, theta in enumerate(thetas):
        single = rollout(game, theta, solve_stage_two(game, theta, grid))
        assert np.array_equal(path.x[:, b], single.x[:, 0])
        for u, v in zip(path.u, single.u):
            assert np.array_equal(u[:, b], v[:, 0])
        assert np.array_equal(path.rollout_costs[b], single.rollout_costs[0])
    # a batch with no members (every point diverged) has an empty rollout
    # and empty gradients
    none = batch.select([])
    empty = rollout(game, thetas[:0], none)
    assert empty.x.shape == (grid.steps + 1, 0, game.state_dim)
    assert empty.rollout_costs.shape == (0, game.num_players)
    N = game.num_players
    assert value_gradient(game, thetas[:0], grid=grid, stage2=none).shape == (0, N, N)
    assert envelope_gradient(none).shape == (0, N)


@pytest.mark.parametrize("scenario", ["tv", "rand", "affine", "gs"])
def test_envelope_gradient_of_a_batch_equals_its_members(scenario, gs_game):
    game = {"tv": make_time_varying_game(), "rand": _random_game(3, 2, 3, 1, False),
            "affine": _random_game(1, 3, 4, 1, True), "gs": gs_game}[scenario]
    thetas, grid, batch = _five_members(game)
    env = envelope_gradient(batch)
    assert env.shape == (5, game.num_players)
    one = [envelope_gradient(solve_stage_two(game, theta, grid))[0] for theta in thetas]
    np.testing.assert_allclose(env, one, rtol=1e-13, atol=0)
