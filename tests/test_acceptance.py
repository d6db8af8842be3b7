"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with -s to stream them).

Criteria cover closed-form oracles, gradient and rollout cross-checks at
stated tolerances, the two built-in experiment reproductions, and output
determinism.  Run everything with:  pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import time

import numpy as np
import pytest

from confgames import (CertVerdict, SolverSettings, StageTables, TimeGrid,
                       certify_first_order, envelope_gradient, random_aq_game,
                       rollout, solve_coupled_riccati, solve_stage_two,
                       solve_zerosum_riccati, stage_one_costs, value_gradient)
from confgames.cli import main as cli_main
from confgames.riccati import _solve_batch
from conftest import make_scalar_lqr


def _report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def _fd_cost_gradient(game, theta, grid, h=1e-5):
    N = game.num_players
    out = np.zeros((N, N))
    for k in range(N):
        step = np.zeros(N)
        step[k] = h
        Jp = stage_one_costs(solve_stage_two(game, theta + step, grid))[0]
        Jm = stage_one_costs(solve_stage_two(game, theta - step, grid))[0]
        out[:, k] = (Jp - Jm) / (2 * h)
    return out


def _max_rel(a, b, floor=1e-10):
    diff = np.abs(a - b)
    rel = np.where(np.abs(b) > floor, diff / np.maximum(np.abs(b), floor),
                   np.where(diff <= floor, 0.0, np.inf))
    return float(np.max(rel))


def test_criterion_01_scalar_closed_form_and_convergence_order():
    start = time.perf_counter()
    game = make_scalar_lqr(x0=1.3)
    theta = np.array([1.0])

    errs = []
    for steps in (250, 500, 1000):
        sol = solve_stage_two(game, theta, TimeGrid(1.0, steps))
        errs.append(abs(sol.P_nodes[0, 0, 0, 0, 0] - np.tanh(1.0)))
    p_ok = errs[-1] <= 1e-6 * np.tanh(1.0)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order_ok = min(orders) >= 3.5

    G = value_gradient(game, theta, grid=TimeGrid(1.0, 1000))[0]
    expected = 0.5 * 1.3 ** 2 * (1.0 / np.cosh(1.0) ** 2 - np.tanh(1.0))
    grad_ok = abs(G[0, 0] - expected) <= 1e-6 * abs(expected)

    elapsed = time.perf_counter() - start
    _report(1, "scalar closed form, gradient, and RK4 order",
            p_ok and order_ok and grad_ok and elapsed < 1.0,
            f"P err={errs[-1]:.2e}, orders={[f'{o:.2f}' for o in orders]}, "
            f"grad err={abs(G[0, 0] - expected):.2e}, {elapsed:.2f}s")


def test_criterion_02_gradient_correctness(pe_game, gs_game):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2024)

    for game in (pe_game, gs_game):
        grid = TimeGrid(game.horizon, 1000)
        lo = np.array([b[0] for b in game.theta_box])
        hi = np.array([b[1] for b in game.theta_box])
        for draw in range(5):
            theta = lo + (0.1 + 0.8 * rng.random(2)) * (hi - lo)
            G = value_gradient(game, theta, grid=grid)
            FD = _fd_cost_gradient(game, theta, grid)
            worst = max(worst, _max_rel(G, FD))
        # the same check at a start state other than the built-in one
        x0 = rng.normal(size=game.state_dim)
        theta = lo + (0.2 + 0.6 * rng.random(2)) * (hi - lo)
        moved = dataclasses.replace(game, x0=x0)
        G = value_gradient(moved, theta, grid=grid)
        FD = _fd_cost_gradient(moved, theta, grid)
        worst = max(worst, _max_rel(G, FD))

    shapes = [(1, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 2), (1, 3, 2)]
    for seed in range(25):
        players, n, m = shapes[seed % len(shapes)]
        game = random_aq_game(seed, players, n, m)
        grid = TimeGrid(game.horizon, 1000)
        theta = 0.7 + 0.6 * rng.random(players)
        G = value_gradient(game, theta, grid=grid)
        FD = _fd_cost_gradient(game, theta, grid)
        worst = max(worst, _max_rel(G, FD))

    elapsed = time.perf_counter() - start
    _report(2, "gradients match central differences",
            worst <= 1e-4 and elapsed < 120.0,
            f"max rel err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_value_rollout_consistency(pe_game, gs_game):
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for game in (pe_game, gs_game):
        grid = TimeGrid(game.horizon, 1000)
        lo = np.array([b[0] for b in game.theta_box])
        hi = np.array([b[1] for b in game.theta_box])
        # the 20 points are solved and rolled out as one batch
        thetas = np.array([lo + rng.random(2) * (hi - lo) for _ in range(20)])
        batch, failures = _solve_batch(game, thetas, grid)
        assert not failures
        ro = rollout(game, thetas, batch)
        err = np.abs(batch.values - ro.rollout_costs) / (1.0 + np.abs(batch.values))
        worst = max(worst, float(err.max()))
    elapsed = time.perf_counter() - start
    _report(3, "equilibrium values match rollout quadrature",
            worst <= 1e-4 and elapsed < 60.0,
            f"max scaled err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_offsets_vanish_without_drive(pe_game):
    worst = 0.0
    sol = solve_stage_two(pe_game, np.array([0.6, 1.0]),
                          TimeGrid(pe_game.horizon, 1000))
    # a zero-sum solution stores no offsets; its stage samples read as zeros
    assert sol.zeta_nodes is None and sol.eta_nodes is None
    worst = max(worst, float(np.abs(sol.offset_rows(slice(None))[0]).max()))
    game = random_aq_game(12, 2, 3, 1, affine=False)
    sol = solve_stage_two(game, np.array([1.0, 1.0]), TimeGrid(1.0, 1000))
    worst = max(worst, float(np.abs(sol.zeta_nodes).max()),
                float(np.abs(sol.eta_nodes).max()))
    _report(4, "affine offsets vanish identically in drive-free games",
            worst <= 1e-12, f"max |offset|={worst:.2e}")


def test_criterion_05_zero_sum_consistency(pe_game):
    grid = TimeGrid(pe_game.horizon, 1000)
    worst_path, worst_val = 0.0, 0.0
    for theta in (np.array([0.3, 1.2]), np.array([0.9, 0.5]),
                  np.array([1.4, 1.4])):
        tabs = StageTables(pe_game, theta, grid)
        coupled = solve_coupled_riccati(tabs)[0][:, 0]
        single = solve_zerosum_riccati(tabs)[0][:, 0]
        worst_path = max(
            worst_path,
            float(np.abs(coupled[:, 0] - single).max()),
            float(np.abs(coupled[:, 1] + single).max()))
        x0 = pe_game.x0
        v_coupled = 0.5 * x0 @ coupled[0, 0] @ x0
        v_single = 0.5 * x0 @ single[0] @ x0
        worst_val = max(worst_val, abs(v_coupled - v_single))
    _report(5, "coupled encoding agrees with the single-matrix form",
            worst_path <= 1e-6 and worst_val <= 1e-8,
            f"path err={worst_path:.2e}, value err={worst_val:.2e}")


def test_criterion_06_envelope_identity(gs_game):
    # ten drive-free games, then three with a drive term: general-sum and
    # two affine random games
    worst = 0.0
    rng = np.random.default_rng(6)
    cases = [(random_aq_game(seed + 40, 2, 2 + seed % 3, 1, affine=False), None)
             for seed in range(10)]
    cases += [(gs_game, np.array([0.7, 0.9])),
              (random_aq_game(50, 2, 3, 1, affine=True), None),
              (random_aq_game(51, 3, 3, 1, affine=True), None)]
    for game, theta in cases:
        grid = TimeGrid(game.horizon, 1000)
        if theta is None:
            theta = 0.7 + 0.6 * rng.random(game.num_players)
        stage2 = solve_stage_two(game, theta, grid)
        G = (value_gradient(game, theta, grid=grid, stage2=stage2)[0]
             - game.regularizer_gradients(theta))
        own = np.diag(G)
        env = envelope_gradient(stage2)[0]
        worst = max(worst, np.max(np.abs(env - own) / np.maximum(np.abs(own), 1e-10)))
    _report(6, "trajectory-integral form of the own gradient",
            worst <= 1e-8, f"max rel err={worst:.2e}")


def test_criterion_07_saddle_reproduction(pe_game, pe_settings, pe_ibr_runs):
    start = time.perf_counter()
    run_a, run_b = pe_ibr_runs.a, pe_ibr_runs.b
    agree = np.abs(np.array(run_a.theta) - np.array(run_b.theta)).max() <= 1e-3
    verdicts = certify_first_order(pe_game, np.array(run_a.theta), pe_settings)
    certified = (verdicts == [CertVerdict.INTERIOR_STATIONARY] * 2
                 and np.abs(run_a.gradients).max() <= 1e-4)

    grid = TimeGrid(pe_game.horizon, 1000)
    theta_star = np.array(run_a.theta)
    J_star = solve_stage_two(pe_game, theta_star, grid).values[0, 0]
    lattice = np.linspace(0.0, np.pi / 2, 21)
    row = np.array([
        solve_stage_two(pe_game, np.array([theta_star[0], t2]), grid).values[0, 0]
        for t2 in lattice])
    col = np.array([
        solve_stage_two(pe_game, np.array([t1, theta_star[1]]), grid).values[0, 0]
        for t1 in lattice])
    saddle = (row.max() <= J_star + 1e-6) and (col.min() >= J_star - 1e-6)
    # lattice min-max structure: the evader's best lattice response to
    # theta1* and the pursuer's to theta2* both sit within one cell of theta*
    cell = lattice[1] - lattice[0]
    structure = (abs(lattice[int(np.argmax(row))] - theta_star[1]) <= cell + 1e-12
                 and abs(lattice[int(np.argmin(col))] - theta_star[0]) <= cell + 1e-12)

    elapsed = time.perf_counter() - start + pe_ibr_runs.seconds
    _report(7, "alternating search finds the certified interior saddle",
            run_a.converged and run_b.converged and agree and certified
            and saddle and structure and elapsed < 300.0,
            f"theta*={tuple(round(float(t), 5) for t in run_a.theta)}, "
            f"row max excess={row.max() - J_star:.2e}, "
            f"col min deficit={J_star - col.min():.2e}, {elapsed:.0f}s")


def test_criterion_08_naive_baseline_is_suboptimal(pe_baseline_result):
    res = pe_baseline_result.result
    _report(8, "naive pursuer pays a positive value gap",
            res.gap > 0.0,
            f"gap={res.gap:.3e}, naive theta1={res.theta1_naive:.4f}")


def test_criterion_09_general_sum_basins(gs_game, gs_settings, gs_ibr_runs):
    red, blue = gs_ibr_runs.red, gs_ibr_runs.blue
    ok_convergence = red.converged and blue.converged
    verdict_sets = [
        certify_first_order(gs_game, np.array(run.theta), gs_settings)
        for run in (red, blue)]
    ok_certified = all(CertVerdict.NOT_STATIONARY not in vs
                       for vs in verdict_sets)
    side_red = red.theta[0] - red.theta[1]
    side_blue = blue.theta[0] - blue.theta[1]
    ok_halves = side_red * side_blue < 0
    _report(9, "general-sum starts reach certified points in opposite half-planes",
            ok_convergence and ok_certified and ok_halves,
            f"red={tuple(round(float(t), 4) for t in red.theta)}, "
            f"blue={tuple(round(float(t), 4) for t in blue.theta)}")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["sweep", "--set", "sweep.grid=3",
                         "--set", "sweep.workers=1", "--set", "grid_steps=200",
                         "--out", str(out)])
        assert code == 0
        code = cli_main(["grad-check", "--set", "gradcheck.samples=2",
                         "--set", "grid_steps=200", "--out", str(out)])
        assert code == 0
        outputs.append(((out / "landscape.csv").read_bytes(),
                        (out / "gradcheck.csv").read_bytes()))
    _report(10, "identical configurations produce byte-identical outputs",
            outputs[0] == outputs[1])
