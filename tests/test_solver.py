import dataclasses

import numpy as np
import pytest

import confgames.solver as solver_mod
from confgames import (BestResponseStalled, CertVerdict, IbrTrace, InfeasibleTheta,
                       Regularizer, SolverSettings, TimeGrid, certify_first_order,
                       ibr_solve, naive_baseline, project)
from conftest import count_solves, diverge_at, make_scalar_lqr


def best_response(game, theta, i, settings, records=None):
    """Player i's best response from theta, as ibr_solve runs it.

    Returns (theta_i reached, records of the accepted iterates).
    """
    theta = np.array(theta, dtype=float)
    grid = TimeGrid(game.horizon, settings.grid_steps)
    records = [] if records is None else records
    costs, own = solver_mod._evaluate(game, theta, grid)
    theta, *_ = solver_mod._descend(game, theta, i, settings, grid, costs, own, 0, records)
    return float(theta[i]), records


class TestProject:
    @pytest.mark.parametrize("value,expected", [
        (0.7, 0.7),
        (-0.1, 0.0),
        (2.0, np.pi / 2),
    ])
    def test_clamps_to_interval(self, value, expected):
        box = (0.0, np.pi / 2)
        out = project(value, box)
        assert out == pytest.approx(expected, abs=1e-15)
        assert project(out, box) == out

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(alpha=-1.0)
        with pytest.raises(ValueError):
            SolverSettings(max_outer=-1)
        SolverSettings(max_outer=0)

    @pytest.mark.parametrize("make,field", [
        (lambda: TimeGrid(1.0, 200.0), "steps"),
        (lambda: SolverSettings(grid_steps=200.0), "grid_steps"),
        (lambda: SolverSettings(grid_steps=200, max_inner=2.5), "max_inner"),
        (lambda: SolverSettings(grid_steps=200, max_outer=1.5), "max_outer"),
    ])
    def test_non_integer_count_rejected_at_construction(self, make, field):
        # each was accepted and failed inside numpy or range with "'float'
        # object cannot be interpreted as an integer" at the first solve
        with pytest.raises(ValueError, match=field):
            make()

    def test_numpy_integer_counts_accepted(self):
        settings = SolverSettings(alpha=1.0, max_outer=np.int64(1), max_inner=np.int32(2),
                                  grid_steps=np.int64(200))
        assert len(TimeGrid(1.0, np.int16(200)).nodes) == 201
        assert ibr_solve(make_scalar_lqr(), [1.0], settings).sweeps == 1

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverSettings)
                                      if isinstance(f.default, float)])
    def test_nan_setting_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            SolverSettings(**{name: float("nan")})


class TestBestResponse:
    def test_stationary_start_returns_immediately(self, pe_game, pe_settings):
        theta_star = np.array([0.218036, 0.218036])
        records = []
        out, _ = best_response(pe_game, theta_star, 0, pe_settings,
                               records=records)
        assert out == pytest.approx(theta_star[0], abs=2e-6)
        assert len(records) == 1

    def test_monotone_value_drives_to_boundary(self):
        # more control authority always lowers the cost here, so the
        # response saturates at the upper endpoint
        game = make_scalar_lqr()
        settings = SolverSettings(alpha=2.0, max_inner=200)
        out, records = best_response(game, np.array([0.6]), 0, settings)
        assert out == 2.0
        assert all(0.5 <= r.theta[0] <= 2.0 for r in records)

    def test_ascent_guard_records_warning(self):
        # a proximity penalty creates an interior minimum; a deliberately
        # unstable step rate makes the loop overshoot so the guard engages
        reg = Regularizer(value=lambda th: 5.0 * (th[0] - 1.0) ** 2,
                          grad=lambda th: np.array([10.0 * (th[0] - 1.0)]))
        game = make_scalar_lqr(regularizer=reg)
        settings = SolverSettings(alpha=0.21, max_inner=60, grid_steps=200)
        trace = ibr_solve(game, np.array([0.6]), settings)
        assert all(0.5 <= r.theta[0] <= 2.0 for r in trace.records)
        assert trace.converged
        assert trace.theta[0] == pytest.approx(1.0, abs=0.05)

    def test_interior_response_agrees_with_dense_grid_search(self, pe_game,
                                                             pe_settings):
        # pursuer's response to a fixed evader angle, cross-checked by
        # brute-force search over a dense one-dimensional grid
        from confgames import TimeGrid, solve_stage_two, value_gradient
        theta0 = np.array([0.0, np.pi / 4])
        out, _ = best_response(pe_game, theta0, 0, pe_settings)
        grid = TimeGrid(pe_game.horizon, pe_settings.grid_steps)
        G = value_gradient(pe_game, np.array([out, np.pi / 4]), grid=grid)[0]
        assert abs(G[0, 0]) <= 1e-4
        assert 0.0 < out < np.pi / 2

        search_grid = TimeGrid(pe_game.horizon, 300)
        candidates = np.linspace(0.0, np.pi / 2, 200)
        values = [solve_stage_two(pe_game, np.array([t, np.pi / 4]),
                                  search_grid).values[0, 0] for t in candidates]
        best = candidates[int(np.argmin(values))]
        assert abs(best - out) <= (np.pi / 2) / 199 + 1e-9

    def test_stall_after_persistent_infeasibility(self, monkeypatch):
        game = make_scalar_lqr()
        theta0 = np.array([1.0])
        real_evaluate = solver_mod._evaluate

        def fake_evaluate(g, theta, grid):
            if abs(theta[0] - theta0[0]) > 1e-12:
                raise InfeasibleTheta(theta)
            return real_evaluate(g, theta, grid)

        monkeypatch.setattr(solver_mod, "_evaluate", fake_evaluate)
        with pytest.raises(BestResponseStalled) as info:
            best_response(game, theta0, 0, SolverSettings(alpha=1.0, grid_steps=200))
        assert info.value.player == 0

    def test_best_response_cut_at_max_inner_is_not_converged(self, monkeypatch):
        # the own-gradient sends theta from 0.25 to 0.75 and back, at equal
        # costs, so after an even max_inner each sweep ends where it began
        # without its best response settling; that was reported as
        # converged after one sweep
        game = make_scalar_lqr(theta_box=(0.1, 1.0))
        settings = SolverSettings(alpha=1.0, max_outer=5, max_inner=4, grid_steps=200)

        def fake_evaluate(g, theta, grid):
            return np.ones(1), np.array([-0.5 if theta[0] < 0.5 else 0.5])

        monkeypatch.setattr(solver_mod, "_evaluate", fake_evaluate)
        trace = ibr_solve(game, np.array([0.25]), settings)
        assert [r.theta[0] for r in trace.records[:4]] == [0.75, 0.25, 0.75, 0.25]
        assert not trace.converged and trace.sweeps == settings.max_outer
        assert len(trace.records) == settings.max_outer * settings.max_inner

    def test_stalled_trace_reports_an_earlier_ascent_warning(self, monkeypatch):
        # the two candidates after theta0 raise the cost, so the second is
        # accepted with a warning; every later candidate is infeasible.  The
        # warnings used to be collected only after the sweeps finished
        game = make_scalar_lqr()
        real_evaluate = solver_mod._evaluate
        calls = []

        def fake_evaluate(g, theta, grid):
            calls.append(tuple(theta))
            if len(calls) > 3:
                raise InfeasibleTheta(theta)
            costs, own = real_evaluate(g, theta, grid)
            return (costs, own) if len(calls) == 1 else (costs + 1.0, own)

        monkeypatch.setattr(solver_mod, "_evaluate", fake_evaluate)
        with pytest.raises(BestResponseStalled) as info:
            ibr_solve(game, np.array([1.0]), SolverSettings(alpha=1.0, grid_steps=200))
        trace = info.value.trace
        assert len(trace.records) == 1
        assert trace.warnings == trace.records
        assert trace.records[0].warning == "accepted ascent step after halving"

    def test_trace_warnings_is_a_read_only_view_of_records(self):
        trace = IbrTrace(theta0=(1.0,))
        plain = solver_mod.InnerRecord(0, 0, 1, (0.9,), (1.0,), 0.5)
        warned = dataclasses.replace(plain, inner_iter=2, warning="accepted ascent step after halving")
        trace.records += [plain, warned]
        assert trace.warnings == [warned]
        with pytest.raises(AttributeError):
            trace.warnings = []


class TestIbr:
    def test_pursuit_runs_converge_to_common_interior_saddle(self, pe_ibr_runs):
        run_a, run_b = pe_ibr_runs.a, pe_ibr_runs.b
        assert run_a.converged and run_b.converged
        assert np.abs(np.array(run_a.theta) - np.array(run_b.theta)).max() <= 1e-3
        assert np.abs(run_a.gradients).max() <= 1e-4

    def test_every_iterate_stays_in_box(self, pe_ibr_runs, pe_game):
        lo = np.array([b[0] for b in pe_game.theta_box])
        hi = np.array([b[1] for b in pe_game.theta_box])
        for run in (pe_ibr_runs.a, pe_ibr_runs.b):
            for rec in run.records:
                th = np.array(rec.theta)
                assert np.all(th >= lo) and np.all(th <= hi)

    def test_converged_point_is_fixed_point(self, pe_game, pe_settings, pe_ibr_runs):
        theta_star = np.array(pe_ibr_runs.a.theta)
        rerun = ibr_solve(pe_game, theta_star, pe_settings)
        assert rerun.converged
        assert rerun.sweeps == 1
        assert np.abs(np.array(rerun.theta) - theta_star).max() <= 1e-5

    def test_zero_sweep_budget_reports_nonconvergence(self, pe_game, pe_settings):
        settings = SolverSettings(alpha=pe_settings.alpha, max_outer=0)
        trace = ibr_solve(pe_game, np.array([0.2, 1.2]), settings)
        assert not trace.converged
        assert trace.records == []
        assert trace.theta == (0.2, 1.2)

    def test_start_outside_box_rejected(self, pe_game, pe_settings):
        with pytest.raises(ValueError):
            ibr_solve(pe_game, np.array([-0.2, 0.3]), pe_settings)

    def test_general_sum_runs_reach_opposite_half_planes(self, gs_ibr_runs):
        red, blue = gs_ibr_runs.red, gs_ibr_runs.blue
        assert red.converged and blue.converged
        assert (red.theta[0] - red.theta[1]) * (blue.theta[0] - blue.theta[1]) < 0


class TestEvaluateOnce:
    def test_each_theta_is_solved_once(self, monkeypatch):
        thetas = count_solves(monkeypatch)
        ibr_solve(make_scalar_lqr(), [0.6],
                  SolverSettings(alpha=2.0, max_inner=200, grid_steps=200))
        assert len(thetas) == 6
        assert len(set(thetas)) == 6

    def test_general_sum_search_solves_each_theta_once(self, gs_game, monkeypatch):
        # a candidate that the box clamps back onto the current point is
        # recorded without a solve: 27 records, 26 solves
        thetas = count_solves(monkeypatch)
        trace = ibr_solve(gs_game, np.array([0.6, 1.2]),
                          SolverSettings(alpha=2.0, grid_steps=200))
        assert len(trace.records) == 27
        assert len(thetas) == len(set(thetas)) == 26

    @pytest.mark.parametrize("case", ["scalar", "pe"])
    def test_trace_holds_the_evaluations_of_its_points(self, case, pe_game, pe_settings):
        if case == "scalar":
            game, theta0 = make_scalar_lqr(), np.array([0.6])
            settings = SolverSettings(alpha=2.0, max_inner=200, grid_steps=200)
        else:
            game, theta0 = pe_game, np.array([0.2, 1.2])
            settings = SolverSettings(alpha=pe_settings.alpha, max_outer=1,
                                      grid_steps=200)
        trace = ibr_solve(game, theta0, settings)
        grid = TimeGrid(game.horizon, settings.grid_steps)
        costs0, _ = solver_mod._evaluate(game, theta0, grid)
        costs, own = solver_mod._evaluate(game, np.array(trace.theta), grid)
        assert trace.values0.tobytes() == costs0.tobytes()
        assert trace.values.tobytes() == costs.tobytes()
        assert trace.gradients.tobytes() == own.tobytes()
        assert trace.certification == certify_first_order(game, trace.theta, settings)


class TestCertification:
    def test_interior_saddle_certifies(self, pe_game, pe_settings, pe_ibr_runs):
        verdicts = certify_first_order(pe_game, np.array(pe_ibr_runs.a.theta),
                                       pe_settings)
        assert verdicts == [CertVerdict.INTERIOR_STATIONARY] * 2

    def test_boundary_optimum_certifies_outward(self):
        game = make_scalar_lqr()
        verdicts = certify_first_order(game, np.array([2.0]),
                                       SolverSettings(grid_steps=400))
        assert verdicts == [CertVerdict.BOUNDARY_DESCENT_OUTWARD]

    def test_non_stationary_point_flagged(self, pe_game, pe_settings):
        verdicts = certify_first_order(pe_game, np.array([0.9, 0.4]), pe_settings)
        assert CertVerdict.NOT_STATIONARY in verdicts

    def test_general_sum_mixed_verdicts(self, gs_game, gs_settings, gs_ibr_runs):
        red = gs_ibr_runs.red
        verdicts = certify_first_order(gs_game, np.array(red.theta), gs_settings)
        assert verdicts[0] == CertVerdict.INTERIOR_STATIONARY
        assert verdicts[1] == CertVerdict.BOUNDARY_DESCENT_OUTWARD


class TestBaseline:
    def test_naive_pursuer_pays_positive_gap(self, pe_baseline_result):
        res = pe_baseline_result.result
        assert res.gap > 0.0
        assert res.realized_value >= res.equilibrium_value

    def test_degenerate_start_has_no_gap(self, pe_game, pe_settings, pe_ibr_runs):
        theta_star = np.array(pe_ibr_runs.a.theta)
        result = naive_baseline(pe_game, theta_star, pe_settings)
        assert abs(result.gap) <= 1e-8

    def test_swapped_start_state_still_never_beats_equilibrium(self, pe_game,
                                                               pe_settings):
        from confgames import PursuitEvasionSpec, build_pursuit_evasion
        x0 = pe_game.x0
        swapped = build_pursuit_evasion(
            PursuitEvasionSpec(x0=tuple(np.concatenate([x0[4:], x0[:4]]))))
        result = naive_baseline(swapped, np.array([1.2, 0.2]), pe_settings)
        assert result.gap >= -1e-8

    def test_each_theta_is_solved_once(self, pe_baseline_200):
        # the naive first round used to repeat the search's first best
        # response: 165 solves for 150 distinct theta
        thetas = pe_baseline_200.thetas
        assert len(thetas) == len(set(thetas))

    def test_search_solves_its_start_and_each_record_once(self, pe_baseline_200):
        # the search's 147 records take 148 solves, theta0 first; the naive
        # rounds add one iterate and the realized profile one more
        trace, thetas = pe_baseline_200.result.ibr_trace, pe_baseline_200.thetas
        assert len(trace.records) == 147
        assert thetas[:148] == [trace.theta0] + [r.theta for r in trace.records]
        assert len(thetas) == 150

    def test_diverged_realized_profile_is_infeasible(self, pe_game, pe_settings,
                                                     pe_baseline_200, monkeypatch):
        # the realized profile is the baseline's last solve
        res = pe_baseline_200.result
        last = len(pe_baseline_200.thetas) - 1
        monkeypatch.setattr(solver_mod, "_solve_batch", diverge_at(last))
        settings = SolverSettings(alpha=pe_settings.alpha, grid_steps=200)
        with pytest.raises(InfeasibleTheta) as info:
            naive_baseline(pe_game, np.array([0.2, 1.2]), settings)
        assert info.value.theta == (res.theta1_naive, res.theta_star[1])
        assert (info.value.time, info.value.player) == (0.5, 1)

    def test_equilibrium_start_solves_each_theta_once(self, pe_game, pe_settings,
                                                      pe_baseline_200, monkeypatch):
        # from the search's end point the realized profile is that point,
        # whose costs the search holds: it used to be solved a second time
        thetas = count_solves(monkeypatch)
        settings = SolverSettings(alpha=pe_settings.alpha, grid_steps=200)
        result = naive_baseline(pe_game, np.array(pe_baseline_200.result.theta_star), settings)
        assert len(thetas) == len(set(thetas)) == 3
        assert result.gap == 0.0

    def test_requires_zero_sum(self, gs_game, gs_settings):
        with pytest.raises(ValueError):
            naive_baseline(gs_game, np.array([0.6, 1.2]), gs_settings)
