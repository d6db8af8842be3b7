import json

import numpy as np
import pytest

from confgames import cli, recommended_settings
from confgames.cli import KNOWN_KEYS, load_config, main
from confgames.errors import (BlowUpDetected, ConfigError, InfeasibleTheta,
                              NumericalFailure)


def read_meta_and_rows(path):
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                meta[key] = val
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


FAST = ["--set", "grid_steps=200"]


def fault_at_corner(error):
    """Stand-in for cli._evaluate_batch that fails with ``error`` at
    (theta1 lo, theta2 hi): an InfeasibleTheta is that point's entry, any
    other error is raised."""
    def evaluate_batch(game, thetas, grid):
        out = []
        for theta in thetas:
            if tuple(theta) != (game.theta_box[0][0], game.theta_box[1][1]):
                out.append((np.array([1.0, -1.0]), np.array([0.5, -0.5])))
            elif isinstance(error, InfeasibleTheta):
                out.append(error)
            else:
                raise error
        return out
    return evaluate_batch


class TestConfigParsing:
    def test_every_key_has_a_default(self):
        cfg = load_config(None, [])
        for key in KNOWN_KEYS:
            assert key in cfg.values

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("solver.alhpa = 0.1\n")
        with pytest.raises(ConfigError, match="solver.alhpa"):
            load_config(str(path), [])

    def test_file_parsing_with_comments_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment line\n"
            "scenario = general_sum\n"
            "solver.alpha = 3.5   # trailing comment\n"
            "theta0 = 0.7, 1.1\n")
        cfg = load_config(str(path), ["solver.alpha=4.0"])
        assert cfg["scenario"] == "general_sum"
        assert cfg["solver.alpha"] == 4.0
        assert cfg["theta0"] == (0.7, 1.1)

    def test_scenario_defaults_resolved(self):
        cfg = load_config(None, [])
        assert cfg["scenario"] == "pursuit_evasion"
        assert cfg["theta0"] == (0.2, 1.2)
        assert cfg["solver.alpha"] == 150.0
        gs = load_config(None, ["scenario=general_sum"])
        assert gs["theta0"] == (0.6, 1.2)
        assert gs["solver.alpha"] == 2.0

    @pytest.mark.parametrize("scenario", ["pursuit_evasion", "general_sum"])
    def test_search_settings_are_the_library_recommendation(self, scenario):
        cfg = load_config(None, [f"scenario={scenario}"])
        assert cfg.solver_settings() == recommended_settings(scenario)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="grid_steps"):
            load_config(None, ["grid_steps=abc"])

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            load_config(None, ["scenario=unknown_game"])


class TestSolveCommand:
    def test_pursuit_defaults_converge(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--out", str(out)] + FAST)
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["converged"]
        assert result["certification"] == ["INTERIOR_STATIONARY"] * 2
        assert abs(result["theta"][0] - result["theta"][1]) <= 1e-3
        meta, header, rows = read_meta_and_rows(out / "trace.csv")
        assert header[:3] == ["sweep", "player", "inner_iter"]
        assert meta["solver.alpha"] == "150"
        assert len(rows) > 1

    def test_zero_sweep_budget_gives_exit_two_and_initial_row_only(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--set", "solver.max_outer=0", "--out", str(out)]
                    + FAST)
        assert code == 2
        _, _, rows = read_meta_and_rows(out / "trace.csv")
        assert len(rows) == 1
        assert float(rows[0][3]) == 0.2 and float(rows[0][4]) == 1.2

    def test_start_outside_box_is_usage_error(self, tmp_path):
        code = main(["solve", "--set", "theta0=-1.0,0.3",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    def test_nonpositive_horizon_is_usage_error(self, tmp_path):
        code = main(["solve", "--set", "pe.horizon=-1", "--out", str(tmp_path / "run")])
        assert code == 1

    def test_non_finite_scenario_value_is_usage_error(self, tmp_path, capsys):
        # exited 0 with the answer of gs.switch_time=-1
        code = main(["solve", "--set", "scenario=general_sum", "--set", "gs.switch_time=nan",
                     "--out", str(tmp_path / "run")] + FAST)
        assert code == 1
        assert "switch_time is not finite" in capsys.readouterr().err

    def test_nan_search_setting_is_usage_error(self, tmp_path):
        # a NaN tolerance would certify a stationary point NOT_STATIONARY, exit 0
        code = main(["solve", "--set", "solver.stationarity_tol=nan",
                     "--out", str(tmp_path / "run")] + FAST)
        assert code == 1

    def test_general_sum_reaches_boundary_certificate(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--set", "scenario=general_sum",
                     "--out", str(out)] + FAST)
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["certification"][1] == "BOUNDARY_DESCENT_OUTWARD"


    def test_every_theta_solved_once_and_none_by_the_command(self, tmp_path,
                                                              monkeypatch):
        from confgames import solver
        solver_thetas, cli_calls = [], []
        real_solve = solver.solve_stage_two

        def counted(game, theta, grid=None):
            solver_thetas.append(tuple(np.asarray(theta, dtype=float)))
            return real_solve(game, theta, grid)

        def record(name, fn):
            def wrapper(*args, **kwargs):
                cli_calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "solve_stage_two", counted)
        for name in ("solve_stage_two", "_evaluate", "_evaluate_batch", "certify_first_order"):
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, record(name, getattr(cli, name)))
        code = main(["solve", "--set", "solver.max_outer=1", "--out",
                     str(tmp_path / "run")] + FAST)
        assert code == 2
        assert cli_calls == []
        assert len(solver_thetas) == len(set(solver_thetas)) > 1


class TestSweepCommand:
    def test_single_point_matches_solve_evaluation(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--set", "sweep.grid=1", "--set", "sweep.workers=1",
                     "--out", str(sweep_out)] + FAST) == 0
        _, header, rows = read_meta_and_rows(sweep_out / "landscape.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))

        solve_out = tmp_path / "solve"
        mid = f"{float(row['theta1'])!r},{float(row['theta2'])!r}"
        main(["solve", "--set", f"theta0={mid}", "--set", "solver.max_outer=0",
              "--out", str(solve_out)] + FAST)
        _, _, srows = read_meta_and_rows(solve_out / "trace.csv")
        assert float(srows[0][5]) == float(row["J1"])
        assert float(srows[0][6]) == float(row["J2"])

    def test_zero_sum_rows_cancel(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--set", "sweep.grid=3", "--set", "sweep.workers=1",
                     "--out", str(out)] + FAST) == 0
        _, header, rows = read_meta_and_rows(out / "landscape.csv")
        assert len(rows) == 9
        for row in rows:
            rec = dict(zip(header, row))
            assert float(rec["J1"]) + float(rec["J2"]) == 0.0
            assert rec["feasible"] == "1"

    def test_parallel_and_serial_agree(self, tmp_path):
        # identical numbers regardless of worker count; only the echoed
        # worker setting itself may differ
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        main(["sweep", "--set", "sweep.grid=3", "--set", "sweep.workers=1",
              "--out", str(a)] + FAST)
        main(["sweep", "--set", "sweep.grid=3", "--set", "sweep.workers=4",
              "--out", str(b)] + FAST)
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("# sweep.workers")]
        assert strip(a / "landscape.csv") == strip(b / "landscape.csv")

    def test_infeasible_point_is_reported_as_row(self, tmp_path, monkeypatch):
        game = load_config(None, []).build_game()
        monkeypatch.setattr(cli, "_evaluate_batch", fault_at_corner(InfeasibleTheta((0.0, 0.0))))
        out = tmp_path / "sweep"
        assert main(["sweep", "--set", "sweep.grid=2", "--set", "sweep.workers=1",
                     "--out", str(out)] + FAST) == 0
        _, header, rows = read_meta_and_rows(out / "landscape.csv")
        feasible = {(float(r[0]), float(r[1])): r[-1] for r in rows}
        corner = (game.theta_box[0][0], game.theta_box[1][1])
        assert feasible.pop(corner) == "0"
        assert list(feasible.values()) == ["1", "1", "1"]

    def test_numerical_failure_is_an_error_not_infeasible(self, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(cli, "_evaluate_batch", fault_at_corner(NumericalFailure("nan")))
        out = tmp_path / "sweep"
        assert main(["sweep", "--set", "sweep.grid=2", "--set", "sweep.workers=1",
                     "--out", str(out)] + FAST) == 1
        assert "error: nan" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    def test_blowup_in_a_worker_reaches_main(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_evaluate_batch", fault_at_corner(BlowUpDetected(0.5, 1e9)))
        out = tmp_path / "sweep"
        assert main(["sweep", "--set", "sweep.grid=2", "--set", "sweep.workers=2",
                     "--out", str(out)] + FAST) == 3
        assert "blow-up threshold near t=0.5" in capsys.readouterr().err

    def test_negative_worker_count_is_usage_error(self, tmp_path, capsys):
        # -3 used to run, exit 0 and echo "sweep.workers = -3" into landscape.csv
        out = tmp_path / "sweep"
        assert main(["sweep", "--set", "scenario=general_sum", "--set", "sweep.grid=1",
                     "--set", "sweep.workers=-3", "--out", str(out)] + FAST) == 1
        assert "sweep.workers" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    def test_requires_two_players(self, tmp_path):
        code = main(["sweep", "--set", "scenario=random",
                     "--set", "random.players=1", "--out", str(tmp_path / "x")])
        assert code == 1


class TestGradCheckCommand:
    def test_passes_on_pursuit_game(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["grad-check", "--set", "gradcheck.samples=3",
                     "--out", str(out)] + FAST)
        assert code == 0
        meta, _, rows = read_meta_and_rows(out / "gradcheck.csv")
        assert float(meta["max_rel_err"]) <= 1e-4
        assert len(rows) == 3 * 4

    def test_corrupted_gradient_fails_with_exit_four(self, tmp_path):
        code = main(["grad-check", "--set", "gradcheck.samples=2",
                     "--set", "gradcheck.corrupt=0.01",
                     "--out", str(tmp_path / "gc")] + FAST)
        assert code == 4

    def test_random_scenario_passes(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["grad-check", "--set", "scenario=random",
                     "--set", "random.seed=3", "--set", "gradcheck.samples=2",
                     "--out", str(out)] + FAST)
        assert code == 0

    @pytest.mark.parametrize("setting", ["gradcheck.samples=0", "gradcheck.step=0",
                                         "gradcheck.tolerance=-1", "gradcheck.tolerance=nan"])
    def test_meaningless_check_is_a_config_error(self, tmp_path, capsys, setting):
        # samples=0 used to pass with no rows, step=0 to fail on 0/0, and a
        # negative or NaN tolerance to report a failure it did not find
        out = tmp_path / "gc"
        code = main(["grad-check", "--set", "scenario=general_sum", "--set", setting,
                     "--out", str(out)] + FAST)
        assert code == 1
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (out / "gradcheck.csv").exists()

    def test_vanishing_gradient_components_compared_absolutely(self):
        from confgames.cli import gradcheck_rel_err
        # both sides numerically zero counts as exact agreement
        assert gradcheck_rel_err(0.0, 0.0) == 0.0
        assert gradcheck_rel_err(5e-11, -5e-11) == 0.0
        # a real discrepancy against a zero difference quotient fails hard
        assert gradcheck_rel_err(1e-3, 0.0) == float("inf")
        # ordinary components are relative
        assert gradcheck_rel_err(1.01, 1.0) == pytest.approx(0.01)


class TestBaselineCommand:
    def test_positive_gap_for_naive_pursuer(self, tmp_path):
        out = tmp_path / "base"
        code = main(["baseline", "--out", str(out)] + FAST)
        assert code == 0
        meta, _, rows = read_meta_and_rows(out / "baseline.csv")
        assert float(meta["gap"]) > 0.0
        paths = {row[0] for row in rows}
        assert paths == {"naive", "ibr"}

    def test_start_outside_box_is_usage_error(self, tmp_path):
        code = main(["baseline", "--set", "theta0=-1.0,0.3",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_rejects_general_sum(self, tmp_path):
        code = main(["baseline", "--set", "scenario=general_sum",
                     "--out", str(tmp_path / "x")])
        assert code == 1


class TestOutputContracts:
    def test_metadata_echoes_all_defaults(self, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--set", "sweep.grid=1", "--set", "sweep.workers=1",
              "--out", str(out)] + FAST)
        meta, _, _ = read_meta_and_rows(out / "landscape.csv")
        for key in KNOWN_KEYS:
            assert key in meta
        assert meta["tool_version"]
        assert meta["command"] == "sweep"

    def test_numbers_round_trip_through_seventeen_digits(self, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--set", "sweep.grid=2", "--set", "sweep.workers=1",
              "--out", str(out)] + FAST)
        _, header, rows = read_meta_and_rows(out / "landscape.csv")
        from confgames import TimeGrid, solve_stage_two, build_pursuit_evasion
        game = build_pursuit_evasion()
        grid = TimeGrid(game.horizon, 200)
        for row in rows:
            rec = dict(zip(header, row))
            theta = np.array([float(rec["theta1"]), float(rec["theta2"])])
            expected = solve_stage_two(game, theta, grid).values[0]
            assert float(rec["J1"]) == expected

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["grad-check", "--set", "gradcheck.samples=2"] + FAST
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert (a / "gradcheck.csv").read_bytes() == (b / "gradcheck.csv").read_bytes()
