import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import confgames
from confgames import (ConfigGame, GeneralSumSpec, IndefiniteStateCostWarning, MatrixFn,
                       PositiveDefinitenessViolation, PursuitEvasionSpec, StageTables,
                       TimeGrid, build_general_sum, build_pursuit_evasion,
                       envelope_gradient, random_aq_game, rollout, solve_stage_two,
                       value_gradient)
from confgames import model as model_mod
from confgames.riccati import _closed_loop
from conftest import make_scalar_lqr, make_time_varying_game


def _fd_matrixfn(fn, t, theta, k, h=1e-5):
    up = np.array(theta, dtype=float)
    dn = up.copy()
    up[k] += h
    dn[k] -= h
    return (fn(t, up) - fn(t, dn)) / (2 * h)


def _all_coefficients(game):
    yield "A", game.A
    yield "c", game.c
    for i in range(game.num_players):
        yield f"B{i}", game.B[i]
        yield f"Q{i}", game.Q[i]
        for j in range(game.num_players):
            yield f"R{i}{j}", game.R[i][j]


class TestMatrixFn:
    def test_declared_independent_components_are_zero(self, pe_game):
        theta = np.array([0.3, 0.8])
        d = pe_game.B[0].d_theta(0.0, theta, 1)
        assert not d.any()
        assert not pe_game.A.d_theta(0.0, theta, 0).any()

    @pytest.mark.parametrize("scenario", ["pe", "gs"])
    def test_analytic_gradients_match_central_differences(self, scenario,
                                                          pe_game, gs_game):
        game = pe_game if scenario == "pe" else gs_game
        ts = np.linspace(0.0, game.horizon, 10)
        lo = np.array([b[0] for b in game.theta_box])
        hi = np.array([b[1] for b in game.theta_box])
        thetas = np.linspace(lo + 0.05, hi - 0.05, 10)
        for name, fn in _all_coefficients(game):
            for k in range(game.num_players):
                worst = 0.0
                for t in ts:
                    for theta in thetas:
                        ref = fn(t, theta)
                        diff = np.abs(fn.d_theta(t, theta, k)
                                      - _fd_matrixfn(fn, t, theta, k))
                        worst = max(worst, diff.max() / (1.0 + np.abs(ref).max()))
                assert worst <= 1e-6, f"{name} d/dtheta_{k} off by {worst}"

    def test_parameter_dependence_requires_gradient(self):
        with pytest.raises(ValueError):
            MatrixFn((1, 1), lambda t, th: np.eye(1), depends_on=(0,))

    def test_shape_mismatch_raises(self):
        fn = MatrixFn((2, 2), lambda t, th: np.zeros((3, 3)))
        with pytest.raises(ValueError):
            fn(0.0, np.zeros(1))


def _tables_at_t0(game, theta):
    """Stage tables on a 2-step grid: stage index 0 is t = 0."""
    return StageTables(game, np.asarray(theta, dtype=float), TimeGrid(game.horizon, 2))


class TestComputeS:
    """The coupling matrices S^ij = B^j R^jj^-1 R^ij R^jj^-1 B^j' of StageTables."""

    def test_identity_case(self):
        n = 2
        eye = MatrixFn.constant(np.eye(n))
        game = ConfigGame(
            num_players=1, state_dim=n, control_dims=(n,), horizon=1.0,
            A=MatrixFn.constant(np.zeros((n, n))), B=(eye,), Q=(eye,),
            R=((eye,),), c=MatrixFn.constant(np.zeros(n)), Qf=(np.zeros((n, n)),),
            theta_box=((0.0, 1.0),), x0=np.zeros(n))
        S = _tables_at_t0(game, [0.5]).S[0, 0, 0, 0]
        assert np.allclose(S, np.eye(n), atol=1e-14)

    def test_pursuit_actuation_block_at_zero_angle(self, pe_game):
        # at theta1 = 0 the own coupling has diag(4, 1) at the velocity rows
        S = _tables_at_t0(pe_game, [0.0, 1.0]).S[0, 0, 0, 0]
        expected = np.zeros((8, 8))
        expected[2, 2] = 4.0
        expected[3, 3] = 1.0
        assert np.allclose(S, expected, atol=1e-14)

    def test_cross_coupling_zero_when_cross_cost_zero(self, gs_game):
        # at every stage time of the grid, t = 0.1 among them
        tabs = StageTables(gs_game, np.array([0.7, 0.9]), TimeGrid(gs_game.horizon, 18))
        assert not tabs.S[:, 0, 0, 1].any()

    def test_own_coupling_psd_on_grid(self, pe_game, gs_game):
        for game in (pe_game, gs_game):
            # the nodes of a 6-step grid are linspace(0, horizon, 7)
            tabs = StageTables(game, game.theta_mid, TimeGrid(game.horizon, 6))
            for S_t in tabs.S_diag[0::2].reshape(-1, game.state_dim, game.state_dim):
                assert np.linalg.eigvalsh(0.5 * (S_t + S_t.T)).min() >= -1e-10

    def test_singular_control_cost_raises(self):
        bad_r = MatrixFn.constant(np.zeros((1, 1)))
        with pytest.raises(PositiveDefinitenessViolation):
            ConfigGame(
                num_players=1, state_dim=1, control_dims=(1,), horizon=1.0,
                A=MatrixFn.constant(np.zeros((1, 1))),
                B=(MatrixFn.constant(np.ones((1, 1))),),
                Q=(MatrixFn.constant(np.eye(1)),), R=((bad_r,),),
                c=MatrixFn.constant(np.zeros(1)), Qf=(np.zeros((1, 1)),),
                theta_box=((0.0, 1.0),), x0=np.ones(1))


class TestComputeSDeriv:
    """The derivative tables dS[k][i] = d S^ik / d theta_k of StageTables."""

    def test_zero_for_foreign_component(self, pe_game):
        # S^00 does not move with theta_1: its derivative there is zero,
        # which is why the tables hold no such entry
        theta = np.array([0.3, 0.8])
        moved = np.array([0.3, 1.3])
        d = (_tables_at_t0(pe_game, moved).S[:, 0, 0, 0]
             - _tables_at_t0(pe_game, theta).S[:, 0, 0, 0])
        assert not d.any()

    def test_scalar_game_gives_two_theta(self):
        game = make_scalar_lqr()
        tabs = _tables_at_t0(game, [0.7])
        tabs.ensure_derivs()
        d = tabs.dS[0][0][0, 0]
        assert d[0, 0] == pytest.approx(2 * 0.7, abs=1e-14)

    def test_matches_central_difference_on_pursuit_game(self, pe_game):
        theta = np.array([np.pi / 4, np.pi / 4])
        h = 1e-6
        tabs = _tables_at_t0(pe_game, theta)
        tabs.ensure_derivs()
        for (i, j, k) in [(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0)]:
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (_tables_at_t0(pe_game, up).S[0, 0, i, j]
                  - _tables_at_t0(pe_game, dn).S[0, 0, i, j]) / (2 * h)
            d = tabs.dS[k][i][0, 0]
            assert np.abs(d - fd).max() <= 1e-8


class TestSampler:
    """StageTables samples every coefficient once per solve; later passes
    read the tables."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = [0]
        real = model_mod.MatrixFn.__call__

        def counted(self, t, theta):
            calls[0] += 1
            return real(self, t, theta)

        monkeypatch.setattr(model_mod.MatrixFn, "__call__", counted)
        return calls

    def test_one_call_per_stage_time_or_per_constant(self, monkeypatch):
        # six time-varying coefficients (B^0, B^1 and the four R^ij) at
        # 2001 stage times, four constant ones (A, c, Q^0, Q^1) once each;
        # sampling S per (i, j) pair and again at the nodes made 46,030
        game = make_time_varying_game()
        theta = np.array([0.7, 1.3])
        grid = TimeGrid(game.horizon, 1000)
        calls = self._count_calls(monkeypatch)
        sol = solve_stage_two(game, theta, grid)
        value_gradient(game, theta, grid=grid, stage2=sol)
        rollout(game, theta, sol)
        assert calls[0] == 6 * len(grid.stage_times) + 4 == 12010

    def test_rollout_and_envelope_read_the_tables(self, monkeypatch):
        game = make_time_varying_game()
        theta = np.array([0.7, 1.3])
        sol = solve_stage_two(game, theta, TimeGrid(game.horizon, 200))
        calls = self._count_calls(monkeypatch)
        rollout(game, theta, sol)
        for i in range(2):
            envelope_gradient(sol, i)
        assert calls[0] == 0

    @pytest.mark.parametrize("make,expected", [
        (build_pursuit_evasion, 570),
        (build_general_sum, 510),
        (lambda: random_aq_game(0, 3, 6, 2), 951),
    ])
    def test_construction_samples_each_spot_once(self, monkeypatch, make, expected):
        # every coefficient at the 33 spot times at theta_mid, plus theta_k
        # moved to both ends of its interval at five of them for each k the
        # coefficient declares it ignores, plus Q^0, Q^1 and c at the four box
        # corners at five times for a zero-sum game; each check sampling on
        # its own made 1,499, 1,005 and 2,180 calls
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefiniteStateCostWarning)
            game = make()
            fields = {f.name: getattr(game, f.name) for f in dataclasses.fields(game)}
            N = game.num_players
            per_slot = [33 + 10 * (N - len(coef.depends_on))
                        for _, coef in _all_coefficients(game)]
            calls = self._count_calls(monkeypatch)
            ConfigGame(**fields)
        assert calls[0] == sum(per_slot) + 60 * game.zero_sum == expected

    def test_coupling_tables_match_closed_form(self):
        game = make_time_varying_game()
        theta = np.array([0.7, 1.3])
        grid = TimeGrid(game.horizon, 1000)
        tabs = StageTables(game, theta, grid)
        tabs.ensure_derivs()
        for m, t in enumerate(grid.stage_times):
            B = [game.B[j](t, theta) for j in range(2)]
            dB = [game.B[j].d_theta(t, theta, j) for j in range(2)]
            for j in range(2):
                assert np.array_equal(tabs.B[j][m, 0], B[j])
                assert np.array_equal(tabs.dB[j][m, 0], dB[j])
            for i in range(2):
                for j in range(2):
                    assert np.array_equal(tabs.R[i][j][m], game.R[i][j](t, theta))
                    Rjj_inv = np.linalg.inv(game.R[j][j](t, theta))
                    M = Rjj_inv @ game.R[i][j](t, theta) @ Rjj_inv
                    S = B[j] @ M @ B[j].T
                    dS = dB[j] @ M @ B[j].T + B[j] @ M @ dB[j].T
                    assert np.allclose(tabs.S[m, 0, i, j], S, rtol=1e-12, atol=1e-14)
                    assert np.allclose(tabs.dS[j][i][m, 0], dS, rtol=1e-12, atol=1e-14)


class TestClosedLoopMatrix:
    def test_zero_feedback_returns_drift(self, pe_game):
        theta = np.array([0.2, 0.4])
        grid = TimeGrid(pe_game.horizon, 2)
        P_st = np.zeros((len(grid.stage_times), 1, 2, 8, 8))
        F = _closed_loop(StageTables(pe_game, theta, grid), P_st)
        for F_m in F[:, 0]:
            assert np.array_equal(F_m, pe_game.A(0.0, theta))

    def test_scalar_direct_substitution(self):
        game = make_scalar_lqr()
        grid = TimeGrid(game.horizon, 2)
        P_st = np.full((len(grid.stage_times), 1, 1, 1, 1), 2.0)
        F = _closed_loop(StageTables(game, np.array([1.0]), grid), P_st)
        assert F[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-14)

    def test_matches_independent_recomputation(self, gs_game, gs_grid):
        theta = np.array([0.6, 1.1])
        sol = solve_stage_two(gs_game, theta, gs_grid)
        P = sol.P_nodes[0]
        F = sol.F_st[0]
        expected = gs_game.A(0.0, theta).copy()
        for i in range(2):
            Bi = gs_game.B[i](0.0, theta)
            Rii = gs_game.R[i][i](0.0, theta)
            expected -= Bi @ np.linalg.solve(Rii, Bi.T) @ P[i]
        assert np.allclose(F, expected, atol=1e-12)


class TestConfigGameValidation:
    def test_asymmetric_terminal_cost_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            ConfigGame(
                num_players=1, state_dim=2, control_dims=(1,), horizon=1.0,
                A=MatrixFn.constant(np.zeros((2, 2))),
                B=(MatrixFn.constant(np.ones((2, 1))),),
                Q=(MatrixFn.constant(np.eye(2)),),
                R=((MatrixFn.constant(np.eye(1)),),),
                c=MatrixFn.constant(np.zeros(2)),
                Qf=(np.array([[1.0, 0.5], [0.0, 1.0]]),),
                theta_box=((0.0, 1.0),), x0=np.zeros(2))

    def test_empty_parameter_interval_rejected(self):
        with pytest.raises(ValueError):
            make_scalar_lqr(theta_box=(2.0, 1.0))

    def test_zero_sum_requires_two_players(self):
        game = make_scalar_lqr()
        with pytest.raises(ValueError):
            ConfigGame(
                num_players=1, state_dim=1, control_dims=(1,), horizon=1.0,
                A=game.A, B=game.B, Q=game.Q, R=game.R, c=game.c, Qf=game.Qf,
                theta_box=game.theta_box, x0=game.x0, zero_sum=True)

    @pytest.mark.parametrize("cost", ["Qf", "Q", "Q_off_mid", "c", "R"])
    def test_zero_sum_requires_negated_costs(self, pe_game, cost):
        # with Qf = (Qf1, Qf1) the zero-sum solve used to report +-0.00805 at
        # theta = (0.4, 1.1), where the general-sum solve of the same costs
        # gives 0.00319 and 0.00252; a Q[1] that vanishes at theta_mid only
        # was solved as Q[1] = -Q[0] = 0, reporting (0.0082946, -0.0082946)
        # at (0.2, 1.2) on 200 steps; a drive was refused by every solve
        Q, R, scale = pe_game.Q, pe_game.R, 1e-2 * np.eye(8)
        off_mid = MatrixFn((8, 8), lambda t, th: (th[0] - np.pi / 4) * scale,
                           lambda t, th, k: scale, depends_on=(0,), time_varying=False)
        change = {
            "Qf": {"Qf": (pe_game.Qf[0], pe_game.Qf[0])},
            "Q": {"Q": (Q[0], MatrixFn.of_time((8, 8), lambda t: t * np.eye(8)))},
            "Q_off_mid": {"Q": (Q[0], off_mid)},
            "c": {"c": MatrixFn.constant(0.1 * np.ones(8))},
            "R": {"R": (R[0], (R[0][0], R[1][1]))},
        }[cost]
        with pytest.raises(ValueError, match="zero-sum"):
            dataclasses.replace(pe_game, **change)
        dataclasses.replace(pe_game, zero_sum=False, **change)

    def test_zero_sum_requires_identity_own_control_costs(self, pe_game):
        m0, m1 = pe_game.control_dims
        R00 = MatrixFn.constant(2.0 * np.eye(m0))
        R = ((R00, pe_game.R[0][1]), (MatrixFn.constant(-2.0 * np.eye(m0)), pe_game.R[1][1]))
        with pytest.raises(ValueError, match=r"R\[0\]\[0\] = I"):
            dataclasses.replace(pe_game, R=R)

    @pytest.mark.parametrize("wrong,match", [
        ("time_constant", r"B\[0\] is declared time-constant"),
        ("depends_on", r"Q\[0\] changes with theta_0"),
    ])
    def test_misdeclared_coefficient_rejected(self, wrong, match):
        # scalar game with B = theta (1 + t); solved as declared below, the
        # time-constant B gives the value 0.381 instead of 0.342 at theta = 1,
        # and the Q that hides its theta_0 gives dJ/dtheta -0.190 where
        # finite differences give 0.057
        B = MatrixFn((1, 1), lambda t, th: np.array([[th[0] * (1.0 + t)]]),
                     lambda t, th, k: np.array([[1.0 + t]]), depends_on=(0,),
                     time_varying=(wrong != "time_constant"))
        Q = MatrixFn.constant(np.eye(1))
        if wrong == "depends_on":
            Q = MatrixFn((1, 1), lambda t, th: np.array([[th[0]]]), time_varying=False)
        with pytest.raises(ValueError, match=match):
            ConfigGame(
                num_players=1, state_dim=1, control_dims=(1,), horizon=1.0,
                A=MatrixFn.constant(np.zeros((1, 1))), B=(B,), Q=(Q,),
                R=((MatrixFn.constant(np.eye(1)),),), c=MatrixFn.constant(np.zeros(1)),
                Qf=(np.zeros((1, 1)),), theta_box=((0.5, 2.0),), x0=np.ones(1))

    def test_indefinite_state_cost_warns_once(self):
        with pytest.warns(IndefiniteStateCostWarning) as rec:
            build_general_sum()
        assert len(rec) == 1

    def test_q_symmetrized_on_evaluation(self):
        slight = np.array([[1.0, 1e-14], [0.0, 1.0]])
        game = ConfigGame(
            num_players=1, state_dim=2, control_dims=(1,), horizon=1.0,
            A=MatrixFn.constant(np.zeros((2, 2))),
            B=(MatrixFn.constant(np.ones((2, 1))),),
            Q=(MatrixFn.constant(slight),),
            R=((MatrixFn.constant(np.eye(1)),),),
            c=MatrixFn.constant(np.zeros(2)), Qf=(np.zeros((2, 2)),),
            theta_box=((0.0, 1.0),), x0=np.zeros(2))
        Q = game.eval_Q(0, 0.0, np.array([0.5]))
        assert np.array_equal(Q, Q.T)

    def test_grossly_asymmetric_q_rejected(self):
        bad = MatrixFn.constant(np.array([[1.0, 0.5], [0.0, 1.0]]))
        game_kwargs = dict(
            num_players=1, state_dim=2, control_dims=(1,), horizon=1.0,
            A=MatrixFn.constant(np.zeros((2, 2))),
            B=(MatrixFn.constant(np.ones((2, 1))),),
            R=((MatrixFn.constant(np.eye(1)),),),
            c=MatrixFn.constant(np.zeros(2)), Qf=(np.zeros((2, 2)),),
            theta_box=((0.0, 1.0),), x0=np.zeros(2))
        with pytest.raises(ValueError, match="asymmetric"):
            ConfigGame(Q=(bad,), **game_kwargs)

    def test_asymmetric_control_cost_rejected(self):
        # R = [[1, 0.5], [-0.5, 1]] is the same cost u'u as R = I, yet the
        # solve read it as given: values (1.150397, 0.275816) at theta =
        # (1.0, 1.3) where R = I gives (1.034160, 0.326451), and its own
        # rollout disagreed (1.150402)
        base = np.array([[0.0, 1.0], [1.0, 0.3]])

        def actuation(owner):
            return MatrixFn((2, 2), lambda t, th: th[owner] * base,
                            lambda t, th, k: base, depends_on=(owner,), time_varying=False)

        eye2, zero2 = MatrixFn.constant(np.eye(2)), MatrixFn.constant(np.zeros((2, 2)))
        skew = MatrixFn.constant(np.array([[1.0, 0.5], [-0.5, 1.0]]))
        with pytest.raises(ValueError, match="asymmetric"):
            ConfigGame(
                num_players=2, state_dim=2, control_dims=(2, 2), horizon=2.0,
                A=MatrixFn.constant(np.array([[0.0, 1.0], [-0.5, -0.2]])),
                B=(actuation(0), actuation(1)),
                Q=(MatrixFn.constant(np.diag([2.0, 0.5])),
                   MatrixFn.constant(np.diag([0.5, 1.0]))),
                R=((skew, zero2), (zero2, eye2)), c=MatrixFn.constant(np.zeros(2)),
                Qf=(0.5 * np.eye(2), 0.25 * np.eye(2)),
                theta_box=((0.4, 2.0), (0.4, 2.0)), x0=np.array([1.5, 0.0]))

    def test_indefinite_state_cost_warning_names_the_caller(self):
        # stacklevel 3 named the dataclass-generated __init__, "<string>"
        with pytest.warns(IndefiniteStateCostWarning) as rec:
            build_general_sum()
        assert rec[0].filename.endswith("scenarios.py")

    def test_q_asymmetric_between_warning_samples_rejected(self):
        # asymmetric only for 0 < t < T/5, between the five times the
        # indefiniteness warning reads; it was accepted at build and rejected
        # by the first solve
        skew = np.array([[0.0, 0.5], [0.0, 0.0]])
        Q = MatrixFn.of_time((2, 2), lambda t: np.eye(2) + (0.0 < t < 0.2) * skew)
        with pytest.raises(ValueError, match=r"Q\[0\] is asymmetric at t=0.03125"):
            ConfigGame(
                num_players=1, state_dim=2, control_dims=(1,), horizon=1.0,
                A=MatrixFn.constant(np.zeros((2, 2))),
                B=(MatrixFn.constant(np.ones((2, 1))),), Q=(Q,),
                R=((MatrixFn.constant(np.eye(1)),),),
                c=MatrixFn.constant(np.zeros(2)), Qf=(np.zeros((2, 2)),),
                theta_box=((0.0, 1.0),), x0=np.zeros(2))

    @pytest.mark.parametrize("scenario,field,value,match", [
        # each was accepted or misdiagnosed: NaN != NaN read as a time or
        # parameter dependence, an inf Qf as a non-negated one, an inf Q
        # as "Eigenvalues did not converge"
        ("pe", "kappa1", np.nan, r"B\[0\] at t=0 is not finite"),
        ("gs", "q_v", np.nan, r"Q\[0\] at t=0 is not finite"),
        ("gs", "v_o1", np.nan, "x0 is not finite"),
        ("pe", "kappa3", np.inf, "Qf is not finite"),
        ("gs", "q_h_scale", np.inf, r"Q\[0\] at t=0 is not finite"),
    ])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_game_data_named_at_build(self, scenario, field, value, match):
        spec, build = {"pe": (PursuitEvasionSpec(), build_pursuit_evasion),
                       "gs": (GeneralSumSpec(), build_general_sum)}[scenario]
        object.__setattr__(spec, field, value)  # past the spec's own check
        with pytest.raises(ValueError, match=match):
            build(spec)

    @pytest.mark.parametrize("field,value,match", [
        # a NaN x0 solved to values [nan, nan]; an infinite horizon was
        # rejected only by the first TimeGrid
        ("x0", np.full(8, np.nan), "x0 is not finite"),
        ("horizon", np.inf, "horizon is not finite"),
    ])
    def test_non_finite_start_or_horizon_named_at_build(self, pe_game, field, value,
                                                         match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(pe_game, **{field: value})

    def test_immutability_of_stored_arrays(self, pe_game):
        with pytest.raises(ValueError):
            pe_game.x0[0] = 7.0
        with pytest.raises(ValueError):
            pe_game.Qf[0][0, 0] = 7.0


class TestRuntimeDependencies:
    def test_library_runs_without_scipy(self):
        # scipy is a test dependency only: importing the library and building
        # both built-in games, which solves their corner probes, loads none of it
        code = ("import sys, warnings; warnings.simplefilter('ignore'); import confgames; "
                "confgames.build_pursuit_evasion(); confgames.build_general_sum(); "
                "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
        src = os.path.dirname(os.path.dirname(confgames.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                       check=True, timeout=120)
