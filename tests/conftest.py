"""Shared fixtures and small game builders for the test suite.

Heavy artifacts (IBR runs, baselines) are session-scoped so the solver
and acceptance modules share one computation; wall time is recorded so
the acceptance runtime bounds can be asserted.
"""

from __future__ import annotations

import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import confgames.solver as solver_mod
from confgames import (BlowUpDetected, ConfigGame, GeneralSumSpec,
                       IndefiniteStateCostWarning, MatrixFn, PursuitEvasionSpec, Regularizer,
                       SolverSettings, TimeGrid, build_general_sum,
                       build_pursuit_evasion, ibr_solve, naive_baseline,
                       recommended_settings)


def make_scalar_lqr(q: float = 1.0, theta_box=(0.5, 2.0), x0: float = 1.0,
                    qf: float = 0.0, horizon: float = 1.0,
                    regularizer: Regularizer = None) -> ConfigGame:
    """Single-player scalar game: dx/dt = theta * u, cost q x^2 + u^2.

    Closed form: P(t) = (sqrt(q)/theta) * tanh(sqrt(q) * theta * (T - t))
    when qf = 0, so values and gradients have analytic oracles.
    """
    return ConfigGame(
        horizon=horizon,
        A=MatrixFn.constant(np.zeros((1, 1))),
        B=(MatrixFn((1, 1), lambda t, th: np.array([[th[0]]]),
                    lambda t, th, k: np.array([[1.0]]),
                    depends_on=(0,), time_varying=False),),
        Q=(MatrixFn.constant(np.array([[q]])),),
        R=((MatrixFn.constant(np.eye(1)),),),
        c=MatrixFn.constant(np.zeros(1)),
        Qf=(np.array([[qf]]),),
        theta_box=(theta_box,),
        x0=np.array([x0]),
        regularizers=(regularizer,) if regularizer is not None else None,
    )


def make_theta_independent_game(n: int = 2, drive: bool = True) -> ConfigGame:
    """Two-player game with no parameter dependence anywhere."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(n, n)) * 0.3
    B = [rng.normal(size=(n, 1)) * 0.5 for _ in range(2)]
    L = rng.normal(size=(n, n)) * 0.5
    Q = L @ L.T
    return ConfigGame(
        horizon=1.0,
        A=MatrixFn.constant(A),
        B=tuple(MatrixFn.constant(b) for b in B),
        Q=(MatrixFn.constant(Q), MatrixFn.constant(0.5 * Q)),
        R=((MatrixFn.constant(np.eye(1)), MatrixFn.constant(np.zeros((1, 1)))),
           (MatrixFn.constant(np.zeros((1, 1))), MatrixFn.constant(np.eye(1)))),
        c=MatrixFn.constant(rng.normal(size=n) * 0.4 if drive else np.zeros(n)),
        Qf=(np.eye(n) * 0.2, np.eye(n) * 0.1),
        theta_box=((0.5, 1.5), (0.5, 1.5)),
        x0=rng.normal(size=n),
    )


def make_time_varying_game() -> ConfigGame:
    """Drive-free two-player game whose actuation and control costs vary in time.

    Player i's actuation is theta_i * b_i * (1 + t/2); the control costs
    grow linearly in t, so every node-sampled coefficient is time-varying.
    """
    rng = np.random.default_rng(7)
    n = 2
    b = [rng.normal(size=(n, 1)) for _ in range(2)]
    L = [rng.normal(size=(n, n)) * 0.5 for _ in range(2)]

    def actuation(i):
        return MatrixFn((n, 1), lambda t, th, i=i: th[i] * (1.0 + 0.5 * t) * b[i],
                        lambda t, th, k, i=i: (1.0 + 0.5 * t) * b[i], depends_on=(i,))

    own = MatrixFn.of_time((1, 1), lambda t: (1.0 + 0.3 * t) * np.eye(1))
    cross = MatrixFn.of_time((1, 1), lambda t: 0.2 * (1.0 + t) * np.eye(1))
    return ConfigGame(
        horizon=1.0,
        A=MatrixFn.constant(rng.normal(size=(n, n)) * 0.3),
        B=(actuation(0), actuation(1)),
        Q=tuple(MatrixFn.constant(Li @ Li.T) for Li in L),
        R=((own, cross), (cross, own)),
        c=MatrixFn.constant(np.zeros(n)), Qf=(np.eye(n) * 0.2, np.eye(n) * 0.1),
        theta_box=((0.5, 1.5), (0.5, 1.5)), x0=rng.normal(size=n))


def build_gs_quiet(spec: GeneralSumSpec = None, **kwargs) -> ConfigGame:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndefiniteStateCostWarning)
        return build_general_sum(spec, **kwargs)


@pytest.fixture(scope="session")
def pe_game():
    return build_pursuit_evasion()


@pytest.fixture(scope="session")
def gs_game():
    return build_gs_quiet()


@pytest.fixture(scope="session")
def pe_grid(pe_game):
    return TimeGrid(pe_game.horizon, 1000)


@pytest.fixture(scope="session")
def gs_grid(gs_game):
    return TimeGrid(gs_game.horizon, 1000)


@pytest.fixture(scope="session")
def pe_settings():
    return recommended_settings("pursuit_evasion")


@pytest.fixture(scope="session")
def gs_settings():
    return recommended_settings("general_sum")


def count_solves(monkeypatch):
    """Patch ``solver._solve_batch``, the entry of every stage-two solve the
    solver module makes, to record the theta of each row it is given; returns
    the list of them, as tuples of floats."""
    thetas = []
    real = solver_mod._solve_batch

    def counted(game, rows, grid=None):
        thetas.extend(tuple(map(float, theta)) for theta in np.atleast_2d(rows))
        return real(game, rows, grid)

    monkeypatch.setattr(solver_mod, "_solve_batch", counted)
    return thetas


def diverge_at(*points):
    """Stand-in for solver._solve_batch that numbers the points it is given
    across calls and reports those numbered ``points`` as blown up at
    t = 0.5; the points it was given are kept in its ``seen`` list."""
    real = solver_mod._solve_batch
    seen = []

    def solve_batch(game, thetas, grid):
        start = len(seen)
        seen.extend(thetas)
        batch, failures = real(game, thetas, grid)
        assert not failures
        bad = [b for b in range(len(thetas)) if start + b in points]
        keep = [b for b in range(len(thetas)) if b not in bad]
        return batch.select(keep), {b: BlowUpDetected(0.5, 1e9, player=1) for b in bad}

    solve_batch.seen = seen
    return solve_batch


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def pe_ibr_runs(pe_game, pe_settings, pe_baseline_result):
    """IBR traces from the two canonical starts, with wall time.  The run
    from (0.2, 1.2) is the one the naive baseline made, so its seconds
    include the baseline's naive rounds."""
    b, tb = _timed(ibr_solve, pe_game, np.array([1.2, 0.2]), pe_settings)
    return SimpleNamespace(a=pe_baseline_result.result.ibr_trace, b=b,
                           seconds=pe_baseline_result.seconds + tb)


@pytest.fixture(scope="session")
def gs_ibr_runs(gs_game, gs_settings):
    red, ta = _timed(ibr_solve, gs_game, np.array([0.6, 1.2]), gs_settings)
    blue, tb = _timed(ibr_solve, gs_game, np.array([1.2, 0.6]), gs_settings)
    return SimpleNamespace(red=red, blue=blue, seconds=ta + tb)


@pytest.fixture(scope="session")
def pe_baseline_200(pe_game, pe_settings):
    """Baseline from (0.2, 1.2) on a 200-step grid, with the theta of every
    stage-two solve the solver module made."""
    settings = SolverSettings(alpha=pe_settings.alpha, grid_steps=200)
    with pytest.MonkeyPatch.context() as mp:
        thetas = count_solves(mp)
        result = naive_baseline(pe_game, np.array([0.2, 1.2]), settings)
    return SimpleNamespace(result=result, thetas=thetas)


@pytest.fixture(scope="session")
def pe_baseline_result(pe_game, pe_settings):
    result, secs = _timed(naive_baseline, pe_game, np.array([0.2, 1.2]),
                          pe_settings)
    return SimpleNamespace(result=result, seconds=secs)
