"""Built-in games: pursuit-evasion, the general-sum lane game, and a
seeded random-game generator for property tests.

Both built-in constructions and the random generator check feasibility at
build time: a bad parameter choice fails loudly with the divergence time
instead of surfacing later inside a solver loop, and a bad draw is redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._stage import StageTables
from .errors import GenerationFailed, InfeasibleTheta
from .model import ConfigGame, MatrixFn, Regularizer, _require_finite
from .odekit import TimeGrid
from .riccati import _value_pass, default_grid
from .solver import SolverSettings


def _first_blowup(game: ConfigGame, thetas, grid: TimeGrid):
    """The InfeasibleTheta of the first of ``thetas`` whose value-matrix pass
    on ``grid`` blows up, or None: the offsets and constants, linear passes
    driven by the value matrices, stay bounded with them and are not solved."""
    tabs = StageTables(game, thetas, grid)
    return next((InfeasibleTheta(tabs.thetas[b], time=exc.time, player=exc.player)
                 for b, exc in sorted(_value_pass(tabs)[1].items())), None)


def _check_box_corners(game: ConfigGame, what: str):
    """Raise ValueError naming the divergence time if the two-player game
    blows up at a corner of its parameter box on a 500-step grid."""
    corners = [(t1, t2) for t1 in game.theta_box[0] for t2 in game.theta_box[1]]
    blowup = _first_blowup(game, corners, default_grid(game, 500))
    if blowup is not None:
        t1, t2 = blowup.theta
        raise ValueError(f"{what} diverges near t={blowup.time:.4g} at "
                         f"theta=({t1:.4g}, {t2:.4g})")


# -- pursuit-evasion ----------------------------------------------------------


@dataclass(frozen=True)
class PursuitEvasionSpec:
    """Planar pursuit-evasion with orientation-tunable actuation.

    Each player is a double integrator in the plane; the parameter sets
    the axis along which acceleration is cheap (near 0: horizontal, near
    pi/2: vertical).  The pursuer pays the squared terminal separation
    scaled by kappa3 and its own control effort; the evader earns them.
    """

    kappa1: float = 1.0
    kappa2: float = 1.0
    kappa3: float = 5e-4
    horizon: float = 10.0
    x0: tuple = (0.0, 0.0, 0.0, 0.0, 5.0, 3.0, 0.0, 0.0)
    theta_min: float = 0.0
    theta_max: float = float(np.pi / 2)

    def __post_init__(self):
        _require_finite((f.name, getattr(self, f.name)) for f in fields(self))
        if min(self.kappa1, self.kappa2, self.kappa3) <= 0:
            raise ValueError("kappa gains must be positive")


def _pe_actuation(theta_i: float) -> np.ndarray:
    return np.diag([1.0 + np.cos(theta_i), 1.0 + np.sin(theta_i)])


def _pe_actuation_deriv(theta_i: float) -> np.ndarray:
    return np.diag([-np.sin(theta_i), np.cos(theta_i)])


def build_pursuit_evasion(spec: PursuitEvasionSpec = None) -> ConfigGame:
    """Zero-sum pursuit-evasion game on an 8-dimensional joint state.

    State blocks are (p1, v1, p2, v2); each player's actuation block sits
    at its own velocity rows.  The builder solves the value matrix at the
    four parameter-box corners (500 steps) and raises with the divergence
    time if any is unbounded on the chosen horizon.
    """
    spec = spec if spec is not None else PursuitEvasionSpec()
    n = 8
    A = np.zeros((n, n))
    A[0, 2] = A[1, 3] = A[4, 6] = A[5, 7] = 1.0  # each velocity drives its position

    def b_matrix(kappa, rows, owner):
        def fn(t, theta):
            B = np.zeros((n, 2))
            B[rows[0]:rows[1]] = kappa * _pe_actuation(theta[owner])
            return B

        def grad(t, theta, k):
            B = np.zeros((n, 2))
            B[rows[0]:rows[1]] = kappa * _pe_actuation_deriv(theta[owner])
            return B

        return MatrixFn((n, 2), fn, grad, depends_on=(owner,), time_varying=False)

    B1 = b_matrix(spec.kappa1, (2, 4), 0)
    B2 = b_matrix(spec.kappa2, (6, 8), 1)

    I2 = np.eye(2)
    Qf1 = np.zeros((n, n))
    Qf1[0:2, 0:2] = I2
    Qf1[4:6, 4:6] = I2
    Qf1[0:2, 4:6] = -I2
    Qf1[4:6, 0:2] = -I2
    Qf1 *= spec.kappa3

    zero_q = MatrixFn.constant(np.zeros((n, n)))
    game = ConfigGame(
        horizon=spec.horizon,
        A=MatrixFn.constant(A),
        B=(B1, B2),
        Q=(zero_q, zero_q),
        R=((MatrixFn.constant(I2), MatrixFn.constant(-I2)),
           (MatrixFn.constant(-I2), MatrixFn.constant(I2))),
        c=MatrixFn.constant(np.zeros(n)),
        Qf=(Qf1, -Qf1),
        theta_box=((spec.theta_min, spec.theta_max),
                   (spec.theta_min, spec.theta_max)),
        x0=np.array(spec.x0, dtype=float),
        zero_sum=True,
    )

    _check_box_corners(game, f"pursuit-evasion horizon {spec.horizon} is infeasible: "
                             "value matrix")
    return game


# -- general-sum lane game ----------------------------------------------------


def _sign_nonneg(x: float) -> float:
    return 1.0 if x >= 0 else -1.0


@dataclass(frozen=True)
class GeneralSumSpec:
    """Two agents on parallel lanes trading velocity tracking against
    separation, with a proximity penalty on the parameter choices.

    Each agent tracks a preferred forward speed (weight q_v) while a
    separation reward of weight q_h_scale holds until switch_time; the
    parameter scales the agent's actuation authority.  A Gaussian-bump regularizer
    penalizes choosing the same aggression as the opponent, which is what
    splits the landscape into two basins.
    """

    q_v: float = 25.0
    w_r: float = 0.02
    q_h_scale: float = 100.0
    switch_time: float = 3.0
    v_o1: float = 0.15
    v_o2: float = 0.15
    horizon: float = 0.45
    x0: tuple = (0.0, 0.0, 0.0, 0.0)
    theta_min: float = 0.2
    theta_max: float = 1.2

    def __post_init__(self):
        _require_finite((f.name, getattr(self, f.name)) for f in fields(self))
        if self.q_v < 0:
            raise ValueError("q_v must be nonnegative")
        if len(self.x0) != 4:
            raise ValueError("x0 must have 4 components (p1, v1, p2, v2)")

    def q_h_at(self, t: float) -> float:
        return self.q_h_scale * (0.5 * _sign_nonneg(self.switch_time - t) + 0.5)


def build_general_sum(spec: GeneralSumSpec = None) -> ConfigGame:
    """General-sum two-player game in shifted coordinates.

    The velocity-tracking offsets are absorbed by the change of variables
    x_shifted = x - f with f = (0, v_o1, 0, v_o2), which turns the
    tracking cost into a pure quadratic and introduces the constant drive
    term c = A f.  Both players share the state cost; the game is
    general-sum because each pays only its own control effort and the
    actuation authorities differ.  The builder solves the coupled system
    at the four parameter-box corners (500 steps) and raises with the
    divergence time if any is unbounded on the chosen horizon.
    """
    spec = spec if spec is not None else GeneralSumSpec()
    n = 4
    A = np.zeros((n, n))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    f = np.array([0.0, spec.v_o1, 0.0, spec.v_o2])
    c = A @ f

    def q_fn(t):
        qh = spec.q_h_at(t)
        return np.array([
            [-qh, 0.0, qh, 0.0],
            [0.0, spec.q_v, 0.0, 0.0],
            [qh, 0.0, -qh, 0.0],
            [0.0, 0.0, 0.0, spec.q_v],
        ])

    Q = MatrixFn.of_time((n, n), q_fn)

    w_r = spec.w_r

    def reg_value(theta):
        d = theta[0] - theta[1]
        return w_r * np.exp(-10.0 * d * d)

    def reg_grad(theta):
        d = theta[0] - theta[1]
        e = np.exp(-10.0 * d * d)
        g = -20.0 * w_r * d * e
        return np.array([g, -g])

    reg = Regularizer(value=reg_value, grad=reg_grad)

    one = MatrixFn.constant(np.eye(1))
    zero1 = MatrixFn.constant(np.zeros((1, 1)))
    game = ConfigGame(
        horizon=spec.horizon,
        A=MatrixFn.constant(A),
        B=tuple(MatrixFn.affine(np.zeros((n, 1)), {j: np.eye(n)[:, [row]]})
                for j, row in enumerate((1, 3))),
        Q=(Q, Q),
        R=((one, zero1), (zero1, one)),
        c=MatrixFn.constant(c),
        Qf=(np.zeros((n, n)), np.zeros((n, n))),
        theta_box=((spec.theta_min, spec.theta_max),
                   (spec.theta_min, spec.theta_max)),
        x0=np.array(spec.x0, dtype=float) - f,
        regularizers=(reg, reg),
        zero_sum=False,
    )

    _check_box_corners(game, f"general-sum horizon {spec.horizon} is infeasible: "
                             "coupled system")
    return game


# -- random games -------------------------------------------------------------


def random_aq_game(seed: int, num_players: int = 2, state_dim: int = 3,
                   control_dim: int = 1, *, affine: bool = True) -> ConfigGame:
    """Deterministic pseudo-random game for property tests.

    Drift is scaled to spectral radius at most one; actuation is affine in
    the owner's parameter; state costs are factored-PSD with
    parameter-scaled PSD bumps so they stay PSD over the box.  A draw whose
    coupled system diverges at a probe point on the default grid is redrawn
    (fresh substream per attempt); generation fails after 100 rejections.
    """
    if num_players not in (1, 2, 3):
        raise ValueError("num_players must be 1, 2, or 3")
    if not (1 <= state_dim <= 6):
        raise ValueError("state_dim must be between 1 and 6")
    if not (1 <= control_dim <= 2):
        raise ValueError("control_dim must be between 1 and 2")

    N, n, m = num_players, state_dim, control_dim
    box = (0.5, 1.5)
    horizon = 1.0

    for attempt in range(100):
        rng = np.random.default_rng([int(seed), attempt, N, n, m, int(affine)])
        G = rng.normal(size=(n, n)) / np.sqrt(n)
        rho = np.max(np.abs(np.linalg.eigvals(G)))
        A = G / max(1.0, rho)

        B0 = [rng.normal(size=(n, m)) * 0.7 for _ in range(N)]
        B1 = [rng.normal(size=(n, m)) * 0.5 for _ in range(N)]
        L = [rng.normal(size=(n, n)) * 0.6 for _ in range(N)]
        bumps = [[rng.normal(size=(n, n)) * 0.35 for _ in range(N)] for _ in range(N)]
        Qf_fac = [rng.normal(size=(n, n)) * 0.4 for _ in range(N)]
        c_vec = rng.normal(size=n) * 0.5 if affine else np.zeros(n)
        x0 = rng.normal(size=n) * 0.7

        eye_m = MatrixFn.constant(np.eye(m))
        zero_m = MatrixFn.constant(np.zeros((m, m)))
        game = ConfigGame(
            horizon=horizon,
            A=MatrixFn.constant(A),
            B=tuple(MatrixFn.affine(B0[i], {i: B1[i]}) for i in range(N)),
            Q=tuple(MatrixFn.affine(L[i] @ L[i].T, {k: bumps[i][k] @ bumps[i][k].T
                                                    for k in range(N)}) for i in range(N)),
            R=tuple(tuple(eye_m if i == j else zero_m for j in range(N))
                    for i in range(N)),
            c=MatrixFn.constant(c_vec),
            Qf=tuple(0.3 * (Qf_fac[i] @ Qf_fac[i].T) for i in range(N)),
            theta_box=(box,) * N,
            x0=x0,
            zero_sum=False,
        )

        probes = [np.full(N, 1.0), np.full(N, box[0]), np.full(N, box[1])]
        if _first_blowup(game, probes, default_grid(game)) is None:
            return game

    raise GenerationFailed(f"no stable random game found for seed {seed} "
                           "after 100 attempts")


# -- recommended solver settings ----------------------------------------------


def recommended_settings(scenario: str) -> SolverSettings:
    """Step sizes matched to each scenario's value scale.

    The generic SolverSettings default step is far too small for the
    pursuit-evasion landscape (values are of order 1e-2), so the built-in
    configurations carry their own tuned rates.
    """
    if scenario == "pursuit_evasion":
        return SolverSettings(alpha=150.0)
    if scenario == "general_sum":
        return SolverSettings(alpha=2.0)
    return SolverSettings(alpha=1.0)
