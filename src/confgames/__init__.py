"""Solvers for two-stage configuration games over finite-horizon
affine-quadratic differential games.

The second stage (the differential game at fixed parameters) is solved
through coupled backward Riccati passes; exact parameter gradients of the
equilibrium values come from linear sensitivity systems; the first stage
(the parameter game) is searched by projected-gradient iterated best
response with first-order certification.
"""

from .errors import (BestResponseStalled, BlowUpDetected, ConfGamesError,
                     ConfigError, GenerationFailed, InfeasibleTheta,
                     NumericalFailure, PositiveDefinitenessViolation,
                     PreconditionViolation)
from ._stage import StageTables
from .model import ConfigGame, IndefiniteStateCostWarning, MatrixFn, Regularizer
from .odekit import TimeGrid, integrate_backward, integrate_forward, simpson_nodes
from .riccati import (StageTwoBatch, TrajectoryRollout, default_grid,
                      rollout, solve_coupled_riccati, solve_eta,
                      solve_stage_two, solve_zerosum_riccati, solve_zeta,
                      stage_one_costs)
from .scenarios import (GeneralSumSpec, PursuitEvasionSpec, build_general_sum,
                        build_pursuit_evasion, random_aq_game,
                        recommended_settings)
from .sensitivity import envelope_gradient, value_gradient
from .solver import (BaselineResult, CertVerdict, IbrTrace, SolverSettings,
                     certify_first_order, ibr_solve, naive_baseline, project)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult", "BestResponseStalled", "BlowUpDetected", "CertVerdict",
    "ConfGamesError", "ConfigError", "ConfigGame", "GeneralSumSpec",
    "GenerationFailed", "IbrTrace", "IndefiniteStateCostWarning",
    "InfeasibleTheta", "MatrixFn", "NumericalFailure",
    "PositiveDefinitenessViolation", "PreconditionViolation",
    "PursuitEvasionSpec", "Regularizer", "SolverSettings", "StageTables",
    "StageTwoBatch", "TimeGrid", "TrajectoryRollout",
    "build_general_sum", "build_pursuit_evasion", "certify_first_order",
    "default_grid", "envelope_gradient", "ibr_solve", "integrate_backward",
    "integrate_forward", "naive_baseline", "project", "random_aq_game",
    "recommended_settings", "rollout", "simpson_nodes", "solve_coupled_riccati",
    "solve_eta", "solve_stage_two", "solve_zerosum_riccati", "solve_zeta",
    "stage_one_costs", "value_gradient", "__version__",
]
