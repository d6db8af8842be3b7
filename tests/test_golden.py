"""Golden values and value gradients, recorded before the stage-two and
sensitivity results moved to stacked node arrays.

One parameter point per solve route: pursuit-evasion (zero-sum
single-matrix pass), the general-sum lane game (coupled pass with drive
term) and a three-player random game.  The naive-pursuer baseline's
numbers were recorded before its first round was read from the search's
trace.
"""

import numpy as np
import pytest

from confgames import (TimeGrid, random_aq_game, solve_stage_two,
                       value_gradient)

GOLDEN = {
    "pe": ((0.4, 1.1),
           [0.0080495665075282, -0.0080495665075282],
           [[-0.0008456694208592841, -0.0004702190002147295],
            [0.0008456694208592841, 0.0004702190002147295]]),
    "gs": ((0.7, 0.9),
           [0.10755795073901088, 0.10954021578915761],
           [[-0.010170649895826452, -0.11094926743019423],
            [-0.029062324975346755, -0.10833220332328361]]),
    "rand": ((0.9, 1.1, 1.0),
             [2.8184254256391585, 2.9052560055675842, 1.6772598534458982],
             [[0.8074820283283862, -0.046749380952564396, 0.05953403457630331],
              [0.7351750399690979, 0.8054332552119113, 0.4113809488223978],
              [0.355098253079993, 0.21029201901764782, -0.0007371272206538864]]),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_values_and_gradient_match_golden(scenario, pe_game, gs_game):
    game = {"pe": pe_game, "gs": gs_game}.get(scenario) or random_aq_game(0, 3, 6, 2)
    theta, values, gradient = GOLDEN[scenario]
    theta = np.array(theta)
    grid = TimeGrid(game.horizon, 1000)
    sol = solve_stage_two(game, theta, grid)
    G = value_gradient(game, theta, grid=grid, stage2=sol)[0]
    assert sol.values[0] == pytest.approx(np.array(values), rel=1e-12, abs=0.0)
    assert G == pytest.approx(np.array(gradient), rel=1e-12, abs=0.0)


def test_naive_baseline_matches_golden(pe_baseline_200):
    # pursuit-evasion from (0.2, 1.2), alpha 150, 200 steps
    res = pe_baseline_200.result
    assert res.theta1_naive == pytest.approx(0.6429244524064126, rel=1e-12, abs=0.0)
    assert res.realized_value == pytest.approx(0.008935562032786616, rel=1e-12, abs=0.0)
    assert res.equilibrium_value == pytest.approx(0.00849999999999983, rel=1e-12, abs=0.0)
    assert len(res.naive_records) == 15
