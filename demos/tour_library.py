"""A guided tour of the library on a hand-built two-player game.

Walks through the full pipeline on a small custom game: describing the
coefficients, solving the second stage, cross-checking values against a
trajectory rollout, differentiating the equilibrium values three ways
(sensitivity systems, finite differences, trajectory integral), and
running the first-stage search with certification.

Usage:  python demos/tour_library.py
"""

import numpy as np

import confgames as cg

# ---------------------------------------------------------------------------
# 1. Describe a game: two carts, each tracking the origin, each paying only
#    its own control effort.  Player parameters scale their actuation.
# ---------------------------------------------------------------------------

n = 2
A = np.array([[0.0, 1.0], [-0.5, -0.2]])


def make_actuation(direction, owner):
    return cg.MatrixFn.affine(np.zeros((n, 1)), {owner: np.reshape(direction, (n, 1))})


eye1 = cg.MatrixFn.constant(np.eye(1))
zero1 = cg.MatrixFn.constant(np.zeros((1, 1)))
game = cg.ConfigGame(
    horizon=2.0,
    A=cg.MatrixFn.constant(A),
    B=(make_actuation([0.0, 1.0], 0), make_actuation([0.3, 0.7], 1)),
    Q=(cg.MatrixFn.constant(np.diag([2.0, 0.5])),
       cg.MatrixFn.constant(np.diag([0.5, 1.0]))),
    R=((eye1, zero1), (zero1, eye1)),
    c=cg.MatrixFn.constant(np.zeros(n)),
    Qf=(0.5 * np.eye(n), 0.25 * np.eye(n)),
    theta_box=((0.4, 2.0), (0.4, 2.0)),
    x0=np.array([1.5, 0.0]),
)
theta = np.array([1.0, 1.3])
print("== a hand-built two-player game ==")
print(f"state dim {game.state_dim}, horizon {game.horizon}, "
      f"theta = ({theta[0]:g}, {theta[1]:g})")

# ---------------------------------------------------------------------------
# 2. Solve the second stage and sanity-check the values with a rollout.
# ---------------------------------------------------------------------------

sol = cg.solve_stage_two(game, theta)
traj = cg.rollout(game, theta, sol)
print("\n== stage two ==")
# both are batches of one member: member 0 is theta's
print(f"equilibrium values  {sol.values[0]}")
print(f"rollout costs       {traj.rollout_costs[0]}")
print(f"agreement           {np.abs(sol.values - traj.rollout_costs).max():.2e}")

# ---------------------------------------------------------------------------
# 3. Differentiate the values three ways.
# ---------------------------------------------------------------------------

grid = sol.tables.grid
G = cg.value_gradient(game, theta, stage2=sol)[0]
print("\n== value gradients dJ^i/dtheta_k ==")
print(G)

h = 1e-5
FD = np.zeros((2, 2))
for k in range(2):
    step = np.zeros(2)
    step[k] = h
    up = cg.solve_stage_two(game, theta + step, grid).values[0]
    dn = cg.solve_stage_two(game, theta - step, grid).values[0]
    FD[:, k] = (up - dn) / (2 * h)
print(f"against central differences: max rel err "
      f"{np.abs(G - FD).max() / np.abs(FD).max():.2e}")

env = cg.envelope_gradient(sol)[0]
for i in range(2):
    print(f"trajectory-integral form, player {i}: {env[i]:+.6e} "
          f"(path-derivative {G[i, i]:+.6e})")

d = G @ np.array([1.0, -1.0])
print(f"directional derivative along (1, -1): {d}")

# ---------------------------------------------------------------------------
# 4. First-stage search with certification.
# ---------------------------------------------------------------------------

settings = cg.SolverSettings(alpha=1.0, grid_steps=1000)
trace = cg.ibr_solve(game, theta, settings)
verdicts = cg.certify_first_order(game, np.array(trace.theta), settings)
print("\n== first-stage search ==")
print(f"converged {trace.converged} after {trace.sweeps} sweeps, "
      f"{len(trace.records)} inner iterates")
print(f"theta*    {tuple(round(float(t), 6) for t in trace.theta)}")
print(f"values    {trace.values}")
print(f"verdicts  {[v.value for v in verdicts]}")
