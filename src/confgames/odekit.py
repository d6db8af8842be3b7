"""Deterministic fixed-step integration kit.

Everything downstream (Riccati passes, sensitivity passes, trajectory
rollouts, cost quadratures) lives on one shared uniform grid so that
products of separately solved paths stay consistent.  A path is a plain
ndarray of node samples, shape (steps+1, *state.shape), whose row j is
the value at ``TimeGrid.nodes[j]``.  The integrator is classical
4th-order Runge-Kutta, one loop that steps forward or backward in time.
Right-hand sides are called as rhs(s, y) with the stage index s into
``TimeGrid.stage_times`` (nodes at even s, step midpoints at odd s), so
tables sampled at the stage times are indexed directly, and a per-stage
product that a right-hand side reads is formed one block of stage rows at
a time (StageBlocks).  A backward integral of a known integrand, where RK4
reduces to Simpson's rule per step, is a vectorised running sum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpDetected, NumericalFailure

BLOWUP_THRESHOLD = 1e8

# stage rows per block of a per-stage product formed while its pass runs,
# and the elements a block may hold: a wide product (many members) is cut
# into shorter blocks, while a product of at most 1280 elements per row
# keeps BLOCK_ROWS rows, such as the couplings of a general-sum batch of
# up to 20 members or of one three-player member with n = 6 (324)
BLOCK_ROWS = 256
BLOCK_ELEMS = 256 * 20 * 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization of [0, horizon] with an even step count.

    Even steps are required so composite Simpson quadrature is defined on
    the node set shared with the integrator.
    """

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not isinstance(self.steps, numbers.Integral) or self.steps <= 0 or self.steps % 2:
            raise ValueError(f"steps must be a positive even integer, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        ts = np.linspace(0.0, self.horizon, self.steps + 1)
        ts.setflags(write=False)
        return ts

    @cached_property
    def stage_times(self) -> np.ndarray:
        """Node times interleaved with step midpoints (the RK4 stage abscissae)."""
        nodes = self.nodes
        st = np.empty(2 * self.steps + 1)
        st[0::2] = nodes
        st[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        st.setflags(write=False)
        return st


def stage_samples(node_samples: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Interleave node samples with interpolated step-midpoint values.

    Maps an array of shape (steps+1, ...), steps even, to (2*steps+1, ...),
    or to the stage ``rows`` (a unit-step slice) of that.  Used to feed
    stored paths back into RK4 right-hand sides as frozen coefficients;
    midpoints use 4-point interpolation (3-point at the two boundary steps)
    so the reconstruction error stays below the integrator's own order.  A
    row is formed by the same arithmetic whichever rows are asked for.
    """
    y = node_samples
    m = y.shape[0]
    lo, hi, _ = rows.indices(2 * m - 1)
    out = np.empty((hi - lo,) + y.shape[1:])
    out[lo % 2::2] = y[(lo + 1) // 2:(hi + 1) // 2]
    # midpoint j sits at stage 2j + 1; boundary steps j = 0 and m - 2
    j0, j1 = lo // 2, hi // 2
    mids = out[1 - lo % 2::2]
    if j0 == 0 < j1:
        mids[0] = (3.0 * y[0] + 6.0 * y[1] - y[2]) / 8.0
    if j0 <= m - 2 < j1:
        mids[-1] = (-y[-3] + 6.0 * y[-2] + 3.0 * y[-1]) / 8.0
    a, b = max(j0, 1), min(j1, m - 2)
    if a < b:
        # (-y[j-1] + 9 y[j] + 9 y[j+1] - y[j+2]) / 16, formed in place
        inner = np.negative(y[a - 1:b - 1], out=mids[a - j0:b - j0])
        nine = 9.0 * y[a:b]
        inner += nine
        inner += np.multiply(y[a + 1:b + 1], 9.0, out=nine)
        inner -= y[a + 2:b + 2]
        inner /= 16.0
    return out


def stage_blocks(stages: int, per_row: int) -> list:
    """The row slices that cut a stage axis of ``stages`` rows into blocks.

    A block holds BLOCK_ROWS rows, or fewer (at least 2) when a product of
    ``per_row`` elements per stage row would exceed BLOCK_ELEMS on them;
    a last row left over joins the block before it, so no block holds a
    single row: a product formed on a block then has the axis layout of
    the product formed on all rows, and the same bits.
    """
    rows = min(BLOCK_ROWS, max(2, BLOCK_ELEMS // max(1, per_row)))
    starts = list(range(0, stages, rows))
    if len(starts) > 1 and stages - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [stages])]


class StageBlocks:
    """Rows of a per-stage product, formed one block of stage rows at a time.

    ``build(rows)`` returns the product at the stage ``rows`` (a slice from
    stage_blocks), stage axis first, with ``per_row`` elements per row.
    Reading row s forms the block that holds it, unless that block is the
    one held, and drops the block held before: a pass that walks the stage
    axis one way forms each block once, and the product never exists at
    full length.
    """

    def __init__(self, build, stages: int, per_row: int):
        self._build = build
        self._blocks = stage_blocks(stages, per_row)
        self._index = [k for k, rows in enumerate(self._blocks)
                       for _ in range(rows.start, rows.stop)]
        self._held = None
        self._block = None
        self._start = 0

    def __getitem__(self, s):
        k = self._index[s]
        if k != self._held:
            self._block = None  # so that two blocks are never held at once
            rows = self._blocks[k]
            self._block = self._build(rows)
            self._held, self._start = k, rows.start
        return self._block[s - self._start]


def _norm(y) -> float:
    """Frobenius norm of ``y``: the arithmetic of np.linalg.norm's 1-D path."""
    flat = y.ravel()
    return math.sqrt(flat.dot(flat))


def _check_state(y, t, blowups):
    """The one blow-up check, at each node of an RK4 pass or running sum
    (``y`` is a node state the caller owns, reset in place).

    Without ``blowups`` the whole state is one system and a blow-up raises.
    With it, the leading axis indexes independent members: a member past
    the threshold is recorded in ``blowups`` under its index, with a copy
    of its state, and reset to zero, and a recorded member is reset again
    whenever it trips the check.  NaN/Inf raises NumericalFailure.  The
    whole stack's norm bounds every member's, so the member norms are
    formed only when it trips; the margin covers the rounding of the one
    against the other.
    """
    if _norm(y) <= BLOWUP_THRESHOLD * (1.0 - 1e-9):
        return
    found = {} if blowups is None else blowups
    members = y if blowups is not None else y[None]
    for b in range(len(members)):
        if b not in found:
            norm = _norm(members[b])
            if not math.isfinite(norm):
                raise NumericalFailure(f"non-finite state during integration near t={t:.6g}")
            if norm <= BLOWUP_THRESHOLD:
                continue
            found[b] = BlowUpDetected(time=t, norm=norm, state=members[b].copy())
        members[b] = 0.0
    if blowups is None and found:
        raise found[0]


def _rk4(rhs, y, grid: TimeGrid, h: float, project_state, blowups) -> np.ndarray:
    """Classical RK4 over every grid step with signed step h = +dt or -dt.

    The step from node j to node j + d (d = sign of h) evaluates
    rhs(s, y) at the stage indices s = 2j, 2j + d, 2j + d, 2j + 2d; the
    sums of a step are formed in place in arrays made here, never in what
    rhs returns.  Returns the node samples, shape (steps+1, *y.shape).
    """
    d = 1 if h > 0 else -1
    j = 0 if d > 0 else grid.steps
    # 0-d arrays: numpy scales by them faster than by Python floats, same bits
    h, half, sixth, two = (np.array(c) for c in (h, 0.5 * h, h / 6.0, 2.0))
    out = np.empty((grid.steps + 1,) + y.shape)
    out[j] = y
    for _ in range(grid.steps):
        s = 2 * j
        k1 = rhs(s, y)
        k2 = rhs(s + d, y + half * k1)
        k3 = rhs(s + d, y + half * k2)
        k4 = rhs(s + 2 * d, y + h * k3)
        acc = two * k2
        acc += k1
        acc += two * k3
        acc += k4
        acc *= sixth
        acc += y
        y = acc if project_state is None else project_state(acc)
        j += d
        _check_state(y, grid.nodes[j], blowups)
        out[j] = y
    return out


def integrate_backward(rhs, terminal_value, grid: TimeGrid, project_state=None,
                       blowups: dict = None) -> np.ndarray:
    """Integrate d(state)/dt = rhs(s, state) from t=horizon down to t=0.

    ``s`` is the stage index: the right-hand side is evaluated at time
    ``grid.stage_times[s]``.  The state may be any fixed-shape ndarray
    stack; coupled systems are advanced as one stacked state so every
    block shares the RK4 stages.  Returns the node samples, shape
    (steps+1, *state.shape), with the terminal condition stored
    bit-exactly at the last node.

    Raises BlowUpDetected when the state's Frobenius norm at a node exceeds
    BLOWUP_THRESHOLD (carrying the divergence time), and NumericalFailure
    on NaN/Inf.  Given a ``blowups`` dict, the leading axis of the state
    indexes independent members (the parameter points of a batch): a
    member that blows up is recorded there under its index instead, with
    its divergence time, norm and last state, and goes on from zero so
    that no overflow reaches the other members.
    """
    y = np.array(terminal_value, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NumericalFailure("terminal value is not finite")
    return _rk4(rhs, y, grid, -grid.dt, project_state, blowups)


def integrate_forward(rhs, initial_value, grid: TimeGrid) -> np.ndarray:
    """Mirror of integrate_backward with the initial condition at t=0."""
    y = np.array(initial_value, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NumericalFailure("initial value is not finite")
    return _rk4(rhs, y, grid, grid.dt, None, None)


def backward_running_sum(integrand: np.ndarray, grid: TimeGrid,
                         blowups: dict = None) -> np.ndarray:
    """Node samples of E(t) = int_t^T f, i.e. dE/dt = -f(t) with E(T) = 0.

    ``integrand`` holds f at every stage time, shape (2*steps+1, ...).  RK4
    on a state-free right-hand side is Simpson's rule per step, so each
    step's increment is formed exactly as integrate_backward forms it and
    the increments are accumulated from the zero terminal value: the
    result equals integrate_backward(lambda s, E: -f[s], 0, grid) bit for
    bit.  Its nodes are then checked from the last to the first, as
    integrate_backward meets them, by the same check, _check_state.  With
    ``blowups`` the axis after the stage axis indexes members, and each
    member's first blow-up in backward time is recorded there, as
    integrate_backward records it; a recorded member is zero from its
    divergence node down.
    """
    k = -np.asarray(integrand, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        inc = (-grid.dt / 6.0) * (k[2::2] + 2.0 * k[1::2] + 2.0 * k[1::2] + k[:-1:2])
        acc = np.cumsum(np.concatenate([np.zeros((1,) + k.shape[1:]), inc[::-1]]), axis=0)
    out = np.ascontiguousarray(acc[::-1])
    for j in range(grid.steps - 1, -1, -1):
        known = len(blowups or ())
        _check_state(out[j], grid.nodes[j], blowups)
        for b in list(blowups or ())[known:]:
            out[:j, b] = 0.0
    return out


def simpson_nodes(values: np.ndarray, grid: TimeGrid):
    """Composite Simpson rule over samples given at every grid node.

    Integrates along axis 0; trailing axes are carried through.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != grid.steps + 1:
        raise ValueError("one sample per grid node required")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure("non-finite integrand sample in quadrature")
    w = np.ones(grid.steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(w, values, axes=(0, 0)) * (grid.dt / 3.0)

