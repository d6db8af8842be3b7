"""Parametrized affine-quadratic game descriptions.

A game couples linear dynamics with a drive term to per-player quadratic
costs, all of whose matrix coefficients may vary with time and with each
player's scalar configuration parameter.  This module holds the coefficient
abstraction and the game container with its construction-time validation;
the solvers sample the coefficients in ``_stage.StageTables``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PositiveDefinitenessViolation

SYMMETRY_TOL = 1e-12


class IndefiniteStateCostWarning(UserWarning):
    """State cost sampled indefinite; solvers rely on blow-up detection."""


class MatrixFn:
    """Matrix-valued coefficient on [0, T] x Theta with declared support.

    ``fn(t, theta)`` must return an array of the declared shape for every
    admissible input.  ``depends_on`` lists the player indices whose
    parameter the function actually uses; the derivative with respect to
    any other component is identically zero (and ``grad`` is never called
    for it).  ``time_varying=False`` lets solvers sample the function once
    per solve instead of once per stage time.
    """

    __slots__ = ("shape", "_fn", "_grad", "depends_on", "time_varying")

    def __init__(self, shape, fn, grad=None, depends_on=(), time_varying=True):
        self.shape = tuple(int(s) for s in shape)
        self._fn = fn
        self._grad = grad
        self.depends_on = frozenset(int(k) for k in depends_on)
        self.time_varying = bool(time_varying)
        if self.depends_on and grad is None:
            raise ValueError("parameter-dependent coefficient needs an analytic grad")

    def __call__(self, t, theta) -> np.ndarray:
        out = np.asarray(self._fn(t, theta), dtype=float)
        if out.shape != self.shape:
            raise ValueError(f"coefficient returned shape {out.shape}, declared {self.shape}")
        return out

    def d_theta(self, t, theta, k: int) -> np.ndarray:
        """Derivative with respect to player k's parameter (zero off-support)."""
        if k not in self.depends_on:
            return np.zeros(self.shape)
        out = np.asarray(self._grad(t, theta, k), dtype=float)
        if out.shape != self.shape:
            raise ValueError(f"gradient returned shape {out.shape}, declared {self.shape}")
        return out

    @classmethod
    def constant(cls, value) -> "MatrixFn":
        arr = np.array(value, dtype=float)
        arr.setflags(write=False)
        return cls(arr.shape, lambda t, theta: arr, depends_on=(), time_varying=False)

    @classmethod
    def of_time(cls, shape, fn) -> "MatrixFn":
        """Time-varying but parameter-independent coefficient."""
        return cls(shape, lambda t, theta: fn(t), depends_on=(), time_varying=True)


@dataclass(frozen=True)
class Regularizer:
    """Parameter-only additive cost term with an analytic gradient.

    ``value(theta)`` is added to the owning player's first-stage cost;
    ``grad(theta)`` must return the full length-N gradient vector.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


def _require_finite(named):
    """Raise ValueError naming the first of the (name, value) pairs holding a NaN or inf."""
    for name, value in named:
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is not finite")


def _symmetrized(mat, name, t=None):
    mat = np.asarray(mat, dtype=float)
    asym = np.abs(mat - mat.T).max() if mat.size else 0.0
    if asym > SYMMETRY_TOL * (1.0 + np.abs(mat).max()):
        at = "" if t is None else f" at t={t:.6g}"
        raise ValueError(f"{name} is asymmetric{at} (max deviation {asym:.3e})")
    out = 0.5 * (mat + mat.T)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ConfigGame:
    """Complete description of an N-player configuration game.

    Per-player scalar parameters live in the closed intervals of
    ``theta_box``.  All coefficient callables are immutable after
    construction; instances are safe to share across parallel workers.
    """

    num_players: int
    state_dim: int
    control_dims: tuple
    horizon: float
    A: MatrixFn
    B: tuple
    Q: tuple
    R: tuple
    c: MatrixFn
    Qf: tuple
    theta_box: tuple
    x0: np.ndarray
    regularizers: Optional[tuple] = None
    zero_sum: bool = False

    def __post_init__(self):
        n, N = self.state_dim, self.num_players
        if N < 1:
            raise ValueError("need at least one player")
        if n < 1:
            raise ValueError("state dimension must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if len(self.control_dims) != N or any(m < 1 for m in self.control_dims):
            raise ValueError("control_dims must list a positive dimension per player")
        if self.zero_sum and N != 2:
            raise ValueError("zero-sum games must have exactly two players")

        if self.A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}")
        if self.A.depends_on or self.c.depends_on:
            raise ValueError("A and c must be parameter-independent")
        if self.c.shape != (n,):
            raise ValueError(f"c must be a length-{n} vector")
        if len(self.B) != N or len(self.Q) != N or len(self.Qf) != N:
            raise ValueError("B, Q, Qf must have one entry per player")
        for i in range(N):
            if self.B[i].shape != (n, self.control_dims[i]):
                raise ValueError(f"B[{i}] has wrong shape")
            if not self.B[i].depends_on <= {i}:
                raise ValueError(f"B[{i}] may only depend on player {i}'s parameter")
            if self.Q[i].shape != (n, n):
                raise ValueError(f"Q[{i}] must be {n}x{n}")
        if len(self.R) != N or any(len(row) != N for row in self.R):
            raise ValueError("R must be an NxN table of coefficient functions")
        for i in range(N):
            for j in range(N):
                mj = self.control_dims[j]
                if self.R[i][j].shape != (mj, mj):
                    raise ValueError(f"R[{i}][{j}] must be {mj}x{mj}")
                if self.R[i][j].depends_on:
                    raise ValueError("R coefficients must be parameter-independent")

        _require_finite([("horizon", self.horizon), ("x0", self.x0), *zip(["Qf"] * N, self.Qf)])
        object.__setattr__(self, "Qf", tuple(_symmetrized(q, f"Qf[{i}]")
                                             for i, q in enumerate(self.Qf)))
        x0 = np.array(self.x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

        box = tuple((float(lo), float(hi)) for lo, hi in self.theta_box)
        if len(box) != N:
            raise ValueError("theta_box needs one interval per player")
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ValueError(f"empty or invalid parameter interval [{lo}, {hi}]")
        object.__setattr__(self, "theta_box", box)

        if self.regularizers is not None and len(self.regularizers) != N:
            raise ValueError("regularizers must have one (possibly None) entry per player")

        coefs = {"A": self.A, "c": self.c}
        for i in range(N):
            coefs.update({f"B[{i}]": self.B[i], f"Q[{i}]": self.Q[i]})
            coefs.update({f"R[{i}][{j}]": r for j, r in enumerate(self.R[i])})
        ts, mid = np.linspace(0.0, self.horizon, 33), self.theta_mid
        table = {name: np.array([coef(t, mid) for t in ts]) for name, coef in coefs.items()}
        for name, samples in table.items():
            if not np.isfinite(samples).all():
                _require_finite((f"{name} at t={t:.6g}", sample) for t, sample in zip(ts, samples))
        self._check_control_costs(ts, table)
        self._check_declarations(coefs, ts, table)
        if self.zero_sum:
            self._check_zero_sum_negation(ts, table)
        self._warn_if_state_cost_indefinite(ts, table)

    # -- construction-time spot checks on the table[name][s] = name(ts[s], theta_mid)

    def _check_control_costs(self, ts, table):
        """Reject an asymmetric control cost or an own one that is not positive
        definite; R reads no theta, so its samples at theta_mid cover the box."""
        for i, j in itertools.product(range(self.num_players), repeat=2):
            for t, Rij in zip(ts, table[f"R[{i}][{j}]"]):
                Rij = _symmetrized(Rij, f"R[{i}][{j}]", t)
                if i != j:
                    continue
                try:
                    np.linalg.cholesky(Rij)
                except np.linalg.LinAlgError as exc:
                    raise PositiveDefinitenessViolation(
                        f"R[{i}][{i}] not positive definite at t={t:.6g}") from exc

    def _check_declarations(self, coefs, ts, table):
        """Reject a coefficient that reads a time or parameter its declaration
        rules out: solvers sample a time-constant coefficient once and take
        no derivative outside ``depends_on``, so the answer would be wrong."""
        for (name, coef), samples in zip(coefs.items(), table.values()):
            changed = (samples != samples[0]).reshape(len(ts), -1).any(axis=1)
            if not coef.time_varying and changed.any():
                raise ValueError(f"{name} is declared time-constant but changes at "
                                 f"t={ts[changed.argmax()]:.6g}")
            for k in set(range(self.num_players)) - coef.depends_on:
                for s, end in itertools.product(range(0, len(ts), 8), self.theta_box[k]):
                    moved = self.theta_mid
                    moved[k] = end
                    if not np.array_equal(samples[s], coef(ts[s], moved)):
                        raise ValueError(f"{name} changes with theta_{k}, which its "
                                         f"depends_on leaves out (t={ts[s]:.6g})")

    def _check_zero_sum_negation(self, ts, table):
        """Reject zero-sum games the single-matrix solve would answer wrongly.

        That solve reads player 1's costs only, assumes identity own-control
        costs and no drive, so player 2's costs must be player 1's negated,
        R[0][0], R[1][1] must be the identity and c must vanish.  Q and c are
        checked at theta_mid and at the box corners, R (which reads no
        theta) at theta_mid.
        """
        def negated(m1, m2):
            return np.abs(m1 + m2).max() <= SYMMETRY_TOL * (1.0 + np.abs(m1).max())

        if not negated(self.Qf[0], self.Qf[1]):
            raise ValueError("zero-sum game needs Qf[1] = -Qf[0]")
        corners = [np.array(corner) for corner in itertools.product(*self.theta_box)]
        spots = itertools.chain(
            zip(ts, itertools.repeat(self.theta_mid), table["Q[0]"], table["Q[1]"], table["c"]),
            ((t, th, self.Q[0](t, th), self.Q[1](t, th), self.c(t, th))
             for t, th in itertools.product(ts[::8], corners)))
        for t, th, Q0, Q1, c in spots:
            if not negated(Q0, Q1) or np.any(c):
                raise ValueError(f"zero-sum game needs Q[1] = -Q[0] and c = 0 "
                                 f"(fails at t={t:.6g}, theta={th.tolist()})")
        for (s, t), j in itertools.product(enumerate(ts), range(2)):
            if not negated(table[f"R[0][{j}]"][s], table[f"R[1][{j}]"][s]):
                raise ValueError(
                    f"zero-sum game needs R[1][{j}] = -R[0][{j}] (fails at t={t:.6g})")
            if not np.allclose(table[f"R[{j}][{j}]"][s], np.eye(self.control_dims[j]), atol=1e-12):
                raise ValueError(f"zero-sum game needs R[{j}][{j}] = I (fails at t={t:.6g})")

    def _warn_if_state_cost_indefinite(self, ts, table):
        """Reject an asymmetric Q sample; warn once if a symmetrized one is
        indefinite at ``ts[::8]``, naming the caller of ``ConfigGame(...)``."""
        Qs = [[_symmetrized(q, f"Q[{i}]", t) for t, q in zip(ts, table[f"Q[{i}]"])]
              for i in range(self.num_players)]
        indefinite = [i for i, Qi in enumerate(Qs) if np.linalg.eigvalsh(Qi[::8]).min() < -1e-10]
        if indefinite:
            warnings.warn(f"state cost Q[{indefinite[0]}] sampled indefinite; proceeding and "
                          "relying on blow-up detection", IndefiniteStateCostWarning, stacklevel=4)

    # -- evaluation helpers ------------------------------------------------

    @property
    def theta_mid(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.theta_box])

    def contains_theta(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return len(theta) == self.num_players and all(
            lo <= th <= hi for th, (lo, hi) in zip(theta, self.theta_box)
        )

    def eval_Q(self, i: int, t, theta) -> np.ndarray:
        """Evaluate Q[i], asserting near-symmetry and symmetrizing the result."""
        return _symmetrized(self.Q[i](t, theta), f"Q[{i}]", t)

    def regularizer_values(self, theta) -> np.ndarray:
        out = np.zeros(self.num_players)
        if self.regularizers:
            theta = np.asarray(theta, dtype=float)
            for i, reg in enumerate(self.regularizers):
                if reg is not None:
                    out[i] = float(reg.value(theta))
        return out

    def regularizer_gradients(self, theta) -> np.ndarray:
        """Rows: players; columns: parameter components."""
        N = self.num_players
        out = np.zeros((N, N))
        if self.regularizers:
            theta = np.asarray(theta, dtype=float)
            for i, reg in enumerate(self.regularizers):
                if reg is not None:
                    out[i] = np.asarray(reg.grad(theta), dtype=float).reshape(N)
        return out
