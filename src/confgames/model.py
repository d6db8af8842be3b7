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
        arr = _frozen(value)
        return cls(arr.shape, lambda t, theta: arr, depends_on=(), time_varying=False)

    @classmethod
    def affine(cls, base, slopes) -> "MatrixFn":
        """Time-constant ``base + sum_k theta[k] * slopes[k]``.

        ``slopes`` maps a player index k to a matrix of ``base``'s shape; the
        terms are added in the dict's order, and d/dtheta_k is ``slopes[k]``.
        """
        base = _frozen(base)
        slopes = {int(k): _frozen(s) for k, s in slopes.items()}
        if any(s.shape != base.shape for s in slopes.values()):
            raise ValueError(f"every slope must have the base's shape {base.shape}")

        def fn(t, theta):
            out = base.copy()
            for k, s in slopes.items():
                out += theta[k] * s
            return out

        return cls(base.shape, fn, lambda t, theta, k: slopes[k], depends_on=slopes,
                   time_varying=False)

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


def _frozen(value) -> np.ndarray:
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


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

    The number of players is ``len(B)``, the state dimension that of the
    square ``A``, and player j's control dimension the column count of
    ``B[j]``; every other input is checked against these.  Per-player
    scalar parameters live in the closed intervals of ``theta_box``.  All
    coefficient callables are immutable after construction.
    """

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
        shape = self.A.shape
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise ValueError(f"A must be a non-empty square matrix, got shape {shape}")
        n, N = self.state_dim, self.num_players
        if N < 1:
            raise ValueError("B must hold one actuation matrix per player, got none")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.zero_sum and N != 2:
            raise ValueError("zero-sum games must have exactly two players")
        entries = {"Q": self.Q, "Qf": self.Qf, "R": self.R, "theta_box": self.theta_box,
                   **{f"R[{i}]": row for i, row in enumerate(self.R)}}
        if self.regularizers is not None:
            entries["regularizers"] = self.regularizers
        for name, entry in entries.items():
            if len(entry) != N:
                raise ValueError(f"{name} must have one entry per player ({N}), "
                                 f"got {len(entry)}")
        for name, coef in (("A", self.A), ("c", self.c)):
            if coef.depends_on:
                raise ValueError(f"{name} must be parameter-independent")
        if self.c.shape != (n,):
            raise ValueError(f"c must be a length-{n} vector")
        for i, Bi in enumerate(self.B):
            if len(Bi.shape) != 2 or Bi.shape[0] != n or Bi.shape[1] < 1:
                raise ValueError(f"B[{i}] must have {n} rows and at least one column, "
                                 f"got shape {Bi.shape}")
            if not Bi.depends_on <= {i}:
                raise ValueError(f"B[{i}] may only depend on player {i}'s parameter")
            if self.Q[i].shape != (n, n):
                raise ValueError(f"Q[{i}] must be {n}x{n}")
            if np.shape(self.Qf[i]) != (n, n):
                raise ValueError(f"Qf[{i}] must be {n}x{n}")
        for (i, row), (j, Bj) in itertools.product(enumerate(self.R), enumerate(self.B)):
            mj = Bj.shape[1]
            if row[j].shape != (mj, mj):
                raise ValueError(f"R[{i}][{j}] must be {mj}x{mj}")
            if row[j].depends_on:
                raise ValueError(f"R[{i}][{j}] must be parameter-independent")

        _require_finite([("horizon", self.horizon), ("x0", self.x0), *zip(["Qf"] * N, self.Qf)])
        object.__setattr__(self, "Qf", tuple(_symmetrized(q, f"Qf[{i}]")
                                             for i, q in enumerate(self.Qf)))
        x0 = np.array(self.x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

        box = tuple((float(lo), float(hi)) for lo, hi in self.theta_box)
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ValueError(f"empty or invalid parameter interval [{lo}, {hi}]")
        object.__setattr__(self, "theta_box", box)
        corners = [np.array(corner) for corner in itertools.product(*box)]
        regs = [(i, reg) for i, reg in enumerate(self.regularizers or ()) if reg is not None]
        for (i, reg), theta in itertools.product(regs, [self.theta_mid, *corners]):
            value, grad = (np.asarray(f(theta), dtype=float) for f in (reg.value, reg.grad))
            if value.ndim or grad.size != N or not np.isfinite(np.append(grad, value)).all():
                raise ValueError(f"regularizers[{i}] must give a finite scalar value and {N} "
                                 f"finite gradient entries (fails at theta={theta.tolist()})")

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
        self._check_derivatives(coefs, ts, table)
        if self.zero_sum:
            self._check_zero_sum_negation(ts, table, corners)
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

    def _check_derivatives(self, coefs, ts, table):
        """Reject a derivative (``MatrixFn.d_theta`` at ``ts[::8]``, ``Regularizer.grad``)
        that a central difference of its function at theta_mid, stepping 1e-4 of
        the interval, contradicts by more than 1e-5 of the larger of the derivative
        and the function over the interval: every exact gradient rests on them.
        Regularizers are also checked off the diagonal, where a symmetric bump's gradient
        need not vanish: theta_k (k+1)/(N+2) into its interval, sized at both points."""
        mid = self.theta_mid

        def contradicts(exact, fn, k, value, at=mid):
            lo, hi = self.theta_box[k]
            e = np.eye(len(at))[k] * 1e-4 * (hi - lo)
            quotient = np.subtract(fn(at + e), fn(at - e)) / (2 * e[k])
            scale = max(np.abs(exact).max(), np.abs(value).max() / (hi - lo))
            return np.abs(exact - quotient).max() > 1e-5 * scale

        wide = {k for k, (lo, hi) in enumerate(self.theta_box) if hi > lo}
        for (name, coef), samples in zip(coefs.items(), table.values()):
            for k, s in itertools.product(sorted(coef.depends_on & wide), range(0, len(ts), 8)):
                t = ts[s]
                if contradicts(coef.d_theta(t, mid, k), lambda th: coef(t, th), k, samples[s]):
                    raise ValueError(f"{name}'s derivative in theta_{k} disagrees with a "
                                     f"central difference at t={t:.6g}")
        lo, hi = np.transpose(self.theta_box)
        skew = lo + (hi - lo) * np.arange(1, len(mid) + 1) / (len(mid) + 2)
        for (i, reg), at, k in itertools.product(enumerate(self.regularizers or ()),
                                                 (mid, skew), sorted(wide)):
            if reg is not None and contradicts(np.ravel(reg.grad(at))[k], reg.value, k,
                                               [reg.value(mid), reg.value(skew)], at):
                raise ValueError(f"regularizers[{i}]'s gradient entry {k} disagrees with a "
                                 f"central difference at theta={at.tolist()}")

    def _check_zero_sum_negation(self, ts, table, corners):
        """Reject zero-sum games the single-matrix solve would answer wrongly.

        That solve reads player 1's costs only and assumes no drive, so
        player 2's costs must be player 1's negated and c must vanish.  Q and
        c are checked at theta_mid and at the box ``corners``, R (which reads
        no theta) at theta_mid.
        """
        def negated(m1, m2):
            return np.abs(m1 + m2).max() <= SYMMETRY_TOL * (1.0 + np.abs(m1).max())

        if not negated(self.Qf[0], self.Qf[1]):
            raise ValueError("zero-sum game needs Qf[1] = -Qf[0]")
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
    def num_players(self) -> int:
        return len(self.B)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

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
