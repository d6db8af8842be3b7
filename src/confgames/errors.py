"""Exception types shared across the library."""

from __future__ import annotations


class ConfGamesError(Exception):
    """Base class for all library-specific errors."""


class PositiveDefinitenessViolation(ConfGamesError):
    """A matrix that must be positive definite failed its Cholesky check."""


class NumericalFailure(ConfGamesError):
    """NaN or Inf appeared during integration or quadrature."""


class BlowUpDetected(ConfGamesError):
    """A trajectory of an integrated system exceeded the blow-up threshold.

    For the backward Riccati passes this signals that no bounded stage-two
    solution exists on the requested horizon at the queried parameters.

    Attributes
    ----------
    time : float
        Integration time (in original game time) at which the threshold
        was crossed.
    norm : float
        Frobenius norm of the stacked state at detection; for a member of
        a batch, that member's state.
    player : int or None
        Index of the dominant diverging block, when attributable.
    state : ndarray or None
        Last computed stacked state, for diagnostics; for a member of a
        batch, a copy of that member's state.
    """

    def __init__(self, time, norm, player=None, state=None):
        self.time = float(time)
        self.norm = float(norm)
        self.player = player
        self.state = state
        who = f", dominant block: player {player}" if player is not None else ""
        super().__init__(
            f"state norm {norm:.3e} exceeded blow-up threshold near t={time:.6g}{who}"
        )


class InfeasibleTheta(ConfGamesError):
    """No bounded stage-two solution exists at the queried parameter vector."""

    def __init__(self, theta, time=None, player=None):
        self.theta = tuple(float(x) for x in theta)
        self.time = time
        self.player = player
        msg = f"stage-two solution unbounded at theta={self.theta}"
        if time is not None:
            msg += f" (diverges near t={time:.6g})"
        super().__init__(msg)


class BestResponseStalled(ConfGamesError):
    """Projected gradient descent could not find a feasible descent step."""

    def __init__(self, player, theta):
        self.player = int(player)
        self.theta = tuple(float(x) for x in theta)
        super().__init__(
            f"best response for player {self.player} stalled at theta={self.theta}"
        )


class GenerationFailed(ConfGamesError):
    """Random game generation exhausted its rejection budget."""


class PreconditionViolation(ConfGamesError):
    """An operation was invoked outside its documented domain."""


class ConfigError(ConfGamesError):
    """Invalid run configuration (bad key, bad value, or failed validation)."""
