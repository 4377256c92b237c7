"""Exception types shared across the package."""


class AaolqError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(AaolqError):
    """Input data violates a structural requirement (shape, sign, finiteness)."""


class ScenarioError(ValidationError):
    """Scenario document is malformed; the message carries the field path."""


class SingularMatrixError(ValidationError):
    """Matrix is numerically singular or too ill-conditioned to invert."""


class IncompleteSolutionError(AaolqError):
    """Operation needs a backward solve that ran to completion."""


class DivergenceError(AaolqError):
    """Closed-loop state escaped the divergence threshold during simulation."""

    def __init__(self, time: float, norm: float):
        super().__init__(
            f"state norm {norm:.3e} exceeded the divergence threshold at t={time:.6g}"
        )
        self.time = time
        self.norm = norm


class NotApplicableError(AaolqError):
    """Hypotheses of the requested certificate do not hold for this game."""
