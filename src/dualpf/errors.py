"""Exception types shared across the estimation library."""


class DualPFError(Exception):
    """Base class for all library errors."""


class ConfigError(DualPFError):
    """Invalid configuration or precondition violation."""


class CovarianceError(DualPFError):
    """Covariance matrix is not symmetric positive (semi)definite."""


class DegenerateWeightsError(DualPFError):
    """All particle likelihoods collapsed to zero; filter failure."""


class SimulationDivergenceError(DualPFError):
    """Simulated trajectory left the finite domain."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class FilterDivergenceError(DualPFError):
    """A particle became non-finite during filtering."""


class PhysicalDomainError(DualPFError):
    """Engine state left the physically valid region."""


class IntegrationError(DualPFError):
    """Implicit integration step failed to converge."""


class GradientUndefinedError(DualPFError):
    """SPSA likelihood-gradient estimate is undefined (zero likelihood sum)."""


class CalibrationError(DualPFError):
    """Not enough Monte-Carlo runs to calibrate thresholds."""


class BudgetError(DualPFError):
    """Particle-budget matching produced a nonpositive count."""


class UndefinedMetricError(DualPFError):
    """Metric undefined for the given inputs (e.g. zero nominal value)."""
