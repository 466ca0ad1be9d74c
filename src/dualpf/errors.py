"""Exception types shared across the estimation library, and the one rule
for settings: every count goes through check_int and every real-valued
setting through check_real, which refuse a bool, a string, a NaN or an
infinity alike with a ConfigError naming the setting.  A range other than
"at least low" is one comparison at its site on check_real's result.
"""
import numbers
import sys


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


def check_int(name: str, val, low: int) -> None:
    """ConfigError naming the setting unless val is an integer that is not a
    bool (numpy integers included) and is >= low."""
    if (not isinstance(val, numbers.Integral) or isinstance(val, bool)
            or val < low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {val!r}")


def check_real(name: str, val) -> float:
    """val as a float if it is a finite real number that is not a bool
    (numpy floats included); ConfigError naming the setting otherwise."""
    if (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and -sys.float_info.max <= val <= sys.float_info.max):
        return float(val)
    raise ConfigError(f"{name} must be a finite number, got {val!r}")
