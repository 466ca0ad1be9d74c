"""Discrete-time nonlinear stochastic state-space model abstraction.

A model is a transition map, an output map, noise covariances and a
box-shaped admissible parameter domain; the parameter vector is passed to
both maps unchanged.

Model callables must be stateless and vectorized over a leading particle
axis: `transition(x, theta, w, u=None)` and `output(x, theta, u=None)` accept
`x` of shape `(n_x,)` or `(N, n_x)` (with `theta` broadcastable accordingly);
the keyword `u` carries the exogenous input of the step (None when the model
has none).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, SimulationDivergenceError, check_int,
                     check_real)
from .smc import as_rng, sample_gaussian

SYM_TOL = 1e-10

# Health-vector component order shared by the mixed benchmark and the engine.
COMPONENTS = ("eta_c", "m_c", "eta_t", "m_t")
FAULT_PROFILES = ("step", "ramp")
MAX_FAULT_MAGNITUDE = 0.5


@dataclass(frozen=True)
class Fault:
    """Fractional loss of effectiveness on one health component.

    Times are step indices.  A "step" fault applies the full loss from
    `start_step` on; a "ramp" fault grows linearly from zero at `start_step`
    to the full loss at `ramp_end_step`.  `component=None` is a healthy run.
    """

    component: int | None = None
    magnitude: float = 0.0
    start_step: int = 0
    profile: str = "step"
    ramp_end_step: int | None = None

    def __post_init__(self):
        for key in ("component", "start_step", "ramp_end_step"):
            val = getattr(self, key)
            if val is not None or key == "start_step":
                check_int(f"fault {key}", val, 0)
        magnitude = check_real("fault magnitude", self.magnitude)
        if not 0.0 <= magnitude <= MAX_FAULT_MAGNITUDE:
            raise ConfigError(
                f"fault magnitude must be in [0, {MAX_FAULT_MAGNITUDE}]")
        if self.profile not in FAULT_PROFILES:
            raise ConfigError(f"unknown fault profile {self.profile!r}")
        if self.profile == "ramp" and (self.ramp_end_step is None
                                       or self.ramp_end_step <= self.start_step):
            raise ConfigError("ramp faults need ramp_end_step > start_step")


def health_trajectory(nominal: np.ndarray, faults, T: int) -> np.ndarray:
    """(T, n_theta) true health: nominal scaled by (1 - loss) per step.

    Where several faults hit one component the largest loss applies.
    """
    nominal = np.atleast_1d(np.asarray(nominal, dtype=float))
    loss = np.zeros((T, nominal.shape[0]))
    steps = np.arange(T)
    for f in faults:
        if f.component is None:
            continue
        if f.component >= nominal.shape[0]:
            raise ConfigError(f"fault component {f.component} outside the "
                              f"model's {nominal.shape[0]} health parameters")
        if f.profile == "step":
            frac = (steps >= f.start_step).astype(float)
        else:
            frac = np.clip((steps - f.start_step)
                           / (f.ramp_end_step - f.start_step), 0.0, 1.0)
        loss[:, f.component] = np.maximum(loss[:, f.component],
                                          f.magnitude * frac)
    return nominal * (1.0 - loss)


@dataclass(frozen=True)
class ParamDomain:
    """Axis-aligned admissible box for the parameter vector."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ConfigError("domain bound shapes differ")
        if not np.all(self.lower < self.upper):
            raise ConfigError("domain requires lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, theta: np.ndarray) -> np.ndarray:
        """Whether each row of theta (..., n_theta) lies in the box; checked
        column by column, as numpy reduces a short last axis row by row."""
        theta = np.asarray(theta, dtype=float)
        col = theta[..., 0]
        inside = (col >= self.lower[0]) & (col <= self.upper[0])
        for k in range(1, self.dim):
            col = theta[..., k]
            inside &= col >= self.lower[k]
            inside &= col <= self.upper[k]
        return inside

    def clip(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, self.lower, self.upper)


@dataclass
class ModelSpec:
    """Nonlinear stochastic system with a boxed parameter vector."""

    n_x: int
    n_theta: int
    n_y: int
    transition: Callable  # (x, theta, w, u=None) -> next state
    output: Callable      # (x, theta, u=None) -> noise-free output
    process_noise_cov: np.ndarray
    measurement_noise_cov: np.ndarray
    param_domain: ParamDomain

    def __post_init__(self):
        self.process_noise_cov = np.atleast_2d(
            np.asarray(self.process_noise_cov, dtype=float))
        self.measurement_noise_cov = np.atleast_2d(
            np.asarray(self.measurement_noise_cov, dtype=float))
        for key in ("n_x", "n_theta", "n_y"):
            check_int(key, getattr(self, key), 1)
        L, V = self.process_noise_cov, self.measurement_noise_cov
        if L.shape != (self.n_x, self.n_x):
            raise ConfigError("process noise covariance has wrong shape")
        if V.shape != (self.n_y, self.n_y):
            raise ConfigError("measurement noise covariance has wrong shape")
        for name, m in (("L", L), ("V", V)):
            if not np.allclose(m, m.T, atol=SYM_TOL):
                raise ConfigError(f"{name} not symmetric")
        if np.any(np.linalg.eigvalsh(L) < -SYM_TOL):
            raise ConfigError("L must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(V) <= 0):
            raise ConfigError("V must be strictly positive definite")
        if self.param_domain.dim != self.n_theta:
            raise ConfigError("param_domain dimension mismatch")

    def check_observation(self, y) -> np.ndarray:
        """y as a vector of n_y floats; ConfigError naming both shapes, or
        the first channel y_1..y_n that holds an infinity."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.n_y,):
            raise ConfigError(f"observation shape {y.shape}, want ({self.n_y},)")
        if np.isinf(y).any():
            j = int(np.isinf(y).argmax())
            raise ConfigError(f"observation y_{j + 1} is {y[j]}: an infinite "
                              f"sample cannot be weighed")
        return y

    def check_inputs(self, u_trajectory, T: int) -> None:
        """ConfigError unless u_trajectory (None: no input) covers T steps."""
        if u_trajectory is not None and len(u_trajectory) < T:
            raise ConfigError(f"u_trajectory of {len(u_trajectory)} rows is "
                              f"shorter than the {T} steps")

    def step_state(self, x, theta, w, u=None) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.asarray(self.transition(x, theta, w, u=u), dtype=float)

    def measure(self, x, theta, u=None) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.asarray(self.output(x, theta, u=u), dtype=float)


def simulate(model: ModelSpec, x0: np.ndarray, theta_trajectory: np.ndarray,
             T: int, seed, u_trajectory: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Simulate T steps; returns (T+1 states, T noisy outputs).

    The output at step t (1-based) is measured at the post-transition state
    using the parameter that drove the transition, matching the predictor
    structure of the filters.
    """
    rng = as_rng(seed)
    theta_trajectory = np.atleast_2d(np.asarray(theta_trajectory, dtype=float))
    if theta_trajectory[:T].shape != (T, model.n_theta):
        raise ConfigError(f"theta_trajectory of shape {theta_trajectory.shape}"
                          f", need {T} or more rows of {model.n_theta}")
    model.check_inputs(u_trajectory, T)
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ConfigError("x0 must be finite")

    states = np.empty((T + 1, model.n_x))
    outputs = np.empty((T, model.n_y))
    states[0] = x0
    process_noise = sample_gaussian(model.process_noise_cov, max(T, 1), rng)
    meas_noise = sample_gaussian(model.measurement_noise_cov, max(T, 1), rng)
    for t in range(T):
        u = None if u_trajectory is None else u_trajectory[t]
        theta = theta_trajectory[t]
        x_next = model.step_state(states[t], theta, process_noise[t], u=u)
        if not np.all(np.isfinite(x_next)):
            raise SimulationDivergenceError(t + 1)
        states[t + 1] = x_next
        outputs[t] = model.measure(x_next, theta, u=u) + meas_noise[t]
    return states, outputs
