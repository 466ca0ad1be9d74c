"""Regularized bootstrap particle filter for the state estimation side.

One step runs predict (propagate particles through the transition with
process noise at the frozen previous parameter estimate), then update: a
likelihood weighting against the new observation and a kernel-regularized
resampling that returns an equally weighted posterior ensemble.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterDivergenceError, check_int
from .model import ModelSpec
from .smc import (
    DEFAULT_REGULARIZATION,
    ParticleEnsemble,
    check_cov_shape,
    likelihood_weights,
    regularize,
    sample_cov,
    sample_gaussian,
)


@dataclass
class StateFilterConfig:
    n_particles: int = 50

    def __post_init__(self):
        check_int("n_particles", self.n_particles, 1)


@dataclass
class StateFilterState:
    particles: np.ndarray            # (N, n_x) equally weighted posterior
    estimate: np.ndarray             # posterior mean
    ess: float = np.nan              # ESS of the last weight update
    degenerate: bool = False         # max weight ~ 1 on the last update
    passthrough_dims: tuple = ()


def init_state_filter(mean: np.ndarray, cov: np.ndarray,
                      config: StateFilterConfig, rng) -> StateFilterState:
    """Draw the initial ensemble from N(mean, cov); ConfigError unless cov
    is square in the mean's length."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    check_cov_shape("initial state covariance", cov, mean.shape[0])
    particles = mean + sample_gaussian(cov, config.n_particles, rng)
    return StateFilterState(particles=particles,
                            estimate=particles.mean(axis=0))


def predict(particles: np.ndarray, theta_hat: np.ndarray, model: ModelSpec,
            rng, u=None, extra: tuple[np.ndarray, np.ndarray] | None = None
            ) -> tuple[np.ndarray, ...]:
    """Propagate the ensemble one step with process noise at the frozen
    parameter estimate (or at one parameter row per particle), and measure
    it.  Returns the predicted particles and their predicted outputs.

    `extra=(x_rows, theta_rows)` adds rows that ride noise-free in the same
    transition call and the same output call (the parameter filter's
    finite-difference rows under "one_step", see `dual.step`); their outputs
    come back as a third value.  No extra random number is drawn.
    """
    n = particles.shape[0]
    xs, thetas = particles, theta_hat
    noise = sample_gaussian(model.process_noise_cov, n, rng)
    if extra is not None:
        x_rows, theta_rows = extra
        m = theta_rows.shape[0]
        xs = np.concatenate([particles,
                             np.broadcast_to(x_rows, (m, model.n_x))])
        thetas = np.concatenate(
            [np.broadcast_to(theta_hat, (n, model.n_theta)), theta_rows])
        noise = np.concatenate([noise, np.zeros((m, model.n_x))])
    predicted = np.atleast_2d(model.step_state(xs, thetas, noise, u=u))
    outputs = np.atleast_2d(model.measure(predicted, thetas, u=u))
    if extra is None:
        return predicted, outputs
    return predicted[:n], outputs[:n], outputs[n:]


def update(predicted: np.ndarray, outputs: np.ndarray, y: np.ndarray,
           model: ModelSpec, rng) -> StateFilterState:
    """The correction step: likelihood weights w_i proportional to
    N(y - yhat_i; 0, V) on the predicted particles, their kernel-regularized
    redraw, and the summary of the equally weighted result.  A predicted
    particle with a non-finite entry raises FilterDivergenceError."""
    if not np.isfinite(predicted).all():
        bad = ~np.isfinite(predicted).all(axis=1)
        raise FilterDivergenceError(
            f"non-finite particle at index {np.flatnonzero(bad)[0]}")
    resid = np.asarray(y, dtype=float) - np.atleast_2d(outputs)
    ensemble = ParticleEnsemble(
        predicted, likelihood_weights(resid, model.measurement_noise_cov))
    result = regularize(ensemble, sample_cov(predicted),
                        DEFAULT_REGULARIZATION, rng)
    posterior = result.particles
    return StateFilterState(
        particles=posterior,
        estimate=posterior.mean(axis=0),
        ess=ensemble.ess(),
        degenerate=ensemble.is_collapsed(),
        passthrough_dims=result.passthrough_dims,
    )


def step(state: StateFilterState, theta_hat: np.ndarray, y: np.ndarray,
         model: ModelSpec, rng, u=None) -> StateFilterState:
    """Full predict / weight / regularized-resample cycle."""
    return update(*predict(state.particles, theta_hat, model, rng, u=u),
                  y, model, rng)
