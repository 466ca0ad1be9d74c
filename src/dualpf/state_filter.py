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
    as_rng,
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
                      config: StateFilterConfig, seed) -> StateFilterState:
    """Draw the initial ensemble from N(mean, cov)."""
    rng = as_rng(seed)
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    particles = mean + sample_gaussian(cov, config.n_particles, rng)
    return StateFilterState(particles=particles,
                            estimate=particles.mean(axis=0))


def predict(particles: np.ndarray, theta_hat: np.ndarray, model: ModelSpec,
            seed, u=None, predicted: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the ensemble one step at the frozen parameter estimate
    (or at one parameter row per particle).

    `predicted`, when given, holds the particles already pushed through the
    transition with this step's process noise (see `dual.step`), and the
    noise draw and the transition are skipped.  Returns the predicted
    particles and their predicted outputs.
    """
    if predicted is None:
        noise = sample_gaussian(model.process_noise_cov, particles.shape[0],
                                as_rng(seed))
        predicted = model.step_state(particles, theta_hat, noise, u=u)
    predicted = np.atleast_2d(predicted)
    if not np.isfinite(predicted).all():
        bad = ~np.isfinite(predicted).all(axis=1)
        raise FilterDivergenceError(
            f"non-finite particle at index {np.flatnonzero(bad)[0]}")
    outputs = np.atleast_2d(model.measure(predicted, theta_hat, u=u))
    return predicted, outputs


def update(predicted: np.ndarray, outputs: np.ndarray, y: np.ndarray,
           model: ModelSpec, seed) -> StateFilterState:
    """The correction step: likelihood weights w_i proportional to
    N(y - yhat_i; 0, V) on the predicted particles, their kernel-regularized
    redraw, and the summary of the equally weighted result."""
    resid = np.asarray(y, dtype=float) - np.atleast_2d(outputs)
    ensemble = ParticleEnsemble(
        predicted, likelihood_weights(resid, model.measurement_noise_cov))
    result = regularize(ensemble, sample_cov(predicted),
                        DEFAULT_REGULARIZATION, as_rng(seed))
    posterior = result.particles
    return StateFilterState(
        particles=posterior,
        estimate=posterior.mean(axis=0),
        ess=ensemble.ess(),
        degenerate=ensemble.is_collapsed(),
        passthrough_dims=result.passthrough_dims,
    )


def step(state: StateFilterState, theta_hat: np.ndarray, y: np.ndarray,
         model: ModelSpec, seed, u=None,
         predicted: np.ndarray | None = None) -> StateFilterState:
    """Full predict / weight / regularized-resample cycle; `predicted` as
    in `predict`."""
    rng = as_rng(seed)
    return update(*predict(state.particles, theta_hat, model, rng, u=u,
                           predicted=predicted), y, model, rng)
