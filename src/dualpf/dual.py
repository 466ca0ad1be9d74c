"""Dual estimator: concurrent state and parameter particle filters.

Within each time step the state filter runs first against the parameter
estimate frozen at the previous step, then the parameter filter runs
against one state estimate, its anchor: the freshly produced one under the
"output" predictor.  The loop therefore realizes the decoupled
factorization where each marginal filter conditions on the other filter's
most recent output.

Under the "one_step" predictor the anchor is the state estimate of the
previous step, not this step's, so the two filters' transitions are
independent and one model call evaluates both: the state filter's N
particles at the previous parameter estimate and the parameter filter's
(2 n_theta + 1) K finite-difference rows at the previous state estimate,
where K is the number of distinct parameter particles (on the gas turbine
residual resampling collapses the ensemble to about one of N).  That makes
two implicit solves per engine dual step instead of three, with every
estimate bit-identical to running the filters one after the other.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import param_filter, state_filter
from .errors import ConfigError, DualPFError
from .model import ModelSpec
from .param_filter import ParamFilterConfig, ParamFilterState, init_param_filter
from .smc import as_rng, sample_gaussian
from .state_filter import StateFilterConfig, StateFilterState, init_state_filter


@dataclass
class DualEstimatorState:
    model: ModelSpec
    state: StateFilterState
    params: ParamFilterState
    param_config: ParamFilterConfig
    t: int = 0
    history: list = field(default_factory=list)   # theta_hat of each step
    rng: np.random.Generator = None

    @property
    def x_hat(self) -> np.ndarray:
        return self.state.estimate

    @property
    def theta_hat(self) -> np.ndarray:
        return self.params.estimate


def init(model: ModelSpec, x0_mean, x0_cov, theta0_mean, theta0_cov,
         state_cfg: StateFilterConfig, param_cfg: ParamFilterConfig,
         seed) -> DualEstimatorState:
    """Draw both initial ensembles from their Gaussian priors."""
    rng = as_rng(seed)
    sf = init_state_filter(x0_mean, x0_cov, state_cfg, rng)
    pf = init_param_filter(theta0_mean, theta0_cov, model.param_domain,
                           param_cfg, rng)
    return DualEstimatorState(model=model, state=sf, params=pf,
                              param_config=param_cfg, rng=rng)


def _shared_transition(est: DualEstimatorState, u
                       ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Both filters' transitions of one step in one `model.step_state` call:
    the predicted state particles at the previous parameter estimate
    (process noise drawn from est.rng where `state_filter.predict` draws
    it) and the parameter filter's `output_jacobian`, its rows pushed
    noise-free from the previous state estimate, once per distinct
    parameter particle."""
    model, particles = est.model, est.state.particles
    n = particles.shape[0]
    noise = sample_gaussian(model.process_noise_cov, n, est.rng)
    distinct, runs = param_filter.distinct_runs(est.params.particles)
    stacked = param_filter.perturbation_stack(distinct, model.param_domain)
    m = stacked.shape[0]
    rows = np.atleast_2d(model.step_state(
        np.concatenate([particles,
                        np.broadcast_to(est.state.estimate, (m, model.n_x))]),
        np.concatenate([np.broadcast_to(est.params.estimate,
                                        (n, model.n_theta)), stacked]),
        np.concatenate([noise, np.zeros((m, model.n_x))]), u=u))
    return rows[:n], param_filter.finite_difference(
        stacked, model.measure(rows[n:], stacked, u=u), runs)


def step(est: DualEstimatorState, y_t: np.ndarray, u=None) -> DualEstimatorState:
    """One joint cycle: state update at frozen theta, then parameter update.

    The parameter filter's anchor is picked once, so neither filter reads
    the other's same-step intermediate quantities out of order.  An error
    names its phase and the step; one raised by the model call the two
    filters share under "one_step" (`_shared_transition`) names both.
    """
    y_t = np.atleast_1d(np.asarray(y_t, dtype=float))
    if y_t.shape[0] != est.model.n_y:
        raise ConfigError("observation dimension mismatch")
    model, t, config = est.model, est.t + 1, est.param_config
    one_step = config.predictor == "one_step"
    x_prev = est.state.estimate
    phase = "state and parameter filters"
    try:
        predicted, jacobian = (_shared_transition(est, u) if one_step
                               else (None, None))
        phase = "state filter"
        est.state = state_filter.step(est.state, est.params.estimate, y_t,
                                      model, est.rng, u=u, predicted=predicted)
        phase = "parameter filter"
        anchor = x_prev if one_step else est.state.estimate
        est.params = param_filter.step(est.params, anchor, y_t, model, config,
                                       est.rng, u=u, jacobian=jacobian)
    except DualPFError as exc:
        raise type(exc)(f"{phase}, step {t}: {exc}") from exc
    est.t = t
    est.history.append(est.params.estimate.copy())
    return est


def run(est: DualEstimatorState, observations: np.ndarray,
        u_trajectory: np.ndarray | None = None) -> list[np.ndarray]:
    """Fold step over an observation sequence; returns the history."""
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    for t in range(observations.shape[0]):
        u = None if u_trajectory is None else u_trajectory[t]
        step(est, observations[t], u=u)
    return est.history


def history_arrays(history: list[np.ndarray]) -> dict[str, np.ndarray]:
    """The history's parameter estimates as one (T, n_theta) array."""
    if not history:
        return {"theta_hat": np.empty((0, 0))}
    return {"theta_hat": np.vstack(history)}
