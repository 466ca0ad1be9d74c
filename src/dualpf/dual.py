"""Dual estimator: concurrent state and parameter particle filters.

Within each time step the state filter runs first against the parameter
estimate frozen at the previous step, then the parameter filter runs
against one state estimate, its anchor: the freshly produced one under the
"output" predictor.  The loop therefore realizes the decoupled
factorization where each marginal filter conditions on the other filter's
most recent output.

Under the "one_step" predictor the anchor is the previous state estimate,
so the two filters' predictions are independent: the parameter filter's
finite-difference rows ride in the state filter's `predict`, one
transition call and one output call for both, with every estimate
bit-identical to running the filters one after the other.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import param_filter, state_filter
from .errors import DualPFError
from .model import ModelSpec
from .param_filter import ParamFilterConfig, ParamFilterState, init_param_filter
from .smc import as_rng
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


def step(est: DualEstimatorState, y_t: np.ndarray, u=None) -> DualEstimatorState:
    """One joint cycle: state update at frozen theta, then parameter update.

    The parameter filter's anchor is picked once, so neither filter reads
    the other's same-step intermediate quantities out of order.  An error
    names its phase and the step; one raised by the `predict` call the two
    filters share under "one_step" names both.
    """
    y_t = est.model.check_observation(y_t)
    model, t, config = est.model, est.t + 1, est.param_config
    one_step = config.predictor == "one_step"
    x_prev = est.state.estimate
    phase, jacobian = "state and parameter filters", None
    try:
        if one_step:
            stacked, runs = param_filter.perturbation_stack(
                est.params.particles, model.param_domain)
            predicted, outputs, fd_y = state_filter.predict(
                est.state.particles, est.params.estimate, model, est.rng,
                u=u, extra=(x_prev, stacked))
            jacobian = param_filter.finite_difference(stacked, fd_y, runs)
            phase = "state filter"
            est.state = state_filter.update(predicted, outputs, y_t, model,
                                            est.rng)
        else:
            phase = "state filter"
            est.state = state_filter.step(est.state, est.params.estimate,
                                          y_t, model, est.rng, u=u)
        phase = "parameter filter"
        anchor = x_prev if one_step else est.state.estimate
        tilde = param_filter.evolve(est.params, anchor, y_t, model, config,
                                    est.rng, u=u, jacobian=jacobian)
        est.params = param_filter.update(tilde, anchor, y_t, model, config,
                                         est.rng, u=u)
    except DualPFError as exc:
        raise type(exc)(f"{phase}, step {t}: {exc}") from exc
    est.t = t
    est.history.append(est.params.estimate.copy())
    return est


def run(est: DualEstimatorState, observations: np.ndarray,
        u_trajectory: np.ndarray | None = None) -> list[np.ndarray]:
    """Fold step over an observation sequence; returns the history."""
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    est.model.check_inputs(u_trajectory, observations.shape[0])
    for t in range(observations.shape[0]):
        u = None if u_trajectory is None else u_trajectory[t]
        step(est, observations[t], u=u)
    return est.history


def history_arrays(history: list[np.ndarray]) -> dict[str, np.ndarray]:
    """The history's parameter estimates as one (T, n_theta) array."""
    if not history:
        return {"theta_hat": np.empty((0, 0))}
    return {"theta_hat": np.vstack(history)}
