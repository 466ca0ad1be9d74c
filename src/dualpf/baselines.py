"""Comparison estimators and the equivalent-flop complexity accountant.

Two baselines step as the dual estimator does, `step(state, y_t, u=None)`,
from a state holding the model, one setting and the run's Generator: an
augmented-state particle filter whose parameters evolve by pure
kernel-smoothing shrinkage (no prediction-error term), and a recursive
maximum-likelihood scheme that follows a simultaneous-perturbation
estimate of the log-likelihood gradient with a plain state particle
filter underneath.  A step returns a new state and leaves its input as it
was.  The flop accountant prices all three so budgets can be matched.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import state_filter
from .errors import (BudgetError, ConfigError, GradientUndefinedError,
                     check_int, check_real)
from .model import ModelSpec
from .param_filter import draw_prior, kernel_shrink, project_step
from .smc import as_rng, gaussian_loglik, sample_cov, sample_gaussian
from .state_filter import StateFilterConfig, StateFilterState, init_state_filter

SPSA_PERTURBATION = 0.01   # SPSA scale c_t


# ---------------------------------------------------------------------------
# Augmented-state Bayesian kernel-smoothing filter
# ---------------------------------------------------------------------------

@dataclass
class BayesianKSState:
    model: ModelSpec
    shrinkage: float
    rng: np.random.Generator
    particles: np.ndarray   # (N, n_x + n_theta)
    x_hat: np.ndarray
    theta_hat: np.ndarray
    ess: float = np.nan


def init_bayesian_ks(model: ModelSpec, x0_mean, x0_cov, theta0_mean,
                     theta0_cov, n: int, shrinkage: float,
                     seed) -> BayesianKSState:
    rng = as_rng(seed)
    sf = init_state_filter(x0_mean, x0_cov, StateFilterConfig(n), rng)
    ths = draw_prior(theta0_mean, theta0_cov, n, model.param_domain, rng)
    return BayesianKSState(model, shrinkage, rng,
                           np.hstack([sf.particles, ths]), sf.estimate,
                           ths.mean(axis=0))


def bayesian_ks_step(state: BayesianKSState, y_t: np.ndarray,
                     u=None) -> BayesianKSState:
    """Joint propagate / reweight / regularize of the augmented vector."""
    model, rng, n_x = state.model, state.rng, state.model.n_x
    y_t = model.check_observation(y_t)
    xs, ths = state.particles[:, :n_x], state.particles[:, n_x:]

    # Parameter evolution: shrink toward the ensemble mean, inflate back.
    ths_new = kernel_shrink(ths, ths.mean(axis=0), sample_cov(ths),
                            state.shrinkage, model.param_domain, rng)

    # State propagation at the evolved parameters, then the state filter's
    # correction step on the augmented rows.
    xs_new, yhat = state_filter.predict(xs, ths_new, model, rng, u=u)
    posterior = state_filter.update(np.hstack([xs_new, ths_new]), yhat, y_t,
                                    model, rng)
    post = posterior.particles
    # Regularization jitter can push parameters past the box edge; clip.
    post[:, n_x:] = model.param_domain.clip(post[:, n_x:])
    return replace(state, particles=post, x_hat=post[:, :n_x].mean(axis=0),
                   theta_hat=post[:, n_x:].mean(axis=0), ess=posterior.ess)


# ---------------------------------------------------------------------------
# RML with simultaneous-perturbation gradient estimates
# ---------------------------------------------------------------------------

@dataclass
class RMLState:
    model: ModelSpec
    step_size: float
    rng: np.random.Generator
    filter: StateFilterState
    theta_hat: np.ndarray
    skipped_steps: int = 0

    @property
    def x_hat(self) -> np.ndarray:
        return self.filter.estimate


def init_rml(model: ModelSpec, x0_mean, x0_cov, theta0_mean, n: int,
             step_size: float, seed) -> RMLState:
    rng = as_rng(seed)
    theta0_mean = np.atleast_1d(np.asarray(theta0_mean, dtype=float))
    if not model.param_domain.contains(theta0_mean):
        raise ConfigError("initial parameter outside the domain")
    return RMLState(model, step_size, rng, init_state_filter(
        x0_mean, x0_cov, StateFilterConfig(n), rng), theta0_mean)


def spsa_gradient(particles: np.ndarray, theta_hat: np.ndarray,
                  y_t: np.ndarray, model: ModelSpec, rng, u=None) -> np.ndarray:
    """Two-sided SPSA estimate of the incremental log-likelihood gradient.

    Both perturbed branches reuse the same process-noise draws so the
    difference isolates the parameter perturbation.
    """
    n_th = theta_hat.shape[0]
    delta = rng.choice([-1.0, 1.0], size=n_th)
    c_t = SPSA_PERTURBATION
    th_plus = model.param_domain.clip(theta_hat + c_t * delta)
    th_minus = model.param_domain.clip(theta_hat - c_t * delta)

    n = particles.shape[0]
    noise = sample_gaussian(model.process_noise_cov, n, rng)
    y_t = np.asarray(y_t, dtype=float)
    j_branch = []
    for th in (th_plus, th_minus):
        pred = np.atleast_2d(model.step_state(particles, th, noise, u=u))
        yhat = np.atleast_2d(model.measure(pred, th, u=u))
        ll = gaussian_loglik(y_t - yhat, model.measurement_noise_cov)
        top = np.max(ll)    # log-mean-exp, shifted by the maximum
        j_branch.append(top + np.log(np.mean(np.exp(ll - top)))
                        if np.isfinite(top) else top)
    if not all(np.isfinite(j_branch)):
        raise GradientUndefinedError("zero likelihood sum in an SPSA branch")
    span = th_plus - th_minus
    with np.errstate(divide="ignore"):
        grad = np.where(span != 0.0, (j_branch[0] - j_branch[1]) / span, 0.0)
    return grad


def rml_spsa_step(state: RMLState, y_t: np.ndarray, u=None) -> RMLState:
    """Parameter gradient step followed by one state-filter cycle.

    An undefined gradient (likelihood underflow in a branch) freezes the
    parameter for this step and is tallied in `skipped_steps`.
    """
    model, rng = state.model, state.rng
    y_t = model.check_observation(y_t)
    try:
        grad = spsa_gradient(state.filter.particles, state.theta_hat, y_t,
                             model, rng, u=u)
        theta_new = project_step(state.theta_hat[None],
                                 (state.step_size * grad)[None],
                                 model.param_domain)[0]
        skipped = state.skipped_steps
    except GradientUndefinedError:
        theta_new, skipped = state.theta_hat, state.skipped_steps + 1
    sf = state_filter.step(state.filter, theta_new, y_t, model, rng, u=u)
    return replace(state, filter=sf, theta_hat=np.atleast_1d(theta_new),
                   skipped_steps=skipped)


# ---------------------------------------------------------------------------
# Equivalent-flop complexity accounting
# ---------------------------------------------------------------------------

@dataclass
class EFCostModel:
    n_x: int
    n_theta: int
    n_y: int
    c1: float   # random-number-generation unit cost
    c2: float   # resampling unit cost
    c3: float   # regularization unit cost
    N: int = 1

    def __post_init__(self):
        for key, low in (("n_x", 1), ("n_theta", 1), ("n_y", 1), ("N", 0)):
            check_int(key, getattr(self, key), low)
        for key in ("c1", "c2", "c3"):
            if check_real(key, getattr(self, key)) <= 0.0:
                raise ConfigError(f"{key} must be positive")


def _dual_per_particle(d: EFCostModel) -> float:
    nx, nt, ny = d.n_x, d.n_theta, d.n_y
    return (3 * nx ** 2 + 5 * nt ** 2 + 6 * nt + 2 * nt * ny + 7 * ny + 3 * nx
            + d.c1 * (nx + nt) + d.c2 * (nx + nt) + d.c3 * nx)


def _bayesian_per_particle(d: EFCostModel) -> float:
    nx, nt, ny = d.n_x, d.n_theta, d.n_y
    unit = 1 + d.c1 + d.c2 + d.c3
    return (3 * nx ** 2 + 3 * nt ** 2 + 6 * nx * nt
            + unit * nx + unit * nt + ny)


def _rml_per_particle(d: EFCostModel) -> float:
    nx, nt = d.n_x, d.n_theta
    return (2 * nx ** 2 + 4 * nt + 2 * nx
            + d.c1 * (2 * nx + nt) + d.c2 * nx + d.c3 * nx)


_PER_PARTICLE = {
    "dual": _dual_per_particle,
    "bayesian": _bayesian_per_particle,
    "rml": _rml_per_particle,
}


def ef_complexity(method: str, cost: EFCostModel) -> float:
    """Equivalent-flop count per filter cycle for one of the three methods."""
    if method not in _PER_PARTICLE:
        raise ConfigError(f"unknown method {method!r}")
    return cost.N * _PER_PARTICLE[method](cost)


def match_particle_budget(reference: str, cost: EFCostModel,
                          n_reference: int) -> int:
    """Dual-method particle count from the closed-form correction factors
    against the Bayesian (reference="bayesian", N_B) or RML (N_M) cost.
    They are not n_ref * ef_complexity(ref) / ef_complexity("dual"): the
    Bayesian numerator has 2 n_theta where the polynomials give 2 n_x, and
    the RML one lacks -c1 n_x (mixed, N_M = 150: 60 particles, not 68.9).
    """
    nx, nt, ny = cost.n_x, cost.n_theta, cost.n_y
    cd = _dual_per_particle(cost)
    if reference == "bayesian":
        numer = (2 * nt ** 2 + 5 * nt + 2 * nt * ny + 6 * ny + 2 * nt
                 - 6 * nx * nt - cost.c3 * nt)
    elif reference == "rml":
        numer = (nx ** 2 + 5 * nt ** 2 + 2 * nt + nx + 2 * nt * ny + 7 * ny
                 + cost.c2 * nt)
    else:
        raise ConfigError(f"unknown reference {reference!r}")
    n = n_reference * (1.0 - numer / cd)
    if n <= 0:
        raise BudgetError(f"matched budget nonpositive ({n:.2f})")
    return max(1, int(round(n)))


def complexity_report(cost: EFCostModel, n_dual: int, n_bayesian: int,
                      n_rml: int) -> dict:
    """Per-method flop totals and matched budgets as a JSON-ready dict."""
    out = {"dims": {"n_x": cost.n_x, "n_theta": cost.n_theta, "n_y": cost.n_y},
           "unit_costs": {"c1": cost.c1, "c2": cost.c2, "c3": cost.c3},
           "flops": {}, "matched_dual_budget": {}}
    for method, n in (("dual", n_dual), ("bayesian", n_bayesian),
                      ("rml", n_rml)):
        check_int(f"n_{method}", n, 0)
        out["flops"][method] = ef_complexity(method, replace(cost, N=n))
    for ref, n in (("bayesian", n_bayesian), ("rml", n_rml)):
        try:
            out["matched_dual_budget"][ref] = match_particle_budget(ref, cost, n)
        except BudgetError as exc:
            out["matched_dual_budget"][ref] = str(exc)
    return out
