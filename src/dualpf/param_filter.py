"""Prediction-error driven parameter particle filter.

Each particle takes a gradient-flavored step scaled by an adaptive gain
built from the output prediction error, is shrunk toward the ensemble
mean, perturbed with kernel-smoothing noise whose covariance
preserves the ensemble variance, projected into the admissible box, then
reweighted by the output likelihood and residual-resampled.  Outputs are
predicted from one anchor state x, which the caller picks: this step's
state estimate under the "output" predictor, the previous one under
"one_step".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DualPFError, check_int, check_real
from .model import ModelSpec, ParamDomain
from .smc import (
    ParticleEnsemble,
    _row_sum,
    check_cov_shape,
    likelihood_weights,
    resample_residual,
    sample_cov,
    sample_gaussian,
)

COV_FLOOR = 1e-12
PROJECTION_FACTOR = 0.5      # mu: a rejected step is scaled by mu^k
PROJECTION_MAX_SCALINGS = 64
FD_STEP = 1e-6               # relative finite-difference step of the Jacobian
PREDICTORS = ("output", "one_step")
COV_MODES = ("running", "initial")


def check_settings(shrinkage: float, step_size: float, predictor: str,
                   cov_mode: str) -> None:
    """Raise ConfigError for a parameter-filter setting outside its range."""
    if not 0.0 < check_real("shrinkage", shrinkage) <= 1.0:
        raise ConfigError("shrinkage must be in (0, 1]")
    if check_real("step_size", step_size) <= 0.0:
        raise ConfigError("step_size must be positive")
    if predictor not in PREDICTORS:
        raise ConfigError(f"unknown predictor {predictor!r}")
    if cov_mode not in COV_MODES:
        raise ConfigError(f"unknown cov_mode {cov_mode!r}")


@dataclass
class ParamFilterConfig:
    n_particles: int = 50
    shrinkage: float = 0.93                 # a in A = a I, 0 < a <= 1
    step_size: float = 0.9                  # gamma > 0
    evolution_cov: np.ndarray | None = None  # initial parameter covariance
    cov_mode: str = "initial"               # one of COV_MODES
    predictor: str = "output"               # one of PREDICTORS

    def __post_init__(self):
        check_int("n_particles", self.n_particles, 1)
        check_settings(self.shrinkage, self.step_size, self.predictor,
                       self.cov_mode)
        if self.evolution_cov is not None:
            self.evolution_cov = np.atleast_2d(
                np.asarray(self.evolution_cov, dtype=float))
        elif self.cov_mode == "initial":
            raise ConfigError('cov_mode "initial" needs an evolution_cov')


@dataclass
class ParamFilterState:
    particles: np.ndarray   # (N, n_theta), all inside the domain
    estimate: np.ndarray    # ensemble mean
    ess: float = np.nan


def init_param_filter(mean: np.ndarray, cov: np.ndarray, domain: ParamDomain,
                      config: ParamFilterConfig, rng) -> ParamFilterState:
    """The prior draw; ConfigError unless the evolution covariance, if set,
    is (domain.dim, domain.dim)."""
    if config.evolution_cov is not None:
        check_cov_shape("evolution_cov", config.evolution_cov, domain.dim)
    particles = draw_prior(mean, cov, config.n_particles, domain, rng)
    return ParamFilterState(particles=particles,
                            estimate=particles.mean(axis=0))


def predicted_outputs(thetas: np.ndarray, x: np.ndarray, model: ModelSpec,
                      predictor: str, u) -> np.ndarray:
    """Per-particle output prediction from the anchor state x.

    "output" evaluates the measurement map at x.  "one_step" first pushes x
    through the noise-free transition at each candidate parameter, so models
    whose measurement map does not carry the parameter still expose it.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    states = np.broadcast_to(x, (thetas.shape[0], model.n_x))
    if predictor == "one_step":
        states = np.atleast_2d(
            model.step_state(states, thetas, np.zeros(model.n_x), u=u))
    return np.atleast_2d(model.measure(states, thetas, u=u))


def updating_gain(eps: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the (N, n_y) prediction error, centered
    on its output mean: one gain per particle, which vanishes when every
    output component carries the same error (as in any scalar-output model).
    """
    centered = eps - (_row_sum(eps) / eps.shape[1])[:, None]
    return np.sqrt(_row_sum(centered * centered))


def distinct_runs(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each run of bitwise-equal consecutive rows, and the
    run lengths (all ones when no row repeats the one before it).

    Residual resampling keeps a particle's copies next to each other, so
    after a collapse the ensemble is a few runs.  Bits are compared, not
    values, so 0.0 and -0.0 stay apart.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    # Each row viewed as one opaque item, so one comparison of adjacent
    # rows compares them byte for byte.
    rows = np.ascontiguousarray(thetas).view(
        np.dtype((np.void, thetas.itemsize * thetas.shape[1])))[:, 0]
    starts = np.ones(rows.shape[0] + 1, dtype=bool)  # the last one ends a run
    starts[1:-1] = rows[1:] != rows[:-1]
    edges = np.flatnonzero(starts)
    return thetas[edges[:-1]], edges[1:] - edges[:-1]


def perturbation_stack(particles: np.ndarray, domain: ParamDomain
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The K `distinct_runs` rows of the particles and their 2 n_theta
    perturbed copies as one ((2 n_theta + 1) K, n_theta) stack, and the
    run lengths.

    Block 0 is the rows themselves, block 1 + k has column k moved up and
    block 1 + n_theta + k has it moved down, by FD_STEP relative, or not at
    all where that would leave the domain (a one-sided difference).
    """
    thetas, runs = distinct_runs(particles)
    n_th = thetas.shape[1]
    eta = FD_STEP * np.maximum(1.0, np.abs(thetas))
    up, dn = thetas + eta, thetas - eta
    stacked = np.empty((2 * n_th + 1, *thetas.shape))
    stacked[:] = thetas
    cols = np.arange(n_th)
    stacked[1 + cols, :, cols] = np.where(up <= domain.upper, up, thetas).T
    stacked[1 + n_th + cols, :, cols] = np.where(dn >= domain.lower, dn,
                                                 thetas).T
    return stacked.reshape(-1, n_th), runs


def finite_difference(stacked: np.ndarray, y: np.ndarray, runs: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Predicted outputs (N, n_y) and dyhat/dtheta (N, n_theta, n_y) from
    a `perturbation_stack` and its predicted outputs; row k of the stack's
    base block is repeated runs[k] times."""
    n_th = stacked.shape[1]
    blocks = stacked.reshape(2 * n_th + 1, -1, n_th)
    y = y.reshape(2 * n_th + 1, blocks.shape[1], -1)
    span = (np.diagonal(blocks[1:n_th + 1], axis1=0, axis2=2)
            - np.diagonal(blocks[n_th + 1:], axis1=0, axis2=2)).T[:, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        deriv = np.where(span > 0, (y[1:n_th + 1] - y[n_th + 1:]) / span, 0.0)
    deriv = deriv.transpose(1, 0, 2)
    return np.repeat(y[0], runs, axis=0), np.repeat(deriv, runs, axis=0)


def output_jacobian(x: np.ndarray, thetas: np.ndarray, model: ModelSpec,
                    predictor: str, u) -> tuple[np.ndarray, np.ndarray]:
    """Predicted outputs (N, n_y) and dyhat/dtheta (N, n_theta, n_y).

    Central finite differences with a one-sided fallback at the domain
    boundary, computed once per `distinct_runs` row: the K distinct rows'
    `perturbation_stack` is predicted in one call of (2 n_theta + 1) K rows
    and the result repeated back to N.
    """
    stacked, runs = perturbation_stack(thetas, model.param_domain)
    y = predicted_outputs(stacked, x, model, predictor, u)
    return finite_difference(stacked, y, runs)


def project_step(theta_prev: np.ndarray, raw_step: np.ndarray,
                 domain: ParamDomain) -> np.ndarray:
    """Scale each row's step by PROJECTION_FACTOR^k with the smallest
    k <= PROJECTION_MAX_SCALINGS that makes its endpoint admissible.

    theta_prev is clipped into the domain first (a shrinkage point can round
    one ulp past a bound), so the result is always admissible; a row with no
    admissible k keeps theta_prev.  Every k of every rejected row is tested
    in one box check.
    """
    base = domain.clip(np.atleast_2d(np.asarray(theta_prev, dtype=float)))
    base, step = np.broadcast_arrays(
        base, np.atleast_2d(np.asarray(raw_step, dtype=float)))
    step = step.copy()
    outside = ~domain.contains(base + step)
    if np.any(outside):
        rejected = step[outside]
        # A running product halves in sequence, so candidate k is bit-equal to
        # the step halved k times, even where the halvings reach subnormals.
        scaled = np.full((PROJECTION_MAX_SCALINGS + 1, *rejected.shape),
                         PROJECTION_FACTOR)
        scaled[0] = rejected
        scaled = np.multiply.accumulate(scaled)[1:]     # (k, rows, n_theta)
        ok = domain.contains(base[outside] + scaled)    # (k, rows)
        first = ok.argmax(axis=0)
        # Assign 0, not step * 0: an infinite step times 0 is NaN.
        step[outside] = np.where(ok.any(axis=0)[:, None],
                                 scaled[first, np.arange(first.size)], 0.0)
    return base + step


def draw_prior(mean: np.ndarray, cov: np.ndarray, n: int, domain: ParamDomain,
               rng) -> np.ndarray:
    """n parameter particles from N(mean, cov), each draw's offset from the
    mean projected into the domain; the mean itself must be admissible and
    cov square in its length."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    check_cov_shape("initial parameter covariance", cov, mean.shape[0])
    if not domain.contains(mean):
        raise ConfigError("initial parameter mean outside the domain")
    particles = mean + sample_gaussian(cov, n, rng)
    return project_step(mean, particles - mean, domain)


def kernel_shrink(centers: np.ndarray, target: np.ndarray, cov: np.ndarray,
                  a: float, domain: ParamDomain, rng) -> np.ndarray:
    """Kernel-smoothing evolution: shrink, jitter, project into the box.

    Each row moves to a * center + (1 - a) * target and takes a zero-mean
    Gaussian jitter with covariance (1 - a^2) (cov + COV_FLOOR I), so the
    ensemble variance is preserved; the jitter is scaled by PROJECTION_FACTOR
    until the particle is admissible.
    """
    noise_cov = (1.0 - a ** 2) * (cov + COV_FLOOR * np.eye(cov.shape[0]))
    zeta = sample_gaussian(noise_cov, centers.shape[0], rng)
    shrunk = a * centers + (1.0 - a) * target
    return project_step(shrunk, zeta, domain)


def evolve(state: ParamFilterState, x: np.ndarray, y: np.ndarray,
           model: ModelSpec, config: ParamFilterConfig, rng, u=None,
           force_zero_error: bool = False,
           jacobian: tuple[np.ndarray, np.ndarray] | None = None
           ) -> np.ndarray:
    """Intermediate particles: gradient step, shrinkage, evolution noise.

    `force_zero_error` bypasses the prediction-error term (used by the
    non-dispersion diagnostics).  `jacobian`, when given, is this step's
    `output_jacobian` of the particles, computed by the caller.
    """
    thetas = state.particles
    domain = model.param_domain

    if force_zero_error:
        m = thetas
    else:
        if jacobian is None:
            jacobian = output_jacobian(x, thetas, model, config.predictor, u)
        yhat, psi = jacobian
        eps = np.asarray(y, dtype=float) - yhat
        gain = updating_gain(eps)
        raw = config.step_size * gain[:, None] * np.einsum("njy,ny->nj", psi, eps)
        m = project_step(thetas, raw, domain)

    cov = (sample_cov(thetas) if config.cov_mode == "running"
           else config.evolution_cov)
    return kernel_shrink(m, thetas.mean(axis=0), cov, config.shrinkage,
                         domain, rng)


def update(theta_tilde: np.ndarray, x: np.ndarray, y: np.ndarray,
           model: ModelSpec, config: ParamFilterConfig, rng,
           u=None) -> ParamFilterState:
    """Likelihood reweighting and residual resampling of the intermediates."""
    yhat = predicted_outputs(theta_tilde, x, model, config.predictor, u)
    weights = likelihood_weights(np.asarray(y, dtype=float) - yhat,
                                 model.measurement_noise_cov)
    ensemble = ParticleEnsemble(theta_tilde, weights)
    idx = resample_residual(ensemble, rng)
    particles = theta_tilde[idx]
    if not np.all(model.param_domain.contains(particles)):
        raise DualPFError("parameter particle escaped the admissible domain")
    return ParamFilterState(
        particles=particles,
        estimate=particles.mean(axis=0),
        ess=ensemble.ess(),
    )

