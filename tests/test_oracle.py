"""The dual's parameter estimate against an exact posterior on the scalar
model.

Given theta, the scalar model x' = theta x + 1 + w, y = x + v is linear
and Gaussian, so one Kalman filter per theta gives the exact likelihood
p(y_1:T | theta).  On a fine grid over the parameter box that is the exact
posterior p(theta | y_1:T) under the run's own prior (a marginalized
point-mass filter; Bucy & Senne 1971, Kitagawa 1987).
"""
import sys
from functools import lru_cache

import numpy as np
import pytest

from dualpf import harness, param_filter, synthetic
from dualpf.harness import RunConfig
from dualpf.model import Fault
from dualpf.param_filter import ParamFilterConfig

GRID_POINTS = 4001
SEEDS = range(10)
STEPS = 250
N_PARTICLES = 50
# Truth losses: 0 puts the truth at the prior mean 0.8, where a filter that
# never moves its parameters scores well; 0.1 from step 0 puts it at 0.72.
LOSSES = (0.0, 0.1)
# The dual's distance from the oracle mean in posterior sds over seeds 0-9
# (median, max), measured on this code: 6.00, 18.56 at loss 0 and 5.72,
# 15.04 at loss 0.1; over seeds 10-59 in groups of 10 the medians read
# 2.4-7.9 and 3.1-6.9, the maxima at most 17.4 and 17.0.  With the
# parameter filter's likelihood weights made uniform, loss 0.1 reads a
# median of 16.7 (11.4-16.7 over the groups), while loss 0 reads 7.5, as
# close to the prior as the dual.
MEDIAN_SD_BOUND = 9.0
MAX_SD_BOUND = 25.0


def grid_posterior(ys: np.ndarray, config: RunConfig, x0_mean: np.ndarray
                   ) -> tuple[float, float]:
    """Mean and sd of theta given ys on the scalar model: GRID_POINTS
    points over the parameter box, one Kalman filter each, and the prior
    of `harness.run_estimator` (theta ~ N(SCALAR_THETA, theta0_std^2),
    x0 ~ N(x0_mean, x0_std^2))."""
    model = synthetic.scalar_growth_model()
    domain = model.param_domain
    theta = np.linspace(domain.lower[0], domain.upper[0], GRID_POINTS)
    q = model.process_noise_cov[0, 0]
    r = model.measurement_noise_cov[0, 0]
    m = np.full(GRID_POINTS, float(x0_mean[0]))
    p = np.full(GRID_POINTS, config.x0_std ** 2)
    log_post = (-0.5 * ((theta - synthetic.SCALAR_THETA) / config.theta0_std)
                ** 2)
    for y in ys[:, 0]:
        m = theta * m + synthetic.SCALAR_DRIVE
        p = theta * theta * p + q
        s = p + r
        e = y - m
        log_post -= 0.5 * (np.log(s) + e * e / s)
        k = p / s
        m = m + k * e
        p = (1.0 - k) * p
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    mean = float(w @ theta)
    return mean, float(np.sqrt(w @ (theta - mean) ** 2))


@lru_cache(maxsize=len(LOSSES))
def _scalar_runs(loss: float) -> np.ndarray:
    """Rows of (true theta, dual theta_hat, oracle mean, oracle sd) at the
    last step of each seed's harness run (`simulate_truth`, then
    `run_estimator` as `run_scenario` calls it), the truth scaled by
    1 - loss from step 0."""
    out = []
    for seed in SEEDS:
        config = RunConfig(model="scalar", estimator="dual",
                           n_particles=N_PARTICLES, duration=STEPS, seed=seed,
                           scenario=Fault(0, loss, 0) if loss else "healthy")
        model, states, ys, thetas, u = harness.simulate_truth(config)
        run = harness.run_estimator(model, ys, config, config.seed,
                                    states[0], u_trajectory=u)
        mean, sd = grid_posterior(ys, config, states[0])
        out.append((thetas[-1, 0], run["theta_hat"][-1, 0], mean, sd))
    return np.array(out)


@pytest.mark.parametrize("loss", LOSSES)
def test_oracle_mean_is_near_the_truth(loss):
    truth, _, mean, sd = _scalar_runs(loss).T
    z = np.abs(mean - truth) / sd
    print(f"[oracle] loss {loss}: |mean - truth| in sds: median "
          f"{np.median(z):.2f}, max {z.max():.2f}; sd median "
          f"{np.median(sd):.4f}", file=sys.__stdout__, flush=True)
    # Measured: medians 0.51 and 0.42 sd, maxima 2.53 and 2.39 sd.
    assert np.median(z) < 1.0
    assert z.max() < 4.0


@pytest.mark.parametrize("loss", LOSSES)
def test_dual_distance_from_the_oracle(loss):
    truth, theta_hat, mean, sd = _scalar_runs(loss).T
    z = np.abs(theta_hat - mean) / sd
    print(f"[oracle] loss {loss}: dual distance from the oracle mean in "
          f"sds: median {np.median(z):.2f}, max {z.max():.2f}; median "
          f"|theta_hat - truth| {np.median(np.abs(theta_hat - truth)):.4f}",
          file=sys.__stdout__, flush=True)
    assert np.median(z) < MEDIAN_SD_BOUND
    assert z.max() < MAX_SD_BOUND


def test_prediction_error_step_is_inert_with_one_output():
    # updating_gain centres the error on its output mean; with one output
    # the centred error, and so the gain, is exactly 0, and evolve equals
    # the force_zero_error path bit for bit.
    model = synthetic.scalar_growth_model()
    eps = np.random.default_rng(0).standard_normal((50, 1))
    assert np.all(param_filter.updating_gain(eps) == 0.0)
    cfg = ParamFilterConfig(n_particles=50, predictor="one_step",
                            evolution_cov=0.05 ** 2 * np.eye(1))
    st = param_filter.init_param_filter(np.array([0.8]), cfg.evolution_cov,
                                        model.param_domain, cfg,
                                        np.random.default_rng(1))
    x, y = np.array([5.0]), np.array([5.3])
    with_step = param_filter.evolve(st, x, y, model, cfg,
                                    np.random.default_rng(2))
    without = param_filter.evolve(st, x, y, model, cfg,
                                  np.random.default_rng(2),
                                  force_zero_error=True)
    assert with_step.tobytes() == without.tobytes()
