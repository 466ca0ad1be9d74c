"""Unit tests for the regularized state particle filter."""
import numpy as np
import pytest

from dualpf import param_filter, state_filter, synthetic
from dualpf.baselines import bayesian_ks_step, init_bayesian_ks
from dualpf.errors import ConfigError, FilterDivergenceError
from dualpf.gas_turbine import NOMINAL_STATE, engine_model, nominal_constants
from dualpf.model import ModelSpec, ParamDomain
from dualpf.smc import (
    DEFAULT_REGULARIZATION,
    ParticleEnsemble,
    as_rng,
    likelihood_weights,
    regularize,
    sample_cov,
)
from dualpf.state_filter import (
    StateFilterConfig,
    init_state_filter,
    predict,
    update,
)


def _linear_model(a, q, r):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n_x = a.shape[0]

    def transition(x, eff, w, u=None):
        return np.asarray(x, dtype=float) @ a.T + w

    def output(x, eff, u=None):
        return np.asarray(x, dtype=float)

    return ModelSpec(n_x=n_x, n_theta=1, n_y=n_x,
                     transition=transition, output=output,
                     process_noise_cov=q, measurement_noise_cov=r,
                     param_domain=ParamDomain([0.5], [1.5]))


THETA = np.ones(1)


def _diverging_model():
    def transition(x, eff, w, u=None):
        return np.asarray(x, dtype=float) * np.inf

    return ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                     output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                     process_noise_cov=[[0.0]],
                     measurement_noise_cov=[[1.0]],
                     param_domain=ParamDomain([0.5], [1.5]))


class TestInit:
    def test_zero_cov_collapses_to_mean(self):
        sf = init_state_filter(np.array([1.0, 2.0]), np.zeros((2, 2)),
                               StateFilterConfig(n_particles=7), as_rng(0))
        assert np.all(sf.particles == [1.0, 2.0])
        assert np.allclose(sf.estimate, [1.0, 2.0])

    @pytest.mark.parametrize("cov", [[[0.01]], 0.01 * np.eye(3),
                                     np.full(2, 0.01)],
                             ids=["1x1", "3x3", "vector"])
    def test_covariance_of_the_wrong_shape_rejected(self, cov):
        # A (1, 1) covariance would give both components one offset.
        with pytest.raises(ConfigError, match=r"shape \(.*\), want \(2, 2\)"):
            init_state_filter(np.array([1.0, 1.0]), cov, StateFilterConfig(5),
                              as_rng(0))

    def test_seed_determinism(self):
        a = init_state_filter(np.zeros(1), np.eye(1),
                              StateFilterConfig(n_particles=5), as_rng(3))
        b = init_state_filter(np.zeros(1), np.eye(1),
                              StateFilterConfig(n_particles=5), as_rng(3))
        assert np.array_equal(a.particles, b.particles)


class TestPredict:
    def test_identity_noise_free_preserves_particles(self):
        model = _linear_model(np.eye(1), np.zeros((1, 1)), np.eye(1))
        particles = np.array([[0.0], [2.0]])
        pred, outs = predict(particles, THETA, model, as_rng(0))
        assert np.array_equal(pred, particles)
        assert np.array_equal(outs, particles)

    def test_matches_kalman_prediction_moments(self):
        a = np.array([[0.9, 0.2], [0.0, 0.8]])
        q = 0.3 * np.eye(2)
        model = _linear_model(a, q, np.eye(2))
        rng = as_rng(1)
        n = 10_000
        m0 = np.array([1.0, -1.0])
        p0 = np.array([[0.5, 0.1], [0.1, 0.4]])
        particles = m0 + rng.multivariate_normal(np.zeros(2), p0, size=n)
        pred, _ = predict(particles, THETA, model, rng)
        cov = sample_cov(pred)
        m_expect = a @ m0
        p_expect = a @ p0 @ a.T + q
        tol = 3.0 * np.sqrt(np.diag(p_expect) / n)
        assert np.all(np.abs(pred.mean(axis=0) - m_expect) < tol)
        assert np.allclose(cov, p_expect, atol=0.05)

    # The predicted particles are checked for non-finite entries at the
    # start of `update`, so a step flags what its predict produced.
    def test_divergence_flags_particle(self):
        sf = init_state_filter(np.ones(1), np.zeros((1, 1)),
                               StateFilterConfig(n_particles=4), as_rng(0))
        with pytest.raises(FilterDivergenceError):
            state_filter.step(sf, THETA, np.ones(1), _diverging_model(),
                              as_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_divergence_message_names_the_first_bad_row(self, bad):
        model = _linear_model(np.eye(2), np.zeros((2, 2)), np.eye(2))
        predicted = np.ones((6, 2))
        predicted[3, 1] = bad
        predicted[5, 0] = np.nan
        with pytest.raises(FilterDivergenceError,
                           match=r"^non-finite particle at index 3$"):
            update(predicted, np.ones((6, 2)), np.ones(2), model, as_rng(0))

    @pytest.mark.parametrize("name", ["scalar", "mixed", "engine"])
    def test_extra_rows_change_nothing_but_the_call_count(self, name):
        if name == "scalar":
            model, x0, u = synthetic.scalar_growth_model(), np.array([5.0]), None
        elif name == "mixed":
            model, x0, u = (synthetic.mixed_fault_model(),
                            synthetic.mixed_equilibrium(), None)
        else:
            c = nominal_constants()[0]
            model, x0, u = engine_model(c), NOMINAL_STATE, c.mdot_f_ref
        rng = as_rng(5)
        particles = x0 * (1.0 + 1e-3 * rng.normal(size=(12, model.n_x)))
        theta_hat = np.full(model.n_theta, 0.98)
        thetas = 0.97 + 0.02 * rng.random((12, model.n_theta))
        ths, _ = param_filter.perturbation_stack(thetas, model.param_domain)
        x = particles.mean(axis=0)
        plain_rng, extra_rng = as_rng(8), as_rng(8)
        pred, outs = predict(particles, theta_hat, model, plain_rng, u=u)
        pred_x, outs_x, extra = predict(particles, theta_hat, model,
                                        extra_rng, u=u, extra=(x, ths))
        want = param_filter.predicted_outputs(ths, x, model, "one_step", u)
        assert extra.shape == want.shape
        assert extra.tobytes() == want.tobytes()
        assert pred_x.tobytes() == pred.tobytes()
        assert outs_x.tobytes() == outs.tobytes()
        assert extra_rng.random() == plain_rng.random()

    def test_bayesian_step_shares_the_divergence_check(self):
        model = _diverging_model()
        st = init_bayesian_ks(model, np.ones(1), np.eye(1), THETA,
                              0.01 * np.eye(1), 4, 0.93, 0)
        with pytest.raises(FilterDivergenceError):
            bayesian_ks_step(st, np.ones(1))


class TestUpdate:
    def test_equal_outputs_give_uniform_weights(self):
        model = _linear_model(np.eye(1), np.zeros((1, 1)), np.eye(1))
        sf = update(np.arange(6.0)[:, None], np.ones((6, 1)), np.array([0.3]),
                    model, as_rng(0))
        assert sf.ess == pytest.approx(6.0)
        assert not sf.degenerate

    def test_scalar_weight_ratio(self):
        # w0 / w1 = exp(1/2): residuals 0 and 1 under unit noise.
        model = _linear_model(np.eye(1), np.zeros((1, 1)), np.eye(1))
        sf = update(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]),
                    np.array([0.0]), model, as_rng(0))
        w0 = 1.0 / (1.0 + np.exp(-0.5))
        assert sf.ess == pytest.approx(1.0 / (w0 ** 2 + (1.0 - w0) ** 2))

    def test_dominant_likelihood(self):
        model = _linear_model(np.eye(1), np.zeros((1, 1)), 1e-6 * np.eye(1))
        sf = update(np.array([[0.0], [5.0]]), np.array([[0.0], [5.0]]),
                    np.array([0.0]), model, as_rng(0))
        assert sf.degenerate
        assert sf.ess == pytest.approx(1.0)

    def test_matches_weights_then_regularize(self):
        # The correction step is likelihood_weights, then regularize on the
        # predicted particles' covariance, from one seed.
        model = _linear_model(np.eye(2), np.zeros((2, 2)), 0.5 * np.eye(2))
        predicted = as_rng(4).normal(size=(40, 2))
        outputs = predicted + 0.1
        y = np.array([0.2, -0.3])
        sf = update(predicted, outputs, y, model, as_rng(9))
        ensemble = ParticleEnsemble(predicted, likelihood_weights(
            y - outputs, model.measurement_noise_cov))
        want = regularize(ensemble, sample_cov(predicted),
                          DEFAULT_REGULARIZATION, as_rng(9))
        assert sf.particles.tobytes() == want.particles.tobytes()
        assert sf.estimate.tobytes() == \
            want.particles.mean(axis=0).tobytes()
        assert sf.ess == ensemble.ess()
        assert sf.degenerate == ensemble.is_collapsed()
        assert sf.passthrough_dims == want.passthrough_dims


class TestStep:
    def test_noise_free_fixed_point_at_truth(self):
        model = _linear_model(np.eye(1), np.zeros((1, 1)), 0.01 * np.eye(1))
        sf = init_state_filter(np.array([2.0]), np.zeros((1, 1)),
                               StateFilterConfig(n_particles=20), as_rng(0))
        sf = state_filter.step(sf, THETA, np.array([2.0]), model, as_rng(0))
        assert np.allclose(sf.estimate, [2.0])
        assert 0 in sf.passthrough_dims

    def test_estimate_stays_in_particle_hull_nonlinear(self):
        # Bimodal growth benchmark dynamics.
        def transition(x, eff, w, u=None):
            x = np.asarray(x, dtype=float)
            return x / 2 + 25 * x / (1 + x ** 2) + w

        model = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                          output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                          process_noise_cov=[[1.0]],
                          measurement_noise_cov=[[1.0]],
                          param_domain=ParamDomain([0.5], [1.5]))
        rng = as_rng(2)
        from dualpf.model import simulate
        _, ys = simulate(model, np.array([0.1]), np.ones((30, 1)), 30, rng)
        sf = init_state_filter(np.array([0.0]), np.eye(1),
                               StateFilterConfig(n_particles=1000), rng)
        for t in range(30):
            sf = state_filter.step(sf, THETA, ys[t], model, rng)
            assert np.isfinite(sf.estimate).all()
            assert sf.particles.min() - 1e-9 <= sf.estimate[0] \
                <= sf.particles.max() + 1e-9

    def test_error_shrinks_with_particle_count(self):
        a = np.array([[0.95]])
        model = _linear_model(a, 0.2 * np.eye(1), 0.2 * np.eye(1))
        from dualpf.model import simulate

        def run(n, seed):
            rng = as_rng(seed)
            states, ys = simulate(model, np.zeros(1), np.ones((60, 1)), 60, rng)
            sf = init_state_filter(np.zeros(1), np.eye(1),
                                   StateFilterConfig(n_particles=n), rng)
            err = []
            for t in range(60):
                sf = state_filter.step(sf, THETA, ys[t], model, rng)
                err.append(sf.estimate[0] - states[t + 1, 0])
            return np.sqrt(np.mean(np.square(err)))

        small = np.median([run(25, s) for s in range(10)])
        large = np.median([run(1000, s) for s in range(10)])
        assert large < small
