"""Unit tests for the concurrent state/parameter estimator."""
import numpy as np
import pytest

from dualpf import dual, param_filter, synthetic
from dualpf.dual import history_arrays
from dualpf.errors import (ConfigError, DegenerateWeightsError,
                           FilterDivergenceError)
from dualpf.model import ModelSpec, ParamDomain, simulate
from dualpf.param_filter import ParamFilterConfig
from dualpf.smc import as_rng
from dualpf.state_filter import StateFilterConfig


def _estimator(model, x0, theta0, seed, x0_cov=None, theta0_cov=None,
               param_kwargs=None, n_particles=30):
    pk = dict(n_particles=n_particles, evolution_cov=None)
    pk.update(param_kwargs or {})
    return dual.init(
        model, x0,
        x0_cov if x0_cov is not None else 0.01 * np.eye(model.n_x),
        theta0,
        theta0_cov if theta0_cov is not None else 0.01 * np.eye(model.n_theta),
        StateFilterConfig(n_particles=n_particles),
        ParamFilterConfig(**pk), seed)


class TestInit:
    def test_theta_outside_domain_rejected(self):
        model = synthetic.scalar_growth_model()
        with pytest.raises(ConfigError):
            _estimator(model, np.array([5.0]), np.array([2.0]), 0)

    def test_zero_covariance_collapses_both_ensembles(self):
        model = synthetic.scalar_growth_model()
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0,
                         x0_cov=np.zeros((1, 1)),
                         theta0_cov=np.zeros((1, 1)))
        assert np.all(est.state.particles == 5.0)
        assert np.all(est.params.particles == 0.8)

    def test_observation_dimension_checked(self):
        model = synthetic.mixed_fault_model()
        est = _estimator(model, synthetic.mixed_equilibrium(), np.ones(4), 0)
        with pytest.raises(ConfigError):
            dual.step(est, np.array([1.0]))


class TestStep:
    def test_noise_free_joint_fixed_point(self):
        # Identity dynamics, output theta * x, truth (x, theta) = (1, 1);
        # unit shrinkage kills the evolution noise so the joint estimate
        # stays put exactly.
        def transition(x, eff, w, u=None):
            return np.asarray(x, dtype=float) + w

        def output(x, eff, u=None):
            return np.asarray(x, dtype=float) * np.asarray(eff, dtype=float)

        model = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                          output=output, process_noise_cov=[[0.0]],
                          measurement_noise_cov=[[0.01]],
                          param_domain=ParamDomain([0.5], [1.5]))
        est = _estimator(model, np.array([1.0]), np.array([1.0]), 0,
                         x0_cov=np.zeros((1, 1)),
                         theta0_cov=np.zeros((1, 1)),
                         param_kwargs=dict(shrinkage=1.0,
                                           evolution_cov=np.zeros((1, 1))))
        for _ in range(5):
            dual.step(est, np.array([1.0]))
        assert np.allclose(est.x_hat, 1.0, atol=1e-9)
        assert np.allclose(est.theta_hat, 1.0, atol=1e-6)

    def test_state_filter_consumes_previous_parameter_estimate(self):
        seen = []
        base = synthetic.scalar_growth_model()

        def transition(x, eff, w, u=None):
            seen.append(np.asarray(eff, dtype=float).ravel()[0])
            return base.transition(x, eff, w, u=u)

        model = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                          output=base.output,
                          process_noise_cov=base.process_noise_cov,
                          measurement_noise_cov=base.measurement_noise_cov,
                          param_domain=base.param_domain)
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 4)
        theta_before = [est.theta_hat.copy()]
        ys = np.full((4, 1), 5.0)
        for t in range(4):
            seen.clear()
            dual.step(est, ys[t])
            theta_before.append(est.theta_hat.copy())
            # The state-filter prediction (the only transition call with
            # the "output" predictor) ran at the pre-step estimate.
            assert seen[0] == pytest.approx(theta_before[t][0])

    def test_determinism(self):
        model = synthetic.scalar_growth_model()
        ys = np.linspace(4.0, 6.0, 20)[:, None]
        hists = []
        for _ in range(2):
            est = _estimator(model, np.array([5.0]), np.array([0.8]), 11)
            hists.append(history_arrays(dual.run(est, ys)))
        assert np.array_equal(hists[0]["theta_hat"], hists[1]["theta_hat"])
        assert np.array_equal(hists[0]["x_hat"], hists[1]["x_hat"])

    def test_error_messages_name_the_failing_filter(self):
        model = synthetic.scalar_growth_model()
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0)
        with pytest.raises(ConfigError):
            dual.step(est, np.array([1.0, 2.0]))

    def test_divergence_message_names_filter_step_and_particle(self):
        model = synthetic.mixed_fault_model()
        est = _estimator(model, synthetic.mixed_equilibrium(), np.ones(4), 0)
        est.state.particles[3] = np.nan
        with pytest.raises(FilterDivergenceError) as info:
            dual.step(est, np.zeros(model.n_y))
        assert str(info.value) == \
            "state filter, step 1: non-finite particle at index 3"

    def test_parameter_filter_error_keeps_its_type_and_names_the_filter(
            self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateWeightsError("all particle likelihoods vanished")
        monkeypatch.setattr(param_filter, "step", degenerate)
        model = synthetic.mixed_fault_model()
        est = _estimator(model, synthetic.mixed_equilibrium(), np.ones(4), 0)
        with pytest.raises(DegenerateWeightsError) as info:
            dual.step(est, np.zeros(model.n_y))
        assert str(info.value).startswith("parameter filter, step 1:")
        assert est.t == 0


class TestRun:
    def test_empty_observations(self):
        model = synthetic.scalar_growth_model()
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0)
        assert dual.run(est, np.empty((0, 1))) == []
        assert history_arrays([])["t"].size == 0

    def test_history_length_and_steps(self):
        model = synthetic.scalar_growth_model()
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 1)
        history = dual.run(est, np.full((7, 1), 5.0))
        assert len(history) == 7
        assert [r.t for r in history] == list(range(1, 8))
        arr = history_arrays(history)
        assert arr["theta_hat"].shape == (7, 1)
        assert arr["x_hat"].shape == (7, 1)

    def test_scalar_parameter_convergence(self):
        model = synthetic.scalar_growth_model()
        errors = []
        for seed in range(10):
            rng = as_rng(seed)
            T = 400
            thetas = np.full((T, 1), 0.8)
            _, ys = simulate(model, np.array([5.0]), thetas, T, rng)
            est = _estimator(model, np.array([5.0]), np.array([0.8]), rng,
                             theta0_cov=1e-4 * np.eye(1),
                             param_kwargs=dict(predictor="one_step",
                                               cov_mode="initial",
                                               evolution_cov=1e-4 * np.eye(1)),
                             n_particles=50)
            dual.run(est, ys)
            errors.append(abs(est.theta_hat[0] - 0.8))
        assert np.median(errors) < 0.02
