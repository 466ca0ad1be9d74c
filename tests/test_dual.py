"""Unit tests for the concurrent state/parameter estimator."""
import numpy as np
import pytest

from dualpf import dual, param_filter, state_filter, synthetic
from dualpf.dual import history_arrays
from dualpf.errors import (ConfigError, DegenerateWeightsError,
                           FilterDivergenceError, PhysicalDomainError)
from dualpf.gas_turbine import NOMINAL_STATE, engine_model, nominal_constants
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
        runs = []
        for _ in range(2):
            est = _estimator(model, np.array([5.0]), np.array([0.8]), 11)
            x_hat = [dual.step(est, y).x_hat.copy() for y in ys]
            runs.append((history_arrays(est.history)["theta_hat"],
                         np.vstack(x_hat)))
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()

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


def _recording(base, calls=None, bad_above=None):
    """`base` with a transition that records the rows of each call and
    raises PhysicalDomainError on a row whose parameter exceeds
    `bad_above`."""
    def transition(x, eff, w, u=None):
        eff = np.asarray(eff, dtype=float)
        if calls is not None:
            calls.append(np.broadcast_shapes(np.shape(x), eff.shape)[0])
        if bad_above is not None and np.any(eff > bad_above):
            raise PhysicalDomainError("parameter row left the domain")
        return base.transition(x, eff, w, u=u)

    return ModelSpec(n_x=base.n_x, n_theta=base.n_theta, n_y=base.n_y,
                     transition=transition, output=base.output,
                     process_noise_cov=base.process_noise_cov,
                     measurement_noise_cov=base.measurement_noise_cov,
                     param_domain=base.param_domain)


class TestSharedTransition:
    """Under one_step the state prediction and the parameter filter's
    finite-difference rows share one model call."""

    @staticmethod
    def _case(name):
        if name == "scalar":
            model = synthetic.scalar_growth_model()
            x0, theta0, u = np.array([5.0]), np.array([0.8]), None
        elif name == "mixed":
            model = synthetic.mixed_fault_model()
            x0, theta0, u = synthetic.mixed_equilibrium(), np.ones(4), None
        else:
            c = nominal_constants()[0]
            model = engine_model(c)
            x0, theta0 = NOMINAL_STATE, np.ones(4)
            u = np.full(6, c.mdot_f_ref)
        thetas = np.tile(0.97 * theta0, (6, 1))
        _, ys = simulate(model, x0, thetas, 6, 2, u_trajectory=u)
        return model, x0, theta0, ys, u

    @pytest.mark.parametrize("name", ["scalar", "mixed", "engine"])
    def test_matches_the_filters_run_in_sequence(self, name):
        model, x0, theta0, ys, u = self._case(name)
        kwargs = dict(x0_cov=np.diag(1e-6 * np.maximum(x0, 1.0) ** 2),
                      theta0_cov=1e-4 * np.eye(model.n_theta),
                      param_kwargs=dict(predictor="one_step"), n_particles=12)
        est = _estimator(model, x0, theta0, 3, **kwargs)
        ref = _estimator(model, x0, theta0, 3, **kwargs)
        for t in range(ys.shape[0]):
            u_t = None if u is None else u[t]
            dual.step(est, ys[t], u=u_t)
            x_prev = ref.state.estimate
            ref.state = state_filter.step(ref.state, ref.params.estimate,
                                          ys[t], model, ref.rng, u=u_t)
            ref.params = param_filter.step(ref.params, x_prev, ys[t], model,
                                           ref.param_config, ref.rng, u=u_t)
            assert est.state.particles.tobytes() == \
                ref.state.particles.tobytes()
            assert est.params.particles.tobytes() == \
                ref.params.particles.tobytes()
        assert est.rng.random() == ref.rng.random()

    @pytest.mark.parametrize("predictor, rows", [
        ("one_step", [12 + 3 * 12, 12]), ("output", [12])])
    def test_one_call_carries_both_filters_rows(self, predictor, rows):
        calls = []
        model = _recording(synthetic.scalar_growth_model(), calls)
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0,
                         param_kwargs=dict(predictor=predictor),
                         n_particles=12)
        dual.step(est, np.array([5.0]))
        assert calls == rows

    def test_shared_call_carries_one_jacobian_per_distinct_particle(self):
        calls = []
        model = _recording(synthetic.scalar_growth_model(), calls)
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0,
                         param_kwargs=dict(predictor="one_step"),
                         n_particles=12)
        dual.step(est, np.array([5.0]))
        k = np.unique(est.params.particles, axis=0).shape[0]
        assert k < 12     # residual resampling left copies
        calls.clear()
        dual.step(est, np.array([5.2]))
        assert calls == [12 + 3 * k, 12]

    def test_divergence_message_names_filter_step_and_particle(self):
        # The non-finite check runs on the state filter's rows of the shared
        # call, so the message is the one of the output predictor.
        model = synthetic.mixed_fault_model()
        est = _estimator(model, synthetic.mixed_equilibrium(), np.ones(4), 0,
                         param_kwargs=dict(predictor="one_step"))
        est.state.particles[3] = np.nan
        with pytest.raises(FilterDivergenceError) as info:
            dual.step(est, np.zeros(model.n_y))
        assert str(info.value) == \
            "state filter, step 1: non-finite particle at index 3"

    def test_parameter_row_error_keeps_its_type_and_names_the_step(self):
        model = _recording(synthetic.scalar_growth_model(), bad_above=1.1)
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0,
                         param_kwargs=dict(predictor="one_step"))
        # The state rows run at the mean, 0.8 + 0.4 / 30; only the
        # parameter filter's rows of particle 3 pass 1.1.
        est.params.particles[:] = 0.8
        est.params.particles[3] = 1.2
        est.params.estimate = est.params.particles.mean(axis=0)
        with pytest.raises(PhysicalDomainError) as info:
            dual.step(est, np.array([5.0]))
        assert str(info.value) == ("state and parameter filters, step 1: "
                                   "parameter row left the domain")
        assert est.t == 0
        assert est.history == []


class TestRun:
    def test_empty_observations(self):
        model = synthetic.scalar_growth_model()
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 0)
        assert dual.run(est, np.empty((0, 1))) == []
        assert est.t == 0
        assert history_arrays([])["theta_hat"].shape == (0, 0)

    def test_history_length_and_steps(self):
        model = synthetic.scalar_growth_model()
        est = _estimator(model, np.array([5.0]), np.array([0.8]), 1)
        history = dual.run(est, np.full((7, 1), 5.0))
        assert history is est.history
        assert len(history) == 7
        assert est.t == 7
        arr = history_arrays(history)
        assert list(arr) == ["theta_hat"]
        assert arr["theta_hat"].shape == (7, 1)

    def test_history_holds_theta_hat_after_each_step(self):
        model = synthetic.mixed_fault_model()
        est = _estimator(model, synthetic.mixed_equilibrium(), np.ones(4), 3)
        ys = 1.0 + 0.05 * as_rng(8).normal(size=(6, model.n_y))
        after = []
        for y in ys:
            dual.step(est, y)
            after.append(est.theta_hat.copy())
        theta_hat = history_arrays(est.history)["theta_hat"]
        assert theta_hat.shape == (6, model.n_theta)
        assert theta_hat.tobytes() == np.vstack(after).tobytes()

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
