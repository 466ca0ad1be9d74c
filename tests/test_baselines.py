"""Unit tests for the comparison estimators and the flop accountant."""
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from dualpf import baselines, state_filter, synthetic
from dualpf.baselines import (
    EFCostModel,
    complexity_report,
    ef_complexity,
    init_bayesian_ks,
    init_rml,
    match_particle_budget,
    rml_spsa_step,
    spsa_gradient,
)
from dualpf.errors import ConfigError, GradientUndefinedError
from dualpf.harness import RUN_DEFAULTS
from dualpf.model import ModelSpec, ParamDomain, simulate
from dualpf.param_filter import kernel_shrink
from dualpf.smc import (
    DEFAULT_REGULARIZATION,
    ParticleEnsemble,
    as_rng,
    likelihood_weights,
    regularize,
    sample_cov,
)

SHRINKAGE = RUN_DEFAULTS["shrinkage"]


def _output_scaling_model(sigma_w=0.3, sigma_v=0.2, lower=0.5, upper=1.2):
    """Stable AR(1) state observed through y = theta * x."""

    def transition(x, eff, w, u=None):
        return 0.9 * np.asarray(x, dtype=float) + 1.0 + w

    def output(x, eff, u=None):
        return np.asarray(eff, dtype=float) * np.asarray(x, dtype=float)

    return ModelSpec(n_x=1, n_theta=1, n_y=1,
                     transition=transition, output=output,
                     process_noise_cov=[[sigma_w ** 2]],
                     measurement_noise_cov=[[sigma_v ** 2]],
                     param_domain=ParamDomain([lower], [upper]))


def _direct_observation_model(sigma_v=0.5):
    """y = theta with a frozen dummy state (quadratic log-likelihood)."""

    def transition(x, eff, w, u=None):
        return np.asarray(x, dtype=float) + w

    def output(x, eff, u=None):
        x = np.asarray(x, dtype=float)
        return np.asarray(eff, dtype=float) + 0.0 * x

    return ModelSpec(n_x=1, n_theta=1, n_y=1,
                     transition=transition, output=output,
                     process_noise_cov=[[0.0]],
                     measurement_noise_cov=[[sigma_v ** 2]],
                     param_domain=ParamDomain([-10.0], [10.0]))


class TestBayesianKS:
    def test_init_rejects_out_of_domain_parameter(self):
        m = _output_scaling_model(lower=0.5, upper=1.2)
        with pytest.raises(ConfigError):
            init_bayesian_ks(m, np.array([10.0]), np.eye(1), np.array([1.3]),
                             0.01 * np.eye(1), RUN_DEFAULTS["n_bayesian"],
                             SHRINKAGE, 0)

    def test_determinism(self):
        m = _output_scaling_model()
        runs = []
        for _ in range(2):
            rng = as_rng(5)
            st = init_bayesian_ks(m, np.array([10.0]), np.eye(1),
                                  np.array([0.8]), 0.01 * np.eye(1), 40,
                                  SHRINKAGE, rng)
            for _ in range(10):
                st = baselines.bayesian_ks_step(st, np.array([8.0]))
            runs.append(st.particles)
        assert np.array_equal(runs[0], runs[1])

    def test_unit_shrinkage_with_collapsed_init_freezes_parameters(self):
        m = _output_scaling_model()
        rng = as_rng(0)
        st = init_bayesian_ks(m, np.array([10.0]), np.eye(1),
                              np.array([0.8]), np.zeros((1, 1)), 30, 1.0, rng)
        for _ in range(15):
            st = baselines.bayesian_ks_step(st, np.array([8.0]))
        assert np.all(st.particles[:, 1] == 0.8)

    def test_parameters_stay_in_domain(self):
        m = _output_scaling_model()
        rng = as_rng(3)
        st = init_bayesian_ks(m, np.array([10.0]), np.eye(1),
                              np.array([1.0]), 0.05 * np.eye(1), 60,
                              SHRINKAGE, rng)
        for _ in range(40):
            st = baselines.bayesian_ks_step(st, np.array([9.0]))
            assert np.all(m.param_domain.contains(st.particles[:, 1:]))

    def test_matches_the_inline_sequence(self):
        # kernel_shrink -> predict -> likelihood_weights -> ParticleEnsemble
        # -> regularize -> clip, from one seed, step after step.  The prior
        # sits near the upper bound, so the clip acts (11 rows in 3 steps).
        # The step draws only from the state's Generator, here a fresh one.
        m = synthetic.mixed_fault_model()
        ys = np.array([[1.02, 0.97, 1.0, 0.7], [0.95, 1.05, 1.01, 0.68],
                       [1.1, 0.9, 0.98, 0.72]])
        st = init_bayesian_ks(m, synthetic.mixed_equilibrium(),
                              0.01 * np.eye(2), np.full(4, 1.18),
                              0.01 * np.eye(4), 30, SHRINKAGE, 2)
        got, want_rng = replace(st, rng=as_rng(6)), as_rng(6)
        clipped = 0
        for y in ys:
            xs, ths = st.particles[:, :2], st.particles[:, 2:]
            ths_new = kernel_shrink(ths, ths.mean(axis=0), sample_cov(ths),
                                    SHRINKAGE, m.param_domain, want_rng)
            xs_new, yhat = state_filter.predict(xs, ths_new, m, want_rng)
            augmented = np.hstack([xs_new, ths_new])
            ensemble = ParticleEnsemble(augmented, likelihood_weights(
                y - yhat, m.measurement_noise_cov))
            post = regularize(ensemble, sample_cov(augmented),
                              DEFAULT_REGULARIZATION, want_rng).particles
            clipped += np.sum(~m.param_domain.contains(post[:, 2:]))
            post[:, 2:] = m.param_domain.clip(post[:, 2:])
            got = baselines.bayesian_ks_step(got, y)
            assert got.particles.tobytes() == post.tobytes()
            assert got.x_hat.tobytes() == post[:, :2].mean(axis=0).tobytes()
            assert got.theta_hat.tobytes() == \
                post[:, 2:].mean(axis=0).tobytes()
            assert got.ess == ensemble.ess()
            st = got
        assert clipped > 0

    def test_constant_parameter_convergence(self):
        m = _output_scaling_model()
        theta_true = 0.8
        errs = []
        for seed in range(10):
            rng = as_rng(seed)
            T = 500
            _, ys = simulate(m, np.array([10.0]),
                             np.full((T, 1), theta_true), T, rng)
            st = init_bayesian_ks(m, np.array([10.0]), np.eye(1),
                                  np.array([0.85]), 0.01 * np.eye(1),
                                  500, SHRINKAGE, rng)
            for t in range(T):
                st = baselines.bayesian_ks_step(st, ys[t])
            errs.append(abs(st.theta_hat[0] - theta_true))
        assert np.median(errs) < 0.05 * theta_true


class TestObservationCheck:
    # A 1-value observation on the 4-output mixed model is refused before
    # any estimate, as dual.step refuses it; numpy would broadcast it.
    MODEL = synthetic.mixed_fault_model()
    X0 = synthetic.mixed_equilibrium()

    def test_bayesian_step_rejects_short_observation(self):
        st = init_bayesian_ks(self.MODEL, self.X0, 0.01 * np.eye(2),
                              np.ones(4), 1e-4 * np.eye(4), 20, SHRINKAGE, 0)
        with pytest.raises(ConfigError, match=r"\(1,\).*\(4,\)"):
            baselines.bayesian_ks_step(st, np.array([1.0]))

    def test_rml_step_rejects_short_observation(self):
        st = init_rml(self.MODEL, self.X0, 0.01 * np.eye(2), np.ones(4), 20,
                      RUN_DEFAULTS["step_size_rml"], 0)
        with pytest.raises(ConfigError, match=r"\(1,\).*\(4,\)"):
            rml_spsa_step(st, np.array([1.0]))

    # An infinite sample is refused by name; it would otherwise end the run
    # as a likelihood collapse.
    Y_INF = np.array([1.0, np.inf, 1.0, 1.0])

    def test_bayesian_step_rejects_infinite_observation(self):
        st = init_bayesian_ks(self.MODEL, self.X0, 0.01 * np.eye(2),
                              np.ones(4), 1e-4 * np.eye(4), 20, SHRINKAGE, 0)
        with pytest.raises(ConfigError, match="y_2 is inf"):
            baselines.bayesian_ks_step(st, self.Y_INF)

    def test_rml_step_rejects_infinite_observation(self):
        st = init_rml(self.MODEL, self.X0, 0.01 * np.eye(2), np.ones(4), 20,
                      RUN_DEFAULTS["step_size_rml"], 0)
        with pytest.raises(ConfigError, match="y_2 is inf"):
            rml_spsa_step(st, self.Y_INF)


class TestRmlSpsa:
    def test_gradient_matches_quadratic_closed_form(self):
        # y = theta under Gaussian noise: the incremental log-likelihood
        # is quadratic, so the two-sided difference is exact.
        sigma_v = 0.5
        m = _direct_observation_model(sigma_v)
        theta, y = np.array([1.0]), np.array([2.2])
        particles = np.full((20, 1), 0.0)
        for seed in range(5):
            grad = spsa_gradient(particles, theta, y, m, seed)
            assert grad[0] == pytest.approx((y[0] - theta[0]) / sigma_v ** 2,
                                            rel=1e-9)

    def test_gradient_vanishes_at_symmetric_point(self):
        m = _direct_observation_model()
        theta = np.array([1.5])
        grad = spsa_gradient(np.zeros((10, 1)), theta, np.array([1.5]), m, 7)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_observation_raises(self):
        m = _direct_observation_model()
        with pytest.raises(GradientUndefinedError):
            spsa_gradient(np.zeros((10, 1)), np.array([1.0]),
                          np.array([np.inf]), m, 0)

    def test_zero_step_size_keeps_parameter_constant(self):
        m = _output_scaling_model()
        rng = as_rng(2)
        st = init_rml(m, np.array([10.0]), np.eye(1), np.array([0.8]), 30,
                      0.0, rng)
        for _ in range(10):
            st = rml_spsa_step(st, np.array([8.0]))
        assert st.theta_hat[0] == 0.8

    def test_undefined_gradient_freezes_and_tallies(self, monkeypatch):
        m = _output_scaling_model()
        rng = as_rng(4)
        st = init_rml(m, np.array([10.0]), np.eye(1), np.array([0.8]), 30,
                      RUN_DEFAULTS["step_size_rml"], rng)

        def boom(*args, **kwargs):
            raise GradientUndefinedError("forced")

        monkeypatch.setattr(baselines, "spsa_gradient", boom)
        st = rml_spsa_step(st, np.array([8.0]))
        assert st.theta_hat[0] == 0.8
        assert st.skipped_steps == 1

    def test_init_rejects_out_of_domain_parameter(self):
        m = _output_scaling_model()
        with pytest.raises(ConfigError):
            init_rml(m, np.array([10.0]), np.eye(1), np.array([5.0]),
                     RUN_DEFAULTS["n_rml"], RUN_DEFAULTS["step_size_rml"], 0)

    def test_tracks_parameter_on_observable_model(self):
        m = _output_scaling_model()
        theta_true = 0.8
        errs = []
        for seed in range(10):
            rng = as_rng(seed)
            T = 400
            _, ys = simulate(m, np.array([10.0]),
                             np.full((T, 1), theta_true), T, rng)
            st = init_rml(m, np.array([10.0]), np.eye(1), np.array([1.0]),
                          100, 2e-4, rng)
            for t in range(T):
                st = rml_spsa_step(st, ys[t])
            errs.append(abs(st.theta_hat[0] - theta_true))
        assert np.median(errs) < 0.05 * theta_true


def _mixed_baseline(estimator, seed):
    """(initial state, step) of a baseline on the mixed model at N = 20."""
    m, x0 = synthetic.mixed_fault_model(), synthetic.mixed_equilibrium()
    if estimator == "bayesian":
        return (init_bayesian_ks(m, x0, 0.01 * np.eye(2), np.ones(4),
                                 1e-4 * np.eye(4), 20, SHRINKAGE, seed),
                baselines.bayesian_ks_step)
    return (init_rml(m, x0, 0.01 * np.eye(2), np.ones(4), 20,
                     RUN_DEFAULTS["step_size_rml"], seed), rml_spsa_step)


def _field_bytes(state):
    """Each field of a state as bytes, nested dataclasses field by field;
    the model and the Generator by identity."""
    out = {}
    for f in fields(state):
        value = getattr(state, f.name)
        if f.name in ("model", "rng"):
            out[f.name] = id(value)
        elif is_dataclass(value):
            out[f.name] = _field_bytes(value)
        else:
            out[f.name] = np.asarray(value).tobytes()
    return out


@pytest.mark.parametrize("estimator", ["bayesian", "rml"])
class TestStateOwnsItsStream:
    # A state carries its run's Generator, so runs stepped in turn do not
    # share draws, and a step builds a new state: a caller may compare the
    # input with the output (as the benchmark's skipped-step count does).
    YS = simulate(synthetic.mixed_fault_model(), synthetic.mixed_equilibrium(),
                  np.ones((15, 4)), 15, 0)[1]

    def _estimates(self, st, step):
        for y in self.YS:
            st = step(st, y)
            yield st.theta_hat.tobytes(), st.x_hat.tobytes()

    def test_interleaved_runs_match_runs_alone(self, estimator):
        alone = {seed: list(self._estimates(*_mixed_baseline(estimator, seed)))
                 for seed in (1, 2)}
        runs = [self._estimates(*_mixed_baseline(estimator, seed))
                for seed in (1, 2)]
        turns = list(zip(*runs))   # run 1 steps, then run 2, then run 1 ...
        assert [a for a, _ in turns] == alone[1]
        assert [b for _, b in turns] == alone[2]
        assert alone[1] != alone[2]

    def test_step_leaves_its_input_unchanged(self, estimator, monkeypatch):
        def undefined(*args, **kwargs):
            raise GradientUndefinedError("forced")

        st, step = _mixed_baseline(estimator, 3)
        for forced_skip in (False, True):
            if forced_skip:   # RML freezes theta and tallies the step
                monkeypatch.setattr(baselines, "spsa_gradient", undefined)
            before = _field_bytes(st)
            new = step(st, self.YS[0])
            assert new is not st and new.rng is st.rng
            assert _field_bytes(st) == before
            assert _field_bytes(new) != before
            st = new
        if estimator == "rml":
            assert st.skipped_steps == 1


class TestFlopAccounting:
    COST = EFCostModel(4, 4, 5, 10.0, 10.0, 10.0, N=50)

    def test_reference_dual_count(self):
        assert ef_complexity("dual", self.COST) == 21_950

    def test_zero_particles(self):
        cost = EFCostModel(4, 4, 5, 10.0, 10.0, 10.0, N=0)
        assert ef_complexity("dual", cost) == 0

    def test_linear_in_particles(self):
        double = EFCostModel(4, 4, 5, 10.0, 10.0, 10.0, N=100)
        for method in ("dual", "bayesian", "rml"):
            assert ef_complexity(method, double) == \
                2 * ef_complexity(method, self.COST)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ef_complexity("ekf", self.COST)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            EFCostModel(0, 4, 5, 10.0, 10.0, 10.0)
        with pytest.raises(ConfigError):
            EFCostModel(4, 4, 5, 0.0, 10.0, 10.0)


class TestBudgetMatching:
    COST = EFCostModel(2, 4, 4, 10.0, 10.0, 10.0)

    def test_reference_budgets(self):
        assert match_particle_budget("bayesian", self.COST, 45) == 41
        assert match_particle_budget("rml", self.COST, 150) == 60

    def test_unknown_reference(self):
        with pytest.raises(ConfigError):
            match_particle_budget("ukf", self.COST, 10)

    def test_regularization_cost_lowers_budget_coefficient(self):
        # The relative budget correction shrinks as the per-element
        # regularization cost grows.
        def coeff(c3):
            cost = EFCostModel(2, 4, 4, 10.0, 10.0, c3)
            n = match_particle_budget("bayesian", cost, 10_000)
            return 1.0 - n / 10_000
        cs = [coeff(c3) for c3 in (1.0, 10.0, 50.0)]
        assert cs[0] > cs[1] > cs[2]

    def test_report_structure(self):
        doc = complexity_report(self.COST, 50, 45, 150)
        assert doc["flops"]["dual"] == ef_complexity(
            "dual", EFCostModel(2, 4, 4, 10.0, 10.0, 10.0, N=50))
        assert doc["matched_dual_budget"]["bayesian"] == 41
        assert doc["matched_dual_budget"]["rml"] == 60
