"""Unit tests for the prediction-error parameter particle filter."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpf.errors import ConfigError, DualPFError
from dualpf.gas_turbine import NOMINAL_STATE, engine_model, nominal_constants
from dualpf.model import ModelSpec, ParamDomain
from dualpf.param_filter import (
    FD_STEP,
    ParamFilterConfig,
    ParamFilterState,
    distinct_runs,
    draw_prior,
    evolve,
    init_param_filter,
    kernel_shrink,
    output_jacobian,
    predicted_outputs,
    project_step,
    update,
    updating_gain,
)
from dualpf.smc import as_rng, sample_cov, sample_gaussian
from dualpf.synthetic import _MIX, mixed_equilibrium, mixed_fault_model


def _scaling_model(power=1, lower=0.0, upper=3.0, sigma_v=1.0):
    """y = theta^power * x with a scalar state."""

    def transition(x, eff, w, u=None):
        return np.asarray(x, dtype=float) + w

    def output(x, eff, u=None):
        x = np.asarray(x, dtype=float)
        eff = np.asarray(eff, dtype=float)
        return (eff ** power) * x

    return ModelSpec(n_x=1, n_theta=1, n_y=1,
                     transition=transition, output=output,
                     process_noise_cov=[[0.0]],
                     measurement_noise_cov=[[sigma_v ** 2]],
                     param_domain=ParamDomain([lower], [upper]))


class TestConfigValidation:
    # Each match names the setting, so the ConfigError of the default
    # cov_mode's missing evolution_cov cannot stand in for it.
    def test_bad_shrinkage(self):
        with pytest.raises(ConfigError, match="shrinkage"):
            ParamFilterConfig(shrinkage=0.0)
        with pytest.raises(ConfigError, match="shrinkage"):
            ParamFilterConfig(shrinkage=1.5)

    def test_bad_modes(self):
        with pytest.raises(ConfigError, match="cov_mode"):
            ParamFilterConfig(cov_mode="frozen")
        with pytest.raises(ConfigError, match="predictor"):
            ParamFilterConfig(predictor="two_step")

    def test_initial_cov_mode_needs_evolution_cov(self):
        with pytest.raises(ConfigError):
            ParamFilterConfig(cov_mode="initial")

    def test_default_cov_mode_needs_evolution_cov(self):
        # "initial" is the one default, as in every harness run.
        with pytest.raises(ConfigError, match="evolution_cov"):
            ParamFilterConfig()
        assert ParamFilterConfig(evolution_cov=np.eye(1)).cov_mode == "initial"

    def test_config_reused_across_inits_is_unchanged(self):
        m = _scaling_model()
        cfg = ParamFilterConfig(n_particles=10, cov_mode="running")
        for seed, cov in ((0, 0.01), (1, 0.04)):
            init_param_filter(np.array([1.0]), cov * np.eye(1),
                              m.param_domain, cfg, as_rng(seed))
        assert cfg == ParamFilterConfig(n_particles=10, cov_mode="running")

    @pytest.mark.parametrize("step_size", [0.0, -0.5, float("nan")])
    def test_non_positive_step_size_rejected(self, step_size):
        with pytest.raises(ConfigError, match="step_size"):
            ParamFilterConfig(step_size=step_size)


class TestInit:
    def test_mean_outside_domain_rejected(self):
        with pytest.raises(ConfigError):
            init_param_filter(np.array([5.0]), np.eye(1),
                              ParamDomain([0.0], [1.0]),
                              ParamFilterConfig(n_particles=10,
                                                cov_mode="running"),
                              as_rng(0))

    def test_prior_covariance_of_the_wrong_shape_rejected(self):
        # A (1, 1) covariance would give all four components one offset.
        domain = mixed_fault_model().param_domain
        for cov in (1e-4 * np.eye(1), 1e-4 * np.eye(3)):
            with pytest.raises(ConfigError, match=re.escape(
                    f"shape {cov.shape}, want (4, 4)")):
                draw_prior(np.ones(4), cov, 5, domain, as_rng(0))
            with pytest.raises(ConfigError, match="initial parameter cov"):
                init_param_filter(np.ones(4), cov, domain,
                                  ParamFilterConfig(n_particles=5,
                                                    cov_mode="running"),
                                  as_rng(0))

    @pytest.mark.parametrize("width", [1, 3])
    def test_evolution_covariance_of_the_wrong_shape_rejected(self, width):
        # Checked against the domain, before any step draws a jitter.
        cfg = ParamFilterConfig(n_particles=5,
                                evolution_cov=1e-4 * np.eye(width))
        with pytest.raises(ConfigError, match=rf"evolution_cov shape "
                           rf"\({width}, {width}\), want \(4, 4\)"):
            init_param_filter(np.ones(4), 1e-4 * np.eye(4),
                              mixed_fault_model().param_domain, cfg,
                              as_rng(0))

    def test_particles_inside_domain(self):
        domain = ParamDomain([0.9], [1.1])
        st = init_param_filter(np.array([1.0]), 0.05 * np.eye(1), domain,
                               ParamFilterConfig(n_particles=200,
                                                 cov_mode="running"),
                               as_rng(1))
        assert np.all(domain.contains(st.particles))


class TestPredictionError:
    # eps = y - yhat, with yhat from output_jacobian's block at the particles.
    def test_linear(self):
        m = _scaling_model()
        yhat, _ = output_jacobian(np.array([1.0]), np.array([[1.0]]), m,
                                  "output", None)
        assert 2.0 - yhat[0] == pytest.approx([1.0])

    def test_exact_prediction(self):
        m = _scaling_model()
        yhat, _ = output_jacobian(np.array([2.0]), np.array([[1.0]]), m,
                                  "output", None)
        assert 2.0 - yhat[0] == pytest.approx([0.0])

    def test_quadratic(self):
        m = _scaling_model(power=2)
        yhat, _ = output_jacobian(np.array([2.0]), np.array([[1.5]]), m,
                                  "output", None)
        assert 5.0 - yhat[0] == pytest.approx([0.5])

    def test_one_step_predictor_exposes_dynamics_parameter(self):
        # theta enters only the transition; the one-step-ahead predictor
        # must still produce theta-dependent outputs.
        def transition(x, eff, w, u=None):
            x = np.asarray(x, dtype=float)
            eff = np.asarray(eff, dtype=float)
            return eff * x + w

        m = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                      output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                      process_noise_cov=[[0.0]],
                      measurement_noise_cov=[[1.0]],
                      param_domain=ParamDomain([0.0], [2.0]))
        thetas = np.array([[0.5], [1.5]])
        yhat = predicted_outputs(thetas, np.array([2.0]), m, "one_step",
                                 None)
        assert np.allclose(yhat, [[1.0], [3.0]])


class TestUpdatingGain:
    def test_two_sided(self):
        assert updating_gain(np.array([[1.0, -1.0]])) == \
            pytest.approx([np.sqrt(2)])

    def test_constant_error_vanishes(self):
        assert updating_gain(np.array([[0.7, 0.7, 0.7]])) == \
            pytest.approx([0.0], abs=1e-12)

    def test_asymmetric(self):
        assert updating_gain(np.array([[3.0, 0.0, 0.0]])) == \
            pytest.approx([np.sqrt(6)])

    def test_scalar_output_always_zero(self):
        assert updating_gain(np.array([[42.0], [-3.0]])).tolist() == [0.0, 0.0]

    def test_vectorized_over_particles(self):
        r = updating_gain(np.array([[1.0, -1.0], [2.0, 2.0]]))
        assert np.allclose(r, [np.sqrt(2), 0.0])

    @pytest.mark.parametrize("n_y", [1, 2, 5, 9])
    def test_matches_numpy_norm_bit_for_bit(self, n_y):
        rng = np.random.default_rng(n_y)
        eps = rng.standard_normal((500, n_y)) * 10.0 ** rng.uniform(
            -3, 3, (500, 1))
        want = np.linalg.norm(eps - eps.mean(axis=1, keepdims=True), axis=1)
        assert updating_gain(eps).tobytes() == want.tobytes()


class TestOutputJacobian:
    def test_linear_sensitivity(self):
        m = _scaling_model()
        _, jac = output_jacobian(np.array([3.0]), np.array([[1.0]]), m,
                                 "output", None)
        assert jac[0, 0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_quadratic_matches_analytic(self):
        m = _scaling_model(power=2)
        _, jac = output_jacobian(np.array([1.0]), np.array([[2.0]]), m,
                                 "output", None)
        assert jac[0, 0, 0] == pytest.approx(4.0, abs=1e-5)

    def test_second_order_accuracy(self):
        # d(theta^3)/dtheta at 2 is 12; a one-sided difference with step
        # eta would be off by about 6 eta, a central one by about eta^2.
        m = _scaling_model(power=3, upper=5.0)
        eta = FD_STEP * 2.0
        _, jac = output_jacobian(np.array([1.0]), np.array([[2.0]]), m,
                                 "output", None)
        assert abs(jac[0, 0, 0] - 12.0) < 6 * eta / 50

    def test_one_sided_at_boundary(self):
        m = _scaling_model(upper=2.0)
        _, jac = output_jacobian(np.array([3.0]), np.array([[2.0]]), m,
                                 "output", None)
        assert jac[0, 0, 0] == pytest.approx(3.0, abs=1e-4)

    @pytest.mark.parametrize("name, predictor", [
        ("mixed", "output"), ("mixed", "one_step"), ("engine", "one_step")])
    def test_repeated_rows_match_each_row_alone(self, name, predictor):
        # Resampled copies sit next to each other; each distinct row's
        # Jacobian is computed once and repeated.
        if name == "mixed":
            model, x = mixed_fault_model(), mixed_equilibrium() + 0.02
        else:
            model, x = engine_model(nominal_constants()[0]), NOMINAL_STATE
        rows = as_rng(5).uniform(0.7, 1.1, (4, model.n_theta))
        rows[1, 2] = model.param_domain.upper[2]   # one-sided difference
        thetas = np.repeat(rows, [3, 1, 2, 1], axis=0)
        yhat, jac = output_jacobian(x, thetas, model, predictor, None)
        assert jac.shape == (7, model.n_theta, model.n_y)
        for i in range(7):
            y1, j1 = output_jacobian(x, thetas[i:i + 1], model, predictor,
                                     None)
            assert yhat[i].tobytes() == y1[0].tobytes()
            assert jac[i].tobytes() == j1[0].tobytes()

    def test_distinct_runs(self):
        thetas = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 3.0], [1.0, 2.0]])
        distinct, runs = distinct_runs(thetas)
        assert distinct.tolist() == [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]]
        assert runs.tolist() == [2, 1, 1]

    def test_rows_with_no_repeat_give_all_ones_runs(self):
        thetas = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]])
        distinct, runs = distinct_runs(thetas)
        assert distinct.tobytes() == thetas.tobytes()
        assert runs.tolist() == [1, 1, 1]

    def test_signed_zeros_stay_apart(self):
        # y = theta x keeps the sign of a zero theta, so merging -0.0 into
        # 0.0 would change the predicted output's bits.
        m = _scaling_model(lower=-1.0, upper=1.0)
        thetas = np.array([[0.0], [-0.0], [-0.0]])
        distinct, runs = distinct_runs(thetas)
        assert distinct.tobytes() == thetas[:2].tobytes()
        assert runs.tolist() == [1, 2]
        yhat, _ = output_jacobian(np.array([2.0]), thetas, m, "output", None)
        assert np.signbit(yhat[:, 0]).tolist() == [False, True, True]

    @staticmethod
    def _per_column_reference(x, thetas, model, predictor):
        # Two predicted_outputs calls per parameter column.
        n, n_th = thetas.shape
        domain = model.param_domain
        jac = np.zeros((n, n_th, model.n_y))
        for k in range(n_th):
            eta = FD_STEP * np.maximum(1.0, np.abs(thetas[:, k]))
            t_up, t_dn = thetas.copy(), thetas.copy()
            t_up[:, k] = np.where(thetas[:, k] + eta <= domain.upper[k],
                                  thetas[:, k] + eta, thetas[:, k])
            t_dn[:, k] = np.where(thetas[:, k] - eta >= domain.lower[k],
                                  thetas[:, k] - eta, thetas[:, k])
            y_up = predicted_outputs(t_up, x, model, predictor, None)
            y_dn = predicted_outputs(t_dn, x, model, predictor, None)
            span = (t_up[:, k] - t_dn[:, k])[:, None]
            jac[:, k, :] = (y_up - y_dn) / span
        return jac

    @pytest.mark.parametrize("name, predictor", [
        ("mixed", "output"), ("mixed", "one_step"),
        ("engine", "output"), ("engine", "one_step")])
    def test_stacked_batch_matches_per_column_loop(self, name, predictor):
        if name == "mixed":
            model = mixed_fault_model()
            x_prev = mixed_equilibrium() + 0.02
        else:
            model = engine_model(nominal_constants()[0])
            x_prev = NOMINAL_STATE * 1.001
        x = x_prev if predictor == "one_step" else 1.01 * x_prev
        thetas = as_rng(4).uniform(0.7, 1.1, (20, model.n_theta))
        thetas[0, 1] = model.param_domain.upper[1]
        thetas[1, 2] = model.param_domain.lower[2]
        yhat, got = output_jacobian(x, thetas, model, predictor, None)
        want_yhat = predicted_outputs(thetas, x, model, predictor, None)
        ref = self._per_column_reference(x, thetas, model, predictor)
        assert got.shape == (20, model.n_theta, model.n_y)
        if name == "mixed":
            assert yhat.tobytes() == want_yhat.tobytes()
        else:
            assert np.allclose(yhat, want_yhat, rtol=1e-12, atol=0.0)
        if name == "engine" and predictor == "one_step":
            # Each perturbed output comes from an implicit solve converged
            # to FIXED_POINT_TOL, which the 1/FD_STEP of the difference can
            # amplify; a batch is allowed that much.
            assert np.allclose(got, ref, rtol=0.0,
                               atol=1e-6 * np.max(np.abs(ref)))
        else:
            assert np.array_equal(got, ref)


class TestProjectStep:
    DOMAIN = ParamDomain([0.0], [1.0])

    def test_inside_unchanged(self):
        out = project_step(np.array([0.5]), np.array([0.2]), self.DOMAIN)
        assert out == pytest.approx([0.7])

    def test_two_scalings(self):
        # 0.5 + 0.9 = 1.4 rejected; 0.5 + 0.45 = 0.95 accepted.
        out = project_step(np.array([0.5]), np.array([0.9]), self.DOMAIN)
        assert out == pytest.approx([0.95])

    def test_zero_step_identity(self):
        out = project_step(np.array([0.3]), np.array([0.0]), self.DOMAIN)
        assert out == pytest.approx([0.3])

    def test_non_contracting_factor_drops_step(self):
        # 64 halvings leave 2^6, still outside: the step is dropped.
        out = project_step(np.array([0.5]), np.array([2.0 ** 70]), self.DOMAIN)
        assert out == pytest.approx([0.5])

    def test_vectorized_rows_scaled_independently(self):
        prev = np.array([[0.5], [0.5]])
        step = np.array([[0.2], [0.9]])
        out = project_step(prev, step, self.DOMAIN)
        assert np.allclose(out, [[0.7], [0.95]])

    def test_base_one_ulp_past_bound_returns_admissible_rows(self):
        # A shrinkage point can round one ulp past the upper bound.
        domain = ParamDomain([0.5], [1.2])
        base = np.full((3, 1), np.nextafter(1.2, 2.0))
        step = np.array([[0.1], [-0.1], [0.0]])   # outward, inward, zero
        out = project_step(base, step, domain)
        assert np.all(domain.contains(out))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_boundary_bases_always_projected_inside(self, data):
        domain, base, step = _boundary_case(data)
        out = project_step(base, step, domain)
        assert np.all(domain.contains(out))

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_halving_loop_bit_for_bit(self, data):
        domain, base, step = _boundary_case(
            data, special_steps=True, shared_base=data.draw(st.booleans()))
        out = project_step(base, step, domain)
        assert out.tobytes() == _halving_reference(base, step, domain).tobytes()

    def test_subnormal_halvings_match_halving_loop(self):
        # Halving -11 ulps three times rounds twice (-5.5 -> -6, -1.5 -> -2);
        # one multiply by 2^-3 rounds once (-1.375 -> -1) and would accept a
        # different step.
        tiny = np.nextafter(0.0, 1.0)
        base, step = np.array([[2 * tiny]]), np.array([[-11 * tiny]])
        out = project_step(base, step, self.DOMAIN)
        assert out.tobytes() == _halving_reference(
            base, step, self.DOMAIN).tobytes()


def _halving_reference(theta_prev, raw_step, domain):
    """The retry loop that project_step replaced: halve every rejected row
    and check again, up to 64 times, then drop a step still outside."""
    theta_prev = domain.clip(np.atleast_2d(np.asarray(theta_prev, dtype=float)))
    step = np.atleast_2d(np.asarray(raw_step, dtype=float)).copy()
    for _ in range(64):
        outside = ~domain.contains(theta_prev + step)
        if not np.any(outside):
            break
        step[outside] *= 0.5
    else:
        outside = ~domain.contains(theta_prev + step)
        step[outside] = 0.0
    return theta_prev + step


def _boundary_case(data, special_steps=False, shared_base=False):
    """A random box, bases on its faces, and steps of any finite size.

    special_steps adds NaN, +-inf and zero step entries; shared_base draws
    one (d,) base for all the (n, d) steps.
    """
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    lower = np.array(data.draw(st.lists(
        st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    width = np.array(data.draw(st.lists(
        st.floats(1e-6, 10.0), min_size=d, max_size=d)))
    domain = ParamDomain(lower, lower + width)
    # Each base component sits on a face, one ulp past it, or inside.
    faces = {
        "lower": domain.lower,
        "below": np.nextafter(domain.lower, -np.inf),
        "upper": domain.upper,
        "above": np.nextafter(domain.upper, np.inf),
        "middle": 0.5 * (domain.lower + domain.upper),
    }
    base = np.empty((1 if shared_base else n, d))
    for i in range(base.shape[0]):
        for k in range(d):
            base[i, k] = faces[data.draw(st.sampled_from(sorted(faces)))][k]
    entry = st.floats(allow_nan=False, allow_infinity=False)
    if special_steps:
        entry = st.one_of(entry, st.sampled_from(
            [0.0, -0.0, np.nan, np.inf, -np.inf]))
    step = np.array(data.draw(st.lists(
        entry, min_size=n * d, max_size=n * d))).reshape(n, d)
    return domain, (base[0] if shared_base else base), step


class TestEvolve:
    def test_unit_shrinkage_is_exact_fixed_point(self):
        m = _scaling_model(upper=3.0)
        cfg = ParamFilterConfig(n_particles=50, shrinkage=1.0,
                                evolution_cov=np.zeros((1, 1)))
        st = init_param_filter(np.array([1.0]), 0.01 * np.eye(1),
                               m.param_domain, cfg, as_rng(0))
        before = st.particles.copy()
        tilde = evolve(st, np.zeros(1), np.zeros(1), m, cfg, as_rng(1),
                       force_zero_error=True)
        assert np.array_equal(tilde, before)

    def test_shrinkage_arithmetic(self):
        m = _scaling_model(upper=3.0)
        cfg = ParamFilterConfig(n_particles=3, shrinkage=0.5,
                                cov_mode="initial",
                                evolution_cov=np.zeros((1, 1)))
        st = init_param_filter(np.array([2.0]), np.zeros((1, 1)),
                               m.param_domain, cfg, as_rng(0))
        st.particles = np.array([[1.0], [2.0], [3.0]])
        tilde = evolve(st, np.zeros(1), np.zeros(1), m, cfg, as_rng(1),
                       force_zero_error=True)
        # Each particle moves halfway to the ensemble mean 2, up to the
        # floored evolution noise (the evolution covariance is 0).
        assert np.allclose(tilde, [[1.5], [2.0], [2.5]], atol=1e-4)

    def test_running_mode_uses_the_given_particles(self):
        # The running covariance is the sample covariance of the particles
        # evolve is handed, not of the ensemble drawn at init.
        m = _scaling_model(upper=3.0)
        cfg = ParamFilterConfig(n_particles=3, shrinkage=0.5,
                                cov_mode="running")
        st = init_param_filter(np.array([2.0]), np.zeros((1, 1)),
                               m.param_domain, cfg, as_rng(0))
        st.particles = np.array([[1.0], [2.0], [3.0]])
        tilde = evolve(st, np.zeros(1), np.zeros(1), m, cfg, as_rng(1),
                       force_zero_error=True)
        want = kernel_shrink(st.particles, st.particles.mean(axis=0),
                             sample_cov(st.particles), 0.5, m.param_domain,
                             as_rng(1))
        assert tilde.tobytes() == want.tobytes()

    def test_variance_approximately_preserved(self):
        m = _scaling_model(upper=3.0)
        v0 = 0.04 * np.eye(1)
        cfg = ParamFilterConfig(n_particles=20_000, shrinkage=0.9,
                                cov_mode="initial", evolution_cov=v0.copy())
        st = init_param_filter(np.array([1.5]), v0, m.param_domain, cfg,
                               as_rng(2))
        tilde = evolve(st, np.zeros(1), np.zeros(1), m, cfg, as_rng(3),
                       force_zero_error=True)
        assert np.var(tilde) == pytest.approx(np.var(st.particles), rel=0.05)

    def test_prediction_error_step_on_a_collapsed_ensemble(self):
        # The paper's step on the mixed model, y = theta * (M x): the output
        # Jacobian is diag(M x), so at shrinkage 1 (no pull, no jitter) each
        # row of an ensemble collapsed on theta0 moves by
        # gamma ||eps - mean(eps)|| (M x) * eps, eps = y - theta0 * (M x).
        model, x = mixed_fault_model(), mixed_equilibrium()
        theta0 = np.array([0.95, 1.0, 1.05, 0.9])
        taps = _MIX @ x
        cfg = ParamFilterConfig(n_particles=5, shrinkage=1.0,
                                cov_mode="running", predictor="output")
        state = ParamFilterState(np.tile(theta0, (5, 1)), theta0.copy())
        error = np.array([0.02, -0.01, 0.03, -0.04])
        steps = []
        for y in (theta0 * taps + error, theta0 * taps - error):
            eps = y - theta0 * taps
            want = (cfg.step_size * np.linalg.norm(eps - eps.mean())
                    * taps * eps)
            got = evolve(state, x, y, model, cfg, as_rng(0)) - theta0
            np.testing.assert_allclose(got, np.tile(want, (5, 1)), rtol=1e-6)
            steps.append(got[0])
        # The opposite error moves every component the other way.
        assert np.all(steps[0] * steps[1] < 0)

    def test_kernel_shrink_matches_inline_arithmetic(self):
        # Reference: the floor, jitter, shrink and project arithmetic inline.
        domain = ParamDomain([0.5, 0.5, 0.5], [1.2, 1.2, 1.2])
        centers = domain.clip(1.0 + 0.05 * as_rng(11).standard_normal((40, 3)))
        target = centers.mean(axis=0) + 0.01
        cov = sample_cov(centers)
        a = 0.93
        cov_floored = cov + 1e-12 * np.eye(3)
        zeta = sample_gaussian((1.0 - a ** 2) * cov_floored, 40, as_rng(5))
        expect = project_step(a * centers + (1.0 - a) * target, zeta, domain)
        got = kernel_shrink(centers, target, cov, a, domain, as_rng(5))
        assert np.array_equal(got, expect)


class TestUpdate:
    def test_identical_particles_fixed_point(self):
        m = _scaling_model()
        cfg = ParamFilterConfig(n_particles=4, cov_mode="running")
        tilde = np.full((4, 1), 1.25)
        st = update(tilde, np.array([2.0]), np.array([2.5]), m, cfg, as_rng(0))
        assert np.all(st.particles == 1.25)
        assert st.estimate == pytest.approx([1.25])

    def test_dominant_likelihood_selects_survivor(self):
        m = _scaling_model(sigma_v=1e-3)
        cfg = ParamFilterConfig(n_particles=2, cov_mode="running")
        tilde = np.array([[1.0], [2.9]])
        st = update(tilde, np.array([1.0]), np.array([1.0]), m, cfg, as_rng(0))
        assert np.all(st.particles == 1.0)

    def test_escaped_particle_raises(self):
        m = _scaling_model(upper=2.0)
        cfg = ParamFilterConfig(n_particles=2, cov_mode="running")
        with pytest.raises(DualPFError):
            update(np.array([[1.0], [2.5]]), np.array([1.0]),
                   np.array([1.0]), m, cfg, as_rng(0))

    def test_tracks_conjugate_posterior_mean(self):
        # Linear observation y = theta * x with Gaussian prior: the
        # importance-weighted redraw should match the closed-form
        # posterior mean on average.
        x, sigma_v, mu0, sigma0, y = 2.0, 0.5, 1.0, 0.3, 2.4
        m = _scaling_model(lower=-10.0, upper=10.0, sigma_v=sigma_v)
        cfg = ParamFilterConfig(n_particles=500, cov_mode="running")
        precision = 1.0 / sigma0 ** 2 + x ** 2 / sigma_v ** 2
        target = (mu0 / sigma0 ** 2 + x * y / sigma_v ** 2) / precision
        rng = as_rng(10)
        means = []
        for _ in range(200):
            prior = mu0 + sigma0 * rng.standard_normal((500, 1))
            st = update(prior, np.array([x]), np.array([y]), m, cfg, rng)
            means.append(st.estimate[0])
        mc_sigma = np.std(means) / np.sqrt(len(means))
        assert abs(np.mean(means) - target) < 3 * mc_sigma + 5e-3
