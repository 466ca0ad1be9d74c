"""Unit tests for the state-space model abstraction and simulation."""
import numpy as np
import pytest

from dualpf import synthetic
from dualpf.errors import ConfigError, SimulationDivergenceError
from dualpf.model import (
    Fault,
    ModelSpec,
    ParamDomain,
    health_trajectory,
    simulate,
)


def _identity_model(n_x=1, process_cov=None, meas_cov=None):
    def transition(x, eff, w, u=None):
        return np.asarray(x, dtype=float) + w

    def output(x, eff, u=None):
        return np.asarray(x, dtype=float) * np.asarray(eff, dtype=float)

    return ModelSpec(
        n_x=n_x, n_theta=n_x, n_y=n_x,
        transition=transition, output=output,
        process_noise_cov=process_cov if process_cov is not None
        else np.zeros((n_x, n_x)),
        measurement_noise_cov=meas_cov if meas_cov is not None
        else 1e-12 * np.eye(n_x),
        param_domain=ParamDomain(np.full(n_x, 0.0), np.full(n_x, 2.0)),
    )


class TestParamDomain:
    def test_contains_and_clip(self):
        d = ParamDomain([0.0, 0.0], [1.0, 1.0])
        assert d.contains(np.array([0.5, 1.0]))
        assert not d.contains(np.array([0.5, 1.1]))
        assert np.allclose(d.clip(np.array([-1.0, 2.0])), [0.0, 1.0])

    def test_vectorized_contains(self):
        d = ParamDomain([0.0], [1.0])
        flags = d.contains(np.array([[0.5], [2.0]]))
        assert flags.tolist() == [True, False]

    @pytest.mark.parametrize("shape", [(3,), (50, 3), (7, 50, 3)])
    def test_contains_matches_the_all_reduction(self, shape):
        d = ParamDomain([0.0, -1.0, 0.5], [1.0, 1.0, 2.0])
        rng = np.random.default_rng(len(shape))
        theta = rng.uniform(-1.5, 2.5, size=shape)
        flat = theta.reshape(-1, 3)
        flat[::4] = np.clip(flat[::4], d.lower, d.upper)   # inside rows
        flat[1::9, 1] = np.nan
        flat[2::11] = [1.0, -1.0, 2.0]                     # on the bounds
        want = np.all((theta >= d.lower) & (theta <= d.upper), axis=-1)
        got = d.contains(theta)
        assert np.shape(got) == want.shape
        assert np.asarray(got).tolist() == want.tolist()

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            ParamDomain([1.0], [1.0])
        with pytest.raises(ConfigError):
            ParamDomain([0.0, 0.0], [1.0])


class TestModelSpecValidation:
    def test_wrong_noise_shape(self):
        with pytest.raises(ConfigError):
            _identity_model(n_x=2, process_cov=np.zeros((1, 1)))

    def test_measurement_noise_must_be_positive_definite(self):
        with pytest.raises(ConfigError):
            _identity_model(meas_cov=np.zeros((1, 1)))

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ConfigError):
            _identity_model(n_x=2,
                            process_cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_healthy_multiplicative_identity(self):
        m = _identity_model()
        assert m.measure(np.array([2.0]), np.array([1.0])) == pytest.approx([2.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_observation_names_its_channel(self, value):
        m = synthetic.mixed_fault_model()
        y = np.ones(4)
        y[[1, 3]] = value
        with pytest.raises(ConfigError, match=f"y_2 is {value}"):
            m.check_observation(y)

    def test_missing_observation_passes(self):
        # NaN stands for a missing sample and is left to the estimators.
        y = synthetic.mixed_fault_model().check_observation([1.0, np.nan, 1, 1])
        assert np.isnan(y[1])


def _loop_health(nominal, fault, T):
    """Per-step reference: one fault, scaled by (1 - loss) step by step."""
    thetas = np.tile(np.asarray(nominal, dtype=float), (T, 1))
    for t in range(fault.start_step, T):
        if fault.profile == "step":
            loss = fault.magnitude
        else:
            frac = min((t - fault.start_step)
                       / (fault.ramp_end_step - fault.start_step), 1.0)
            loss = fault.magnitude * frac
        thetas[t, fault.component] = thetas[t, fault.component] * (1.0 - loss)
    return thetas


class TestFault:
    @pytest.mark.parametrize("kwargs", [
        dict(magnitude=-0.01), dict(magnitude=0.51), dict(start_step=-1),
        dict(profile="drift"), dict(profile="ramp"),
        dict(profile="ramp", start_step=10, ramp_end_step=10),
    ])
    def test_invalid_fault_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Fault(component=0, **{"magnitude": 0.05, **kwargs})

    @pytest.mark.parametrize("kwargs", [
        dict(component=0, start_step=150.5), dict(component=1.0),
        dict(component=True), dict(component=0, start_step=False),
        dict(component=0, profile="ramp", start_step=3, ramp_end_step=9.5),
        dict(component="0"), dict(component=0, magnitude="5e-2"),
        dict(component=0, magnitude=True),
    ])
    def test_non_integer_component_or_step_rejected(self, kwargs):
        pattern = r"^fault \w+ must be (an integer|a finite number)"
        with pytest.raises(ConfigError, match=pattern):
            Fault(**{"magnitude": 0.05, **kwargs})

    def test_numpy_integers_accepted(self):
        fault = Fault(component=np.int64(1), magnitude=0.05,
                      start_step=np.int32(2), profile="ramp",
                      ramp_end_step=np.int64(4))
        assert np.array_equal(health_trajectory(np.ones(2), (fault,), 5)[:, 1],
                              [1.0, 1.0, 1.0, 0.975, 0.95])

    def test_bounds_accepted(self):
        Fault(component=0, magnitude=0.5, start_step=0)
        Fault(component=0, magnitude=0.0, profile="ramp", start_step=3,
              ramp_end_step=4)

    @pytest.mark.parametrize("fault", [
        Fault(component=0, magnitude=0.05, start_step=7),
        Fault(component=2, magnitude=0.1, start_step=5, profile="ramp",
              ramp_end_step=18),
        Fault(component=1, magnitude=0.03, start_step=0, profile="ramp",
              ramp_end_step=30),
    ])
    def test_matches_per_step_reference(self, fault):
        for nominal in (np.full(3, 0.8), np.ones(3)):
            assert np.array_equal(health_trajectory(nominal, (fault,), 25),
                                  _loop_health(nominal, fault, 25))

    def test_overlapping_faults_take_larger_loss(self):
        faults = (Fault(component=1, magnitude=0.05, start_step=2),
                  Fault(component=1, magnitude=0.1, start_step=4,
                        profile="ramp", ramp_end_step=14))
        theta = health_trajectory(np.ones(2), faults, 20)
        assert np.array_equal(theta[:2], np.ones((2, 2)))
        assert np.all(theta[2:9, 1] == 0.95)    # step loss 0.05 >= ramp
        assert theta[12, 1] == pytest.approx(0.92)
        assert np.all(theta[14:, 1] == 0.9)
        assert np.all(theta[:, 0] == 1.0)

    def test_healthy_and_late_faults_leave_nominal(self):
        faults = (Fault(), Fault(component=0, magnitude=0.2, start_step=10))
        assert np.array_equal(health_trajectory([0.8], faults, 10),
                              np.full((10, 1), 0.8))

    @pytest.mark.parametrize("component", [-1, 2])
    def test_component_outside_model_rejected(self, component):
        with pytest.raises(ConfigError):
            health_trajectory(np.ones(2), (Fault(component, 0.05, 0),), 5)


class TestSimulate:
    def test_noise_free_fixed_point(self):
        m = _identity_model()
        states, _ = simulate(m, np.array([1.0]), np.ones((3, 1)), 3, 0)
        assert np.allclose(states, 1.0)

    def test_deterministic_under_seed(self):
        def transition(x, eff, w, u=None):
            return 0.9 * np.asarray(x, dtype=float) + w

        m = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                      output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                      process_noise_cov=[[1.0]],
                      measurement_noise_cov=[[0.1]],
                      param_domain=ParamDomain([0.0], [2.0]))
        a = simulate(m, np.zeros(1), np.ones((50, 1)), 50, 42)
        b = simulate(m, np.zeros(1), np.ones((50, 1)), 50, 42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_ar1_stationary_variance(self):
        def transition(x, eff, w, u=None):
            return 0.9 * np.asarray(x, dtype=float) + w

        m = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                      output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                      process_noise_cov=[[1.0]],
                      measurement_noise_cov=[[1e-6]],
                      param_domain=ParamDomain([0.0], [2.0]))
        T = 5000
        states, _ = simulate(m, np.zeros(1), np.ones((T, 1)), T, 42)
        stationary = 1.0 / (1.0 - 0.81)
        assert np.var(states) == pytest.approx(stationary, rel=0.2)

    def test_divergence_reports_step(self):
        def transition(x, eff, w, u=None):
            return np.asarray(x, dtype=float) * 1e200

        m = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                      output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                      process_noise_cov=[[0.0]],
                      measurement_noise_cov=[[1.0]],
                      param_domain=ParamDomain([0.0], [2.0]))
        with pytest.raises(SimulationDivergenceError) as exc, \
                np.errstate(over="ignore"):
            simulate(m, np.array([1.0]), np.ones((5, 1)), 5, 0)
        assert exc.value.step >= 1

    def test_short_theta_trajectory_rejected(self):
        m = _identity_model()
        with pytest.raises(ConfigError):
            simulate(m, np.zeros(1), np.ones((2, 1)), 5, 0)

    def test_narrow_theta_trajectory_rejected(self):
        # One health column would be broadcast over all four parameters.
        m = synthetic.mixed_fault_model()
        with pytest.raises(ConfigError,
                           match=r"\(5, 1\).*5 or more rows of 4"):
            simulate(m, synthetic.mixed_equilibrium(), np.ones((5, 1)), 5, 0)

    def test_short_input_trajectory_rejected(self):
        m = _identity_model()
        with pytest.raises(ConfigError, match="u_trajectory"):
            simulate(m, np.zeros(1), np.ones((5, 1)), 5, 0,
                     u_trajectory=np.ones(4))

    def test_exogenous_input_forwarded(self):
        seen = []

        def transition(x, eff, w, u=None):
            seen.append(u)
            return np.asarray(x, dtype=float) + w

        m = ModelSpec(n_x=1, n_theta=1, n_y=1, transition=transition,
                      output=lambda x, eff, u=None: np.asarray(x, dtype=float),
                      process_noise_cov=[[0.0]],
                      measurement_noise_cov=[[1.0]],
                      param_domain=ParamDomain([0.0], [2.0]))
        simulate(m, np.zeros(1), np.ones((3, 1)), 3, 0,
                 u_trajectory=np.array([10.0, 20.0, 30.0]))
        assert seen == [10.0, 20.0, 30.0]

