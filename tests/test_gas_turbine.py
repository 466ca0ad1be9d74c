"""Unit tests for the single-spool engine model."""
import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from dualpf import gas_turbine
from dualpf.errors import ConfigError, IntegrationError, PhysicalDomainError
from dualpf.gas_turbine import (
    COMPONENTS,
    DT_DEFAULT,
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    FUEL_STEP,
    FUEL_STEP_FRACTION,
    HEALTH_DOMAIN,
    JACOBIAN_STEP,
    NOMINAL_STATE,
    SCENARIOS,
    compressor_exit_temp,
    compressor_flow,
    derivatives,
    engine_model,
    fuel_trajectory,
    implicit_euler_step,
    nominal_constants,
    nozzle_flow,
    outputs,
    step_backward_euler,
    turbine_exit_temp,
    turbine_flow,
)
from dualpf.harness import RunConfig, simulate_truth
from dualpf.model import Fault, health_trajectory
from dualpf.smc import as_rng, sample_gaussian

HEALTHY = np.ones(4)


# Frozen references: the solver, right-hand side and output map with every
# right-hand side on arrays (a 1-D state's sweeps on 0-d arrays) and every
# component map inlined.  The engine's figures must match them bit for bit,
# since its estimates are chaotic under rounding-level changes of the truth.

def _ref_derivatives(state, health, c, fuel_flow):
    state = np.asarray(state, dtype=float)
    t_cc, s, p_cc, p_nlt = (state[..., i] for i in range(4))
    health = np.asarray(health, dtype=float)
    th_ec, th_mc, th_et, th_mt = (health[..., i] for i in range(4))
    ex = (c.gamma - 1.0) / c.gamma
    t_comp = c.T_d * (1.0 + ((p_cc / c.P_d) ** ex - 1.0) / (th_ec * c.eta_c))
    t_turb = t_cc * (1.0 - th_et * c.eta_t * (1.0 - (p_nlt / p_cc) ** ex))
    mdot_c = th_mc * (c.mdot_c_ref * (s / c.S_ref)
                      * (1.0 + c.k_pc * (1.0 - p_cc / c.P_cc_ref)))
    mdot_t = th_mt * (c.mdot_t_ref * (p_cc / c.P_cc_ref)
                      * np.sqrt(c.T_cc_ref / t_cc))
    net_mass = mdot_c + fuel_flow - mdot_t
    d_tcc = (c.c_p * (mdot_c * t_comp - mdot_t * t_cc)
             + c.eta_cc * c.H_u * fuel_flow
             - c.c_v * t_cc * net_mass) / (c.c_v * c.m_cc)
    d_pcc = (p_cc / t_cc) * d_tcc + (c.gamma * c.R * t_cc / c.V_cc) * net_mass
    w_comp = mdot_c * c.c_p * (t_comp - c.T_d)
    w_turb = mdot_t * c.c_p * (t_cc - t_turb)
    d_s = 1e3 * (c.eta_mech * w_turb - w_comp) / (c.J * s * (np.pi / 30.0) ** 2)
    d_pnlt = (c.R * c.T_m / c.V_m) * (
        mdot_t + c.beta / (c.beta + 1.0) * mdot_c
        - c.mdot_n_ref * (p_nlt / c.P_nlt_ref))
    return np.stack([d_tcc, d_s, d_pcc, d_pnlt], axis=-1)


def _ref_check_positive(state):
    if np.any(np.asarray(state, dtype=float) <= 0):
        raise PhysicalDomainError("engine state left the positive orthant")


def _ref_outputs(state, health, c):
    _ref_check_positive(state)
    state = np.asarray(state, dtype=float)
    t_cc, s, p_cc, p_nlt = (state[..., i] for i in range(4))
    health = np.asarray(health, dtype=float)
    ex = (c.gamma - 1.0) / c.gamma
    y1 = c.T_d * (1.0 + ((p_cc / c.P_d) ** ex - 1.0) / (health[..., 0] * c.eta_c))
    y5 = t_cc * (1.0 - health[..., 2] * c.eta_t * (1.0 - (p_nlt / p_cc) ** ex))
    return np.stack(np.broadcast_arrays(y1, p_cc, s, p_nlt, y5), axis=-1)


def _ref_implicit_euler_step(rhs, state, dt):
    if dt <= 0:
        raise IntegrationError("dt must be positive")
    state = np.asarray(state, dtype=float)
    n = state.shape[-1]
    h = JACOBIAN_STEP * np.maximum(np.abs(state), 1.0)
    f = rhs(np.stack([state] + [state + h * e for e in np.eye(n)]))
    increment = dt * f[0]
    with np.errstate(invalid="ignore"):
        jacobian = np.moveaxis(f[1:] - f[0], 0, -1) / h[..., None, :]
    m_inv = np.linalg.inv(np.eye(n) - dt * jacobian)
    residual = -increment
    z = state
    active = np.ones(increment.shape[:-1], dtype=bool)
    for _ in range(FIXED_POINT_MAX_ITER):
        update = np.einsum("...ij,...j->...i", m_inv, residual)
        delta = np.max(np.abs(update) / np.maximum(np.abs(z), 1.0), axis=-1)
        z = np.where(active[..., None], z - update, z)
        if not np.all(np.isfinite(z)):
            raise IntegrationError(f"implicit step diverged from {state!r}")
        active &= ~(delta < FIXED_POINT_TOL)
        if not np.any(active):
            return z
        residual = z - state - dt * rhs(z)
    warnings.warn("implicit step did not converge; explicit Euler fallback")
    return np.where(active[..., None], state + increment, z)


def _ref_step(state, health, c, fuel_flow):
    _ref_check_positive(state)
    state = np.broadcast_to(state, np.broadcast_shapes(np.shape(state),
                                                       np.shape(health)))
    nxt = _ref_implicit_euler_step(
        lambda z: _ref_derivatives(z, health, c, fuel_flow), state, DT_DEFAULT)
    _ref_check_positive(nxt)
    return nxt


def _outcome(call):
    """(result bytes or error, warning messages) of call(); numpy's scalar
    and array warnings name the same condition, so "scalar " is dropped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call().tobytes()
        except (IntegrationError, PhysicalDomainError) as exc:
            result = (type(exc), str(exc))
    return result, {str(w.message).replace("scalar ", "") for w in caught}


@pytest.fixture(scope="module")
def constants():
    return nominal_constants()[0]


class TestEquilibrium:
    def test_nominal_derivatives_vanish(self, constants):
        d = derivatives(NOMINAL_STATE, HEALTHY, constants, constants.mdot_f_ref)
        assert np.allclose(d / np.maximum(np.abs(NOMINAL_STATE), 1.0), 0.0,
                           atol=1e-10)

    def test_implicit_steps_hold_equilibrium(self, constants):
        state = NOMINAL_STATE.copy()
        for _ in range(100):
            state = step_backward_euler(state, HEALTHY, constants,
                                        constants.mdot_f_ref)
        drift = np.max(np.abs(state - NOMINAL_STATE) / NOMINAL_STATE)
        assert drift < 1e-6 * 100

    def test_closure_matches_its_inline_formulas_bit_for_bit(self):
        # The closure's exit temperatures and compressor flow come from the
        # component maps at health 1; these are the formulas typed out.
        c = gas_turbine.EngineConstants()
        t_cc, s, p_cc, p_nlt = NOMINAL_STATE
        ex = (c.gamma - 1.0) / c.gamma
        t_comp = c.T_d * (1.0 + ((p_cc / c.P_d) ** ex - 1.0) / c.eta_c)
        t_turb = t_cc * (1.0 - c.eta_t * (1.0 - (p_nlt / p_cc) ** ex))
        mdot_c = c.mdot_c_ref
        mdot_f = (c.c_p * mdot_c * (t_cc - t_comp)
                  / (c.eta_cc * c.H_u - c.c_p * t_cc))
        mdot_t = mdot_c + mdot_f
        w_comp = mdot_c * c.c_p * (t_comp - c.T_d)
        w_turb = mdot_t * c.c_p * (t_cc - t_turb)
        expect = dataclasses.replace(
            c, mdot_f_ref=mdot_f, mdot_t_ref=mdot_t,
            eta_mech=w_comp / w_turb,
            mdot_n_ref=mdot_t + c.beta / (c.beta + 1.0) * mdot_c,
            m_cc=p_cc * c.V_cc / (c.R * t_cc))
        got, state = nominal_constants()
        for field in dataclasses.fields(expect):
            a, b = getattr(got, field.name), getattr(expect, field.name)
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), \
                field.name
        assert state.tobytes() == NOMINAL_STATE.tobytes()


class TestStructuralIdentities:
    def test_pressure_temperature_coupling(self, constants):
        rng = np.random.default_rng(0)
        states = np.column_stack([
            rng.uniform(1000.0, 1500.0, 200),
            rng.uniform(9000.0, 14000.0, 200),
            rng.uniform(500.0, 1000.0, 200),
            rng.uniform(200.0, 450.0, 200),
        ])
        health = rng.uniform(0.5, 1.2, (200, 4))
        d = derivatives(states, health, constants, constants.mdot_f_ref)
        t_cc, s, p_cc = states[:, 0], states[:, 1], states[:, 2]
        net = (health[:, 1] * compressor_flow(s, p_cc, constants)
               + constants.mdot_f_ref
               - health[:, 3] * turbine_flow(p_cc, t_cc, constants))
        rhs = (constants.gamma * constants.R * t_cc / constants.V_cc) * net
        lhs = d[:, 2] - (p_cc / t_cc) * d[:, 0]
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_energy_balance_independent_rederivation(self, constants):
        # Re-derive the temperature equation from first principles:
        # m c_v dT/dt = cp(min Tin - mout T) + eta_cc Hu mf - cv T (min + mf - mout)
        # with min including the fuel mass added at the compressor-exit
        # enthalpy bookkeeping used by the model.
        c = constants
        state = np.array([1350.0, 11500.0, 780.0, 310.0])
        health = np.array([0.95, 1.05, 0.9, 1.1])
        fuel = 0.33
        t_cc, s, p_cc, p_nlt = state
        t_in = compressor_exit_temp(p_cc, health[0], c)
        m_in = health[1] * compressor_flow(s, p_cc, c)
        m_out = health[3] * turbine_flow(p_cc, t_cc, c)
        energy = (c.c_p * (m_in * t_in - m_out * t_cc)
                  + c.eta_cc * c.H_u * fuel
                  - c.c_v * t_cc * (m_in + fuel - m_out))
        expected = energy / (c.c_v * c.m_cc)
        got = derivatives(state, health, c, fuel_flow=fuel)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mixing_volume_mass_balance(self, constants):
        c = constants
        state = np.array([1280.0, 12100.0, 820.0, 300.0])
        health = np.array([1.0, 0.9, 1.0, 1.1])
        m_in = (health[3] * turbine_flow(state[2], state[0], c)
                + c.beta / (c.beta + 1.0)
                * health[1] * compressor_flow(state[1], state[2], c))
        # Choose the nozzle pressure that makes outflow equal inflow.
        state[3] = c.P_nlt_ref * m_in / c.mdot_n_ref
        assert nozzle_flow(state[3], c) == pytest.approx(m_in)
        d = derivatives(state, health, c, c.mdot_f_ref)
        assert d[3] == pytest.approx(0.0, abs=1e-9)


class TestOutputs:
    def test_state_pass_throughs(self, constants):
        state = np.array([1300.0, 12000.0, 750.0, 280.0])
        y = outputs(state, HEALTHY, constants)
        assert y[1] == state[2]
        assert y[2] == state[1]
        assert y[3] == state[3]

    def test_unity_pressure_ratio_cases(self, constants):
        c = constants
        state = np.array([1300.0, 12000.0, c.P_d, 280.0])
        assert outputs(state, HEALTHY, c)[0] == pytest.approx(c.T_d)
        state = np.array([1300.0, 12000.0, 750.0, 750.0])
        assert outputs(state, HEALTHY, c)[4] == pytest.approx(1300.0)

    def test_turbine_exit_temp_decreases_with_efficiency(self, constants):
        t_low = turbine_exit_temp(1300.0, 800.0, 300.0, 0.8, constants)
        t_high = turbine_exit_temp(1300.0, 800.0, 300.0, 1.2, constants)
        assert t_high < t_low

    def test_compressor_exit_temp_decreases_with_efficiency(self, constants):
        assert compressor_exit_temp(800.0, 1.2, constants) < \
            compressor_exit_temp(800.0, 0.8, constants)

    def test_positive_orthant_enforced(self, constants):
        with pytest.raises(PhysicalDomainError):
            outputs(np.array([-1.0, 12000.0, 800.0, 300.0]), HEALTHY,
                    constants)


class TestImplicitEuler:
    def test_zero_rhs_identity(self):
        state = np.array([1.0, 2.0])
        out = implicit_euler_step(lambda z: np.zeros_like(z), state, 0.01)
        assert np.array_equal(out, state)

    def test_linear_decay_closed_form(self):
        lam, dt, x0 = 2.0, 0.01, 3.0
        out = implicit_euler_step(lambda z: -lam * z, np.array([x0]), dt)
        assert out[0] == pytest.approx(x0 / (1.0 + lam * dt), abs=1e-12)

    @pytest.mark.parametrize("state", [np.array([1.5, -0.7]),
                                       np.array([[1.5, -0.7], [3.0, 2.0],
                                                 [-4.0, 0.25]])],
                             ids=["single", "batched"])
    def test_linear_rhs_solved_exactly(self, state):
        # For rhs z -> A z the forward difference is exact up to rounding,
        # so the step is the solution of (I - dt A) z = x.
        a = np.array([[-3.0, 1.0], [-0.5, -2.0]])
        dt = 0.1
        out = implicit_euler_step(lambda z: z @ a.T, state, dt)
        exact = np.linalg.solve(np.eye(2) - dt * a, state.T).T
        assert np.max(np.abs(out - exact)) < 1e-14

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(IntegrationError):
            implicit_euler_step(lambda z: z, np.array([1.0]), 0.0)
        # A NaN or infinite dt passes `dt <= 0`; it must not reach the sweeps.
        for dt in (np.nan, np.inf, -np.inf):
            for state in (np.array([1.0]), np.ones((2, 1))):
                with pytest.raises(IntegrationError, match="dt must be positive"):
                    implicit_euler_step(lambda z: z, state, dt)

    def test_divergent_rhs_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                implicit_euler_step(lambda z: z * np.inf, np.array([1.0]),
                                    0.01)

    @pytest.mark.parametrize("solve", [
        lambda x: implicit_euler_step(lambda z: -100.0 * z ** 3, x, 0.01),
        lambda x: gas_turbine._solve_one(
            lambda x: (x[0] ** 3,), lambda x, cube: (-100.0 * cube[0],), x,
            0.01)],
        ids=["plain", "split"])
    def test_one_state_sweep_cap_falls_back_to_explicit_euler(self, solve):
        # The stiff cubic of the batched test below, alone and 1-D, through
        # the generic solver and through the one-state solve.
        with pytest.warns(UserWarning, match="explicit Euler fallback") as rec:
            out = solve(np.array([5.0]))
        assert len(rec) == 1
        assert out.tobytes() == np.array([5.0 + 0.01 * -12500.0]).tobytes()

    def test_only_the_unconverged_row_falls_back(self):
        # Row 0 decays at rate 2 and converges in a few sweeps.  Row 1 is
        # the stiff cubic -100 z^3 from z0 = 5: with the Jacobian frozen at
        # the start state each sweep contracts by about 0.9, so it misses
        # the tolerance within the sweep cap.
        dt = 0.01
        state = np.array([[3.0], [5.0]])

        def rhs(z):
            return np.concatenate([-2.0 * z[..., :1, :],
                                   -100.0 * z[..., 1:, :] ** 3], axis=-2)

        with pytest.warns(UserWarning, match="explicit Euler fallback") as rec:
            out = implicit_euler_step(rhs, state, dt)
        assert len(rec) == 1
        assert out[0, 0] == pytest.approx(3.0 / (1.0 + 2.0 * dt), abs=1e-12)
        assert out[1, 0] == 5.0 + dt * (-100.0 * 5.0 ** 3)

    def test_far_from_healthy_particles_converge_without_fallback(
            self, constants):
        # With the Jacobian frozen at the start state, particles with eta_c
        # in [0.5, 0.6] need 9 sweeps; a cap of 8 sends some of them to
        # explicit Euler.
        rng = np.random.default_rng(0)
        n = 200
        health = np.column_stack([rng.uniform(0.5, 0.6, n),
                                  rng.uniform(0.5, 1.2, (n, 3))])
        states = NOMINAL_STATE * (1.0 + 0.01 * rng.standard_normal((n, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step_backward_euler(states, health, constants,
                                constants.mdot_f_ref)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_newton_trajectory_matches_fixed_point_reference(
            self, constants, scenario):
        # Reference: the plain fixed-point iteration z <- x + dt f(z) to the
        # same relative tolerance, on the same 2,500-step truth inputs.
        c = constants
        T = 2500

        def fixed_point_step(state, health, fuel):
            z = state.copy()
            for _ in range(FIXED_POINT_MAX_ITER):
                z_new = state + DT_DEFAULT * derivatives(z, health, c, fuel)
                delta = np.max(np.abs(z_new - z) / np.maximum(np.abs(z), 1.0))
                z = z_new
                if delta < FIXED_POINT_TOL:
                    return z
            raise AssertionError("reference did not converge")

        health = health_trajectory(HEALTHY, SCENARIOS[scenario], T)
        fuel = fuel_trajectory(T, c)
        noise = sample_gaussian(engine_model(c).process_noise_cov, T, as_rng(0))
        newton = reference = NOMINAL_STATE.copy()
        worst = 0.0
        for t in range(T):
            newton = (step_backward_euler(newton, health[t], c, fuel[t])
                      + noise[t])
            reference = fixed_point_step(reference, health[t], fuel[t]) + noise[t]
            worst = max(worst, np.max(np.abs(newton - reference)
                                      / np.abs(reference)))
        assert worst < 1e-9

    def test_step_is_the_solver_at_the_engine_sampling_period(self,
                                                              constants):
        # Reference: the generic solver at the engine's sampling period.
        rng = np.random.default_rng(3)
        health = rng.uniform(0.8, 1.1, (6, 4))
        states = NOMINAL_STATE * (1.0 + 0.01 * rng.standard_normal((6, 4)))
        fuel = constants.mdot_f_ref
        want = implicit_euler_step(
            lambda z: derivatives(z, health, constants, fuel), states,
            DT_DEFAULT)
        got = step_backward_euler(states, health, constants, fuel)
        assert got.tobytes() == want.tobytes()

    def test_domain_checked_on_entry_and_result(self, constants, monkeypatch):
        with pytest.raises(PhysicalDomainError):
            step_backward_euler(np.array([1300.0, -1.0, 800.0, 300.0]),
                                HEALTHY, constants, constants.mdot_f_ref)
        # One state takes `_solve_one`, a batch `implicit_euler_step`.
        monkeypatch.setattr(gas_turbine, "_solve_one",
                            lambda terms, rates, state, dt: -state)
        monkeypatch.setattr(gas_turbine, "implicit_euler_step",
                            lambda rhs, state, dt: -state)
        for states in (NOMINAL_STATE, np.tile(NOMINAL_STATE, (3, 1))):
            with pytest.raises(PhysicalDomainError):
                step_backward_euler(states, HEALTHY, constants,
                                    constants.mdot_f_ref)

    def test_one_state_never_enters_the_generic_solver(self, constants,
                                                       monkeypatch):
        want = step_backward_euler(NOMINAL_STATE, HEALTHY, constants,
                                   constants.mdot_f_ref)

        def refuse(*args):
            raise AssertionError("the generic solver ran on one state")

        monkeypatch.setattr(gas_turbine, "implicit_euler_step", refuse)
        got = step_backward_euler(NOMINAL_STATE, HEALTHY, constants,
                                  constants.mdot_f_ref)
        assert got.tobytes() == want.tobytes()

    def test_batch_never_enters_the_one_state_solve(self, constants,
                                                    monkeypatch):
        # A single state against a batch of health vectors is a batch too.
        health = np.array([HEALTHY, 0.95 * HEALTHY])
        want = step_backward_euler(NOMINAL_STATE, health, constants,
                                   constants.mdot_f_ref)

        def refuse(*args):
            raise AssertionError("the one-state solve ran on a batch")

        monkeypatch.setattr(gas_turbine, "_solve_one", refuse)
        got = step_backward_euler(NOMINAL_STATE, health, constants,
                                  constants.mdot_f_ref)
        assert got.shape == (2, 4)
        assert got.tobytes() == want.tobytes()


class TestFrozenReference:
    """The one-state solve runs on np.float64 scalars; it must reproduce the
    frozen references above byte for byte, failures and warnings included."""

    def test_one_state_at_a_time_matches_bit_for_bit(self, constants):
        c = constants
        rng = np.random.default_rng(30)
        n = 240
        states = NOMINAL_STATE * (1.0 + 0.05 * rng.standard_normal((n, 4)))
        health = rng.uniform(0.5, 1.2, (n, 4))
        health[::3] = rng.choice(HEALTH_DOMAIN.lower.tolist()
                                 + HEALTH_DOMAIN.upper.tolist(), (80, 4))
        fuels = (c.mdot_f_ref, c.mdot_f_ref * (1.0 + FUEL_STEP_FRACTION))
        for k in range(n):
            x, th, fuel = states[k], health[k], fuels[k % 2]
            assert (derivatives(x, th, c, fuel).tobytes()
                    == _ref_derivatives(x, th, c, fuel).tobytes())
            assert outputs(x, th, c).tobytes() == _ref_outputs(x, th, c).tobytes()
            assert (_outcome(lambda: step_backward_euler(x, th, c, fuel))
                    == _outcome(lambda: _ref_step(x, th, c, fuel)))
            rhs = lambda z: _ref_derivatives(z, th, c, fuel)  # noqa: E731
            assert (_outcome(lambda: implicit_euler_step(rhs, x, DT_DEFAULT))
                    == _outcome(lambda: _ref_implicit_euler_step(
                        rhs, x, DT_DEFAULT)))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_truth_matches_bit_for_bit(self, scenario, monkeypatch):
        cfg = RunConfig(model="gas_turbine", scenario=scenario, duration=2500,
                        seed=0)

        def truth_md5():
            _, states, ys, _, _ = simulate_truth(cfg)
            return hashlib.md5(states.tobytes() + ys.tobytes()).hexdigest()

        got = truth_md5()
        monkeypatch.setattr(gas_turbine, "step_backward_euler", _ref_step)
        monkeypatch.setattr(gas_turbine, "outputs", _ref_outputs)
        assert got == truth_md5()

    def test_one_state_failures_match(self, constants):
        # States up to e^4 off nominal at the health bounds: iterates go
        # negative (nan from `**` and sqrt), overflow, hit the sweep cap or
        # leave the positive orthant, as they did before.
        c = constants
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            x = NOMINAL_STATE * np.exp(rng.uniform(-4.0, 4.0, 4))
            th = rng.choice([0.5, 1.2], 4)
            fuel = c.mdot_f_ref * rng.choice([1.0, 1.0 + FUEL_STEP_FRACTION])
            got, got_warnings = _outcome(
                lambda: step_backward_euler(x, th, c, fuel))
            want, want_warnings = _outcome(lambda: _ref_step(x, th, c, fuel))
            assert got == want
            assert got_warnings <= want_warnings
            if isinstance(got, tuple) and got[0] is IntegrationError:
                # np.float64, not float: no complex, no ZeroDivisionError.
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("error")
                    with pytest.raises(IntegrationError):
                        step_backward_euler(x, th, c, fuel)
            seen.add(got[0] if isinstance(got, tuple) else bytes)
            seen |= {w for w in got_warnings if "explicit Euler" in w}
        assert seen == {bytes, IntegrationError, PhysicalDomainError,
                        "implicit step did not converge; explicit Euler "
                        "fallback"}


class TestFaultScenarios:
    """Scenarios are in step indices at dt = 0.01 s (step 400 is t = 4 s)."""

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            health_trajectory(HEALTHY, (Fault(len(COMPONENTS), 0.05, 100),),
                              10)
        with pytest.raises(ConfigError):
            Fault(0, 0.7, 100)
        with pytest.raises(ConfigError):
            Fault(0, 0.05, 100, profile="ramp")

    def test_all_ones_before_events(self):
        theta = health_trajectory(HEALTHY, SCENARIOS["scenario_I_concurrent"],
                                  400)
        assert np.array_equal(theta, np.ones((400, 4)))

    def test_staggered_steps(self):
        theta = health_trajectory(HEALTHY, SCENARIOS["scenario_I_concurrent"],
                                  2500)
        assert np.allclose(theta[1000], [0.95, 0.95, 1.0, 1.0])
        assert np.allclose(theta[2000], [0.95, 0.95, 0.95, 0.95])
        first_faulty = [int(np.argmax(theta[:, j] < 1.0)) for j in range(4)]
        assert first_faulty == [400, 900, 1400, 1900]

    def test_drift_midpoint(self):
        theta = health_trajectory(
            HEALTHY, SCENARIOS["scenario_II_simultaneous"], 2500)[1400]
        assert theta[COMPONENTS.index("eta_c")] == pytest.approx(0.975)
        assert theta[COMPONENTS.index("eta_t")] == pytest.approx(0.985)
        assert theta[COMPONENTS.index("m_c")] == pytest.approx(0.95)

    def test_fuel_step(self):
        c, _ = nominal_constants()
        fuel = fuel_trajectory(300, c)
        assert FUEL_STEP == 100
        assert np.all(fuel[:100] == c.mdot_f_ref)
        assert fuel[100:] == pytest.approx(0.98 * c.mdot_f_ref)

    def test_fuel_trajectory_matches_its_expression_at_fuel_step(self):
        # Reference: nominal flow before FUEL_STEP, stepped by
        # FUEL_STEP_FRACTION from it on, written out.
        c, _ = nominal_constants()
        want = np.where(np.arange(300) >= FUEL_STEP,
                        c.mdot_f_ref * (1.0 + FUEL_STEP_FRACTION),
                        c.mdot_f_ref)
        assert fuel_trajectory(300, c).tobytes() == want.tobytes()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            Fault(0, 0.05, -1)


class TestEngineModel:
    def test_model_spec_dimensions(self, constants):
        model = engine_model(constants)
        assert (model.n_x, model.n_theta, model.n_y) == (4, 4, 5)
        assert model.param_domain is HEALTH_DOMAIN

    def test_transition_vectorizes_over_particles(self, constants):
        model = engine_model(constants)
        particles = NOMINAL_STATE * (1.0 + 0.01 * np.random.default_rng(1)
                                     .standard_normal((5, 4)))
        batch = model.step_state(particles, HEALTHY, np.zeros(4))
        loop = np.vstack([model.step_state(p, HEALTHY, np.zeros(4))
                          for p in particles])
        # Each particle stops at its own converged sweep, so the batch and
        # the loop differ by no more than the solver tolerance (the batched
        # inverse of I - dt J may round differently from the single one).
        assert np.allclose(batch, loop, rtol=1e-9)

    def test_single_state_broadcasts_against_batched_health(self, constants):
        health = np.ones((5, 4))
        health[:, 0] = np.linspace(0.8, 1.0, 5)
        fuel = constants.mdot_f_ref
        single = step_backward_euler(NOMINAL_STATE, health, constants, fuel)
        tiled = step_backward_euler(np.tile(NOMINAL_STATE, (5, 1)), health,
                                    constants, fuel)
        assert np.array_equal(single, tiled)

    def test_faulty_health_shifts_equilibrium(self, constants):
        model = engine_model(constants)
        theta = np.array([0.9, 1.0, 1.0, 1.0])
        nxt = model.step_state(NOMINAL_STATE, theta, np.zeros(4))
        assert not np.allclose(nxt, NOMINAL_STATE)
        assert np.all(np.isfinite(nxt))
