"""Single-spool gas-turbine plant with multiplicative health parameters.

Four states: combustion-chamber temperature T_CC (K), spool speed S (rpm),
combustion-chamber pressure P_CC (kPa) and nozzle-outlet pressure P_NLT
(kPa).  Five measured outputs: compressor exit temperature, P_CC, S,
P_NLT and turbine exit temperature.  Health parameters scale compressor /
turbine efficiency and mass flow; healthy value is 1.

The shipped constants are NOT calibrated against any real engine.  They
are a physically plausible single-spool operating point constructed so
that the nominal state is an exact equilibrium of the healthy model; every
structural property of the equations is preserved, absolute magnitudes
are illustrative only.

`step_backward_euler` sends a batch of states (every filter call) to
`implicit_euler_step`, on numpy's array `**` throughout, and one state (the
truth) to `_solve_one`, on np.float64 scalars with libm's `pow` but for the
Jacobian's stacked rows, which keep the array `**` as a batched solve of
that state does; the two `**` round differently.  A 2,500-step truth
takes about 145 us per step this way, against 270 us with the sweeps on
0-d arrays (2-core Xeon, numpy 2.4.6).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError, PhysicalDomainError
from .model import COMPONENTS, Fault, ModelSpec, ParamDomain

DT_DEFAULT = 0.01          # sampling period, s
FIXED_POINT_MAX_ITER = 50
FIXED_POINT_TOL = 1e-13
JACOBIAN_STEP = 1.5e-8     # relative forward-difference step of the Newton J


@dataclass(frozen=True)
class EngineConstants:
    """Thermodynamic and geometric constants of the single-spool engine.

    kJ/kg/K units for c_p, c_v, R; pressures in kPa; powers in kW.
    """

    gamma: float = 1.4
    c_p: float = 1.005
    c_v: float = 0.718
    R: float = 0.287
    H_u: float = 43100.0        # fuel lower heating value, kJ/kg
    eta_cc: float = 0.99        # combustion efficiency
    eta_c: float = 0.85         # nominal compressor isentropic efficiency
    eta_t: float = 0.88         # nominal turbine isentropic efficiency
    eta_mech: float = 0.958     # spool mechanical efficiency (closure value)
    J: float = 50.0             # spool inertia, kg m^2
    V_cc: float = 0.6           # combustion chamber volume, m^3
    V_m: float = 4.0            # nozzle mixing volume, m^3
    T_m: float = 300.0          # mixing volume temperature, K
    beta: float = 5.0           # bypass ratio
    T_d: float = 288.0          # diffuser (compressor inlet) temperature, K
    P_d: float = 101.3          # diffuser pressure, kPa
    m_cc: float = 1.29          # resident combustion-chamber gas mass, kg
    mdot_f_ref: float = 0.36    # nominal fuel flow, kg/s
    # Flow-map reference quantities (smooth algebraic component maps).
    mdot_c_ref: float = 20.0
    mdot_t_ref: float = 20.36
    mdot_n_ref: float = 37.0
    S_ref: float = 12000.0
    P_cc_ref: float = 800.0
    P_nlt_ref: float = 300.0
    T_cc_ref: float = 1300.0
    k_pc: float = 0.3           # compressor-map backpressure coefficient


NOMINAL_STATE = np.array([1300.0, 12000.0, 800.0, 300.0])

HEALTH_DOMAIN = ParamDomain(np.full(4, 0.5), np.full(4, 1.2))


def nominal_constants() -> tuple[EngineConstants, np.ndarray]:
    """Constants closed so NOMINAL_STATE is an exact healthy equilibrium.

    Fuel flow balances the combustion-chamber energy equation, turbine
    flow balances the pressure equation, mechanical efficiency balances
    the spool, and the nozzle reference flow balances the mixing volume.
    """
    c = EngineConstants()
    t_cc, s, p_cc, p_nlt = NOMINAL_STATE
    t_comp = compressor_exit_temp(p_cc, 1.0, c)
    t_turb = turbine_exit_temp(t_cc, p_cc, p_nlt, 1.0, c)
    mdot_c = compressor_flow(s, p_cc, c)
    mdot_f = c.c_p * mdot_c * (t_cc - t_comp) / (c.eta_cc * c.H_u - c.c_p * t_cc)
    mdot_t = mdot_c + mdot_f
    w_comp = mdot_c * c.c_p * (t_comp - c.T_d)
    w_turb = mdot_t * c.c_p * (t_cc - t_turb)
    c = replace(
        c,
        mdot_f_ref=mdot_f,
        mdot_t_ref=mdot_t,
        eta_mech=w_comp / w_turb,
        mdot_n_ref=mdot_t + c.beta / (c.beta + 1.0) * mdot_c,
        m_cc=p_cc * c.V_cc / (c.R * t_cc),
    )
    return c, NOMINAL_STATE.copy()


def _split_state(state: np.ndarray):
    # np.float64 scalars for one state, arrays over the leading axes.
    state = np.asarray(state, dtype=float)
    if state.ndim == 1:
        return tuple(state)
    return tuple(state[..., i] for i in range(state.shape[-1]))


def _check_positive(state: np.ndarray):
    # Every state (T_CC, S, P_CC, P_NLT) must be positive.
    if (np.asarray(state, dtype=float) <= 0).any():
        raise PhysicalDomainError("engine state left the positive orthant")


def compressor_flow(s, p_cc, c: EngineConstants):
    return c.mdot_c_ref * (s / c.S_ref) * (1.0 + c.k_pc * (1.0 - p_cc / c.P_cc_ref))


def turbine_flow(p_cc, t_cc, c: EngineConstants):
    return c.mdot_t_ref * (p_cc / c.P_cc_ref) * np.sqrt(c.T_cc_ref / t_cc)


def nozzle_flow(p_nlt, c: EngineConstants):
    return c.mdot_n_ref * (p_nlt / c.P_nlt_ref)


def compressor_exit_temp(p_cc, theta_eta_c, c: EngineConstants):
    ex = (c.gamma - 1.0) / c.gamma
    return c.T_d * (1.0 + ((p_cc / c.P_d) ** ex - 1.0)
                    / (theta_eta_c * c.eta_c))


def turbine_exit_temp(t_cc, p_cc, p_nlt, theta_eta_t, c: EngineConstants):
    ex = (c.gamma - 1.0) / c.gamma
    return t_cc * (1.0 - theta_eta_t * c.eta_t * (1.0 - (p_nlt / p_cc) ** ex))


def _exit_temps(x, health, c: EngineConstants):
    # The component maps that hold the engine's only `**`: numpy's array
    # `**` on arrays, libm's `pow` on np.float64 scalars (they round apart).
    return (compressor_exit_temp(x[2], health[0], c),
            turbine_exit_temp(x[0], x[2], x[3], health[2], c))


def _rates(x, temps, health, c: EngineConstants, fuel_flow: float):
    # The rest of the right-hand side, on np.float64 scalars or arrays alike.
    t_cc, s, p_cc, p_nlt = x
    th_ec, th_mc, th_et, th_mt = health
    t_comp, t_turb = temps
    mdot_c = th_mc * compressor_flow(s, p_cc, c)
    mdot_t = th_mt * turbine_flow(p_cc, t_cc, c)
    net_mass = mdot_c + fuel_flow - mdot_t

    # Energy balance of the resident combustion-chamber gas.
    d_tcc = (c.c_p * (mdot_c * t_comp - mdot_t * t_cc)
             + c.eta_cc * c.H_u * fuel_flow
             - c.c_v * t_cc * net_mass) / (c.c_v * c.m_cc)

    # Pressure follows temperature and net mass storage (ideal gas).
    d_pcc = (p_cc / t_cc) * d_tcc + (c.gamma * c.R * t_cc / c.V_cc) * net_mass

    # Spool power balance; powers in kW, hence the 1e3 factor.
    w_comp = mdot_c * c.c_p * (t_comp - c.T_d)
    w_turb = mdot_t * c.c_p * (t_cc - t_turb)
    d_s = 1e3 * (c.eta_mech * w_turb - w_comp) / (c.J * s * (np.pi / 30.0) ** 2)

    # Nozzle mixing-volume mass balance (isothermal at T_m).
    d_pnlt = (c.R * c.T_m / c.V_m) * (
        mdot_t + c.beta / (c.beta + 1.0) * mdot_c - nozzle_flow(p_nlt, c))

    return d_tcc, d_s, d_pcc, d_pnlt


def derivatives(state: np.ndarray, health: np.ndarray, c: EngineConstants,
                fuel_flow: float) -> np.ndarray:
    """Continuous-time right-hand side; vectorized over leading axes.  The
    state is not checked: `step_backward_euler` checks it once per step."""
    x, health = _split_state(state), _split_state(health)
    return np.stack(_rates(x, _exit_temps(x, health, c), health, c,
                           fuel_flow), axis=-1)


def outputs(state: np.ndarray, health: np.ndarray,
            c: EngineConstants) -> np.ndarray:
    """Five measured channels; T_comp uses the reciprocal of theta_eta_c."""
    _check_positive(state)
    x, health = _split_state(state), _split_state(health)
    y1, y5 = _exit_temps(x, health, c)
    return np.stack(np.broadcast_arrays(y1, x[2], x[1], x[3], y5), axis=-1)


def implicit_euler_step(rhs, state: np.ndarray, dt: float) -> np.ndarray:
    """Implicit (backward) Euler step solved by simplified Newton.

    rhs(z) is the continuous-time derivative, vectorized over leading axes.
    One rhs call on `state` and its n forward-perturbed copies, stacked on
    a new leading axis, gives rhs(state) and the forward-difference J.
    Each sweep takes z <- z - (I - dt J)^-1 (z - state - dt rhs(z)) from
    z = state, whose residual is the explicit-Euler increment.  A particle
    stops at its first relative update below FIXED_POINT_TOL; one still
    above it after FIXED_POINT_MAX_ITER sweeps takes the explicit-Euler
    step, with one warning for the batch.  Raises IntegrationError if an
    iterate goes non-finite.  The physical domain is checked by
    `step_backward_euler`, not here.
    """
    if not 0.0 < dt < np.inf:
        raise IntegrationError("dt must be positive")
    state = np.asarray(state, dtype=float)
    n = state.shape[-1]
    h = JACOBIAN_STEP * np.maximum(np.abs(state), 1.0)
    f = rhs(np.stack([state] + [state + h * e for e in np.eye(n)]))
    increment = dt * f[0]
    # A non-finite rhs makes J nan; the iterate check raises IntegrationError.
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


def _solve_one(terms, rates, state: np.ndarray, dt: float) -> np.ndarray:
    # implicit_euler_step on np.float64 scalars, but for the `terms` of the
    # stacked rows: one array call, so J takes numpy's array `**` as a batch
    # does and matches the batched solve bit for bit.
    x = tuple(state)
    h = JACOBIAN_STEP * np.maximum(np.abs(state), 1.0)
    rows = [x] + [tuple([v + hv * e for v, hv, e in zip(x, h, row)])
                  for row in np.eye(len(x)).tolist()]
    row_terms = zip(*terms(np.array(rows).T))
    f = np.array([rates(row, t) for row, t in zip(rows, row_terms)])
    increment = dt * f[0]
    with np.errstate(invalid="ignore"):
        m_inv = np.linalg.inv(np.eye(len(x)) - dt * ((f[1:] - f[0]).T / h))
    residual, z = -increment, x
    for _ in range(FIXED_POINT_MAX_ITER):
        update = np.einsum("...ij,...j->...i", m_inv, residual)
        delta = max([abs(u) / max(abs(v), 1.0) for u, v in zip(update, z)])
        z = tuple([v - u for v, u in zip(z, update)])
        if not all(map(math.isfinite, z)):
            raise IntegrationError(f"implicit step diverged from {state!r}")
        if delta < FIXED_POINT_TOL:
            return np.array(z)
        rz = rates(z, terms(z))
        residual = np.array([v - s - dt * r for v, s, r in zip(z, x, rz)])
    warnings.warn("implicit step did not converge; explicit Euler fallback")
    return state + increment


def step_backward_euler(state: np.ndarray, health: np.ndarray,
                        c: EngineConstants, fuel_flow: float) -> np.ndarray:
    """One implicit-Euler step of DT_DEFAULT of the engine dynamics.

    The physical domain is checked once per step, on the entry state and on
    the result; PhysicalDomainError if either leaves the positive orthant.
    The state is broadcast against `health` first, so the solver's stack of
    perturbed states carries every particle axis.  One state then takes
    `_solve_one` and a batch `implicit_euler_step`.
    """
    _check_positive(state)
    state = np.broadcast_arrays(state, health)[0]
    if state.ndim == 1:
        theta = _split_state(health)
        nxt = _solve_one(lambda x: _exit_temps(x, theta, c),
                         lambda x, temps: _rates(x, temps, theta, c, fuel_flow),
                         state, DT_DEFAULT)
    else:
        nxt = implicit_euler_step(
            lambda z: derivatives(z, health, c, fuel_flow), state, DT_DEFAULT)
    _check_positive(nxt)
    return nxt


# Scenarios in step indices at the sampling period DT_DEFAULT (step 400 is
# t = 4 s).  Every engine run also takes a -2 % fuel-flow step at FUEL_STEP
# as input excitation.
FUEL_STEP = 100
FUEL_STEP_FRACTION = -0.02

SCENARIOS = {
    "scenario_I_concurrent": (
        Fault(COMPONENTS.index("eta_c"), 0.05, 400),
        Fault(COMPONENTS.index("m_c"), 0.05, 900),
        Fault(COMPONENTS.index("eta_t"), 0.05, 1400),
        Fault(COMPONENTS.index("m_t"), 0.05, 1900),
    ),
    "scenario_II_simultaneous": (
        Fault(COMPONENTS.index("eta_c"), 0.05, 900, "ramp", 1900),
        Fault(COMPONENTS.index("eta_t"), 0.03, 900, "ramp", 1900),
        Fault(COMPONENTS.index("m_c"), 0.05, 900),
        Fault(COMPONENTS.index("m_t"), 0.05, 900),
    ),
}


def fuel_trajectory(T: int, c: EngineConstants) -> np.ndarray:
    """Per-step fuel flow: nominal before FUEL_STEP, stepped by
    FUEL_STEP_FRACTION from it on."""
    return np.where(np.arange(T) >= FUEL_STEP,
                    c.mdot_f_ref * (1.0 + FUEL_STEP_FRACTION), c.mdot_f_ref)


def engine_model(c: EngineConstants) -> ModelSpec:
    """Discrete-time ModelSpec view of the engine for the estimators.

    The exogenous input u is the fuel flow (kg/s); defaults to nominal.
    Process and measurement noise standard deviations are 0.1% of each
    state's and each channel's nominal value; the step is DT_DEFAULT.
    """
    process_noise_std = 1e-3 * NOMINAL_STATE
    measurement_noise_std = 1e-3 * outputs(NOMINAL_STATE, np.ones(4), c)

    def transition(x, eff, w, u=None):
        fuel = c.mdot_f_ref if u is None else float(u)
        return step_backward_euler(x, eff, c, fuel) + w

    def output(x, eff, u=None):
        return outputs(x, eff, c)

    return ModelSpec(
        n_x=4, n_theta=4, n_y=5,
        transition=transition, output=output,
        process_noise_cov=np.diag(process_noise_std ** 2),
        measurement_noise_cov=np.diag(measurement_noise_std ** 2),
        param_domain=HEALTH_DOMAIN,
    )
