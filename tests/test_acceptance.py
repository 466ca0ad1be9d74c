"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, asserts the
stated tolerance, and emits a single PASS/FAIL summary line on the real
stdout so the outcome survives pytest's capture.
"""
from __future__ import annotations

import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dualpf import cli, dual, harness, synthetic
from dualpf.baselines import EFCostModel, ef_complexity, match_particle_budget
from dualpf.diagnosis import ConfusionMatrix, confusion_metrics
from dualpf.errors import DualPFError
from dualpf.gas_turbine import (
    compressor_flow,
    derivatives,
    nominal_constants,
    outputs,
    turbine_flow,
)
from dualpf.harness import RunConfig
from dualpf.model import ModelSpec, ParamDomain, simulate
from dualpf.param_filter import ParamFilterConfig, evolve, init_param_filter
from dualpf.smc import (
    ParticleEnsemble,
    RegularizationConfig,
    as_rng,
    regular_grid,
    regularize,
    resample_bootstrap,
    resample_residual,
)
from dualpf.state_filter import StateFilterConfig, init_state_filter
from dualpf import state_filter


def _report(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})",
          file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# 1. Confusion-metric reproduction of the three reference matrices
# ---------------------------------------------------------------------------

# Published 35-runs-per-category benchmark counts (rows = actual category
# eta_c, m_c, eta_t, m_t, no_fault; columns = decided category).
MATRIX_PE = np.array([
    [31, 0, 2, 2, 0],
    [0, 30, 2, 3, 0],
    [1, 1, 28, 4, 1],
    [1, 1, 3, 29, 1],
    [0, 0, 1, 1, 33],
])
MATRIX_RML = np.array([
    [28, 2, 3, 2, 0],
    [1, 27, 1, 4, 2],
    [2, 3, 26, 3, 1],
    [1, 3, 4, 26, 1],
    [0, 2, 1, 1, 31],
])
MATRIX_BAYES = np.array([
    [10, 5, 6, 4, 10],
    [9, 13, 8, 6, 9],
    [6, 6, 9, 7, 7],
    [5, 7, 8, 11, 4],
    [10, 9, 7, 4, 5],
])

EXPECTED_METRICS = {
    "pe": {"AC": 86.29, "FP": 5.71, "P_eta_c": 93.94, "P_m_c": 93.75,
           "P_eta_t": 77.78, "P_m_t": 74.36},
    "rml": {"AC": 78.86, "FP": 11.43, "P_eta_c": 87.50, "P_m_c": 72.97,
            "P_eta_t": 74.29, "P_m_t": 72.22},
    "bayes": {"AC": 25.95, "FP": 85.71, "P_eta_c": 25.00, "P_m_c": 32.50,
              "P_eta_t": 23.68, "P_m_t": 34.38},
}


def test_confusion_metrics_reproduce_reference_tables():
    mats = {"pe": MATRIX_PE, "rml": MATRIX_RML, "bayes": MATRIX_BAYES}
    t0 = time.perf_counter()
    got = {k: confusion_metrics(ConfusionMatrix(m)) for k, m in mats.items()}
    elapsed = time.perf_counter() - t0
    max_dev = 0.0
    for method, expected in EXPECTED_METRICS.items():
        for key, val in expected.items():
            max_dev = max(max_dev, abs(got[method][key] - val))
    ok = max_dev <= 0.01 and elapsed < 1e-3
    _report("confusion-metric reproduction", ok,
            f"max dev {max_dev:.4f} pp, {elapsed * 1e6:.0f} us")
    assert max_dev <= 0.01
    assert elapsed < 1e-3


# ---------------------------------------------------------------------------
# 2. Equivalent-flop polynomial fidelity
# ---------------------------------------------------------------------------

def _dual_expanded(nx, nt, ny, c1, c2, c3, N):
    return N * (3 * nx * (nx + 1) + nt * (5 * nt + 6) + ny * (2 * nt + 7)
                + (c1 + c2) * (nx + nt) + c3 * nx)


def _bayesian_expanded(nx, nt, ny, c1, c2, c3, N):
    return N * (3 * (nx + nt) ** 2 + (1 + c1 + c2 + c3) * (nx + nt) + ny)


def _rml_expanded(nx, nt, ny, c1, c2, c3, N):
    return N * (2 * nx * (nx + 1) + 4 * nt + c1 * (2 * nx + nt)
                + (c2 + c3) * nx)


def test_flop_polynomials_match_hand_expansion():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        nx, nt, ny = rng.integers(1, 13, size=3)
        c1, c2, c3 = rng.integers(1, 21, size=3)
        N = int(rng.integers(1, 500))
        cost = EFCostModel(int(nx), int(nt), int(ny),
                           float(c1), float(c2), float(c3), N=N)
        for method, fn in (("dual", _dual_expanded),
                           ("bayesian", _bayesian_expanded),
                           ("rml", _rml_expanded)):
            expect = fn(int(nx), int(nt), int(ny),
                        int(c1), int(c2), int(c3), N)
            worst = max(worst, abs(ef_complexity(method, cost) - expect))
            assert ef_complexity(method, cost) == expect

    # Per-stage dominant-term bookkeeping of the dual scheme: the
    # particle-proportional costs of the state stage and the parameter
    # stage must add up to the single per-particle polynomial.
    for _ in range(5):
        nx, nt, ny = (int(v) for v in rng.integers(1, 13, size=3))
        c1, c2, c3 = (int(v) for v in rng.integers(1, 21, size=3))
        state_stage = 3 * nx ** 2 + 3 * nx + ny + nx * (c1 + c2 + c3)
        param_stage = (5 * nt ** 2 + 6 * nt + 2 * nt * ny + 6 * ny
                       + nt * (c1 + c2))
        cost = EFCostModel(nx, nt, ny, float(c1), float(c2), float(c3), N=1)
        assert state_stage + param_stage == ef_complexity("dual", cost)

    _report("flop polynomial fidelity", True,
            f"100 tuples exact, stage sums exact, worst dev {worst}")


# ---------------------------------------------------------------------------
# 3. Linear-Gaussian oracle equivalence of the state filter
# ---------------------------------------------------------------------------

def _linear_model(a, c, q, r):
    n_x = a.shape[0]

    def transition(x, eff, w, u=None):
        return np.asarray(x, dtype=float) @ a.T + w

    def output(x, eff, u=None):
        return np.asarray(x, dtype=float) @ c.T

    return ModelSpec(n_x=n_x, n_theta=1, n_y=c.shape[0],
                     transition=transition, output=output,
                     process_noise_cov=q, measurement_noise_cov=r,
                     param_domain=ParamDomain([0.5], [1.5]))


def _kalman(a, c, q, r, m0, p0, ys):
    m, p = m0.copy(), p0.copy()
    means, stds = [], []
    for y in ys:
        m = a @ m
        p = a @ p @ a.T + q
        s = c @ p @ c.T + r
        k = p @ c.T @ np.linalg.inv(s)
        m = m + k @ (y - c @ m)
        p = (np.eye(len(m)) - k @ c) @ p
        means.append(m.copy())
        stds.append(np.sqrt(np.diag(p)))
    return np.asarray(means), np.asarray(stds)


def test_state_filter_matches_kalman_oracle():
    a = np.array([[0.95, 0.1], [0.0, 0.9]])
    c = np.eye(2)
    q = 0.1 * np.eye(2)
    r = 0.2 * np.eye(2)
    model = _linear_model(a, c, q, r)
    theta = np.ones(1)
    T, n_particles = 100, 2000
    p0 = 0.5 * np.eye(2)

    t0 = time.perf_counter()
    ratios = []
    for seed in range(20):
        rng = as_rng(seed)
        truth = np.zeros(2)
        states, ys = simulate(model, truth, np.ones((T, 1)), T, rng)
        km, ks = _kalman(a, c, q, r, np.zeros(2), p0, ys)
        sf = init_state_filter(np.zeros(2), p0,
                               StateFilterConfig(n_particles=n_particles), rng)
        err = []
        for t in range(T):
            sf = state_filter.step(sf, theta, ys[t], model, rng)
            err.append(sf.estimate - km[t])
        rmse = np.sqrt(np.mean(np.square(err)))
        ratios.append(rmse / np.mean(ks))
    elapsed = time.perf_counter() - t0
    med = float(np.median(ratios))
    ok = med < 0.1 and elapsed < 10.0
    _report("state-filter Kalman equivalence", ok,
            f"median RMSE ratio {med:.3f} (<0.1), {elapsed:.1f}s (<10s)")
    assert med < 0.1
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4. Scalar parameter tracking (convergence and fault re-convergence)
# ---------------------------------------------------------------------------

FAULT_STEP = 250
TRACK_STEPS = 560

ACCOUNTING = {"particle_steps": 0, "domain_violations": 0}


@lru_cache(maxsize=1)
def _scalar_tracking():
    config = RunConfig(
        model="scalar", estimator="dual", n_particles=50,
        duration=TRACK_STEPS, predictor="one_step", cov_mode="initial",
        theta0_std=0.01,
        scenario=harness.SyntheticFault(component=0, magnitude=0.05,
                                        start_step=FAULT_STEP),
    )
    conv, refit, steps = [], [], 0
    t0 = time.perf_counter()
    for seed in range(25):
        cfg = RunConfig(**{**config.__dict__, "seed": seed})
        cfg.scenario = config.scenario
        try:
            run = harness.run_scenario(cfg)
        except DualPFError as exc:
            if "admissible domain" in str(exc):
                ACCOUNTING["domain_violations"] += 1
            raise
        th = run["theta_hat"][:, 0]
        conv.append(abs(th[199] - 0.8) / 0.8)
        refit.append(abs(th[TRACK_STEPS - 11:].mean() - 0.76) / 0.76)
        steps += run["particle_steps"]
    ACCOUNTING["particle_steps"] += steps
    return {"conv": float(np.median(conv)), "refit": float(np.median(refit)),
            "elapsed": time.perf_counter() - t0, "particle_steps": steps}


def test_scalar_parameter_tracking():
    res = _scalar_tracking()
    ok = res["conv"] < 0.02 and res["refit"] < 0.02 and res["elapsed"] < 60
    _report("scalar parameter tracking", ok,
            f"median conv {100 * res['conv']:.2f}% at step 200, "
            f"median post-fault {100 * res['refit']:.2f}% (<2%), "
            f"{res['elapsed']:.1f}s (<60s)")
    assert res["conv"] < 0.02
    assert res["refit"] < 0.02
    assert res["elapsed"] < 60.0


# ---------------------------------------------------------------------------
# 5. Non-dispersion of the parameter evolution (variance preservation)
# ---------------------------------------------------------------------------

def test_parameter_evolution_preserves_variance():
    model = synthetic.mixed_fault_model()
    n = 10_000
    v0 = (0.02 ** 2) * np.eye(4)
    cfg = ParamFilterConfig(n_particles=n, cov_mode="initial",
                            evolution_cov=v0.copy())
    rng = as_rng(3)
    state = init_param_filter(np.full(4, 0.85), v0, model.param_domain,
                              cfg, rng)
    trace0 = float(np.trace(np.cov(state.particles.T)))
    t0 = time.perf_counter()
    for _ in range(100):
        tilde = evolve(state, np.zeros(2), np.zeros(4), model, cfg, rng,
                       force_zero_error=True)
        state.particles = tilde
        state.prev_mean = tilde.mean(axis=0)
        state.cov = np.cov(tilde.T)
    elapsed = time.perf_counter() - t0
    trace1 = float(np.trace(np.cov(state.particles.T)))
    drift = abs(trace1 - trace0) / trace0
    ok = drift < 0.10 and elapsed < 30
    _report("evolution non-dispersion", ok,
            f"variance drift {100 * drift:.2f}% over 100 steps (<10%), "
            f"{elapsed:.2f}s (<30s)")
    assert drift < 0.10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 7. Method ordering on a matched-budget mixed-fault campaign
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _campaign_results():
    cost = EFCostModel(2, 4, 4, 10.0, 10.0, 10.0)
    n_dual = min(match_particle_budget("bayesian", cost, 45),
                 match_particle_budget("rml", cost, 150))
    base = dict(model="mixed", duration=300, theta0_std=0.005, x0_std=0.1,
                persistence=10, predictor="output", cov_mode="initial")
    configs = {
        "dual": RunConfig(estimator="dual", n_particles=n_dual,
                          step_size=0.1, **base),
        "rml": RunConfig(estimator="rml", n_particles=150,
                         step_size=1e-4, **base),
        "bayesian": RunConfig(estimator="bayesian", n_particles=45, **base),
    }
    out = {"n_dual": n_dual}
    t0 = time.perf_counter()
    for name, cfg in configs.items():
        band = harness.calibrate_band(cfg, 25, 0, coverage=0.995)
        design = harness.campaign_design(n_per_category=7)
        try:
            res = harness.confusion_campaign(cfg, design, band, 1)
        except DualPFError as exc:
            if "admissible domain" in str(exc):
                ACCOUNTING["domain_violations"] += 1
            raise
        out[name] = res
    ACCOUNTING["particle_steps"] += out["dual"]["particle_steps"]
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_method_ordering_on_matched_budget_campaign():
    res = _campaign_results()
    dual_l = res["dual"]["labels"]
    rml_l = res["rml"]["labels"]
    bay_l = res["bayesian"]["labels"]

    p_dual_rml = harness.bootstrap_comparison(dual_l, rml_l,
                                              harness.accuracy_stat)
    p_rml_bay = harness.bootstrap_comparison(rml_l, bay_l,
                                             harness.accuracy_stat)
    p_fp = harness.bootstrap_comparison(rml_l, dual_l, harness.fp_stat)
    acc = {k: harness.accuracy_stat(res[k]["labels"])
           for k in ("dual", "rml", "bayesian")}
    ok = (p_dual_rml >= 0.9 and p_rml_bay >= 0.9 and p_fp >= 0.9
          and res["elapsed"] < 600)
    _report("method ordering", ok,
            f"acc dual {acc['dual']:.3f} >= rml {acc['rml']:.3f} >= "
            f"bayesian {acc['bayesian']:.3f}; bootstrap conf "
            f"{p_dual_rml:.2f}/{p_rml_bay:.2f}, fp conf {p_fp:.2f} "
            f"(all >=0.9), N_dual={res['n_dual']}, "
            f"{res['elapsed']:.0f}s (<600s)")
    assert p_dual_rml >= 0.9
    assert p_rml_bay >= 0.9
    assert p_fp >= 0.9
    assert res["elapsed"] < 600.0


# ---------------------------------------------------------------------------
# 6. Domain invariant over at least a million particle-steps
# ---------------------------------------------------------------------------

def test_domain_invariant_over_campaigns():
    # The tracking and campaign workloads above already tally their
    # particle-steps; trigger them (cached) and top up if ever short.
    _scalar_tracking()
    _campaign_results()
    top_up_seed = 10_000
    while ACCOUNTING["particle_steps"] < 1_000_000:
        cfg = RunConfig(model="mixed", estimator="dual", n_particles=50,
                        duration=300, seed=top_up_seed, theta0_std=0.005,
                        x0_std=0.1, predictor="output", cov_mode="initial")
        try:
            run = harness.run_scenario(cfg)
        except DualPFError as exc:
            if "admissible domain" in str(exc):
                ACCOUNTING["domain_violations"] += 1
            raise
        ACCOUNTING["particle_steps"] += run["particle_steps"]
        top_up_seed += 1
    ok = (ACCOUNTING["domain_violations"] == 0
          and ACCOUNTING["particle_steps"] >= 1_000_000)
    _report("parameter domain invariant", ok,
            f"{ACCOUNTING['particle_steps']:,} particle-steps, "
            f"{ACCOUNTING['domain_violations']} violations")
    assert ACCOUNTING["particle_steps"] >= 1_000_000
    assert ACCOUNTING["domain_violations"] == 0


# ---------------------------------------------------------------------------
# 8. Regularization grid and resampling statistics
# ---------------------------------------------------------------------------

def test_regularization_grid_and_resampling_statistics():
    grid, dx = regular_grid(np.array([0.0, 1.0]), 3)
    assert np.array_equal(grid, [-0.5, 0.5, 1.5])
    assert dx == 1.0

    weights = np.array([0.4, 0.3, 0.2, 0.1])
    n_seeds = 1000
    crit = stats.chi2.ppf(0.99, df=len(weights) - 1)
    chi = {}
    for name, sampler in (("bootstrap", resample_bootstrap),
                          ("residual", resample_residual)):
        counts = np.zeros(len(weights))
        ens = ParticleEnsemble(np.arange(4.0)[:, None], weights)
        for seed in range(n_seeds):
            idx = sampler(ens, as_rng(seed))
            counts += np.bincount(idx, minlength=len(weights))
        expected = n_seeds * len(weights) * weights
        chi[name] = float(np.sum((counts - expected) ** 2 / expected))
        assert chi[name] < crit

    # Mean preservation of the kernel-smoothed redraw.
    rng = as_rng(11)
    particles = rng.standard_normal((10_000, 1))
    ens = ParticleEnsemble(particles, np.full(10_000, 1e-4))
    res = regularize(ens, np.eye(1), RegularizationConfig(), rng)
    mean_dev = abs(float(res.particles.mean()))
    assert mean_dev < 0.05

    _report("regularization grid and resampling", True,
            f"grid exact, chi2 bootstrap {chi['bootstrap']:.1f} / residual "
            f"{chi['residual']:.1f} < {crit:.1f}, mean dev {mean_dev:.3f}")


# ---------------------------------------------------------------------------
# 9. Engine structural identities at random valid states
# ---------------------------------------------------------------------------

def test_engine_structural_identities():
    c, _ = nominal_constants()
    rng = as_rng(5)
    n = 1000
    states = np.column_stack([
        rng.uniform(900.0, 1600.0, n),
        rng.uniform(8000.0, 15000.0, n),
        rng.uniform(400.0, 1100.0, n),
        rng.uniform(150.0, 500.0, n),
    ])
    health = rng.uniform(0.5, 1.2, (n, 4))
    fuel = rng.uniform(0.2, 0.5, n)

    deriv = derivatives(states, health, c, fuel_flow=fuel)
    t_cc, s, p_cc, p_nlt = (states[:, i] for i in range(4))
    net_mass = (health[:, 1] * compressor_flow(s, p_cc, c) + fuel
                - health[:, 3] * turbine_flow(p_cc, t_cc, c))
    lhs = deriv[:, 2] - (p_cc / t_cc) * deriv[:, 0]
    rhs = (c.gamma * c.R * t_cc / c.V_cc) * net_mass
    rel_pressure = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0))
    assert rel_pressure < 1e-9

    ys = outputs(states, health, c)
    assert np.array_equal(ys[:, 1], p_cc)
    assert np.array_equal(ys[:, 2], s)
    assert np.array_equal(ys[:, 3], p_nlt)

    states_pd = states.copy()
    states_pd[:, 2] = c.P_d
    y_pd = outputs(states_pd, health, c)
    rel_y1 = np.max(np.abs(y_pd[:, 0] - c.T_d) / c.T_d)
    assert rel_y1 < 1e-9

    states_eq = states.copy()
    states_eq[:, 3] = states_eq[:, 2]
    y_eq = outputs(states_eq, health, c)
    rel_y5 = np.max(np.abs(y_eq[:, 4] - states_eq[:, 0]) / states_eq[:, 0])
    assert rel_y5 < 1e-9

    _report("engine structural identities", True,
            f"pressure coupling {rel_pressure:.1e}, pass-throughs exact, "
            f"vanishing terms {max(rel_y1, rel_y5):.1e} (<1e-9), {n} states")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _strip_timing(path: Path) -> bytes:
    doc = json.loads(path.read_text())
    doc.pop("elapsed_s", None)
    doc.get("config", {}).pop("output_dir", None)
    return json.dumps(doc, sort_keys=True).encode()


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        assert cli.main(["simulate", "--model", "mixed", "--duration", "50",
                         "--seed", "17", "--out", str(out)]) == 0
        pairs.append((out / "trajectory.csv").read_bytes())
    assert pairs[0] == pairs[1]

    est_pairs, rep_pairs = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"est_{tag}"
        assert cli.main(["estimate", "--model", "scalar", "--duration", "40",
                         "--n-particles", "20", "--seed", "3",
                         "--out", str(out)]) == 0
        est_pairs.append((out / "residuals.csv").read_bytes())
        rep_pairs.append(_strip_timing(out / "report.json"))
    assert est_pairs[0] == est_pairs[1]
    assert rep_pairs[0] == rep_pairs[1]

    comp_pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"comp_{tag}"
        assert cli.main(["complexity", "--out", str(out)]) == 0
        comp_pairs.append((out / "complexity.json").read_bytes())
    assert comp_pairs[0] == comp_pairs[1]
    capsys.readouterr()

    _report("CLI determinism", True,
            "simulate/estimate/complexity outputs byte-identical per seed")
