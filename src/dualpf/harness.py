"""Scenario execution and Monte-Carlo campaigns.

Single entry points used by both the CLI and the test suite: simulate a
truth trajectory with fault injection, run one of the three estimators on
the noisy outputs, turn parameter estimates into residuals/decisions, and
aggregate campaigns into confusion matrices and MAE tables.  Every result
is returned; nothing here writes a file.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import baselines, diagnosis, dual, gas_turbine, synthetic
from .diagnosis import CATEGORIES, ConfusionMatrix
from .errors import (CalibrationError, ConfigError, DualPFError, check_int,
                     check_real)
from .model import COMPONENTS, Fault, ModelSpec, health_trajectory, simulate
from .param_filter import ParamFilterConfig, check_settings
from .smc import as_rng
from .state_filter import StateFilterConfig

ESTIMATORS = ("dual", "bayesian", "rml")
MODELS = ("scalar", "mixed", "gas_turbine")
BAND_MAX_WIDENINGS = 60
BAND_TARGET_FP = 0.04      # healthy runs allowed to raise any detection
CAMPAIGN_SEVERITIES = (0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12)
BOOTSTRAP_RESAMPLES = 2000

# All-run defaults mirroring the shipped preset configuration.
RUN_DEFAULTS = {
    "n_particles": 50,
    "n_bayesian": 45,
    "n_rml": 150,
    "shrinkage": 0.93,
    "step_size_pe": 0.9,
    "step_size_rml": 0.05,
    "coverage": 0.99,
    "persistence": 5,
    "unit_costs": {"c1": 10.0, "c2": 10.0, "c3": 10.0},
}


# The fault type of every model; the old name stays importable.
SyntheticFault = Fault


@dataclass
class RunConfig:
    model: str = "mixed"            # "scalar" | "mixed" | "gas_turbine"
    estimator: str = "dual"
    n_particles: int = RUN_DEFAULTS["n_particles"]
    duration: int = 300             # steps
    seed: int = 0
    scenario: str | Fault = "healthy"  # or a gas_turbine.SCENARIOS name
    shrinkage: float = RUN_DEFAULTS["shrinkage"]
    step_size: float | None = None  # None: the estimator's default
    predictor: str | None = None    # None: the model's default
    cov_mode: str = "initial"
    theta0_std: float = 0.05
    x0_std: float = 0.5
    persistence: int = RUN_DEFAULTS["persistence"]

    def __post_init__(self):
        for key, low in (("n_particles", 2), ("duration", 1), ("seed", 0),
                         ("persistence", 1)):
            check_int(key, getattr(self, key), low)
        for key in ("theta0_std", "x0_std"):
            width = check_real(key, getattr(self, key))
            if width < 0.0 or width * width == np.inf:
                raise ConfigError(f"{key} must be >= 0 with a finite square, "
                                  f"got {width!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.step_size is None:
            self.step_size = RUN_DEFAULTS["step_size_rml" if self.estimator
                                          == "rml" else "step_size_pe"]
        if self.predictor is None:
            # Only the mixed model's outputs carry all of theta: "output"
            # leaves the scalar theta and the engine's m_c, m_t unseen.
            self.predictor = "output" if self.model == "mixed" else "one_step"
        check_settings(self.shrinkage, self.step_size, self.predictor,
                       self.cov_mode)


def build_model(config: RunConfig) -> tuple[ModelSpec, np.ndarray]:
    """Model plus its nominal (equilibrium) initial state."""
    if config.model == "scalar":
        return synthetic.scalar_growth_model(), synthetic.scalar_equilibrium()
    if config.model == "mixed":
        return synthetic.mixed_fault_model(), synthetic.mixed_equilibrium()
    constants, x0 = gas_turbine.nominal_constants()
    return gas_turbine.engine_model(constants), x0


def _faults(config: RunConfig) -> tuple[Fault, ...]:
    """Faults of the configured scenario.  Raises ConfigError for a name the
    model does not define."""
    scen = config.scenario
    named = gas_turbine.SCENARIOS if config.model == "gas_turbine" else {}
    if isinstance(scen, Fault):
        return (scen,)
    if scen == "healthy":
        return ()
    if isinstance(scen, str) and scen in named:
        return named[scen]
    raise ConfigError(f"unknown scenario {scen!r} for model {config.model!r}")


def _theta0_for(config: RunConfig, model: ModelSpec) -> np.ndarray:
    """Healthy parameter value: the truth before any fault, the prior mean."""
    if config.model == "scalar":
        return np.array([synthetic.SCALAR_THETA])
    return np.ones(model.n_theta)


def theta_trajectory(config: RunConfig, model: ModelSpec) -> np.ndarray:
    """Per-step true health vector for the configured scenario."""
    return health_trajectory(_theta0_for(config, model), _faults(config),
                             config.duration)


def fuel_trajectory(config: RunConfig) -> np.ndarray | None:
    """Per-step fuel flow of an engine run (its FUEL_STEP excitation)."""
    if config.model != "gas_turbine":
        return None
    constants, _ = gas_turbine.nominal_constants()
    return gas_turbine.fuel_trajectory(config.duration, constants,
                                       gas_turbine.FUEL_STEP)


def simulate_truth(config: RunConfig):
    """(model, states, outputs, thetas, u) for the configured scenario."""
    model, x0 = build_model(config)
    thetas = theta_trajectory(config, model)
    u = fuel_trajectory(config)
    states, ys = simulate(model, x0, thetas, config.duration, config.seed,
                          u_trajectory=u)
    return model, states, ys, thetas, u


def run_estimator(model: ModelSpec, ys: np.ndarray, config: RunConfig,
                  seed, x0_mean: np.ndarray,
                  u_trajectory: np.ndarray | None = None) -> dict:
    """Run the configured estimator over ys; returns dense estimate arrays.

    Each estimator sets its initial state, the module and name of its step
    function and the step's arguments after (state, y); one loop runs them
    all.  The step is looked up on its module at every step, so a wrapper
    installed there sees every step.
    """
    rng = as_rng(seed)
    theta0 = _theta0_for(config, model)
    theta0_cov = (config.theta0_std ** 2) * np.eye(model.n_theta)
    x0_cov = (config.x0_std ** 2) * np.eye(model.n_x)
    n = config.n_particles
    T = ys.shape[0]
    t_start = time.perf_counter()

    if config.estimator == "dual":
        pc = ParamFilterConfig(
            n_particles=n, shrinkage=config.shrinkage,
            step_size=config.step_size, evolution_cov=theta0_cov.copy(),
            predictor=config.predictor, cov_mode=config.cov_mode)
        st = dual.init(model, x0_mean, x0_cov, theta0, theta0_cov,
                       StateFilterConfig(n), pc, rng)
        module, name, args = dual, "step", ()
    elif config.estimator == "bayesian":
        st = baselines.init_bayesian_ks(model, x0_mean, x0_cov, theta0,
                                        theta0_cov, n, rng)
        module, name = baselines, "bayesian_ks_step"
        args = (model, config.shrinkage, rng)
    else:
        st = baselines.init_rml(model, x0_mean, x0_cov, theta0, n, rng)
        module, name = baselines, "rml_spsa_step"
        args = (model, config.step_size, rng)

    theta_hat = np.empty((T, model.n_theta))
    x_hat = np.empty((T, model.n_x))
    for t in range(T):
        u = None if u_trajectory is None else u_trajectory[t]
        st = getattr(module, name)(st, ys[t], *args, u=u)
        theta_hat[t], x_hat[t] = st.theta_hat, st.x_hat
    return {"theta_hat": theta_hat, "x_hat": x_hat,
            "elapsed_s": time.perf_counter() - t_start,
            "particle_steps": n * T}


def fault_start_step(config: RunConfig) -> int | None:
    """First step at which a fault acts; None if none starts within the run."""
    return min((f.start_step for f in _faults(config)
                if f.component is not None and f.start_step < config.duration),
               default=None)


def run_scenario(config: RunConfig,
                 band: diagnosis.ThresholdBand | None = None) -> dict:
    """Single truth + estimation + diagnosis run.  A run with fewer than 2
    estimates before its fault onset (or in all) to fit the healthy baseline
    on raises ConfigError before anything is simulated."""
    start = fault_start_step(config)
    window_end = config.duration if start is None else start
    if window_end < 2:
        cause = (f"duration {config.duration} is too short" if start is None
                 else f"fault onset at step {start} is too early")
        raise ConfigError(f"{cause}: need at least 2 samples to fit a "
                          f"baseline")
    model, states, ys, thetas, u = simulate_truth(config)
    x0 = states[0]
    result = run_estimator(model, ys, config, config.seed, x0,
                           u_trajectory=u)
    theta_hat = result["theta_hat"]

    window = min(diagnosis.CONVERGENCE_WINDOW, window_end)
    baseline = diagnosis.fit_healthy_baseline(theta_hat[:window_end], window)
    residuals = diagnosis.residual(baseline, theta_hat)
    decisions = (None if band is None
                 else diagnosis.decide(residuals, band, config.persistence))
    mae = {}
    tail = slice(-diagnosis.CONVERGENCE_WINDOW, None)
    for j in range(model.n_theta):
        mae[f"theta_{j+1}"] = diagnosis.mae_percent(
            theta_hat[:, j], thetas[:, j],
            nominal=float(np.mean(np.abs(thetas[:, j])) or 1.0), window=tail)
    report = {
        "config": asdict(config),
        "mae_percent": mae,
        "elapsed_s": result["elapsed_s"],
        "baseline_theta0": baseline.theta0.tolist(),
    }
    return {"model": model, "states": states, "ys": ys, "thetas": thetas,
            "theta_hat": theta_hat, "x_hat": result["x_hat"],
            "residuals": residuals, "baseline": baseline,
            "decisions": decisions, "report": report,
            "particle_steps": result["particle_steps"]}


def seeded_runs(config: RunConfig, scenarios: list, base_seed: int,
                band: diagnosis.ThresholdBand | None = None
                ) -> tuple[list[tuple[RunConfig, dict]], list[dict]]:
    """run_scenario once per scenario, each on its own seed.

    Seeds are spawned from base_seed and the runs execute sequentially, so
    run i equals run_scenario alone at the i-th seed (see
    test_harness::TestSeededRuns).  Returns the (config, run) pairs that
    finished and a {"run": i, "error": message} entry per run that raised a
    DualPFError.  run_scenario is looked up on this module at every call,
    so a wrapper installed there sees every run.
    """
    check_int("base_seed", base_seed, 0)
    seeds = np.random.SeedSequence(base_seed).spawn(len(scenarios))
    runs, failures = [], []
    for i, (scenario, ss) in enumerate(zip(scenarios, seeds)):
        cfg = replace(config, scenario=scenario,
                      seed=int(ss.generate_state(1)[0] % (2 ** 31)))
        try:
            runs.append((cfg, run_scenario(cfg, band=band)))
        except DualPFError as exc:
            failures.append({"run": i, "error": str(exc)})
    return runs, failures


def calibrate_band(config: RunConfig, n_runs: int, base_seed: int,
                   coverage: float = RUN_DEFAULTS["coverage"]
                   ) -> diagnosis.ThresholdBand:
    """Healthy-condition Monte-Carlo threshold calibration.

    Starts from the per-step quantile envelope, then widens the band about
    its midpoint until at most BAND_TARGET_FP of the healthy calibration
    runs would raise any detection under the configured persistence rule —
    residuals are strongly autocorrelated, so the pooled envelope alone
    does not control run-level false alarms.  `coverage` is checked first;
    failed runs are dropped with a warning, or a CalibrationError if all fail.
    """
    check_int("n_runs", n_runs, 1)
    diagnosis.check_coverage(coverage)
    runs, failures = seeded_runs(config, ["healthy"] * n_runs, base_seed)
    if failures:
        note = (f"{len(failures)} of {n_runs} calibration runs failed, "
                f"first: {failures[0]['error']}")
        if not runs:
            raise CalibrationError(f"no calibration run finished: {note}")
        warnings.warn(note)
    residual_runs = [run["residuals"] for _, run in runs]
    band = diagnosis.calibrate_thresholds(residual_runs, coverage=coverage)
    mid = 0.5 * (band.lower + band.upper)
    half = 0.5 * (band.upper - band.lower)
    scale = 1.0
    for _ in range(BAND_MAX_WIDENINGS):
        cand = diagnosis.ThresholdBand(mid - scale * half, mid + scale * half)
        trips = sum(
            any(d.detected for d in diagnosis.decide(
                res, cand, config.persistence))
            for res in residual_runs)
        false_alarms = trips / len(residual_runs)
        if false_alarms <= BAND_TARGET_FP:
            return cand
        scale *= 1.1
    warnings.warn(f"target_fp {BAND_TARGET_FP} missed: {false_alarms:.3f} "
                  f"of the healthy runs still raise a detection after "
                  f"{BAND_MAX_WIDENINGS} band widenings")
    return cand


def campaign_design(n_per_category: int = 7,
                    start_step: int = 120) -> list[Fault]:
    """Mixed-fault design: n healthy runs plus n per fault component."""
    check_int("n_per_category", n_per_category, 1)
    design = [Fault() for _ in range(n_per_category)]
    for j in range(len(COMPONENTS)):
        for i in range(n_per_category):
            sev = CAMPAIGN_SEVERITIES[i % len(CAMPAIGN_SEVERITIES)]
            design.append(Fault(j, sev, start_step))
    return design


def confusion_campaign(base_config: RunConfig, design: list[Fault],
                       band: diagnosis.ThresholdBand, base_seed: int) -> dict:
    """Run the design and classify each run into the 5-way confusion matrix.

    A run that raises a DualPFError is listed under "failures" and left out
    of the matrix and the labels.
    """
    runs, failures = seeded_runs(base_config, design, base_seed, band=band)
    matrix = ConfusionMatrix()
    labels = []
    for cfg, run in runs:
        actual = ("no_fault" if fault_start_step(cfg) is None
                  else CATEGORIES[cfg.scenario.component])
        decided = diagnosis.classify(run["decisions"], band=band)
        matrix.add(actual, decided, 1)
        labels.append((actual, decided))
    return {"matrix": matrix, "labels": labels, "failures": failures,
            "metrics": diagnosis.confusion_metrics(matrix),
            "particle_steps": sum(run["particle_steps"] for _, run in runs)}


def bootstrap_comparison(labels_a: list, labels_b: list, statistic) -> float:
    """Paired bootstrap: fraction of BOOTSTRAP_RESAMPLES resamples with
    stat(a) >= stat(b); seeded, so a comparison is reproducible.  Runs are
    paired by position, so both label lists must come, in order, from one
    design: a ConfigError names the first run whose actual categories differ
    (as when the two campaigns lost different runs)."""
    if not labels_a or len(labels_a) != len(labels_b):
        raise ConfigError("paired bootstrap needs two non-empty campaigns "
                          "of equal length")
    for i, (a, b) in enumerate(zip(labels_a, labels_b)):
        if a[0] != b[0]:
            raise ConfigError(f"paired bootstrap: run {i} is {a[0]!r} in one "
                              f"campaign and {b[0]!r} in the other")
    rng = as_rng(0)
    n = len(labels_a)
    wins = 0
    for _ in range(BOOTSTRAP_RESAMPLES):
        idx = rng.integers(0, n, size=n)
        if statistic([labels_a[i] for i in idx]) >= \
                statistic([labels_b[i] for i in idx]):
            wins += 1
    return wins / BOOTSTRAP_RESAMPLES


def accuracy_stat(labels: list) -> float:
    if not labels:
        return 0.0
    return sum(a == d for a, d in labels) / len(labels)


def fp_stat(labels: list) -> float:
    healthy = [(a, d) for a, d in labels if a == "no_fault"]
    if not healthy:
        return 0.0
    return sum(d != "no_fault" for _, d in healthy) / len(healthy)
