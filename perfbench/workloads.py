"""One benchmark workload, run in its own process by `run.py`.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --mode {run,setup,trace} --t0 MONOTONIC [--out DIR]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so set-up time includes interpreter start and imports.  Modes:

- `setup`: stop at the first estimator step and report set-up time only;
- `run`: the untraced measurement, which gives the end-to-end metrics;
- `trace`: the same work once untraced and once under the span tracer,
  which gives the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings
from collections import Counter

import numpy as np

from dualpf import baselines, dual, harness
from dualpf.baselines import EFCostModel, match_particle_budget
from dualpf.diagnosis import mae_percent
from dualpf.errors import DualPFError
from dualpf.harness import RunConfig, SyntheticFault
from dualpf.param_filter import ParamFilterConfig
from dualpf.state_filter import StateFilterConfig

from tracer import Tracer

FALLBACK_WARNING = "explicit Euler fallback"

# mixed-campaign: the matched-budget comparison of the acceptance suite,
# with a smaller calibration set and design so one round fits a run.
CAMPAIGN_BASE = dict(model="mixed", duration=300, theta0_std=0.005,
                     x0_std=0.1, persistence=10, predictor="output",
                     cov_mode="initial")
CAMPAIGN_CAL_RUNS = 10
CAMPAIGN_PER_CATEGORY = 1
CAMPAIGN_MAX_ROUNDS = 16

# Online workloads: the quality window and the p99 both need the first
# QUALITY_STEPS steps, so a run never stops before them.
QUALITY_STEPS = 1000
MAE_WINDOW = 600
TRACE_OVERHEAD_STEPS = 200
TRACE_BLOCK_STEPS = 20
PROBE_STEPS = 20

ONLINE = {
    "engine-scenario-i": dict(
        config=dict(model="gas_turbine", scenario="scenario_I_concurrent",
                    predictor="one_step"),
        n_particles=50, step_size=harness.RUN_DEFAULTS["step_size_pe"],
        max_steps=QUALITY_STEPS),
    "mixed-large-n": dict(
        config=dict(model="mixed", theta0_std=0.005, x0_std=0.1,
                    predictor="output", cov_mode="initial",
                    scenario=SyntheticFault(component=0, magnitude=0.08,
                                            start_step=300)),
        n_particles=5000, step_size=0.1, max_steps=4000),
}
WORKLOADS = ("mixed-campaign",) + tuple(ONLINE)


class SetupDone(Exception):
    """Raised at the first estimator step in `setup` mode."""


class Context:
    def __init__(self, args):
        self.args = args
        self.first_step: float | None = None
        self.failures: Counter = Counter()
        self.checks: list[dict] = []

    def mark_step(self):
        if self.first_step is None:
            self.first_step = time.monotonic()
            if self.args.mode == "setup":
                raise SetupDone

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_history(self, label: str, theta_hat, steps: int, domain):
        theta_hat = np.asarray(theta_hat)
        self.check(f"{label}: history rows == steps",
                   theta_hat.shape[0] == steps,
                   f"{theta_hat.shape[0]} rows for {steps} steps")
        finite = bool(np.all(np.isfinite(theta_hat)))
        inside = finite and bool(np.all(domain.contains(theta_hat)))
        self.check(f"{label}: theta_hat finite and in domain",
                   finite and inside)


def seeds(seed_seq: np.random.SeedSequence, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in seed_seq.spawn(n)]


class patched:
    """Replace owner.attr with make(current) for the `with` block."""

    def __init__(self, owner, attr, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.make(self.original))

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def counted_fallbacks(caught) -> int:
    return sum(FALLBACK_WARNING in str(w.message) for w in caught)


# --------------------------------------------------------------------------
# mixed-campaign
# --------------------------------------------------------------------------

def campaign_configs() -> dict[str, RunConfig]:
    unit = harness.RUN_DEFAULTS["unit_costs"]
    cost = EFCostModel(2, 4, 4, unit["c1"], unit["c2"], unit["c3"])
    n_dual = min(match_particle_budget("bayesian", cost, 45),
                 match_particle_budget("rml", cost, 150))
    return {
        "dual": RunConfig(estimator="dual", n_particles=n_dual,
                          step_size=0.1, **CAMPAIGN_BASE),
        "bayesian": RunConfig(estimator="bayesian", n_particles=45,
                              **CAMPAIGN_BASE),
        "rml": RunConfig(estimator="rml", n_particles=150, step_size=1e-4,
                         **CAMPAIGN_BASE),
    }


def campaign_round(ctx, configs, cal_seed: int, design_seed: int) -> dict:
    """One calibrate + confusion campaign per estimator, common seeds."""
    design = harness.campaign_design(n_per_category=CAMPAIGN_PER_CATEGORY)
    planned = CAMPAIGN_CAL_RUNS + len(design)
    out = {}
    for name, cfg in configs.items():
        runs: list[dict] = []
        raised: Counter = Counter()
        step_ms: list[float] = []

        def hook_run(original):
            def run_scenario(config, band=None):
                try:
                    result = original(config, band=band)
                except DualPFError as exc:
                    raised[type(exc).__name__] += 1
                    raise
                runs.append({"theta_hat": result["theta_hat"],
                             "steps": config.duration,
                             "n": config.n_particles,
                             "mae": result["report"]["mae_percent"]})
                return result
            return run_scenario

        def hook_step(original):
            def step(*args, **kwargs):
                ctx.mark_step()
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                step_ms.append(1e3 * (time.perf_counter() - t0))
                return result
            return step

        res = None
        t0 = time.perf_counter()
        with patched(harness, "run_scenario", hook_run), \
                patched(dual, "step", hook_step), \
                patched(baselines, "bayesian_ks_step", hook_step), \
                patched(baselines, "rml_spsa_step", hook_step):
            try:
                band = harness.calibrate_band(cfg, CAMPAIGN_CAL_RUNS,
                                              cal_seed, coverage=0.995)
                res = harness.confusion_campaign(cfg, design, band,
                                                 design_seed)
            except DualPFError as exc:
                if not raised:
                    raised[type(exc).__name__] += 1
        wall = time.perf_counter() - t0
        failed = planned - len(runs)
        not_run = failed - sum(raised.values())
        if not_run > 0:
            raised["aborted"] += not_run
        out[name] = {"wall_s": wall, "runs": runs, "planned": planned,
                     "failed": failed, "raised": raised, "result": res,
                     "step_ms": step_ms, "design": design}
    return out


def check_campaign(ctx, configs, rnd: dict, tag: str):
    domain = harness.build_model(configs["dual"])[0].param_domain
    for name, r in rnd.items():
        for i, run in enumerate(r["runs"]):
            ctx.check_history(f"{tag} {name} run {i}", run["theta_hat"],
                              run["steps"], domain)
        res = r["result"]
        if res is None:
            continue
        labels, m = res["labels"], res["metrics"]
        acc = 100.0 * harness.accuracy_stat(labels)
        fp = 100.0 * harness.fp_stat(labels)
        ctx.check(f"{tag} {name}: labels cover the design",
                  len(labels) == len(r["design"])
                  and int(res["matrix"].counts.sum()) == len(r["design"]))
        ctx.check(f"{tag} {name}: accuracy recomputed from labels",
                  abs(acc - m["AC"]) < 1e-9, f"{acc} vs {m['AC']}")
        ctx.check(f"{tag} {name}: false positives recomputed from labels",
                  m["FP"] is not None and abs(fp - m["FP"]) < 1e-9,
                  f"{fp} vs {m['FP']}")


def campaign_metrics(rounds: list[dict]) -> dict:
    first = rounds[0]
    step_ms = np.concatenate([r[name]["step_ms"] for r in rounds for name in r])
    wall = sum(r[name]["wall_s"] for r in rounds for name in r)
    particle_steps = sum(run["n"] * run["steps"]
                         for r in rounds for name in r for run in r[name]["runs"])
    planned = sum(r[name]["planned"] for r in rounds for name in r)
    failed = sum(r[name]["failed"] for r in rounds for name in r)
    dual_mae = [np.mean(list(run["mae"].values()))
                for run in first["dual"]["runs"]]
    m = {
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p99": float(np.percentile(step_ms, 99)),
        "step_samples": int(step_ms.size),
        "particle_steps_per_s": particle_steps / wall,
        "theta_mae_pct": float(np.median(dual_mae)) if dual_mae else None,
        "run_failure_pct": 100.0 * failed / planned,
        "runs_attempted": planned,
        "runs_failed": failed,
        "rounds": len(rounds),
    }
    for name in first:
        m[f"wall_s.{name}"] = float(np.median([r[name]["wall_s"] for r in rounds]))
        m[f"step_ms_p50.{name}"] = float(np.median(np.concatenate(
            [r[name]["step_ms"] for r in rounds])))
        res = first[name]["result"]
        if res is not None:
            m[f"fdi_accuracy_pct.{name}"] = res["metrics"]["AC"]
            if name == "dual":
                m["fdi_false_positive_pct.dual"] = res["metrics"]["FP"]
    return m


def run_campaign(ctx) -> dict:
    args = ctx.args
    configs = campaign_configs()
    round_seeds = [seeds(ss, 2) for ss in
                   np.random.SeedSequence(args.seed).spawn(CAMPAIGN_MAX_ROUNDS + 1)]
    probe_seed = round_seeds.pop()[0]

    if args.mode == "trace":
        return trace_campaign(ctx, configs, round_seeds[0])

    rounds = []
    start = time.perf_counter()
    while len(rounds) < CAMPAIGN_MAX_ROUNDS and (
            not rounds or time.perf_counter() - start < args.seconds):
        rounds.append(campaign_round(ctx, configs, *round_seeds[len(rounds)]))
    measured_s = time.perf_counter() - start
    rss = peak_rss_mb()
    for i, rnd in enumerate(rounds):
        check_campaign(ctx, configs, rnd, f"round {i}")
        for r in rnd.values():
            ctx.failures.update(r["raised"])
    probe_campaign(ctx, configs["dual"], probe_seed)
    metrics = campaign_metrics(rounds)
    metrics.update(measured_s=measured_s, peak_rss_mb=rss)
    return metrics


def probe_campaign(ctx, cfg: RunConfig, probe_seed: int):
    short = RunConfig(**{**cfg.__dict__, "duration": 2 * PROBE_STEPS,
                         "seed": probe_seed % 2 ** 31})
    a = harness.run_scenario(short)["theta_hat"]
    b = harness.run_scenario(short)["theta_hat"]
    ctx.check("determinism probe: bit-identical theta_hat",
              a.shape == b.shape and a.tobytes() == b.tobytes())


def trace_campaign(ctx, configs, round_seed: list[int]) -> dict:
    """Each estimator's campaign untraced, then traced, back to back.

    Pairing the passes per estimator keeps them seconds apart, so a
    change in machine speed between them skews the overhead less.
    """
    tracer = Tracer()
    untraced, traced = {}, {}
    untraced_s = traced_s = 0.0
    for name, cfg in configs.items():
        t0 = time.perf_counter()
        untraced.update(campaign_round(ctx, {name: cfg}, *round_seed))
        untraced_s += time.perf_counter() - t0
        tracer.install(observers())
        try:
            t0 = time.perf_counter()
            traced.update(campaign_round(ctx, {name: cfg}, *round_seed))
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ctx.failures.update(traced[name]["raised"])
    check_campaign(ctx, configs, untraced, "untraced")
    check_campaign(ctx, configs, traced, "traced")
    for name in untraced:
        a = [r["theta_hat"].tobytes() for r in untraced[name]["runs"]]
        b = [r["theta_hat"].tobytes() for r in traced[name]["runs"]]
        ctx.check(f"{name}: traced run reproduces untraced theta_hat", a == b)
    layers = layer_metrics(tracer, ctx, traced_s, untraced_s)
    decide_in_cal = tracer.edge("harness.calibrate_band", "diagnosis.decide")
    layers["diagnosis.band_widenings"] = max(
        decide_in_cal / CAMPAIGN_CAL_RUNS
        - tracer.count("harness.calibrate_band"), 0)
    write_trace(tracer, ctx, layers)
    return {"per_layer": layers,
            "runs_attempted": sum(r["planned"] for r in traced.values()),
            "runs_failed": sum(r["failed"] for r in traced.values())}


# --------------------------------------------------------------------------
# Online workloads: engine-scenario-i and mixed-large-n
# --------------------------------------------------------------------------

def online_setup(spec, truth_seed: int, est_seed: int, steps: int):
    cfg = RunConfig(estimator="dual", n_particles=spec["n_particles"],
                    duration=steps, seed=truth_seed, **spec["config"])
    model, states, ys, thetas, u = harness.simulate_truth(cfg)
    theta0_cov = (cfg.theta0_std ** 2) * np.eye(model.n_theta)
    pc = ParamFilterConfig(
        n_particles=cfg.n_particles, shrinkage=cfg.shrinkage,
        step_size=spec["step_size"], evolution_cov=theta0_cov.copy(),
        predictor=cfg.predictor, cov_mode=cfg.cov_mode)
    est = dual.init(model, states[0], (cfg.x0_std ** 2) * np.eye(model.n_x),
                    np.ones(model.n_theta), theta0_cov,
                    StateFilterConfig(n_particles=cfg.n_particles), pc,
                    np.random.default_rng(est_seed))
    return est, ys, thetas, u


def online_loop(ctx, est, ys, u, min_steps: int, seconds: float) -> dict:
    """Closed loop: one dual.step per observation, each step timed."""
    step_ms = []
    sig = Counter()
    error = None
    start = time.perf_counter()
    for t in range(ys.shape[0]):
        if t >= min_steps and time.perf_counter() - start >= seconds:
            break
        ctx.mark_step()
        t0 = time.perf_counter()
        try:
            dual.step(est, ys[t], u=None if u is None else u[t])
        except DualPFError as exc:
            error = exc
            break
        step_ms.append(1e3 * (time.perf_counter() - t0))
        sig["degenerate_steps"] += est.state.degenerate
        sig["passthrough_dims"] += len(est.state.passthrough_dims)
        sig["ess_state_sum"] += est.state.ess
        sig["ess_param_sum"] += est.params.ess
    return {"step_ms": np.asarray(step_ms), "wall_s": time.perf_counter() - start,
            "signals": sig, "error": error}


def tail_mae(est, thetas, end: int) -> float:
    theta_hat = dual.history_arrays(est.history)["theta_hat"]
    window = slice(max(end - MAE_WINDOW, 0), end)
    return float(np.mean([
        mae_percent(theta_hat[window, j], thetas[window, j],
                    nominal=float(np.mean(np.abs(thetas[window, j]))))
        for j in range(thetas.shape[1])]))


def run_online(ctx) -> dict:
    args = ctx.args
    spec = ONLINE[args.workload]
    truth_seed, est_seed, probe_seed = seeds(np.random.SeedSequence(args.seed), 3)
    truth_seed %= 2 ** 31
    if args.mode == "trace":
        return trace_online(ctx, spec, truth_seed, est_seed)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est, ys, thetas, u = online_setup(spec, truth_seed, est_seed,
                                          spec["max_steps"])
        loop = online_loop(ctx, est, ys, u, QUALITY_STEPS, args.seconds)
        rss = peak_rss_mb()
    steps = len(loop["step_ms"])
    if loop["error"] is not None:
        ctx.failures[type(loop["error"]).__name__] += 1
    theta_hat = dual.history_arrays(est.history)["theta_hat"]
    ctx.check_history("online run", theta_hat, steps,
                      est.model.param_domain)
    probe_online(ctx, spec, probe_seed)

    lat = loop["step_ms"]
    sig = loop["signals"]
    n = spec["n_particles"]
    return {
        "step_ms_p50": float(np.percentile(lat, 50)) if steps else None,
        "step_ms_p99": float(np.percentile(lat, 99)) if steps else None,
        "step_samples": steps,
        "particle_steps_per_s": n * steps / loop["wall_s"],
        "theta_mae_pct": tail_mae(est, thetas, min(steps, QUALITY_STEPS))
        if steps else None,
        "run_failure_pct": 100.0 * (loop["error"] is not None),
        "runs_attempted": 1,
        "runs_failed": int(loop["error"] is not None),
        "measured_s": loop["wall_s"],
        "peak_rss_mb": rss,
        "signals": {
            "degenerate_steps": int(sig["degenerate_steps"]),
            "passthrough_dims": int(sig["passthrough_dims"]),
            "ess_state_mean": sig["ess_state_sum"] / max(steps, 1),
            "ess_param_mean": sig["ess_param_sum"] / max(steps, 1),
            "explicit_fallbacks": counted_fallbacks(caught),
        },
    }


def probe_online(ctx, spec, probe_seed: int):
    truth_seed, est_seed = seeds(np.random.SeedSequence(probe_seed), 2)
    runs = []
    for _ in range(2):
        est, ys, _, u = online_setup(spec, truth_seed % 2 ** 31,
                                     est_seed, PROBE_STEPS)
        dual.run(est, ys, u_trajectory=u)
        runs.append(dual.history_arrays(est.history)["theta_hat"].tobytes())
    ctx.check("determinism probe: bit-identical theta_hat", runs[0] == runs[1])


def trace_online(ctx, spec, truth_seed: int, est_seed: int) -> dict:
    """QUALITY_STEPS traced steps; the first TRACE_OVERHEAD_STEPS of them
    alternate, block by block, with the same steps of an untraced copy of
    the estimator, so both passes see the same machine speed."""
    tracer = Tracer()
    fallbacks = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install(observers())
        try:
            est, ys, thetas, u = online_setup(spec, truth_seed, est_seed,
                                              QUALITY_STEPS)
        finally:
            tracer.uninstall()
        fallbacks += counted_fallbacks(caught)
        plain, _, _, _ = online_setup(spec, truth_seed, est_seed, QUALITY_STEPS)
        untraced_ms = traced_ms = 0.0
        error = None
        for lo in range(0, QUALITY_STEPS, TRACE_BLOCK_STEPS):
            hi = lo + TRACE_BLOCK_STEPS
            block = (ys[lo:hi], None if u is None else u[lo:hi],
                     TRACE_BLOCK_STEPS, 0.0)
            if lo < TRACE_OVERHEAD_STEPS:
                loop = online_loop(ctx, plain, *block)
                untraced_ms += float(np.sum(loop["step_ms"]))
            seen = len(caught)
            tracer.install(observers())
            try:
                loop = online_loop(ctx, est, *block)
            finally:
                tracer.uninstall()
            fallbacks += counted_fallbacks(caught[seen:])
            if lo < TRACE_OVERHEAD_STEPS:
                traced_ms += float(np.sum(loop["step_ms"]))
            if loop["error"] is not None:
                error = loop["error"]
                ctx.failures[type(error).__name__] += 1
                break
    steps = len(est.history)
    theta_hat = dual.history_arrays(est.history)["theta_hat"]
    ctx.check_history("traced run", theta_hat, steps, est.model.param_domain)
    n_cmp = min(len(plain.history), steps)
    plain_theta = dual.history_arrays(plain.history)["theta_hat"]
    ctx.check("traced run reproduces untraced theta_hat",
              plain_theta[:n_cmp].tobytes() == theta_hat[:n_cmp].tobytes())
    layers = layer_metrics(tracer, ctx, traced_ms, untraced_ms)
    layers["gas_turbine.explicit_fallbacks"] = fallbacks
    write_trace(tracer, ctx, layers)
    return {"per_layer": layers, "runs_attempted": 1,
            "runs_failed": int(error is not None)}


# --------------------------------------------------------------------------
# Per-layer metrics from a traced run
# --------------------------------------------------------------------------

CALLS_AND_SELF = (
    "gas_turbine.implicit_euler_step", "gas_turbine.derivatives",
    "smc.regularize", "smc.likelihood_weights", "smc.sample_gaussian",
    "smc.cov_factor", "smc.resample_residual", "param_filter.project_step",
    "dual.step", "baselines.bayesian_ks_step", "baselines.rml_spsa_step",
    "baselines.spsa_gradient", "diagnosis.fit_healthy_baseline",
    "diagnosis.calibrate_thresholds", "diagnosis.decide", "diagnosis.classify",
)
SELF_ONLY = (
    "model.simulate", "state_filter.step", "state_filter.predict",
    "state_filter.update", "param_filter.evolve", "param_filter.update",
    "param_filter.output_jacobian", "param_filter.prediction_error",
    "harness.simulate_truth", "harness.run_estimator", "harness.run_scenario",
    "harness.calibrate_band", "harness.confusion_campaign",
)
CALLS_ONLY = ("model.step_state", "model.measure",
              "param_filter.predicted_outputs", "smc.eigh")
FAILURE_TYPES = ("DualPFError", "DegenerateWeightsError",
                 "FilterDivergenceError", "PhysicalDomainError",
                 "IntegrationError", "CovarianceError", "CalibrationError",
                 "aborted")


def observers() -> dict:
    """Signals read from the state objects the library returns."""
    def state_step(tr, args, kwargs, result):
        tr.signals["state_filter.degenerate_steps"] += result.degenerate
        tr.signals["state_filter.ess_sum"] += result.ess

    def regularize(tr, args, kwargs, result):
        tr.signals["smc.regularize.passthrough_dims"] += len(result.passthrough_dims)

    def param_update(tr, args, kwargs, result):
        tr.signals["param_filter.ess_sum"] += result.ess

    def rml_step(tr, args, kwargs, result):
        tr.signals["baselines.rml_skipped_steps"] += (
            result.skipped_steps - args[0].skipped_steps)

    return {"state_filter.step": state_step, "smc.regularize": regularize,
            "param_filter.update": param_update,
            "baselines.rml_spsa_step": rml_step}


def layer_metrics(tracer: Tracer, ctx, traced_s: float, untraced_s: float) -> dict:
    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = tracer.count(name)
        m[f"{name}.self_s"] = tracer.self_time(name)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = tracer.self_time(name)
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = tracer.count(name)
    implicit = tracer.count("gas_turbine.implicit_euler_step")
    m["gas_turbine.rhs_per_implicit_step"] = (
        tracer.edge("gas_turbine.implicit_euler_step", "gas_turbine.derivatives")
        / implicit if implicit else 0.0)
    m["gas_turbine.explicit_fallbacks"] = 0
    m["smc.regularize.passthrough_dims"] = tracer.signals["smc.regularize.passthrough_dims"]
    sf = tracer.count("state_filter.step")
    m["state_filter.degenerate_steps"] = tracer.signals["state_filter.degenerate_steps"]
    m["state_filter.ess_mean"] = tracer.signals["state_filter.ess_sum"] / sf if sf else 0.0
    proj = tracer.count("param_filter.project_step")
    m["param_filter.box_checks_per_projection"] = (
        tracer.edge("param_filter.project_step", "model.ParamDomain.contains")
        / proj if proj else 0.0)
    pu = tracer.count("param_filter.update")
    m["param_filter.ess_mean"] = tracer.signals["param_filter.ess_sum"] / pu if pu else 0.0
    m["baselines.rml_skipped_steps"] = tracer.signals["baselines.rml_skipped_steps"]
    m["diagnosis.band_widenings"] = 0
    m["harness.runs_failed"] = sum(ctx.failures.values())
    for kind in FAILURE_TYPES:
        m[f"harness.runs_failed.{kind}"] = ctx.failures[kind]
    m["bench.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return m


def write_trace(tracer: Tracer, ctx, layers: dict):
    args = ctx.args
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}")
    tracer.write(stem + ".npz")
    with open(stem + ".json", "w") as fh:
        json.dump({"per_layer": layers, "spans": tracer.summary(),
                   "failures": dict(ctx.failures)}, fh, indent=1, sort_keys=True)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", default=os.path.join("perfbench", "out"))
    args = p.parse_args(argv)
    ctx = Context(args)
    runner = run_campaign if args.workload == "mixed-campaign" else run_online
    try:
        result = runner(ctx)
    except SetupDone:
        result = {}
    if ctx.first_step is not None:
        result["setup_s"] = ctx.first_step - args.t0
    result["failures"] = dict(ctx.failures)
    result["checks"] = ctx.checks
    result["env"] = environment()
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
