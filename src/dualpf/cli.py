"""Command-line interface.

Subcommands: simulate, estimate, calibrate, diagnose, campaign,
complexity.  Configuration comes from flags plus an optional YAML file;
the shipped run defaults pin every run constant so repeated
invocations with the same seed are byte-identical except timing fields.
Failures exit nonzero after printing a machine-readable error JSON.
This is the only module of the package that writes files.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import diagnosis, harness
from .baselines import EFCostModel, complexity_report
from .errors import ConfigError, DualPFError, check_real
from .harness import RUN_DEFAULTS, RunConfig
from .model import Fault
from .param_filter import COV_MODES, PREDICTORS


def _load_config(args) -> tuple[RunConfig, Path]:
    """RunConfig from the YAML file and the flags, which win (--scenario over
    a `fault:` stanza too), and the output directory (--out or the YAML
    `output_dir:` key, default ".")."""
    doc = None
    if args.config:
        try:
            with open(args.config, "rb") as fh:
                doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {args.config}: {exc}") from exc
    overrides = {} if doc is None else doc
    if not isinstance(overrides, dict):
        raise ConfigError(f"{args.config} does not hold a YAML mapping")
    if "scenario" in overrides and "fault" in overrides:
        raise ConfigError(f"{args.config} sets both scenario and fault")
    if args.scenario is not None:
        overrides.pop("fault", None)
    for key in ("model", "estimator", "n_particles", "duration", "seed",
                "scenario", "predictor", "cov_mode", "output_dir"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    fault = overrides.pop("fault", None)
    outdir = overrides.pop("output_dir", None) or "."
    try:
        if fault is not None:
            overrides["scenario"] = Fault(**fault)
        return RunConfig(**overrides), Path(outdir)
    except TypeError as exc:   # unknown key or wrongly typed value
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _band_from_file(path, cfg: RunConfig) -> diagnosis.ThresholdBand:
    """The band of a band.json, checked against the configured model: a
    JSON object whose "lower" and "upper" lists hold n_theta finite reals."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not JSON: {exc}") from exc
    keys = ("lower", "upper")
    if not (isinstance(doc, dict)
            and all(isinstance(doc.get(key), list) for key in keys)):
        raise ConfigError(f'{path} needs "lower" and "upper" lists of numbers')
    band = diagnosis.ThresholdBand(
        *([check_real(f"{path} {key}", v) for v in doc[key]] for key in keys))
    n_theta = harness.build_model(cfg)[0].n_theta
    if band.lower.shape != (n_theta,):
        raise ConfigError(f"{path} holds a {band.lower.size}-component band; "
                          f"model {cfg.model!r} has n_theta = {n_theta}")
    return band


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _write_csv(path: Path, **columns: np.ndarray) -> None:
    """One row per step t = 1..T: t, then row t - 1 of each (T, k) array as
    columns name_1..name_k, floats by repr."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{name}_{i + 1}"
                                 for name, a in columns.items()
                                 for i in range(a.shape[1])])
        for t, row in enumerate(np.hstack(list(columns.values())), start=1):
            writer.writerow([t] + [repr(float(v)) for v in row])


def _write_run(outdir: Path, run: dict) -> None:
    """trajectory.csv, residuals.csv and the run's report.json.  Row t of
    trajectory.csv holds state x_t, the output measured on it and the
    parameter of step t."""
    _write_csv(outdir / "trajectory.csv", x=run["states"][1:], y=run["ys"],
               theta=run["thetas"])
    _write_csv(outdir / "residuals.csv", r=run["residuals"])
    _write_json(outdir / "report.json", run["report"])


def cmd_simulate(args) -> int:
    cfg, outdir = _load_config(args)
    _, states, ys, thetas, _ = harness.simulate_truth(cfg)
    _write_csv(outdir / "trajectory.csv", x=states[1:], y=ys, theta=thetas)
    print(f"wrote {outdir / 'trajectory.csv'} ({cfg.duration} steps)")
    return 0


def cmd_estimate(args) -> int:
    cfg, outdir = _load_config(args)
    run = harness.run_scenario(cfg)
    _write_run(outdir, run)
    print(json.dumps(run["report"]["mae_percent"], indent=2, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    cfg, outdir = _load_config(args)
    band = harness.calibrate_band(cfg, args.runs, args.base_seed,
                                  coverage=args.coverage)
    _write_json(outdir / "band.json",
                {"lower": band.lower.tolist(), "upper": band.upper.tolist(),
                 "coverage": args.coverage, "runs": args.runs})
    print(f"wrote {outdir / 'band.json'}")
    return 0


def cmd_diagnose(args) -> int:
    cfg, outdir = _load_config(args)
    band = _band_from_file(args.band, cfg)
    run = harness.run_scenario(cfg, band=band)
    _write_run(outdir, run)
    for name, d in zip(diagnosis.CATEGORIES, run["decisions"]):
        status = (f"detected at step {d.t_detect}, severity {d.severity:+.4f}"
                  if d.detected else "no fault")
        print(f"{name}: {status}")
    return 0


def cmd_campaign(args) -> int:
    cfg, outdir = _load_config(args)
    n_theta = harness.build_model(cfg)[0].n_theta
    design = [f for f in harness.campaign_design(args.runs_per_category)
              if f.component is None or f.component < n_theta]
    band = (_band_from_file(args.band, cfg) if args.band
            else harness.calibrate_band(cfg, args.calibration_runs,
                                        args.base_seed))
    result = harness.confusion_campaign(cfg, design, band,
                                        args.base_seed + 1)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "confusion.csv", "w") as fh:
        fh.write("," + ",".join(diagnosis.CATEGORIES) + "\n")
        for name, row in zip(diagnosis.CATEGORIES, result["matrix"].counts):
            fh.write(name + "," + ",".join(map(str, row)) + "\n")
    _write_json(outdir / "aggregate.json",
                {"metrics": result["metrics"], "labels": result["labels"],
                 "failures": result["failures"]})
    print(json.dumps(result["metrics"], indent=2, sort_keys=True))
    return 0


def cmd_complexity(args) -> int:
    cost = EFCostModel(args.n_x, args.n_theta, args.n_y,
                       args.c1, args.c2, args.c3)
    doc = complexity_report(cost, args.n_dual, args.n_bayesian, args.n_rml)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "complexity.json").write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dualpf",
        description="Dual particle-filter estimation and fault diagnosis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(name, summary, func):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="YAML config file")
        sp.add_argument("--model", choices=harness.MODELS)
        sp.add_argument("--estimator", choices=harness.ESTIMATORS)
        sp.add_argument("--n-particles", dest="n_particles", type=int)
        sp.add_argument("--duration", type=int, help="steps")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--scenario")
        sp.add_argument("--predictor", choices=PREDICTORS)
        sp.add_argument("--cov-mode", dest="cov_mode", choices=COV_MODES)
        sp.add_argument("--out", dest="output_dir")
        sp.set_defaults(func=func)
        return sp

    common("simulate", "simulate a truth trajectory", cmd_simulate)
    common("estimate", "run an estimator on one scenario", cmd_estimate)

    sp = common("calibrate", "Monte-Carlo threshold calibration", cmd_calibrate)
    sp.add_argument("--runs", type=int, default=25)
    sp.add_argument("--base-seed", type=int, default=0)
    sp.add_argument("--coverage", type=float, default=RUN_DEFAULTS["coverage"])

    sp = common("diagnose", "estimate + threshold decisions", cmd_diagnose)
    sp.add_argument("--band", required=True, help="band.json from calibrate")

    sp = common("campaign", "mixed-fault confusion campaign", cmd_campaign)
    sp.add_argument("--band", help="band.json; calibrated if omitted")
    sp.add_argument("--calibration-runs", type=int, default=25)
    sp.add_argument("--runs-per-category", type=int, default=7)
    sp.add_argument("--base-seed", type=int, default=0)

    sp = sub.add_parser("complexity", help="equivalent-flop report")
    sp.add_argument("--n-x", type=int, default=4)
    sp.add_argument("--n-theta", type=int, default=4)
    sp.add_argument("--n-y", type=int, default=5)
    sp.add_argument("--c1", type=float, default=RUN_DEFAULTS["unit_costs"]["c1"])
    sp.add_argument("--c2", type=float, default=RUN_DEFAULTS["unit_costs"]["c2"])
    sp.add_argument("--c3", type=float, default=RUN_DEFAULTS["unit_costs"]["c3"])
    sp.add_argument("--n-dual", type=int, default=RUN_DEFAULTS["n_particles"])
    sp.add_argument("--n-bayesian", type=int,
                    default=RUN_DEFAULTS["n_bayesian"])
    sp.add_argument("--n-rml", type=int, default=RUN_DEFAULTS["n_rml"])
    sp.add_argument("--out", dest="output_dir")
    sp.set_defaults(func=cmd_complexity)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DualPFError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
