"""Command-line interface.

Subcommands: simulate, estimate, calibrate, diagnose, campaign,
complexity.  Configuration comes from flags plus an optional YAML file;
the shipped run defaults pin every run constant so repeated
invocations with the same seed are byte-identical except timing fields.
Failures exit nonzero after printing a machine-readable error JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import diagnosis, harness
from .baselines import EFCostModel, complexity_report
from .errors import ConfigError, DualPFError
from .harness import RUN_DEFAULTS, RunConfig
from .model import Fault


def _load_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            overrides.update(yaml.safe_load(fh) or {})
    for key in ("model", "estimator", "n_particles", "duration", "seed",
                "scenario", "predictor", "cov_mode", "output_dir"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    fault = overrides.pop("fault", None)
    try:
        if fault is not None:
            overrides["scenario"] = Fault(**fault)
        return RunConfig(**overrides)
    except TypeError as exc:   # unknown key or wrongly typed value
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _band_from_file(path) -> diagnosis.ThresholdBand:
    with open(path) as fh:
        doc = json.load(fh)
    return diagnosis.ThresholdBand(np.asarray(doc["lower"]),
                                   np.asarray(doc["upper"]))


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    model, states, ys, thetas, _ = harness.simulate_truth(cfg)
    outdir = Path(cfg.output_dir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    from .model import write_trajectory_csv
    write_trajectory_csv(outdir / "trajectory.csv", states, ys, thetas)
    print(f"wrote {outdir / 'trajectory.csv'} ({cfg.duration} steps)")
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    if cfg.output_dir is None:
        cfg.output_dir = "."
    run = harness.run_scenario(cfg)
    print(json.dumps(run["report"]["mae_percent"], indent=2, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    band = harness.calibrate_band(cfg, args.runs, args.base_seed,
                                  coverage=args.coverage)
    doc = {"lower": band.lower.tolist(), "upper": band.upper.tolist(),
           "coverage": args.coverage, "runs": args.runs}
    out = Path(cfg.output_dir or ".") / "band.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    if cfg.output_dir is None:
        cfg.output_dir = "."
    band = _band_from_file(args.band)
    run = harness.run_scenario(cfg, band=band)
    labels = diagnosis.CATEGORIES
    for j, d in enumerate(run["decisions"]):
        status = (f"detected at step {d.t_detect}, severity {d.severity:+.4f}"
                  if d.detected else "no fault")
        print(f"{labels[j]}: {status}")
    return 0


def cmd_campaign(args) -> int:
    cfg = _load_config(args)
    band = (_band_from_file(args.band) if args.band
            else harness.calibrate_band(cfg, args.calibration_runs,
                                        args.base_seed))
    design = harness.campaign_design(n_per_category=args.runs_per_category)
    result = harness.confusion_campaign(cfg, design, band,
                                        args.base_seed + 1)
    outdir = Path(cfg.output_dir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "confusion.csv", "w") as fh:
        fh.write("," + ",".join(diagnosis.CATEGORIES) + "\n")
        for name, row in zip(diagnosis.CATEGORIES, result["matrix"].counts):
            fh.write(name + "," + ",".join(map(str, row)) + "\n")
    with open(outdir / "aggregate.json", "w") as fh:
        json.dump({"metrics": result["metrics"],
                   "labels": result["labels"],
                   "failures": result["failures"]},
                  fh, indent=2, sort_keys=True)
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

    def common(sp):
        sp.add_argument("--config", help="YAML config file")
        sp.add_argument("--model", choices=harness.MODELS)
        sp.add_argument("--estimator", choices=harness.ESTIMATORS)
        sp.add_argument("--n-particles", dest="n_particles", type=int)
        sp.add_argument("--duration", type=int, help="steps")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--scenario")
        sp.add_argument("--predictor", choices=("output", "one_step"))
        sp.add_argument("--cov-mode", dest="cov_mode",
                        choices=("running", "initial"))
        sp.add_argument("--out", dest="output_dir")

    sp = sub.add_parser("simulate", help="simulate a truth trajectory")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("estimate", help="run an estimator on one scenario")
    common(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("calibrate", help="Monte-Carlo threshold calibration")
    common(sp)
    sp.add_argument("--runs", type=int, default=25)
    sp.add_argument("--base-seed", type=int, default=0)
    sp.add_argument("--coverage", type=float, default=RUN_DEFAULTS["coverage"])
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("diagnose", help="estimate + threshold decisions")
    common(sp)
    sp.add_argument("--band", required=True, help="band.json from calibrate")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("campaign", help="mixed-fault confusion campaign")
    common(sp)
    sp.add_argument("--band", help="band.json; calibrated if omitted")
    sp.add_argument("--calibration-runs", type=int, default=25)
    sp.add_argument("--runs-per-category", type=int, default=7)
    sp.add_argument("--base-seed", type=int, default=0)
    sp.set_defaults(func=cmd_campaign)

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
