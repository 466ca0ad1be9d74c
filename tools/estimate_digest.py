"""MD5 digests of the library's estimates, for checking that a refactor
changes no bit of any estimate.

    python tools/estimate_digest.py

Run from the root of a checkout; the library is imported from `src/`.
Prints one line per `harness.run_scenario` config: 3 models x 3 estimators
x 2 predictors at N = 30, seed 3, 300 steps (the engine on
`scenario_I_concurrent`), each with the MD5 of its theta_hat and x_hat
bytes, or the error it raised.  Then one line with the MD5 of a 4-run
mixed-model `calibrate_band` and the labels of a `campaign_design(1)`
confusion round against that band.  Run it on two commits and diff the
output: equal lines mean bit-identical estimates.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualpf.errors import DualPFError  # noqa: E402
from dualpf.harness import (ESTIMATORS, MODELS, RunConfig,  # noqa: E402
                            calibrate_band, campaign_design,
                            confusion_campaign, run_scenario)
from dualpf.param_filter import PREDICTORS  # noqa: E402

N_PARTICLES = 30
SEED = 3
DURATION = 300
CALIBRATION_RUNS = 4


def md5(*arrays: np.ndarray) -> str:
    digest = hashlib.md5()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def scenario_lines():
    for model in MODELS:
        scenario = ("scenario_I_concurrent" if model == "gas_turbine"
                    else "healthy")
        for estimator in ESTIMATORS:
            for predictor in PREDICTORS:
                cfg = RunConfig(model=model, estimator=estimator,
                                n_particles=N_PARTICLES, duration=DURATION,
                                seed=SEED, scenario=scenario,
                                predictor=predictor)
                try:
                    run = run_scenario(cfg)
                    result = md5(run["theta_hat"], run["x_hat"])
                except DualPFError as exc:
                    result = f"{type(exc).__name__}: {exc}"
                yield f"{model} {estimator} {predictor}: {result}"


def campaign_line() -> str:
    cfg = RunConfig(model="mixed", n_particles=N_PARTICLES,
                    duration=DURATION, seed=SEED)
    band = calibrate_band(cfg, CALIBRATION_RUNS, base_seed=SEED)
    out = confusion_campaign(cfg, campaign_design(1), band, base_seed=SEED)
    return (f"mixed band {md5(band.lower, band.upper)} "
            f"labels {out['labels']} failures {len(out['failures'])}")


def main() -> int:
    for line in scenario_lines():
        print(line, flush=True)
    print(campaign_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
