"""MD5 digests of the library's truths and estimates, for checking that a
refactor changes no bit of either.

    python tools/estimate_digest.py

Run from the root of a checkout; the library is imported from `src/`.
Prints one line per `harness.simulate_truth` first, with the MD5 of its
states and outputs: the scalar and mixed models (healthy) and the engine
on `scenario_I_concurrent` and `scenario_II_simultaneous`, seed 3, 2,500
steps, past every fault onset.  Then one line per `harness.run_scenario`
config: 3 models x 3 estimators x 2 predictors at N = 30, seed 3, 300
steps (the engine on `scenario_I_concurrent`), each with the MD5 of its
theta_hat and x_hat bytes, or the error it raised; then the dual on each
model and predictor again with `cov_mode="running"`, the mode the unit
tests use (the runs above take the default, "initial").  Then the runs at
the benchmark's sizes: the engine dual under "one_step" at N = 50 for 400
steps, and the mixed model's matched budgets over 300 steps (dual 41,
Bayesian 45, RML 150; theta0_std 0.005, x0_std 0.1; step size 0.1 for the
dual, 1e-4 for RML; the "output" predictor).  Then one line with the MD5
of a 4-run mixed-model `calibrate_band` (widened once, scale 1.1) and the
labels of a `campaign_design(1)` confusion round against that band, and
one line with the MD5 of the acceptance tests' dual band: 25 runs at
calibration seed 0, coverage 0.995, persistence 10, the dual's matched
budget above; it is widened twice (scale 1.21).  Equal lines on two
commits mean bit-identical results.

    python tools/estimate_digest.py --against REV

compares with a git revision: it extracts `git archive REV src` into a
temporary directory, runs this script's configs in two subprocesses, one
importing the library from that `src` and one from the checkout's, and
prints the lines that differ.  It exits 0 when every line matches, 1 when
a line differs and 2 when either run fails, and leaves no file behind.
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dualpf.errors import DualPFError  # noqa: E402
from dualpf.harness import (ESTIMATORS, MODELS, RunConfig,  # noqa: E402
                            calibrate_band, campaign_design,
                            confusion_campaign, run_scenario, simulate_truth)
from dualpf.param_filter import PREDICTORS  # noqa: E402

N_PARTICLES = 30
SEED = 3
DURATION = 300
CALIBRATION_RUNS = 4
TRUTH_STEPS = 2500
TRUTHS = (("scalar", "healthy"), ("mixed", "healthy"),
          ("gas_turbine", "scenario_I_concurrent"),
          ("gas_turbine", "scenario_II_simultaneous"))
# (estimator, N, step size) of the mixed model's matched-budget campaign.
MATCHED_BUDGETS = (("dual", 41, 0.1), ("bayesian", 45, None),
                   ("rml", 150, 1e-4))


def md5(*arrays: np.ndarray) -> str:
    digest = hashlib.md5()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def run_digest(model: str, estimator: str, predictor: str,
               **settings) -> str:
    """The MD5 of one run's estimates, or the error it raised; `settings`
    override the N, the duration and any other `RunConfig` field."""
    scenario = ("scenario_I_concurrent" if model == "gas_turbine"
                else "healthy")
    settings = {"n_particles": N_PARTICLES, "duration": DURATION, **settings}
    cfg = RunConfig(model=model, estimator=estimator, seed=SEED,
                    scenario=scenario, predictor=predictor, **settings)
    try:
        run = run_scenario(cfg)
        return md5(run["theta_hat"], run["x_hat"])
    except DualPFError as exc:
        return f"{type(exc).__name__}: {exc}"


def truth_lines():
    for model, scenario in TRUTHS:
        cfg = RunConfig(model=model, scenario=scenario, seed=SEED,
                        duration=TRUTH_STEPS)
        _, states, ys, _, _ = simulate_truth(cfg)
        yield f"{model} {scenario} truth T={TRUTH_STEPS}: {md5(states, ys)}"


def scenario_lines():
    for model in MODELS:
        for estimator in ESTIMATORS:
            for predictor in PREDICTORS:
                result = run_digest(model, estimator, predictor)
                yield f"{model} {estimator} {predictor}: {result}"
    for model in MODELS:
        for predictor in PREDICTORS:
            result = run_digest(model, "dual", predictor, cov_mode="running")
            yield f"{model} dual {predictor} running: {result}"
    result = run_digest("gas_turbine", "dual", "one_step", n_particles=50,
                        duration=400)
    yield f"gas_turbine dual one_step N=50 T=400: {result}"
    for estimator, n, step_size in MATCHED_BUDGETS:
        result = run_digest("mixed", estimator, "output", n_particles=n,
                            step_size=step_size, theta0_std=0.005,
                            x0_std=0.1)
        yield f"mixed {estimator} matched N={n}: {result}"


def campaign_line() -> str:
    cfg = RunConfig(model="mixed", n_particles=N_PARTICLES,
                    duration=DURATION, seed=SEED)
    band = calibrate_band(cfg, CALIBRATION_RUNS, base_seed=SEED)
    out = confusion_campaign(cfg, campaign_design(1), band, base_seed=SEED)
    return (f"mixed band {md5(band.lower, band.upper)} "
            f"labels {out['labels']} failures {len(out['failures'])}")


def acceptance_band_line() -> str:
    _, n, step_size = MATCHED_BUDGETS[0]
    cfg = RunConfig(model="mixed", estimator="dual", n_particles=n,
                    step_size=step_size, theta0_std=0.005, x0_std=0.1,
                    persistence=10)
    band = calibrate_band(cfg, 25, base_seed=0, coverage=0.995)
    return f"mixed dual acceptance band R=25: {md5(band.lower, band.upper)}"


# A child imports the library from the first PYTHONPATH entry before this
# script puts the checkout's src/ first on sys.path, then runs the script.
CHILD = ("import runpy, sys, dualpf; sys.argv = sys.argv[1:]; "
         "runpy.run_path(sys.argv[0], run_name='__main__')")


def digest_run(src: Path, cwd: str) -> subprocess.CompletedProcess:
    """This script's digest in a subprocess, the library taken from src."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", CHILD, __file__], cwd=cwd,
                          env=env, capture_output=True, text=True)


def compare(rev: str) -> int:
    """Print the digest lines that differ between rev and the checkout;
    0 when none does, 1 when one does, 2 when a run fails."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        runs = {rev: digest_run(Path(tmp) / "src", tmp),
                "checkout": digest_run(ROOT / "src", tmp)}
    for name, run in runs.items():
        if run.returncode != 0:
            print(f"{name} run failed:\n{run.stderr}", file=sys.stderr)
            return 2
    old, new = (runs[name].stdout.splitlines() for name in (rev, "checkout"))
    diff = list(difflib.unified_diff(old, new, fromfile=rev,
                                     tofile="checkout", lineterm="", n=0))
    print("\n".join(diff) if diff else f"{len(old)} lines match {rev}")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the library at a git revision")
    args = parser.parse_args(argv)
    if args.against:
        return compare(args.against)
    for line in itertools.chain(truth_lines(), scenario_lines()):
        print(line, flush=True)
    print(campaign_line(), flush=True)
    print(acceptance_band_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
