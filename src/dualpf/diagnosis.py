"""Residual generation, threshold calibration and confusion analysis.

A healthy baseline is fitted over a converged window of parameter
estimates; residuals are the baseline minus the running estimate, so a
loss of effectiveness shows up as a positive residual.  Thresholds are
empirical quantile envelopes over healthy Monte-Carlo runs; decisions
require a persistence of consecutive out-of-band samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (CalibrationError, ConfigError, UndefinedMetricError,
                     check_int, check_real)
from .model import COMPONENTS
from .smc import sample_cov

CONVERGENCE_WINDOW = 200   # healthy-fit horizon and MAE tail, steps (2 s at 10 ms)
MIN_BAND_WIDTH = 1e-6
SEVERITY_WINDOW = 100      # steps after detection averaged into the severity
CATEGORIES = COMPONENTS + ("no_fault",)


@dataclass
class HealthyBaseline:
    theta0: np.ndarray   # fitted healthy estimate (Gaussian mode = mean)
    window: int
    fit_cov: np.ndarray
    short_window: bool = False


@dataclass
class ThresholdBand:
    lower: np.ndarray    # per-component residual bounds
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ConfigError("band lower and upper must be vectors of one "
                              "length")
        if not np.all(self.lower < self.upper):
            raise ConfigError("band requires lower < upper componentwise")


@dataclass
class ComponentDecision:
    detected: bool
    t_detect: int | None = None   # first step of the violating run
    severity: float | None = None


@dataclass
class ConfusionMatrix:
    """5x5 counts; rows actual category, columns decided category."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((5, 5), dtype=int))

    def add(self, actual: str, decided: str, n: int):
        for name in (actual, decided):
            if name not in CATEGORIES:
                raise ConfigError(f"unknown category {name!r}")
        self.counts[CATEGORIES.index(actual), CATEGORIES.index(decided)] += n


def fit_healthy_baseline(theta_estimates: np.ndarray,
                         window: int) -> HealthyBaseline:
    """Gaussian fit over the trailing window of healthy estimates; a window
    shorter than CONVERGENCE_WINDOW is flagged in `short_window`."""
    if window < 2:
        raise ConfigError("need at least 2 samples to fit a baseline")
    tail = np.atleast_2d(np.asarray(theta_estimates, dtype=float))[-window:]
    return HealthyBaseline(theta0=tail.mean(axis=0), window=window,
                           fit_cov=sample_cov(tail),
                           short_window=window < CONVERGENCE_WINDOW)


def residual(baseline: HealthyBaseline, theta_hat: np.ndarray) -> np.ndarray:
    """r = theta0 - theta_hat; positive components mean effectiveness loss."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape[-1] != baseline.theta0.shape[0]:
        raise ConfigError("residual dimension mismatch")
    return baseline.theta0 - theta_hat


def check_coverage(coverage: float) -> None:
    if not 0.0 < check_real("coverage", coverage) < 1.0:
        raise ConfigError(f"coverage must be in (0, 1), got {coverage}")


def calibrate_thresholds(healthy_residual_runs: list[np.ndarray],
                         coverage: float) -> ThresholdBand:
    """Empirical quantile envelope of healthy-condition residuals.

    healthy_residual_runs: list of (T, n_theta) residual trajectories from
    independent healthy Monte-Carlo runs.
    """
    check_coverage(coverage)
    if not healthy_residual_runs:
        raise CalibrationError("no healthy residual run to calibrate on")
    pooled = np.concatenate([np.atleast_2d(r) for r in healthy_residual_runs])
    alpha = (1.0 - coverage) / 2.0
    lo = np.quantile(pooled, alpha, axis=0)
    hi = np.quantile(pooled, 1.0 - alpha, axis=0)
    mid = 0.5 * (lo + hi)
    half = np.maximum(0.5 * (hi - lo), MIN_BAND_WIDTH)
    return ThresholdBand(mid - half, mid + half)


def decide(residuals: np.ndarray, band: ThresholdBand,
           persistence: int) -> list[ComponentDecision]:
    """Per-component persistence test against the band.

    A component is flagged when its residual stays outside the band for
    `persistence` consecutive steps; the detection time is the first step
    of that run and the severity is the mean residual over the trailing
    SEVERITY_WINDOW steps after detection.
    """
    check_int("persistence", persistence, 1)
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    t_len, n_th = residuals.shape
    if band.lower.shape != (n_th,):
        raise ConfigError(f"{band.lower.size}-component band for "
                          f"{n_th}-component residuals")
    out = []
    outside = (residuals < band.lower) | (residuals > band.upper)
    for j in range(n_th):
        col = outside[:, j]
        decision = ComponentDecision(detected=False)
        run = 0
        for t in range(t_len):
            run = run + 1 if col[t] else 0
            if run >= persistence:
                start = t - persistence + 1
                tail = residuals[start:start + SEVERITY_WINDOW, j]
                decision = ComponentDecision(
                    detected=True, t_detect=start,
                    severity=float(tail.mean()))
                break
        out.append(decision)
    return out


def classify(decisions: list[ComponentDecision], band: ThresholdBand) -> str:
    """Single 5-way label for a run.

    Among detected components, picks the one with the largest severity
    magnitude normalized by the band half-width, so components with looser
    thresholds are not favored; no_fault when nothing was detected.
    """
    best, best_score = None, -np.inf
    for j, d in enumerate(decisions):
        if not d.detected:
            continue
        score = abs(d.severity) / (0.5 * (band.upper[j] - band.lower[j]))
        if score > best_score:
            best, best_score = j, score
    return CATEGORIES[best] if best is not None else "no_fault"


def confusion_metrics(m: ConfusionMatrix) -> dict:
    """Accuracy, per-fault-class precision and false-positive rate."""
    c = np.asarray(m.counts, dtype=float)
    total = c.sum()
    if total <= 0:
        raise UndefinedMetricError("empty confusion matrix")
    metrics = {"AC": 100.0 * np.trace(c) / total}
    for j, name in enumerate(COMPONENTS):
        col = c[:, j].sum()
        metrics[f"P_{name}"] = 100.0 * c[j, j] / col if col > 0 else None
    row5 = c[4, :].sum()
    metrics["FP"] = 100.0 * c[4, :4].sum() / row5 if row5 > 0 else None
    return metrics


def mae_percent(estimates: np.ndarray, truth: np.ndarray, nominal: float,
                window: slice | None = None) -> float:
    """100 * mean |estimate - truth| / |nominal| over the window."""
    if nominal == 0:
        raise UndefinedMetricError("nominal value must be nonzero")
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if window is not None:
        est, tru = est[window], tru[window]
    if est.shape != tru.shape:
        raise ConfigError("estimate/truth shape mismatch")
    return 100.0 * float(np.mean(np.abs(est - tru))) / abs(nominal)


def report(baseline: HealthyBaseline, band: ThresholdBand,
           decisions: list[ComponentDecision]) -> dict:
    """JSON-ready summary of one diagnosed run: baseline, band, decisions."""
    return {
        "baseline": {"theta0": baseline.theta0.tolist(),
                     "window": baseline.window,
                     "fit_cov": baseline.fit_cov.tolist(),
                     "short_window": baseline.short_window},
        "band": {"lower": band.lower.tolist(), "upper": band.upper.tolist()},
        "decisions": {
            CATEGORIES[j]: {"detected": d.detected, "t_detect": d.t_detect,
                            "severity": d.severity}
            for j, d in enumerate(decisions)
        },
    }
